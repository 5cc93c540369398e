import pytest

from gogsep import (
    check_immersion,
    complete_to_cover,
    cover_index,
    enlarge,
    exclusion_sets,
    fold,
    subgroup_member,
    wedge,
)
from gogsep.errors import ForeignElement, NotAnImmersion, NotSeparated

from conftest import W, canonical_key, remake, restriction_check


def test_exclusion_sets_ab(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    xs = exclusion_sets(m)
    assert xs == {"v0": ["a"], "v1_1": ["b", "b2"]}


def test_exclusion_sets_extra_and_checks(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    xs = exclusion_sets(m, extra={"v0": ["a"]})
    assert xs["v0"] == ["a"]
    with pytest.raises(ForeignElement):
        exclusion_sets(m, extra={"v0": ["b"]})


def test_exclusion_sets_reject_non_immersions(pslz):
    g = W(pslz, "u", "a", "e", "b", "~e", "1")
    with pytest.raises(NotAnImmersion):
        exclusion_sets(wedge(pslz, "u", [g, g]))


def test_enlarge_finite_vertices_is_identity(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    big = enlarge(m)
    for v in m.domain.graph.vertices:
        assert canonical_key(big.vgroup_image[v]) == canonical_key(m.vgroup_image[v])
    assert big.delta == m.delta


def test_enlarge_integer_vertex_to_finite_index(z2):
    gens = [
        W(z2, "x", "0", "e", "1", "~e", "0"),
        W(z2, "x", "1", "e", "1", "~e", "-1"),
    ]
    m = fold(wedge(z2, "x", gens))
    assert m.vgroup_image["v0"].index() is None
    xs = exclusion_sets(m)
    assert xs["v0"] == [-1, 1]
    big = enlarge(m)
    assert check_immersion(big).ok
    assert big.vgroup_image["v0"].index() == 2
    assert all(
        big.vgroup_image[v].index() is not None for v in big.domain.graph.vertices
    )
    assert restriction_check(m, big).violations == [
        {"kind": "subgroup", "vertex": "v0"}
    ]
    cover = complete_to_cover(big)
    assert cover_index(cover) == 2
    for g in gens:
        assert subgroup_member(cover, "v0", g)


def test_enlarge_free_vertex_with_exclusions(f2c2):
    gens = [
        W(f2c2, "x", "x1"),
        W(f2c2, "x", "1", "e", "a", "~e", "1"),
    ]
    m = fold(wedge(f2c2, "x", gens))
    big = enlarge(m, {"v0": [(2,)]})
    k = big.vgroup_image["v0"]
    assert k.index() is not None
    assert k.member((1,)) and not k.member((2,))
    assert check_immersion(big).ok
    assert cover_index(complete_to_cover(big)) >= 1


def test_enlarge_propagates_not_separated(f2c2):
    m = fold(wedge(f2c2, "x", [W(f2c2, "x", "x1")]))
    with pytest.raises(NotSeparated):
        enlarge(m, {"v0": [(1,)]})


def test_naive_enlargement_breaks_immersion(z2):
    gens = [
        W(z2, "x", "0", "e", "1", "~e", "0"),
        W(z2, "x", "1", "e", "1", "~e", "-1"),
    ]
    m = fold(wedge(z2, "x", gens))
    naive = remake(
        m,
        vgroup_image={
            **m.vgroup_image,
            "v0": z2.group_at("x").full_subgroup(),
        }
    )
    assert not check_immersion(naive).ok
