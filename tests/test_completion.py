import pytest

from gogsep import (
    complete_to_cover,
    cover_index,
    fold,
    morphism_to_json,
    wedge,
)
from gogsep.errors import InfiniteIndexVertex, NotAnImmersion

from conftest import W, identity_morphism, remake, restriction_check


def ab_immersion(pslz):
    return fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))


def test_complete_ab_pads_to_degree_three(pslz):
    m = ab_immersion(pslz)
    cover = complete_to_cover(m)
    assert cover_index(cover) == 3
    assert sorted(cover.domain.graph.vertices) == ["v0", "v1_1", "z1"]
    indices = {v: cover.vgroup_image[v].index() for v in cover.domain.graph.vertices}
    assert indices == {"v0": 2, "v1_1": 3, "z1": 1}
    assert cover.vertex_map["z1"] == "u"
    # the padding vertex connects to the coset the immersion left open
    new = [p for p in cover.domain.graph.edge_pairs() if p.startswith("n")]
    assert new == ["n1"]
    assert cover.domain.graph.iota("n1") == "z1"
    assert cover.domain.graph.tau("n1") == "v1_1"
    assert cover.delta["~n1"] == "b2"
    assert restriction_check(m, cover).ok
    assert cover.domain.graph.is_connected()


def test_complete_preserves_existing_covers(dinfty):
    m = fold(wedge(dinfty, "u", [W(dinfty, "u", "a", "e", "b", "~e", "1")]))
    cover = complete_to_cover(m)
    assert cover_index(cover) == 2
    assert not any(v.startswith("z") for v in cover.domain.graph.vertices)
    assert not any(p.startswith("n") for p in cover.domain.graph.edge_pairs())
    assert restriction_check(m, cover).ok


def test_complete_seed_determinism(pslz, c2c3c2):
    for gog, gens in [
        (pslz, [W(pslz, "u", "a", "e", "b", "~e", "1")]),
        (c2c3c2, [W(c2c3c2, "u", "a", "e", "b", "~e", "1"),
                  W(c2c3c2, "u", "1", "e", "b", "f", "c", "~f", "b", "~e", "1")]),
    ]:
        m = fold(wedge(gog, gog.base, gens))
        one = morphism_to_json(complete_to_cover(m, seed=7))
        two = morphism_to_json(complete_to_cover(m, seed=7))
        assert one == two
        assert cover_index(complete_to_cover(m, seed=11)) == cover_index(
            complete_to_cover(m, seed=7)
        )


def test_complete_fills_loop_edge_targets(rose2):
    m = fold(wedge(rose2, "o", [W(rose2, "o", "1", "p", "1", "p", "1")]))
    cover = complete_to_cover(m)
    assert cover_index(cover) == 2
    # q had no lifts at all: both fiber vertices pick one up
    for v in cover.domain.graph.vertices:
        assert len(cover.lifts_at(v)["q"]) == 1
        assert len(cover.lifts_at(v)["~q"]) == 1


def test_complete_pads_empty_fiber(z2):
    m = fold(wedge(z2, "x", [W(z2, "x", "2")]))
    assert m.fiber("y") == []
    cover = complete_to_cover(m)
    assert cover_index(cover) == 2
    assert sorted(cover.fiber("y")) == ["z1", "z2"]
    assert all(cover.vgroup_image[z].index() == 1 for z in cover.fiber("y"))


def test_complete_requires_immersion(pslz):
    g = W(pslz, "u", "a", "e", "b", "~e", "1")
    with pytest.raises(NotAnImmersion):
        complete_to_cover(wedge(pslz, "u", [g, g]))


def test_complete_requires_finite_index(z2):
    m = wedge(z2, "x", [])
    with pytest.raises(InfiniteIndexVertex):
        complete_to_cover(m)


def test_restriction_check_catches_tampering(pslz):
    m = ab_immersion(pslz)
    cover = complete_to_cover(m)
    assert restriction_check(m, cover).ok
    assert restriction_check(cover, m).violations  # padding is not in m

    twisted = remake(cover, delta={**cover.delta, "c1_1": "1"})
    report = restriction_check(m, twisted)
    assert not report.ok
    assert {"kind": "delta", "edge": "c1_1"} in report.violations

    foreign = remake(cover)
    foreign.delta["c1_1"] = "zz"  # not an element of C2; set after validation
    report = restriction_check(m, foreign)
    assert {"kind": "delta", "edge": "c1_1"} in report.violations

    relabeled = remake(
        cover,
        vertex_map={**cover.vertex_map},
        vgroup_image={
            **cover.vgroup_image,
            "v0": pslz.group_at("u").full_subgroup(),
        },
    )
    report = restriction_check(m, relabeled)
    assert {"kind": "subgroup", "vertex": "v0"} in report.violations


def test_restriction_identity(pslz):
    m = identity_morphism(pslz)
    assert restriction_check(m, m).ok
