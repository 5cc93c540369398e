import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import (
    DecoratedMorphism,
    Graph,
    GraphOfGroups,
    complete_to_cover,
    cover_index,
    enlarge,
    fold,
    morphism_to_json,
    wedge,
)
from gogsep.errors import (
    GogsepError,
    InfiniteIndexVertex,
    NotAnImmersion,
    UnboundedEnumeration,
)

from conftest import (
    W,
    gen_corpus,
    handles_built,
    identity_morphism,
    lifts_at,
    make_c2c3c2,
    make_f2c2,
    make_pslz,
    make_rose2,
    make_z2,
    reference_complete,
    remake,
    restriction_check,
)
from test_golden import GOLDEN


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
        assert len(lifts_at(cover, v)["q"]) == 1
        assert len(lifts_at(cover, v)["~q"]) == 1


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


REFERENCE_TARGETS = {
    "pslz": (make_pslz, "u"),
    "rose2": (make_rose2, "o"),
    "c2c3c2": (make_c2c3c2, "u"),
    "f2c2": (make_f2c2, "x"),
    "z2": (make_z2, "x"),
}


def _outcome(complete, m, seed):
    """The completion's JSON, or the type and message of what it raised."""
    try:
        return morphism_to_json(complete(m, seed=seed))
    except GogsepError as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(tuple(REFERENCE_TARGETS)),
    st.integers(0, 10**6),
    st.integers(1, 3),
    st.sampled_from((None, 0, 7)),
)
def test_completion_matches_the_reference(name, corpus_seed, count, seed):
    """On enlarged random folds, with and without a shuffle seed."""
    make, u0 = REFERENCE_TARGETS[name]
    target = make()
    gens = gen_corpus(target, u0, random.Random(corpus_seed), count)
    m = enlarge(fold(wedge(target, u0, gens)))
    assert _outcome(complete_to_cover, m, seed) == _outcome(reference_complete, m, seed)


def _hand_built(target, vertices, edges):
    """A morphism from vertices {v: (image, handle)} and edge pairs
    {e: (start, end, image, delta at start, delta at end)}, unchecked for
    immersion."""
    g = Graph()
    for v in vertices:
        g.add_vertex(v)
    for e, (a, b, *_) in edges.items():
        g.add_edge(e, a, b)
    dom = GraphOfGroups(
        g, {v: target.group_at(u) for v, (u, _) in vertices.items()}, base=next(iter(vertices))
    )
    edge_map, delta = {}, {}
    for e, (_, _, f, x, y) in edges.items():
        edge_map[e], edge_map["~" + e] = f, "~" + f
        delta[e], delta["~" + e] = x, y
    return DecoratedMorphism(
        dom, target, {v: u for v, (u, _) in vertices.items()}, edge_map,
        {v: h for v, (_, h) in vertices.items()}, delta,
    )


def test_completion_names_the_least_colliding_pair(rose2):
    """p collides only on its ~p side (x1, x2 end at c), q on its q side
    (y1, y2 start at c); the message names p."""
    full, one = rose2.group_at("o").full_subgroup(), rose2.group_at("o").identity()
    m = _hand_built(
        rose2,
        {v: ("o", full) for v in "abc"},
        {
            "x1": ("a", "c", "p", one, one),
            "x2": ("b", "c", "p", one, one),
            "y1": ("c", "a", "q", one, one),
            "y2": ("c", "b", "q", one, one),
        },
    )
    for complete in (complete_to_cover, reference_complete):
        with pytest.raises(NotAnImmersion, match="lifts of 'p' collide"):
            complete(m)


def test_completion_checks_the_index_and_the_cap_before_collisions(z2):
    g = W(z2, "x", "2", "e", "3", "~e", "0")
    clash = wedge(z2, "x", [g, g])  # trivial subgroups of Z: infinite index
    for complete in (complete_to_cover, reference_complete):
        with pytest.raises(InfiniteIndexVertex):
            complete(clash)
    zx = z2.group_at("x")
    huge = _hand_built(
        z2,
        {"a": ("x", zx.subgroup([100_001])), "b": ("y", z2.group_at("y").full_subgroup())},
        {"s1": ("a", "b", "e", 0, 0), "s2": ("a", "b", "e", 0, 0)},
    )
    for complete in (complete_to_cover, reference_complete):
        with pytest.raises(UnboundedEnumeration):
            complete(huge)


@pytest.mark.parametrize("name", ["f2z", "pslz-folds"])
def test_completion_builds_one_full_handle_per_target_vertex(name, monkeypatch):
    """Padding vertices share their oracle's full handle (the two golden
    instances that pad more vertices than the target has)."""
    target, u0, gens, _ = GOLDEN[name][0]()
    m = enlarge(fold(wedge(target, u0, gens)))
    built = handles_built(monkeypatch)
    cover = complete_to_cover(m)
    padded = len(cover.domain.graph.vertices) - len(m.domain.graph.vertices)
    assert padded > len(target.graph.vertices)
    assert built() <= len(target.graph.vertices)


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
