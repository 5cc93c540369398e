import pytest

from gogsep import (
    CheckReport,
    DecoratedMorphism,
    Graph,
    GraphOfGroups,
    check_cover,
    check_immersion,
    cover_index,
    fold,
    lift_loop,
    subgroup_member,
    wedge,
)
from gogsep.errors import (
    EndpointMismatch,
    GogsepError,
    InfiniteIndexVertex,
    NotAnImmersion,
)
from gogsep.morphism import MISSING_SHOWN, _coset_slots, _lift

from conftest import W, identity_morphism, lifts_at, remake, subgroup_generators


def ab_immersion(pslz):
    return fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))


# -- structure ---------------------------------------------------------------


def test_identity_morphism_is_degree_one_cover(pslz):
    m = identity_morphism(pslz)
    assert check_cover(m).ok
    assert cover_index(m) == 1
    assert m.fiber("u") == ["u"]
    assert lifts_at(m, "u") == {"e": ["e"]}


def test_validate_requires_shared_oracles(pslz):
    g = Graph()
    g.add_vertex("d")
    # fresh oracle object, equal in shape but not identical
    from gogsep import FiniteGroup

    dom = GraphOfGroups(g, {"d": FiniteGroup.cyclic(2, "a")}, base="d")
    with pytest.raises(GogsepError):
        DecoratedMorphism(
            dom, pslz, {"d": "u"}, {},
            {"d": pslz.group_at("u").trivial_subgroup()}, {},
        )


def test_validate_rejects_broken_maps(pslz):
    m = ab_immersion(pslz)
    with pytest.raises(GogsepError):
        remake(m, vertex_map={**m.vertex_map, "v0": "nowhere"})
    bad_edges = dict(m.edge_map)
    bad_edges["~c1_1"] = "e"  # breaks the involution
    with pytest.raises(GogsepError):
        remake(m, edge_map=bad_edges)
    with pytest.raises(GogsepError):
        remake(m, delta={**m.delta, "c1_1": "b"})  # b is not in the group at u


def test_lifts_at_groups_a_vertex_lifts_by_target_edge(pslz):
    m = ab_immersion(pslz)
    assert lifts_at(m, "v0") == {"e": ["c1_1", "~c1_2"]}
    assert lifts_at(m, "v1_1") == {"~e": ["c1_2", "~c1_1"]}
    assert [m.delta[e] for e in lifts_at(m, "v0")["e"]] == ["a", "1"]


# -- immersion / cover checks ------------------------------------------------


def test_check_immersion_flags_coset_clash(pslz):
    g = W(pslz, "u", "a", "e", "b", "~e", "1")
    m = wedge(pslz, "u", [g, g])  # duplicate generator: two lifts share a coset
    report = check_immersion(m)
    assert not report.ok
    clash = report.violations[0]
    assert clash["vertex"] == "v0"
    assert clash["target_edge"] in ("e", "~e")
    assert fold(m) is not None  # folding repairs it
    assert check_immersion(fold(m)).ok


def test_check_cover_reports_missing_cosets(pslz):
    g = Graph()
    g.add_vertex("d")
    dom = GraphOfGroups(g, {"d": pslz.group_at("u")}, base="d")
    m = DecoratedMorphism(
        dom, pslz, {"d": "u"}, {},
        {"d": pslz.group_at("u").trivial_subgroup()}, {},
    )
    assert check_immersion(m).ok
    report = check_cover(m)
    assert not report.ok
    gap = report.violations[0]
    assert gap["have"] == 0 and gap["need"] == 2
    assert gap["missing"] == ["1", "a"]


def _one_lift(target, u, handle, f, d, d_bar):
    """Vertex ``d0`` over u with subgroup handle, one lift c of f to a full vertex."""
    g = Graph()
    g.add_vertex("d0")
    g.add_vertex("d1")
    g.add_edge("c", "d0", "d1")
    u1 = target.graph.tau(f)
    dom = GraphOfGroups(
        g, {"d0": target.group_at(u), "d1": target.group_at(u1)}, base="d0"
    )
    return DecoratedMorphism(
        dom, target, {"d0": u, "d1": u1}, {"c": f, "~c": "~" + f},
        {"d0": handle, "d1": target.group_at(u1).full_subgroup()},
        {"c": d, "~c": d_bar},
    )


def test_check_cover_missing_lists_unheld_reps_at_infinite_groups(z2, f2c2):
    three_z = z2.group_at("x").subgroup([3])
    m = _one_lift(z2, "x", three_z, "e", 4, 0)  # 4 holds the coset 3Z + 1
    assert check_immersion(m).ok
    report = check_cover(m)
    assert report.violations == [
        {"vertex": "d0", "target_edge": "e", "have": 1, "need": 3, "missing": [0, 2]}
    ]

    f2 = f2c2.group_at("x")
    index_two = f2.subgroup([(1, 1), (2,), (1, 2, -1)])
    assert index_two.coset_reps() == [(), (1,)]
    m = _one_lift(f2c2, "x", index_two, "e", (1, 2), "1")  # H x1 x2 = H x1
    report = check_cover(m)
    assert report.violations == [
        {"vertex": "d0", "target_edge": "e", "have": 1, "need": 2, "missing": [()]}
    ]


def test_check_cover_lists_a_few_missing_reps_at_a_huge_index(z2):
    """The first unheld reps of 10^12 Z, without listing its transversal."""
    huge = z2.group_at("x").subgroup([10**12])
    m = _one_lift(z2, "x", huge, "e", 4, 0)
    report = check_cover(m)
    assert report.violations == [
        {
            "vertex": "d0",
            "target_edge": "e",
            "have": 1,
            "need": 10**12,
            "missing": [0, 1, 2, 3, 5][:MISSING_SHOWN],  # 4 is held
        }
    ]


def test_check_cover_needs_finite_index(z2):
    g = Graph()
    g.add_vertex("d")
    dom = GraphOfGroups(g, {"d": z2.group_at("x")}, base="d")
    m = DecoratedMorphism(
        dom, z2, {"d": "x"}, {},
        {"d": z2.group_at("x").trivial_subgroup()}, {},
    )
    with pytest.raises(InfiniteIndexVertex):
        check_cover(m)


def _hand_built(target, vertices, edges):
    """A morphism from its parts: vertices as (v, image, handle) in insertion
    order, edge pairs as (e, from, to, target edge, delta, delta on ~e)."""
    g = Graph()
    for v, _, _ in vertices:
        g.add_vertex(v)
    for e, frm, to, *_ in edges:
        g.add_edge(e, frm, to)
    vmap = {v: u for v, u, _ in vertices}
    dom = GraphOfGroups(g, {v: target.group_at(u) for v, u in vmap.items()})
    emap, delta = {}, {}
    for e, _, _, f, d, d_bar in edges:
        emap[e], emap["~" + e] = f, target.graph._rev[f]
        delta[e], delta["~" + e] = d, d_bar
    return DecoratedMorphism(
        dom, target, vmap, emap, {v: h for v, _, h in vertices}, delta
    )


def test_check_reports_pin_clashes_at_two_vertices_and_two_edges(pslz):
    """Vertices in insertion order, target edges sorted, pairs sorted."""
    c2, c3 = pslz.group_at("u"), pslz.group_at("w")
    m = _hand_built(
        pslz,
        [("p", "u", c2.trivial_subgroup()), ("r", "w", c3.trivial_subgroup()),
         ("q", "w", c3.trivial_subgroup())],
        [("d5", "p", "r", "e", "1", "1"), ("d1", "p", "q", "e", "1", "1"),
         ("d3", "p", "r", "e", "a", "1"), ("d2", "p", "q", "e", "1", "1")],
    )
    clashes = [
        {"vertex": "p", "target_edge": "e", "edges": ("d1", "d2")},
        {"vertex": "p", "target_edge": "e", "edges": ("d1", "d5")},
        {"vertex": "p", "target_edge": "e", "edges": ("d2", "d5")},
        {"vertex": "r", "target_edge": "~e", "edges": ("~d3", "~d5")},
        {"vertex": "q", "target_edge": "~e", "edges": ("~d1", "~d2")},
    ]
    assert check_immersion(m) == CheckReport(False, clashes)
    assert check_cover(m) == CheckReport(False, clashes)


def test_check_immersion_sorts_the_target_edges_at_a_vertex(c2c3c2):
    """At q the ~e lifts come first in the out-list, the f lifts first in
    the report."""
    u, w, z = (c2c3c2.group_at(x).trivial_subgroup() for x in "uwz")
    m = _hand_built(
        c2c3c2,
        [("p", "u", u), ("q", "w", w), ("r", "z", z)],
        [("a1", "p", "q", "e", "1", "b"), ("a2", "p", "q", "e", "a", "b"),
         ("c1", "r", "q", "~f", "1", "1"), ("c2", "r", "q", "~f", "c", "1")],
    )
    assert m.domain.graph.edges_at("q") == ["~a1", "~a2", "~c1", "~c2"]
    assert check_immersion(m).violations == [
        {"vertex": "q", "target_edge": "f", "edges": ("~c1", "~c2")},
        {"vertex": "q", "target_edge": "~e", "edges": ("~a1", "~a2")},
    ]


def test_check_cover_pins_missing_reps_at_two_vertices_and_two_edges(z2):
    x, y = z2.group_at("x"), z2.group_at("y")
    m = _hand_built(
        z2,
        [("p", "x", x.subgroup([3])), ("r", "x", x.subgroup([7])),
         ("q", "y", y.subgroup([3]))],
        [("d1", "p", "q", "e", 1, 0), ("d2", "r", "q", "e", 5, 1)],
    )
    assert check_immersion(m).ok
    assert check_cover(m) == CheckReport(False, [
        {"vertex": "p", "target_edge": "e", "have": 1, "need": 3, "missing": [0, 2]},
        {"vertex": "r", "target_edge": "e", "have": 1, "need": 7,
         "missing": [0, 1, 2, 3, 4]},
        {"vertex": "q", "target_edge": "~e", "have": 2, "need": 3, "missing": [2]},
    ])


def test_check_cover_reports_a_clash_before_an_infinite_index(z2):
    """The clash at q wins over the infinite index at p, listed before it."""
    x, y = z2.group_at("x"), z2.group_at("y")
    m = _hand_built(
        z2,
        [("p", "x", x.trivial_subgroup()), ("q", "y", y.subgroup([2]))],
        [("d1", "p", "q", "e", 0, 0), ("d2", "p", "q", "e", 1, 2)],
    )
    clash = [{"vertex": "q", "target_edge": "~e", "edges": ("~d1", "~d2")}]
    assert check_cover(m) == CheckReport(False, clash)


def test_validate_names_the_least_of_two_faulty_edges(pslz):
    """Edge b is added first, so ~b precedes a in storage; the sorted walk
    reaches a first, and its fault is the one reported."""
    c2, c3 = pslz.group_at("u"), pslz.group_at("w")
    m = _hand_built(
        pslz,
        [("p", "u", c2.trivial_subgroup()), ("q", "w", c3.trivial_subgroup())],
        [("b", "p", "q", "e", "1", "1"), ("a", "p", "q", "e", "a", "1")],
    )
    with pytest.raises(GogsepError, match=r"^'za' is not an element of C2$"):
        remake(m, delta={**m.delta, "~b": "zb", "a": "za"})
    with pytest.raises(GogsepError, match=r"^edge map breaks iota at 'a'$"):
        remake(m, edge_map={**m.edge_map, "~b": "f", "a": "~e", "~a": "e"})


# -- lifting -----------------------------------------------------------------


def test_lift_loop_closed_member(pslz):
    m = ab_immersion(pslz)
    out = lift_loop(m, W(pslz, "u", "a", "e", "b", "~e", "1"), "v0")
    assert out.case == "closed"
    assert out.path_edges == ("c1_1", "c1_2")
    assert pslz.group_at("u").is_identity(out.element)


def test_lift_loop_closed_nonmember(pslz):
    m = ab_immersion(pslz)
    out = lift_loop(m, W(pslz, "u", "a"), "v0")
    assert out.case == "closed" and out.element == "a"
    assert not m.vgroup_image["v0"].member(out.element)


def test_lift_loop_open_end(pslz):
    gens = [W(pslz, "u", "a", "e", "b", "~e", "a", "e", "b", "~e", "1")]
    m = fold(wedge(pslz, "u", gens))
    out = lift_loop(m, W(pslz, "u", "a", "e", "b", "~e", "1"), "v0")
    assert out.case == "open_end"
    assert out.end_vertex != "v0"
    assert out.consumed == 2


def test_lift_loop_stuck(pslz):
    m = ab_immersion(pslz)
    out = lift_loop(m, W(pslz, "u", "a", "e", "b2", "~e", "1"), "v0")
    assert out.case == "stuck"
    assert out.consumed == 1 and out.vertex == "v1_1"
    assert out.target_edge == "~e" and out.carry == "b2"
    assert out.path_edges == ("c1_1",)


def test_lift_loop_endpoint_checks(pslz):
    m = ab_immersion(pslz)
    with pytest.raises(EndpointMismatch):
        lift_loop(m, W(pslz, "w", "b"), "v0")  # wrong fiber
    not_loop = W(pslz, "u", "1", "e", "1")
    with pytest.raises(EndpointMismatch):
        lift_loop(m, not_loop, "v0")


def test_lift_loop_rejects_an_unknown_base_vertex_and_another_target(pslz, dinfty):
    m = ab_immersion(pslz)
    with pytest.raises(GogsepError, match="unknown base vertex 'nowhere'"):
        lift_loop(m, W(pslz, "u", "a"), "nowhere")
    with pytest.raises(GogsepError, match="does not live on the morphism's target"):
        lift_loop(m, W(dinfty, "u", "a"), "v0")


# -- membership --------------------------------------------------------------


def test_subgroup_member_ab(pslz):
    m = ab_immersion(pslz)
    ab = W(pslz, "u", "a", "e", "b", "~e", "1")
    assert subgroup_member(m, "v0", ab)
    assert subgroup_member(m, "v0", (ab * ab).reduce())
    assert subgroup_member(m, "v0", ab.inverse())
    assert subgroup_member(m, "v0", pslz.identity_word("u"))
    assert not subgroup_member(m, "v0", W(pslz, "u", "a"))
    assert not subgroup_member(m, "v0", W(pslz, "u", "1", "e", "b", "~e", "1"))


def test_subgroup_generators_round_trip_through_membership(pslz, rng):
    gens = [
        W(pslz, "u", "a", "e", "b", "~e", "1"),
        W(pslz, "u", "1", "e", "b", "~e", "a", "e", "b2", "~e", "1"),
    ]
    m = fold(wedge(pslz, "u", gens))
    for g in subgroup_generators(m, "v0"):
        assert subgroup_member(m, "v0", g)
    for g in gens:
        assert subgroup_member(m, "v0", g)


def two_lifts_in_one_coset(pslz):
    """v over u with the trivial subgroup and two lifts of e, c1 and c2,
    both with delta 1: they share the coset S*1, so this is no immersion."""
    g = Graph()
    for v in ("v", "x1", "x2"):
        g.add_vertex(v)
    g.add_edge("c1", "v", "x1")
    g.add_edge("c2", "v", "x2")
    c2, c3 = pslz.group_at("u"), pslz.group_at("w")
    return DecoratedMorphism(
        GraphOfGroups(g, {"v": c2, "x1": c3, "x2": c3}, base="v"),
        pslz,
        vertex_map={"v": "u", "x1": "w", "x2": "w"},
        edge_map={"c1": "e", "~c1": "~e", "c2": "e", "~c2": "~e"},
        vgroup_image={"v": c2.trivial_subgroup(), "x1": c3.full_subgroup(),
                      "x2": c3.full_subgroup()},
        delta=dict.fromkeys(["c1", "~c1", "c2", "~c2"], "1"),
    )


def test_a_lift_refuses_two_lifts_in_one_coset(pslz):
    """Both ways of finding a step's lifts, the out-list scan and a keyed
    slot table, name the two lifts that share the carry's coset."""
    m = two_lifts_in_one_coset(pslz)
    assert not check_immersion(m).ok
    g = W(pslz, "u", "1", "e", "b", "~e", "1")
    message = "multiple lifts of 'e' at 'v' share a coset: ['c1', 'c2']"
    with pytest.raises(NotAnImmersion) as scan:
        lift_loop(m, g, "v")
    with pytest.raises(NotAnImmersion) as slots:
        _lift(m, g, "v", _coset_slots(m))
    assert str(scan.value) == str(slots.value) == message
