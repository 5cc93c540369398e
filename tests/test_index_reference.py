"""Indexed local maps against the plain scans they replace.

``Graph.edges_at`` reads a per-vertex edge list and ``Graph.tau`` a
reverse table, ``trim_core`` runs a valence worklist, fold finding and
the immersion check bucket lifts by ``SubgroupHandle.coset_key``, and
``lift_loop`` keys each step's carry (a certificate's lifts read the
cover check's buckets).
Each test here keeps the direct scan as the reference and requires the
same answer, in the same order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import (
    DecoratedMorphism,
    FiniteGroup,
    Graph,
    GraphOfGroups,
    bar,
    check_cover,
    check_immersion,
    complete_to_cover,
    enlarge,
    fold,
    lift_loop,
    wedge,
)
from gogsep.errors import GogsepError
from gogsep.folding import _find_fold, _fold_once, trim_core
from gogsep.morphism import _lift, _Working

from conftest import gen_corpus, make_f2c2, make_pslz, make_z2, scan_lift

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


# -- Graph.edges_at ----------------------------------------------------------

NAMES = st.text(alphabet="abqz", min_size=1, max_size=3)


@SETTINGS
@given(
    st.integers(1, 4),
    st.lists(
        st.one_of(
            st.tuples(st.just("edge"), NAMES, st.integers(0, 3), st.integers(0, 3)),
            st.tuples(st.just("query"), st.integers(0, 4)),
        ),
        max_size=30,
    ),
)
def test_edges_at_matches_a_sorted_scan(n, ops):
    g = Graph()
    vertices = [f"w{i}" for i in range(n)]
    for v in vertices:
        g.add_vertex(v)
    iota = {}
    for op in ops:
        if op[0] == "edge":
            _, name, i, j = op
            if name in iota:
                continue
            frm, to = vertices[i % n], vertices[j % n]  # self-loops, parallels
            g.add_edge(name, frm, to)
            iota[name], iota[bar(name)] = frm, to
        else:
            v = f"w{op[1]}"  # w4 and beyond are unknown vertices
            got = g.edges_at(v)
            assert got == sorted(e for e, src in iota.items() if src == v)
            got.append("junk")  # a fresh list each call
            assert "junk" not in g.edges_at(v)
            for e in iota:  # the reverse table agrees with the names
                assert g.tau(e) == g.iota(bar(e)) == iota[bar(e)]
    assert g.vertices == vertices
    for e in ("zzzz", "~zzzz"):  # longer than any drawn name
        with pytest.raises(GogsepError, match=f"unknown edge '{e}'"):
            g.tau(e)


# -- trim_core ---------------------------------------------------------------


def _old_trim_alive(m):
    """The restarting sorted sweep trim_core used to run."""
    g = m.domain.graph
    alive_vertices = set(g.vertices)
    alive_pairs = set(g.edge_pairs())

    def incident(v):
        return [d for p in alive_pairs for d in (p, bar(p)) if g.iota(d) == v]

    changed = True
    while changed:
        changed = False
        for v in sorted(alive_vertices):
            if v == m.domain.base or not m.vgroup_image[v].is_trivial():
                continue
            edges = incident(v)
            if len(edges) != 1:
                continue
            d = edges[0]
            alive_pairs.discard(d if d in alive_pairs else bar(d))
            alive_vertices.discard(v)
            changed = True
            break
    return alive_vertices, alive_pairs


def _over_petal(names, ends, heavy=(), base=None):
    """Graph on ``names`` with an edge per pair in ``ends``, mapped onto a C2 petal.

    Vertices in ``heavy`` carry the whole C2, the others the trivial subgroup.
    """
    g = Graph()
    g.add_vertex("o")
    g.add_edge("p", "o", "o")
    c2 = FiniteGroup.cyclic(2, "a")
    target = GraphOfGroups(g, {"o": c2}, base="o")
    graph = Graph()
    for v in names:
        graph.add_vertex(v)
    edge_map, delta = {}, {}
    for k, (a, b) in enumerate(ends):
        e = f"d{k}"
        graph.add_edge(e, a, b)
        edge_map[e], edge_map[bar(e)] = "p", "~p"
        delta[e] = delta[bar(e)] = "1"
    vgroup = {
        v: c2.full_subgroup() if v in heavy else c2.trivial_subgroup() for v in names
    }
    dom = GraphOfGroups(graph, {v: c2 for v in names}, base=base)
    return DecoratedMorphism(dom, target, {v: "o" for v in names}, edge_map, vgroup, delta)


@st.composite
def petal_covers(draw):
    """A connected graph over a C2 petal: random tree plus extra edges."""
    n = draw(st.integers(1, 12))
    names = [f"v{k}" for k in draw(st.permutations(range(n)))]
    ends = [(names[i], names[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    ends += draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=4))
    heavy = draw(st.sets(st.sampled_from(names), max_size=2))
    base = draw(st.sampled_from([None] + names))
    return _over_petal(names, ends, heavy, base)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(petal_covers())
def test_trim_core_matches_the_restarting_sweep(m):
    alive_vertices, alive_pairs = _old_trim_alive(m)
    t = trim_core(m)
    if alive_vertices == set(m.domain.graph.vertices):
        assert t is m
    assert t.domain.graph.vertices == [v for v in m.domain.graph.vertices if v in alive_vertices]
    assert t.domain.graph.edge_pairs() == sorted(alive_pairs)
    assert t.domain.base == m.domain.base


def test_trim_core_peels_an_unprotected_path_in_sorted_order():
    # v1 < v10 < v2: v1 goes first, then v10, and v2 is left alone
    t = trim_core(_over_petal(["v2", "v10", "v1"], [("v2", "v10"), ("v10", "v1")]))
    assert t.domain.graph.vertices == ["v2"]


# -- fold finding and the immersion check ------------------------------------


def _lifts(m, v, f):
    g = m.domain.graph
    return sorted(e for e in g.directed_edges if g.iota(e) == v and m.edge_map[e] == f)


def _same_coset_pairs(m, v):
    """(f, e_i, e_j) for every pair i < j of same-coset lifts, scanned pairwise."""
    handle = m.vgroup_image[v]
    oracle = handle.group
    out = []
    for f in m.target.graph.edges_at(m.vertex_map[v]):
        lifts = _lifts(m, v, f)
        for i in range(len(lifts)):
            for j in range(i + 1, len(lifts)):
                a, b = m.delta[lifts[i]], m.delta[lifts[j]]
                if handle.member(oracle.mul(a, oracle.inv(b))):
                    out.append((f, lifts[i], lifts[j]))
    return out


TARGETS = {"pslz": (make_pslz, "u", 2), "f2c2": (make_f2c2, "x", 1), "z2": (make_z2, "x", 2)}


@SETTINGS
@given(st.sampled_from(sorted(TARGETS)), st.integers(0, 10**6), st.integers(2, 4))
def test_fold_pairs_and_violations_match_the_pairwise_scan(name, seed, count):
    make, u0, bound = TARGETS[name]
    target = make()
    gens = gen_corpus(target, u0, random.Random(seed), count, max_edges=3, letter_bound=bound)
    m = wedge(target, u0, gens)
    for _ in range(12):  # wedge, then the first folds
        pairs = {v: _same_coset_pairs(m, v) for v in m.domain.graph.vertices}
        violations = [
            {"vertex": v, "target_edge": f, "edges": (a, b)}
            for v in m.domain.graph.vertices
            for f, a, b in pairs[v]
        ]
        assert check_immersion(m).violations == violations
        w = _Working.of(m)
        for v, found in pairs.items():
            assert _find_fold(w, v) == (found[0][1:] if found else None)
        folding = [v for v in sorted(m.domain.graph.vertices) if pairs[v]]
        if not folding:
            break
        v = folding[0]
        _fold_once(w, v, *pairs[v][0][1:])
        m = w.freeze()


# -- lifting -----------------------------------------------------------------


@SETTINGS
@given(st.sampled_from(sorted(TARGETS)), st.integers(0, 10**6), st.integers(1, 3))
def test_lifts_match_the_membership_scan(name, seed, count):
    """On an immersion and on a cover completed from it, every outcome and
    path equals the reference's; on the cover, so does the lift that reads
    the cover check's buckets."""
    make, u0, bound = TARGETS[name]
    target = make()
    rng = random.Random(seed)
    m = fold(wedge(target, u0, gen_corpus(target, u0, rng, count, 3, bound)))
    cover = complete_to_cover(enlarge(m), seed=0)
    report = check_cover(cover)
    assert report.ok
    for w in gen_corpus(target, u0, rng, 4, 4, bound):
        assert lift_loop(m, w, "v0") == scan_lift(m, w, "v0")
        expected = scan_lift(cover, w, "v0")
        assert lift_loop(cover, w, "v0") == expected
        assert _lift(cover, w, "v0", report._slots) == expected
