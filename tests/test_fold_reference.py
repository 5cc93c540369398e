"""The in-place fold against the rebuilding fold it replaced.

``fold`` edits one working copy of the morphism and freezes it once.
The reference below is the fold it replaced, which copies the whole
graph and every map on each fold and validates the result.  Both must
give the same morphism, down to the vertex order, the edge ids, every
delta and every vertex subgroup with its generators.
"""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from gogsep import (
    DecoratedMorphism,
    FreeGroup,
    Graph,
    GraphOfGroups,
    IntGroup,
    bar,
    fold,
    wedge,
)

from conftest import (
    assert_well_built,
    canonical_key,
    gen_corpus,
    make_f2c2,
    make_pslz,
    make_rose2,
    make_z2,
    pslz_conjugates,
)


# -- the reference: rebuild and validate on every fold -------------------------


def _ref_find_fold(m, v):
    """The least pair (a, b) of same-coset lifts, by a pairwise member scan."""
    handle = m.vgroup_image[v]
    oracle = handle.group
    for f in m.target.graph.edges_at(m.vertex_map[v]):
        lifts = [e for e in m.domain.graph.edges_at(v) if m.edge_map[e] == f]
        for i, a in enumerate(lifts):
            for b in lifts[i + 1:]:
                if handle.member(oracle.mul(m.delta[a], oracle.inv(m.delta[b]))):
                    return a, b
    return None


def _fold_kinds(m, e1, e2):
    """The kinds of fold that identifying e2 with e1 makes."""
    g = m.domain.graph
    x1, x2 = g.tau(e1), g.tau(e2)
    kinds = set()
    if x2 == m.domain.base and x1 != m.domain.base:
        kinds.add("base-swap")
        e1, e2, x1, x2 = e2, e1, x2, x1
    if x1 != x2:
        kinds.add("merge")
        if any(g.tau(d) == x2 for d in g.edges_at(x2) if d not in (e2, bar(e2))):
            kinds.add("loop-at-x2")
        return kinds
    oracle = m.oracle_at(x1)
    t = oracle.mul(m.delta[bar(e1)], oracle.inv(m.delta[bar(e2)]))
    kinds.add("t-in-S" if m.vgroup_image[x1].member(t) else "t-not-in-S")
    return kinds


def _ref_fold_once(m, v, e1, e2):
    dom = m.domain
    g = dom.graph
    base = dom.base
    x1, x2 = g.tau(e1), g.tau(e2)
    if x2 == base and x1 != base:
        e1, e2 = e2, e1
        x1, x2 = x2, x1
    far_oracle = m.target.group_at(m.vertex_map[x1])
    t = far_oracle.mul(m.delta[bar(e1)], far_oracle.inv(m.delta[bar(e2)]))
    dropped = {e2, bar(e2)}
    merged = x1 != x2

    new_graph = Graph()
    for vtx in g.vertices:
        if merged and vtx == x2:
            continue
        new_graph.add_vertex(vtx)
    for pair in g.edge_pairs():
        if pair in dropped or bar(pair) in dropped:
            continue
        frm, to = g.iota(pair), g.tau(pair)
        if merged:
            frm = x1 if frm == x2 else frm
            to = x1 if to == x2 else to
        new_graph.add_edge(pair, frm, to)

    new_delta = {}
    for d in g.directed_edges:
        if d in dropped:
            continue
        val = m.delta[d]
        if merged and g.iota(d) == x2:
            val = far_oracle.mul(t, val)
        new_delta[d] = val

    new_vgroup = {w: h for w, h in m.vgroup_image.items() if not (merged and w == x2)}
    if merged:
        moved = [far_oracle.conjugate(t, s) for s in m.vgroup_image[x2].generators]
        new_vgroup[x1] = far_oracle.subgroup(
            tuple(m.vgroup_image[x1].generators) + tuple(moved)
        )
    elif not m.vgroup_image[x1].member(t):
        new_vgroup[x1] = far_oracle.subgroup(
            tuple(m.vgroup_image[x1].generators) + (t,)
        )

    new_vertex_map = {w: u for w, u in m.vertex_map.items() if not (merged and w == x2)}
    new_edge_map = {d: f for d, f in m.edge_map.items() if d not in dropped}
    oracles = {w: m.target.group_at(new_vertex_map[w]) for w in new_graph.vertices}
    new_dom = GraphOfGroups(new_graph, oracles, base=base)
    folded = DecoratedMorphism(
        new_dom, m.target, new_vertex_map, new_edge_map, new_vgroup, new_delta
    )
    return folded, x1


def _ref_fold(m, kinds=None):
    queue = deque(sorted(m.domain.graph.vertices))
    queued = set(queue)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        if not m.domain.graph.has_vertex(v):
            continue
        found = _ref_find_fold(m, v)
        if found is None:
            continue
        if kinds is not None:
            kinds.update(_fold_kinds(m, *found))
        m, survivor = _ref_fold_once(m, v, *found)
        for w in (v, survivor):
            if m.domain.graph.has_vertex(w) and w not in queued:
                queue.append(w)
                queued.add(w)
    return m


# -- cases ---------------------------------------------------------------------


def make_f2_rose():
    """One F2 vertex with a loop edge: free vertex subgroups and self-loops."""
    g = Graph()
    g.add_vertex("o")
    g.add_edge("p", "o", "o")
    return GraphOfGroups(g, {"o": FreeGroup(2)}, base="o")


def make_f2z():
    g = Graph()
    g.add_vertex("x")
    g.add_vertex("y")
    g.add_edge("e", "x", "y")
    return GraphOfGroups(g, {"x": FreeGroup(2), "y": IntGroup()}, base="x")


TARGETS = {
    "pslz": (make_pslz, "u", 2),
    "f2c2": (make_f2c2, "x", 1),
    "z2": (make_z2, "x", 2),
    "f2z": (make_f2z, "x", 1),
    "f2-rose": (make_f2_rose, "o", 1),
    "rose2": (make_rose2, "o", 1),
}


def _random_wedge(name, seed, count):
    """A wedge of ``count`` random loops, one of them sometimes repeated."""
    make, u0, bound = TARGETS[name]
    target = make()
    rng = random.Random(seed)
    gens = gen_corpus(target, u0, rng, count, max_edges=4, letter_bound=bound)
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    return wedge(target, u0, gens)


def _snapshot(m):
    g = m.domain.graph
    return (
        g.vertices,
        g.edge_pairs(),
        {e: (g.iota(e), g.tau(e)) for e in g.directed_edges},
        m.domain.base,
        m.vertex_map,
        m.edge_map,
        m.delta,
        {v: (canonical_key(h), h.generators) for v, h in m.vgroup_image.items()},
    )


def _assert_same_fold(m, kinds=None):
    assert_well_built(m)
    want = _ref_fold(m, kinds)
    got = fold(m)
    assert_well_built(got)
    if want is m:
        assert got is m
    assert _snapshot(got) == _snapshot(want)


# -- tests ---------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(TARGETS)), st.integers(0, 10**6), st.integers(1, 5))
def test_fold_matches_the_rebuilding_fold(name, seed, count):
    _assert_same_fold(_random_wedge(name, seed, count))


def test_reference_cases_reach_every_kind_of_fold():
    kinds = set()
    for name in sorted(TARGETS):
        for seed in range(25):
            _assert_same_fold(_random_wedge(name, seed, 2 + seed % 4), kinds)
    for k in (2, 5):
        target, u0, gens, _ = pslz_conjugates(k)
        _assert_same_fold(wedge(target, u0, gens), kinds)
    assert kinds == {"merge", "t-not-in-S", "t-in-S", "base-swap", "loop-at-x2"}


def test_fold_without_a_fold_returns_its_input():
    target, u0, gens, _ = pslz_conjugates(3)
    m = fold(wedge(target, u0, gens))
    assert fold(m) is m
