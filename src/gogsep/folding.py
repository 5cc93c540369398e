"""Wedges and Stallings folds for decorated morphisms.

``wedge`` packages a finite family of loops at a base vertex as a wedge
of decorated circles; ``fold`` repeatedly identifies pairs of edge
lifts that land in the same right coset until the morphism is an
immersion.  Each fold removes one edge pair, so the process terminates,
and the subgroup represented at the base vertex never changes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Sequence

from .core import GraphOfGroups, Word
from .errors import EndpointMismatch, GogsepError, NotACover
from .morphism import (
    DecoratedMorphism,
    _Working,
    check_cover,
    lifts_by_coset,
    lifts_by_edge,
)
from .oracles import subgroup_generate

__all__ = [
    "wedge",
    "fold",
    "trim_core",
    "kurosh_rank",
    "reduced_kurosh_rank",
    "cover_index",
]


def wedge(
    target: GraphOfGroups,
    u0: str,
    gens: Sequence[Word],
) -> DecoratedMorphism:
    """Wedge of decorated circles mapping the k-th circle onto gens[k].

    Every generator must be a loop at u0.  Length-zero generators become
    subgroup generators at the base vertex v0; a loop g0 e1 g1 ... en gn
    becomes a circle whose i-th edge maps to e_i, carries g_{i-1} on the
    outgoing side and identity on the incoming side, except that the
    last incoming side carries gn^-1 so the circle's image is the
    generator itself.
    """
    if not target.graph.has_vertex(u0):
        raise GogsepError(f"unknown base vertex {u0!r}")
    base = "v0"
    w = _Working(target, base)
    w.add_vertex(base, u0, None)  # its subgroup is set below
    groups, t_iota, t_rev = target.vertex_group, target.graph._iota, target.graph._rev
    out, iota, rev, edge_map, delta = w.out, w.iota, w.rev, w.edge_map, w.delta
    base_letters = []
    for k, g in enumerate(gens, start=1):
        if g.gog is not target:
            raise GogsepError(f"generator {k} does not live on the target")
        if g.start != u0 or not g.is_loop():
            raise EndpointMismatch(f"generator {k} is not a loop at {u0!r}")
        g = g.validate().reduce()
        n, letters = g.n, g.groups
        if n == 0:
            if not groups[u0].is_identity(letters[0]):
                base_letters.append(letters[0])
            continue
        prev = base
        # both directions of a pair are written at once; out-lists sort at the end
        for i, f in enumerate(g.edges, start=1):
            at = t_iota[t_rev[f]]
            oracle = groups[at]
            if i < n:
                v = f"v{k}_{i}"
                w.add_vertex(v, at, oracle.trivial_subgroup())
                d_bar = oracle.identity()
            else:
                v, d_bar = base, oracle.inv(letters[n])
            e, back = f"c{k}_{i}", f"~c{k}_{i}"
            iota[e], iota[back] = prev, v
            rev[e], rev[back] = back, e
            out[prev].append(e)
            out[v].append(back)
            edge_map[e], edge_map[back] = f, t_rev[f]
            delta[e], delta[back] = letters[i - 1], d_bar
            prev = v
    for edges in out.values():
        edges.sort()
    w.vgroup_image[base] = subgroup_generate(groups[u0], base_letters)
    return w.freeze()


def _find_fold(w: _Working, v: str):
    """First pair of same-coset lifts at v, scanning edges in sorted order.

    The pair is the least (i, j) in lift order: the first two members of
    the first coset bucket that has two.
    """
    edges, edge_map = w.out[v], w.edge_map
    if len({edge_map[e] for e in edges}) == len(edges):
        return None  # one lift per target edge: no two can share a coset
    handle = w.vgroup_image[v]
    lifts = lifts_by_edge(edges, edge_map)
    for f in sorted(lifts):
        if len(lifts[f]) < 2:
            continue
        for bucket in lifts_by_coset(handle, lifts[f], w.delta).values():
            if len(bucket) > 1:
                return bucket[0], bucket[1]
    return None


def _fold_once(w: _Working, v: str, e1: str, e2: str) -> str:
    """Delete e2, rerouting its far endpoint through e1; returns the survivor.

    With S_v * delta_e1 == S_v * delta_e2 the adjustment
    t = delta_{~e1} * delta_{~e2}^-1 transports decorations at tau(e2)
    to tau(e1): relocated outgoing edges pick up t on the left and the
    vertex subgroup arrives conjugated by t.  Only e2's pair and the
    edges at tau(e2) change, and tau(e1) survives unless it is the base.
    """
    x1, x2 = w.tau(e1), w.tau(e2)
    if x2 == w.base and x1 != w.base:
        e1, e2 = e2, e1
        x1, x2 = x2, x1
    oracle = w.oracle_at(x1)
    t = oracle.mul(w.delta[w.rev[e1]], oracle.inv(w.delta[w.rev[e2]]))
    w.drop_pair(e2)
    if x1 != x2:
        w.merge(x2, x1, t)
    elif not w.vgroup_image[x1].member(t):
        w.vgroup_image[x1] = subgroup_generate(
            oracle, tuple(w.vgroup_image[x1].generators) + (t,)
        )
    return x1


def fold(m: DecoratedMorphism) -> DecoratedMorphism:
    """Fold until an immersion; the base-vertex subgroup is preserved.

    The folds edit one working copy in place and it is frozen once; with
    no fold to make, m itself is returned.
    """
    w = _Working.of(m)
    queue = deque(sorted(w.out))
    queued = set(queue)
    folded = False
    while queue:
        v = queue.popleft()
        queued.discard(v)
        if len(w.out.get(v, ())) < 2:
            continue
        found = _find_fold(w, v)
        if found is None:
            continue
        survivor = _fold_once(w, v, *found)
        folded = True
        for x in (v, survivor):
            if x in w.out and x not in queued:
                queue.append(x)
                queued.add(x)
    return w.freeze() if folded else m


def trim_core(m: DecoratedMorphism) -> DecoratedMorphism:
    """Peel valence-one vertices with trivial subgroup, sparing the base.

    The fold of a wedge is already a core (a vertex off the base with
    trivial subgroup lies inside a reduced generator's lift, which never
    turns back), so only morphisms built by hand have hanging trees.  The
    smallest peelable vertex goes first, so a tree with no base keeps its
    largest vertex.  Peeling a working copy, made only when there is
    something to peel, from a min-heap of peelable vertices makes this
    O((V + E) log V).
    """
    base = m.domain.base

    def peelable(v, edges):
        return len(edges) == 1 and v != base and m.vgroup_image[v].is_trivial()

    heap = sorted(v for v, edges in m.domain.graph._out.items() if peelable(v, edges))
    if not heap:
        return m
    w = _Working.of(m)
    while heap:
        v = heapq.heappop(heap)
        if v not in w.out or not peelable(v, w.out[v]):
            continue
        (d,) = w.out[v]
        x = w.tau(d)
        w.drop_pair(d)
        w.drop_vertex(v)
        if peelable(x, w.out[x]):
            heapq.heappush(heap, x)
    return w.freeze()


def kurosh_rank(m: DecoratedMorphism) -> int:
    """Graph rank of the domain plus its count of nontrivial vertex subgroups."""
    g = m.domain.graph
    graph_rank = len(g.edge_pairs()) - len(g.vertices) + 1
    heavy = sum(1 for v in g.vertices if not m.vgroup_image[v].is_trivial())
    return graph_rank + heavy


def reduced_kurosh_rank(m: DecoratedMorphism) -> int:
    return max(kurosh_rank(m) - 1, 0)


def cover_index(m: DecoratedMorphism) -> int:
    """Degree of a cover: the common coset count over every fiber."""
    # check_cover's one pass settles the degree.  Local bijectivity gives
    # each target edge f exactly deg(iota f) lifts, the coset count of the
    # fiber over iota(f); the edge map respects the involution, so those
    # lifts reversed are the deg(tau f) lifts of ~f.  Neighbouring fibers
    # therefore agree, and since the target is connected every fiber and
    # every edge has the degree the report read off one fiber.
    report = check_cover(m)
    if not report.ok:
        raise NotACover(f"not a cover: {report.violations[:3]}")
    return report.degree
