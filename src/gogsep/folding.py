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
from typing import Iterable, Sequence

from .core import Graph, GraphOfGroups, Word, bar
from .errors import EndpointMismatch, GogsepError, NotACover
from .morphism import DecoratedMorphism, check_cover, coset_buckets
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
    base_vertex: str = "v0",
) -> DecoratedMorphism:
    """Wedge of decorated circles mapping the k-th circle onto gens[k].

    Every generator must be a loop at u0.  Length-zero generators become
    subgroup generators at the base vertex; a loop g0 e1 g1 ... en gn
    becomes a circle whose i-th edge maps to e_i, carries g_{i-1} on the
    outgoing side and identity on the incoming side, except that the
    last incoming side carries gn^-1 so the circle's image is the
    generator itself.
    """
    if not target.graph.has_vertex(u0):
        raise GogsepError(f"unknown base vertex {u0!r}")
    graph = Graph()
    graph.add_vertex(base_vertex)
    vertex_map = {base_vertex: u0}
    edge_map = {}
    delta = {}
    vgroup_oracles = {base_vertex: target.group_at(u0)}
    vgroup_image = {}
    base_letters = []
    for k, g in enumerate(gens, start=1):
        if g.gog is not target:
            raise GogsepError(f"generator {k} does not live on the target")
        if g.start != u0 or not g.is_loop():
            raise EndpointMismatch(f"generator {k} is not a loop at {u0!r}")
        g = g.validate().reduce()
        if g.n == 0:
            if not target.group_at(u0).is_identity(g.groups[0]):
                base_letters.append(g.groups[0])
            continue
        prev = base_vertex
        for i in range(1, g.n + 1):
            at = g.vertex_at(i)
            oracle = target.group_at(at)
            if i < g.n:
                v = f"v{k}_{i}"
                graph.add_vertex(v)
                vertex_map[v] = at
                vgroup_oracles[v] = oracle
                vgroup_image[v] = oracle.trivial_subgroup()
            else:
                v = base_vertex
            e = f"c{k}_{i}"
            graph.add_edge(e, prev, v)
            edge_map[e] = g.edges[i - 1]
            edge_map[bar(e)] = bar(g.edges[i - 1])
            delta[e] = g.groups[i - 1]
            delta[bar(e)] = (
                oracle.inv(g.groups[g.n]) if i == g.n else oracle.identity()
            )
            prev = v
    vgroup_image[base_vertex] = subgroup_generate(
        target.group_at(u0), base_letters
    )
    domain = GraphOfGroups(graph, vgroup_oracles, base=base_vertex)
    return DecoratedMorphism(
        domain, target, vertex_map, edge_map, vgroup_image, delta
    )


def _find_fold(m: DecoratedMorphism, v: str):
    """First pair of same-coset lifts at v, scanning edges in sorted order.

    The pair is the least (i, j) in lift order: the first two members of
    the first coset bucket that has two.
    """
    handle = m.vgroup_image[v]
    for f in m.target.graph.edges_at(m.phi_v(v)):
        lifts = m.edge_lifts(v, f)
        if len(lifts) < 2:
            continue
        for bucket in coset_buckets(handle, [m.delta[e] for e in lifts]):
            if len(bucket) > 1:
                return lifts[bucket[0]], lifts[bucket[1]]
    return None


def _fold_once(m: DecoratedMorphism, v: str, e1: str, e2: str):
    """Delete e2, rerouting its far endpoint through e1.

    With S_v * delta_e1 == S_v * delta_e2 the adjustment
    t = delta_{~e1} * delta_{~e2}^-1 transports decorations at tau(e2)
    to tau(e1): relocated outgoing edges pick up t on the left and the
    vertex subgroup arrives conjugated by t.
    """
    dom = m.domain
    g = dom.graph
    base = dom.base
    x1, x2 = g.tau(e1), g.tau(e2)
    if x2 == base and x1 != base:
        e1, e2 = e2, e1
        x1, x2 = x2, x1
    far_oracle = m.target.group_at(m.phi_v(x1))
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
        moved = m.vgroup_image[x2].conjugated(t)
        new_vgroup[x1] = subgroup_generate(
            far_oracle, tuple(m.vgroup_image[x1].generators) + tuple(moved.generators)
        )
    elif not m.vgroup_image[x1].member(t):
        new_vgroup[x1] = subgroup_generate(
            far_oracle, tuple(m.vgroup_image[x1].generators) + (t,)
        )

    new_vertex_map = {
        w: u for w, u in m.vertex_map.items() if not (merged and w == x2)
    }
    new_edge_map = {d: f for d, f in m.edge_map.items() if d not in dropped}
    oracles = {w: m.target.group_at(new_vertex_map[w]) for w in new_graph.vertices}
    new_dom = GraphOfGroups(new_graph, oracles, base=base)
    folded = DecoratedMorphism(
        new_dom, m.target, new_vertex_map, new_edge_map, new_vgroup, new_delta
    )
    return folded, x1


def fold(m: DecoratedMorphism) -> DecoratedMorphism:
    """Fold until an immersion; the base-vertex subgroup is preserved."""
    queue = deque(sorted(m.domain.graph.vertices))
    queued = set(queue)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        if not m.domain.graph.has_vertex(v):
            continue
        found = _find_fold(m, v)
        if found is None:
            continue
        e1, e2 = found
        m, survivor = _fold_once(m, v, e1, e2)
        for w in (v, survivor):
            if m.domain.graph.has_vertex(w) and w not in queued:
                queue.append(w)
                queued.add(w)
    return m


def trim_core(m: DecoratedMorphism, keep: Iterable[str] = ()) -> DecoratedMorphism:
    """Peel valence-one vertices with trivial subgroup, sparing base/keep.

    The smallest peelable vertex goes first, so a tree with no protected
    vertex keeps its largest vertex.  Valence counts and a min-heap of
    peelable vertices make this O((V + E) log V).
    """
    g = m.domain.graph
    protected = set(keep)
    if m.domain.base is not None:
        protected.add(m.domain.base)
    alive_vertices = set(g.vertices)
    alive_pairs = set(g.edge_pairs())
    valence = {v: len(g.edges_at(v)) for v in alive_vertices}

    def peelable(v):
        return (
            valence[v] == 1
            and v not in protected
            and m.vgroup_image[v].is_trivial()
        )

    heap = sorted(v for v in alive_vertices if peelable(v))
    while heap:
        v = heapq.heappop(heap)
        if v not in alive_vertices or not peelable(v):
            continue
        (d,) = [e for e in g.edges_at(v) if e.removeprefix("~") in alive_pairs]
        alive_pairs.discard(d.removeprefix("~"))
        alive_vertices.discard(v)
        w = g.tau(d)
        valence[w] -= 1
        if peelable(w):
            heapq.heappush(heap, w)

    if alive_vertices == set(g.vertices):
        return m
    new_graph = Graph()
    for v in g.vertices:
        if v in alive_vertices:
            new_graph.add_vertex(v)
    for p in g.edge_pairs():
        if p in alive_pairs:
            new_graph.add_edge(p, g.iota(p), g.tau(p))
    keep_directed = {d for p in alive_pairs for d in (p, bar(p))}
    oracles = {v: m.domain.group_at(v) for v in alive_vertices}
    new_dom = GraphOfGroups(new_graph, oracles, base=m.domain.base)
    return DecoratedMorphism(
        new_dom,
        m.target,
        {v: m.vertex_map[v] for v in alive_vertices},
        {d: m.edge_map[d] for d in keep_directed},
        {v: m.vgroup_image[v] for v in alive_vertices},
        {d: m.delta[d] for d in keep_directed},
    )


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
