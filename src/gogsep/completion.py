"""Completion of a finite-index immersion to a finite cover.

Every fiber is padded with fresh full-group vertices up to the common
degree d = max over target vertices of the summed subgroup indices.
For each target edge pair the existing lifts claim one coset slot on
each side; the free slots are then matched left-to-right, both sides
in lexicographic order, or with the right side shuffled by a seed.
The original morphism embeds in the result unchanged.
"""

from __future__ import annotations

import random
from typing import Optional

from .core import bar, fresh_names
from .errors import GogsepError, InfiniteIndexVertex, NotAnImmersion
from .morphism import CheckReport, DecoratedMorphism, _Working, check_immersion

__all__ = ["complete_to_cover", "restriction_check"]


def complete_to_cover(
    m: DecoratedMorphism, seed: Optional[int] = None
) -> DecoratedMorphism:
    """Complete a finite-index immersion to a finite cover containing it.

    Only the input is checked (an immersion, every vertex subgroup of
    finite index).  The result is a cover by construction: each slot is
    filled exactly once.  ``check_cover`` and ``cover_index`` check it.
    """
    report = check_immersion(m)
    if not report.ok:
        raise NotAnImmersion(f"cannot complete: {report.violations[:3]}")
    for v in m.domain.graph.vertices:
        if m.vgroup_image[v].index() is None:
            raise InfiniteIndexVertex(
                f"subgroup at {v!r} has infinite index; completion needs finite index"
            )

    tgt = m.target.graph
    fibers = {u: m.fiber(u) for u in tgt.vertices}
    degrees = {
        u: sum(m.vgroup_image[v].index() for v in fibers[u]) for u in tgt.vertices
    }
    d = max(degrees.values())

    work = _Working.of(m)
    fresh_vertex = fresh_names(m.domain.graph.vertices)
    padding = []
    for u in sorted(tgt.vertices):
        for _ in range(d - degrees[u]):
            z = fresh_vertex("z")
            padding.append((z, u))
            fibers[u].append(z)
    for z, u in sorted(padding):  # after the old vertices, in sorted order
        work.add_vertex(z, u, m.target.group_at(u).full_subgroup())
    vgroup_image = work.vgroup_image

    fresh_edge = fresh_names(m.domain.graph.edge_pairs())
    for f in tgt.edge_pairs():
        lhs = {}
        for v in sorted(fibers[tgt.iota(f)]):
            handle = vgroup_image[v]
            for r in handle.coset_reps():
                lhs[(v, handle.canonical_rep(r))] = None
        rhs = {}
        for w in sorted(fibers[tgt.tau(f)]):
            handle = vgroup_image[w]
            for r in handle.coset_reps():
                rhs[(w, handle.canonical_rep(r))] = None
        for e in m.domain.graph.directed_edges:
            if m.edge_map[e] != f:
                continue
            v, w = m.domain.graph.iota(e), m.domain.graph.tau(e)
            lkey = (v, vgroup_image[v].canonical_rep(m.delta[e]))
            rkey = (w, vgroup_image[w].canonical_rep(m.delta[bar(e)]))
            if lkey not in lhs or rkey not in rhs:
                raise GogsepError(f"lift {e!r} claims a slot outside its fiber")
            if lhs[lkey] is not None or rhs[rkey] is not None:
                raise NotAnImmersion(f"lifts of {f!r} collide on a coset slot")
            lhs[lkey] = e
            rhs[rkey] = e
        free_l = [k for k, taken in lhs.items() if taken is None]
        free_r = [k for k, taken in rhs.items() if taken is None]
        if len(free_l) != len(free_r):
            raise GogsepError("slot counts disagree; fibers are inconsistent")

        def slot_sort(key):
            v, rep = key
            return (v, work.oracle_at(v).sort_key(rep))

        free_l.sort(key=slot_sort)
        free_r.sort(key=slot_sort)
        if seed is not None:
            random.Random(f"{seed}|{f}").shuffle(free_r)
        for (v, lrep), (w, rrep) in zip(free_l, free_r):
            work.add_edge(fresh_edge("n"), v, w, f, lrep, rrep)
    return work.freeze()


def restriction_check(
    small: DecoratedMorphism, big: DecoratedMorphism
) -> CheckReport:
    """Does big restrict to small on small's vertices and edges, verbatim?"""
    violations = []
    if small.target is not big.target:
        violations.append({"kind": "target", "detail": "different targets"})
        return CheckReport(False, violations)
    for v in small.domain.graph.vertices:
        if not big.domain.graph.has_vertex(v):
            violations.append({"kind": "vertex-missing", "vertex": v})
            continue
        if small.vertex_map[v] != big.vertex_map[v]:
            violations.append({"kind": "vertex-image", "vertex": v})
        if small.vgroup_image[v].canonical_key() != big.vgroup_image[v].canonical_key():
            violations.append({"kind": "subgroup", "vertex": v})
    for e in small.domain.graph.directed_edges:
        if not big.domain.graph.has_edge(e):
            violations.append({"kind": "edge-missing", "edge": e})
            continue
        if small.edge_map[e] != big.edge_map[e]:
            violations.append({"kind": "edge-image", "edge": e})
            continue
        oracle = small.oracle_at(small.domain.graph.iota(e))
        same = oracle.is_identity(
            oracle.mul(small.delta[e], oracle.inv(big.delta[e]))
        )
        if not same:
            violations.append({"kind": "delta", "edge": e})
    return CheckReport(not violations, violations)
