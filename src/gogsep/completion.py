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

from .core import fresh_names
from .errors import (
    InfiniteIndexVertex,
    NotAnImmersion,
    UnboundedEnumeration,
)
from .morphism import DecoratedMorphism, _Working, lifts_by_edge

__all__ = ["complete_to_cover"]

# The largest degree completion builds; a subgroup mZ of Z with huge m asks
# for a cover of degree about m.
DEGREE_CAP = 100_000


def complete_to_cover(
    m: DecoratedMorphism, seed: Optional[int] = None
) -> DecoratedMorphism:
    """Complete a finite-index immersion to a finite cover containing it.

    Only the input is checked: every vertex subgroup must have finite
    index, and the slot pass raises ``NotAnImmersion`` when two lifts
    claim one coset slot.  A degree past DEGREE_CAP raises
    ``UnboundedEnumeration`` before any padding.  The result is a cover
    by construction: each slot is filled exactly once.  ``check_cover``
    and ``cover_index`` check it.
    """
    tgt = m.target.graph
    fibers = {u: [] for u in tgt.vertices}
    degrees = dict.fromkeys(tgt.vertices, 0)
    for v in m.domain.graph.vertices:
        index = m.vgroup_image[v].index()
        if index is None:
            raise InfiniteIndexVertex(
                f"subgroup at {v!r} has infinite index; completion needs finite index"
            )
        fibers[m.vertex_map[v]].append(v)
        degrees[m.vertex_map[v]] += index
    d = max(degrees.values())
    if d > DEGREE_CAP:
        raise UnboundedEnumeration(f"cover degree would pass {DEGREE_CAP}")

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

    def free_slots(u):
        """{(vertex, coset key): coset rep} over the fiber of u, sorted."""
        slots = {}
        for v in sorted(fibers[u]):
            handle = work.vgroup_image[v]
            for r in handle.coset_reps():
                slots[(v, handle.coset_key(r))] = r
        return slots

    # At finite index every coset key is some transversal rep's key, so a
    # lift finds its slot gone only when another lift of f took it.
    dom = m.domain.graph
    lifts = lifts_by_edge(dom.directed_edges, m.edge_map)
    fresh_edge = fresh_names(dom.edge_pairs())
    for f in tgt.edge_pairs():
        lhs, rhs = free_slots(tgt.iota(f)), free_slots(tgt.tau(f))
        for e in lifts.get(f, ()):
            back = dom._rev[e]
            v, w = dom._iota[e], dom._iota[back]
            lkey = (v, m.vgroup_image[v].coset_key(m.delta[e]))
            rkey = (w, m.vgroup_image[w].coset_key(m.delta[back]))
            if lkey not in lhs or rkey not in rhs:
                raise NotAnImmersion(f"lifts of {f!r} collide on a coset slot")
            del lhs[lkey], rhs[rkey]
        # both sides began with d slots and lost one per lift: equal counts
        free_l, free_r = list(lhs.items()), list(rhs.items())

        def slot_sort(slot):
            (v, _), rep = slot
            return (v, work.oracle_at(v).sort_key(rep))

        free_l.sort(key=slot_sort)
        free_r.sort(key=slot_sort)
        if seed is not None:
            random.Random(f"{seed}|{f}").shuffle(free_r)
        for ((v, _), lrep), ((w, _), rrep) in zip(free_l, free_r):
            work.add_edge(fresh_edge("n"), v, w, f, lrep, rrep)
    return work.freeze()

