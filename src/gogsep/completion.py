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
from .morphism import DecoratedMorphism, _Working, _coset_slots

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

    # One slot table per target vertex: {(vertex, coset key): coset rep}
    # over its fiber, vertices sorted and each one's reps by sort_key.
    tables = {}
    for u, fiber in fibers.items():
        table = tables[u] = {}
        for v in sorted(fiber):
            handle = work.vgroup_image[v]
            for r in sorted(handle.coset_reps(), key=handle.group.sort_key):
                table[(v, handle.coset_key(r))] = r
    # Each lift claims its slot in the cover check's keyed pass (at finite
    # index every key is some transversal rep's); two in one slot collide.
    claims, collided = {}, set()
    for v, by_slot in _coset_slots(m).items():
        for (f, key), bucket in by_slot.items():
            claims.setdefault(f, set()).add((v, key))
            if len(bucket) > 1:
                collided.add(f)
    fresh_edge = fresh_names(m.domain.graph.edge_pairs())
    for f in tgt.edge_pairs():
        back = tgt._rev[f]
        if f in collided or back in collided:
            raise NotAnImmersion(f"lifts of {f!r} collide on a coset slot")
        # both sides began with d slots and lost one per lift: equal counts
        left, right = tables[tgt.iota(f)], tables[tgt.tau(f)]
        taken_l, taken_r = claims.get(f, ()), claims.get(back, ())
        free_l = [(s[0], r) for s, r in left.items() if s not in taken_l]
        free_r = [(s[0], r) for s, r in right.items() if s not in taken_r]
        if seed is not None:
            random.Random(f"{seed}|{f}").shuffle(free_r)
        for (v, lrep), (w, rrep) in zip(free_l, free_r):
            work.add_edge(fresh_edge("n"), v, w, f, lrep, rrep)
    return work.freeze()
