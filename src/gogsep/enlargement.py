"""Vertex-subgroup enlargement driven by separability.

An immersion with infinite-index vertex subgroups cannot be completed
to a finite cover.  Enlarging each vertex subgroup to a finite-index
overgroup is safe exactly when the overgroup keeps the coset products
of distinct edge lifts apart; those products form the exclusion set of
the vertex, and each oracle's ``separate`` finds such an overgroup.
Edge decorations are left untouched so the enlarged morphism restricts
to the original one verbatim.
"""

from __future__ import annotations

from typing import Optional

from .errors import NotAnImmersion
from .morphism import DecoratedMorphism, _Working, lifts_by_coset, lifts_by_edge

__all__ = ["exclusion_sets", "enlarge"]


def exclusion_sets(m: DecoratedMorphism, extra: Optional[dict] = None) -> dict:
    """Per-vertex elements a finite-index overgroup must avoid.

    For each pair of distinct lifts of one target edge at v, both coset
    quotients delta_i * delta_j^-1 enter the set; two lifts in one coset
    mean the morphism was not an immersion to begin with.  ``extra`` adds
    caller-chosen elements (e.g. the non-member witness at the base).
    """
    extra = extra or {}
    out = {}
    for v in m.domain.graph.vertices:
        oracle = m.oracle_at(v)
        handle = m.vgroup_image[v]
        seen = set()
        by_edge = lifts_by_edge(m.domain.graph._out[v], m.edge_map)
        for f in sorted(by_edge):
            lifts = by_edge[f]
            if len(lifts) < 2:
                continue
            for bucket in lifts_by_coset(handle, lifts, m.delta).values():
                if len(bucket) > 1:
                    raise NotAnImmersion(
                        f"lifts {bucket[0]!r}, {bucket[1]!r} of {f!r} "
                        f"share a coset at {v!r}"
                    )
            for a in lifts:
                for b in lifts:
                    if a != b:
                        seen.add(oracle.mul(m.delta[a], oracle.inv(m.delta[b])))
        for x in extra.get(v, ()):
            oracle.check(x)
            seen.add(x)
        out[v] = sorted(seen, key=oracle.sort_key)
    return out


def enlarge(m: DecoratedMorphism, extra: Optional[dict] = None) -> DecoratedMorphism:
    """Replace each vertex subgroup by a finite-index separator.

    Each vertex subgroup grows to one that avoids its exclusion set
    (``exclusion_sets(m, extra)``), so distinct lifts stay in distinct
    cosets and the result is again an immersion through which the original
    factors.  Graph, edge decorations and maps are untouched.
    """
    exclusions = exclusion_sets(m, extra)
    w = _Working.of(m)
    for v in w.out:
        w.vgroup_image[v] = m.vgroup_image[v].separate(exclusions[v])
    return w.freeze()
