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

import copy
from typing import Optional

from .errors import NotAnImmersion
from .morphism import DecoratedMorphism, first_clash

__all__ = ["exclusion_sets", "enlarge"]


def exclusion_sets(m: DecoratedMorphism, extra: Optional[dict] = None) -> dict:
    """Per-vertex elements a finite-index overgroup must avoid.

    For each pair of distinct lifts of one target edge at v, both coset
    quotients delta_i * delta_j^-1 enter the set; two lifts in one coset
    mean the morphism was not an immersion to begin with.  ``extra`` adds
    caller-chosen elements (e.g. the non-member witness at the base).
    """
    extra = extra or {}
    edge_map, delta = m.edge_map, m.delta
    out = {}
    for v, edges in m.domain.graph._out.items():
        oracle = m.oracle_at(v)
        clash = first_clash(edges, edge_map, m.vgroup_image[v], delta)
        if clash is not None:
            a, b = clash
            raise NotAnImmersion(
                f"lifts {a!r}, {b!r} of {edge_map[a]!r} share a coset at {v!r}"
            )
        seen = set()
        for a in edges:
            for b in edges:
                if a != b and edge_map[a] == edge_map[b]:
                    seen.add(oracle.mul(delta[a], oracle.inv(delta[b])))
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
    factors.  The result shares m's graph, edge decorations and maps.
    """
    exclusions = exclusion_sets(m, extra)
    big = copy.copy(m)
    big.vgroup_image = {
        v: m.vgroup_image[v].separate(exclusions[v]) for v in m.domain.graph._out
    }
    return big
