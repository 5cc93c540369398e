"""Graphviz DOT rendering of graphs of groups and decorated morphisms."""

from __future__ import annotations

from .core import GraphOfGroups
from .morphism import DecoratedMorphism

__all__ = ["gog_to_dot", "morphism_to_dot"]


def _q(text: str) -> str:
    escaped = str(text).replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def gog_to_dot(gog: GraphOfGroups, name: str = "target") -> str:
    g = gog.graph
    lines = [f"graph {name} {{", "  node [shape=ellipse];"]
    for v in g.vertices:
        label = f"{v}\n{gog.group_at(v).describe()}"
        shape = ' penwidth=2' if v == gog.base else ""
        lines.append(f"  {_q(v)} [label={_q(label)}{shape}];")
    for p in g.edge_pairs():
        lines.append(f"  {_q(g.iota(p))} -- {_q(g.tau(p))} [label={_q(p)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def morphism_to_dot(m: DecoratedMorphism, name: str = "domain") -> str:
    g = m.domain.graph
    lines = [f"graph {name} {{", "  node [shape=box];"]
    for v in g.vertices:
        handle = m.vgroup_image[v]
        label = f"{v} -> {m.vertex_map[v]}\n{handle.describe()}"
        shape = ' penwidth=2' if v == m.domain.base else ""
        lines.append(f"  {_q(v)} [label={_q(label)}{shape}];")
    for p in g.edge_pairs():
        o_i = m.oracle_at(g.iota(p))
        o_t = m.oracle_at(g.tau(p))
        label = (
            f"{p} -> {m.edge_map[p]}"
            f"\nd={o_i.format_element(m.delta[p])}"
            f" d~={o_t.format_element(m.delta[g._rev[p]])}"
        )
        lines.append(
            f"  {_q(g.iota(p))} -- {_q(g.tau(p))} [label={_q(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
