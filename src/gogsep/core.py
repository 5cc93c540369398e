"""Graphs, graphs of groups, and words in the path groupoid.

A graph is given by directed edges closed under a fixed-point-free
involution: declaring an edge ``e: u -> w`` also creates its reverse
``~e: w -> u``.  A graph of groups attaches a vertex group oracle to
every vertex; all edge groups are trivial, so a word is an alternating
chain  g0 e1 g1 ... en gn  with each ``gi`` an element of the vertex
group where it sits.  Reduction deletes ``e 1 ~e`` subwords and merges
the flanking elements; reduced words are the canonical representatives
of path-groupoid elements.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ComposabilityError,
    EdgeChainBroken,
    ElementOutOfGroup,
    ForeignElement,
    GogsepError,
)
from .oracles import VertexGroup

__all__ = [
    "Graph",
    "GraphOfGroups",
    "Word",
    "bar",
]


def bar(edge: str) -> str:
    """The reverse of a directed edge id."""
    return edge[1:] if edge.startswith("~") else "~" + edge


def fresh_names(taken):
    """A namer whose call ``fresh(prefix)`` returns the first ``prefix<i>``,
    i >= 1, that is neither in ``taken`` nor returned before.

    The names in use only grow, so the first free index of a prefix never
    goes down: each prefix resumes its scan where its last name was found.
    """
    taken = set(taken)
    next_index = {}

    def fresh(prefix: str) -> str:
        i = next_index.get(prefix, 1)
        while f"{prefix}{i}" in taken:
            i += 1
        next_index[prefix] = i + 1
        name = f"{prefix}{i}"
        taken.add(name)
        return name

    return fresh


class Graph:
    """Finite graph with involutive directed edges.

    Each vertex keeps the directed edges leaving it in a list sorted by
    id, so ``edges_at`` costs O(deg v), and each directed edge its start
    and its reverse, so ``tau`` is one lookup and no loop parses a name.
    The package's edge walks read ``_out``, ``_iota`` and ``_rev``
    directly; only ``add_vertex``, ``add_edge`` and
    ``morphism._Working.freeze`` write them.
    """

    def __init__(self):
        self._out: dict[str, list[str]] = {}  # vertex -> edges leaving it
        self._iota: dict[str, str] = {}
        self._rev: dict[str, str] = {}  # directed edge -> its reverse

    def add_vertex(self, v: str):
        if not isinstance(v, str) or not v:
            raise GogsepError(f"vertex id must be a non-empty string: {v!r}")
        if v in self._out:
            raise GogsepError(f"duplicate vertex {v!r}")
        self._out[v] = []
        return v

    def add_edge(self, name: str, frm: str, to: str):
        """Declare the edge pair name: frm -> to and ~name: to -> frm."""
        if not isinstance(name, str) or not name or name.startswith("~"):
            raise GogsepError(f"edge id must not start with '~': {name!r}")
        if name in self._iota:
            raise GogsepError(f"duplicate edge {name!r}")
        for v in (frm, to):
            if v not in self._out:
                raise GogsepError(f"edge {name!r} touches unknown vertex {v!r}")
        back = bar(name)
        self._iota[name], self._iota[back] = frm, to
        self._rev[name], self._rev[back] = back, name
        bisect.insort(self._out[frm], name)
        bisect.insort(self._out[to], back)
        return name

    @property
    def vertices(self) -> list[str]:
        return list(self._out)

    @property
    def directed_edges(self) -> list[str]:
        return sorted(self._iota)

    def edge_pairs(self) -> list[str]:
        """Canonical orientation (the non-~ id) of every edge pair."""
        return sorted(e for e in self._iota if not e.startswith("~"))

    def has_vertex(self, v) -> bool:
        return v in self._out

    def has_edge(self, e) -> bool:
        return e in self._iota

    def iota(self, e: str) -> str:
        try:
            return self._iota[e]
        except KeyError:
            raise GogsepError(f"unknown edge {e!r}") from None

    def tau(self, e: str) -> str:
        try:
            return self._iota[self._rev[e]]
        except KeyError:
            raise GogsepError(f"unknown edge {e!r}") from None

    def edges_at(self, v: str) -> list[str]:
        """Directed edges with iota(e) = v, in sorted id order (a new list)."""
        return list(self._out.get(v, ()))

    def is_connected(self) -> bool:
        if not self._out:
            return True
        first = next(iter(self._out))
        seen = {first}
        stack = [first]
        while stack:
            v = stack.pop()
            for e in self._out[v]:
                w = self._iota[self._rev[e]]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._out)


class GraphOfGroups:
    """A connected graph with a vertex group oracle at every vertex."""

    def __init__(self, graph: Graph, vertex_group: dict, base: Optional[str] = None):
        self.graph = graph
        self.vertex_group: dict[str, VertexGroup] = dict(vertex_group)
        for v in graph.vertices:
            if v not in self.vertex_group:
                raise GogsepError(f"vertex {v!r} has no group oracle")
        for v in self.vertex_group:
            if not graph.has_vertex(v):
                raise GogsepError(f"oracle attached to unknown vertex {v!r}")
        if not graph.is_connected():
            raise GogsepError("graph of groups must be connected")
        if base is not None and not graph.has_vertex(base):
            raise GogsepError(f"base vertex {base!r} not in graph")
        self.base = base

    def group_at(self, v: str) -> VertexGroup:
        if v not in self.vertex_group:
            raise GogsepError(f"unknown vertex {v!r}")
        return self.vertex_group[v]

    def identity_word(self, v: str) -> "Word":
        return Word(self, v, (self.group_at(v).identity(),), ())


@dataclass(frozen=True)
class Word:
    """Alternating word g0 e1 g1 ... en gn with an explicit start vertex.

    Immutable; arithmetic returns new reduced words.  Equality is
    structural on (start, groups, edges), so only compare words over the
    same graph of groups.
    """

    gog: GraphOfGroups
    start: str
    groups: tuple
    edges: tuple

    def __post_init__(self):
        if len(self.groups) != len(self.edges) + 1:
            raise GogsepError("word needs n+1 group letters for n edges")

    @property
    def n(self) -> int:
        return len(self.edges)

    def vertex_at(self, i: int) -> str:
        """The vertex where group letter i sits."""
        return self.start if i == 0 else self.gog.graph.tau(self.edges[i - 1])

    def _vertices(self) -> list[str]:
        """The vertex where each group letter sits, in order."""
        return [self.start, *map(self.gog.graph.tau, self.edges)]

    @property
    def end(self) -> str:
        # the entry points test is_loop() before they validate the word
        if self.edges and not self.gog.graph.has_edge(self.edges[-1]):
            raise EdgeChainBroken(f"unknown edge {self.edges[-1]!r}")
        return self.vertex_at(self.n)

    def is_loop(self) -> bool:
        return self.start == self.end

    def validate(self):
        """Check that the edges chain from start, then each group letter;
        one walk fixes the vertex of every letter."""
        g = self.gog.graph
        if not g.has_vertex(self.start):
            raise EdgeChainBroken(f"unknown start vertex {self.start!r}")
        iota, rev = g._iota, g._rev
        verts = [self.start]
        for e in self.edges:
            back = rev.get(e)
            if back is None:
                raise EdgeChainBroken(f"unknown edge {e!r}")
            if iota[e] != verts[-1]:
                raise EdgeChainBroken(
                    f"edge {e!r} leaves {iota[e]!r}, expected {verts[-1]!r}"
                )
            verts.append(iota[back])
        oracles = self.gog.vertex_group  # every vertex of the walk has one
        for i, (x, v) in enumerate(zip(self.groups, verts)):
            try:
                oracles[v].check(x)
            except ForeignElement as exc:
                raise ElementOutOfGroup(f"letter {i} at vertex {v!r}: {exc}") from exc
        return self

    def reduce(self) -> "Word":
        """Delete e 1 ~e subwords until none remain (confluent)."""
        gog = self.gog
        iota, rev = gog.graph._iota, gog.graph._rev
        groups = [self.groups[0]]
        edges: list[str] = []
        verts = [self.start]
        for e, g in zip(self.edges, self.groups[1:]):
            back = rev.get(e)
            if back is None:
                raise GogsepError(f"unknown edge {e!r}")
            # e runs back along the last kept edge: it leaves verts[-1]
            if (
                edges
                and edges[-1] == back
                and gog.group_at(verts[-1]).is_identity(groups[-1])
            ):
                edges.pop()
                groups.pop()
                verts.pop()
                prev = groups.pop()
                groups.append(gog.group_at(verts[-1]).mul(prev, g))
            else:
                edges.append(e)
                groups.append(g)
                verts.append(iota[back])
        return Word(gog, self.start, tuple(groups), tuple(edges))

    def inverse(self) -> "Word":
        gog = self.gog
        rev = gog.graph._rev
        verts = self._vertices()
        groups = tuple(
            gog.group_at(v).inv(x)
            for v, x in zip(reversed(verts), reversed(self.groups))
        )
        edges = tuple(rev[e] for e in reversed(self.edges))
        return Word(gog, verts[-1], groups, edges).reduce()

    def __mul__(self, other: "Word") -> "Word":
        if self.gog is not other.gog:
            raise ComposabilityError("words over different graphs of groups")
        if self.end != other.start:
            raise ComposabilityError(
                f"cannot compose: ends at {self.end!r}, next starts at {other.start!r}"
            )
        joined = self.gog.group_at(self.end).mul(self.groups[-1], other.groups[0])
        return Word(
            self.gog,
            self.start,
            self.groups[:-1] + (joined,) + other.groups[1:],
            self.edges + other.edges,
        ).reduce()

    def is_identity_loop(self) -> bool:
        w = self.reduce()
        return w.n == 0 and w.gog.group_at(w.start).is_identity(w.groups[0])

    def letters(self) -> list:
        """Flat alternating list g0, e1, g1, ..., en, gn."""
        out: list = [self.groups[0]]
        for e, g in zip(self.edges, self.groups[1:]):
            out.append(e)
            out.append(g)
        return out

    def as_strings(self) -> list[str]:
        verts = self._vertices()
        out = []
        for i, x in enumerate(self.letters()):
            if i % 2 == 0:
                oracle = self.gog.group_at(verts[i // 2])
                out.append(oracle.format_element(x))
            else:
                out.append(x)
        return out

    def key(self):
        """Hashable identity of the word (structure only)."""
        return (self.start, self.groups, self.edges)

    def __eq__(self, other):
        return isinstance(other, Word) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Word({self.start!r}, {self.as_strings()})"
