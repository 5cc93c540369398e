"""Decorated morphisms of graphs of groups with trivial edge groups.

A morphism from a domain graph of groups into a target carries, on top
of the graph map, one subgroup handle per domain vertex (the domain
vertex group, represented literally as a subgroup of the target vertex
group it maps into) and one target element delta_e per directed domain
edge, placed in the group at the image of iota(e).

Right cosets S*delta rule all coset bookkeeping.  The induced map on
words sends a group letter to itself and a domain edge e to

    delta_e  phi(e)  delta_{~e}^(-1)

so that distinct lifts of a target edge at a vertex v are exactly the
distinct right cosets  vgroup_image(v) * delta_e, and the image of a
reduced word under an immersion is reduced.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from .core import Graph, GraphOfGroups, Word, bar
from .errors import (
    EndpointMismatch,
    GogsepError,
    InfiniteIndexVertex,
    NotAnImmersion,
)
from .oracles import SubgroupHandle, subgroup_generate

__all__ = [
    "DecoratedMorphism",
    "CheckReport",
    "LiftOutcome",
    "check_immersion",
    "check_cover",
    "lift_loop",
    "subgroup_member",
]


class DecoratedMorphism:
    """Graph-of-groups morphism with subgroup and delta decorations."""

    def __init__(
        self,
        domain: GraphOfGroups,
        target: GraphOfGroups,
        vertex_map: dict,
        edge_map: dict,
        vgroup_image: dict,
        delta: dict,
    ):
        self.domain = domain
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        self.vgroup_image = dict(vgroup_image)
        self.delta = dict(delta)
        self.validate()

    # -- structural validity ------------------------------------------------

    def validate(self):
        dom, groups = self.domain.graph, self.target.vertex_group
        for v in dom.vertices:
            u = self.vertex_map.get(v)
            if u not in groups:
                raise GogsepError(f"vertex {v!r} has no valid image")
            oracle = groups[u]
            if self.domain.group_at(v) is not oracle:
                raise GogsepError(
                    f"domain vertex {v!r} must carry the oracle of its image {u!r}"
                )
            handle = self.vgroup_image.get(v)
            if not isinstance(handle, SubgroupHandle):
                raise GogsepError(f"vertex {v!r} has no subgroup handle")
            if handle.group is not oracle:
                raise GogsepError(
                    f"subgroup at {v!r} lives in the wrong vertex group"
                )
        try:
            self._check_edges(dom._iota)
        except GogsepError:
            self._check_edges(sorted(dom._iota))  # report the least faulty edge
            raise
        return self

    def _check_edges(self, edges):
        dom, tgt = self.domain.graph, self.target.graph
        dom_iota, dom_rev, tgt_iota, tgt_rev = dom._iota, dom._rev, tgt._iota, tgt._rev
        edge_map, vertex_map, delta = self.edge_map, self.vertex_map, self.delta
        oracles = self.target.vertex_group
        for e in edges:
            f = edge_map.get(e)
            if f is None or f not in tgt_rev:
                raise GogsepError(f"edge {e!r} has no valid image")
            if edge_map.get(dom_rev[e]) != tgt_rev[f]:
                raise GogsepError(f"edge map breaks the involution at {e!r}")
            u = tgt_iota[f]
            if vertex_map[dom_iota[e]] != u:
                raise GogsepError(f"edge map breaks iota at {e!r}")
            oracles[u].check(delta.get(e))

    # -- conveniences --------------------------------------------------------

    def oracle_at(self, v: str):
        """The ambient target oracle a domain vertex maps into."""
        return self.target.group_at(self.vertex_map[v])

    def fiber(self, u: str) -> list[str]:
        return sorted(v for v in self.domain.graph.vertices if self.vertex_map[v] == u)


class _Working:
    """A morphism's data opened for editing in place, then frozen once.

    The stages that reshape a morphism (wedge, fold, trim, hair, enlarge,
    completion) edit this copy, and the JSON readers fill one; each edit
    touches only the vertices and edges it names.  ``freeze`` hands the
    data over unchecked, so every edit keeps what ``Graph``,
    ``GraphOfGroups`` and ``DecoratedMorphism.validate`` would otherwise
    check (the readers check each field they parse):

    * each vertex's out-list holds the edges e with iota(e) at it, sorted
      by id as ``Graph`` keeps them, and vertices keep insertion order;
    * ``iota`` and ``rev`` hold e exactly when they hold ~e, rev(e) = ~e
      and tau(e) = iota(~e);
    * every edge has an image f, with ~f the image of ~e and iota(f)
      under iota(e), and a delta in the oracle at its start;
    * every vertex has an image and a handle in its image's group;
    * the domain stays connected.  Wedge circles share the base, a fold
      merges the ends of two edges, a trim peels a leaf and a hair hangs
      off an existing vertex.  Completion pads no fiber whose index sum
      is the maximum d; each component of its degree-d cover of the
      connected target meets that fiber, which lies in the original,
      connected immersion.  The readers check it after ``freeze``.
    """

    def __init__(self, target: GraphOfGroups, base: Optional[str] = None):
        self.target = target
        self.base = base
        self.out: dict[str, list[str]] = {}  # vertex -> edges leaving it
        self.iota: dict[str, str] = {}
        self.rev: dict[str, str] = {}  # directed edge -> its reverse
        self.vertex_map, self.edge_map = {}, {}
        self.vgroup_image, self.delta = {}, {}

    @classmethod
    def of(cls, m: DecoratedMorphism) -> "_Working":
        w = cls(m.target, m.domain.base)
        g = m.domain.graph
        w.out = {v: list(edges) for v, edges in g._out.items()}
        w.iota, w.rev = dict(g._iota), dict(g._rev)
        w.vertex_map, w.edge_map = dict(m.vertex_map), dict(m.edge_map)
        w.vgroup_image, w.delta = dict(m.vgroup_image), dict(m.delta)
        return w

    def tau(self, e: str) -> str:
        return self.iota[self.rev[e]]

    def oracle_at(self, v: str):
        return self.target.group_at(self.vertex_map[v])

    def add_vertex(self, v: str, u: str, handle):
        if v in self.out:
            raise GogsepError(f"duplicate vertex {v!r}")
        self.out[v] = []
        self.vertex_map[v] = u
        self.vgroup_image[v] = handle

    def add_edge(self, e: str, frm: str, to: str, f: str, d, d_bar):
        """The pair e: frm -> to over f, with delta d and d_bar on ~e."""
        back = bar(e)
        self.iota[e], self.iota[back] = frm, to
        self.rev[e], self.rev[back] = back, e
        bisect.insort(self.out[frm], e)
        bisect.insort(self.out[to], back)
        self.edge_map[e], self.edge_map[back] = f, self.target.graph._rev[f]
        self.delta[e], self.delta[back] = d, d_bar

    def drop_pair(self, e: str):
        back = self.rev.pop(e)
        del self.rev[back]
        for x in (e, back):
            self.out[self.iota.pop(x)].remove(x)
            del self.edge_map[x], self.delta[x]

    def drop_vertex(self, v: str):
        del self.out[v], self.vertex_map[v], self.vgroup_image[v]

    def merge(self, x2: str, x1: str, t):
        """Identify x2 with x1 through the adjustment t, then drop x2.

        Edges leaving x2 leave x1 with delta t*delta, and S_x1 grows by
        t S_x2 t^-1.  A loop at x2 lists both its directions there, so
        both of its ends move.
        """
        oracle = self.oracle_at(x1)
        moved = self.out.pop(x2)
        for x in moved:
            self.iota[x] = x1
            self.delta[x] = oracle.mul(t, self.delta[x])
        self.out[x1] = sorted(self.out[x1] + moved)
        conj = self.vgroup_image.pop(x2).conjugated(t)
        self.vgroup_image[x1] = subgroup_generate(
            oracle, tuple(self.vgroup_image[x1].generators) + tuple(conj.generators)
        )
        del self.vertex_map[x2]

    def freeze(self) -> DecoratedMorphism:
        """The edited morphism, built without re-checking; this copy is spent."""
        graph = Graph()
        graph._out, graph._iota, graph._rev = self.out, self.iota, self.rev
        domain = object.__new__(GraphOfGroups)
        domain.graph, domain.base = graph, self.base
        groups, vertex_map = self.target.vertex_group, self.vertex_map
        domain.vertex_group = {v: groups[vertex_map[v]] for v in self.out}
        m = object.__new__(DecoratedMorphism)
        m.domain, m.target = domain, self.target
        m.vertex_map, m.edge_map = self.vertex_map, self.edge_map
        m.vgroup_image, m.delta = self.vgroup_image, self.delta
        return m


@dataclass
class CheckReport:
    ok: bool
    violations: list = field(default_factory=list)
    degree: Optional[int] = None  # set by a passing check_cover
    # a passing check_cover's coset slots (see _coset_slots), for _lift
    _slots: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __bool__(self):
        return self.ok


@dataclass
class LiftOutcome:
    """Result of lifting a reduced target loop through a morphism.

    case "closed":   lift is a loop; ``element`` is the terminal vertex
                     group element (membership iff it lies in the base
                     vertex subgroup).
    case "open_end": lift exists but ends at a different fiber vertex.
    case "stuck":    no edge lift matches; ``consumed`` syllables were
                     lifted, ``carry`` is the pending coset element at
                     ``vertex`` for target edge ``target_edge``.
    """

    case: str
    path_edges: tuple = ()
    end_vertex: Optional[str] = None
    element: object = None
    consumed: int = 0
    vertex: Optional[str] = None
    target_edge: Optional[str] = None
    carry: object = None


def lifts_by_edge(edges, edge_map) -> dict:
    """``edges`` grouped by target edge: {f: [e, ...]}, in ``edges`` order."""
    lifts = {}
    for e in edges:
        lifts.setdefault(edge_map[e], []).append(e)
    return lifts


def lifts_by_coset(handle: SubgroupHandle, lifts, delta) -> dict:
    """``lifts`` grouped by the right coset handle * delta[e], keyed by it.

    Buckets are listed in order of their first member, and members in
    ``lifts`` order, so the first two members of the first bucket with two
    are the least such pair.
    """
    buckets = {}
    for e in lifts:
        buckets.setdefault(handle.coset_key(delta[e]), []).append(e)
    return buckets


def _coset_slots(m: DecoratedMorphism) -> dict:
    """Every lift keyed once: {v: {(f, coset key): lifts of f at v in it}}.

    Two lifts of f at v share a slot when they lie in one right coset
    vgroup_image[v] * delta[e]; members are listed in out-list order.
    """
    edge_map, delta = m.edge_map, m.delta
    slots = {}
    for v, edges in m.domain.graph._out.items():
        key = m.vgroup_image[v].coset_key
        by_slot = slots[v] = {}
        for e in edges:
            by_slot.setdefault((edge_map[e], key(delta[e])), []).append(e)
    return slots


def _clashes(m: DecoratedMorphism, slots: dict) -> list:
    """Every pair of lifts sharing a slot, by vertex, then target edge."""
    out = m.domain.graph._out
    violations = []
    for v, by_slot in slots.items():
        if len(by_slot) == len(out[v]):
            continue  # one lift per slot
        pairs = sorted(
            (f, a, b)
            for (f, _), bucket in by_slot.items()
            for k, a in enumerate(bucket)
            for b in bucket[k + 1:]
        )
        violations += [
            {"vertex": v, "target_edge": f, "edges": (a, b)} for f, a, b in pairs
        ]
    return violations


def check_immersion(m: DecoratedMorphism) -> CheckReport:
    """Local injectivity: lifts of one target edge occupy distinct cosets."""
    violations = _clashes(m, _coset_slots(m))
    return CheckReport(not violations, violations)


# The most unheld coset reps a cover violation lists; an index can be huge.
MISSING_SHOWN = 5


def check_cover(m: DecoratedMorphism) -> CheckReport:
    """Local bijectivity: at every vertex the lifts exhaust the cosets.

    One keyed pass (``_coset_slots``) serves both halves: lifts sharing a
    coset are reported first, as ``check_immersion`` reports them, and only
    then does a vertex of infinite index raise.  A passing report also
    carries the degree, the summed coset count over one fiber; every fiber
    has that count (see ``folding.cover_index``).  A violation lists the
    first MISSING_SHOWN coset reps no lift holds.
    """
    slots = _coset_slots(m)
    violations = _clashes(m, slots)
    if violations:
        return CheckReport(False, violations)
    images, target_out = m.vgroup_image, m.target.graph._out
    fiber_count = {}
    for v, by_slot in slots.items():
        handle = images[v]
        need = handle.index()
        if need is None:
            raise InfiniteIndexVertex(
                f"subgroup at {v!r} has infinite index; no finite cover exists"
            )
        u = m.vertex_map[v]
        fiber_count[u] = fiber_count.get(u, 0) + need
        # Each target edge at u fills at most `need` slots, one per coset;
        # with all `need * deg(u)` filled, each holds one lift (no clash).
        if len(by_slot) == need * len(target_out[u]):
            continue
        for f in target_out[u]:
            held = {k for g, k in by_slot if g == f}
            if len(held) != need:
                # At most len(held) of these reps are held, so they include
                # the first MISSING_SHOWN unheld ones.
                reps = handle.coset_reps(limit=len(held) + MISSING_SHOWN)
                missing = [r for r in reps if handle.coset_key(r) not in held]
                violations.append(
                    {
                        "vertex": v,
                        "target_edge": f,
                        "have": len(held),
                        "need": need,
                        "missing": missing[:MISSING_SHOWN],
                    }
                )
    if violations:
        return CheckReport(False, violations)
    report = CheckReport(True, degree=next(iter(fiber_count.values()), 0))
    report._slots = slots
    return report


def lift_loop(m: DecoratedMorphism, g: Word, u0: str) -> LiftOutcome:
    """Lift a reduced target loop at phi(u0) through the morphism.

    Consumes g syllable by syllable; at each step the unique lift of the
    next target edge whose coset matches the accumulated carry is taken.
    Immersions make the matching edge unique; covers make it total.
    """
    return _lift(m, g, u0, None)


def _lift(m: DecoratedMorphism, g: Word, u0: str, slots) -> LiftOutcome:
    """``lift_loop``, taking each step's matches from a passing
    ``check_cover``'s slots, or with ``slots`` None from a scan of the
    vertex's out-list that keys only the lifts of the next edge."""
    if not m.domain.graph.has_vertex(u0):
        raise GogsepError(f"unknown base vertex {u0!r}")
    if g.gog is not m.target:
        raise GogsepError("loop does not live on the morphism's target")
    if g.start != m.vertex_map[u0]:
        raise EndpointMismatch(
            f"loop starts at {g.start!r}, expected {m.vertex_map[u0]!r}"
        )
    if not g.is_loop():
        raise EndpointMismatch("lift_loop needs a loop")
    g = g.validate().reduce()
    graph = m.domain.graph
    out, iota, rev = graph._out, graph._iota, graph._rev
    oracles, edge_map, delta = m.domain.vertex_group, m.edge_map, m.delta
    v = u0
    carry = g.groups[0]
    path = []
    for i, f in enumerate(g.edges):
        handle = m.vgroup_image[v]
        key = handle.coset_key(carry)
        if slots is not None:
            matches = slots[v].get((f, key), ())
        else:
            matches = [
                e
                for e in out[v]
                if edge_map[e] == f and handle.coset_key(delta[e]) == key
            ]
        if not matches:
            return LiftOutcome(
                case="stuck",
                path_edges=tuple(path),
                consumed=i,
                vertex=v,
                target_edge=f,
                carry=carry,
            )
        if len(matches) > 1:
            raise NotAnImmersion(
                f"multiple lifts of {f!r} at {v!r} share a coset: {matches}"
            )
        e = matches[0]
        path.append(e)
        back = rev[e]
        v = iota[back]
        carry = oracles[v].mul(delta[back], g.groups[i + 1])
    if v == u0:
        return LiftOutcome(
            case="closed", path_edges=tuple(path), end_vertex=v, element=carry,
            consumed=g.n,
        )
    return LiftOutcome(
        case="open_end", path_edges=tuple(path), end_vertex=v, consumed=g.n
    )


def subgroup_member(m: DecoratedMorphism, u0: str, g: Word) -> bool:
    """Is the target loop g in the subgroup this immersion represents?"""
    outcome = lift_loop(m, g, u0)
    return outcome.case == "closed" and m.vgroup_image[u0].member(outcome.element)
