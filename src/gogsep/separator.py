"""End-to-end separation of an element from a finitely generated subgroup.

Given loops generating a subgroup H at a base vertex and a reduced loop
g outside H, the pipeline folds a wedge into an immersion, modifies it
so the failure of g's lift is recorded in the graph (a witness element
at the base, or a grafted path g's lift runs off along), enlarges all
vertex subgroups to finite index without disturbing the recorded
failure, and completes to a finite cover.  The certificate is the
cover: g's lift at the base vertex fails to close into the base
subgroup while every generator's lift still does, and anyone can
re-check both facts by lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .completion import complete_to_cover
from .core import GraphOfGroups, Word, fresh_names
from .enlargement import enlarge
from .errors import AlreadyMember, GogsepError
from .folding import fold, wedge
from .morphism import (
    DecoratedMorphism,
    _lift,
    _Working,
    check_cover,
    lift_loop,
)

__all__ = [
    "SeparationCertificate",
    "VerificationReport",
    "attach_separating_path",
    "separate_element",
    "verify_certificate",
]


@dataclass
class SeparationCertificate:
    """A finite cover exhibiting g outside the subgroup of the generators."""

    target: GraphOfGroups
    u0: str
    generators: list
    element: Word
    cover: DecoratedMorphism
    base_vertex: str
    degree: int
    seed: Optional[int] = None


@dataclass
class VerificationReport:
    ok: bool
    transcript: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


def attach_separating_path(m: DecoratedMorphism, u0: str, g: Word):
    """Record why g's lift at u0 fails, modifying the immersion if needed.

    Returns (morphism, status) where status is one of
      ("loop", s):  lift closes with witness s outside the base subgroup;
                    the caller must keep s out of any enlarged subgroup.
      ("open", v):  lift closes combinatorially but at the wrong fiber
                    vertex v; nothing to modify.
      ("hair", v):  lift was stuck; the unread remainder of g is grafted
                    as a path of fresh trivial vertices ending at v, so
                    the lift now runs off the base loop.
    Raises AlreadyMember when g lies in the subgroup.
    """
    outcome = lift_loop(m, g, u0)  # validates g
    g = g.reduce()
    if outcome.case == "closed":
        if m.vgroup_image[u0].member(outcome.element):
            raise AlreadyMember("the element lies in the subgroup")
        return m, ("loop", outcome.element)
    if outcome.case == "open_end":
        return m, ("open", outcome.end_vertex)

    i = outcome.consumed
    w = _Working.of(m)
    fresh_vertex = fresh_names(w.out)
    fresh_edge = fresh_names(m.domain.graph.edge_pairs())
    prev = outcome.vertex
    for j in range(i, g.n):
        u = g.vertex_at(j + 1)
        oracle = m.target.group_at(u)
        v = fresh_vertex("q")
        w.add_vertex(v, u, oracle.trivial_subgroup())
        carry = outcome.carry if j == i else g.groups[j]
        w.add_edge(fresh_edge("h"), prev, v, g.edges[j], carry, oracle.identity())
        prev = v
    return w.freeze(), ("hair", prev)


def separate_element(
    target: GraphOfGroups,
    u0: str,
    gens: Sequence[Word],
    g: Word,
    seed: Optional[int] = None,
) -> SeparationCertificate:
    """Produce a verified finite cover separating g from <gens> at u0."""
    if g.start != u0 or not g.is_loop():
        raise GogsepError(f"element must be a loop at {u0!r}")

    m = fold(wedge(target, u0, gens))  # wedge validates gens
    gens = [w.reduce() for w in gens]
    v0 = m.domain.base
    m, status = attach_separating_path(m, v0, g)  # lift_loop validates g
    g = g.reduce()
    extra = {v0: [status[1]]} if status[0] == "loop" else None
    cover = complete_to_cover(enlarge(m, extra), seed=seed)
    # verify_certificate below checks the cover and this declared degree
    cert = SeparationCertificate(
        target=target,
        u0=u0,
        generators=gens,
        element=g,
        cover=cover,
        base_vertex=v0,
        degree=sum(cover.vgroup_image[v].index() for v in cover.fiber(u0)),
        seed=seed,
    )
    report = verify_certificate(cert)
    if not report.ok:
        raise GogsepError(f"emitted certificate failed its own check: {report.transcript}")
    return cert


def verify_certificate(cert: SeparationCertificate) -> VerificationReport:
    """Re-check a certificate from scratch, recording one entry per step."""
    transcript = []
    well_formed = False
    cover_report = None

    def step(name, fn):
        try:
            ok, detail = fn()
        except GogsepError as exc:
            ok, detail = False, str(exc)
        transcript.append({"check": name, "ok": ok, "detail": detail})
        return ok

    def structure():
        nonlocal well_formed
        cert.cover.validate()
        well_formed = True
        if not cert.target.graph.has_vertex(cert.u0):
            return False, f"unknown base vertex {cert.u0!r}"
        if not cert.cover.domain.graph.has_vertex(cert.base_vertex):
            return False, f"unknown cover vertex {cert.base_vertex!r}"
        if cert.cover.vertex_map[cert.base_vertex] != cert.u0:
            return False, "base vertex sits over the wrong target vertex"
        return True, "morphism data well-formed"

    def is_cover():
        nonlocal cover_report
        cover_report = check_cover(cert.cover)
        return cover_report.ok, (
            "locally bijective" if cover_report.ok else cover_report.violations[:3]
        )

    def degree():
        d = cover_report.degree
        return d == cert.degree, f"degree {d}, declared {cert.degree}"

    def lift(w):  # one coset key and one slot lookup per step
        return _lift(cert.cover, w, cert.base_vertex, cover_report._slots)

    def generators_inside():
        base = cert.cover.vgroup_image[cert.base_vertex]
        bad = []
        for k, w in enumerate(cert.generators, start=1):
            outcome = lift(w)
            if not (outcome.case == "closed" and base.member(outcome.element)):
                bad.append(k)
        return not bad, (
            "all generator lifts close into the base subgroup"
            if not bad
            else f"generators {bad} fail to lift"
        )

    def element_outside():
        outcome = lift(cert.element)
        if outcome.case == "stuck":
            return False, "element lift got stuck in a cover (not a cover?)"
        if outcome.case == "open_end":
            return True, f"element lift ends at {outcome.end_vertex!r}"
        inside = cert.cover.vgroup_image[cert.base_vertex].member(outcome.element)
        return not inside, (
            "element lift closes outside the base subgroup"
            if not inside
            else "element lift lands in the base subgroup"
        )

    ok = step("structure", structure)
    if well_formed:  # the cover check reads the morphism data unchecked
        ok = step("cover", is_cover) and ok
    if ok:
        ok = step("degree", degree) and ok
        ok = step("generators", generators_inside) and ok
        ok = step("element", element_outside) and ok
    return VerificationReport(ok, transcript)
