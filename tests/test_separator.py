import dataclasses
import hashlib
import json
import random

import pytest

import gogsep
from gogsep import (
    DecoratedMorphism,
    FiniteGroup,
    Graph,
    GraphOfGroups,
    SeparationCertificate,
    Word,
    attach_separating_path,
    certificate_from_json,
    certificate_to_json,
    check_immersion,
    complete_to_cover,
    enlarge,
    fold,
    gog_from_json,
    lift_loop,
    separate_element,
    subgroup_member,
    trim_core,
    verify_certificate,
    wedge,
    word_from_json,
)
from gogsep.errors import AlreadyMember, EdgeChainBroken, GogsepError
from gogsep.jsonio import dumps
from gogsep.morphism import _Working
from gogsep.oracles import FiniteSubgroup
from gogsep.verifier import crosscheck

from conftest import (
    INSTANCES,
    W,
    _random_element,
    count_calls,
    lifts_at,
    pslz_conjugates,
    remake,
)
from test_golden import GOLDEN, _rose2_instance


def ab_loop(pslz):
    return W(pslz, "u", "a", "e", "b", "~e", "1")


# -- attach statuses ---------------------------------------------------------


def test_attach_loop_status(pslz):
    m = trim_core(fold(wedge(pslz, "u", [ab_loop(pslz)])))
    out, status = attach_separating_path(m, "v0", W(pslz, "u", "a"))
    assert status == ("loop", "a")
    assert out is m  # nothing to modify; the witness does the separating


def test_attach_open_status(pslz):
    ab = ab_loop(pslz)
    m = trim_core(fold(wedge(pslz, "u", [(ab * ab).reduce()])))
    out, status = attach_separating_path(m, "v0", ab)
    assert status == ("open", "v1_2")
    assert out is m


def test_attach_hair_status(pslz):
    m = trim_core(fold(wedge(pslz, "u", [ab_loop(pslz)])))
    b = W(pslz, "u", "1", "e", "b", "~e", "1")
    out, status = attach_separating_path(m, "v0", b)
    assert status == ("hair", "q1")
    assert sorted(out.domain.graph.vertices) == ["q1", "v0", "v1_1"]
    assert out.domain.graph.iota("h1") == "v1_1"
    assert out.domain.graph.tau("h1") == "q1"
    assert out.delta["h1"] == "b2"  # the carry the lift was stuck on
    assert check_immersion(out).ok
    # on the grafted immersion the lift now runs off the base loop
    _, status2 = attach_separating_path(out, "v0", b)
    assert status2 == ("open", "q1")


def test_attach_rejects_members(pslz):
    ab = ab_loop(pslz)
    m = trim_core(fold(wedge(pslz, "u", [ab])))
    with pytest.raises(AlreadyMember):
        attach_separating_path(m, "v0", (ab * ab).reduce())
    with pytest.raises(AlreadyMember):
        attach_separating_path(m, "v0", pslz.identity_word("u"))


# -- end-to-end degrees ------------------------------------------------------


def test_separate_pslz_loop_case(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    assert cert.degree == 3
    assert verify_certificate(cert).ok
    assert cert.base_vertex == "v0"
    assert subgroup_member(cert.cover, "v0", ab_loop(pslz))


def test_separate_pslz_hair_case(pslz):
    b = W(pslz, "u", "1", "e", "b", "~e", "1")
    cert = separate_element(pslz, "u", [ab_loop(pslz)], b, seed=0)
    assert cert.degree == 4
    assert verify_certificate(cert).ok
    assert "q1" in cert.cover.domain.graph.vertices


def test_separate_dinfty(dinfty):
    gens = [W(dinfty, "u", "a", "e", "b", "~e", "1")]
    cert = separate_element(dinfty, "u", gens, W(dinfty, "u", "a"), seed=0)
    assert cert.degree == 2 and verify_certificate(cert).ok


def test_separate_z2(z2):
    gens = [
        W(z2, "x", "0", "e", "1", "~e", "0"),
        W(z2, "x", "1", "e", "1", "~e", "-1"),
    ]
    cert = separate_element(z2, "x", gens, W(z2, "x", "1"), seed=0)
    assert cert.degree == 2 and verify_certificate(cert).ok


def test_separate_rose2(rose2):
    gens = [
        W(rose2, "o", "1", "p", "1", "p", "1"),
        W(rose2, "o", "1", "q", "1"),
    ]
    cert = separate_element(rose2, "o", gens, W(rose2, "o", "1", "p", "1"), seed=0)
    assert cert.degree == 2 and verify_certificate(cert).ok


def test_separate_c2c3c2(c2c3c2):
    gens = [
        W(c2c3c2, "u", "a", "e", "b", "~e", "1"),
        W(c2c3c2, "u", "1", "e", "b", "f", "c", "~f", "b", "~e", "1"),
    ]
    g = W(c2c3c2, "u", "1", "e", "b", "f", "c", "~f", "b2", "~e", "1")
    cert = separate_element(c2c3c2, "u", gens, g, seed=0)
    assert cert.degree == 4 and verify_certificate(cert).ok


def test_separate_free_vertex_group(f2c2):
    gens = [W(f2c2, "x", "x1"), W(f2c2, "x", "1", "e", "a", "~e", "1")]
    cert = separate_element(f2c2, "x", gens, W(f2c2, "x", "x2"), seed=0)
    assert cert.degree == 2 and verify_certificate(cert).ok


def test_separate_rejects_members_and_bad_loops(pslz):
    ab = ab_loop(pslz)
    with pytest.raises(AlreadyMember):
        separate_element(pslz, "u", [ab], ab.inverse())
    with pytest.raises(GogsepError):
        separate_element(pslz, "u", [ab], W(pslz, "w", "b"))


def test_an_unknown_last_edge_is_a_broken_chain_where_the_loop_is_tested(pslz):
    """The loop tests of the entry points read the word's end before
    validate() does."""
    g = Word(pslz, "u", ("a", "1"), ("zz",))
    m = trim_core(fold(wedge(pslz, "u", [ab_loop(pslz)])))
    for call in (
        lambda: separate_element(pslz, "u", [ab_loop(pslz)], g),
        lambda: wedge(pslz, "u", [g]),
        lambda: lift_loop(m, g, m.domain.base),
    ):
        with pytest.raises(EdgeChainBroken, match="unknown edge 'zz'"):
            call()


# -- verification ------------------------------------------------------------


def test_verify_transcript_steps(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    report = verify_certificate(cert)
    assert report.ok
    assert [t["check"] for t in report.transcript] == [
        "structure", "cover", "degree", "generators", "element",
    ]
    assert all(t["ok"] for t in report.transcript)


def test_verify_rejects_wrong_degree(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    bad = dataclasses.replace(cert, degree=cert.degree + 1)
    report = verify_certificate(bad)
    assert not report.ok
    failed = [t["check"] for t in report.transcript if not t["ok"]]
    assert failed == ["degree"]


def test_verify_rejects_broken_cover(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    # collapse two edge decorations onto one coset
    twisted = remake(
        cert.cover,
        delta={**cert.cover.delta, "c1_1": cert.cover.delta["~c1_2"]}
    )
    report = verify_certificate(dataclasses.replace(cert, cover=twisted))
    assert not report.ok
    assert [t["check"] for t in report.transcript] == ["structure", "cover"]


def test_verify_rejects_cover_missing_an_edge_pair(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    cover = cert.cover
    old = cover.domain.graph
    graph = Graph()
    for v in old.vertices:
        graph.add_vertex(v)
    for p in old.edge_pairs():
        if p != "c1_2":  # the domain stays connected without it
            graph.add_edge(p, old.iota(p), old.tau(p))
    kept = set(graph.directed_edges)
    dropped = DecoratedMorphism(
        GraphOfGroups(graph, cover.domain.vertex_group, base=cover.domain.base),
        cover.target,
        cover.vertex_map,
        {e: f for e, f in cover.edge_map.items() if e in kept},
        cover.vgroup_image,
        {e: d for e, d in cover.delta.items() if e in kept},
    )
    report = verify_certificate(dataclasses.replace(cert, cover=dropped))
    assert not report.ok
    assert [(t["check"], t["ok"]) for t in report.transcript] == [
        ("structure", True), ("cover", False),
    ]


def test_verify_rejects_base_vertex_over_wrong_target_vertex(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    assert cert.cover.vertex_map["v1_1"] == "w"
    report = verify_certificate(dataclasses.replace(cert, base_vertex="v1_1"))
    assert not report.ok
    assert [(t["check"], t["ok"]) for t in report.transcript] == [
        ("structure", False), ("cover", True),
    ]


def test_verify_stops_at_malformed_cover(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    del cert.cover.delta["n1"]  # data changed after construction
    report = verify_certificate(cert)
    assert not report.ok
    assert [(t["check"], t["ok"]) for t in report.transcript] == [("structure", False)]


@pytest.mark.parametrize(
    "detail, break_cover",
    [
        ("vertex 'v1_1' has no subgroup handle", lambda m, t: m.vgroup_image.pop("v1_1")),
        (
            "subgroup at 'v1_1' lives in the wrong vertex group",
            lambda m, t: m.vgroup_image.update(v1_1=t.group_at("u").trivial_subgroup()),
        ),
        ("edge 'c1_1' has no valid image", lambda m, t: m.edge_map.pop("c1_1")),
    ],
    ids=["no-handle", "foreign-handle", "unmapped-edge"],
)
def test_verify_names_a_cover_fault_in_its_structure_step(pslz, detail, break_cover):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    assert cert.cover.vertex_map["v1_1"] == "w"
    break_cover(cert.cover, pslz)  # data changed after construction
    assert verify_certificate(cert).transcript == [
        {"check": "structure", "ok": False, "detail": detail}
    ]


def test_separate_raises_when_its_certificate_fails_its_own_check(pslz, monkeypatch):
    failing = gogsep.separator.VerificationReport(
        False, [{"check": "structure", "ok": False, "detail": "broken"}]
    )
    monkeypatch.setattr(gogsep.separator, "verify_certificate", lambda cert: failing)
    with pytest.raises(GogsepError, match="emitted certificate failed its own check"):
        separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)


def test_verify_rejects_member_element(pslz):
    ab = ab_loop(pslz)
    cert = separate_element(pslz, "u", [ab], W(pslz, "u", "a"), seed=0)
    bad = dataclasses.replace(cert, element=(ab * ab).reduce())
    report = verify_certificate(bad)
    failed = [t["check"] for t in report.transcript if not t["ok"]]
    assert failed == ["element"]


def test_verify_rejects_outside_generators(pslz):
    cert = separate_element(pslz, "u", [ab_loop(pslz)], W(pslz, "u", "a"), seed=0)
    bad = dataclasses.replace(cert, generators=[W(pslz, "u", "a")])
    report = verify_certificate(bad)
    failed = [t["check"] for t in report.transcript if not t["ok"]]
    assert "generators" in failed


def _mutations(cert):
    """The certificate and four broken copies: two lifts of one target
    edge with their deltas swapped (where some deltas differ), the least
    edge pair dropped, a wrong degree, and an element inside H."""
    m = cert.cover
    yield cert
    for v in m.domain.graph.vertices:
        pair = next(
            (ls[:2] for _, ls in sorted(lifts_at(m, v).items())
             if len(ls) > 1 and m.delta[ls[0]] != m.delta[ls[1]]),
            None,
        )
        if pair:
            w = _Working.of(m)
            a, b = pair
            w.delta[a], w.delta[b] = w.delta[b], w.delta[a]
            yield dataclasses.replace(cert, cover=w.freeze())
            break
    w = _Working.of(m)
    w.drop_pair(m.domain.graph.edge_pairs()[0])
    yield dataclasses.replace(cert, cover=w.freeze())
    yield dataclasses.replace(cert, degree=cert.degree + 1)
    yield dataclasses.replace(cert, element=cert.generators[0])


# sha256 of the verify and crosscheck transcripts of each golden certificate
# and its mutations; a faster check must report every fault the same way.
TRANSCRIPT_DIGESTS = {
    "f2z": "27b205bf582218a37747ed87267828165f7825305370f5f1bd0d0bd478fe670d",
    "pslz": "90b00c45826a2adfab0c58fd4325ba7f2f30822aeb654bd20bdd2453f1969c62",
    "pslz-folds": "f96dbb64a40b9afe52a92f0c8de98e7e88f06fb8e6ff159b0fbef5ca5224d490",
    "rose2": "69175bd1fe7b05429d42b24ef2b34fe979b99c932e2e6ac37c637b00491a87fd",
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_DIGESTS))
def test_verify_and_crosscheck_transcripts_are_pinned(name):
    cert = separate_element(*GOLDEN[name][0](), seed=0)
    transcripts = [
        (verify_certificate(c).transcript, crosscheck(c).transcript)
        for c in _mutations(cert)
    ]
    assert len(transcripts) == (4 if name == "rose2" else 5)  # C1 has one delta
    digest = hashlib.sha256(repr(transcripts).encode()).hexdigest()
    assert digest == TRANSCRIPT_DIGESTS[name]


# -- each fact checked once --------------------------------------------------


def test_verify_certificate_is_the_only_cover_check(monkeypatch):
    def load(name):
        return json.loads((INSTANCES / name).read_text())

    target = gog_from_json(load("pslz.json"))
    gens = [word_from_json(target, w) for w in load("pslz_gens.json")["generators"]]
    g = word_from_json(target, load("pslz_element.json"))
    counts = count_calls(monkeypatch, gogsep, "check_cover")

    cert = separate_element(target, target.base, gens, g, seed=0)
    assert counts == {"check_cover": 1}

    counts["check_cover"] = 0
    assert verify_certificate(cert).ok
    assert counts["check_cover"] == 1


def test_verify_keys_each_cover_edge_once(monkeypatch):
    """One coset key per directed cover edge, then one per lift step and
    two per member test (the closed lift's element and the identity).  A
    lift that keyed every lift of f at each step would pay for the 14
    lifts at the base again."""
    cert = separate_element(*GOLDEN["f2z"][0](), seed=0)
    images = cert.cover.vgroup_image
    assert max(h.index() for h in images.values() if h.group.kind != "finite") >= 3
    steps = sum(w.reduce().n for w in [*cert.generators, cert.element])
    element = lift_loop(cert.cover, cert.element, cert.base_vertex)
    members = len(cert.generators) + (element.case == "closed")
    edges = len(cert.cover.domain.graph.directed_edges)
    counts = [
        count_calls(monkeypatch, cls, "coset_key")
        for cls in {type(h) for h in images.values()}
    ]
    assert verify_certificate(cert).ok
    assert sum(c["coset_key"] for c in counts) <= edges + steps + 2 * members


def test_separate_validates_once_however_many_folds(monkeypatch):
    """Stages hand their results over unchecked; only verify validates."""
    validated = count_calls(monkeypatch, DecoratedMorphism, "validate")
    built = count_calls(monkeypatch, Graph, "is_connected", "add_edge")
    per_run = []
    for k in (10, 30):
        target, u0, gens, g = pslz_conjugates(k)
        m = wedge(target, u0, gens)
        validated["validate"] = 0
        folded = fold(m)
        assert validated["validate"] == 0
        if k == 30:  # each fold removes one edge pair
            assert len(m.domain.graph.edge_pairs()) - len(folded.domain.graph.edge_pairs()) >= 100
        validated["validate"] = 0
        built.update(is_connected=0, add_edge=0)
        separate_element(target, u0, gens, g, seed=0)
        per_run.append({**validated, **built})
    # verify's structure step is the one validation
    assert per_run == [{"validate": 1, "is_connected": 0, "add_edge": 0}] * 2


def test_lifting_and_verifying_read_reverses_from_the_graph(monkeypatch):
    """No edge name is parsed to find a reverse when a loop is lifted or a
    certificate verified, and lift_loop copies no out-list."""
    target, u0, gens, g = _rose2_instance()
    m = fold(wedge(target, u0, gens))
    cert = separate_element(target, u0, gens, g, seed=0)
    bars = count_calls(monkeypatch, gogsep.core, "bar")
    scans = count_calls(monkeypatch, Graph, "edges_at")
    answers = [
        subgroup_member(h, base, w)
        for h, base in ((m, m.domain.base), (cert.cover, cert.base_vertex))
        for w in [*gens, g]
    ]
    assert answers == [True, True, False] * 2
    assert {**bars, **scans} == {"bar": 0, "edges_at": 0}
    assert verify_certificate(cert).ok
    assert bars["bar"] == 0


def test_separate_validates_each_input_word_where_it_is_first_read(monkeypatch):
    """wedge validates the 3 generators and lift_loop the element; verify
    validates all 4 again at the certificate boundary."""
    counts = count_calls(monkeypatch, Word, "validate")
    target, u0, gens, g = pslz_conjugates(30)
    separate_element(target, u0, gens, g, seed=0)
    assert counts["validate"] == 8


def test_completion_checks_immersion_in_its_slot_pass(monkeypatch):
    """Completion reads its claims from one keyed pass and runs neither
    check; verify's cover check keys the cover once more and checks
    immersion in place."""
    target, u0, gens, g = pslz_conjugates(30)
    m = fold(wedge(target, u0, gens))
    enlarged = enlarge(m)
    checks = count_calls(monkeypatch, gogsep, "check_immersion", "check_cover")
    passes = count_calls(monkeypatch, gogsep.morphism, "_coset_slots")
    complete_to_cover(enlarged, seed=0)
    assert {**checks, **passes} == {"check_immersion": 0, "check_cover": 0, "_coset_slots": 1}

    passes["_coset_slots"] = 0
    separate_element(target, u0, gens, g, seed=0)
    assert {**checks, **passes} == {"check_immersion": 0, "check_cover": 1, "_coset_slots": 2}


def _shared_handles(target, samples):
    """Each oracle's trivial and full handle, with its generators, index
    and the coset keys of the oracle's sample elements."""
    return {
        u: [
            (h, h.generators, h.index(), [h.coset_key(x) for x in samples[u]])
            for h in (oracle.trivial_subgroup(), oracle.full_subgroup())
        ]
        for u, oracle in target.vertex_group.items()
    }


@pytest.mark.parametrize("name", ["pslz", "pslz-folds", "rose2", "f2z"])
def test_shared_handles_stay_intact(name):
    """Separating, writing, reading, verifying and cross-checking leave
    every oracle's shared trivial and full handles as they were built."""
    target, u0, gens, g = GOLDEN[name][0]()
    rng = random.Random(11)
    samples = {
        u: [_random_element(o, rng, 4) for _ in range(12)]
        for u, o in target.vertex_group.items()
    }
    before = _shared_handles(target, samples)
    cert = separate_element(target, u0, gens, g, seed=0)
    back = certificate_from_json(json.loads(dumps(certificate_to_json(cert))))
    read = _shared_handles(back.target, samples)
    assert verify_certificate(back).ok and crosscheck(back).ok
    separate_element(back.target, u0, back.generators, back.element, seed=0)
    assert _shared_handles(target, samples) == before
    assert _shared_handles(back.target, samples) == read



class _UnderCounted(FiniteSubgroup):
    """A finite handle that reports index 1 whatever its cosets."""

    def index(self):
        return 1


def test_verify_reports_a_lift_stuck_in_a_passing_cover():
    """A handle that under-reports its index lets a one-vertex morphism
    pass the cover check with a coset no lift leaves; the element step
    must then say that its lift got stuck."""
    c2 = FiniteGroup.cyclic(2, "a")
    g = Graph()
    g.add_vertex("o")
    g.add_edge("p", "o", "o")
    target = GraphOfGroups(g, {"o": c2}, base="o")
    d = Graph()
    d.add_vertex("v")
    d.add_edge("n", "v", "v")
    cover = DecoratedMorphism(
        GraphOfGroups(d, {"v": c2}, base="v"),
        target,
        vertex_map={"v": "o"},
        edge_map={"n": "p", "~n": "~p"},
        vgroup_image={"v": _UnderCounted(c2, [])},
        delta={"n": "1", "~n": "1"},
    )
    element = W(target, "o", "a", "p", "1")
    cert = SeparationCertificate(target, "o", [], element, cover, "v", 1)
    report = verify_certificate(cert)
    assert [t["ok"] for t in report.transcript] == [True, True, True, True, False]
    stuck = report.transcript[-1]["detail"]
    assert stuck == "element lift got stuck in a cover (not a cover?)"
    assert not report.ok
