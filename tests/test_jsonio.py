import json

import pytest

from gogsep import (
    certificate_from_json,
    certificate_to_json,
    complete_to_cover,
    fold,
    gog_from_json,
    gog_to_json,
    morphism_from_json,
    morphism_to_json,
    separate_element,
    verify_certificate,
    wedge,
    word_from_json,
    word_to_json,
)
from gogsep.errors import SchemaError
from gogsep.jsonio import dumps
from gogsep.morphism import DecoratedMorphism
from gogsep.oracles import FreeSubgroup, _Automaton

from conftest import INSTANCES, W, assert_well_built, count_calls
from test_golden import GOLDEN, _f2z_instance, _pslz_instance


def load(name):
    return json.loads((INSTANCES / name).read_text())


# -- graphs of groups --------------------------------------------------------


def test_gog_round_trip(pslz, z2, rose2):
    for gog in (pslz, z2, rose2):
        doc = gog_to_json(gog)
        back = gog_from_json(doc)
        assert gog_to_json(back) == doc
        assert back.base == gog.base


def test_bundled_instances_load():
    for name in ("pslz.json", "dinfty.json", "z2.json", "c2c3c2.json", "rose2.json"):
        gog = gog_from_json(load(name))
        assert gog.base is not None


def test_gog_schema_errors():
    with pytest.raises(SchemaError) as err:
        gog_from_json({"vertices": {}})
    assert "$.vertices" in str(err.value)
    with pytest.raises(SchemaError) as err:
        gog_from_json(
            {
                "vertices": {"u": {"kind": "cyclic", "order": 2}},
                "edges": [{"id": "e", "from": "u", "to": "nowhere"}],
            }
        )
    assert "$.edges[0]" in str(err.value)
    with pytest.raises(SchemaError) as err:
        gog_from_json({"schema_version": 99, "vertices": {}, "edges": []})
    assert "schema_version" in str(err.value)


# -- words -------------------------------------------------------------------


def test_word_round_trip(pslz):
    w = W(pslz, "u", "a", "e", "b", "~e", "1")
    doc = word_to_json(w)
    assert doc == {"start": "u", "word": ["a", "e", "b", "~e", "1"]}
    assert word_from_json(pslz, doc) == w


def test_word_schema_errors(pslz):
    with pytest.raises(SchemaError) as err:
        word_from_json(pslz, {"start": "u", "word": ["a", "e"]})
    assert "alternate" in str(err.value)
    with pytest.raises(SchemaError) as err:
        word_from_json(pslz, {"start": "u", "word": ["a", "zz", "b"]})
    assert "$.word[1]" in str(err.value)
    with pytest.raises(SchemaError) as err:
        word_from_json(pslz, {"start": "u", "word": ["b"]})
    assert "$.word[0]" in str(err.value)
    with pytest.raises(SchemaError) as err:
        word_from_json(pslz, {"start": "w", "word": ["b", "e", "a"]})
    assert "does not start" in str(err.value)


# -- morphisms ---------------------------------------------------------------


def ab_cover(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    return complete_to_cover(m)


def test_morphism_round_trip(pslz):
    cover = ab_cover(pslz)
    doc = morphism_to_json(cover)
    back = morphism_from_json(doc)
    assert_well_built(back)
    assert morphism_to_json(back) == doc
    assert back.delta.keys() == cover.delta.keys()
    for e in cover.delta:
        assert back.delta[e] == cover.delta[e]


def test_documents_that_omit_the_base_read_back_without_it(pslz):
    """``base`` is optional in a target and in a morphism's domain."""
    doc = gog_to_json(pslz)
    del doc["base"]
    target = gog_from_json(doc)
    assert target.base is None and gog_to_json(target) == doc
    doc = morphism_to_json(ab_cover(pslz))
    del doc["target"]["base"], doc["domain"]["base"]
    back = morphism_from_json(doc)
    assert back.target.base is None and back.domain.base is None
    assert morphism_to_json(back) == doc


def test_morphism_paper_left_inverts_deltas(pslz):
    cover = ab_cover(pslz)
    right = morphism_to_json(cover, convention="right")
    left = morphism_to_json(cover, convention="paper-left")
    by_id = {e["id"]: e for e in left["domain"]["edges"]}
    for e in right["domain"]["edges"]:
        mirror = by_id[e["id"]]
        if e["delta"] == "a":  # order 2: own inverse
            assert mirror["delta"] == "a"
        if e["delta"] == "b":
            assert mirror["delta"] == "b2"
    # and reading the left document restores the same morphism
    back = morphism_from_json(left)
    assert_well_built(back)
    assert morphism_to_json(back) == right


def test_morphism_schema_error_paths(pslz):
    doc = morphism_to_json(ab_cover(pslz))
    bad = json.loads(dumps(doc))
    bad["domain"]["edges"][0]["onto"] = "zz"
    with pytest.raises(SchemaError) as err:
        morphism_from_json(bad)
    assert "$.domain.edges[0].onto" in str(err.value)
    bad = json.loads(dumps(doc))
    bad["convention"] = "sideways"
    with pytest.raises(SchemaError) as err:
        morphism_from_json(bad)
    assert "$.convention" in str(err.value)
    bad = json.loads(dumps(doc))
    bad["domain"]["vertices"]["v0"]["subgroup"] = ["b"]
    with pytest.raises(SchemaError) as err:
        morphism_from_json(bad)
    assert "$.domain.vertices.v0.subgroup[0]" in str(err.value)


# -- certificates ------------------------------------------------------------


def test_certificate_round_trip_and_verify(pslz):
    cert = separate_element(
        pslz, "u",
        [W(pslz, "u", "a", "e", "b", "~e", "1")],
        W(pslz, "u", "a"),
        seed=0,
    )
    doc = certificate_to_json(cert)
    back = certificate_from_json(json.loads(dumps(doc)))
    assert_well_built(back.cover)
    assert certificate_to_json(back) == doc
    assert back.degree == cert.degree and back.seed == 0
    assert verify_certificate(back).ok


def test_certificate_paper_left_round_trip(z2):
    gens = [
        W(z2, "x", "0", "e", "1", "~e", "0"),
        W(z2, "x", "1", "e", "1", "~e", "-1"),
    ]
    cert = separate_element(z2, "x", gens, W(z2, "x", "1"), seed=3)
    left = certificate_to_json(cert, convention="paper-left")
    back = certificate_from_json(left)
    assert_well_built(back.cover)
    assert verify_certificate(back).ok
    assert certificate_to_json(back) == certificate_to_json(cert)


def test_reading_free_vertex_subgroups_costs_about_their_cores(monkeypatch):
    """Each Schreier generator is read through the automaton folded so far,
    so new states go only where the core grows: a deterministic count in
    place of a wall-time gate (one fresh state per letter made 65 here)."""
    target, u0, gens, g = _f2z_instance()
    text = dumps(certificate_to_json(separate_element(target, u0, gens, g, seed=0)))
    counts = count_calls(monkeypatch, _Automaton, "new_state")
    back = certificate_from_json(json.loads(text))
    states = sum(
        len(h.rows) for h in back.cover.vgroup_image.values() if isinstance(h, FreeSubgroup)
    )
    assert states == 15
    assert counts["new_state"] <= 2 * states


def test_certificate_schema_errors(pslz):
    cert = separate_element(
        pslz, "u",
        [W(pslz, "u", "a", "e", "b", "~e", "1")],
        W(pslz, "u", "a"),
        seed=0,
    )
    doc = certificate_to_json(cert)
    bad = json.loads(dumps(doc))
    del bad["degree"]
    with pytest.raises(SchemaError) as err:
        certificate_from_json(bad)
    assert "$.degree" in str(err.value)
    bad = json.loads(dumps(doc))
    bad["cover_base"] = "zz"
    with pytest.raises(SchemaError) as err:
        certificate_from_json(bad)
    assert "$.cover_base" in str(err.value)


def _pslz_cert_doc():
    """The seed-0 certificate of the bundled pslz instance, as parsed JSON.

    Its cover has vertices v0 (the base) and q1 over u, v1_1 and z1 over w;
    edge 0 is c1_1: v0 -> v1_1 onto e, edge 1 is c1_2: v1_1 -> v0 onto ~e.
    """
    cert = separate_element(*_pslz_instance(), seed=0)
    return json.loads(dumps(certificate_to_json(cert)))


def _rename_q1(cover):
    """Rename the cover vertex q1 to the empty id."""
    cover["vertices"][""] = cover["vertices"].pop("q1")
    for e in cover["edges"]:
        for end in ("from", "to"):
            if e[end] == "q1":
                e[end] = ""


def test_boolean_degree_is_a_schema_error():
    doc = _pslz_cert_doc()
    doc["degree"] = True
    with pytest.raises(SchemaError) as err:
        certificate_from_json(doc)
    assert err.value.path == "$.degree"


# One malformed cover per fact the reader checks itself, with the path each
# SchemaError names.
READER_REJECTS = {
    "empty vertex id": (_rename_q1, "$.cover.vertices"),
    "duplicate edge id": (
        lambda c: c["edges"][1].update(id=c["edges"][0]["id"]),
        "$.cover.edges[1].id",
    ),
    "reversed edge id": (
        lambda c: c["edges"][0].update(id="~" + c["edges"][0]["id"]),
        "$.cover.edges[0].id",
    ),
    "endpoint not a vertex": (
        lambda c: c["edges"][0].update(to="zz"), "$.cover.edges[0]"
    ),
    "unknown onto": (
        lambda c: c["edges"][0].update(onto="zz"), "$.cover.edges[0].onto"
    ),
    "onto under the wrong vertices": (
        lambda c: c["edges"][0].update(onto="~e"), "$.cover.edges[0].onto"
    ),
    "foreign delta": (
        lambda c: c["edges"][0].update(delta="b"), "$.cover.edges[0].delta"
    ),
    "unknown target vertex": (
        lambda c: c["vertices"]["q1"].update(to="zz"), "$.cover.vertices.q1.to"
    ),
    "disconnected cover": (
        lambda c: c["vertices"].update(lone={"to": "u", "subgroup": []}),
        "$.cover",
    ),
    "unknown base": (lambda c: c.update(base="zz"), "$.cover.base"),
}


@pytest.mark.parametrize("fact", sorted(READER_REJECTS))
def test_reader_rejects_each_malformed_cover(fact):
    mutate, path = READER_REJECTS[fact]
    doc = _pslz_cert_doc()
    mutate(doc["cover"])
    with pytest.raises(SchemaError) as err:
        certificate_from_json(doc)
    assert err.value.path == path


def test_read_and_verify_validate_the_cover_once(monkeypatch):
    """The reader builds the cover with ``_Working``; verify's structure
    step is the one ``validate``."""
    doc = _pslz_cert_doc()
    counts = count_calls(monkeypatch, DecoratedMorphism, "validate")
    assert verify_certificate(certificate_from_json(doc)).ok
    assert counts["validate"] == 1


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_documents_read_back_well_built(name):
    cert = separate_element(*GOLDEN[name][0](), seed=0)
    for convention in ("right", "paper-left"):
        doc = json.loads(dumps(certificate_to_json(cert, convention=convention)))
        assert_well_built(certificate_from_json(doc).cover)
        doc = morphism_to_json(cert.cover, convention=convention)
        assert_well_built(morphism_from_json(doc))


def test_dumps_is_stable():
    assert dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
