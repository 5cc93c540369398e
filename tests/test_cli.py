import json

import pytest

from gogsep import (
    DecoratedMorphism,
    FreeGroup,
    Graph,
    GraphOfGroups,
    IntGroup,
    Word,
    certificate_to_json,
    separate_element,
)
from gogsep.cli import main
from gogsep.completion import DEGREE_CAP
from gogsep.errors import ElementOutOfGroup, ForeignElement
from gogsep.oracles import MAX_ORDER_CEILING, MAX_RANK

from conftest import INSTANCES, W
from test_jsonio import _rename_q1

PSLZ = str(INSTANCES / "pslz.json")
GENS = str(INSTANCES / "pslz_gens.json")
ELEMENT = str(INSTANCES / "pslz_element.json")


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def test_fold_member_rank_index(tmp_path, capsys):
    folded = tmp_path / "folded.json"
    assert main(["fold", PSLZ, "--gens", GENS, "-o", str(folded)]) == 0
    assert "kurosh rank 1" in capsys.readouterr().err

    a_loop = write_json(tmp_path / "a.json", {"start": "u", "word": ["a"]})
    assert main(["member", str(folded), "--word", a_loop]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": False}

    ab_loop = write_json(
        tmp_path / "ab.json", {"start": "u", "word": ["a", "e", "b", "~e", "1"]}
    )
    assert main(["member", str(folded), "--word", ab_loop]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True}

    assert main(["rank", str(folded)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "kurosh_rank": 1,
        "reduced_kurosh_rank": 0,
    }

    assert main(["index", str(folded)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["vertex_indices"] == {"v0": 2, "v1_1": 3}
    assert "cover_degree" not in out


def test_complete_then_index(tmp_path, capsys):
    folded = tmp_path / "folded.json"
    main(["fold", PSLZ, "--gens", GENS, "-o", str(folded)])
    cover = tmp_path / "cover.json"
    assert main(["complete", str(folded), "-o", str(cover)]) == 0
    assert "degree 3" in capsys.readouterr().err
    assert main(["index", str(cover)]) == 0
    assert json.loads(capsys.readouterr().out)["cover_degree"] == 3


def test_index_of_an_immersion_with_infinite_indices(tmp_path, capsys):
    """Folds over Z usually keep infinite-index vertex subgroups; index
    reports them as null and gives no cover degree."""
    z2 = str(INSTANCES / "z2.json")
    gens = write_json(
        tmp_path / "gens.json",
        {"generators": [{"start": "x", "word": ["2", "e", "3", "~e", "0"]}]},
    )
    folded = tmp_path / "folded.json"
    assert main(["fold", z2, "--gens", gens, "-o", str(folded)]) == 0
    capsys.readouterr()
    assert main(["index", str(folded)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"vertex_indices": {"v0": None, "v1_1": None}}


def test_separate_verify_crosscheck(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert (
        main(
            [
                "separate", PSLZ,
                "--gens", GENS,
                "--element", ELEMENT,
                "--seed", "0",
                "-o", str(cert),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out and "FAIL" not in out
    assert main(["crosscheck", str(cert), "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "coset-enumeration" in out and "tree-ball" in out


def test_separate_seed_determinism(tmp_path):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    for path in (one, two):
        main(
            [
                "separate", PSLZ,
                "--gens", GENS,
                "--element", ELEMENT,
                "--seed", "7",
                "-o", str(path),
            ]
        )
    assert one.read_bytes() == two.read_bytes()


def test_verify_fails_on_tampered_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(
        [
            "separate", PSLZ,
            "--gens", GENS,
            "--element", ELEMENT,
            "--seed", "0",
            "-o", str(cert),
        ]
    )
    doc = json.loads(cert.read_text())
    doc["degree"] = 5
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "FAIL degree" in out and "verdict: fail" in out


def test_empty_cover_vertex_id_is_a_schema_error(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(
        [
            "separate", PSLZ,
            "--gens", GENS,
            "--element", ELEMENT,
            "--seed", "0",
            "-o", str(cert),
        ]
    )
    doc = json.loads(cert.read_text())
    _rename_q1(doc["cover"])  # a vertex over u, not the base
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 2
    assert "schema error: $.cover.vertices: bad vertex id ''" in capsys.readouterr().err


def test_non_string_cyclic_letter_is_a_schema_error(tmp_path, capsys):
    doc = json.loads((INSTANCES / "pslz.json").read_text())
    doc["vertices"]["u"]["letter"] = 5  # would name the C2 elements 1 and 5
    target = write_json(tmp_path / "target.json", doc)
    gens = write_json(tmp_path / "gens.json", {"generators": []})
    element = write_json(
        tmp_path / "g.json", {"start": "u", "word": ["1", "e", "b", "~e", "1"]}
    )
    code = main(
        ["separate", target, "--gens", gens, "--element", element, "--seed", "0"]
    )
    assert code == 2
    assert "schema error: $.vertices.u.letter" in capsys.readouterr().err


def test_member_rejects_already_member_element(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    element = write_json(
        tmp_path / "abab.json",
        {"start": "u", "word": ["a", "e", "b", "~e", "a", "e", "b", "~e", "1"]},
    )
    code = main(
        ["separate", PSLZ, "--gens", GENS, "--element", element, "-o", str(cert)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not cert.exists()


def test_schema_error_exit_code(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"vertices": {}})
    assert main(["rank", bad]) == 2
    assert "schema error" in capsys.readouterr().err
    assert main(["rank", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_max_order_reaches_cyclic_groups_up_to_its_ceiling(tmp_path, capsys):
    target = write_json(
        tmp_path / "c100.json",
        {"vertices": {"u": {"kind": "cyclic", "order": 100}}, "edges": [], "base": "u"},
    )
    gens = write_json(tmp_path / "gens.json", [{"start": "u", "word": ["a2"]}])
    assert main(["--max-order", "100", "fold", target, "--gens", gens]) == 0
    capsys.readouterr()
    too_high = str(MAX_ORDER_CEILING + 1)
    assert main(["--max-order", too_high, "fold", target, "--gens", gens]) == 2
    assert "past its ceiling" in capsys.readouterr().err


def test_separate_huge_power_in_z_gives_a_small_cover(tmp_path, capsys):
    z2 = str(INSTANCES / "z2.json")
    gens = write_json(tmp_path / "gens.json", [])
    element = write_json(
        tmp_path / "g.json", {"start": "x", "word": ["1000000000"]}
    )
    cert = tmp_path / "cert.json"
    code = main(
        ["separate", z2, "--base", "x", "--gens", gens, "--element", element,
         "-o", str(cert)]
    )
    assert code == 0
    assert "degree 3" in capsys.readouterr().err
    assert json.loads(cert.read_text())["degree"] == 3


def test_separate_past_the_degree_cap_fails_cleanly(tmp_path, capsys):
    """H = <x^(10^12)> in Z*Z asks for a cover of degree about 10^12."""
    z2 = str(INSTANCES / "z2.json")
    gens = write_json(
        tmp_path / "gens.json",
        [{"start": "x", "word": ["1000000000000", "e", "0", "~e", "0"]}],
    )
    element = write_json(
        tmp_path / "g.json", {"start": "x", "word": ["1", "e", "1", "~e", "0"]}
    )
    code = main(["separate", z2, "--gens", gens, "--element", element])
    assert code == 1
    assert f"would pass {DEGREE_CAP}" in capsys.readouterr().err


def test_verify_reports_a_huge_index_without_listing_its_cosets(tmp_path, capsys):
    """A cover vertex over Z with subgroup 10^12 Z and one lift of e."""
    z2 = str(INSTANCES / "z2.json")
    gens = write_json(tmp_path / "gens.json", [{"start": "x", "word": ["2"]}])
    element = write_json(tmp_path / "g.json", {"start": "x", "word": ["1"]})
    cert = tmp_path / "cert.json"
    main(["separate", z2, "--gens", gens, "--element", element, "-o", str(cert)])
    doc = json.loads(cert.read_text())
    cover = doc["cover"]
    base = cover["base"]
    cover["vertices"][base]["subgroup"] = ["1000000000000"]
    kept = [e for e in cover["edges"] if e["from"] == base][0]
    cover["edges"] = [kept]
    cover["vertices"] = {v: cover["vertices"][v] for v in (base, kept["to"])}
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "FAIL cover" in out and "'need': 1000000000000" in out
    assert "verdict: fail" in out


def test_huge_integer_in_a_word_is_a_schema_error(tmp_path, capsys):
    z2 = str(INSTANCES / "z2.json")
    gens = write_json(tmp_path / "gens.json", [])
    element = write_json(tmp_path / "g.json", {"start": "x", "word": ["9" * 5000]})
    code = main(["separate", z2, "--gens", gens, "--element", element])
    assert code == 2
    assert "5000 digits" in capsys.readouterr().err


def test_folded_integer_too_long_to_print_fails_cleanly(tmp_path, capsys):
    """Folding the generator n e 0 ~e n merges its letters into 2n, one digit
    past the limit the input integers are held to."""
    z2 = str(INSTANCES / "z2.json")
    n = "9" * 4300
    gens = write_json(tmp_path / "gens.json", [{"start": "x", "word": [n, "e", "0", "~e", n]}])
    assert main(["fold", z2, "--gens", gens]) == 1
    assert "integer of 4301 digits is too long to print" in capsys.readouterr().err


def test_huge_json_number_is_a_schema_error(tmp_path, capsys):
    z2 = str(INSTANCES / "z2.json")
    gens = tmp_path / "gens.json"
    gens.write_text('[{"start": "x", "word": [' + "9" * 5000 + "]}]\n")
    element = write_json(tmp_path / "g.json", {"start": "x", "word": ["1"]})
    code = main(["separate", z2, "--gens", str(gens), "--element", element])
    assert code == 2
    assert "schema error" in capsys.readouterr().err


def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["verify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error") and err.count("\n") == 1


def test_a_directory_as_input_is_a_schema_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error") and err.count("\n") == 1


def test_a_directory_as_output_fails_cleanly(tmp_path, capsys):
    code = main(["separate", PSLZ, "--gens", GENS, "--element", ELEMENT, "-o", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path}: ") and err.count("\n") == 1


def test_free_rank_past_its_ceiling_is_a_schema_error(tmp_path, capsys):
    gens = write_json(tmp_path / "gens.json", [{"start": "x", "word": ["x1"]}])
    element = write_json(tmp_path / "g.json", {"start": "x", "word": ["x2"]})
    for rank, code in ((MAX_RANK, 0), (MAX_RANK + 1, 2)):
        target = write_json(tmp_path / "f.json", {
            "vertices": {"x": {"kind": "free", "rank": rank}}, "edges": [], "base": "x"})
        assert main(["separate", target, "--gens", gens, "--element", element]) == code
    assert "$.vertices.x.rank" in capsys.readouterr().err


def test_crosscheck_radius_past_the_ball_cap_fails_cleanly(tmp_path, capsys):
    rose2 = str(INSTANCES / "rose2.json")
    gens = write_json(tmp_path / "gens.json", [{"start": "o", "word": ["1", "p", "1"]}])
    element = write_json(tmp_path / "g.json", {"start": "o", "word": ["1", "q", "1"]})
    cert = tmp_path / "cert.json"
    main(["separate", rose2, "--gens", gens, "--element", element, "-o", str(cert)])
    assert json.loads(cert.read_text())["degree"] == 2
    capsys.readouterr()
    assert main(["crosscheck", str(cert), "--radius", "30"]) == 1
    assert "would pass" in capsys.readouterr().err


def test_crosscheck_past_the_coset_cap_exits_1(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["separate", PSLZ, "--gens", GENS, "--element", ELEMENT, "-o", str(cert)])
    assert json.loads(cert.read_text())["degree"] == 4
    capsys.readouterr()
    assert main(["crosscheck", str(cert), "--coset-cap", "2"]) == 1
    assert "FAIL coset-enumeration: coset enumeration did not close within 2" in (
        capsys.readouterr().out
    )


def test_crosscheck_rejects_a_negative_radius_or_a_cap_below_one(tmp_path, capsys):
    """Radius -3 used to embed the one-node ball and pass."""
    cert = tmp_path / "cert.json"
    main(["separate", PSLZ, "--gens", GENS, "--element", ELEMENT, "-o", str(cert)])
    capsys.readouterr()
    for flags in (["--radius", "-3"], ["--coset-cap", "0"]):
        assert main(["crosscheck", str(cert), *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --radius") and err.count("\n") == 1
    assert main(["crosscheck", str(cert), "--radius", "0", "--coset-cap", "1"]) == 1


def test_certificate_seed_must_be_an_integer_or_null(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["separate", PSLZ, "--gens", GENS, "--element", ELEMENT, "-o", str(cert)])
    doc = json.loads(cert.read_text())
    assert doc["seed"] is None
    capsys.readouterr()
    for seed in (7, None):
        assert main(["verify", write_json(tmp_path / "ok.json", {**doc, "seed": seed})]) == 0
    for seed in ({"deep": [1, 2]}, "7", True, 1.5):
        bad = write_json(tmp_path / "bad.json", {**doc, "seed": seed})
        capsys.readouterr()
        assert main(["verify", bad]) == 2
        assert "$.seed: expected int" in capsys.readouterr().err


def test_non_ascii_digit_in_a_free_word_is_a_schema_error(tmp_path, capsys):
    """'x²' passes str.isdigit but not int(); it must not reach int()."""
    target = write_json(tmp_path / "f2.json", {
        "vertices": {"x": {"kind": "free", "rank": 2}}, "edges": [], "base": "x"})
    gens = write_json(tmp_path / "gens.json", [{"start": "x", "word": ["x1"]}])
    element = write_json(tmp_path / "g.json", {"start": "x", "word": ["x²"]})
    assert main(["separate", target, "--gens", gens, "--element", element]) == 2
    assert "bad syllable 'x²'" in capsys.readouterr().err


def test_unreduced_free_value_is_stopped_where_it_enters(tmp_path, capsys):
    """coset_key and the arithmetic trust x1.x1-; every way in rejects it."""
    graph = Graph()
    graph.add_vertex("x")
    graph.add_vertex("y")
    graph.add_edge("e", "x", "y")
    t = GraphOfGroups(graph, {"x": FreeGroup(2), "y": IntGroup()}, base="x")
    unreduced = (1, -1)
    with pytest.raises(ElementOutOfGroup):
        Word(t, "x", (unreduced,), ()).validate()
    with pytest.raises(ForeignElement):
        DecoratedMorphism(
            t, t, {"x": "x", "y": "y"}, {"e": "e", "~e": "~e"},
            {v: t.group_at(v).full_subgroup() for v in ("x", "y")},
            {"e": unreduced, "~e": 0},
        )
    cert = separate_element(t, "x", [W(t, "x", "x1.x1")], W(t, "x", "x1"), seed=0)
    doc = certificate_to_json(cert)
    cover = doc["cover"]
    edge = next(e for e in cover["edges"] if cover["vertices"][e["from"]]["to"] == "x")
    edge["delta"] = "x1.x1-"
    assert main(["verify", write_json(tmp_path / "cert.json", doc)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_enlarge_roundtrip(tmp_path, capsys):
    z2doc = write_json(
        tmp_path / "z2.json",
        {
            "vertices": {"x": {"kind": "integer"}, "y": {"kind": "integer"}},
            "edges": [{"id": "e", "from": "x", "to": "y"}],
            "base": "x",
        },
    )
    gens = write_json(
        tmp_path / "gens.json",
        [
            {"start": "x", "word": ["0", "e", "1", "~e", "0"]},
            {"start": "x", "word": ["1", "e", "1", "~e", "-1"]},
        ],
    )
    folded = tmp_path / "folded.json"
    main(["fold", z2doc, "--gens", gens, "-o", str(folded)])
    enlarged = tmp_path / "enlarged.json"
    assert main(["enlarge", str(folded), "-o", str(enlarged)]) == 0
    capsys.readouterr()
    assert main(["index", str(enlarged)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(isinstance(v, int) for v in out["vertex_indices"].values())


def test_paper_left_convention_round_trip(tmp_path, capsys):
    folded = tmp_path / "folded.json"
    main(["fold", PSLZ, "--gens", GENS, "--convention", "paper-left",
          "-o", str(folded)])
    doc = json.loads(folded.read_text())
    assert doc["convention"] == "paper-left"
    capsys.readouterr()
    # the reader undoes the inversion: membership answers stay the same
    ab_loop = write_json(
        tmp_path / "ab.json", {"start": "u", "word": ["a", "e", "b", "~e", "1"]}
    )
    assert main(["member", str(folded), "--word", ab_loop]) == 0
    assert json.loads(capsys.readouterr().out) == {"member": True}


def test_export_dot(tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert main(["export-dot", PSLZ, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph target {")
    assert '"u" -- "w"' in text
    folded = tmp_path / "folded.json"
    main(["fold", PSLZ, "--gens", GENS, "-o", str(folded)])
    capsys.readouterr()
    assert main(["export-dot", str(folded)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph domain {")
    assert "v0 -> u" in dot and "d=a" in dot
    cert = tmp_path / "cert.json"
    main(
        ["separate", PSLZ, "--gens", GENS, "--element", ELEMENT,
         "--seed", "0", "-o", str(cert)]
    )
    capsys.readouterr()
    assert main(["export-dot", str(cert)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph domain {") and "v0 -> u" in dot
