import ast
import dataclasses
import random
from pathlib import Path

import pytest

import gogsep.verifier
from gogsep import (
    ball_map_check,
    brute_member,
    crosscheck,
    enumerate_ball_elements,
    fold,
    separate_element,
    subgroup_member,
    tree_ball,
    wedge,
)
from gogsep.errors import DidNotClose, GogsepError, UnboundedEnumeration

from conftest import (
    W,
    coset_enumerate,
    gen_corpus,
    identity_morphism,
    random_loop,
    remake,
    subgroup_generators,
)


# -- ball enumeration --------------------------------------------------------


def test_ball_sizes_are_frozen(pslz, dinfty):
    assert len(enumerate_ball_elements(pslz, "u", 6)) == 58
    assert len(enumerate_ball_elements(dinfty, "u", 6)) == 14


def test_ball_elements_are_distinct_reduced_loops(pslz):
    ball = enumerate_ball_elements(pslz, "u", 4)
    assert len({w.key() for w in ball}) == len(ball)
    for w in ball:
        assert w.is_loop() and w.start == "u" and w == w.reduce()


def test_ball_rejects_infinite_vertex_groups(z2):
    with pytest.raises(UnboundedEnumeration):
        enumerate_ball_elements(z2, "x", 2)


def test_ball_enumeration_stops_at_the_tree_ball_cap(pslz):
    # radius 27 fits under BALL_CAP; radius 28 would pass it, so nothing
    # is enumerated (an unbounded walk makes 131,066 loops there)
    assert len(tree_ball(pslz, "u", 27)) <= gogsep.verifier.BALL_CAP
    with pytest.raises(UnboundedEnumeration):
        enumerate_ball_elements(pslz, "u", 28)


# -- brute-force membership --------------------------------------------------


def test_brute_member_settles_small_cases(pslz):
    ab = W(pslz, "u", "a", "e", "b", "~e", "1")
    gens = [ab]
    assert brute_member(pslz, "u", gens, (ab * ab).reduce())
    assert brute_member(pslz, "u", gens, ab.inverse())
    assert brute_member(pslz, "u", gens, pslz.identity_word("u"))
    assert not brute_member(pslz, "u", gens, W(pslz, "u", "a"))


def test_brute_member_matches_immersion_on_ball(dinfty):
    gens = [W(dinfty, "u", "1", "e", "b", "~e", "1")]
    m = fold(wedge(dinfty, "u", gens))
    for w in enumerate_ball_elements(dinfty, "u", 4):
        assert brute_member(dinfty, "u", gens, w) == subgroup_member(m, "v0", w)


# -- coset enumeration -------------------------------------------------------


def test_coset_enumerate_free_schreier(rose2):
    loops = [
        W(rose2, "o", "1", "p", "1", "p", "1"),
        W(rose2, "o", "1", "q", "1"),
        W(rose2, "o", "1", "p", "1", "q", "1", "~p", "1"),
    ]
    assert coset_enumerate(rose2, "o", loops) == 2


def test_coset_enumerate_dinfty(dinfty):
    loops = [W(dinfty, "u", "a", "e", "b", "~e", "1")]
    assert coset_enumerate(dinfty, "u", loops) == 2


def test_coset_enumerate_whole_group(pslz):
    loops = [
        W(pslz, "u", "a"),
        W(pslz, "u", "1", "e", "b", "~e", "1"),
    ]
    assert coset_enumerate(pslz, "u", loops) == 1


def test_coset_enumerate_did_not_close(rose2):
    with pytest.raises(DidNotClose):
        coset_enumerate(rose2, "o", [], cap=50)


def test_coset_enumerate_rejects_non_loops(pslz):
    with pytest.raises(GogsepError):
        coset_enumerate(pslz, "u", [W(pslz, "u", "1", "e", "1")])


# -- tree balls and ball maps ------------------------------------------------


def test_tree_ball_sizes(pslz, dinfty):
    assert len(tree_ball(pslz, "u", 0)) == 1
    assert len(tree_ball(pslz, "u", 1)) == 3   # two cosets of C2 step to w
    assert len(tree_ball(dinfty, "u", 3)) == 7  # binary: 1 + 2 + 2 + 2


def test_tree_ball_rejects_a_negative_radius(pslz):
    """A negative radius would give the one-node ball and a vacuous pass."""
    with pytest.raises(GogsepError, match="radius -3 is negative"):
        tree_ball(pslz, "u", -3)
    with pytest.raises(GogsepError):
        ball_map_check(identity_morphism(pslz), -1, expect_cover=True)


def test_ball_map_identity_cover(pslz):
    m = identity_morphism(pslz)
    assert ball_map_check(m, 3, expect_cover=True).ok


def test_ball_map_immersion_injective_not_onto(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    assert ball_map_check(m, 3).ok
    report = ball_map_check(m, 3, expect_cover=True)
    assert not report.ok
    assert report.violations[0]["kind"] == "count"


def test_ball_map_flags_broken_decorations(pslz):
    m = fold(wedge(pslz, "u", [W(pslz, "u", "a", "e", "b", "~e", "1")]))
    bad = remake(m, delta={**m.delta, "c1_1": m.delta["~c1_2"]})
    report = ball_map_check(bad, 2)
    assert not report.ok


# -- Schreier loops ----------------------------------------------------------


def test_subgroup_generators_reproduce_wedge_generators(pslz):
    gens = [
        W(pslz, "u", "a", "e", "b", "~e", "1"),
        W(pslz, "u", "a"),
    ]
    m = wedge(pslz, "u", gens)
    back = subgroup_generators(m, "v0")
    assert {g.key() for g in back} == {g.reduce().key() for g in gens}


# -- referee independence ----------------------------------------------------


def test_verifier_imports_only_data_types_from_the_builder():
    tree = ast.parse(Path(gogsep.verifier.__file__).read_text())
    imported = {}  # last part of a module name -> names taken, "*" for all
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = imported.setdefault(node.module.split(".")[-1], set())
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                imported.setdefault(a.name.split(".")[-1], set()).add("*")
    for module in ("folding", "completion", "enlargement"):
        assert module not in imported
    assert imported["morphism"] == {"CheckReport", "DecoratedMorphism"}


def test_loop_fed_references_live_in_the_tests():
    """The Schreier loop builder and the loop-fed enumeration are test
    references for ``_schreier_index``, not package API."""
    for module in (gogsep, gogsep.verifier):
        for name in ("coset_enumerate", "subgroup_generators"):
            assert not hasattr(module, name), (module.__name__, name)


def test_src_builds_morphisms_only_through_the_working_copy():
    """No src module calls the validating ``DecoratedMorphism(...)``
    constructor, so every morphism src makes comes from ``_Working.freeze()``."""
    callers = []
    for path in sorted(Path(gogsep.verifier.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "DecoratedMorphism":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


# -- crosscheck --------------------------------------------------------------


def test_crosscheck_finite_target(pslz):
    cert = separate_element(
        pslz, "u",
        [W(pslz, "u", "a", "e", "b", "~e", "1")],
        W(pslz, "u", "a"),
        seed=0,
    )
    report = crosscheck(cert, radius=2)
    assert report.ok
    checks = [t["check"] for t in report.transcript]
    assert checks[-2:] == ["coset-enumeration", "tree-ball"]
    enum = report.transcript[-2]
    assert f"declared degree {cert.degree}" in enum["detail"]


def _pslz_cert(pslz):
    """A certificate of degree 4, past what a cap of 2 cosets allows."""
    return separate_element(
        pslz, "u",
        [W(pslz, "u", "a", "e", "b", "~e", "1")],
        W(pslz, "u", "1", "e", "b", "~e", "1"),
        seed=0,
    )


def test_crosscheck_flags_a_declared_degree_off_by_one(pslz):
    cert = _pslz_cert(pslz)
    d = cert.degree
    report = crosscheck(dataclasses.replace(cert, degree=d + 1))
    assert not report.ok
    enum = next(t for t in report.transcript if t["check"] == "coset-enumeration")
    assert enum == {
        "check": "coset-enumeration",
        "ok": False,
        "detail": f"enumerated index {d}, declared degree {d + 1}",
    }


def test_crosscheck_reports_a_coset_cap_as_a_failed_check(pslz):
    cert = _pslz_cert(pslz)
    assert cert.degree == 4
    report = crosscheck(cert, cap=2)
    assert not report.ok
    assert report.transcript[-2] == {
        "check": "coset-enumeration",
        "ok": False,
        "detail": str(DidNotClose(2)),
    }


def test_crosscheck_skips_on_infinite_targets(z2):
    gens = [
        W(z2, "x", "0", "e", "1", "~e", "0"),
        W(z2, "x", "1", "e", "1", "~e", "-1"),
    ]
    cert = separate_element(z2, "x", gens, W(z2, "x", "1"), seed=0)
    report = crosscheck(cert)
    assert report.ok
    assert "skipped" in report.transcript[-1]["detail"]


# -- random loops ------------------------------------------------------------


def test_random_loop_is_a_valid_reduced_loop(c2c3c2, rng):
    for _ in range(50):
        w = random_loop(c2c3c2, "u", rng)
        w.validate()
        assert w.is_loop() and w.start == "u" and w == w.reduce()


def test_random_loop_deterministic_under_seed(pslz):
    a = [random_loop(pslz, "u", random.Random(5)).key() for _ in range(5)]
    b = [random_loop(pslz, "u", random.Random(5)).key() for _ in range(5)]
    assert a == b


def test_gen_corpus_yields_nontrivial_loops(z2, rng):
    for w in gen_corpus(z2, "x", rng, 20):
        assert not w.is_identity_loop()
        assert w.is_loop() and w.start == "x"
