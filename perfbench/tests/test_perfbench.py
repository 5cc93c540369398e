"""Smoke tests for the benchmark's generators, tracer and metric lists.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gogsep as gs  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

TINY = {"rose2-random": 6, "pslz-conjugates": 4, "f2z-mixed": 1}


def _parse(inst):
    target = gs.gog_from_json(inst.target)
    gens = [gs.word_from_json(target, d) for d in inst.generators]
    return target, gens, gs.word_from_json(target, inst.element)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_gives_same_words(workload):
    size = TINY[workload]
    a = workloads.make_instance(workload, 7, size, 0)
    assert a == workloads.make_instance(workload, 7, size, 0)
    assert a.generators != workloads.make_instance(workload, 8, size, 0).generators


def test_rungs_extend_the_same_words():
    small = workloads.make_instance("rose2-random", 7, 6, 2)
    big = workloads.make_instance("rose2-random", 7, 12, 2)
    for a, b in zip(small.generators, big.generators):
        assert b["word"][:len(a["word"])] == a["word"]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_element_outside_and_answers_as_built(workload):
    for index in range(3):
        inst = workloads.make_instance(workload, 5, TINY[workload], index)
        target, gens, g = _parse(inst)
        m = gs.trim_core(gs.fold(gs.wedge(target, inst.base, gens)))
        base = m.domain.base
        assert not gs.subgroup_member(m, base, g)
        for doc, expected in inst.queries:
            assert gs.subgroup_member(m, base, gs.word_from_json(target, doc)) == expected


def test_free_member_small_cases():
    ab = (1, 2)
    assert workloads.free_member([ab], (1, 2, 1, 2))
    assert workloads.free_member([ab], (-2, -1))
    assert not workloads.free_member([ab], (1,))
    assert workloads.free_member([(1, 1), (1, 2, -1)], (1, 2, 2, -1, 1, 1))
    assert not workloads.free_member([(1, 1), (2,)], (1, 2, 1))


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] with children a [1, 4] and b [3, 6]; c [2, 3] under a.
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 3.0, 6.0),
        Span(3, 1, 0, "c", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0})


def test_tracer_counts_restores_and_marks_absent(monkeypatch):
    gone = ("folding.gone", "folding", None, "gone", tracer_mod.SPAN, None)
    monkeypatch.setattr(tracer_mod, "TARGETS", tracer_mod.TARGETS + [gone])
    inst = workloads.make_instance("pslz-conjugates", 3, 4, 0)
    target, gens, g = _parse(inst)
    fold, edges_at = gs.folding.fold, gs.Graph.edges_at
    t = Tracer()
    t.install()
    try:
        assert gs.folding.fold is not fold and gs.separator.fold is not fold
        t.begin_instance(0)
        with t.span("bench.separate"):
            gs.separate_element(target, inst.base, gens, g, seed=0)
        sample = t.end_instance()
    finally:
        t.uninstall()
    assert t.absent == ["folding.gone"]
    assert gs.folding.fold is fold and gs.separator.fold is fold
    assert gs.Graph.edges_at is edges_at
    assert sample["folding.fold.calls"] == 1
    assert sample["separator.separate_element.calls"] == 1
    assert sample["core.edges_at.calls"] > 0 and sample["oracles.mul.calls"] > 0
    whole = sample["bench.separate.in.bench.separate"]
    assert 0 < sample["folding.fold.in.bench.separate"] < whole


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
