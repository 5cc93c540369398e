"""Benchmark for gogsep: time to a separation certificate, to verify it, and to
answer membership queries, on seeded workloads that load different layers.

    python3 perfbench/run.py --workload rose2-random --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Each workload runs a ladder of doubling sizes ("rungs"), with a fixed pool
of seeded instances per rung.  One instance goes through the whole path:
fold H into an immersion, answer membership queries on it, separate g from
H, write the certificate as JSON, read it back, verify it and crosscheck it.
Every output is checked; a failed check counts in ``failed`` and makes the
exit code 1.  The instances run round-robin until ``--seconds`` have passed
(every instance at least once); timings are medians over instances of each
instance's median, at the top rung.

With ``--trace 1`` the run instead wraps gogsep's public functions (see
tracer.py) and reports per-layer calls, self times and sizes per top-rung
instance, plus the tracing overhead on ``separate_element``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report
with the ladder, digests of the outputs and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import HOOK_COUNTERS, Tracer  # noqa: E402
from workloads import Instance, make_instance  # noqa: E402

# name: (ladder of sizes, instances per rung).  Sizes are word lengths
# (rose2-random), prefix blocks (pslz-conjugates) and free-word lengths
# (f2z-mixed); pools are sized so that one round takes about two thirds of
# a 60 s run on a 2-core machine.
WORKLOADS = {
    "rose2-random": ((20, 40, 80), 16),
    "pslz-conjugates": ((4, 8, 16), 24),
    "f2z-mixed": ((1, 2, 4), 30),
}
SETUP_REPEATS = 5
TRACE_POOL = 8  # top-rung instances the traced run cycles through

END_TO_END = {
    "separate_s": "s",
    "separate_growth": "ratio",
    "verify_s": "s",
    "crosscheck_s": "s",
    "immersion_s": "s",
    "member_p90_s": "s",
    "degree": "count",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
# Reported with the others but kept off the result line.  fail_ratio is 0
# whenever the run is correct, and the line's correct/attempted/failed
# fields carry it.  member_s had the widest ten-seed spread on a shared
# 2-core machine (up to 0.37 of its median); member_p90_s gates the read side.
REPORTED = {"member_s": "s", "fail_ratio": "ratio"}

PER_LAYER = {
    "core.edges_at.calls": "count",
    "core.edges_at.self_s": "s",
    "core.reduce.calls": "count",
    "oracles.mul.calls": "count",
    "oracles.inv.calls": "count",
    "oracles.check.calls": "count",
    "oracles.same_coset.calls": "count",
    "oracles.same_coset.self_s": "s",
    "oracles.canonical_rep.calls": "count",
    "oracles.separate.self_s": "s",
    "oracles.subgroup_generate.calls": "count",
    "morphism.validate.calls": "count",
    "morphism.validate.self_s": "s",
    "morphism.check_immersion.calls": "count",
    "morphism.check_immersion.self_s": "s",
    "morphism.check_cover.calls": "count",
    "morphism.check_cover.self_s": "s",
    "morphism.lift_loop.calls": "count",
    "morphism.lift_loop.self_s": "s",
    "morphism.lift_loop.syllables": "count",
    "morphism.subgroup_generators.self_s": "s",
    "folding.wedge.self_s": "s",
    "folding.fold.self_s": "s",
    "folding.fold.pairs_in": "count",
    "folding.fold.pairs_out": "count",
    "folding.fold.separate_share": "ratio",
    "folding.trim_core.self_s": "s",
    "folding.trim_core.vertices_removed": "count",
    "folding.cover_index.calls": "count",
    "folding.cover_index.self_s": "s",
    "separator.attach_separating_path.self_s": "s",
    "separator.hair_len": "count",
    "separator.lift_case.closed": "count",
    "separator.lift_case.open_end": "count",
    "separator.lift_case.stuck": "count",
    "separator.verify_certificate.calls": "count",
    "separator.verify_certificate.self_s": "s",
    "enlargement.exclusion_sets.self_s": "s",
    "enlargement.excluded": "count",
    "enlargement.enlarge.self_s": "s",
    "enlargement.index_sum": "count",
    "completion.complete_to_cover.self_s": "s",
    "completion.added_vertices": "count",
    "completion.added_pairs": "count",
    "completion.restriction_check.calls": "count",
    "completion.restriction_check.self_s": "s",
    "verifier.coset_enumerate.self_s": "s",
    "verifier.ball_map_check.self_s": "s",
    "jsonio.certificate_to_json.self_s": "s",
    "jsonio.certificate_from_json.self_s": "s",
    "jsonio.cert_bytes": "bytes",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Case:
    inst: Instance
    target: object
    gens: list
    element: object
    queries: list  # [(Word, expected membership)]


def load_program():
    """Import gogsep afresh from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "gogsep" / "__init__.py").is_file():
        raise SystemExit(f"gogsep sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "gogsep" or n.startswith("gogsep.")]:
        del sys.modules[name]
    return importlib.import_module("gogsep")


def build_pool(gs, workload, seed):
    sizes, pool = WORKLOADS[workload]
    cases = {}
    for size in sizes:
        cases[size] = []
        for i in range(pool):
            inst = make_instance(workload, seed, size, i)
            target = gs.gog_from_json(inst.target)
            cases[size].append(Case(
                inst,
                target,
                [gs.word_from_json(target, d) for d in inst.generators],
                gs.word_from_json(target, inst.element),
                [(gs.word_from_json(target, d), e) for d, e in inst.queries],
            ))
    return cases


def setup(workload, seed):
    """Import plus instance generation, repeated; returns the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        gs = load_program()
        cases = build_pool(gs, workload, seed)
        times.append(time.perf_counter() - t0)
    return gs, cases, statistics.median(times)


# ---------------------------------------------------------------------------
# one instance


class Rung:
    """Samples and outputs of one ladder rung."""

    def __init__(self, size):
        self.size = size
        self.times = defaultdict(lambda: defaultdict(list))  # op -> instance -> [s]
        self.member_times = []
        self.degree = {}
        self.cert_sha = {}
        self.answers = {}

    def median(self, op):
        per_instance = [statistics.median(v) for v in self.times[op].values()]
        return statistics.median(per_instance) if per_instance else float("nan")

    def samples(self, op):
        return sum(len(v) for v in self.times[op].values())

    def summary(self):
        ordered = [self.cert_sha.get(i, "") for i in sorted(self.cert_sha)]
        answers = [self.answers.get(i, "") for i in sorted(self.answers)]
        return {
            "size": self.size,
            "instances": len(self.degree),
            "samples": self.samples("separate"),
            "member_queries": len(self.member_times),
            **{f"{op}_s": self.median(op)
               for op in ("separate", "verify", "crosscheck", "immersion")},
            "member_s": _median(self.member_times),
            "member_p90_s": _p90(self.member_times),
            "degree": _median(list(self.degree.values())),
            "cert_sha256": _sha("\n".join(ordered)),
            "member_digest": _sha("\n".join(answers)),
        }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, case, op, detail, count=1):
        self.failed += count
        if len(self.failures) < 10:
            self.failures.append(
                {"size": case.inst.size, "instance": case.inst.index, "op": op,
                 "detail": str(detail)[:300]})


def _timed(tally, case, name, fn, sink, tracer=None):
    """Run one operation and append its time to ``sink``; None if it raised."""
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        with tracer.span("bench." + name) if tracer else nullcontext():
            result = fn()
    except Exception as exc:  # any exception is a failed operation
        tally.fail(case, name, f"{type(exc).__name__}: {exc}")
        return None
    sink.append(time.perf_counter() - t0)
    return result


def run_case(gs, case, rung, seed, tally, tracer=None):
    """The whole path for one instance, every output checked."""
    i = case.inst.index

    def op(name, fn, sink=None):
        return _timed(tally, case, name, fn,
                      rung.times[name][i] if sink is None else sink, tracer)

    m = op("immersion", lambda: gs.trim_core(
        gs.fold(gs.wedge(case.target, case.inst.base, case.gens))))
    if m is None:
        tally.attempted += len(case.queries)
        tally.fail(case, "member", "no immersion to query", len(case.queries))
    else:
        bits = []
        for q, expected in case.queries:
            answer = op("member", lambda: gs.subgroup_member(m, m.domain.base, q),
                        rung.member_times)
            bits.append("x" if answer is None else "1" if answer else "0")
            if answer is not None and answer != expected:
                tally.fail(case, "member", f"answered {answer}, built to be {expected}")
        _first(rung.answers, i, "".join(bits), tally, case, "member answers")

    cert = op("separate", lambda: gs.separate_element(
        case.target, case.inst.base, case.gens, case.element, seed=seed))
    if cert is None:
        tally.attempted += 3
        tally.fail(case, "verify", "no certificate to verify, check or crosscheck", 3)
        return
    text = gs.jsonio.dumps(gs.certificate_to_json(cert))
    if tracer:
        tracer.counts["jsonio.cert_bytes"] += len(text.encode())
    _first(rung.cert_sha, i, _sha(text), tally, case, "certificate JSON")
    rung.degree.setdefault(i, cert.degree)

    def reread_and_verify():
        back = gs.certificate_from_json(json.loads(text))
        return back, gs.verify_certificate(back)

    checked = op("verify", reread_and_verify)
    if checked is None:
        tally.attempted += 2
        tally.fail(case, "check", "certificate did not read back", 2)
        return
    back, report = checked
    if not report.ok:
        tally.fail(case, "verify", report.transcript)

    def lifts_of_inputs():
        # The certificate must be about this H and g.
        def member(doc):
            return gs.subgroup_member(back.cover, back.base_vertex,
                                      gs.word_from_json(back.target, doc))
        return [member(d) for d in case.inst.generators], member(case.inst.element)

    lifts = op("check", lifts_of_inputs, [])
    if lifts is not None and not (all(lifts[0]) and not lifts[1]):
        tally.fail(case, "check", f"generators inside {lifts[0]}, element inside {lifts[1]}")
    report = op("crosscheck", lambda: gs.crosscheck(back))
    if report is not None and not report.ok:
        tally.fail(case, "crosscheck", report.transcript)


def _first(seen, i, value, tally, case, what):
    """Record a per-instance output; a later run of the instance must repeat it."""
    if seen.setdefault(i, value) != value:
        tally.fail(case, "determinism", f"{what} changed between runs of one instance")


# ---------------------------------------------------------------------------
# runs


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= 2 else _median(xs)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _round_robin(items, seconds):
    """Yield items in order, cycling until ``seconds`` pass; one full round at least."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(items) or time.perf_counter() < deadline:
        yield items[k % len(items)]
        k += 1


def measure(gs, cases, seed, seconds, tally):
    sizes = sorted(cases)
    rungs = {s: Rung(s) for s in sizes}
    order = [(s, c) for i in range(len(cases[sizes[0]])) for s in sizes
             for c in [cases[s][i]]]
    for size, case in _round_robin(order, seconds):
        run_case(gs, case, rungs[size], seed, tally)
    top, half = rungs[sizes[-1]], rungs[sizes[-2]]
    metrics = {
        "separate_s": top.median("separate"),
        "separate_growth": top.median("separate") / half.median("separate"),
        "verify_s": top.median("verify"),
        "crosscheck_s": top.median("crosscheck"),
        "immersion_s": top.median("immersion"),
        "member_s": _median(top.member_times),
        "member_p90_s": _p90(top.member_times),
        "degree": _median(list(top.degree.values())),
    }
    return metrics, [rungs[s].summary() for s in sizes]


def measure_traced(gs, cases, seed, seconds, tally):
    size = max(cases)
    untraced, traced = Rung(size), Rung(size)
    per_instance = defaultdict(list)
    tracer = Tracer()
    for case in _round_robin(cases[size][:TRACE_POOL], seconds):
        i = case.inst.index
        _timed(tally, case, "separate", lambda: gs.separate_element(
            case.target, case.inst.base, case.gens, case.element, seed=seed),
            untraced.times["separate"][i])
        tracer.install()
        try:
            tracer.begin_instance(i)
            run_case(gs, case, traced, seed, tally, tracer)
            per_instance[i].append(tracer.end_instance())
        finally:
            tracer.uninstall()

    def value(name, sample):
        if name == "folding.fold.separate_share":
            whole = sample.get("bench.separate.in.bench.separate", 0.0)
            return sample.get("folding.fold.in.bench.separate", 0.0) / whole if whole else 0.0
        return sample.get(name, 0)

    layers = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            layers[name] = traced.median("separate") / untraced.median("separate")
            continue
        per = [statistics.median(value(name, s) for s in samples)
               for samples in per_instance.values()]
        layers[name] = statistics.fmean(per)
    absent = [n for n in PER_LAYER
              if HOOK_COUNTERS.get(n, n.rsplit(".", 1)[0]) in tracer.absent]
    return layers, absent, traced.summary()


# ---------------------------------------------------------------------------
# report


def environment():
    src = ROOT / "src" / "gogsep"
    lines = sum(p.read_text().count("\n") for p in src.glob("*.py"))
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"src_lines": lines, "git_sha": _git_sha(),
            "python": platform.python_version(), "nproc": nproc}


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args):
    gs, cases, setup_s = setup(args.workload, args.seed)
    tally = Tally()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "redrawn": {s: sum(c.inst.redrawn for c in cs) for s, cs in cases.items()}}
    if args.trace:
        metrics, absent, summary = measure_traced(gs, cases, args.seed, args.seconds, tally)
        units, shown = PER_LAYER, {**PER_LAYER, "fail_ratio": "ratio"}
        report.update({"traced_rung": summary, "absent": absent})
    else:
        metrics, ladder = measure(gs, cases, args.seed, args.seconds, tally)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup_s
        units, shown = END_TO_END, {**END_TO_END, **REPORTED}
        report["ladder"] = ladder
    metrics["fail_ratio"] = tally.failed / max(tally.attempted, 1)

    def named(names):
        return {n: {"value": metrics[n], "unit": u} for n, u in names.items()}

    report.update({"failures": tally.failures, "metrics": named(shown)})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": named(units),
    }
    print(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        code = code or proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        try:
            report, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in report["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    for key, v in combined["metrics"].items():
        print(f"{key:56s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(combined))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
