"""Spans and counters around gogsep's public functions, from outside the package.

``Tracer.install`` replaces each traced function or method by a wrapper:
module functions in every ``gogsep.*`` namespace that binds them, methods
on the class that defines them.  ``Tracer.uninstall`` puts the originals
back, so untraced runs execute the unmodified program.  A name the
program no longer has is listed in ``Tracer.absent`` and reads as 0.

Stage functions and the three hot primitives (``Graph.edges_at``,
``SubgroupHandle.same_coset``, ``lift_loop``) get spans; cheap primitives
only get call counters.  Spans of one instance stay in memory until
``end_instance``, which turns them into per-name calls and self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

SPAN, COUNT = "span", "count"


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    root: int
    name: str
    start: float
    end: float = 0.0
    instance: object = None


def self_times(spans) -> dict:
    """{span id: duration minus the part of it that child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _fold(counts, args, kwargs, result):
    counts["folding.fold.pairs_in"] += len(_arg(args, kwargs, 0, "m").domain.graph.edge_pairs())
    counts["folding.fold.pairs_out"] += len(result.domain.graph.edge_pairs())


def _trim(counts, args, kwargs, result):
    before = len(_arg(args, kwargs, 0, "m").domain.graph.vertices)
    counts["folding.trim_core.vertices_removed"] += before - len(result.domain.graph.vertices)


def _lift(counts, args, kwargs, result):
    counts["morphism.lift_loop.syllables"] += _arg(args, kwargs, 1, "g").n


_LIFT_CASE = {"loop": "closed", "open": "open_end", "hair": "stuck"}


def _attach(counts, args, kwargs, result):
    morphism, status = result
    counts[f"separator.lift_case.{_LIFT_CASE[status[0]]}"] += 1
    before = len(_arg(args, kwargs, 0, "m").domain.graph.vertices)
    counts["separator.hair_len"] += len(morphism.domain.graph.vertices) - before


def _exclusions(counts, args, kwargs, result):
    counts["enlargement.excluded"] += sum(len(xs) for xs in result.values())


def _enlarge(counts, args, kwargs, result):
    counts["enlargement.index_sum"] += sum(
        h.index() or 0 for h in result.vgroup_image.values()
    )


def _complete(counts, args, kwargs, result):
    small = _arg(args, kwargs, 0, "m").domain.graph
    big = result.domain.graph
    counts["completion.added_vertices"] += len(big.vertices) - len(small.vertices)
    counts["completion.added_pairs"] += len(big.edge_pairs()) - len(small.edge_pairs())


# (metric prefix, module, owner, attribute, kind, hook).  Owner is a class
# name, "*" for every class of the module that defines the attribute, or
# None for a module-level function.
TARGETS = [
    ("core.edges_at", "core", "Graph", "edges_at", SPAN, None),
    ("core.reduce", "core", "Word", "reduce", COUNT, None),
    ("oracles.mul", "oracles", "*", "mul", COUNT, None),
    ("oracles.inv", "oracles", "*", "inv", COUNT, None),
    ("oracles.check", "oracles", "*", "check", COUNT, None),
    ("oracles.same_coset", "oracles", "*", "same_coset", SPAN, None),
    ("oracles.canonical_rep", "oracles", "*", "canonical_rep", COUNT, None),
    ("oracles.separate", "oracles", "*", "separate", SPAN, None),
    ("oracles.subgroup_generate", "oracles", None, "subgroup_generate", COUNT, None),
    ("morphism.validate", "morphism", "DecoratedMorphism", "validate", SPAN, None),
    ("morphism.check_immersion", "morphism", None, "check_immersion", SPAN, None),
    ("morphism.check_cover", "morphism", None, "check_cover", SPAN, None),
    ("morphism.lift_loop", "morphism", None, "lift_loop", SPAN, _lift),
    ("morphism.subgroup_generators", "morphism", None, "subgroup_generators", SPAN, None),
    ("folding.wedge", "folding", None, "wedge", SPAN, None),
    ("folding.fold", "folding", None, "fold", SPAN, _fold),
    ("folding.trim_core", "folding", None, "trim_core", SPAN, _trim),
    ("folding.cover_index", "folding", None, "cover_index", SPAN, None),
    ("separator.separate_element", "separator", None, "separate_element", SPAN, None),
    ("separator.attach_separating_path", "separator", None, "attach_separating_path", SPAN, _attach),
    ("separator.verify_certificate", "separator", None, "verify_certificate", SPAN, None),
    ("enlargement.exclusion_sets", "enlargement", None, "exclusion_sets", SPAN, _exclusions),
    ("enlargement.enlarge", "enlargement", None, "enlarge", SPAN, _enlarge),
    ("completion.complete_to_cover", "completion", None, "complete_to_cover", SPAN, _complete),
    ("completion.restriction_check", "completion", None, "restriction_check", SPAN, None),
    ("verifier.crosscheck", "verifier", None, "crosscheck", SPAN, None),
    ("verifier.coset_enumerate", "verifier", None, "coset_enumerate", SPAN, None),
    ("verifier.ball_map_check", "verifier", None, "ball_map_check", SPAN, None),
    ("jsonio.certificate_to_json", "jsonio", None, "certificate_to_json", SPAN, None),
    ("jsonio.certificate_from_json", "jsonio", None, "certificate_from_json", SPAN, None),
]

# Counters filled by hooks, and which target's absence makes them absent.
HOOK_COUNTERS = {
    "folding.fold.pairs_in": "folding.fold",
    "folding.fold.pairs_out": "folding.fold",
    "folding.trim_core.vertices_removed": "folding.trim_core",
    "morphism.lift_loop.syllables": "morphism.lift_loop",
    "separator.hair_len": "separator.attach_separating_path",
    "separator.lift_case.closed": "separator.attach_separating_path",
    "separator.lift_case.open_end": "separator.attach_separating_path",
    "separator.lift_case.stuck": "separator.attach_separating_path",
    "enlargement.excluded": "enlargement.exclusion_sets",
    "enlargement.index_sum": "enlargement.enlarge",
    "completion.added_vertices": "completion.complete_to_cover",
    "completion.added_pairs": "completion.complete_to_cover",
}


def _gogsep_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gogsep" or n.startswith("gogsep."))]


class Tracer:
    def __init__(self):
        self.absent = []
        self._patches = []  # (namespace, attribute, original)
        self._ids = itertools.count()
        self._stack = []
        self.instance = None
        self.spans = []
        self.counts = defaultdict(int)

    # -- patching -----------------------------------------------------------

    def install(self):
        self.absent = []
        for prefix, module, owner, attr, kind, hook in TARGETS:
            try:
                mod = importlib.import_module(f"gogsep.{module}")
            except ImportError:
                self.absent.append(prefix)
                continue
            if owner is None:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn):
                    self.absent.append(prefix)
                    continue
                wrapper = self._wrap(prefix, kind, hook, fn)
                for ns in _gogsep_modules():
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, wrapper)
                continue
            classes = [
                c for c in vars(mod).values()
                if inspect.isclass(c) and c.__module__ == mod.__name__
                and (owner == "*" or c.__name__ == owner)
                and inspect.isfunction(c.__dict__.get(attr))
            ]
            if not classes:
                self.absent.append(prefix)
            for c in classes:
                self._patch(c, attr, self._wrap(prefix, kind, hook, c.__dict__[attr]))

    def uninstall(self):
        for ns, name, original in reversed(self._patches):
            setattr(ns, name, original)
        self._patches = []

    def _patch(self, ns, name, wrapper):
        self._patches.append((ns, name, vars(ns)[name]))
        setattr(ns, name, wrapper)

    def _wrap(self, prefix, kind, hook, fn):
        counts = self.counts
        if kind == COUNT:
            key = prefix + ".calls"

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            s = self._open(prefix)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return spanned

    # -- spans --------------------------------------------------------------

    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = next(self._ids)
        s = Span(sid, parent.id if parent else None, parent.root if parent else sid,
                 name, time.perf_counter(), instance=self.instance)
        self._stack.append(s)
        return s

    def _close(self, s: Span):
        s.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(s)

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def begin_instance(self, instance):
        self.instance = instance
        self.spans = []
        self.counts.clear()

    def end_instance(self) -> dict:
        """Per-name calls, self seconds and inclusive seconds of this instance."""
        out = dict(self.counts)
        own = self_times(self.spans)
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            out[s.name + ".calls"] = out.get(s.name + ".calls", 0) + 1
            out[s.name + ".self_s"] = out.get(s.name + ".self_s", 0.0) + own[s.id]
            key = f"{s.name}.in.{by_id[s.root].name}"
            out[key] = out.get(key, 0.0) + (s.end - s.start)
        self.spans = []
        self.counts.clear()
        return out
