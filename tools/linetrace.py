"""List the lines of named source files that a pytest selection never runs.

    python tools/linetrace.py src/gogsep/verifier.py src/gogsep/morphism.py -- -q tests
    python tools/linetrace.py --raises src/gogsep/jsonio.py -- -q tests/test_jsonio.py

Stdlib only (``sys.settrace``), so no coverage package is needed.  Only
frames whose code lives in a named file get a line tracer; every other
frame costs one call event.  The executable lines are those the compiled
file's code objects map instructions to.  Start it from the repository
root with ``src`` importable and without importing the named modules
first: lines that run at import are counted only while tracing is on.

Without ``--raises`` it lists every unreached executable line and exits
with pytest's code.  With ``--raises`` it lists only the ``raise``
statements never reached and exits 1 if there is one (else with pytest's
code), so a CI step can insist that every error path runs in a test.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path


def executable_lines(path):
    code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line)  # 0: no source line
        stack.extend(k for k in c.co_consts if hasattr(k, "co_lines"))
    return lines


def raise_lines(path):
    tree = ast.parse(Path(path).read_text(encoding="utf-8"), path)
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}


def traced_run(paths, pytest_args):
    """Run pytest with a line tracer on the named files; returns
    (pytest exit code, {path: lines reached})."""
    import pytest

    hits = {path: set() for path in paths}
    resolved = {}  # co_filename -> real path

    def local_for(reached):
        def local(frame, event, arg):
            if event == "line":
                reached.add(frame.f_lineno)
            return local

        return local

    tracers = {path: local_for(reached) for path, reached in hits.items()}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        path = resolved.get(name)
        if path is None:
            path = resolved[name] = os.path.realpath(name)
        return tracers.get(path)

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else 0
    names = [a for a in argv[:split] if a != "--raises"]
    only_raises = len(names) < split
    if not names:
        print("usage: linetrace.py [--raises] FILE... -- PYTEST_ARGS...", file=sys.stderr)
        return 2
    paths = [os.path.realpath(name) for name in names]
    code, hits = traced_run(paths, argv[split + 1:])
    missed_any = False
    what = "raise statements" if only_raises else "executable lines"
    for name, path in zip(names, paths):
        wanted = raise_lines(path) if only_raises else executable_lines(path)
        missed = sorted(wanted - hits[path])
        missed_any = missed_any or bool(missed)
        print(f"{name}: {len(missed)} of {len(wanted)} {what} unreached")
        source = Path(path).read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"  {line}: {source[line - 1].strip()}")
    return 1 if only_raises and missed_any else code


if __name__ == "__main__":
    sys.exit(main())
