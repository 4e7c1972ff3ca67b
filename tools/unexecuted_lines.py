"""List the statement lines of the sketchprune package that no test executes.

    python3 tools/unexecuted_lines.py [--cli] [PYTEST_ARGS ...]

Runs pytest in this process (default arguments: `-q -p no:cacheprovider
tests`) with a line-trace hook set before the package is imported, and
tracing only frames whose code lives under src/sketchprune. Then prints,
per module, the statement lines (found with `ast`; docstrings are not
statements here) that no traced frame reached. A compound statement counts
as executed when any line of its header runs, a `try` when its first
statement does, and a decorated definition when its decorator line does.

With --cli, before pytest runs, `sketchprune.cli.main` is called under the
same trace once for each run of tools/csv_digests.py (its RUNS), with
`--out` in a temporary directory and stdout and stderr discarded. What is
still listed then is run by no fixed command and by none of the tests given.

Only this interpreter is traced: a test that runs the package in a
subprocess (the CLI byte-identity tests, tools/csv_digests.py) adds no
lines, so what it alone covers is listed here as unexecuted. Tracing
roughly doubles the suite's running time; this is a tool, not a test.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sketchprune"


def _statement_spans(tree: ast.Module):
    """(line the report names, lines any of which executes it) for every
    statement in tree, docstrings excluded."""
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.add(body[0])
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        body = getattr(node, "body", None)
        if isinstance(node, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(node, ast.TryStar)
        ):
            lines = range(node.body[0].lineno, node.body[0].end_lineno + 1)
        elif isinstance(body, list) and body:
            # the header: from the statement (or its first decorator) up to
            # the line before its body
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            lines = range(start, max(node.lineno, body[0].lineno - 1) + 1)
        else:
            lines = range(node.lineno, node.end_lineno + 1)
        spans.append((node.lineno, set(lines)))
    return spans


def _run_digest_commands():
    """Call the CLI in process on each argv of csv_digests.RUNS, as
    csv_digests runs them, with --out in a temporary directory. Output and
    exit codes are discarded."""
    import csv_digests
    from sketchprune import cli

    with tempfile.TemporaryDirectory() as work:
        for k, argv in enumerate(csv_digests.RUNS):
            out = str(Path(work) / f"{k}.csv")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    cli.main([*argv.split(), "--out", out])
                except SystemExit:  # a flag the parser refuses
                    pass


def main(argv: list[str]) -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    # so that the tests' subprocesses import this package too (untraced)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    if any(name == "sketchprune" or name.startswith("sketchprune.")
           for name in sys.modules):
        raise SystemExit("sketchprune is already imported, so untraced")
    prefix = str(PACKAGE) + "/"
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hit.setdefault(filename, set())
        lines.add(frame.f_lineno)
        return local

    import pytest

    cli_runs = argv[:1] == ["--cli"]
    if cli_runs:
        argv = argv[1:]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        if cli_runs:
            _run_digest_commands()
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executed = hit.get(str(path), set())
        missed = sorted(
            line for line, span in _statement_spans(ast.parse(path.read_text()))
            if not span & executed
        )
        total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed))}")
    print(f"{total} statement lines not executed in process "
          f"(subprocess runs are not traced); pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
