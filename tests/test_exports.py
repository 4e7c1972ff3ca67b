import ast
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import sketchprune
from sketchprune import bounds, cli, core, experiments, ntk, scores, sketch

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
PACKAGE = Path(sketchprune.__file__).resolve().parent


def test_package_exports_are_the_union_of_module_exports():
    modules = (core, sketch, scores, bounds, ntk, experiments)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert len(sketchprune.__all__) == len(set(sketchprune.__all__))
    assert set(sketchprune.__all__) == set(names)
    for name in names:
        assert hasattr(sketchprune, name), name
    # a fresh interpreter, since other tests import the CLI into this one
    code = (
        f"import sys; sys.path[:0] = {sys.path!r}; import sketchprune; "
        "print('sketchprune.cli' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_readme_examples_run():
    # the library tour runs as written, and every command-line example
    # parses and passes the settings checks (none is run)
    text = README.read_text()
    (tour,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
    exec(tour, {})
    commands = [
        shlex.split(line)[1:]
        for block in re.findall(r"```sh\n(.*?)```", text, re.DOTALL)
        for line in block.splitlines()
        if line.startswith("sketchprune ")
    ]
    assert commands
    parser, subparsers = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        cli._resolve_settings(args, subparsers[args.command])


def test_readme_regime_table_rows():
    # the README's regime table is what tools/regime_table.py prints; its
    # d=4096 row is left to the tool, since that pipeline's CSV differs
    # between BLAS thread counts (tools/csv_digests.py)
    spec = importlib.util.spec_from_file_location(
        "regime_table", ROOT / "tools" / "regime_table.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = [line for line in README.read_text().splitlines()
            if re.match(r"\| \d+, \d+, \d+ \| \d+ \|", line)]
    assert len(rows) == len(tool.GRIDS)
    for line, (d, n, s, seeds) in zip(rows, tool.GRIDS):
        assert line.startswith(f"| {d}, {n}, {s} | {seeds} |")
        if d <= 1024:
            assert line == tool.row(d, n, s, seeds)


def test_modules_use_every_name_they_import():
    # __init__ imports only to re-export; every other module should read
    # each name it binds by an import
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, (path.name, sorted(imported - used))
