"""Benchmark of the sketchprune command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory, and nothing needs building. Each invocation of the CLI runs
in a fresh interpreter (`child.py`), one at a time, and calls the public entry
point `sketchprune.cli.main` with the workload's arguments and `--seed N`.
Invocations repeat until S seconds have passed, and every CSV they write is
checked. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give the
machine description, every metric with its unit and sample count, the failure
fraction and each failed check. The exit code is 0 whenever a result is
printed, failed checks included, and 2 when the benchmark cannot run, for
example in a directory without the library's sources.

With `--trace 0` the metrics are the end-to-end ones, medians over the
invocations. With `--trace 1` untraced and traced invocations alternate; the
traced ones wrap the public functions of every layer (see `spans.py`), and the
metrics are the per-layer ones, medians over the traced invocations, plus the
tracing overhead. A traced CSV must equal the untraced CSV byte for byte.

The workloads stress different layers; BENCHMARK.json records why each one
was chosen.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5
# Every child must end by this many seconds after the run starts, so that a
# hung invocation still lets the run finish within its time limit.
RUN_LIMIT_S = 170

# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the CSV is right.
# They test structure and invariants, not values, so they survive changes to
# the order in which random draws are consumed.


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_verify(run_ids: frozenset[str]) -> Callable[[str, int], list[str]]:
    def check(text: str, seed: int) -> list[str]:
        rows = _rows(text)
        problems = [f"check {r.get('run_id')} not passed" for r in rows
                    if r.get("passed") != "true"]
        got = {r.get("run_id") for r in rows}
        if got != run_ids or len(rows) != len(run_ids):
            problems.append(
                f"run_id set differs: missing {sorted(run_ids - got)}, "
                f"extra {sorted(str(x) for x in got - run_ids)}, {len(rows)} rows"
            )
        return problems

    return check


def check_pipeline(
    s_values: tuple[int, ...], trials: int, methods: tuple[str, ...]
) -> Callable[[str, int], list[str]]:
    def check(text: str, seed: int) -> list[str]:
        rows = _rows(text)
        problems = []
        cells = [(r["seed"], r["method"], r["s"]) for r in rows]
        expected = {(str(seed + k), m, str(s))
                    for k in range(trials) for m in methods for s in s_values}
        if len(cells) != len(expected) or set(cells) != expected:
            problems.append(
                f"{len(cells)} rows; expected one per (seed, method, s), "
                f"{len(expected)} in all"
            )
        distances: dict[str, set[str]] = {}
        for r in rows:
            if not math.isfinite(float(r["empirical_error"])):
                problems.append(f"{r['run_id']}: error {r['empirical_error']}")
            distances.setdefault(r["seed"], set()).add(r["distance"])
        for s, values in distances.items():
            if len(values) != 1 or not math.isfinite(float(next(iter(values)))):
                problems.append(f"seed {s}: distance differs across methods {values}")
        return problems

    return check


def check_histogram(d: int, s: int) -> Callable[[str, int], list[str]]:
    def check(text: str, seed: int) -> list[str]:
        rows = _rows(text)
        selected = [int(r["count_selected"]) for r in rows]
        every = [int(r["count_all"]) for r in rows]
        problems = []
        if sum(every) != d:
            problems.append(f"count_all sums to {sum(every)}, not d={d}")
        if sum(selected) != s:
            problems.append(f"count_selected sums to {sum(selected)}, not s={s}")
        problems += [f"bin {b}: selected {x} > all {y}"
                     for b, (x, y) in enumerate(zip(selected, every)) if x > y]
        return problems

    return check


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str, int], list[str]]


# Every suite but lemma1 and lemma3. Their "lemma1/enumeration" and
# "lemma3/exact-vs-enumeration" checks fail on some seeds (lemma1 on about one
# in five), because lemma1_exact_error and lemma3_bound cancel where the true
# error is at or near 0 (ROADMAP item 5, a defect of the library, not of this
# benchmark). Add both suites back, with their run ids, once that is fixed.
VERIFY_SUITES = ("lemma2", "theorem1", "lemma4", "synflow-equiv", "snip-equiv", "ntk")
VERIFY_RUN_IDS = frozenset({
    "lemma2/self-mask-s8", "lemma2/self-mask-s32",
    "theorem1/ratio-0.1", "theorem1/ratio-0.5", "theorem1/ratio-1.0",
    "lemma4/uniform-bound", "lemma4/p0-beats-uniform",
    "synflow-equiv/row-norm-probe", "snip-equiv/sparse-data",
    "ntk/jacobian-vs-fd", "ntk/masked-error-bound", "ntk/zero-step-enumeration",
})
PIPELINE_METHODS = (
    "sketch-p0", "sketch-uniform", "topk-synflow",
    "randomized-synflow", "randomized-snip-sparse",
)

# verify-mc: every formula check but those of lemma1 and lemma3, at default
#   trial counts; the Monte Carlo loops of `bounds` over data, and the NTK
#   suite's thousands of tiny sketch draws.
# pipeline-d4096: few wide calls; training and data generation dominate, and
#   selection runs at a small budget (64 of 4096) beside 10% (410).
# histogram-d65536: one randomized selection of 6554 of 65536 weights; the
#   O(s*d) loop of `scores.select_randomized` dominates, and memory peaks.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-mc", ("verify", "--methods", ",".join(VERIFY_SUITES)),
                 check_verify(VERIFY_RUN_IDS)),
        Workload(
            "pipeline-d4096",
            ("pipeline", "--d", "4096", "--n", "256", "--s", "64,410", "--trials", "2"),
            check_pipeline((64, 410), 2, PIPELINE_METHODS),
        ),
        Workload(
            "histogram-d65536",
            ("histogram", "--d", "65536"),
            check_histogram(65536, math.ceil(0.1 * 65536)),
        ),
    )
}

# ---------------------------------------------------------------------------
# metrics

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# (function span, statistics). "constructed" is the call count of a
# constructor; a name other than calls/busy_s/self_s is the span's counter.
LAYER_STATS = (
    ("sketch.sample_sketch_mask", ("calls", "busy_s", "draws")),
    ("core.Mask", ("constructed", "busy_s")),
    ("bounds.mc_error_over_masks", ("calls", "busy_s", "self_s", "trials")),
    ("bounds.mc_error_over_data", ("calls", "busy_s", "self_s", "trials")),
    ("bounds.exact_expected_error", ("calls", "busy_s")),
    ("sketch.optimal_probabilities", ("calls", "busy_s")),
    ("bounds.enumerate_exact_error", ("busy_s",)),
    ("ntk.theorem2_report", ("busy_s", "self_s", "trials")),
    ("ntk.analytic_jacobian", ("calls", "busy_s")),
    ("ntk.finite_difference_jacobian", ("busy_s",)),
    ("ntk.train_linearized_gd", ("busy_s",)),
    ("scores.select_randomized", ("calls", "busy_s", "kept")),
    ("scores.select_topk", ("busy_s",)),
    ("scores.synflow_scores", ("busy_s",)),
    ("scores.snip_scores_l1", ("busy_s",)),
    ("experiments.run_prune_pipeline", ("calls", "busy_s", "self_s")),
    ("experiments.make_dataset", ("calls", "busy_s")),
    ("experiments.gen_normal_X", ("calls", "busy_s")),
    ("experiments.train_least_squares", ("calls", "busy_s", "steps")),
    ("experiments.max_hessian_eigenvalue", ("busy_s",)),
    ("core.RngStream.uniform", ("draws",)),
    ("core.RngStream.normal", ("draws",)),
    ("cli.main", ("busy_s",)),
)
# (metric, unit, function span, numerator, base, scale): numerator per base,
# both named as in LAYER_STATS; 0 when the base is 0.
RATIOS = (
    ("sketch.sample_sketch_mask.us_per_call", "us",
     "sketch.sample_sketch_mask", "busy_s", "calls", 1e6),
    ("bounds.mc_error_over_masks.s_per_100k_trials", "s",
     "bounds.mc_error_over_masks", "busy_s", "trials", 1e5),
    ("bounds.mc_error_over_data.s_per_100k_trials", "s",
     "bounds.mc_error_over_data", "busy_s", "trials", 1e5),
    ("ntk.theorem2_report.s_per_100k_trials", "s",
     "ntk.theorem2_report", "busy_s", "trials", 1e5),
    ("experiments.run_prune_pipeline.ms_per_call", "ms",
     "experiments.run_prune_pipeline", "busy_s", "calls", 1e3),
)


def _stat_key(stat: str) -> str:
    if stat == "constructed":
        return "calls"
    return stat if stat in ("calls", "busy_s", "self_s") else "count"


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn, stats in LAYER_STATS:
        for stat in stats:
            units[f"{fn}.{stat}"] = "s" if stat.endswith("_s") else "count"
    for layer in spans.LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for name, unit, *_ in RATIOS:
        units[name] = unit
    units["trace.overhead_s"] = "s"
    return units


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values of one traced invocation (overhead aside)."""
    functions = summary["functions"]
    values: dict[str, float] = {}
    for fn, stats in LAYER_STATS:
        for stat in stats:
            values[f"{fn}.{stat}"] = functions[fn][_stat_key(stat)]
    for layer, stats in summary["layers"].items():
        values[f"{layer}.busy_s"] = stats["busy_s"]
        values[f"{layer}.self_s"] = stats["self_s"]
    for name, _unit, fn, num, base, scale in RATIOS:
        b = functions[fn][_stat_key(base)]
        values[name] = functions[fn][_stat_key(num)] / b * scale if b else 0.0
    return values


# ---------------------------------------------------------------------------
# invocations


class HarnessError(RuntimeError):
    """The benchmark cannot run here, so it prints no result."""


@dataclass
class Invocation:
    traced: bool
    setup_s: float | None = None
    report: dict = field(default_factory=dict)
    csv: bytes | None = None
    spans: Path | None = None
    problems: list[str] = field(default_factory=list)


def _child(args: list[str], report: Path, limit: float) -> tuple[float, dict, str]:
    """Runs child.py, killing it at monotonic time `limit`; returns its
    set-up time, its report and its stderr."""
    cmd = [sys.executable, str(HERE / "child.py"), *args[:1], str(report),
           str(SRC), *args[1:]]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, limit - started))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child killed after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not report.is_file():
        detail = report.read_text() if report.is_file() else proc.stderr[-2000:]
        raise HarnessError(f"child exited with {proc.returncode}: {detail}")
    payload = json.loads(report.read_text())
    return payload["ready_monotonic"] - started, payload, proc.stderr


def probe(workdir: Path, k: int, limit: float) -> tuple[float, dict]:
    setup_s, payload, _ = _child(["probe"], workdir / f"probe{k}.json", limit)
    return setup_s, payload["machine"]


def invoke(workload: Workload, seed: int, workdir: Path, tag: str,
           traced: bool, limit: float) -> Invocation:
    inv = Invocation(traced)
    out = workdir / f"{tag}.csv"
    inv.spans = workdir / f"{tag}.spans.json" if traced else None
    argv = [*workload.argv, "--seed", str(seed), "--out", str(out)]
    try:
        inv.setup_s, inv.report, stderr = _child(
            ["run", str(inv.spans or "-"), "--", *argv], workdir / f"{tag}.json", limit
        )
    except HarnessError as exc:
        inv.problems.append(f"invocation failed: {exc}")
        return inv
    if inv.report.get("error"):
        inv.problems.append(f"exception: {inv.report['error']}")
    if inv.report.get("exit_code") != 0:
        inv.problems.append(
            f"exit code {inv.report.get('exit_code')}: {stderr.strip()[-500:]}"
        )
    if not out.is_file():
        inv.problems.append("no CSV written")
        return inv
    inv.csv = out.read_bytes()
    inv.problems += judge(workload, inv.csv, seed)
    return inv


def judge(workload: Workload, data: bytes, seed: int) -> list[str]:
    """Problems with one CSV; an unreadable CSV is one problem."""
    try:
        return workload.check(data.decode(), seed)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable CSV: {exc!r}"]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------
# one run


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Runs the workload for `seconds`; returns the result object and the
    human-readable lines that precede it."""
    if not (SRC / "sketchprune" / "cli.py").is_file():
        raise HarnessError(f"no sketchprune sources under {SRC}")
    limit = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        probes = [probe(workdir, k, limit) for k in range(SETUP_PROBES)]
        machine = {**probes[0][1], **source_identity(),
                   "workload": workload.name, "seed": seed}
        plain: list[Invocation] = []
        traced: list[Invocation] = []
        deadline = time.monotonic() + seconds
        while True:
            plain.append(invoke(workload, seed, workdir, f"u{len(plain)}", False, limit))
            if trace:
                inv = invoke(workload, seed, workdir, f"t{len(traced)}", True, limit)
                if inv.csv is not None and inv.csv != plain[-1].csv:
                    inv.problems.append("traced CSV differs from the untraced CSV")
                traced.append(inv)
            if time.monotonic() >= deadline:
                break
        for inv in plain[1:]:
            if inv.csv is not None and inv.csv != plain[0].csv:
                inv.problems.append("CSV differs from the first invocation's")
        return summarize(workload, machine, [p[0] for p in probes], plain,
                         traced, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _timed(invs: list[Invocation], key: str) -> list[float]:
    return [inv.report[key] for inv in invs if key in inv.report]


def summarize(workload: Workload, machine: dict, probe_setup: list[float],
              plain: list[Invocation], traced: list[Invocation],
              trace: bool) -> tuple[dict, list[str]]:
    invocations = plain + traced
    attempted = len(invocations)
    failed = sum(1 for inv in invocations if inv.problems)
    lines = [f"machine {json.dumps(machine, sort_keys=True)}"]
    for k, inv in enumerate(invocations):
        for problem in inv.problems:
            lines.append(f"FAILED invocation {k} ({'traced' if inv.traced else 'untraced'}): {problem}")
    setups = probe_setup + [inv.setup_s for inv in plain if inv.setup_s is not None]
    end_to_end = {
        "wall_s": _timed(plain, "wall_s"),
        "cpu_s": _timed(plain, "cpu_s"),
        "peak_rss_mb": _timed(plain, "peak_rss_mb"),
        "setup_s": setups,
    }
    if not end_to_end["wall_s"]:
        raise HarnessError("no invocation completed; nothing to report")
    e2e = {name: statistics.median(v) for name, v in end_to_end.items()}
    lines.append(f"workload {workload.name}  seed {machine['seed']}  trace {int(trace)}  "
                 f"argv: {' '.join(workload.argv)}")
    for name, unit in END_TO_END.items():
        v = end_to_end[name]
        lines.append(f"  {name:<12} {e2e[name]:.6g} {unit}  median of {len(v)}: "
                     + " ".join(f"{x:.4g}" for x in sorted(v)))
    lines.append(f"  fail_frac    {failed / attempted:.6g}  ({failed} of {attempted} invocations)")

    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        per_invocation = []
        for inv in traced:
            if inv.spans is not None and inv.spans.is_file():
                per_invocation.append((inv, spans.summarize(str(inv.spans))))
        if not per_invocation:
            raise HarnessError("no traced invocation completed; nothing to report")
        values = [layer_metrics(summary) for _inv, summary in per_invocation]
        traced_wall = statistics.median(inv.report["wall_s"] for inv, _ in per_invocation)
        units = per_layer_units()
        layer = {name: (statistics.median_low if unit == "count" else statistics.median)(
                     [v[name] for v in values])
                 for name, unit in units.items() if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in units.items()}
        lines += _trace_lines(per_invocation, layer, units, traced_wall, e2e["wall_s"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def _trace_lines(per_invocation, layer, units, traced_wall, plain_wall) -> list[str]:
    _inv, summary = per_invocation[-1]
    lines = [
        f"traced: {len(per_invocation)} invocations, {summary['spans']} spans each, "
        f"{per_invocation[-1][0].report.get('rebound')} module bindings wrapped",
        f"  traced wall_s {traced_wall:.6g} s - untraced wall_s {plain_wall:.6g} s "
        f"= overhead {layer['trace.overhead_s']:.6g} s",
        "  time by layer, as a share of cli.main busy time:",
    ]
    total = layer["cli.main.busy_s"] or 1.0
    for name in spans.LAYERS:
        busy, own = layer[f"{name}.busy_s"], layer[f"{name}.self_s"]
        lines.append(f"    {name:<12} busy {busy:9.4f} s {100 * busy / total:5.1f}%"
                     f"   self {own:9.4f} s {100 * own / total:5.1f}%")
    largest = max((n for n in spans.LAYERS if n != "cli"), key=lambda n: layer[f"{n}.busy_s"])
    lines.append(f"  largest layer by busy time, cli aside: {largest}")
    top = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["busy_s"])[:8]
    lines.append("  largest functions by busy time (last traced invocation):")
    for name, stats in top:
        lines.append(f"    {name:<36} busy {stats['busy_s']:.4f} s  self "
                     f"{stats['self_s']:.4f} s  calls {stats['calls']}")
    for name, _unit, fn, _num, base, _scale in RATIOS:
        lines.append(f"  {name} = {layer[name]:.6g} {units[name]}  "
                     f"(base: {layer[f'{fn}.{base}']:.6g} {base})")
    lines.append("  per-layer metrics (median over traced invocations):")
    for name, unit in units.items():
        lines.append(f"    {name} {layer[name]:.6g} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= RUN_LIMIT_S - 50:
        parser.error(f"--seed must be >= 0 and --seconds in (0, {RUN_LIMIT_S - 50}]")
    try:
        result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                                bool(args.trace))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
