"""Self-test of the benchmark harness at tiny sizes; takes about half a minute.

    python3 perfbench/selftest.py

Runs each workload shape at a tiny size with tracing off and on, and checks
that the output checks pass, that every metric BENCHMARK.json names is
printed with its unit, and that traced and untraced CSVs match. Then feeds a
hand-made bad CSV to each workload's output check and requires each to count
as a failed invocation, and runs the harness in a directory without the
library's sources, where it must exit nonzero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# (workload, least values of traced counts). Each count is reached only
# through a module binding other than the function's home module, so a
# wrapper missing at any binding shows as a count below its least value.
TINY = (
    (run.Workload(
        "verify-tiny",
        ("verify", "--methods", "lemma2,ntk", "--trials", "200"),
        run.check_verify(frozenset({
            "lemma2/self-mask-s8", "lemma2/self-mask-s32", "ntk/jacobian-vs-fd",
            "ntk/masked-error-bound", "ntk/zero-step-enumeration",
        })),
    ), {"sketch.sample_sketch_mask.calls": 4200, "core.Mask.constructed": 4200,
        "bounds.mc_error_over_data.trials": 400, "ntk.theorem2_report.trials": 4200}),
    (run.Workload(
        "pipeline-tiny",
        ("pipeline", "--d", "64", "--n", "16", "--s", "4,8", "--trials", "2"),
        run.check_pipeline((4, 8), 2, run.PIPELINE_METHODS),
    ), {"experiments.run_prune_pipeline.calls": 20,
        "experiments.train_least_squares.steps": 2000}),
    (run.Workload(
        "histogram-tiny", ("histogram", "--d", "1024"), run.check_histogram(1024, 103)
    ), {"scores.select_randomized.kept": 103, "experiments.gen_normal_X.calls": 1}),
)


def _csv(header: list[str], rows: list[list]) -> bytes:
    return "\n".join(",".join(map(str, r)) for r in [header, *rows]).encode() + b"\n"


def _verify_csv(seed: int, passed=lambda run_id: "true", ids=None) -> bytes:
    ids = sorted(run.VERIFY_RUN_IDS) if ids is None else ids
    return _csv(["run_id", "seed", "passed"], [[i, seed, passed(i)] for i in ids])


def _pipeline_csv(seed: int, error=lambda k: 1.5, distance=lambda k, t: 0.25 + t,
                  drop: int | None = None) -> bytes:
    rows = []
    for t in range(2):
        for m in run.PIPELINE_METHODS:
            for s in (64, 410):
                k = len(rows)
                rows.append([f"pipeline/{seed + t}/{m}/{s}", seed + t, m, s,
                             error(k), distance(k, t)])
    if drop is not None:
        del rows[drop]
    return _csv(["run_id", "seed", "method", "s", "empirical_error", "distance"], rows)


def _histogram_csv(selected: list[int], every: list[int]) -> bytes:
    return _csv(["bin_left", "bin_right", "count_selected", "count_all"],
                [[b, b + 1, x, y] for b, (x, y) in enumerate(zip(selected, every))])


GOOD_HISTOGRAM = ([3000, 3554, 0], [30000, 30000, 5536])
# (workload, good CSV, bad CSVs) at seed 5.
CASES = (
    ("verify-mc", _verify_csv(5), [
        _verify_csv(5, passed=lambda i: "false" if i == "lemma2/self-mask-s8" else "true"),
        _verify_csv(5, ids=sorted(run.VERIFY_RUN_IDS)[1:]),
        _verify_csv(5, ids=sorted(run.VERIFY_RUN_IDS) + ["lemma1/mc-s4"]),
        b"",
    ]),
    ("pipeline-d4096", _pipeline_csv(5), [
        _pipeline_csv(5, drop=3),
        _pipeline_csv(5, error=lambda k: "nan" if k == 7 else 1.5),
        _pipeline_csv(5, distance=lambda k, t: 9.0 if k == 2 else 0.25 + t),
        _pipeline_csv(6),
        b"run_id,seed\nx,y\n",
    ]),
    ("histogram-d65536", _histogram_csv(*GOOD_HISTOGRAM), [
        _histogram_csv([3000, 3553, 0], GOOD_HISTOGRAM[1]),
        _histogram_csv(GOOD_HISTOGRAM[0], [30000, 30000, 5535]),
        _histogram_csv([3000, 3000, 554], [30000, 35536, 0]),
        _histogram_csv(["many", 0, 0], GOOD_HISTOGRAM[1]),
    ]),
)


def check_tiny_runs(declared: dict, failures: list[str]) -> None:
    for workload, least in TINY:
        for trace in (False, True):
            tag = f"{workload.name} trace={int(trace)}"
            result, lines = run.measure(workload, seed=3, seconds=0.1, trace=trace)
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: {[l for l in lines if 'FAILED' in l]}")
            want = declared["per_layer" if trace else "end_to_end"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{tag}: metrics {sorted(set(got) ^ set(want))} "
                                f"or their units differ from BENCHMARK.json")
            text = "\n".join(lines)
            for name, unit in want.items():
                if name not in text:
                    failures.append(f"{tag}: {name} ({unit}) not printed")
            if trace and sum(l.startswith("traced:") for l in lines) != 1:
                failures.append(f"{tag}: no trace summary printed")
            if trace:
                failures += [f"{tag}: {name} = {result['metrics'][name]['value']} < {v}"
                             for name, v in least.items()
                             if result["metrics"][name]["value"] < v]


def check_bad_csvs(failures: list[str]) -> None:
    for name, good, bad in CASES:
        workload = run.WORKLOADS[name]
        if run.judge(workload, good, 5):
            failures.append(f"{name}: good CSV rejected: {run.judge(workload, good, 5)}")
        invocations = []
        for data in [good, *bad]:
            inv = run.Invocation(False, setup_s=0.1, csv=data,
                                 report={"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0})
            inv.problems = run.judge(workload, data, 5)
            invocations.append(inv)
        result, _ = run.summarize(workload, {"seed": 5}, [0.1], invocations, [], False)
        if result["failed"] != len(bad) or result["correct"]:
            failures.append(f"{name}: {result['failed']} of {len(bad)} bad CSVs "
                            f"counted as failures")


def check_bare_directory(failures: list[str]) -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-mc", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {key: {m["name"]: m["unit"] for m in declared[key]}
             for key in ("end_to_end", "per_layer")}
    failures: list[str] = []
    if units["end_to_end"] != run.END_TO_END or units["per_layer"] != run.per_layer_units():
        failures.append("BENCHMARK.json metrics differ from run.py's")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py's")
    check_bad_csvs(failures)
    check_tiny_runs(units, failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
