"""One fresh interpreter: import the CLI, optionally trace it, run it once.

    python3 child.py probe REPORT SRC
    python3 child.py run REPORT SRC SPANS -- CLI_ARGS...

Both modes write a JSON report to REPORT. `ready_monotonic` is the
CLOCK_MONOTONIC time at which `sketchprune.cli` finished importing; the
parent subtracts the time it started this process to get the set-up time.
`probe` adds the machine description. `run` calls `sketchprune.cli.main`
with CLI_ARGS and reports its exit code, wall and CPU time and the process's
peak resident memory; with SPANS other than `-`, every layer is traced and
the spans are written to SPANS after the timed region.
"""

import sys
import time


def main() -> int:
    mode, report_path, src = sys.argv[1:4]
    sys.path.insert(0, src)
    import sketchprune.cli as cli

    ready = time.monotonic()

    import json
    import resource
    import traceback
    from pathlib import Path

    report = {"ready_monotonic": ready}
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        report["error"] = f"imported {cli.__file__}, not the copy under {src}"
        Path(report_path).write_text(json.dumps(report))
        return 3
    if mode == "probe":
        report["machine"] = machine_description()
        Path(report_path).write_text(json.dumps(report))
        return 0

    spans_path = sys.argv[4]
    argv = sys.argv[sys.argv.index("--") + 1:]
    recorder = None
    if spans_path != "-":
        import spans

        recorder = spans.Recorder()
        report["rebound"] = spans.install(recorder)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        code = None
        report["error"] = traceback.format_exc()
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    report.update(
        exit_code=code,
        wall_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        recorder.dump(spans_path)
    Path(report_path).write_text(json.dumps(report))
    return 0


def machine_description() -> dict:
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": cpu_model() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or the
    environment setting when no OpenBLAS library can be asked."""
    import ctypes
    import os

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


if __name__ == "__main__":
    sys.exit(main())
