"""Print SHA-256 digests of the CSV, stdout and stderr of fixed CLI runs.

    python3 tools/csv_digests.py [--src DIR]

Each run is `python3 -m sketchprune.cli ARGV --out FILE` in a fresh
interpreter with the package imported from DIR (default: this checkout's
src/). One line per run: `csv stdout stderr exit-code argv`, each digest
being `-` when no file was written or nothing was printed. A refactor that
must keep every CSV byte-identical diffs this output at the commit before
and after it. The four histogram runs at d=65536 select by
randomized-synflow, uniform, topk-synflow and randomized-snip-sparse, and
the ntk-demo run at --width 4000 masks 20000 parameters. The last nine of
the 23 runs are refused, so a diff also shows a change in a refusal's
message or exit code. The last two refusals' messages name the machine's
physical memory, so their stderr digests differ between machines.

Every interpreter runs with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1, whatever the caller's environment says: the
`pipeline --d 4096` CSV differs between one BLAS thread and two, so digests
compare only at one thread count. A first `#` line names numpy's version,
the BLAS library and its thread count, as `perfbench/child.py probe` reads
them in one more interpreter under the same environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUNS = (
    "verify --seed 5",
    "verify --seed 11",
    "pipeline --d 4096 --n 256 --s 64,410 --trials 2 --seed 5",
    "pipeline --seed 3",
    "pipeline --d 8 --n 40 --seed 0",
    "histogram --d 65536 --seed 5",
    "histogram --d 65536 --seed 5 --method uniform",
    "histogram --d 65536 --seed 5 --method topk-synflow",
    "histogram --d 5000 --seed 2 --method randomized-snip-sparse --bins 300",
    "ntk-demo --seed 5",
    "ntk-demo --seed 2 --width 16 --steps 30",
    "verify --methods lemma1,lemma3,ntk --trials 40 --seed 2",
    "histogram --d 65536 --seed 5 --method randomized-snip-sparse",
    "ntk-demo --width 4000 --steps 10 --seed 5",
    "pipeline --trials 0 --seed 1",
    "ntk-demo --s 0 --seed 1",
    "pipeline --s 65 --seed 1",
    "pipeline --d 0 --seed 1",
    "histogram --density 0 --seed 1",
    "pipeline --density nan --seed 1",
    "ntk-demo --width 1 --seed 0",
    "ntk-demo --trials 100000000000000000000000 --seed 1",
    "verify --methods lemma1 --trials 100000000000000000000000 --seed 1",
)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest() if data else "-"


def _blas_setup(src: Path, env: dict, work: Path) -> str:
    """The `#` line naming the numpy and BLAS that the runs load."""
    report = work / "probe.json"
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "probe",
         str(report), str(src)],
        cwd=work, env=env, check=True,
    )
    machine = json.loads(report.read_text())["machine"]
    return (f"# numpy {machine['numpy']}, BLAS {machine['blas']} "
            f"{machine['blas_version']}, {machine['blas_threads']} threads")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=ROOT / "src",
                        help="directory holding the sketchprune package")
    src = parser.parse_args().src.resolve()
    if not (src / "sketchprune" / "cli.py").is_file():
        parser.error(f"no sketchprune package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        print(_blas_setup(src, env, Path(work)), flush=True)
        for k, argv in enumerate(RUNS):
            out = Path(work) / f"{k}.csv"
            run = subprocess.run(
                [sys.executable, "-m", "sketchprune.cli", *argv.split(),
                 "--out", str(out)],
                cwd=work, env=env, capture_output=True,
            )
            csv = _digest(out.read_bytes()) if out.exists() else "-"
            print(csv, _digest(run.stdout), _digest(run.stderr), run.returncode,
                  argv, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
