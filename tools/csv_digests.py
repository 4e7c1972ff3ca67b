"""Print SHA-256 digests of the CSV, stdout and stderr of fixed CLI runs.

    python3 tools/csv_digests.py [--src DIR]

Each run is `python3 -m sketchprune.cli ARGV --out FILE` in a fresh
interpreter with the package imported from DIR (default: this checkout's
src/). One line per run: `csv stdout stderr exit-code argv`, each digest
being `-` when no file was written or nothing was printed. A refactor that
must keep every CSV byte-identical diffs this output at the commit before
and after it. The three histogram runs at d=65536 select by
randomized-synflow, uniform and topk-synflow. The last nine of the 21 runs
are refused, so a diff also shows a change in a refusal's message or exit
code. The last two refusals' messages name the machine's physical memory,
so their stderr digests differ between machines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the sketchprune package")
    src = parser.parse_args().src.resolve()
    if not (src / "sketchprune" / "cli.py").is_file():
        parser.error(f"no sketchprune package under {src}")
    env = {k: v for k, v in os.environ.items() if k != "SKETCHPRUNE_SEED"}
    env["PYTHONPATH"] = str(src)
    with tempfile.TemporaryDirectory() as work:
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
