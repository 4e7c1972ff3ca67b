"""Print the SHA-256 of the CSV that each of a fixed set of CLI runs writes.

    python3 tools/csv_digests.py [--src DIR]

Each run is `python3 -m sketchprune.cli ARGV --out FILE` in a fresh
interpreter with the package imported from DIR (default: this checkout's
src/). One line per run: `sha256 exit-code argv`, the digest being `-` when
no file was written. A refactor that must keep every CSV byte-identical
diffs this output at the commit before and after it.
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
    "histogram --d 5000 --seed 2 --method randomized-snip-sparse --bins 300",
    "ntk-demo --seed 5",
    "ntk-demo --seed 2 --width 16 --steps 30",
)


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
            code = subprocess.run(
                [sys.executable, "-m", "sketchprune.cli", *argv.split(),
                 "--out", str(out)],
                cwd=work, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ).returncode
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else "-"
            print(digest, code, argv, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
