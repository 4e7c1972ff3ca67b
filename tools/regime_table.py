"""Print the README's table of where the init-time sketch beats uniform.

    python3 tools/regime_table.py

For each grid (d, n, s) below, over seeds 0 to seeds-1, `row` returns one
markdown row: the median ||w* - w0|| / ||w0||; on how many seeds the
`sketch-p0` pipeline cell reads below the `sketch-uniform` cell; on how
many the closed-form rule `bounds._init_beats_uniform` predicts that the
init-time distribution p = |w0| / ||w0||_1 beats uniform, A < d ||w*||^2
with A = ||w0||_1 sum_k w*_k^2 / |w0_k|; and on how many the two agree.
The cells are those `pipeline --d D --n N --s S --methods
sketch-p0,sketch-uniform --trials SEEDS --seed 0` writes, and `sketch-p0`
tunes p on the data as well, so the rule, which reads only w0 and w*, need
not agree on every seed.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# (d, n, s, seeds); the first is the pipeline's default grid
GRIDS = (
    (64, 32, 8, 100),
    (64, 4, 8, 100),
    (256, 8, 16, 60),
    (1024, 16, 16, 40),
    (4096, 256, 64, 8),
)


def row(d: int, n: int, s: int, seeds: int) -> str:
    """The markdown row of grid (d, n, s) over seeds 0 to seeds-1."""
    from sketchprune import run_prune_pipeline, seed_state
    from sketchprune.bounds import _init_beats_uniform

    moved, below, predicted = [], [], []
    for seed in range(seeds):
        state = seed_state(d, n, seed)
        w0, w_star = state.w0, state.w_star
        moved.append(np.linalg.norm(w_star - w0) / np.linalg.norm(w0))
        cells = [run_prune_pipeline(state, method, s).masked_error
                 for method in ("sketch-p0", "sketch-uniform")]
        below.append(cells[0] < cells[1])
        predicted.append(_init_beats_uniform(w0, w_star))
    agree = sum(b == p for b, p in zip(below, predicted))
    return (f"| {d}, {n}, {s} | {seeds} | {np.median(moved):.2f} | "
            f"{sum(below)} | {sum(predicted)} | {agree} |")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print("| d, n, s | seeds | median ‖w*−w0‖/‖w0‖ | `sketch-p0` below "
          "`sketch-uniform` | rule predicts | agree |")
    print("|---|---|---|---|---|---|")
    for grid in GRIDS:
        print(row(*grid), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
