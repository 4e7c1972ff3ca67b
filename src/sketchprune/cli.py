"""Command-line front end.

Four subcommands, each writing its CSV a row at a time (temp file, then rename):

* verify     -- runs the numerical verification suites, one row per check
* pipeline   -- prune/train/measure cells, one row per (seed, method, s)
* histogram  -- selected-vs-all weight-magnitude histogram for one method
* ntk-demo   -- kernel-regime bound demo on a tiny dense network

Every invocation is deterministic for a fixed flag set and config file: all
randomness derives from --seed, else the config file's seed, else 0. Flags
are spelled in full; a --config file's keys are the subcommand's other
flags. List flags (--methods, --s) take comma-separated items, none of them
twice.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .bounds import (
    BoundReport, enumerate_exact_error, exact_expected_error, lemma1_exact_error,
    lemma2_bound, lemma3_bound, mc_error_over_data, mc_error_over_masks,
)
from .core import (
    DataMatrix, DivergenceError, RngStream, _check_at_least,
    _check_budget, _check_density, _frozen, row_norms,
)
from .experiments import (
    _CHI_COLUMNS, MASK_METHODS, METHODS, gen_chi_input, gen_normal_X, gen_sparse_X,
    run_prune_pipeline, seed_state,
)
from .ntk import (
    _CHECKPOINTS, TinyMLP, _param_count, analytic_jacobian, finite_difference_jacobian,
    take_snapshot, theorem2_report, train_linearized_gd,
)
from .scores import scores_to_probabilities, snip_scores_l1, synflow_scores
from .sketch import optimal_probabilities, uniform_probabilities

__all__ = ["main", "ResultRow", "RESULT_HEADER", "HISTOGRAM_HEADER", "VERIFY_SUITES"]

# ntk-demo's --width, --steps and --trials defaults, shared with verify's ntk suite
_NTK_WIDTH, _NTK_STEPS, _NTK_TRIALS = 64, 100, 200
# the inputs and examples of ntk-demo's data, and of verify's ntk suite
_NTK_INPUTS, _NTK_EXAMPLES = 4, 8


@dataclasses.dataclass
class ResultRow:
    run_id: str
    seed: int
    d: int
    n: int
    s: int
    method: str
    empirical_error: float
    bound: float
    kind: str
    standard_error: float
    distance: float
    passed: bool | None = None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# only verify writes the final `passed` column
RESULT_HEADER = tuple(f.name for f in dataclasses.fields(ResultRow))[:-1]
HISTOGRAM_HEADER = ("bin_left", "bin_right", "count_selected", "count_all")
# kept counts are only meaningful for binary masks
HISTOGRAM_METHODS = tuple(name for name, m in MASK_METHODS.items() if m.binary)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _write_csv(path: Path, header: tuple, rows) -> None:
    """Write the header and each row, a line at a time, to a temporary file
    beside path, then rename it to path; a failure removes the temporary."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(",".join(header) + "\n")
            for row in rows:
                handle.write(",".join(map(_cell, row)) + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# verification suites


def _relative_gap(observed, expected) -> float:
    """The largest |observed - expected| / max(|expected|, 1e-12), of arrays
    or of scalars."""
    return float(
        np.max(np.abs(observed - expected) / np.maximum(np.abs(expected), 1e-12))
    )


def _flat_pair_at_ratio(d: int, ratio: float, rng: RngStream):
    # constant-magnitude w0, with w_star at distance ratio * ||w0|| from it
    signs = np.where(rng.uniform(d) < 0.5, -1.0, 1.0)
    w0 = signs / math.sqrt(d)
    delta = rng.normal(d)
    delta *= ratio * np.linalg.norm(w0) / np.linalg.norm(delta)
    return w0, w0 + delta


def _report_row(run_id: str, rep: BoundReport, d: int = 0, n: int = 0, s: int = 0,
                distance: float = math.nan) -> ResultRow:
    """A BoundReport checked by its own rule, BoundReport.satisfied, with
    seed and method left for the command to fill in. A worst-case row, from
    _worst_row, keeps the size defaults."""
    return ResultRow(
        run_id, 0, d, n, s, "", rep.empirical_error, rep.closed_form_or_bound,
        rep.kind, rep.standard_error, distance, passed=rep.satisfied(),
    )


def _worst_row(run_id: str, gaps, tolerance: float) -> ResultRow:
    """The worst of one gap per instance, capped by tolerance: an upper-bound
    row with no standard error, its trials the instance count. A NaN gap
    is the worst, and refused as not finite."""
    rep = BoundReport(float(np.max(gaps)), 0.0, tolerance, "upper-bound", len(gaps))
    return _report_row(run_id, rep)


def _data_row(run_id: str, w0, w_star, s: int, trials: int, rng, **options):
    """mc_error_over_data at n = 32, reported with the distance ||w* - w0||."""
    n = 32
    rep = mc_error_over_data(w0, w_star, s, n, trials, rng, **options)
    distance = float(np.linalg.norm(w_star - w0))
    return _report_row(run_id, rep, w0.size, n, s, distance)


def _small_instances(rng: RngStream, count: int):
    """count small (X, s) instances; the caller draws weights after each."""
    for _ in range(count):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        yield DataMatrix(rng.normal((d, n))), s


def _suite_lemma1(rng: RngStream, trials: int) -> list[ResultRow]:
    gaps = []
    for X, s in _small_instances(rng, 30):
        w = rng.normal(X.d)
        enumerated = enumerate_exact_error(X, w, optimal_probabilities(X, w), s)
        gaps.append(_relative_gap(enumerated, lemma1_exact_error(X, w, s)))
    rows = [_worst_row("lemma1/enumeration", gaps, 1e-10)]
    d, n = 32, 16
    for s in (4, 16):
        X = gen_normal_X(d, n, rng)
        w = rng.normal(d)
        exact = lemma1_exact_error(X, w, s)
        rep = mc_error_over_masks(
            X, w, optimal_probabilities(X, w), s, trials, rng, reference=exact
        )
        rows.append(_report_row(f"lemma1/mc-s{s}", rep, d, n, s))
    return rows


def _suite_lemma2(rng: RngStream, trials: int) -> list[ResultRow]:
    w0 = rng.normal(64)
    return [
        _data_row(f"lemma2/self-mask-s{s}", w0, w0, s, trials, rng.substream(s),
                  reference=lemma2_bound(w0, s))
        for s in (8, 32)
    ]


def _suite_lemma3(rng: RngStream, trials: int | None) -> list[ResultRow]:
    gaps, excesses = [], []
    for X, s in _small_instances(rng, 20):
        w0 = rng.normal(X.d)
        w_star = rng.normal(X.d)
        exact, bound = lemma3_bound(X, X, w0, w_star, s)
        enumerated = enumerate_exact_error(X, w_star, optimal_probabilities(X, w0), s)
        gaps.append(_relative_gap(enumerated, exact))
        excesses.append(exact - bound)
    # the largest excess over the bound against a rounding slack of 1e-12
    return [
        _worst_row("lemma3/exact-vs-enumeration", gaps, 1e-10),
        _worst_row("lemma3/exact-le-bound", excesses, 1e-12),
    ]


def _suite_theorem1(rng: RngStream, trials: int) -> list[ResultRow]:
    rows = []
    for ratio in (0.1, 0.5, 1.0):
        w0, w_star = _flat_pair_at_ratio(64, ratio, rng)
        rows.append(_data_row(f"theorem1/ratio-{ratio}", w0, w_star, 8, trials,
                              rng.substream(int(ratio * 10))))
    return rows


def _suite_lemma4(rng: RngStream, trials: int) -> list[ResultRow]:
    d, n, s = 64, 32, 8
    w0, w_star = _flat_pair_at_ratio(d, 0.5, rng)
    rows = [_data_row("lemma4/uniform-bound", w0, w_star, s, trials,
                      rng.substream(1), distribution="uniform")]
    # p0 beats uniform p by exactly (d/s) sum_k (a_k - mean(a))^2, with
    # a_k = ||X_(k)|| |w_k| (Cauchy-Schwarz), checked on each pair
    uniform = uniform_probabilities(d)
    gaps = []
    pair_rng = rng.substream(2)
    for _ in range(200):
        X = gen_normal_X(d, n, pair_rng)
        w = pair_rng.normal(d) / math.sqrt(d)
        gain = (exact_expected_error(X, w, uniform, s)
                - exact_expected_error(X, w, optimal_probabilities(X, w), s))
        a = row_norms(X) * np.abs(w)
        gaps.append(_relative_gap(gain, d * np.sum((a - a.mean()) ** 2) / s))
    rows.append(_worst_row("lemma4/p0-beats-uniform", gaps, 1e-10))
    return rows


def _score_equiv_suite(gen_X, score, run_id: str):
    """A suite checking that probabilities proportional to score(X, w) equal
    the optimal p0, worst case over random instances from gen_X."""

    def suite(rng: RngStream, trials: int) -> list[ResultRow]:
        gaps = np.empty(trials)
        for k in range(trials):
            d = int(rng.integers(2, 51))
            n = int(rng.integers(1, 21))
            X = gen_X(d, n, rng)
            w = rng.normal(d)
            via_scores = scores_to_probabilities(score(X, w))
            direct = optimal_probabilities(X, w)
            gaps[k] = _relative_gap(via_scores.values, direct.values)
        return [_worst_row(run_id, gaps, 1e-12)]

    return suite


# the lambdas look the library functions up when called, so a rebinding of
# those module names (as perfbench's tracer does) is seen
_suite_synflow_equiv = _score_equiv_suite(
    lambda d, n, rng: DataMatrix(rng.normal((d, n))),
    lambda X, w: synflow_scores(row_norms(X), w), "synflow-equiv/row-norm-probe",
)
_suite_snip_equiv = _score_equiv_suite(
    lambda d, n, rng: gen_sparse_X(d, n, rng),
    lambda X, w: snip_scores_l1(X, np.zeros(X.n), w), "snip-equiv/sparse-data",
)


def _ntk_instance(width: int, seed: int):
    """The untrained network, its _NTK_INPUTS x _NTK_EXAMPLES data, labels,
    snapshot and mask stream."""
    rng = RngStream(seed, 108)
    X = DataMatrix(rng.normal((_NTK_INPUTS, _NTK_EXAMPLES)))
    y = rng.normal(_NTK_EXAMPLES)
    model = TinyMLP.init(_NTK_INPUTS, width, 1, "tanh", rng)
    return model, X, y, take_snapshot(model, X, y), rng


def _theorem2_row(run_id: str, width: int, seed: int, steps: int, s: int, trials: int):
    """The Theorem 2 row of _ntk_instance(width, seed) trained for steps, its
    distance the final movement, and the network's snapshot."""
    model, X, y, snapshot, rng = _ntk_instance(width, seed)
    trajectory = train_linearized_gd(snapshot, y, 1.0 / snapshot.lambda_max, steps)
    rep = theorem2_report(model, snapshot, trajectory, X, s, trials, rng)
    movement = float(trajectory.movement[-1])
    return _report_row(run_id, rep, model.n_params, X.n, s, movement), snapshot


def _ntk_params(width: int) -> int:
    return _param_count(_NTK_INPUTS, width, 1)  # _ntk_instance's network


def _default_keep_count(n_params: int) -> int:
    return math.isqrt(n_params - 1) + 1  # ceil(sqrt(n_params))


def _suite_ntk(rng: RngStream, trials: int) -> list[ResultRow]:
    gaps = []
    for k in range(5):
        activation = ("tanh", "softplus")[k % 2]
        model = TinyMLP.init(3, 8, 2, activation, rng)
        X = DataMatrix(rng.normal((3, 4)))
        J = analytic_jacobian(model, X)
        J_fd = finite_difference_jacobian(model, X)
        gaps.append(float(np.abs(J - J_fd).max() / np.abs(J).max()))
    fd_row = _worst_row("ntk/jacobian-vs-fd", gaps, 1e-5)

    s = _default_keep_count(_ntk_params(_NTK_WIDTH))
    masked, _ = _theorem2_row("ntk/masked-error-bound", _NTK_WIDTH, rng.seed,
                              _NTK_STEPS, s, trials)

    # at theta0 the masked linearized error is the Jacobian features' sketch error
    _, _, _, snapshot, inst_rng = _ntk_instance(4, rng.seed + 1)
    J0, theta0 = DataMatrix(snapshot.jacobian.T), snapshot.theta0
    p0 = optimal_probabilities(J0, theta0)
    exact = enumerate_exact_error(J0, theta0, p0, 2)
    rep = mc_error_over_masks(J0, theta0, p0, 2, 4_000, inst_rng, reference=exact)
    zero_step = _report_row("ntk/zero-step-enumeration", rep, J0.d, J0.n, 2, 0.0)
    return [fd_row, masked, zero_step]


# Suites run in this order, each with the stream of the seed it draws from
# and its default trial count (None for lemma3, which ignores it), and called
# with (RngStream(seed, stream), trials). What a trial is differs by suite;
# the verify --trials help says which. Stream 108 is taken by _ntk_instance.
_SUITES = {
    "lemma1": (_suite_lemma1, 101, 20_000),
    "lemma2": (_suite_lemma2, 102, 2_000),
    "lemma3": (_suite_lemma3, 103, None),
    "theorem1": (_suite_theorem1, 104, 2_000),
    "lemma4": (_suite_lemma4, 105, 2_000),
    "synflow-equiv": (_suite_synflow_equiv, 106, 100),
    "snip-equiv": (_suite_snip_equiv, 107, 100),
    "ntk": (_suite_ntk, 109, _NTK_TRIALS),
}
VERIFY_SUITES = tuple(_SUITES)


def _cmd_verify(settings: dict) -> list[ResultRow]:
    seed, rows = settings["seed"], []
    for suite in settings["suites"]:
        run, stream, default_trials = _SUITES[suite]
        trials = default_trials if settings["trials"] is None else settings["trials"]
        rows.extend(
            dataclasses.replace(row, seed=seed, method=suite)
            for row in run(RngStream(seed, stream), trials)
        )
    return rows


# ---------------------------------------------------------------------------
# pipeline, histogram, demo


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _gib(size: int) -> str:
    # decimal, as a size beyond float range has no float quotient; imported
    # here, since it adds 0.4 MB to every run's resident memory
    from decimal import Context

    return f"{Context(prec=3).divide(size, 2**30).normalize():g}"


# The bytes of each command's largest arrays, from the size flags named.
_MEMORY = {
    # the one error per trial that mc_error_over_masks and mc_error_over_data
    # keep, and the standard error's temporary of as many, or the one gap per
    # instance of the synflow-equiv and snip-equiv suites: 16 bytes a trial;
    # an absent --trials, each suite's default, is never refused
    "verify": (("trials",), lambda trials: 16 * (trials or 0)),
    # a seed's d x n draw, and the min(d, n)-square matrix that
    # max_hessian_eigenvalue decomposes
    "pipeline": (("d", "n"), lambda d, n: 8 * (d * n + min(d, n) ** 2)),
    # At most 13 d-vectors, 104 bytes an entry (traced with the default bins:
    # 42 bytes for randomized-synflow, uniform and randomized-snip-sparse and
    # 44 for topk-synflow at d=65536, and 41 and 42 at d=262144); and 48 bytes
    # a bin (traced: 40 at --bins 1e5 to 4e5) for its edge, its two counts and
    # np.histogram's work arrays, as each CSV line is written when made.
    "histogram": (("d", "bins"), lambda d, b: 104 * d + 48 * b),
    # Of _ntk_params(width) parameters on _ntk_instance's data: the parameter
    # draw and its frozen copy, up to _CHECKPOINTS checkpoints, and
    # _CHECKPOINTS + 2 _NTK_EXAMPLES-row Jacobians (the snapshot's, which is
    # the first checkpoint's, one per later checkpoint, the copy in
    # DataMatrix(J.T), and analytic_jacobian's work arrays for the last
    # checkpoint's); the losses and movement of steps + 1 entries each; and
    # the Monte Carlo's one error per trial with the standard error's
    # temporary, 16 bytes a trial.
    "ntk-demo": (("width", "steps", "trials"), lambda w, steps, trials: (
        8 * _ntk_params(w) * (2 + _CHECKPOINTS + (_CHECKPOINTS + 2) * _NTK_EXAMPLES)
        + 16 * (steps + 1) + 16 * trials
    )),
}


def _check_memory(settings: dict):
    """Refuse a run before it allocates, and before any value is derived
    from its sizes, when the bytes of its largest arrays as estimated from
    its size flags exceed physical memory."""
    names, estimate = _MEMORY[settings["command"]]
    need = estimate(*(settings[name] for name in names))
    have = _physical_memory()
    if need > have:
        flags = " ".join(f"--{name} {settings[name]}" for name in names)
        raise ValueError(
            f"{flags} needs about {_gib(need)} GiB, "
            f"more than the {_gib(have)} GiB of physical memory"
        )


def _density_keep_count(settings: dict) -> int:
    # ceil(density * d) lies in [1, d], since 0 < density <= 1
    return math.ceil(settings["density"] * settings["d"])


def _cmd_pipeline(settings: dict) -> list[ResultRow]:
    d, n = settings["d"], settings["n"]
    rows = []
    for seed in range(settings["seed"], settings["seed"] + settings["trials"]):
        state = seed_state(
            d, n, seed, settings["noise_std"], settings["steps"], settings["lr"]
        )
        for method in sorted(settings["methods"]):  # rows in (method, s) order
            for s in sorted(settings["s_values"]):
                result = run_prune_pipeline(state, method, s)
                kind = "upper-bound" if math.isfinite(result.bound) else "none"
                rows.append(ResultRow(
                    f"pipeline/{seed}/{method}/{s}", seed, d, n, s, method,
                    result.masked_error, result.bound, kind, math.nan,
                    result.w0_wstar_distance,
                ))
        # free this seed's matrix before the next seed draws its own
        del state
    return rows


def _cmd_histogram(settings: dict) -> Iterator[tuple]:
    d = settings["d"]
    root = RngStream(settings["seed"])
    w = _frozen(root.substream(0).normal(d))
    # the row norms of a d x _CHI_COLUMNS normal matrix, drawn by their law
    norms = gen_chi_input(d, root.substream(1))
    mask = MASK_METHODS[settings["method"]].build(
        norms, _CHI_COLUMNS, w, _density_keep_count(settings), root.substream(2)
    )
    # freed before the histograms, where the run's resident memory peaks
    del norms
    magnitudes = np.abs(w)
    edges = np.linspace(0.0, float(magnitudes.max()), settings["bins"] + 1)
    count_all, _ = np.histogram(magnitudes, bins=edges)
    count_selected, _ = np.histogram(magnitudes[mask.values > 0], bins=edges)
    return zip(edges, edges[1:], count_selected, count_all)


def _cmd_ntk_demo(settings: dict) -> list[ResultRow]:
    width, seed, s = settings["width"], settings["seed"], settings["s"]
    row, snapshot = _theorem2_row(
        "ntk-demo", width, seed, settings["steps"], s, settings["trials"]
    )
    print(
        f"width={width} n_params={row.d} s={s} "
        f"lambda_min={snapshot.lambda_min:.6g} lambda_max={snapshot.lambda_max:.6g} "
        f"k_hat={snapshot.k_hat:.6g} r0_hat={snapshot.r0_hat:.6g} "
        f"movement={row.distance:.6g} "
        f"empirical={row.empirical_error:.6g} bound={row.bound:.6g}"
    )
    return [dataclasses.replace(row, seed=seed, method="ntk-sketch")]


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name. Each subcommand's
    flags, types and defaults are also the keys, types and defaults of its
    --config file. An integer flag's `minimum`, set on its action, is the
    smallest value it takes; ntk-demo's --s is a budget, checked apart."""
    parser = argparse.ArgumentParser(
        prog="sketchprune",
        description="Sketch-based pruning masks, error bounds, and experiments.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--seed", type=int, default=0,
                       help="base seed (default: 0)").minimum = 0
        p.add_argument("--out", type=str, default=f"{name}.csv",
                       help="output CSV path")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with flag defaults; flags override it")
        return p

    p = command("verify", "run numerical verification suites")
    p.add_argument("--methods", type=str, default=None,
                   help="comma-separated suites (default: all)")
    p.add_argument("--trials", type=int, default=None,
                   help="mask draws in lemma1/mc-* and ntk/masked-error-bound, "
                        "data draws in lemma2, theorem1 and lemma4/uniform-bound, "
                        "random instances in synflow-equiv and snip-equiv; "
                        "lemma3 and every other check ignore it "
                        "(default: per-suite)").minimum = 2

    p = command("pipeline", "prune, train, and measure")
    p.add_argument("--d", type=int, default=64).minimum = 1
    p.add_argument("--n", type=int, default=32).minimum = 1
    p.add_argument("--s", type=str, default=None,
                   help="comma-separated keep counts")
    p.add_argument("--density", type=float, default=None,
                   help="keep ceil(density*d) weights; excludes --s")
    p.add_argument("--methods", type=str, default=None,
                   help="comma-separated methods (default: all)")
    p.add_argument("--trials", type=int, default=10,
                   help="number of consecutive seeds to run").minimum = 1
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100).minimum = 0
    p.add_argument("--lr", type=float, default=None)

    p = command("histogram", "weight-magnitude selection histogram")
    p.add_argument("--d", type=int, default=1024).minimum = 1
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("--method", type=str, default="randomized-synflow",
                   help=f"one of {', '.join(HISTOGRAM_METHODS)}")
    p.add_argument("--bins", type=int, default=50).minimum = 1

    p = command("ntk-demo", "kernel-regime bound demo")
    p.add_argument("--width", type=int, default=_NTK_WIDTH).minimum = 1
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--steps", type=int, default=_NTK_STEPS).minimum = 0
    p.add_argument("--trials", type=int, default=_NTK_TRIALS,
                   help="mask draws for the empirical error").minimum = 2

    return parser, sub.choices


# JSON types a config value may have, by the type of its flag. bool is an int
# subclass, so it is rejected apart.
_CONFIG_TYPES = {int: int, float: (int, float), str: str}


def _config_defaults(command: str, subparser: argparse.ArgumentParser, path: str):
    """Flag defaults from a config file keyed by long option name, each value
    of its flag's type. --help and --config itself are not settings."""
    try:
        file_config = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # bad JSON, no UTF-8, or too many digits
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(file_config, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {
        action.option_strings[-1][2:]: action
        for action in subparser._actions
        if action.dest not in ("help", "config")
    }
    unknown = set(file_config) - set(actions)
    if unknown:
        raise ValueError(
            f"config keys {sorted(unknown)} are not settings of {command!r}"
        )
    defaults = {}
    for key, value in file_config.items():
        action = actions[key]
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[action.type]):
            raise ValueError(
                f"config value {key}={value!r} does not have the type of --{key}"
            )
        defaults[action.dest] = action.type(value)
    return defaults


def _split_list(raw: str, flag: str, convert=str) -> list:
    """The converted items of a comma-separated list flag: at least one, and
    none twice, since a repeated item would repeat a run_id and its work."""
    parts = [part.strip() for part in raw.split(",")]
    try:
        items = [convert(part) for part in parts if part]
    except ValueError as exc:
        raise ValueError(f"bad {flag} list {raw!r}") from exc
    if not items:
        raise ValueError(f"{flag} lists nothing: {raw!r}")
    for k, item in enumerate(items):
        if item in items[:k]:
            raise ValueError(f"{flag} lists {item} more than once")
    return items


def _chosen(raw: str | None, choices: tuple, what: str) -> list[str]:
    """The choices a --methods list names, every one when it is absent."""
    if raw is None:
        return list(choices)
    names = _split_list(raw, "--methods")
    for name in names:
        if name not in choices:
            raise ValueError(
                f"unknown {what} {name!r}; choose from {', '.join(choices)}"
            )
    return names


def _resolve_settings(args, subparser: argparse.ArgumentParser) -> dict:
    """Parsed flags plus the values derived from them, range-checked: each
    declared minimum in declaration order, before _check_memory estimates
    from the sizes (verify's --trials may be absent, for the per-suite
    defaults)."""
    settings = dict(vars(args))
    for action in subparser._actions:
        low = getattr(action, "minimum", None)
        if low is not None and settings[action.dest] is not None:
            _check_at_least(low, **{action.dest: settings[action.dest]})
    if settings.get("density") is not None:  # nan and inf fail, before math.ceil
        _check_density(settings["density"])
    _check_memory(settings)

    if args.command == "verify":
        settings["suites"] = _chosen(args.methods, VERIFY_SUITES, "suite")

    elif args.command == "pipeline":
        settings["methods"] = _chosen(args.methods, METHODS, "method")
        if args.s is not None and args.density is not None:
            raise ValueError("--s and --density both set the keep counts")
        if args.s is not None:
            s_values = _split_list(args.s, "--s", int)
        elif args.density is not None:
            s_values = [_density_keep_count(settings)]
        else:
            s_values = [8]
        for s in s_values:
            _check_budget(s, args.d)
        settings["s_values"] = s_values

    elif args.command == "histogram":
        if args.method not in HISTOGRAM_METHODS:
            raise ValueError(
                f"histogram needs a binary-mask method, one of "
                f"{', '.join(HISTOGRAM_METHODS)}"
            )

    elif args.command == "ntk-demo":
        n_params = _ntk_params(args.width)
        if args.s is None:
            settings["s"] = _default_keep_count(n_params)
        _check_budget(settings["s"], n_params)

    return settings


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    subparser = commands[args.command]
    try:
        if args.config is not None:
            subparser.set_defaults(
                **_config_defaults(args.command, subparser, args.config)
            )
            args = parser.parse_args(argv)
        settings = _resolve_settings(args, subparser)
        out = Path(settings["out"])
        if args.command == "verify":
            rows = _cmd_verify(settings)
            _write_csv(out, (*RESULT_HEADER, "passed"), map(dataclasses.astuple, rows))
            failed = [row.run_id for row in rows if not row.passed]
            if failed:
                print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
                return 1
        elif args.command == "histogram":
            _write_csv(out, HISTOGRAM_HEADER, _cmd_histogram(settings))
        else:
            run = _cmd_pipeline if args.command == "pipeline" else _cmd_ntk_demo
            rows = (dataclasses.astuple(row)[:-1] for row in run(settings))
            _write_csv(out, RESULT_HEADER, rows)
        return 0
    except (ValueError, OSError, OverflowError, DivergenceError, MemoryError) as exc:
        # exit code 1 is reserved for failed verify checks
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
