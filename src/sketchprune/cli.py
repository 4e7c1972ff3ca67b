"""Command-line front end.

Four subcommands, all writing CSV atomically (temp file then rename):

* verify     -- runs the numerical verification suites, one row per check
* pipeline   -- prune/train/measure cells, one row per (seed, method, s)
* histogram  -- selected-vs-all weight-magnitude histogram for one method
* ntk-demo   -- kernel-regime bound demo on a tiny dense network

Every invocation is deterministic for a fixed flag set: all randomness
derives from --seed (or the SKETCHPRUNE_SEED environment variable when the
flag and config file are silent). Flags are spelled in full; a --config
file's keys are the subcommand's other flags. List flags (--methods, --s)
take comma-separated items, none of them twice.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .bounds import (
    enumerate_exact_error,
    exact_expected_error,
    lemma1_exact_error,
    lemma2_bound,
    lemma3_bound,
    mc_error_over_data,
    mc_error_over_masks,
)
from .core import DataMatrix, DivergenceError, RngStream, row_norms
from .experiments import (
    MASK_METHODS,
    METHODS,
    gen_chi_input,
    gen_normal_X,
    gen_sparse_X,
    run_prune_pipeline,
    seed_state,
)
from .ntk import (
    TinyMLP,
    analytic_jacobian,
    finite_difference_jacobian,
    mask_probabilities,
    take_snapshot,
    theorem2_report,
    train_linearized_gd,
)
from .scores import scores_to_probabilities, snip_scores_l1, synflow_scores
from .sketch import optimal_probabilities, uniform_probabilities

__all__ = ["main", "ResultRow", "RESULT_HEADER", "HISTOGRAM_HEADER", "VERIFY_SUITES"]

SEED_ENV_VAR = "SKETCHPRUNE_SEED"


class ConfigError(ValueError):
    """Invalid or inconsistent command-line configuration."""


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
    # a comparison of numpy floats gives np.bool_, which is no bool subclass
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _csv(header: tuple, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# verification suites


def _relative_gap(observed: np.ndarray, expected: np.ndarray) -> float:
    return float(
        np.max(np.abs(observed - expected) / np.maximum(np.abs(expected), 1e-12))
    )


def _concentrated_weights(d: int) -> np.ndarray:
    # geometric magnitude decay keeps the l1/l2 ratio small, the regime
    # where the random-data self-mask bound actually holds
    return (-0.25) ** np.arange(d)


def _flat_pair_at_ratio(d: int, ratio: float, rng: RngStream):
    # constant-magnitude w0, with w_star at distance ratio * ||w0|| from it
    signs = np.where(rng.uniform(d) < 0.5, -1.0, 1.0)
    w0 = signs / math.sqrt(d)
    delta = rng.normal(d)
    delta *= ratio * np.linalg.norm(w0) / np.linalg.norm(delta)
    return w0, w0 + delta


def _gap_row(run_id: str, worst: float, tol: float) -> ResultRow:
    """An identity checked by its worst relative gap against tol. Like
    _report_row, it leaves seed and method for the command to fill in."""
    return ResultRow(
        run_id, 0, 0, 0, 0, "", worst, tol, "equality", 0.0, math.nan,
        passed=worst <= tol,
    )


def _report_row(run_id: str, rep, d: int, n: int, s: int, distance: float):
    """A BoundReport checked by its own rule, BoundReport.satisfied."""
    return ResultRow(
        run_id, 0, d, n, s, "", rep.empirical_error, rep.closed_form_or_bound,
        rep.kind, rep.standard_error, distance, passed=rep.satisfied(),
    )


def _suite_lemma1(seed: int, trials: int) -> list[ResultRow]:
    rng = RngStream(seed, 101)
    closed, enumerated = [], []
    for _ in range(30):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        X = DataMatrix(rng.normal((d, n)))
        w = rng.normal(d)
        closed.append(lemma1_exact_error(X, w, s))
        enumerated.append(enumerate_exact_error(X, w, optimal_probabilities(X, w), s))
    worst = _relative_gap(np.array(enumerated), np.array(closed))
    rows = [_gap_row("lemma1/enumeration", worst, 1e-10)]
    d, n = 32, 16
    for s in (4, 16):
        X = gen_normal_X(d, n, rng)
        w = rng.normal(d)
        exact = lemma1_exact_error(X, w, s)
        rep = mc_error_over_masks(
            X, w, optimal_probabilities(X, w), s, trials, rng, reference=exact
        )
        rows.append(_report_row(f"lemma1/mc-s{s}", rep, d, n, s, math.nan))
    return rows


def _suite_lemma2(seed: int, trials: int) -> list[ResultRow]:
    rng = RngStream(seed, 102)
    d, n = 64, 32
    w0 = _concentrated_weights(d)
    rows = []
    for s in (8, 32):
        rep = mc_error_over_data(
            w0, w0, s, n, trials, rng.substream(s), reference=lemma2_bound(w0, s)
        )
        rows.append(_report_row(f"lemma2/self-mask-s{s}", rep, d, n, s, 0.0))
    return rows


def _suite_lemma3(seed: int, trials: int | None) -> list[ResultRow]:
    rng = RngStream(seed, 103)
    closed, enumerated = [], []
    worst_excess = -math.inf
    for _ in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        X = DataMatrix(rng.normal((d, n)))
        w0 = rng.normal(d)
        w_star = rng.normal(d)
        exact, bound = lemma3_bound(X, X, w0, w_star, s)
        closed.append(exact)
        enumerated.append(
            enumerate_exact_error(X, w_star, optimal_probabilities(X, w0), s)
        )
        worst_excess = max(worst_excess, exact - bound)
    worst = _relative_gap(np.array(enumerated), np.array(closed))
    return [
        _gap_row("lemma3/exact-vs-enumeration", worst, 1e-10),
        ResultRow(
            "lemma3/exact-le-bound", 0, 0, 0, 0, "",
            worst_excess, 1e-12, "upper-bound", 0.0, math.nan,
            passed=worst_excess <= 1e-12,
        ),
    ]


def _suite_theorem1(seed: int, trials: int) -> list[ResultRow]:
    rng = RngStream(seed, 104)
    d, n, s = 64, 32, 8
    rows = []
    for ratio in (0.1, 0.5, 1.0):
        w0, w_star = _flat_pair_at_ratio(d, ratio, rng)
        rep = mc_error_over_data(
            w0, w_star, s, n, trials, rng.substream(int(ratio * 10))
        )
        distance = float(np.linalg.norm(w_star - w0))
        rows.append(_report_row(f"theorem1/ratio-{ratio}", rep, d, n, s, distance))
    return rows


def _suite_lemma4(seed: int, trials: int) -> list[ResultRow]:
    rng = RngStream(seed, 105)
    d, n, s = 64, 32, 8
    w0, w_star = _flat_pair_at_ratio(d, 0.5, rng)
    rep = mc_error_over_data(
        w0, w_star, s, n, trials, rng.substream(1), distribution="uniform"
    )
    distance = float(np.linalg.norm(w_star - w0))
    rows = [_report_row("lemma4/uniform-bound", rep, d, n, s, distance)]
    uniform = uniform_probabilities(d)
    tuned = np.empty(200)
    untuned = np.empty(200)
    pair_rng = rng.substream(2)
    for k in range(200):
        X = gen_normal_X(d, n, pair_rng)
        w = pair_rng.normal(d) / math.sqrt(d)
        tuned[k] = exact_expected_error(X, w, optimal_probabilities(X, w), s)
        untuned[k] = exact_expected_error(X, w, uniform, s)
    gap_se = float((tuned - untuned).std(ddof=1) / math.sqrt(200))
    rows.append(
        ResultRow(
            "lemma4/p0-beats-uniform", 0, d, n, s, "",
            float(tuned.mean()), float(untuned.mean()), "upper-bound",
            gap_se, math.nan, passed=bool(tuned.mean() < untuned.mean()),
        )
    )
    return rows


def _score_equiv_suite(stream: int, gen_X, score, run_id: str):
    """A suite checking that probabilities proportional to score(X, w) equal
    the optimal p0, worst case over random instances from gen_X."""

    def suite(seed: int, trials: int) -> list[ResultRow]:
        rng = RngStream(seed, stream)
        worst = 0.0
        for _ in range(trials):
            d = int(rng.integers(2, 51))
            n = int(rng.integers(1, 21))
            X = gen_X(d, n, rng)
            w = rng.normal(d)
            via_scores = scores_to_probabilities(score(X, w))
            direct = optimal_probabilities(X, w)
            worst = max(worst, _relative_gap(via_scores.values, direct.values))
        return [_gap_row(run_id, worst, 1e-12)]

    return suite


# the lambdas look the library functions up when called, so a rebinding of
# those module names (as perfbench's tracer does) is seen
_suite_synflow_equiv = _score_equiv_suite(
    106, lambda d, n, rng: DataMatrix(rng.normal((d, n))),
    lambda X, w: synflow_scores(row_norms(X), w), "synflow-equiv/row-norm-probe",
)
_suite_snip_equiv = _score_equiv_suite(
    107, lambda d, n, rng: gen_sparse_X(d, n, rng),
    lambda X, w: snip_scores_l1(X, np.zeros(X.n), w), "snip-equiv/sparse-data",
)


def _ntk_instance(width: int, seed: int, steps: int):
    rng = RngStream(seed, 108)
    X = DataMatrix(rng.normal((4, 8)))
    y = rng.normal(8)
    model = TinyMLP.init(4, width, 1, "tanh", rng)
    snapshot = take_snapshot(model, X, y)
    trajectory = train_linearized_gd(
        snapshot, y, eta0=1.0 / snapshot.lambda_max, steps=steps
    )
    return model, X, snapshot, trajectory, rng


def _suite_ntk(seed: int, trials: int) -> list[ResultRow]:
    rng = RngStream(seed, 109)
    worst = 0.0
    for k in range(5):
        activation = ("tanh", "softplus")[k % 2]
        model = TinyMLP.init(3, 8, 2, activation, rng)
        X = DataMatrix(rng.normal((3, 4)))
        J = analytic_jacobian(model, X)
        J_fd = finite_difference_jacobian(model, X)
        worst = max(worst, float(np.abs(J - J_fd).max() / np.abs(J).max()))
    fd_row = _gap_row("ntk/jacobian-vs-fd", worst, 1e-5)

    model, X, snapshot, trajectory, inst_rng = _ntk_instance(64, seed, steps=100)
    s = math.isqrt(model.n_params - 1) + 1
    rep = theorem2_report(model, snapshot, trajectory, X, s, trials, inst_rng)
    movement = float(trajectory.movement[-1])
    masked = _report_row("ntk/masked-error-bound", rep, model.n_params, 8, s, movement)

    model, X, snapshot, trajectory, inst_rng = _ntk_instance(4, seed + 1, steps=0)
    rep = theorem2_report(model, snapshot, trajectory, X, 2, 4_000, inst_rng)
    exact = enumerate_exact_error(
        DataMatrix(snapshot.jacobian.T), snapshot.theta0, mask_probabilities(snapshot), 2
    )
    # with no training steps the masked error's expectation is exactly the
    # enumerated one, so the report is checked as an equality against it
    rep = dataclasses.replace(rep, closed_form_or_bound=exact, kind="equality")
    zero_step = _report_row("ntk/zero-step-enumeration", rep, model.n_params, 8, 2, 0.0)
    return [fd_row, masked, zero_step]


# Suites run in this order, each next to its default trial count (None for
# lemma3, which draws no Monte Carlo trials) and called with (seed, trials).
_SUITES = {
    "lemma1": (_suite_lemma1, 20_000),
    "lemma2": (_suite_lemma2, 2_000),
    "lemma3": (_suite_lemma3, None),
    "theorem1": (_suite_theorem1, 2_000),
    "lemma4": (_suite_lemma4, 2_000),
    "synflow-equiv": (_suite_synflow_equiv, 100),
    "snip-equiv": (_suite_snip_equiv, 100),
    "ntk": (_suite_ntk, 200),
}
VERIFY_SUITES = tuple(_SUITES)


def _cmd_verify(settings: dict) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for suite in settings["suites"]:
        run, default_trials = _SUITES[suite]
        trials = default_trials if settings["trials"] is None else settings["trials"]
        rows.extend(
            dataclasses.replace(row, seed=settings["seed"], method=suite)
            for row in run(settings["seed"], trials)
        )
    return rows


# ---------------------------------------------------------------------------
# pipeline, histogram, demo


def _cmd_pipeline(settings: dict) -> list[ResultRow]:
    d, n = settings["d"], settings["n"]
    rows = []
    for seed in range(settings["seed"], settings["seed"] + settings["trials"]):
        state = seed_state(
            d, n, seed, settings["noise_std"], settings["steps"], settings["lr"]
        )
        for method in settings["methods"]:
            for s in settings["s_values"]:
                result = run_prune_pipeline(state, method, s)
                rows.append(
                    ResultRow(
                        run_id=f"pipeline/{seed}/{method}/{s}",
                        seed=seed,
                        d=d,
                        n=n,
                        s=s,
                        method=method,
                        empirical_error=result.masked_error,
                        bound=result.bound,
                        kind="upper-bound" if math.isfinite(result.bound) else "none",
                        standard_error=math.nan,
                        distance=result.w0_wstar_distance,
                    )
                )
        # free this seed's matrix before the next seed draws its own
        del state
    rows.sort(key=lambda r: (r.seed, r.method, r.s))
    return rows


def _cmd_histogram(settings: dict) -> str:
    d = settings["d"]
    bins = settings["bins"]
    root = RngStream(settings["seed"])
    w = root.substream(0).normal(d)
    # the row norms of a d x 128 normal matrix, drawn without holding it
    norms = gen_chi_input(d, root.substream(1), 128)
    mask = MASK_METHODS[settings["method"]].build(
        norms, 128, w, settings["s"], root.substream(2)
    )
    magnitudes = np.abs(w)
    edges = np.linspace(0.0, float(magnitudes.max()), bins + 1)
    count_all, _ = np.histogram(magnitudes, bins=edges)
    count_selected, _ = np.histogram(magnitudes[mask.values > 0], bins=edges)
    return _csv(
        HISTOGRAM_HEADER, zip(edges, edges[1:], count_selected, count_all)
    )


def _cmd_ntk_demo(settings: dict) -> list[ResultRow]:
    model, X, snapshot, trajectory, rng = _ntk_instance(
        settings["width"], settings["seed"], settings["steps"]
    )
    s = settings["s"]
    if s is None:
        s = math.isqrt(model.n_params - 1) + 1
    if not 1 <= s <= model.n_params:
        raise ConfigError(f"keep count {s} outside [1, {model.n_params}]")
    rep = theorem2_report(model, snapshot, trajectory, X, s, settings["trials"], rng)
    print(
        f"width={settings['width']} n_params={model.n_params} s={s} "
        f"lambda_min={snapshot.lambda_min:.6g} lambda_max={snapshot.lambda_max:.6g} "
        f"k_hat={snapshot.k_hat:.6g} r0_hat={snapshot.r0_hat:.6g} "
        f"movement={trajectory.movement[-1]:.6g} "
        f"empirical={rep.empirical_error:.6g} bound={rep.closed_form_or_bound:.6g}"
    )
    row = _report_row(
        "ntk-demo", rep, model.n_params, X.n, s, float(trajectory.movement[-1])
    )
    return [dataclasses.replace(row, seed=settings["seed"], method="ntk-sketch")]


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name. Each subcommand's
    flags, types and defaults are also the keys, types and defaults of its
    --config file."""
    parser = argparse.ArgumentParser(
        prog="sketchprune",
        description="Sketch-based pruning masks, error bounds, and experiments.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--seed", type=int, default=None,
                       help=f"base seed (falls back to ${SEED_ENV_VAR}, then 0)")
        p.add_argument("--out", type=str, default=f"{name}.csv",
                       help="output CSV path")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with flag defaults; flags override it")
        return p

    p = command("verify", "run numerical verification suites")
    p.add_argument("--methods", type=str, default=None,
                   help="comma-separated suites (default: all)")
    p.add_argument("--trials", type=int, default=None,
                   help="Monte Carlo trials per check (default: per-suite)")

    p = command("pipeline", "prune, train, and measure")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--s", type=str, default=None,
                   help="comma-separated keep counts")
    p.add_argument("--density", type=float, default=None,
                   help="keep ceil(density*d) weights; excludes --s")
    p.add_argument("--methods", type=str, default=None,
                   help="comma-separated methods (default: all)")
    p.add_argument("--trials", type=int, default=10,
                   help="number of consecutive seeds to run")
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--lr", type=float, default=None)

    p = command("histogram", "weight-magnitude selection histogram")
    p.add_argument("--d", type=int, default=1024)
    p.add_argument("--density", type=float, default=0.1)
    p.add_argument("--method", type=str, default="randomized-synflow",
                   help=f"one of {', '.join(HISTOGRAM_METHODS)}")
    p.add_argument("--bins", type=int, default=50)

    p = command("ntk-demo", "kernel-regime bound demo")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--trials", type=int, default=200,
                   help="mask draws for the empirical error")

    return parser, sub.choices


def _load_config_file(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


# JSON types a config value may have, by the type of its flag. bool is an int
# subclass, so it is rejected apart.
_CONFIG_TYPES = {int: int, float: (int, float), str: str}


def _config_defaults(command: str, subparser: argparse.ArgumentParser, path: str):
    """Flag defaults from a config file keyed by long option name, each value
    of its flag's type. --help and --config itself are not settings."""
    file_config = _load_config_file(path)
    actions = {
        action.option_strings[-1][2:]: action
        for action in subparser._actions
        if action.dest not in ("help", "config")
    }
    unknown = set(file_config) - set(actions)
    if unknown:
        raise ConfigError(
            f"config keys {sorted(unknown)} are not settings of {command!r}"
        )
    defaults = {}
    for key, value in file_config.items():
        action = actions[key]
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[action.type]):
            raise ConfigError(
                f"config value {key}={value!r} does not have the type of --{key}"
            )
        defaults[action.dest] = action.type(value)
    return defaults


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                seed = int(env)
            except ValueError as exc:
                raise ConfigError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from exc
        else:
            seed = 0
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _split_list(raw: str, flag: str, convert=str) -> list:
    """The converted items of a comma-separated list flag: at least one, and
    none twice, since a repeated item would repeat a run_id and its work."""
    parts = [part.strip() for part in raw.split(",")]
    try:
        items = [convert(part) for part in parts if part]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} list {raw!r}") from exc
    if not items:
        raise ConfigError(f"{flag} lists nothing: {raw!r}")
    for k, item in enumerate(items):
        if item in items[:k]:
            raise ConfigError(f"{flag} lists {item} more than once")
    return items


def _chosen(raw: str | None, choices: tuple, what: str) -> list[str]:
    """The choices a --methods list names, every one when it is absent."""
    if not raw:
        return list(choices)
    names = _split_list(raw, "--methods")
    for name in names:
        if name not in choices:
            raise ConfigError(
                f"unknown {what} {name!r}; choose from {', '.join(choices)}"
            )
    return names


# The smallest value each integer flag takes, by subcommand (verify's
# --trials may also be absent, for the per-suite defaults).
_MINIMUMS = {
    "verify": {"trials": 2},
    "pipeline": {"trials": 1},
    "histogram": {"bins": 1, "d": 1},
    "ntk-demo": {"width": 1, "steps": 0, "trials": 2},
}


def _resolve_settings(args) -> dict:
    """Parsed flags plus the values derived from them, range-checked."""
    settings = dict(vars(args), seed=_resolve_seed(args.seed))
    for key, low in _MINIMUMS[args.command].items():
        if settings[key] is not None and settings[key] < low:
            raise ConfigError(f"{key} must be >= {low}")
    # a density of nan or inf fails this too, before math.ceil sees it
    density = settings.get("density")
    if density is not None and not 0 < density <= 1:
        raise ConfigError(f"density must lie in (0, 1], got {density}")

    if args.command == "verify":
        settings["suites"] = _chosen(args.methods, VERIFY_SUITES, "suite")

    elif args.command == "pipeline":
        settings["methods"] = _chosen(args.methods, METHODS, "method")
        if args.s is not None and args.density is not None:
            raise ConfigError("--s and --density both set the keep counts")
        if args.s is not None:
            s_values = _split_list(args.s, "--s", int)
        elif args.density is not None:
            s_values = [math.ceil(args.density * args.d)]
        else:
            s_values = [8]
        for s in s_values:
            if not 1 <= s <= args.d:
                raise ConfigError(f"keep count {s} outside [1, {args.d}]")
        settings["s_values"] = s_values

    elif args.command == "histogram":
        if args.method not in HISTOGRAM_METHODS:
            raise ConfigError(
                f"histogram needs a binary-mask method, one of "
                f"{', '.join(HISTOGRAM_METHODS)}"
            )
        # in [1, d], since 0 < density <= 1
        settings["s"] = math.ceil(args.density * args.d)

    return settings


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            subparser = commands[args.command]
            subparser.set_defaults(
                **_config_defaults(args.command, subparser, args.config)
            )
            args = parser.parse_args(argv)
        settings = _resolve_settings(args)
        out = Path(settings["out"])
        if args.command == "verify":
            rows = _cmd_verify(settings)
            header = (*RESULT_HEADER, "passed")
            _atomic_write(out, _csv(header, map(dataclasses.astuple, rows)))
            failed = [row.run_id for row in rows if not row.passed]
            if failed:
                print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
                return 1
        elif args.command == "histogram":
            _atomic_write(out, _cmd_histogram(settings))
        else:
            run = _cmd_pipeline if args.command == "pipeline" else _cmd_ntk_demo
            rows = (dataclasses.astuple(row)[:-1] for row in run(settings))
            _atomic_write(out, _csv(RESULT_HEADER, rows))
        return 0
    except (ValueError, OSError, DivergenceError, MemoryError) as exc:
        # exit code 1 is reserved for failed verify checks
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
