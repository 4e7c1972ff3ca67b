import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sketchprune import cli, experiments
from sketchprune.cli import (
    HISTOGRAM_HEADER,
    RESULT_HEADER,
    VERIFY_SUITES,
    main,
)
from sketchprune.bounds import BoundReport
from sketchprune.core import RngStream, row_norms
from sketchprune.experiments import (
    MASK_METHODS,
    METHODS,
    MaskMethod,
    gen_sparse_X,
    make_dataset,
    train_least_squares,
)
from sketchprune.scores import select_randomized, snip_scores_l1


def read_lines(path):
    return path.read_text().splitlines()


def reference_cell(d, n, s, method, seed, noise_std=0.0, steps=100, lr=None):
    """(error, bound, distance) of one pipeline cell drawn from scratch.

    The error is the expectation over test data: ||w* (1 - m)||^2 for a
    binary mask m, and (1/s) sum_k w*_k^2 (1 - p_k) / p_k, over the masks
    as well, for a sketch distribution p.
    """
    root = RngStream(seed)
    data = make_dataset(d, n, noise_std, root.substream(0))
    w0 = root.substream(1).normal(d) / math.sqrt(d)
    w_star = train_least_squares(data.X, data.y, w0, steps, lr)
    spec = MASK_METHODS[method]
    if spec.binary:
        mask = spec.build(row_norms(data.X), n, w0, s, root.substream(2))
        dropped = w_star * (1.0 - mask.values)
        return float(dropped @ dropped), math.nan, float(np.linalg.norm(w_star - w0))
    p = spec.distribution(row_norms(data.X), w0).values
    error = float((w_star**2 * (1.0 - p) / p).sum()) / s
    return error, spec.bound(w0, w_star, s), float(np.linalg.norm(w_star - w0))


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--methods", "lemma3", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == ",".join(RESULT_HEADER) + ",passed"
        assert len(lines) == 3
        assert all(line.endswith(",true") for line in lines[1:])

    def test_lemma3_bound_row_reports_largest_excess(self, tmp_path):
        # the row compares the largest exact - bound over its instances, a
        # negative number when every bound holds, against a rounding slack
        out = tmp_path / "v.csv"
        assert main(["verify", "--methods", "lemma3", "--out", str(out)]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in read_lines(out)[1:]}
        row = rows["lemma3/exact-le-bound"]
        assert row[8] == "upper-bound"
        assert float(row[6]) < 0 and float(row[7]) == 1e-12

    def test_closed_forms_match_enumeration_near_zero_error(self, tmp_path):
        # this seed draws a lemma1 instance whose exact error is close enough
        # to zero that a cancelling closed form misses the enumeration by
        # more than the 1e-10 relative tolerance
        out = tmp_path / "v.csv"
        args = ["verify", "--methods", "lemma1,lemma3", "--trials", "200"]
        assert main(args + ["--seed", "853713141", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert len(lines) == 6
        assert all(line.endswith(",true") for line in lines[1:])

    def test_unknown_suite_is_usage_error(self, tmp_path, capsys):
        # an empty list selects nothing, which is as much a usage error, and a
        # repeated suite would write two rows under one run_id
        for methods, named in (
            ("lemma9", "lemma9"), (",", "--methods"), ("lemma3,lemma3", "lemma3"),
        ):
            out = tmp_path / "v.csv"
            assert main(["verify", "--methods", methods, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert named in err
            assert not out.exists()

    def test_suite_names_cover_all_checks(self, tmp_path):
        out = tmp_path / "v.csv"
        suites = "lemma3,lemma4,synflow-equiv,snip-equiv"
        args = ["verify", "--methods", suites, "--seed", "5", "--out", str(out)]
        assert main(args) == 0
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert {row[5] for row in rows} == set(suites.split(","))
        for row in rows:
            assert row[0].startswith(row[5] + "/")
            assert row[1] == "5"

    def test_sampling_and_ntk_suites_pass(self, tmp_path):
        out = tmp_path / "v.csv"
        args = ["verify", "--methods", "lemma2,theorem1,ntk", "--seed", "5"]
        assert main(args + ["--out", str(out)]) == 0
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert [row[0] for row in rows] == [
            "lemma2/self-mask-s8", "lemma2/self-mask-s32",
            "theorem1/ratio-0.1", "theorem1/ratio-0.5", "theorem1/ratio-1.0",
            "ntk/jacobian-vs-fd", "ntk/masked-error-bound",
            "ntk/zero-step-enumeration",
        ]
        assert all(row[-1] == "true" for row in rows)

    def test_failed_check_exits_1_and_still_writes_the_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing(rng, trials):
            rep = BoundReport(1.0, 0.0, 0.5, "upper-bound", 1)
            return [cli._report_row("lemma3/forced", rep)]

        monkeypatch.setitem(cli._SUITES, "lemma3", (failing, 103, None))
        out = tmp_path / "v.csv"
        assert main(["verify", "--methods", "lemma3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "FAILED checks: lemma3/forced\n"
        lines = read_lines(out)
        assert len(lines) == 2
        assert lines[1].startswith("lemma3/forced,0,") and lines[1].endswith(",false")

    def test_each_suite_draws_from_its_stream_with_its_trials(
        self, tmp_path, monkeypatch
    ):
        # every suite runs once, in table order, on its own stream of the seed
        # and at its default trials unless --trials overrides them
        table = dict(cli._SUITES)
        calls = []
        for name, (_, stream, default_trials) in table.items():
            def recorder(rng, trials, name=name):
                calls.append((name, rng.seed, rng.stream, trials))
                rep = BoundReport(0.0, 0.0, 1.0, "upper-bound", 1)
                return [cli._report_row(f"{name}/recorded", rep)]

            monkeypatch.setitem(cli._SUITES, name, (recorder, stream, default_trials))
        streams = [stream for _, stream, _ in table.values()]
        assert len(set(streams)) == len(streams) == 8
        assert 108 not in streams  # _ntk_instance's, which ntk-demo shares
        out = str(tmp_path / "v.csv")
        for flags, trials in (([], None), (["--trials", "7"], 7)):
            calls.clear()
            assert main(["verify", "--seed", "3", "--out", out, *flags]) == 0
            assert calls == [
                (name, 3, stream, default_trials if trials is None else trials)
                for name, (_, stream, default_trials) in table.items()
            ]

    def test_each_row_is_judged_by_its_report(self, tmp_path):
        # passed is BoundReport.satisfied of the row's own cells, for every
        # row but lemma4/p0-beats-uniform, which keeps its strict tuned <
        # untuned rule
        out = tmp_path / "v.csv"
        assert main(["verify", "--seed", "5", "--out", str(out)]) == 0
        header, *lines = read_lines(out)
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 17
        for row in rows:
            if row["run_id"] == "lemma4/p0-beats-uniform":
                continue
            rep = BoundReport(float(row["empirical_error"]),
                              float(row["standard_error"]), float(row["bound"]),
                              row["kind"], 1)
            assert row["passed"] == ("true" if rep.satisfied() else "false")

    def test_all_suites_listed(self):
        assert set(VERIFY_SUITES) == {
            "lemma1", "lemma2", "lemma3", "theorem1", "lemma4",
            "synflow-equiv", "snip-equiv", "ntk",
        }


class TestPipelineCommand:
    def test_row_grid_and_sorting(self, tmp_path):
        # rows come out by (seed, method, s) whatever the order of the lists;
        # 10,3 also tells numeric from string order of keep counts
        for s_values, methods in (
            ("3,6", "sketch-p0,topk-synflow"), ("10,3", "topk-synflow,sketch-p0"),
        ):
            out = tmp_path / "p.csv"
            code = main([
                "pipeline", "--d", "12", "--n", "8", "--s", s_values,
                "--methods", methods, "--trials", "2", "--seed", "7",
                "--out", str(out),
            ])
            assert code == 0
            lines = read_lines(out)
            assert lines[0] == ",".join(RESULT_HEADER)
            rows = [line.split(",") for line in lines[1:]]
            assert len(rows) == 2 * 2 * 2
            keys = [(int(r[1]), r[5], int(r[4])) for r in rows]
            assert keys == sorted(keys)
            assert {r[1] for r in rows} == {"7", "8"}
            assert all(len(r) == len(RESULT_HEADER) for r in rows)

    @pytest.mark.parametrize("d, n, seed", [
        (8, 8, 184), (16, 16, 54), (24, 24, 0), (64, 64, 186), (64, 32, 131),
    ])
    def test_default_step_size_trains_stably(self, tmp_path, capsys, d, n, seed):
        # on these seeds' data, 20 power-iteration steps fall over 10% short
        # of the top Hessian eigenvalue, and a step size set from that
        # estimate passes the stability threshold and diverges
        code = main([
            "pipeline", "--d", str(d), "--n", str(n), "--seed", str(seed),
            "--trials", "1", "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 0, capsys.readouterr().err

    def test_density_flag_sets_budget(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main([
            "pipeline", "--d", "10", "--n", "4", "--density", "0.25",
            "--methods", "sketch-p0", "--trials", "1", "--out", str(out),
        ])
        assert code == 0
        row = read_lines(out)[1].split(",")
        assert row[4] == "3"

    def test_unknown_method(self, tmp_path, capsys):
        # empty method and keep-count lists select nothing, and a repeated
        # item (keep counts compared as integers) would repeat a run_id
        for flags in (
            ["--methods", "oracle"], ["--methods", ","], ["--s", ","],
            ["--s", "2,2"], ["--s", "2,02"], ["--methods", "sketch-p0,sketch-p0"],
        ):
            out = tmp_path / "p.csv"
            assert main(["pipeline", *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()

    def test_non_integer_keep_count(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert main(["pipeline", "--s", "4,x", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: bad --s list '4,x'\n"
        assert not out.exists()

    def test_keep_counts_and_density_exclude_each_other(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"density": 0.25}))
        out = tmp_path / "p.csv"
        for flags in (
            ["--s", "3", "--density", "0.25"], ["--s", "3", "--config", str(config)],
        ):
            assert main(["pipeline", *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--density" in err
            assert not out.exists()

    @pytest.mark.parametrize("flags, cell", [
        ([], {}),
        (["--noise-std", "0.1"], {"noise_std": 0.1}),
        (["--lr", "0.05"], {"lr": 0.05}),
        (["--steps", "0"], {"steps": 0}),
    ])
    def test_rows_equal_cells_drawn_from_scratch(self, tmp_path, flags, cell):
        # the cells of a seed share its data, w0 and step size;
        # sharing them must give what drawing them per cell gives, bit for bit
        out = tmp_path / "p.csv"
        assert main([
            "pipeline", "--d", "16", "--n", "8", "--s", "2,5", "--trials", "2",
            "--seed", "3", *flags, "--out", str(out),
        ]) == 0
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert len(rows) == 2 * len(METHODS) * 2
        for row in rows:
            seed, s, method = int(row[1]), int(row[4]), row[5]
            want = reference_cell(16, 8, s, method, seed, **cell)
            assert [row[6], row[7], row[10]] == [cli._cell(v) for v in want]

    @pytest.mark.parametrize("steps, eigen_calls", [("100", 2), ("0", 0)])
    def test_seed_state_drawn_once_per_seed(
        self, tmp_path, monkeypatch, steps, eigen_calls
    ):
        calls = {}

        def count(module, name):
            fn = getattr(module, name)
            calls[name] = 0

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(cli, "run_prune_pipeline")
        for name in (
            "make_dataset", "gen_normal_X", "max_hessian_eigenvalue",
            "train_least_squares",
        ):
            count(experiments, name)
        assert main([
            "pipeline", "--d", "16", "--n", "8", "--s", "2,5", "--trials", "2",
            "--steps", steps, "--out", str(tmp_path / "p.csv"),
        ]) == 0
        # per seed one dataset, no test matrix and one fit
        cells = 2 * len(METHODS) * 2
        assert calls == {
            "run_prune_pipeline": cells, "train_least_squares": 2,
            "make_dataset": 2, "gen_normal_X": 2,
            "max_hessian_eigenvalue": eigen_calls,
        }

    def test_wide_run_holds_one_matrix(self, tmp_path):
        # The 16384 x 64 training matrix is 8 MiB; a test matrix or a dense
        # d x n probe would add another 8 MiB each.
        tracemalloc.start()
        try:
            code = main([
                "pipeline", "--d", "16384", "--n", "64", "--s", "64",
                "--trials", "1", "--out", str(tmp_path / "p.csv"),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * 8 * 2**20

    def test_overflowing_step_size_is_divergence(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "pipeline", "--d", "8", "--n", "4", "--s", "2", "--trials", "1",
                "--steps", "5", "--lr", "1e300", "--out", str(out),
            ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: loss is not finite at step ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_loss_overflowing_before_training_is_divergence_at_step_0(
        self, tmp_path, capsys
    ):
        # finite labels whose squared loss overflows are no fault of the step size
        out = tmp_path / "p.csv"
        code = main([
            "pipeline", "--d", "3", "--n", "3", "--noise-std", "1e300",
            "--trials", "1", "--s", "1", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: loss is not finite at step 0 (lr=")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_budget_beyond_dimension(self, tmp_path):
        code = main([
            "pipeline", "--d", "4", "--s", "9", "--out", str(tmp_path / "p.csv"),
        ])
        assert code == 2


class TestHistogramCommand:
    def test_counts_partition_weights(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main([
            "histogram", "--d", "128", "--density", "0.125", "--bins", "10",
            "--method", "topk-synflow", "--out", str(out),
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == ",".join(HISTOGRAM_HEADER)
        assert len(lines) == 11
        rows = [line.split(",") for line in lines[1:]]
        assert sum(int(r[3]) for r in rows) == 128
        assert sum(int(r[2]) for r in rows) == 16
        assert float(rows[0][0]) == 0.0

    def test_wide_run_holds_no_matrix(self, tmp_path):
        # The d x 128 matrix would be 64 MiB by itself; its norms are drawn a
        # block of rows at a time, and the d-vectors take 0.5 MiB each.
        tracemalloc.start()
        try:
            code = main(["histogram", "--d", "65536", "--out", str(tmp_path / "h.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_wide_run_peaks_at_five_d_vectors(self, tmp_path):
        # The peak is in select_randomized, where w, the norms, the scores,
        # the keys and the scores' logs are live, 0.5 MiB each: the arrays
        # the library builds are handed over frozen, not copied, and the keys
        # are computed in the uniform draw's buffer. Those five and about
        # 0.1 MiB of smaller arrays (the bins, numpy's temporaries) measured
        # 2.60 MiB; the bound leaves room for one more d-vector. Copying the
        # library's arrays and the positive entries read 4.11 MiB. A narrow
        # run first makes the one-time allocations, such as numpy.random's
        # import.
        d_vector = 65536 * 8
        assert main(["histogram", "--d", "64", "--out", str(tmp_path / "w.csv")]) == 0
        tracemalloc.start()
        try:
            code = main(["histogram", "--d", "65536", "--out", str(tmp_path / "h.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < int(2.6 * 2**20) + d_vector

    def test_many_bins_hold_no_csv_text(self, tmp_path):
        # Each bin's line is written as it is made: 400000 bins take 40
        # bytes each in arrays, where the whole CSV text held three times
        # took 208.
        out = tmp_path / "h.csv"
        tracemalloc.start()
        try:
            code = main(
                ["histogram", "--d", "1024", "--bins", "400000", "--out", str(out)]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 24 * 2**20
        assert out.read_bytes().count(b"\n") == 400_001

    def test_sparse_snip_matches_the_dense_probe(self, tmp_path, monkeypatch):
        # the O(d) probe must select what scoring a dense gen_sparse_X
        # probe selects, so the CSV keeps every byte
        def dense(norms, n, w, s, rng):
            probe = gen_sparse_X(norms.size, n, rng)
            return select_randomized(snip_scores_l1(probe, np.zeros(n), w), s, rng)

        args = ["histogram", "--method", "randomized-snip-sparse", "--d", "4096"]
        for seed in ("0", "1", "2"):
            a, b = tmp_path / f"a{seed}.csv", tmp_path / f"b{seed}.csv"
            assert main(args + ["--seed", seed, "--out", str(a)]) == 0
            with monkeypatch.context() as m:
                m.setitem(
                    MASK_METHODS, "randomized-snip-sparse",
                    MaskMethod("randomized-snip-sparse", dense),
                )
                assert main(args + ["--seed", seed, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_fractional_mask_methods_rejected(self, tmp_path, capsys):
        # an unknown method is refused the same way, by flag or by config
        config = tmp_path / "c.json"
        out = tmp_path / "h.csv"
        for method in ("sketch-p0", "sketch-uniform", "bogus"):
            config.write_text(json.dumps({"method": method}))
            for argv in (["--method", method], ["--config", str(config)]):
                assert main(["histogram", *argv, "--out", str(out)]) == 2
                assert capsys.readouterr().err == (
                    "error: histogram needs a binary-mask method, one of "
                    f"{', '.join(cli.HISTOGRAM_METHODS)}\n"
                )
                assert not out.exists()

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def rows(settings):
            yield (0.0, 1.0, 0, 1)
            raise OSError("disk went away")

        monkeypatch.setattr(cli, "_cmd_histogram", rows)
        out = tmp_path / "h.csv"
        assert main(["histogram", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: disk went away\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_reports_the_write_error(self, tmp_path, capsys, monkeypatch):
        # the temporary file cannot be removed either; the write's error,
        # not the removal's, is the one reported
        def rows(settings):
            yield (0.0, 1.0, 0, 1)
            raise OSError("disk went away")

        def stuck(path):
            raise OSError("cannot remove the temporary file")

        monkeypatch.setattr(cli, "_cmd_histogram", rows)
        monkeypatch.setattr(cli.os, "unlink", stuck)
        out = tmp_path / "h.csv"
        assert main(["histogram", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: disk went away\n"
        assert not out.exists()


class TestNtkDemoCommand:
    def test_writes_one_row(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = main([
            "ntk-demo", "--width", "8", "--steps", "20", "--trials", "30",
            "--out", str(out),
        ])
        assert code == 0
        lines = read_lines(out)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "ntk-demo"
        assert float(row[6]) <= float(row[7])
        assert "lambda_min=" in capsys.readouterr().out

    def test_matches_the_verify_row(self, tmp_path):
        # verify's ntk/masked-error-bound is the demo's row at its defaults
        verify_out, demo_out = tmp_path / "v.csv", tmp_path / "n.csv"
        assert main(["verify", "--methods", "ntk", "--seed", "5",
                     "--out", str(verify_out)]) == 0
        assert main(["ntk-demo", "--seed", "5", "--out", str(demo_out)]) == 0
        verify_rows = {
            line.split(",")[0]: line.split(",") for line in read_lines(verify_out)[1:]
        }
        demo_row = read_lines(demo_out)[1].split(",")
        cells = [RESULT_HEADER.index(name) for name in (
            "d", "n", "s", "empirical_error", "bound", "kind", "standard_error",
            "distance",
        )]
        masked = verify_rows["ntk/masked-error-bound"]
        assert [masked[k] for k in cells] == [demo_row[k] for k in cells]

    def test_singular_kernel_is_refused_before_any_jacobian_or_mask(
        self, tmp_path, capsys, monkeypatch
    ):
        # at width 1 the 8 x 8 kernel has rank at most 5; only the snapshot's
        # Jacobian is computed and no mask is drawn before the refusal
        from sketchprune import ntk

        calls = {"analytic_jacobian": 0, "mc_error_over_masks": 0}

        def counted(name):
            original = getattr(ntk, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ntk, name, counted(name))
        out = tmp_path / "n.csv"
        assert main(["ntk-demo", "--width", "1", "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: empirical kernel is singular; the bound is undefined\n"
        )
        assert calls == {"analytic_jacobian": 1, "mc_error_over_masks": 0}
        assert not out.exists()

    def test_budget_validation(self, tmp_path, capsys, monkeypatch):
        # checked against the 40 parameters at width 8 before the network
        # is drawn, and pipeline's against its default d = 64 before any
        # seed is drawn, by flag or by config, by the library's budget rule
        def never(*args):
            raise AssertionError("the network or a seed was drawn")

        monkeypatch.setattr(cli, "_ntk_instance", never)
        monkeypatch.setattr(cli, "seed_state", never)
        config = tmp_path / "c.json"
        out = tmp_path / "n.csv"
        cases = [("ntk-demo", {"width": 8, "s": s}, 40) for s in (100000, 41, 0)]
        cases.append(("pipeline", {"s": "65"}, 64))
        for command, settings, top in cases:
            config.write_text(json.dumps(settings))
            flags = [f"--{key}={value}" for key, value in settings.items()]
            refusal = f"error: budget must lie in [1, {top}], got {settings['s']}\n"
            for argv in (flags, ["--config", str(config)]):
                assert main([command, *argv, "--out", str(out)]) == 2
                assert capsys.readouterr().err == refusal
                assert not out.exists()

    def test_refuses_a_width_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the network was allocated")

        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**16)
        monkeypatch.setattr(cli.TinyMLP, "init", never)
        out = tmp_path / "n.csv"
        code = main(["ntk-demo", "--width", "64", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --width 64 --steps 100 --trials 200 needs about ")
        assert err.count("\n") == 1
        assert "physical memory" in err
        assert not out.exists()


class TestConfigResolution:
    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"d": 12, "n": 6, "s": "3", "trials": 1,
                                      "methods": "sketch-p0"}))
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--config", str(config), "--out", str(out)])
        assert code == 0
        row = read_lines(out)[1].split(",")
        assert (row[2], row[3], row[4]) == ("12", "6", "3")

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"d": 12, "n": 6, "s": "3", "trials": 1,
                                      "methods": "sketch-p0"}))
        out = tmp_path / "p.csv"
        code = main([
            "pipeline", "--config", str(config), "--d", "20", "--out", str(out),
        ])
        assert code == 0
        assert read_lines(out)[1].split(",")[2] == "20"

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"granularity": 3}))
        code = main(["pipeline", "--config", str(config),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "granularity" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert main(["pipeline", "--config", str(config)]) == 2

    @pytest.mark.parametrize("content, message", [
        (None, "error: cannot read config file: "),
        (b"[1, 2]", "error: config file must hold a JSON object\n"),
        (b"\xff\xfe{}", "error: config file is not valid JSON: "),
        # beyond Python's limit on the digits of an integer literal
        pytest.param(b'{"d": ' + b"9" * 5000 + b"}",
                     "error: config file is not valid JSON: ", id="5000-digits"),
    ])
    def test_unreadable_or_non_object_config(self, tmp_path, capsys, content, message):
        config = tmp_path / "c.json"
        if content is not None:
            config.write_bytes(content)
        out = tmp_path / "p.csv"
        assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKETCHPRUNE_SEED", "31")
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--d", "8", "--n", "4", "--s", "2",
                     "--methods", "sketch-p0", "--trials", "1", "--out", str(out)])
        assert code == 0
        assert read_lines(out)[1].split(",")[1] == "31"

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKETCHPRUNE_SEED", "31")
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--d", "8", "--n", "4", "--s", "2", "--seed", "5",
                     "--methods", "sketch-p0", "--trials", "1", "--out", str(out)])
        assert code == 0
        assert read_lines(out)[1].split(",")[1] == "5"

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKETCHPRUNE_SEED", "many")
        assert main(["pipeline", "--out", str(tmp_path / "p.csv")]) == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_threads_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--threads", "2", "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2

    def test_threads_config_key_removed(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"threads": 1}))
        code = main(["pipeline", "--config", str(config),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "threads" in capsys.readouterr().err

    def test_long_options(self):
        _, commands = cli._build_parser()
        options = {
            command: {
                name for action in parser._actions for name in action.option_strings
                if name.startswith("--") and name != "--help"
            }
            for command, parser in commands.items()
        }
        common = {"--seed", "--out", "--config"}
        assert options == {
            "verify": common | {"--methods", "--trials"},
            "pipeline": common | {
                "--d", "--n", "--s", "--density", "--methods", "--trials",
                "--noise-std", "--steps", "--lr",
            },
            "histogram": common | {"--d", "--density", "--method", "--bins"},
            "ntk-demo": common | {"--width", "--s", "--steps", "--trials"},
        }
        assert "wall_time_ms" not in RESULT_HEADER

    @pytest.mark.parametrize("command", ["verify", "pipeline", "histogram", "ntk-demo"])
    def test_timing_flag_removed(self, tmp_path, capsys, command):
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--timing", "--out", str(out)])
        assert exc.value.code == 2
        capsys.readouterr()
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"timing": True}))
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert "'timing'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--method", "sketch-p0"],
        ["pipeline", "--meth", "sketch-p0"],
        ["verify", "--tri", "2"],
        ["verify", "--width", "8"],
    ])
    def test_only_declared_spellings(self, tmp_path, capsys, argv):
        # argparse would otherwise read a unique prefix as the full flag
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value", [
        ("pipeline", "config", "x.json"),
        ("verify", "config", "x.json"),
        ("verify", "width", 64),
    ])
    def test_config_keys_are_settings(self, tmp_path, capsys, command, key, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "o.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_method_config_key_removed(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"method": "sketch-p0"}))
        code = main(["pipeline", "--config", str(config),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "'method'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value", [("out", 3), ("d", 8.7), ("d", True)]
    )
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        code = main(["pipeline", "--config", str(config),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert f"{key}=" in capsys.readouterr().err

    def test_int_config_value_for_float_flag(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"lr": 1, "steps": 0}))
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--config", str(config), "--d", "8", "--n", "4",
                     "--s", "2", "--methods", "sketch-p0", "--trials", "1",
                     "--out", str(out)])
        assert code == 0


class TestExitCodes:
    def test_divergence_is_a_failed_run(self, tmp_path, capsys):
        code = main(["pipeline", "--d", "8", "--n", "4", "--s", "2", "--trials", "1",
                     "--lr", "100", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_of_memory_is_a_failed_run(self, tmp_path, capsys, monkeypatch):
        def exhausted(settings):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_histogram", exhausted)
        code = main(["histogram", "--out", str(tmp_path / "h.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["pipeline", "histogram"])
    @pytest.mark.parametrize("density", ["inf", "nan", "0", "1.5"])
    def test_density_outside_unit_interval(self, tmp_path, capsys, command, density):
        out = tmp_path / "o.csv"
        assert main([command, "--density", density, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "density" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("flag", ["--lr", "--noise-std"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_training_setting(self, tmp_path, capsys, flag, value):
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--d", "8", "--n", "4", "--s", "2", "--trials", "1",
                     flag, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert {"--lr": "learning rate", "--noise-std": "noise level"}[flag] in err
        assert not out.exists()


    # With 1 MiB of memory, each command fits at its defaults, and is refused
    # before its first allocation when one flag that sizes its arrays grows.
    @pytest.mark.parametrize("argv, first_allocation, flags", [
        (["pipeline", "--d", "512", "--n", "256"], "seed_state", "--d 512 --n 256"),
        (["histogram", "--d", "6000"], "RngStream", "--d 6000 --bins 50"),
        (["histogram", "--bins", "10000"], "RngStream", "--d 1024 --bins 10000"),
        (["ntk-demo", "--steps", "60000"], "_ntk_instance",
         "--width 64 --steps 60000 --trials 200"),
    ])
    def test_refuses_a_run_beyond_physical_memory(
        self, tmp_path, capsys, monkeypatch, argv, first_allocation, flags
    ):
        def never(*args):
            raise AssertionError("the run allocated")

        monkeypatch.setattr(cli, "_physical_memory", lambda: 2**20)
        assert main([argv[0], "--out", str(tmp_path / "fits.csv")]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli, first_allocation, never)
        out = tmp_path / "o.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flags} needs about ") and err.count("\n") == 1
        assert "physical memory" in err
        assert not out.exists()

    @staticmethod
    def _refuses_size_beyond_float_range(capsys, out, command, flag):
        # refused by its memory estimate, an integer never converted to
        # float, before any value is derived from the size
        huge = "1" + "0" * 400
        assert main([command, flag, huge, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1
        assert f"{flag} {huge} " in err and " needs about " in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("histogram", "--d"), ("ntk-demo", "--width"), ("histogram", "--bins"),
        ("ntk-demo", "--trials"), ("verify", "--trials"),
    ], ids=["--d", "--width", "--bins", "--trials", "verify--trials"])
    def test_size_beyond_float_range(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o.csv"
        self._refuses_size_beyond_float_range(capsys, out, command, flag)

    def test_every_command_estimates_its_memory(self):
        # from flags the command declares
        _, commands = cli._build_parser()
        for command, subparser in commands.items():
            names, _ = cli._MEMORY[command]
            flags = {name for action in subparser._actions
                     for name in action.option_strings}
            assert {f"--{name}" for name in names} <= flags, command
        assert set(cli._MEMORY) == set(commands)

    def test_verify_trials_beyond_physical_memory(self, tmp_path, capsys, monkeypatch):
        # refused before any suite runs; each would keep one error per trial
        # or, in synflow-equiv, loop over them without end
        def never(rng, trials):
            raise AssertionError("a suite ran")

        for name, (_, stream, default_trials) in dict(cli._SUITES).items():
            monkeypatch.setitem(cli._SUITES, name, (never, stream, default_trials))
        huge = "100000000000000000000000"
        out = tmp_path / "v.csv"
        assert main(["verify", "--trials", huge, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --trials {huge} needs about ")
        assert "physical memory" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--d", "--n"])
    def test_pipeline_size_beyond_float_range(self, tmp_path, capsys, flag):
        out = tmp_path / "o.csv"
        self._refuses_size_beyond_float_range(capsys, out, "pipeline", flag)

    @pytest.mark.parametrize("command, key, low", [
        ("verify", "trials", 2),
        ("pipeline", "trials", 1),
        ("pipeline", "d", 1),
        ("pipeline", "n", 1),
        ("pipeline", "steps", 0),
        ("histogram", "bins", 1),
        ("histogram", "d", 1),
        ("ntk-demo", "width", 1),
        ("ntk-demo", "steps", 0),
        ("ntk-demo", "trials", 2),
    ])
    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_value_below_its_minimum(
        self, tmp_path, capsys, command, key, low, by_config
    ):
        assert self._declared_minimums()[command, key] == low
        out = tmp_path / "o.csv"
        if by_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({key: low - 1}))
            argv = [command, "--config", str(config)]
        else:
            argv = [command, f"--{key}", str(low - 1)]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must be >= {low}, got {low - 1}\n"
        assert not out.exists()

    @staticmethod
    def _integer_flags() -> dict:
        """The action of each type=int flag, by (command, dest)."""
        _, commands = cli._build_parser()
        return {
            (command, action.dest): action
            for command, subparser in commands.items()
            for action in subparser._actions
            if action.type is int
        }

    @classmethod
    def _declared_minimums(cls) -> dict:
        return {
            key: action.minimum
            for key, action in cls._integer_flags().items()
            if hasattr(action, "minimum")
        }

    def test_declared_minimums(self):
        # every integer flag but ntk-demo's --s, a budget, declares its minimum
        expected = {(command, "seed"): 0 for command, _ in self._integer_flags()}
        expected.update({
            ("verify", "trials"): 2,
            ("pipeline", "d"): 1, ("pipeline", "n"): 1,
            ("pipeline", "trials"): 1, ("pipeline", "steps"): 0,
            ("histogram", "d"): 1, ("histogram", "bins"): 1,
            ("ntk-demo", "width"): 1, ("ntk-demo", "steps"): 0,
            ("ntk-demo", "trials"): 2,
        })
        assert self._declared_minimums() == expected
        assert set(self._integer_flags()) == set(expected) | {("ntk-demo", "s")}

    @pytest.mark.parametrize("argv, message", [
        (["--bins", "0", "--d", "0", "--seed=-1"], "seed must be >= 0, got -1"),
        (["--bins", "0", "--d", "0"], "d must be >= 1, got 0"),
    ])
    def test_first_declared_minimum_is_named_first(self, tmp_path, capsys, argv, message):
        # in declaration order, whatever the order on the command line
        out = tmp_path / "o.csv"
        assert main(["histogram", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "pipeline"])
    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_empty_methods_list_names_nothing(
        self, tmp_path, capsys, command, by_config
    ):
        # an empty list is given, not absent, so it does not select every item
        out = tmp_path / "o.csv"
        if by_config:
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"methods": ""}))
            argv = [command, "--config", str(config)]
        else:
            argv = [command, "--methods", ""]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --methods lists nothing: ''\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, source):
        out = tmp_path / "p.csv"
        argv = ["pipeline", "--out", str(out)]
        if source == "flag":
            argv.append("--seed=-1")
        elif source == "config":
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"seed": -1}))
            argv += ["--config", str(config)]
        else:
            monkeypatch.setenv("SKETCHPRUNE_SEED", "-1")
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_names_the_noise_level(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        # at the default 32 examples, some of seed 0's noise draws overflow
        code = main(["pipeline", "--seed", "0", "--trials", "1",
                     "--noise-std", "1e308", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: labels overflow at noise level 1e+308\n"
        assert not out.exists()


class TestDeterminism:
    def test_pipeline_repeat_is_byte_identical(self, tmp_path):
        args = ["pipeline", "--d", "10", "--n", "6", "--s", "3", "--trials", "2",
                "--methods", "sketch-p0,randomized-synflow", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
