import json

import pytest

from sketchprune import cli
from sketchprune.cli import (
    HISTOGRAM_HEADER,
    RESULT_HEADER,
    VERIFY_SUITES,
    main,
)


def read_lines(path):
    return path.read_text().splitlines()


class TestVerifyCommand:
    def test_single_suite_passes(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--methods", "lemma3", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == ",".join(RESULT_HEADER) + ",passed"
        assert len(lines) == 3
        assert all(line.endswith(",true") for line in lines[1:])

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
        # an empty list selects nothing, which is as much a usage error
        for methods, named in (("lemma9", "lemma9"), (",", "--methods")):
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

    def test_all_suites_listed(self):
        assert set(VERIFY_SUITES) == {
            "lemma1", "lemma2", "lemma3", "theorem1", "lemma4",
            "synflow-equiv", "snip-equiv", "ntk",
        }


class TestPipelineCommand:
    def test_row_grid_and_sorting(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main([
            "pipeline", "--d", "12", "--n", "8", "--s", "3,6",
            "--methods", "sketch-p0,topk-synflow", "--trials", "2",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[0] == ",".join(RESULT_HEADER)
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 2 * 2
        keys = [(int(r[1]), r[5], int(r[4])) for r in rows]
        assert keys == sorted(keys)
        assert {r[1] for r in rows} == {"7", "8"}
        assert all(r[11] == "0" for r in rows)

    def test_density_flag_sets_budget(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main([
            "pipeline", "--d", "10", "--n", "4", "--density", "0.25",
            "--method", "sketch-p0", "--trials", "1", "--out", str(out),
        ])
        assert code == 0
        row = read_lines(out)[1].split(",")
        assert row[4] == "3"

    def test_unknown_method(self, tmp_path, capsys):
        # empty method and keep-count lists select nothing
        for flags in (["--method", "oracle"], ["--methods", ","], ["--s", ","]):
            out = tmp_path / "p.csv"
            assert main(["pipeline", *flags, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
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

    def test_fractional_mask_methods_rejected(self, tmp_path):
        for method in ("sketch-p0", "sketch-uniform"):
            code = main([
                "histogram", "--method", method, "--out", str(tmp_path / "h.csv"),
            ])
            assert code == 2


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

    def test_budget_validation(self, tmp_path):
        for s in ("100000", "0"):
            code = main([
                "ntk-demo", "--width", "8", "--s", s,
                "--out", str(tmp_path / "n.csv"),
            ])
            assert code == 2


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

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKETCHPRUNE_SEED", "31")
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--d", "8", "--n", "4", "--s", "2",
                     "--method", "sketch-p0", "--trials", "1", "--out", str(out)])
        assert code == 0
        assert read_lines(out)[1].split(",")[1] == "31"

    def test_flag_beats_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKETCHPRUNE_SEED", "31")
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--d", "8", "--n", "4", "--s", "2", "--seed", "5",
                     "--method", "sketch-p0", "--trials", "1", "--out", str(out)])
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

    @pytest.mark.parametrize(
        "key,value", [("timing", "false"), ("d", 8.7), ("d", True)]
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
                     "--s", "2", "--method", "sketch-p0", "--trials", "1",
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


class TestDeterminism:
    def test_pipeline_repeat_is_byte_identical(self, tmp_path):
        args = ["pipeline", "--d", "10", "--n", "6", "--s", "3", "--trials", "2",
                "--methods", "sketch-p0,randomized-synflow", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_timing_flag_fills_wall_time(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["pipeline", "--d", "10", "--n", "6", "--s", "3", "--trials", "1",
                     "--method", "sketch-p0", "--timing", "--out", str(out)])
        assert code == 0
        assert float(read_lines(out)[1].split(",")[11]) > 0.0
