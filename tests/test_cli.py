import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import QhullError

from robustmean import cli, netmax
from robustmean.bench import METHOD_NAMES, METHODS, RunContext

ROOT = Path(__file__).resolve().parent.parent

# A records file's header and one record, as ``bench run`` writes them.
HEADER = "method,family,n,p,delta,epsilon,trial_index,loss,failed"
GOOD = "mean,gaussian,40,1,0.10000000000000001,0,0,0.5,0"


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    np.savetxt(path, rng.standard_normal((100, 2)) + [1.0, -1.0],
               delimiter=",")
    return path


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_mean(self, data_csv, capsys):
        code, out, _ = run(
            ["estimate", "--method", "mean", "--in", str(data_csv)], capsys)
        assert code == 0
        vals = [float(x) for x in out.strip().split(",")]
        expected = np.loadtxt(data_csv, delimiter=",").mean(axis=0)
        np.testing.assert_allclose(vals, expected)

    def test_filter_fixed_steps(self, data_csv, capsys):
        code, out, _ = run(
            ["estimate", "--method", "filter", "--in", str(data_csv),
             "--steps", "3", "--stop-mode", "fixed_steps", "--seed", "7"],
            capsys)
        assert code == 0
        vals = [float(x) for x in out.strip().split(",")]
        assert abs(vals[0] - 1.0) < 0.5

    def test_interval_on_one_column(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        rng = np.random.default_rng(1)
        np.savetxt(path, rng.standard_normal(400) + 2.0, delimiter=",")
        code, out, _ = run(
            ["estimate", "--method", "interval", "--in", str(path),
             "--epsilon", "0.02", "--delta", "0.05"], capsys)
        assert code == 0
        assert abs(float(out.strip()) - 2.0) < 0.5

    def test_interval_wrong_shape_exits_2(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "interval", "--in", str(data_csv)],
            capsys)
        assert code == 2
        assert "configuration error" in err

    def test_oracle_without_radius_exits_2(self, data_csv, capsys):
        code, _, _ = run(
            ["estimate", "--method", "oracle", "--in", str(data_csv)], capsys)
        assert code == 2

    def test_oracle_empty_ball_exits_3(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "oracle", "--in", str(data_csv),
             "--radius", "0.0001", "--true-mean", "500,500"], capsys)
        assert code == 3
        assert "estimator failure" in err

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_non_finite_input_exits_2(self, tmp_path, capsys, method):
        # Each method with the flags it needs: it runs on the finite column.
        flags = {"oracle": ["--radius", "3"], "interval": ["--epsilon", "0.02"],
                 "net": ["--epsilon", "0.02"], "srm": ["--epsilon", "0.1"]}
        path = tmp_path / "nan.csv"
        values = np.random.default_rng(2).standard_normal(
            20 if method == "srm" else 400)
        argv = ["estimate", "--method", method, "--in", str(path),
                "--delta", "0.05"] + flags.get(method, [])
        np.savetxt(path, values, delimiter=",")
        assert run(argv, capsys)[0] == 0
        values[13] = np.nan
        np.savetxt(path, values, delimiter=",")
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "configuration error" in err and "finite" in err

    @pytest.mark.parametrize("argv, named", [
        (["--method", "mean", "--delta", "5"], "delta"),
        (["--method", "srm", "--delta", "5"], "delta"),
        (["--method", "oracle", "--radius", "3", "--true-mean", "nan,0"],
         "center"),
        (["--method", "filter", "--cov-bound", "nan"], "cov_bound"),
        (["--method", "filter", "--cov-bound", "inf"], "cov_bound"),
        (["--method", "oracle", "--radius", "inf"], "radius"),
    ], ids=["mean-delta", "srm-delta", "nan-center", "nan-cov-bound",
            "inf-cov-bound", "inf-radius"])
    def test_value_out_of_range_exits_2(self, tmp_path, capsys, argv, named):
        # Before, these exited 0 (the value unread or harmless) or 3 (an
        # estimator failure); srm's data has n <= 25 so only delta is wrong.
        path = tmp_path / "data.csv"
        np.savetxt(path, np.random.default_rng(3).standard_normal((20, 2)),
                   delimiter=",")
        code, _, err = run(["estimate", "--in", str(path)] + argv, capsys)
        assert code == 2
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("stop_mode", ["threshold", "capped"])
    def test_threshold_stop_without_bound_exits_2(self, data_csv, capsys,
                                                  stop_mode):
        code, _, err = run(
            ["estimate", "--method", "filter", "--in", str(data_csv),
             "--stop-mode", stop_mode, "--steps", "5"], capsys)
        assert code == 2
        assert "cov_bound" in err

    def test_zero_blocks_exits_2(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "gmom", "--in", str(data_csv),
             "--blocks", "0"], capsys)
        assert code == 2
        assert "blocks with n=100 must lie in [1, 101)" in err

    def test_flag_the_method_does_not_read_exits_2(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "filter", "--in", str(data_csv),
             "--blocks", "4"], capsys)
        assert code == 2
        assert "'blocks'" in err

    @pytest.mark.parametrize("method, flag, value", [
        ("mean", "--epsilon", "0.3"),
        ("mean", "--true-mean", "5,5"),
        ("filter", "--epsilon", "0.3"),
    ])
    def test_context_flag_the_method_does_not_read_exits_2(
            self, data_csv, capsys, method, flag, value):
        code, _, err = run(
            ["estimate", "--method", method, "--in", str(data_csv),
             flag, value], capsys)
        assert code == 2
        assert flag in err

    def test_oracle_center_of_wrong_length_exits_2(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "oracle", "--in", str(data_csv),
             "--radius", "3", "--true-mean", "5"], capsys)
        assert code == 2
        assert "center" in err

    def test_oracle_nan_radius_exits_2(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "oracle", "--in", str(data_csv),
             "--radius", "nan"], capsys)
        assert code == 2
        assert "radius" in err

    def test_blocks_over_n_exits_2(self, data_csv, capsys):
        code, _, err = run(
            ["estimate", "--method", "gmom", "--in", str(data_csv),
             "--blocks", "1000"], capsys)
        assert code == 2
        assert "blocks with n=100 must lie in [1, 101)" in err

    def test_net(self, data_csv, capsys):
        code, out, _ = run(
            ["estimate", "--method", "net", "--in", str(data_csv),
             "--delta", "0.1"], capsys)
        assert code == 0
        vals = np.array([float(x) for x in out.strip().split(",")])
        assert np.linalg.norm(vals - [1.0, -1.0]) < 1.5

    def test_net_on_values_past_highs_infinity(self, data_csv, tmp_path,
                                               capsys):
        # HiGHS reads any |b| >= 1e20 as infinite: unscaled targets of this
        # size were a "Model error" (exit 3).
        big = tmp_path / "big.csv"
        np.savetxt(big, 1e20 * np.loadtxt(data_csv, delimiter=","),
                   delimiter=",")
        argv = ["estimate", "--method", "net", "--delta", "0.1", "--in"]
        _, out, _ = run(argv + [str(data_csv)], capsys)
        code, big_out, _ = run(argv + [str(big)], capsys)
        assert code == 0
        np.testing.assert_allclose(
            [float(x) for x in big_out.strip().split(",")],
            [1e20 * float(x) for x in out.strip().split(",")], rtol=1e-12)

    def test_net_hull_failure_exits_3(self, data_csv, capsys, monkeypatch):
        def fail(*args):
            raise QhullError("QH6023 qhull input error")

        monkeypatch.setattr(netmax, "HalfspaceIntersection", fail)
        code, _, err = run(
            ["estimate", "--method", "net", "--in", str(data_csv)], capsys)
        assert code == 3
        assert "estimator failure: minimax hull failed: QH6023" in err

    @pytest.mark.parametrize("argv", [
        ["--method", "coord"],
        ["--method", "filter"],
        ["--method", "net", "--inner", "filter1d"],
        ["--method", "filter", "--steps", "0"],
        ["--method", "filter", "--stop-mode", "threshold", "--cov-bound", "1"],
    ])
    def test_one_row_exits_2_naming_n(self, tmp_path, capsys, argv):
        path = tmp_path / "one_row.csv"
        np.savetxt(path, [[1.0, -1.0]], delimiter=",")
        code, _, err = run(["estimate", "--in", str(path)] + argv, capsys)
        assert code == 2
        assert "n=1" in err and "steps" not in err


def test_python_dash_m_runs_the_cli():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result = subprocess.run(
        [sys.executable, "-m", "robustmean", "estimate", "--help"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert "--method" in result.stdout


# (method, rows, columns, settings, context) for the parity test; each
# setting is passed as the flag of the same name.
PARITY_CASES = [
    ("mean", 100, 2, {}, {}),
    ("gmom", 100, 2, {"blocks": 7}, {}),
    ("coord", 100, 2, {}, {"seed": 4}),
    ("filter", 100, 2, {"stop_mode": "capped", "cov_bound": 0.5 * 2.0 / 32,
                        "steps": 10}, {"seed": 4}),
    ("oracle", 100, 2, {"radius": 2.5}, {"center": [1.0, -1.0]}),
    ("interval", 400, 1, {}, {"epsilon": 0.02}),
    ("net", 100, 2, {"inner": "filter1d"}, {"epsilon": 0.05, "seed": 4}),
    ("srm", 20, 2, {}, {"epsilon": 0.1}),
]


class TestParity:
    def test_method_choices_are_the_table(self):
        parser = cli._build_parser()
        estimate = parser._subparsers._group_actions[0].choices["estimate"]
        method = next(a for a in estimate._actions if a.dest == "method")
        assert tuple(method.choices) == tuple(METHODS)

    def test_setting_flags_are_the_table(self):
        parser = cli._build_parser()
        estimate = parser._subparsers._group_actions[0].choices["estimate"]
        flags = {a.option_strings[0]: a for a in estimate._actions}
        for name, runner in METHODS.items():
            for key, kind in runner.settings.items():
                action = flags["--" + key.replace("_", "-")]
                assert action.default is None and name in action.help
                if isinstance(kind, tuple):
                    assert tuple(action.choices) == kind
                else:
                    assert action.type is kind
        assert sorted(flags) == sorted(
            ["-h", "--method", "--in", "--epsilon", "--delta", "--seed",
             "--true-mean", "--blocks", "--stop-mode", "--cov-bound",
             "--steps", "--radius", "--inner",
             "--sparsity"])

    def test_cases_cover_every_method(self):
        assert [case[0] for case in PARITY_CASES] == list(METHODS)

    @pytest.mark.parametrize("name, n, p, settings, context", PARITY_CASES,
                             ids=[case[0] for case in PARITY_CASES])
    def test_cli_prints_the_runner_estimate(self, tmp_path, capsys, name, n,
                                            p, settings, context):
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(6)
        np.savetxt(path, rng.standard_t(3, size=(n, p)) + 1.0, delimiter=",")
        ctx = RunContext(delta=0.1, **context)
        argv = ["estimate", "--method", name, "--in", str(path),
                "--delta", str(ctx.delta), "--seed", str(ctx.seed)]
        if "epsilon" in context:
            argv += ["--epsilon", str(ctx.epsilon)]
        if ctx.center is not None:
            argv += ["--true-mean", ",".join(map(str, ctx.center))]
        for key, value in settings.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        code, out, _ = run(argv, capsys)
        assert code == 0

        data = np.loadtxt(path, delimiter=",", ndmin=2)
        expected = METHODS[name](data, settings, ctx)
        assert out.strip() == ",".join(f"{x:.17g}" for x in expected)


class TestCover:
    def test_build_writes_certified_cover(self, tmp_path, capsys):
        out_path = tmp_path / "cover.csv"
        code, out, _ = run(
            ["cover", "build", "--p", "2", "--out", str(out_path)], capsys)
        assert code == 0
        dirs = np.loadtxt(out_path, delimiter=",")
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0)

    @pytest.mark.parametrize("sparsity", ["0", "-1"])
    def test_sparsity_below_one_exits_2(self, tmp_path, capsys, sparsity):
        out_path = tmp_path / "cover.csv"
        code, _, err = run(
            ["cover", "build", "--p", "3", "--sparsity", sparsity,
             "--out", str(out_path)], capsys)
        assert code == 2
        assert "sparsity" in err
        assert not out_path.exists()

    def test_sparse_build(self, tmp_path, capsys):
        out_path = tmp_path / "cover.csv"
        code, _, _ = run(
            ["cover", "build", "--p", "6", "--sparsity", "1",
             "--out", str(out_path)], capsys)
        assert code == 0
        dirs = np.loadtxt(out_path, delimiter=",")
        assert np.count_nonzero(dirs, axis=1).max() <= 2


class TestBench:
    def test_run_then_summarize(self, tmp_path, capsys):
        config = {
            "distribution": {"family": "lognormal", "p": 2},
            "methods": [{"name": "mean"}],
            "n_values": [30],
            "p_values": [2],
            "delta": 0.1,
            "trials": 3,
            "master_seed": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rec_path = tmp_path / "records.csv"
        code, _, _ = run(
            ["bench", "run", "--config", str(cfg_path),
             "--out", str(rec_path)], capsys)
        assert code == 0
        assert rec_path.read_text().count("\n") == 4  # header + 3 records

        code, out, _ = run(
            ["bench", "summarize", "--in", str(rec_path), "--delta", "0.1"],
            capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("method,n,p,q_delta")
        assert lines[1].startswith("mean,30,2,")

        sum_path = tmp_path / "summary.csv"
        code, _, _ = run(
            ["bench", "summarize", "--in", str(rec_path), "--delta", "0.1",
             "--out", str(sum_path)], capsys)
        assert code == 0
        assert sum_path.read_bytes() == out.encode()

    def test_misspelt_config_keys_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "distribution": {"family": "lognormal", "p": 2},
            "methods": [{"name": "filter",
                         "setting": {"stop_mode": "threshold"}}],
            "n_values": [30], "p_values": [2], "delta": 0.1, "trails": 2,
        }))
        rec_path = tmp_path / "r.csv"
        code, _, err = run(
            ["bench", "run", "--config", str(cfg_path),
             "--out", str(rec_path)], capsys)
        assert code == 2
        assert "'trails'" in err and "'trials'" in err
        assert not rec_path.exists()

    @pytest.mark.parametrize("change, named", [
        ({"distribution": {"family": "lognormal", "p": 2, "epsilom": 0.3,
                           "q_spec": {"kind": "point_mass", "location": [5.0, 0.0]}}},
         "'epsilom'"),
        ({"delta": None}, "'delta'"),
        ({"methods": [{"name": "filter",
                       "settings": {"cov_bound": "0.5"}}]}, "'cov_bound'"),
        ({"n_values": 30}, "'n_values'"),
        ({"n_values": ["30"]}, "'n_values'"),
        ({"p_values": [1.7]}, "'p_values'"),
        ({"distribution": {"family": "lognormal", "p": "2"}}, "'p'"),
        ({"distribution": {"family": "lognormal", "p": 2, "epsilon": "0.1",
                           "q_spec": {"kind": "point_mass", "location": [5.0, 0.0]}}},
         "'epsilon'"),
        ({"methods": []}, "'methods'"),
        ({"distribution": {"family": "lognormal", "p": 2, "covariance": [[1.0]]}},
         "covariance"),
    ], ids=["misspelt-contamination", "missing-delta", "string-cov-bound",
            "scalar-n-values", "string-n-value", "float-p-value", "string-p",
            "string-epsilon", "no-methods", "lognormal-covariance"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, change, named):
        config = {
            "distribution": {"family": "lognormal", "p": 2},
            "methods": [{"name": "mean"}],
            "n_values": [30], "p_values": [2], "delta": 0.1, "trials": 2,
        }
        config.update(change)  # a None value drops the key
        config = {k: v for k, v in config.items() if v is not None}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        rec_path = tmp_path / "r.csv"
        code, _, err = run(
            ["bench", "run", "--config", str(cfg_path),
             "--out", str(rec_path)], capsys)
        assert code == 2
        assert err.startswith("configuration error") and named in err
        assert not rec_path.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "distribution": {"family": "lognormal", "p": 2},
            "methods": [{"name": "nope"}],
            "n_values": [10], "p_values": [2], "delta": 0.1,
        }))
        code, _, _ = run(
            ["bench", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "r.csv")], capsys)
        assert code == 2

    @pytest.mark.parametrize("lines, line, named", [
        ([HEADER[:-len(",failed")], GOOD[:-len(",0")]], 1, "'failed'"),
        ([HEADER, GOOD, "mean,gaussian,40"], 3, "3 cells, but the header has 9"),
        ([HEADER, GOOD.replace(",0.5,", ",nan,")], 2, "loss='nan'"),
        ([HEADER, GOOD[:-1] + "2"], 2, "failed='2'"),
        ([HEADER, GOOD[:-1] + "1"], 2, "failed='1' beside loss='0.5'"),
        ([HEADER + ",extra", GOOD + ",1"], 1, "'extra'"),
        ([HEADER + ",n", GOOD + ",41"], 1, "repeats a column"),
        ([HEADER, GOOD.replace(",40,", ",forty,")], 2, "'forty'"),
        ([HEADER, GOOD, "mean,gaussian,0,1,0.1,0,0,0.5,0"], 3,
         "n must lie in [1, inf), got 0"),
        ([HEADER, "mean,gaussian,40,0,0.1,0,0,0.5,0"], 2,
         "p must lie in [1, inf), got 0"),
        ([HEADER, "mean,gaussian,40,1,7,0,0,0.5,0"], 2,
         "delta must lie in (0, 1), got 7.0"),
        ([HEADER, "mean,gaussian,40,1,0.1,0.9,0,,1"], 2,
         "epsilon must lie in [0, 0.5), got 0.9"),
        ([HEADER, "mean,gaussian,40,1,0.1,0,-1,0.5,0"], 2,
         "trial_index must lie in [0, inf), got -1"),
        ([HEADER, "mean,gaussian,40,1,0.1,0,0,-3.5,0"], 2,
         "failed='0' beside loss='-3.5'"),
        ([HEADER, "nope,gaussian,40,1,0.1,0,0,0.5,0"], 2,
         "method must be one of ["),
        ([HEADER, "mean,weird,40,1,0.1,0,0,0.5,0"], 2,
         "family must be one of ['gaussian', 'lognormal', 'pareto']"),
    ], ids=["no-failed-column", "short-line", "nan-loss", "failed-2",
            "loss-beside-failed-1", "extra-column", "repeated-column",
            "non-numeric-n", "n-below-1", "p-below-1", "delta-above-1",
            "epsilon-of-failed-trial-above-half", "negative-trial-index",
            "negative-loss", "unknown-method", "unknown-family"])
    def test_malformed_records_exit_2(self, tmp_path, capsys, lines, line,
                                      named):
        # run() calls cli.main in process, so a KeyError or TypeError from
        # the reader would fail the test instead of returning 2.
        rec_path = tmp_path / "records.csv"
        rec_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            ["bench", "summarize", "--in", str(rec_path), "--delta", "0.1"],
            capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"configuration error: {rec_path} line {line}")
        assert named in err

    @pytest.mark.parametrize("delta", ["1.5", "nan"])
    def test_delta_out_of_range_exits_2_on_all_failed_records(
            self, tmp_path, capsys, delta):
        rec_path = tmp_path / "records.csv"
        rec_path.write_text(HEADER + "\nmean,gaussian,40,1,0.1,0,0,,1\n")
        code, out, err = run(
            ["bench", "summarize", "--in", str(rec_path), "--delta", delta],
            capsys)
        assert (code, out) == (2, "")
        assert err.startswith("configuration error: delta must lie in (0, 1)")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["bench", "summarize", "--in", str(tmp_path / "nope.csv"),
             "--delta", "0.1"], capsys)
        assert code == 2
