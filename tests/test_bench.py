import io
import math
from types import SimpleNamespace

import numpy as np
import pytest

from robustmean import (
    ConfigurationError,
    ContaminationSpec,
    DistributionSpec,
    MethodSpec,
    MomentProfile,
    TrialConfig,
    TrialRecord,
    bench,
    filtering,
    model,
    netmax,
    oracle_radius,
    oracle_truncated_mean,
    run_sweep,
    summarize,
)
from robustmean.bench import (
    METHOD_NAMES,
    METHODS,
    RunContext,
    cell_hash,
    emit_csv,
    emit_summary_csv,
    read_csv,
    respec,
    run_trial,
)


JSON_CONFIG = {
    "distribution": {"family": "lognormal", "p": 2},
    "methods": [{"name": "mean"}],
    "n_values": [30],
    "p_values": [2],
    "delta": 0.1,
}


def tiny_config(**overrides):
    base = dict(
        distribution=DistributionSpec("lognormal", p=2),
        methods=[MethodSpec("mean"), MethodSpec("gmom")],
        n_values=[30],
        p_values=[2],
        delta=0.1,
        trials=4,
        master_seed=5,
    )
    base.update(overrides)
    return TrialConfig(**base)


class TestSeeding:
    def test_cell_hash_is_stable_and_distinct(self):
        h = cell_hash("lognormal", "mean", 30, 2)
        assert h == cell_hash("lognormal", "mean", 30, 2)
        assert h != cell_hash("lognormal", "mean", 30, 3)
        assert h != cell_hash("lognormal", "gmom", 30, 2)
        assert 0 <= h < 2**64

    def test_derived_seed_varies_per_trial(self):
        cell = cell_hash("pareto", "filter", 100, 5)
        seeds = {model.derived_seed(0, cell, t) for t in range(50)}
        assert len(seeds) == 50


class TestSweep:
    def test_sweep_is_deterministic(self):
        cfg = tiny_config()
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert [(r.method, r.trial_index, r.loss) for r in a] == \
               [(r.method, r.trial_index, r.loss) for r in b]

    def test_record_count_and_ordering(self):
        cfg = tiny_config(n_values=[20, 30])
        records = run_sweep(cfg)
        assert len(records) == 2 * 2 * 4
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_failed_trial_has_infinite_loss(self):
        # a ball of radius 1e-9 around the origin holds no sample
        cfg = tiny_config(methods=[MethodSpec("oracle", {"radius": 1e-9})],
                          trials=1)
        rec = run_sweep(cfg)[0]
        assert rec.failed
        assert math.isinf(rec.loss)

    def test_interval_on_two_columns_is_a_configuration_error(self):
        cfg = tiny_config(methods=[MethodSpec("interval")], trials=1)
        with pytest.raises(ConfigurationError, match="univariate"):
            run_sweep(cfg)

    def test_filter_and_oracle_methods_run(self):
        cfg = tiny_config(
            methods=[MethodSpec("filter"), MethodSpec("oracle"),
                     MethodSpec("coord")],
            n_values=[40], trials=2)
        records = run_sweep(cfg)
        assert all(not r.failed for r in records)

    def test_contaminated_spec_runs(self):
        q = ContaminationSpec("point_mass", location=[30.0, 0.0])
        spec = DistributionSpec("gaussian", p=2, covariance=np.eye(2),
                                epsilon=0.1, q_spec=q)
        cfg = tiny_config(distribution=spec,
                          methods=[MethodSpec("filter",
                                              {"stop_mode": "capped",
                                               "steps": 20})],
                          n_values=[100], trials=2)
        records = run_sweep(cfg)
        assert all(r.loss < 3.0 for r in records)


class TestMethods:
    def test_lone_cov_bound_runs_the_threshold_rule(self):
        cfg = tiny_config(n_values=[60])

        def loss(settings):
            return run_trial(cfg, MethodSpec("filter", settings), 60, 2, 0).loss

        lone = loss({"cov_bound": 0.5})
        assert lone == loss({"cov_bound": 0.5, "stop_mode": "threshold"})
        assert lone != loss({"cov_bound": 0.5, "stop_mode": "fixed_steps"})

    # (stop_mode, cov_bound, steps) -> the (cov_bound, steps) of the runner's
    # FilterConfig at epsilon 0 and 0.1, or {epsilon: ...} where they differ:
    # "hint" is cov_bound_hint's, "default" the clamped default_steps.  A mode
    # passes on only its own limits; without one, the given limits pass.
    @pytest.mark.parametrize("stop_mode, cov_bound, steps, expected", [
        (None, None, None, {0.0: (None, "default"), 0.1: ("hint", None)}),
        (None, None, 3, (None, 3)),
        (None, 0.5, None, (0.5, None)),
        (None, 0.5, 3, (0.5, 3)),
        ("threshold", None, None, ("hint", None)),
        ("threshold", None, 3, ("hint", None)),  # steps ignored
        ("threshold", 0.5, None, (0.5, None)),
        ("threshold", 0.5, 3, (0.5, None)),
        ("fixed_steps", None, None, (None, "default")),
        ("fixed_steps", None, 3, (None, 3)),
        ("fixed_steps", 0.5, None, (None, "default")),  # cov_bound ignored
        ("fixed_steps", 0.5, 3, (None, 3)),
        ("capped", None, None, ("hint", "default")),
        ("capped", None, 3, ("hint", 3)),
        ("capped", 0.5, None, (0.5, "default")),
        ("capped", 0.5, 3, (0.5, 3)),
    ])
    def test_stop_mode_picks_the_limits_passed_on(self, monkeypatch, stop_mode,
                                                  cov_bound, steps, expected):
        spec = DistributionSpec("lognormal", p=2)
        settings = {key: value for key, value in [
            ("stop_mode", stop_mode), ("cov_bound", cov_bound), ("steps", steps)]
            if value is not None}
        configs = []
        monkeypatch.setattr(filtering, "filter_multivariate", lambda samples, cfg:
                            configs.append(cfg) or SimpleNamespace(estimate=None))
        for epsilon in (0.0, 0.1):
            ctx = RunContext(delta=0.01, epsilon=epsilon, seed=9, spec=spec)
            derived = {"hint": filtering.cov_bound_hint(
                spec.moments, n=8, p=2, delta=0.01, epsilon=epsilon),
                       "default": 6}  # ceil(2 ln 100) = 10, clamped to n - 2
            limits = expected[epsilon] if isinstance(expected, dict) else expected
            configs.clear()
            METHODS["filter"](np.zeros((8, 2)), settings, ctx)
            assert configs == [filtering.FilterConfig(
                *[derived.get(limit, limit) for limit in limits], seed=9)]

    @pytest.mark.parametrize("stop_mode", ["threshold", "capped"])
    def test_threshold_stop_without_bound_or_spec_rejected(self, stop_mode):
        samples = np.random.default_rng(0).standard_normal((50, 2))
        settings = {"stop_mode": stop_mode, "steps": 5}
        with pytest.raises(ConfigurationError, match="cov_bound"):
            METHODS["filter"](samples, settings, RunContext(delta=0.1))

    def test_oracle_without_radius_or_spec_rejected(self):
        samples = np.zeros((5, 2))
        with pytest.raises(ConfigurationError, match="radius"):
            METHODS["oracle"](samples, {}, RunContext(delta=0.1))

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_derived_bound_and_radius_follow_epsilon(self, epsilon):
        # The runners derive cov_bound and the radius from the clean law's
        # moments and epsilon alone, which selects the model.
        q = ContaminationSpec("point_mass", location=[30.0, 0.0])
        spec = DistributionSpec("gaussian", p=2, covariance=np.eye(2),
                                epsilon=epsilon, q_spec=q if epsilon else None)
        samples = np.random.default_rng(1).standard_normal((80, 2))
        ctx = RunContext(delta=0.1, epsilon=epsilon, seed=3, spec=spec)
        moments = MomentProfile(2, 2.0, 1.0)
        radius = oracle_radius(moments, n=80, delta=0.1, epsilon=epsilon)
        np.testing.assert_array_equal(
            METHODS["oracle"](samples, {}, ctx),
            oracle_truncated_mean(samples, np.zeros(2), radius))
        bound = filtering.cov_bound_hint(moments, n=80, p=2, delta=0.1,
                                         epsilon=epsilon)
        settings = {"stop_mode": "threshold"}
        np.testing.assert_array_equal(
            METHODS["filter"](samples, settings, ctx),
            METHODS["filter"](samples, dict(settings, cov_bound=bound), ctx))

    def test_gmom_clamps_only_the_default_blocks(self):
        samples = np.random.default_rng(2).standard_normal((3, 2))
        ctx = RunContext(delta=0.01)  # default blocks ceil(2 ln 100) = 10
        np.testing.assert_array_equal(
            METHODS["gmom"](samples, {}, ctx),
            METHODS["gmom"](samples, {"blocks": 3}, ctx))
        for blocks in (0, 4):
            with pytest.raises(ConfigurationError, match="blocks"):
                METHODS["gmom"](samples, {"blocks": blocks}, ctx)

    @pytest.mark.parametrize("name, settings", [
        ("filter", {"stop_mod": "threshold"}),
        ("gmom", {"tol": 1e-8}),
        ("filter", {"k": 1}),
        ("filter", {"C": 2.0}),
        ("oracle", {"k": 1}),
        ("mean", {"blocks": 3}),
    ])
    def test_unread_settings_rejected(self, name, settings):
        with pytest.raises(ConfigurationError, match="does not read") as err:
            MethodSpec(name, settings)
        for key in METHODS[name].settings:
            assert repr(key) in str(err.value)

    def test_settings_surface(self):
        assert METHOD_NAMES == tuple(METHODS)
        assert {name: tuple(METHODS[name].settings.items())
                for name in METHOD_NAMES} == {
            "mean": (),
            "gmom": (("blocks", int),),
            "coord": (),
            "filter": (("stop_mode", ("threshold", "fixed_steps", "capped")),
                       ("cov_bound", float), ("steps", int)),
            "oracle": (("radius", float),),
            "interval": (),
            "net": (("inner", netmax.INNER_ESTIMATORS), ("sparsity", int)),
            "srm": (),
        }

    @pytest.mark.parametrize("name, key, value, expected", [
        ("filter", "cov_bound", "0.5", "float"),
        ("filter", "steps", 3.0, "int"),
        ("filter", "steps", True, "int"),
        ("filter", "cov_bound", False, "float"),
        ("filter", "stop_mode", "thresh", "one of ['threshold'"),
        ("oracle", "radius", "2", "float"),
        ("net", "inner", 1, "one of ['interval1d'"),
        ("net", "sparsity", None, "int"),
        ("gmom", "blocks", "5", "int"),
    ])
    def test_setting_of_wrong_type_rejected(self, name, key, value, expected):
        with pytest.raises(ConfigurationError) as err:
            MethodSpec(name, {key: value})
        assert repr(key) in str(err.value)
        assert f"must be {expected}" in str(err.value)

    def test_int_accepted_for_float_setting(self):
        cfg = tiny_config(n_values=[60])

        def loss(settings):
            return run_trial(cfg, MethodSpec("filter", settings), 60, 2, 0).loss

        assert loss({"cov_bound": 1}) == loss({"cov_bound": 1.0})


class TestRespec:
    def test_isotropic_gaussian_redimensions(self):
        spec = DistributionSpec("gaussian", p=2, covariance=2.0 * np.eye(2))
        out = respec(spec, 5)
        assert out.p == 5
        np.testing.assert_array_equal(out.covariance, 2.0 * np.eye(5))

    def test_anisotropic_rejected(self):
        spec = DistributionSpec("gaussian", p=2, covariance=np.diag([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            respec(spec, 3)

    def test_contaminated_rejected(self):
        q = ContaminationSpec("point_mass", location=[1.0])
        spec = DistributionSpec("lognormal", p=1, epsilon=0.1, q_spec=q)
        with pytest.raises(ConfigurationError):
            respec(spec, 2)

    def test_sweep_respecs_once_per_p(self, monkeypatch):
        calls, respec_ = [], bench.respec

        def counted(spec, p):
            calls.append(p)
            return respec_(spec, p)

        monkeypatch.setattr(bench, "respec", counted)
        spec = DistributionSpec("gaussian", p=2, covariance=2.0 * np.eye(2))
        cfg = tiny_config(distribution=spec, p_values=[2, 3, 4], trials=3)
        swept = run_sweep(cfg)
        assert sorted(calls) == [2, 3, 4]
        assert "specs" not in sum(model.json_keys(TrialConfig), ())
        # The same losses as one config per p, whose spec is not re-dimensioned.
        direct = sorted((r for p in (2, 3, 4) for r in run_sweep(tiny_config(
            distribution=DistributionSpec("gaussian", p=p,
                                          covariance=2.0 * np.eye(p)),
            p_values=[p], trials=3))), key=TrialRecord.sort_key)
        assert [r.loss for r in swept] == [r.loss for r in direct]

    def test_same_p_passthrough(self):
        spec = DistributionSpec("pareto", p=3, tail_beta=3.0)
        assert respec(spec, 3) is spec


class TestSummaries:
    def test_summarize_groups_and_quantiles(self):
        recs = [
            TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, t, float(t + 1))
            for t in range(10)
        ]
        rows = summarize(recs, delta=0.1)
        assert len(rows) == 1
        assert rows[0]["q_delta"] == 9.0  # ceil(0.9 * 10) = 9th smallest
        assert rows[0]["mean_loss"] == pytest.approx(5.5)
        assert rows[0]["failure_rate"] == 0.0

    def test_failures_excluded_from_quantile(self):
        recs = [
            TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, 0, 1.0),
            TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, 1, math.inf),
        ]
        rows = summarize(recs, delta=0.1)
        assert rows[0]["q_delta"] == 1.0
        assert rows[0]["failure_rate"] == 0.5

    @pytest.mark.parametrize("delta", [1.5, math.nan])
    def test_delta_checked_without_a_successful_trial(self, delta):
        # With every trial failed no quantile is taken, so delta must be
        # checked before the records are grouped.
        recs = [TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, 0, math.inf)]
        with pytest.raises(ConfigurationError, match="delta"):
            summarize(recs, delta)

    def test_csv_round_trip(self, tmp_path):
        cfg = tiny_config(methods=[MethodSpec("mean"),
                                   MethodSpec("oracle", {"radius": 1e-9})],
                          trials=2)
        records = run_sweep(cfg)
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        back = read_csv(path)
        assert back == records  # frozen dataclass equality, inf included

    def test_records_and_summary_text(self, tmp_path):
        recs = [TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, 0, 1 / 3),
                TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, 1, math.inf)]
        path = tmp_path / "records.csv"
        emit_csv(recs, path)
        assert path.read_bytes() == (
            b"method,family,n,p,delta,epsilon,trial_index,loss,failed\r\n"
            b"mean,lognormal,10,2,0.10000000000000001,0,0,0.33333333333333331,0\r\n"
            b"mean,lognormal,10,2,0.10000000000000001,0,1,,1\r\n")
        assert read_csv(path) == recs
        out = io.StringIO(newline="")
        emit_summary_csv(summarize(read_csv(path), 0.1), out)
        assert out.getvalue() == (
            "method,n,p,q_delta,mean_loss,failure_rate,trials\r\n"
            "mean,10,2,0.33333333333333331,0.33333333333333331,0.5,2\r\n")

    def test_summary_csv(self, tmp_path):
        recs = [TrialRecord("mean", "lognormal", 10, 2, 0.1, 0.0, 0, 1.5)]
        path = tmp_path / "summary.csv"
        with open(path, "w", newline="") as fh:
            emit_summary_csv(summarize(recs, 0.1), fh)
        text = path.read_text()
        assert text.splitlines()[0] == \
            "method,n,p,q_delta,mean_loss,failure_rate,trials"
        assert "1.5" in text


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            MethodSpec("bogus")

    def test_json_decode(self):
        cfg = TrialConfig.from_json_dict({
            "distribution": {"family": "lognormal", "p": 2},
            "methods": [{"name": "filter", "settings": {"steps": 3}},
                        {"name": "mean"}],
            "n_values": [30], "p_values": [2], "delta": 0.1,
        })
        assert cfg.distribution == DistributionSpec("lognormal", p=2)
        assert cfg.methods == (MethodSpec("filter", {"steps": 3}),
                               MethodSpec("mean"))
        assert (cfg.n_values, cfg.p_values, cfg.delta) == ((30,), (2,), 0.1)
        assert (cfg.trials, cfg.master_seed) == (2000, 0)

    @pytest.mark.parametrize("where", ["top", "method"])
    def test_json_unknown_key_rejected(self, where):
        doc = dict(JSON_CONFIG, methods=[{"name": "mean", "settings": {}}])
        if where == "top":
            doc["trails"] = 2
        else:
            doc["methods"][0]["setting"] = doc["methods"][0].pop("settings")
        with pytest.raises(ConfigurationError) as info:
            TrialConfig.from_json_dict(doc)
        misspelt, accepted = ("'trails'", "'trials'") if where == "top" \
            else ("'setting'", "'settings'")
        assert misspelt in str(info.value) and accepted in str(info.value)

    @pytest.mark.parametrize("key", ["distribution", "methods", "n_values",
                                     "p_values", "delta"])
    def test_json_missing_key_rejected(self, key):
        doc = {k: v for k, v in JSON_CONFIG.items() if k != key}
        with pytest.raises(ConfigurationError, match=f"missing \\['{key}'\\]"):
            TrialConfig.from_json_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("delta", "0.1"), ("trials", "3"), ("trials", True),
        ("master_seed", 1.0)])
    def test_json_value_of_wrong_type_rejected(self, key, value):
        with pytest.raises(ConfigurationError, match=f"'{key}' must be"):
            TrialConfig.from_json_dict(dict(JSON_CONFIG, **{key: value}))

    @pytest.mark.parametrize("change, named", [
        ({"n_values": 30}, "'n_values'"),
        ({"n_values": ["30"]}, "'n_values'"),
        ({"n_values": [True]}, "'n_values'"),
        ({"p_values": [1.7]}, "'p_values'"),
        ({"p_values": []}, "'p_values'"),
        ({"distribution": {"family": "lognormal", "p": "2"}}, "'p'"),
        ({"distribution": {"family": "pareto", "p": 2, "tail_beta": "3"}},
         "'tail_beta'"),
        ({"distribution": {"family": "lognormal", "p": 2, "epsilon": "0.1",
                           "q_spec": {"kind": "point_mass", "location": [5.0, 0.0]}}},
         "'epsilon'"),
        ({"distribution": {"family": "lognormal", "p": 2, "epsilon": 0.1,
                           "q_spec": {"kind": "shifted_gaussian",
                                      "location": [5.0, 0.0], "scale": "1"}}},
         "'scale'"),
    ])
    def test_json_number_of_wrong_type_rejected(self, change, named):
        with pytest.raises(ConfigurationError, match=named):
            TrialConfig.from_json_dict(dict(JSON_CONFIG, **change))

    def test_json_int_accepted_for_float_spec_keys(self):
        doc = dict(JSON_CONFIG, distribution={
            "family": "lognormal", "p": 2, "epsilon": 0,
            "q_spec": {"kind": "shifted_gaussian", "location": [5, 0], "scale": 2}})
        spec = TrialConfig.from_json_dict(doc).distribution
        assert spec.epsilon == 0.0 and isinstance(spec.epsilon, float)
        assert spec.q_spec.scale == 2.0

    @pytest.mark.parametrize("doc", [
        [JSON_CONFIG],
        dict(JSON_CONFIG, methods=["mean"]),
        dict(JSON_CONFIG, methods=[{"settings": {}}]),
    ], ids=["config", "method-entry", "method-name"])
    def test_json_malformed_entry_rejected(self, doc):
        with pytest.raises(ConfigurationError):
            TrialConfig.from_json_dict(doc)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_config(trials=0)
        with pytest.raises(ConfigurationError):
            tiny_config(delta=1.5)
        with pytest.raises(ConfigurationError):
            tiny_config(n_values=[])
