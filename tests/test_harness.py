"""Config parsing, dispatch, reproducible outputs, and the CLI surface."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import pickle
import re

import numpy as np
import pytest

import robustlab.harness
import robustlab.loss_vc

from robustlab import shatter_game
from robustlab.classifiers import robust_loss_distribution
from robustlab.cli import main
from robustlab.harness import (
    CONFIG_ROWS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    list_experiments,
    run,
    write_record,
)
from robustlab.oracle_game import build_oracle_game
from robustlab.rerm import IndexedExhaustiveOracle, make_learning_task
from robustlab.seeding import as_generator, rng_for, seed_derive

# A small config of every experiment.
SMALL = {
    "tolrerm_sweep": {"tasks": 2, "n_grid": [10, 40], "trials": 10},
    "opt_gap_audit": {"instances": 3, "trials": 150},
    "sandwich_audit": {"audits": 4},
    "lb_linear_game": {"trials": 200},
    "oracle_query_sweep": {"trials": 200, "budgets": [0, 4, 16]},
    "robust_vc_audit": {"universe_size": 6, "thresholds": 12, "max_m": 3},
    "regularity_check": {},
}

# sha256 of each SMALL config's CSV at seed 11, without the "# config:"
# line (it echoes the package version).  A change meant to leave results
# alone, such as a refactor or a speed-up, must keep these.
SMALL_CSV_SHA256 = {
    "tolrerm_sweep": "3ef9aedc7e49de3e45815452e9d70274bbf0eec380af4506995bd4c78fc3c28a",
    "opt_gap_audit": "ed4ae463a0c8e6e03c78b40bcdc72dc763bdb4921f60c303db2765a3bc4a7e6a",
    "sandwich_audit": "068d6dd26f3163b0333da37d2ced7bec102404bd9966bde2b16582beeb37a2fb",
    "lb_linear_game": "52ecca592908f95556a6e5506340618546bd2e044303d5325135a3ffd22fbd77",
    "oracle_query_sweep": "cc8a69c9e89477ed2747f0ffc8a7372e960abcf4b10c8626686684c0f6906a80",
    "robust_vc_audit": "3de7543d08bd89ca829abe2d1255e907e2684da71bcea08171d256315a4152a2",
    "regularity_check": "72e65c68a42ac980c07efd5cbff03a4e4c50056ed9ce7c8a929112aaffea6153",
}

# The tolrerm_sweep CSV at the benchmark's size (40 tasks, so 40 oracles and
# 800 learner calls) and seed 11, pinned the same way; SMALL covers 2 tasks.
TOLRERM_BENCH_PARAMS = {"tasks": 40, "trials": 5, "n_grid": [10, 30, 100, 300]}
TOLRERM_BENCH_CSV_SHA256 = "0a133350771d7745a6cf312be74c47ee90ca3b879e92f991d4c4cd552b9c9bc0"

# The oracle_query_sweep CSV at the benchmark's size (d = 3, 4,000 trials,
# budgets up to 4096, so about 630k oracle draws) and seed 11, pinned the same way.
QUERY_BENCH_PARAMS = {"D": 50.0, "gamma": 1.0, "d": 3, "budgets": [2**i for i in range(13)], "trials": 4000}
QUERY_BENCH_CSV_SHA256 = "1d82ad7f4875d276c5781e20baf58bd4a9b83bfa9ddbc1cba2650edbc31d50ef"

# The same digest for opt_gap_audit at its default parameters (50 instances
# x 400 trials) and seed 11.
OPT_GAP_AUDIT_DEFAULT_CSV_SHA256 = "ec86005a0a5f954d15a45b436ffd727973abddbb73b174d2a37f8878a26f5bbe"

# More configs pinned the same way at seed 11: regularity certificates of a
# thin sphere (alpha > radius / 2, so probes are drawn and judged) and of a
# halfspace, and the sandwich_audit and robust_vc_audit CSVs at the
# benchmark's size.
MORE_CSV_SHA256 = [
    (
        "regularity_check",
        {"alpha": 1.5},
        "88755abb8f9491349b08db8fc22f3631dbc1e67972f7ae95af97917a6d9a5ba7",
    ),
    (
        "regularity_check",
        {"hypothesis": {"kind": "linear", "w": [1.0, -0.5], "b": 0.25}},
        "72e65c68a42ac980c07efd5cbff03a4e4c50056ed9ce7c8a929112aaffea6153",
    ),
    (
        "sandwich_audit",
        {"audits": 200, "include_control": True},
        "067715ecb2be825be18cf61ee60256f67c42a9c868dbcafda99d48f4bca23248",
    ),
    (
        "robust_vc_audit",
        {"universe_size": 9, "thresholds": 25, "k_grid": [1, 2, 3], "max_m": 4},
        "92ac6136f37ad21826172733c6d967fc70faf1b89888ca28e5a6b1fe41a0e768",
    ),
]


SPHERE = {"kind": "sphere", "center": [0.0, 0.0], "radius": 2.0}
LINEAR = {"kind": "linear", "w": [1.0, -0.5], "b": 0.25}

# A value each rule rejects, for every key of every experiment and every
# top-level key: (experiment, key, value, the name the error must quote).
# None for the experiment puts the key at the top level of a
# regularity_check config.  Nested hypothesis keys are quoted as
# "hypothesis.<key>".
BAD_VALUES = [
    ("tolrerm_sweep", "tasks", 0, "tasks"),
    ("tolrerm_sweep", "tasks", -2, "tasks"),
    ("tolrerm_sweep", "tasks", "3", "tasks"),
    ("tolrerm_sweep", "n_grid", [], "n_grid"),
    ("tolrerm_sweep", "n_grid", [10.7, 30], "n_grid"),
    ("tolrerm_sweep", "n_grid", 10, "n_grid"),
    ("tolrerm_sweep", "n_grid", [10, 10], "n_grid"),
    ("tolrerm_sweep", "trials", True, "trials"),
    ("tolrerm_sweep", "eps", "0.1", "eps"),
    ("tolrerm_sweep", "eps", 0.0, "eps"),
    ("tolrerm_sweep", "delta", 1.5, "delta"),
    ("tolrerm_sweep", "delta", math.nan, "delta"),
    ("tolrerm_sweep", "gamma", -0.25, "gamma"),
    ("tolrerm_sweep", "gamma", math.inf, "gamma"),
    ("opt_gap_audit", "instances", -1, "instances"),
    ("opt_gap_audit", "trials", 99, "trials"),
    ("opt_gap_audit", "trials", 400.0, "trials"),
    ("opt_gap_audit", "sample_size", 2.5, "sample_size"),
    ("opt_gap_audit", "sample_size", 0, "sample_size"),
    ("opt_gap_audit", "eps", 1.01, "eps"),
    ("opt_gap_audit", "delta", None, "delta"),
    ("opt_gap_audit", "gamma", "0.5", "gamma"),
    ("sandwich_audit", "audits", -3, "audits"),
    ("sandwich_audit", "include_control", "no", "include_control"),
    ("lb_linear_game", "m", 0, "m"),
    ("lb_linear_game", "m", 5, "m"),
    ("lb_linear_game", "m", 2.0, "m"),
    ("lb_linear_game", "W", -1.0, "W"),
    ("lb_linear_game", "W", "1", "W"),
    ("lb_linear_game", "d", 1, "d"),
    ("lb_linear_game", "trials", 0, "trials"),
    ("lb_linear_game", "n_samples", -1, "n_samples"),
    ("lb_linear_game", "n_samples", False, "n_samples"),
    ("lb_linear_game", "learner", "greedy", "learner"),
    ("lb_linear_game", "learner", 1, "learner"),
    ("lb_linear_game", "export_path", 5, "export_path"),
    ("oracle_query_sweep", "D", math.nan, "D"),
    ("oracle_query_sweep", "D", [20.0], "D"),
    ("oracle_query_sweep", "gamma", -1.0, "gamma"),
    ("oracle_query_sweep", "d", 1.5, "d"),
    ("oracle_query_sweep", "d", 0, "d"),
    ("oracle_query_sweep", "budgets", [0, 1.0], "budgets"),
    ("oracle_query_sweep", "budgets", [0, 1.0, 2], "budgets"),
    ("oracle_query_sweep", "budgets", [0, 4, 4], "budgets"),
    ("oracle_query_sweep", "budgets", [-1, 4], "budgets"),
    ("oracle_query_sweep", "budgets", [], "budgets"),
    ("oracle_query_sweep", "budgets", "0,4", "budgets"),
    ("oracle_query_sweep", "trials", 0, "trials"),
    ("robust_vc_audit", "universe_size", 0, "universe_size"),
    ("robust_vc_audit", "thresholds", 0, "thresholds"),
    ("robust_vc_audit", "k_grid", [], "k_grid"),
    ("robust_vc_audit", "k_grid", [0, 1], "k_grid"),
    ("robust_vc_audit", "k_grid", [1.0], "k_grid"),
    ("robust_vc_audit", "k_grid", [2, 2], "k_grid"),
    ("robust_vc_audit", "max_m", 0, "max_m"),
    ("robust_vc_audit", "max_m", -2, "max_m"),
    ("regularity_check", "alpha", math.nan, "alpha"),
    ("regularity_check", "alpha", 0, "alpha"),
    ("regularity_check", "probes", -5, "probes"),
    ("regularity_check", "probes", 2.5, "probes"),
    ("regularity_check", "domain_radius", 0.0, "domain_radius"),
    ("regularity_check", "domain_radius", "3", "domain_radius"),
    ("regularity_check", "hypothesis", [1.0, 0.0], "hypothesis.kind"),
    ("regularity_check", "hypothesis", {**SPHERE, "kind": "cube"}, "hypothesis.kind"),
    ("regularity_check", "hypothesis", {**SPHERE, "extra": 1}, "extra"),
    ("regularity_check", "hypothesis", {**LINEAR, "inside_label": 1}, "inside_label"),
    ("regularity_check", "hypothesis", {"kind": "linear"}, "hypothesis.w"),
    ("regularity_check", "hypothesis", {"kind": "sphere", "center": [0.0, 0.0]}, "hypothesis.radius"),
    ("regularity_check", "hypothesis", {**LINEAR, "w": [0.0, -0.0]}, "hypothesis.w"),
    ("regularity_check", "hypothesis", {**LINEAR, "w": ["1", 0.5]}, "hypothesis.w"),
    ("regularity_check", "hypothesis", {**LINEAR, "w": 1.0}, "hypothesis.w"),
    ("regularity_check", "hypothesis", {**LINEAR, "b": "0.25"}, "hypothesis.b"),
    ("regularity_check", "hypothesis", {**LINEAR, "b": math.inf}, "hypothesis.b"),
    ("regularity_check", "hypothesis", {**SPHERE, "center": []}, "hypothesis.center"),
    ("regularity_check", "hypothesis", {**SPHERE, "radius": 0.0}, "hypothesis.radius"),
    ("regularity_check", "hypothesis", {**SPHERE, "inside_label": True}, "hypothesis.inside_label"),
    ("regularity_check", "hypothesis", {**SPHERE, "inside_label": 1.7}, "hypothesis.inside_label"),
    ("regularity_check", "hypothesis", {**SPHERE, "inside_label": 1.0}, "hypothesis.inside_label"),
    ("regularity_check", "hypothesis", {**SPHERE, "inside_label": 0}, "hypothesis.inside_label"),
    (None, "seed", -1, "seed"),
    (None, "seed", 2**64, "seed"),
    (None, "seed", "1", "seed"),
    (None, "output_path", ["out.csv"], "output_path"),
    (None, "format", "xml", "format"),
    (None, "format", None, "format"),
]


# Each row's test id, read from its content, so adding a row renames no other case.
BAD_VALUE_IDS = [f"{experiment or 'config'}.{key}={value!r}".replace(" ", "") for experiment, key, value, _ in BAD_VALUES]


def bad_config(experiment, key, value):
    if experiment is None:
        return {"experiment": "regularity_check", "seed": 1, key: value}
    return {"experiment": experiment, "seed": 1, "params": {key: value}}


def rule_phrases(table):
    """Every phrase an error from ``table`` can quote, nested tables included."""
    for _, rule in table.values():
        if isinstance(rule, dict):
            for nested in rule.values():
                yield from rule_phrases(nested)
        else:
            yield rule.phrase


class TestRuleTable:
    @pytest.mark.parametrize("experiment, key, value, named", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_bad_value_names_its_key_at_parse(self, experiment, key, value, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            ExperimentConfig.from_dict(bad_config(experiment, key, value))

    @pytest.mark.parametrize("experiment, key, value, named", BAD_VALUES, ids=BAD_VALUE_IDS)
    def test_validate_and_run_exit_two_without_running(self, experiment, key, value, named, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("robustlab.cli.run", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad_config(experiment, key, value)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert named in capsys.readouterr().err

    def test_every_key_and_every_phrase_has_a_bad_value(self):
        covered = {(experiment, key) for experiment, key, _, _ in BAD_VALUES}
        keys = {(name, key) for name, spec in EXPERIMENTS.items() for key in spec.defaults}
        assert keys | {(None, key) for key in CONFIG_ROWS} <= covered
        messages = []
        for experiment, key, value, _ in BAD_VALUES:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict(bad_config(experiment, key, value))
            messages.append(str(err.value))
        tables = [CONFIG_ROWS] + [spec.defaults for spec in EXPERIMENTS.values()]
        for phrase in {phrase for table in tables for phrase in rule_phrases(table)}:
            assert any(f"must be {phrase}, got" in message for message in messages), phrase

    def test_rules_reject_no_config_in_use(self, monkeypatch):
        configs = [{"experiment": name, "seed": 0} for name in EXPERIMENTS]
        configs += [{"experiment": name, "seed": 2**64 - 1, "params": params} for name, params in SMALL.items()]
        configs += [{"experiment": name, "seed": 11, "params": params} for name, params, _ in MORE_CSV_SHA256]
        configs += [
            {"experiment": "tolrerm_sweep", "seed": 11, "params": TOLRERM_BENCH_PARAMS},
            {"experiment": "oracle_query_sweep", "seed": 11, "params": QUERY_BENCH_PARAMS},
            {"experiment": "regularity_check", "seed": 1, "params": {"hypothesis": {**SPHERE, "inside_label": -1}}},
            {"experiment": "lb_linear_game", "seed": 1, "params": {"export_path": None, "learner": "omniscient"}},
        ]
        root = os.path.join(os.path.dirname(__file__), "..")
        for name in sorted(os.listdir(os.path.join(root, "demos", "configs"))):
            with open(os.path.join(root, "demos", "configs", name)) as fh:
                configs.append(json.load(fh))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(root, "perfbench", "run.py"))
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        configs += [bench.make_config(workload, seed, "out.csv") for workload in bench.WORKLOADS for seed in (1, 2, 3)]
        assert len(configs) > 30
        for raw in configs:
            cfg = ExperimentConfig.from_dict(raw)
            # the rules change no value: the echo is the defaults overlaid with the params
            defaults = {key: default for key, (default, _) in EXPERIMENTS[raw["experiment"]].defaults.items()}
            assert cfg.resolved_params() == {**defaults, **raw.get("params", {})}


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(
                {"experiment": "sandwich_audit", "seed": 1, "bogus": 2}
            )

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            ExperimentConfig.from_dict(
                {"experiment": "sandwich_audit", "seed": 1, "params": {"nope": 1}}
            )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            ExperimentConfig.from_dict({"experiment": "nope", "seed": 1})

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="missing config keys"):
            ExperimentConfig.from_dict({"experiment": "sandwich_audit"})

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            ExperimentConfig.from_dict(
                {"experiment": "sandwich_audit", "seed": 1, "format": "xml"}
            )

    def test_overrides(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "oracle_query_sweep", "seed": 1}
        )
        out = cfg.with_overrides(["params.trials=99", "seed=7"])
        assert out.resolved_params()["trials"] == 99
        assert out.seed == 7
        with pytest.raises(ConfigError):
            cfg.with_overrides(["nonsense"])
        with pytest.raises(ConfigError):
            cfg.with_overrides(["nope=1"])

    def test_config_is_immutable_and_equal_by_value(self):
        raw = {"experiment": "oracle_query_sweep", "seed": 1, "params": {"budgets": [0, 4]}}
        cfg = ExperimentConfig.from_dict(raw)
        for field in ("experiment", "params", "seed", "output_path", "format", "other"):
            with pytest.raises(AttributeError):
                setattr(cfg, field, None)
            with pytest.raises(AttributeError):
                delattr(cfg, field)
        assert cfg == ExperimentConfig.from_dict(json.loads(json.dumps(raw)))
        assert cfg != ExperimentConfig.from_dict({**raw, "seed": 2})
        assert cfg != ExperimentConfig.from_dict({**raw, "format": "json"})
        assert cfg != raw
        assert repr(cfg) == (
            "ExperimentConfig(experiment='oracle_query_sweep', params={'budgets': [0, 4]},"
            " seed=1, output_path=None, format='csv')"
        )
        with pytest.raises(TypeError, match="unhashable"):
            hash(cfg)
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_overrides_leave_the_original_untouched(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "oracle_query_sweep", "seed": 1, "params": {"trials": 5, "budgets": [0, 4]}}
        )
        out = cfg.with_overrides(["params.trials=99", "params.gamma=0.5", "format=json"])
        assert cfg.params == {"trials": 5, "budgets": [0, 4]} and cfg.format == "csv"
        assert out.params == {"trials": 99, "budgets": [0, 4], "gamma": 0.5} and out.format == "json"
        # params are copied whole, nested lists included, as they were from a dataclass by asdict
        assert out.params["budgets"] is not cfg.params["budgets"]
        assert cfg.with_overrides([]) == cfg

    def test_star_import_and_record_pickling(self):
        namespace = {}
        exec("from robustlab.harness import *", namespace)
        assert {"EXPERIMENTS", "RunRecord", "ExperimentConfig", "run"} <= set(namespace)
        assert namespace["EXPERIMENTS"] is EXPERIMENTS
        record = run(ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": 1, "params": {"probes": 2}}))
        assert type(record) is namespace["RunRecord"]
        assert pickle.loads(pickle.dumps(record)) == record
        assert repr(record).startswith("RunRecord(config={'experiment': 'regularity_check'")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.rows = []

    def test_registry_and_record_live_in_runners(self):
        import robustlab.runners as runners

        assert EXPERIMENTS is runners.EXPERIMENTS
        assert robustlab.harness.RunRecord is runners.RunRecord
        assert robustlab.harness.ExperimentSpec is runners.ExperimentSpec
        assert {name: spec.runner for name, spec in EXPERIMENTS.items()} == {
            name: getattr(runners, f"run_{name}") for name, _ in list_experiments()
        }
        with pytest.raises(AttributeError):
            robustlab.harness.RUNNERS

    def test_negative_parameter_fails_before_running(self, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match="gamma"):
            ExperimentConfig.from_dict(
                {
                    "experiment": "oracle_query_sweep",
                    "seed": 1,
                    "params": {"gamma": -1.0, "trials": 10},
                    "output_path": str(out),
                }
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tasks", 0), ("trials", 0), ("tasks", 1.5), ("trials", True), ("tasks", -2),
            ("n_grid", []), ("n_grid", [10.7, 30]), ("n_grid", [True, 30]), ("n_grid", [0, 30]),
        ],
    )
    def test_bad_tolrerm_sweep_size_names_its_key(self, key, value, tmp_path):
        # these raised IndexError or TypeError, warned and failed the
        # verdict, or ran a truncated size (10.7 as 10, True as 1)
        params = {**SMALL["tolrerm_sweep"], key: value}
        out = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(
                {"experiment": "tolrerm_sweep", "seed": 1, "params": params, "output_path": str(out)}
            )
        assert not out.exists()

    @pytest.mark.parametrize("label", [True, 1.7, -1.2])
    def test_regularity_inside_label_reaches_the_sphere_unconverted(self, label, tmp_path):
        # int() read these as 1, 1 and -1 and wrote a certificate
        hypothesis = {"kind": "sphere", "center": [0.0, 0.0], "radius": 2.0, "inside_label": label}
        out = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match="inside_label must be \\+1 or -1"):
            ExperimentConfig.from_dict(
                {"experiment": "regularity_check", "seed": 1, "params": {"hypothesis": hypothesis}, "output_path": str(out)}
            )
        assert not out.exists()

    @pytest.mark.parametrize("seed", [True, False])
    def test_bool_seed_rejected(self, seed):
        # isinstance(True, int) holds, so true was read as seed 1
        with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer"):
            ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": seed})

    @pytest.mark.parametrize("path", [5, 1.5, True, ["out.csv"], {"file": "out.csv"}])
    def test_non_string_output_path_rejected(self, path):
        # this failed only at write time, after the whole run
        with pytest.raises(ConfigError, match="output_path must be a string"):
            ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": 1, "output_path": path})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("audits", -3), ("audits", 0), ("audits", 1.5), ("audits", True),
            ("include_control", "no"), ("include_control", 1), ("include_control", None),
        ],
    )
    def test_bad_sandwich_audit_value_names_its_key(self, key, value, tmp_path):
        # audits: -3 ran no audit and include_control: "no" ran the control,
        # and both reported a pass
        params = {**SMALL["sandwich_audit"], key: value}
        out = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(
                {"experiment": "sandwich_audit", "seed": 1, "params": params, "output_path": str(out)}
            )
        assert not out.exists()


class TestRunAndWrite:
    def test_csv_reproducible_bit_identical(self, tmp_path):
        for name in ("a.csv", "b.csv"):
            cfg = ExperimentConfig.from_dict(
                {
                    "experiment": "oracle_query_sweep",
                    "seed": 424242,
                    "params": {"trials": 300, "budgets": [0, 2, 8]},
                    "output_path": str(tmp_path / name),
                }
            )
            run(cfg)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_csv_has_schema_header(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "regularity_check",
                "seed": 5,
                "output_path": str(tmp_path / "reg.csv"),
            }
        )
        run(cfg)
        lines = (tmp_path / "reg.csv").read_text().splitlines()
        schema_lines = [l for l in lines if l.startswith("# schema:")]
        assert schema_lines
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == [l.split(":")[1].split("=")[0].strip() for l in schema_lines]

    def test_json_output(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "regularity_check",
                "seed": 5,
                "format": "json",
                "output_path": str(tmp_path / "reg.json"),
            }
        )
        record = run(cfg)
        data = json.loads((tmp_path / "reg.json").read_text())
        assert {"schema", "config", "rows", "summary", "assertions_passed"} <= set(data)
        assert data["rows"] == record.rows

    def test_atomic_write_no_partial_file(self, tmp_path):
        record_path = tmp_path / "out.csv"
        bad = run(
            ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": 5})
        )
        object.__setattr__(bad, "rows", [{"nope": 1}])  # missing schema columns
        with pytest.raises(KeyError):
            write_record(bad, str(record_path), "csv")
        assert not record_path.exists()
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert not leftovers

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_gets_the_mode_open_gives(self, fmt, tmp_path):
        record = run(ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": 5}))
        write_record(record, str(tmp_path / f"out.{fmt}"), fmt)
        with open(tmp_path / "plain", "w"):
            pass
        assert os.stat(tmp_path / f"out.{fmt}").st_mode == os.stat(tmp_path / "plain").st_mode

    @pytest.mark.parametrize("cell", [np.bool_(True), np.int64(3), None], ids=["numpy-bool", "numpy-int", "none"])
    def test_csv_cell_of_another_type_names_its_column_and_writes_nothing(self, cell, tmp_path):
        record = run(ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": 5}))
        object.__setattr__(record, "rows", [{**record.rows[0], "passed": cell}])
        target = tmp_path / "out.csv"
        with pytest.raises(TypeError, match="column 'passed'"):
            write_record(record, str(target), "csv")
        assert os.listdir(tmp_path) == []

    def test_failed_instance_export_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import robustlab.shatter_game

        # an export JSON cannot serialize makes the instance write fail
        monkeypatch.setattr(robustlab.shatter_game, "export_instance", lambda inst: {"x": object()})
        export = tmp_path / "instance.json"
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "lb_linear_game",
                "seed": 5,
                "params": {"trials": 10, "export_path": str(export)},
                "output_path": str(tmp_path / "game.csv"),
            }
        )
        with pytest.raises(TypeError):
            run(cfg)
        assert not export.exists()
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_failed_replace_keeps_the_old_file_and_removes_the_temp_file(self, tmp_path, monkeypatch):
        record = run(ExperimentConfig.from_dict({"experiment": "regularity_check", "seed": 5}))
        target = tmp_path / "out.csv"
        target.write_bytes(b"old bytes\n")

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(robustlab.harness.os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            write_record(record, str(target), "csv")
        assert target.read_bytes() == b"old bytes\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTLAB_OUTPUT_DIR", str(tmp_path))
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "regularity_check",
                "seed": 5,
                "output_path": "nested/reg.csv",
            }
        )
        run(cfg)
        assert (tmp_path / "nested" / "reg.csv").exists()

    def test_every_experiment_runs_small(self, tmp_path):
        for name, _ in list_experiments():
            path = tmp_path / f"{name}.json"
            cfg = ExperimentConfig.from_dict(
                {
                    "experiment": name,
                    "seed": 11,
                    "params": SMALL[name],
                    "output_path": str(path),
                    "format": "json",
                }
            )
            record = run(cfg)
            assert record.assertions_passed, name
            assert record.rows
            written = json.loads(path.read_text())
            assert written["assertions_passed"] is True, name
            assert written["rows"] == record.rows, name
            # Python scalars only: json cannot write a numpy integer or bool
            assert {type(v) for row in record.rows for v in row.values()} <= {bool, int, float, str}, name

    def test_omniscient_lb_linear_game_passes_at_zero_loss_and_a_fallible_learner_fails(self, tmp_path, monkeypatch):
        # the omniscient verdict is mean loss exactly 0; a learner that does
        # not know the hidden subset must fail that verdict
        params = {"m": 1, "trials": 20, "learner": "omniscient", "export_path": None}
        cfg = ExperimentConfig.from_dict(
            {"experiment": "lb_linear_game", "seed": 3, "params": params, "output_path": str(tmp_path / "lb.csv")}
        )
        record = run(cfg)
        assert record.assertions_passed
        assert record.summary["mean_loss"] == 0.0
        assert {row["loss"] for row in record.rows} == {0.0}
        monkeypatch.setattr(shatter_game, "omniscient_learner", shatter_game.best_response_learner)
        record = run(cfg)
        assert record.summary["mean_loss"] > 0.0
        assert not record.assertions_passed

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_seeded_csv_digest_pinned(self, name, tmp_path):
        path = tmp_path / f"{name}.csv"
        run(
            ExperimentConfig.from_dict(
                {"experiment": name, "seed": 11, "params": SMALL[name], "output_path": str(path)}
            )
        )
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == SMALL_CSV_SHA256[name]

    def test_benchmark_size_tolrerm_digest_pinned(self, tmp_path):
        path = tmp_path / "tolrerm_sweep.csv"
        run(
            ExperimentConfig.from_dict(
                {"experiment": "tolrerm_sweep", "seed": 11, "params": TOLRERM_BENCH_PARAMS, "output_path": str(path)}
            )
        )
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == TOLRERM_BENCH_CSV_SHA256

    def test_benchmark_size_query_digest_pinned(self, tmp_path):
        path = tmp_path / "oracle_query_sweep.csv"
        run(
            ExperimentConfig.from_dict(
                {"experiment": "oracle_query_sweep", "seed": 11, "params": QUERY_BENCH_PARAMS, "output_path": str(path)}
            )
        )
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == QUERY_BENCH_CSV_SHA256

    def test_tolrerm_sweep_member_losses_are_distribution_losses(self):
        # the sweep reads every member's loss from the oracle's one table per
        # radius; the bits must be those of the per-member oracle call, and at
        # radius 0 those of robust_loss_distribution, which builds its own table
        for task_idx in range(5):
            task = make_learning_task(seed_derive(11, f"task-{task_idx}"), gamma=0.25)
            oracle = IndexedExhaustiveOracle(task.cls, task.family, task.dist)
            for r in (task.gamma, 0.0):
                reference = [oracle.distribution_loss(i, r).hex() for i in range(len(task.cls))]
                assert [loss.hex() for loss in oracle.distribution_losses(r)] == reference
            direct = [robust_loss_distribution(h, task.family, task.dist).hex() for h in task.cls]
            assert [loss.hex() for loss in oracle.distribution_losses(0.0)] == direct
        with pytest.raises(ValueError, match="nonnegative"):
            oracle.distribution_losses(-0.1)
        with pytest.raises(ValueError, match="one radius"):
            oracle.distribution_losses(np.array([0.0]))

    def test_default_size_opt_gap_audit_digest_pinned(self, tmp_path):
        path = tmp_path / "opt_gap_audit.csv"
        run(ExperimentConfig.from_dict({"experiment": "opt_gap_audit", "seed": 11, "output_path": str(path)}))
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == OPT_GAP_AUDIT_DEFAULT_CSV_SHA256

    @pytest.mark.parametrize(
        "name, params, digest",
        MORE_CSV_SHA256,
        ids=["regularity-thin-sphere", "regularity-linear", "sandwich-bench", "vc-bench"],
    )
    def test_more_seeded_csv_digests_pinned(self, name, params, digest, tmp_path):
        path = tmp_path / f"{name}.csv"
        run(ExperimentConfig.from_dict({"experiment": name, "seed": 11, "params": params, "output_path": str(path)}))
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"# config:"))
        assert hashlib.sha256(body).hexdigest() == digest

    def test_robust_vc_audit_bound_is_the_cap_at_the_largest_scanned_size(self):
        # max_m above universe_size: the audit scans subsets of at most 3
        # examples, so a threshold class (base VC 1) with k-point regions is
        # capped at sauer(1, 3k) = 4, 7, 10, not sauer(1, 4k) = 5, 9, 13
        params = {"universe_size": 3, "thresholds": 12, "max_m": 4}
        record = run(ExperimentConfig.from_dict({"experiment": "robust_vc_audit", "seed": 11, "params": params}))
        assert [row["k"] for row in record.rows] == [1, 2, 3]
        assert [row["bound_value"] for row in record.rows] == [4, 7, 10]


def plain_state(state: dict) -> dict:
    """A bit-generator state with its arrays (Philox's counter, key and buffer) as lists, so ``==`` compares it."""
    return {k: plain_state(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}


class TestSeedDerivation:
    def test_deterministic(self):
        assert seed_derive(123, "r") == seed_derive(123, "r")

    def test_label_separation(self):
        assert seed_derive(123, "r") != seed_derive(123, "S")

    def test_zero_master_valid(self):
        rng = rng_for(0, "anything")
        x = rng.random(10)
        assert np.all((0 <= x) & (x < 1))

    def test_streams_uncorrelated(self):
        a = rng_for(99, "r").random(10_000)
        b = rng_for(99, "S").random(10_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    @pytest.mark.parametrize("master", [0, 1, 2**31 - 1, 2**64 - 1, -1])
    def test_derived_seed_gives_the_labelled_stream(self, master):
        # sandwich_audit hands its certificates derived seeds, so a
        # generator is built only where one draws
        for label in ("cert-0", "cert-17", ""):
            a = as_generator(seed_derive(master, label))
            b = rng_for(master, label)
            assert plain_state(a.bit_generator.state) == plain_state(b.bit_generator.state)
            assert np.array_equal(a.random(1000), b.random(1000))
            assert np.array_equal(a.integers(2**62, size=100), b.integers(2**62, size=100))

    def test_keyed_stream_is_numpys_keyed_philox(self):
        # rng_for keys Philox through its own seed sequence; if numpy ever
        # reads a seed sequence differently, the streams part here
        keys = [0, 2**64 - 1] + [seed_derive(i, "philox-key") for i in range(1000)]
        for key in keys:
            a = rng_for(key)
            b = np.random.Generator(np.random.Philox(key=np.uint64(key)))
            assert plain_state(a.bit_generator.state) == plain_state(b.bit_generator.state)
            assert np.array_equal(a.random(7), b.random(7))
            assert np.array_equal(a.integers(2**62, size=5), b.integers(2**62, size=5))
            assert np.array_equal(a.standard_normal(3), b.standard_normal(3))
            assert plain_state(a.bit_generator.state) == plain_state(b.bit_generator.state)

    def test_keyed_stream_seed_sequence_is_the_key_alone(self):
        # no entropy-drawn SeedSequence: the sequence Philox read returns
        # the two key words and refuses any other request
        seq = rng_for(5, "radius").bit_generator.seed_seq
        assert not isinstance(seq, np.random.SeedSequence)
        assert seq.generate_state(2, np.uint64).tolist() == [seed_derive(5, "radius"), 0]
        for n_words, dtype in [(4, np.uint32), (2, np.uint32), (1, np.uint64)]:
            with pytest.raises(ValueError, match="Philox key"):
                seq.generate_state(n_words, dtype)


class TestCli:
    def _write_config(self, tmp_path, extra=None):
        cfg = {
            "experiment": "regularity_check",
            "seed": 3,
            "output_path": str(tmp_path / "out.csv"),
        }
        cfg.update(extra or {})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_success_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--config", self._write_config(tmp_path)])
        assert code == 0
        assert (tmp_path / "out.csv").exists()
        assert "assertions: pass" in capsys.readouterr().out

    def test_validate(self, tmp_path, capsys):
        code = main(["validate", "--config", self._write_config(tmp_path)])
        assert code == 0
        assert "config ok" in capsys.readouterr().out

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "regularity_check"}))
        code = main(["validate", "--config", str(path)])
        assert code == 2
        assert not (tmp_path / "out.csv").exists()

    def test_bad_tolrerm_sweep_size_exit_two(self, tmp_path, capsys):
        extra = {"experiment": "tolrerm_sweep", "params": {"tasks": 0}}
        assert main(["run", "--config", self._write_config(tmp_path, extra)]) == 2
        assert "tasks must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bool_seed_exit_two(self, tmp_path, capsys):
        assert main(["validate", "--config", self._write_config(tmp_path, {"seed": True})]) == 2
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err

    def test_non_string_output_path_exit_two_before_running(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("robustlab.cli.run", no_run)
        assert main(["run", "--config", self._write_config(tmp_path), "--set", "output_path=5"]) == 2
        assert "output_path must be a string" in capsys.readouterr().err

    def test_bad_sandwich_audit_exit_two(self, tmp_path, capsys):
        extra = {"experiment": "sandwich_audit", "params": {"audits": -3, "include_control": "no"}}
        assert main(["run", "--config", self._write_config(tmp_path, extra)]) == 2
        assert "audits must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_non_string_export_path_exit_two_before_building(self, tmp_path, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("the failure instance was built")

        monkeypatch.setattr("robustlab.shatter_game.build_failure_instance", no_build)
        extra = {"experiment": "lb_linear_game", "params": {"export_path": 5}}
        assert main(["run", "--config", self._write_config(tmp_path, extra)]) == 2
        assert "export_path must be a string" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_sauer_budget_exit_two_from_validate_and_run(self, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("robustlab.cli.run", no_run)
        # every subset of 1 to 10 of 21 examples: 1,048,575, over the budget
        extra = {"experiment": "robust_vc_audit", "params": {"universe_size": 21, "max_m": 10}}
        for command in ("validate", "run"):
            assert main([command, "--config", self._write_config(tmp_path, extra)]) == 2
            assert "universe_size 21 and max_m 10" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "text, phrase",
        [
            (None, "cannot read config"),
            ("{not json", "is not valid JSON"),
            ("[1, 2]", "config root must be a JSON object"),
            ('{"experiment": "regularity_check", "seed": 1, "params": [1]}', "params must be a mapping"),
        ],
        ids=["missing", "invalid", "array", "params-list"],
    )
    def test_config_file_error_exit_two_from_validate_and_run(self, text, phrase, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("robustlab.cli.run", no_run)
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert phrase in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", [1.0, 0.3, 2.5])
    def test_oracle_d_at_ten_gamma_exit_two_from_validate_and_run(self, gamma, tmp_path, capsys, monkeypatch):
        def no_run(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("robustlab.cli.run", no_run)
        extra = {"experiment": "oracle_query_sweep", "params": {"D": 10 * gamma, "gamma": gamma}}
        for command in ("validate", "run"):
            assert main([command, "--config", self._write_config(tmp_path, extra)]) == 2
            assert f"got D {10 * gamma} and gamma {gamma}" in capsys.readouterr().err
        with pytest.raises(ValueError, match="D > 10"):
            build_oracle_game(10 * gamma, gamma, 2)

    @pytest.mark.parametrize("gamma", [1.0, 0.3, 2.5])
    def test_oracle_d_just_above_ten_gamma_parses_and_builds(self, gamma):
        D = math.nextafter(10 * gamma, math.inf)
        cfg = ExperimentConfig.from_dict({"experiment": "oracle_query_sweep", "seed": 1, "params": {"D": D, "gamma": gamma}})
        assert cfg.resolved_params()["D"] == D
        assert build_oracle_game(D, gamma, 2).D == D

    def test_sauer_budget_at_parse_matches_the_audit(self):
        assert robustlab.harness.SUBSET_BUDGET == robustlab.loss_vc.SUBSET_BUDGET
        cases = {(8, 4): False, (20, 13): False, (20, 14): True, (21, 10): True, (10**6, 1): False, (10**6 + 1, 1): True}
        for (n, max_m), over in cases.items():
            assert (robustlab.loss_vc.sauer_bound(max_m, n) - 1 > robustlab.loss_vc.SUBSET_BUDGET) == over
            raw = {"experiment": "robust_vc_audit", "seed": 1, "params": {"universe_size": n, "max_m": max_m}}
            if over:
                with pytest.raises(ConfigError, match=f"universe_size {n} and max_m {max_m}"):
                    ExperimentConfig.from_dict(raw)
            else:
                assert ExperimentConfig.from_dict(raw).resolved_params()["universe_size"] == n
        # the check stops summing at the budget, so a huge pair fails at once
        with pytest.raises(ConfigError, match="max_m"):
            ExperimentConfig.from_dict({"experiment": "robust_vc_audit", "seed": 1, "params": {"universe_size": 10**9, "max_m": 10**9}})

    def test_null_export_path_runs_without_export(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        extra = {"experiment": "lb_linear_game", "params": {"trials": 10, "export_path": None}}
        assert main(["run", "--config", self._write_config(tmp_path, extra)]) == 0
        assert (tmp_path / "out.csv").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out.csv"]

    @pytest.mark.parametrize(
        "hypothesis, key",
        [
            ({"kind": "linear"}, "w"),
            ({"kind": "linear", "w": [1.0, 0.0]}, "b"),
            ({"kind": "sphere", "radius": 1.0}, "center"),
            ({"kind": "sphere", "center": [0.0, 0.0]}, "radius"),
        ],
        ids=["linear-w", "linear-b", "sphere-center", "sphere-radius"],
    )
    def test_incomplete_hypothesis_exit_two(self, hypothesis, key, tmp_path, capsys):
        extra = {"params": {"hypothesis": hypothesis}}
        assert main(["run", "--config", self._write_config(tmp_path, extra)]) == 2
        assert f"needs hypothesis.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_bad_override_exit_two(self, tmp_path):
        code = main(
            ["run", "--config", self._write_config(tmp_path), "--set", "bogus=1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "name", sorted(os.listdir(os.path.join(os.path.dirname(__file__), "..", "demos", "configs")))
    )
    def test_demo_config_validates(self, name, capsys):
        path = os.path.join(os.path.dirname(__file__), "..", "demos", "configs", name)
        assert main(["validate", "--config", path]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "tolrerm_sweep" in out and "oracle_query_sweep" in out
