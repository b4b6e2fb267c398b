"""Config-driven experiment runner with seeded, self-describing outputs.

One experiment per invocation.  A config names the experiment, its
parameters, a master seed, and an output destination; the harness
dispatches to the owning module, gathers per-trial rows, evaluates the
experiment's embedded assertions, and writes the table atomically (CSV
with a ``#``-prefixed schema header, or JSON with a ``schema`` field).
Re-running an identical config and seed reproduces the output
byte-for-byte; wall-clock time lives only on the in-memory record.

Every config value is checked at parse time against one rule table, the
top-level ``CONFIG_ROWS`` and each experiment's in ``EXPERIMENT_TABLES``,
both plain data.  So set-up, ``import robustlab`` and parsing a config,
loads ``json`` and the two robustlab modules, and no ``dataclasses``,
``typing``, ``tempfile`` or numpy.  ``ExperimentSpec``, ``RunRecord`` and
``EXPERIMENTS`` are defined in ``runners`` with the experiment runners,
and this module hands them out from there; ``runners``, and with it
numpy, ``dataclasses`` and the library, loads when a run starts or one of
those names is first read.  A run still loads all of it; only
``validate`` and ``list-experiments`` skip it.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from collections import namedtuple
from collections.abc import Callable

from . import __version__

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "EXPERIMENTS",
    "list_experiments",
    "run",
    "write_record",
]

OUTPUT_DIR_ENV = "ROBUSTLAB_OUTPUT_DIR"
SUBSET_BUDGET = 1_000_000  # loss_vc.SUBSET_BUDGET, which this module reads without loading numpy


class ConfigError(ValueError):
    """Malformed or unknown experiment configuration."""


class Rule:
    """A stdlib-only test of one config value, and the phrase its error quotes."""

    __slots__ = ("test", "phrase")

    def __init__(self, test: Callable[[object], bool], phrase: str):
        self.test, self.phrase = test, phrase


def _number(v, kind=(int, float)) -> bool:
    """A finite JSON number of ``kind``; a bool is no number."""
    return isinstance(v, kind) and not isinstance(v, bool) and -math.inf < v < math.inf


def _integer(lo: int, phrase: str, hi: float = math.inf) -> Rule:
    return Rule(lambda v: _number(v, int) and lo <= v <= hi, phrase)


def _list_of(item: Rule, phrase: str, distinct: bool = False) -> Rule:
    return Rule(lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(item.test, v))
                and len(set(v) if distinct else v) == len(v), phrase)


REQUIRED = object()  # the default of a key that has none
POSITIVE = _integer(1, "a positive integer")
NONNEGATIVE = _integer(0, "a nonnegative integer")
FINITE = Rule(_number, "a finite number")
SCALE = Rule(lambda v: _number(v) and v > 0, "a finite number > 0")
FRACTION = Rule(lambda v: _number(v) and 0 < v <= 1, "a number in (0, 1]")
PATH = Rule(lambda v: v is None or isinstance(v, str), "a string or null")
VECTOR = _list_of(FINITE, "a nonempty list of finite numbers")
GRID = _list_of(POSITIVE, "a nonempty list of distinct positive integers", distinct=True)
HYPOTHESIS = {  # a nested rule: the value's "kind" names the table of its other keys
    "linear": {"w": (REQUIRED, Rule(lambda v: VECTOR.test(v) and any(v), VECTOR.phrase + ", not all 0")),
               "b": (REQUIRED, FINITE)},
    "sphere": {"center": (REQUIRED, VECTOR), "radius": (REQUIRED, SCALE),
               "inside_label": (1, Rule(lambda v: _number(v, int) and v in (-1, 1), "+1 or -1"))},
}
LEARNERS = ("best_response", "random_consistent", "omniscient")
CONFIG_ROWS = {  # the top-level keys
    "seed": (REQUIRED, _integer(0, "an unsigned 64-bit integer", hi=2**64 - 1)),
    "output_path": (None, PATH),
    "format": ("csv", Rule(lambda v: v in ("csv", "json"), "csv or json")),
}


class ExperimentConfig(namedtuple("ExperimentConfig", "experiment params seed output_path format")):
    """Strictly parsed experiment description; immutable, and equal to any config or tuple of the same values."""

    __slots__ = ()

    def __new__(cls, experiment: str, params: dict, seed: int, output_path: str | None = None, format: str = "csv"):
        if experiment not in EXPERIMENT_TABLES:
            raise ConfigError(f"unknown experiment {experiment!r}; known: {sorted(EXPERIMENT_TABLES)}")
        cls._check(CONFIG_ROWS, {"seed": seed, "output_path": output_path, "format": format})
        cls._check(EXPERIMENT_TABLES[experiment][0], params)
        config = super().__new__(cls, experiment, params, seed, output_path, format)
        resolved = config.resolved_params()
        if experiment == "robust_vc_audit":  # overhead_audit's Sauer check scans every subset of 1 to max_m examples
            n, max_m, subsets = resolved["universe_size"], resolved["max_m"], 0
            for m in range(1, min(n, max_m) + 1):
                subsets += math.comb(n, m)
                if subsets > SUBSET_BUDGET:
                    raise ConfigError(f"universe_size {n} and max_m {max_m} give the Sauer check over "
                                      f"{SUBSET_BUDGET:,} subsets; lower one of them")
        if experiment == "oracle_query_sweep" and not resolved["D"] > 10 * resolved["gamma"]:  # as build_oracle_game
            raise ConfigError(f"D must be > 10 * gamma, got D {resolved['D']} and gamma {resolved['gamma']}")
        return config

    @staticmethod
    def _check(table: dict, values: dict, where: str = "") -> None:
        """Raise ``ConfigError`` at the first unknown key, missing key or value that breaks its rule."""
        unknown = sorted(set(values) - set(table))
        if unknown:
            raise ConfigError(f"unknown parameter keys{where and ' in ' + where}: {unknown}")
        for key, (default, rule) in table.items():
            name, value = f"{where}.{key}".lstrip("."), values.get(key, default)
            if value is REQUIRED:
                raise ConfigError(f"{where} needs {name}")
            if isinstance(rule, dict):  # a nested table, chosen by the value's "kind"
                kind = value.get("kind") if isinstance(value, dict) else None
                if not isinstance(kind, str) or kind not in rule:
                    raise ConfigError(f"{name}.kind must be {' or '.join(rule)}, got {value!r}")
                ExperimentConfig._check(rule[kind], {k: v for k, v in value.items() if k != "kind"}, name)
            elif not rule.test(value):
                raise ConfigError(f"{name} must be {rule.phrase}, got {value!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {"experiment", "params", *CONFIG_ROWS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "seed"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be a mapping")
        return cls(raw["experiment"], dict(params), **{key: raw[key] for key in CONFIG_ROWS if key in raw})

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config {path} is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(raw)

    def with_overrides(self, pairs: list[str]) -> "ExperimentConfig":
        """Apply ``key=value`` overrides; dotted keys reach into params."""
        import copy

        raw = {**self._asdict(), "params": copy.deepcopy(self.params)}
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} is not of the form key=value")
            key, text = pair.split("=", 1)
            try:
                value = json.loads(text)
            except json.JSONDecodeError:
                value = text
            if key.startswith("params."):
                raw["params"][key[len("params.") :]] = value
            elif key in raw:
                raw[key] = value
            else:
                raise ConfigError(f"unknown override target {key!r}")
        raw = {k: v for k, v in raw.items() if v is not None}
        return ExperimentConfig.from_dict(raw)

    def resolved_params(self) -> dict:
        merged = {key: default for key, (default, _) in EXPERIMENT_TABLES[self.experiment][0].items()}
        merged.update(self.params)
        return merged

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": self.resolved_params(),
            "seed": self.seed,
            "format": self.format,
            "version": __version__,
        }


def run(config: ExperimentConfig) -> RunRecord:
    """Dispatch to the experiment runner and optionally write the output."""
    from .runners import EXPERIMENTS, RunRecord

    spec = EXPERIMENTS[config.experiment]
    params = config.resolved_params()
    start = time.perf_counter()
    schema, rows, summary, passed = spec.runner(params, config.seed)
    elapsed = time.perf_counter() - start
    record = RunRecord(config.echo(), schema, rows, summary, passed, elapsed)
    if config.output_path:
        write_record(record, resolve_output_path(config.output_path), config.format)
    return record


def resolve_output_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _cell(row: dict, name: str) -> str:
    """A CSV cell: a bool as ``true``/``false``, a float by ``repr``, an int or str as itself."""
    v = row[name]
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, (int, str)):
        return str(v)
    raise TypeError(f"column {name!r} holds a {type(v).__name__}; a cell must be a bool, int, float or str")


def write_record(record: RunRecord, path: str, fmt: str) -> None:
    """Atomic write: the target file appears complete or not at all.

    A CSV cell that is not a ``bool``, ``int``, ``float`` or ``str`` raises
    ``TypeError`` naming its column before anything is written.
    """
    buf = io.StringIO()
    if fmt == "csv":
        for name, desc in record.schema:
            buf.write(f"# schema: {name} = {desc}\n")
        buf.write(f"# config: {json.dumps(record.config, sort_keys=True)}\n")
        buf.write(f"# summary: {json.dumps(record.summary, sort_keys=True)}\n")
        names = [name for name, _ in record.schema]
        buf.write(",".join(names) + "\n")
        for row in record.rows:
            buf.write(",".join(_cell(row, name) for name in names) + "\n")
    else:
        json.dump(
            {
                "schema": [{"name": n, "description": d} for n, d in record.schema],
                "config": record.config,
                "rows": record.rows,
                "summary": record.summary,
                "assertions_passed": record.assertions_passed,
            },
            buf,
            sort_keys=True,
            indent=2,
        )
        buf.write("\n")
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then move it into place.

    The target appears complete or not at all, and the temporary file is
    removed if the write fails.  It gets the mode ``open()`` would give,
    ``0o666`` less the umask, not ``mkstemp``'s owner-only ``0o600``.
    """
    import tempfile

    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".robustlab-", suffix=".tmp")
    try:
        umask = os.umask(0o077)  # reading the umask sets it; 0o077 meanwhile grants no one else anything
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


EXPERIMENT_TABLES = {  # name -> (rule table of its params, description)
    "tolrerm_sweep": ({
        "tasks": (20, POSITIVE),
        "n_grid": ([10, 30, 100, 300], GRID),
        "trials": (200, POSITIVE),
        "eps": (0.1, FRACTION),
        "delta": (0.1, FRACTION),
        "gamma": (0.25, SCALE),
    }, "excess-error sweep of the tolerant learner over sample sizes"),
    "opt_gap_audit": ({
        "instances": (50, POSITIVE),
        "trials": (400, _integer(100, "an integer >= 100")),
        "sample_size": (30, POSITIVE),
        "eps": (0.1, FRACTION),
        "delta": (0.1, FRACTION),
        "gamma": (0.5, SCALE),
    }, "stability of the optimal empirical loss under radius shrink"),
    "sandwich_audit": ({
        "audits": (50, POSITIVE),
        "include_control": (True, Rule(lambda v: isinstance(v, bool), "true or false")),
    }, "loss-sandwich audits of the proxy-region constructions"),
    "lb_linear_game": ({
        "m": (2, _integer(1, "an integer from 1 to 4", hi=4)),  # C(3m, m) <= 2000
        "W": (1.0, SCALE),
        "d": (2, _integer(2, "an integer >= 2")),
        "trials": (10_000, POSITIVE),
        "n_samples": (0, NONNEGATIVE),  # 0 draws m samples
        "learner": ("best_response", Rule(lambda v: v in LEARNERS, " or ".join(LEARNERS))),
        "export_path": ("", PATH),
    }, "hidden-subset game defeating proper learners on bounded halfspaces"),
    "oracle_query_sweep": ({  # and D > 10 * gamma, checked in ExperimentConfig
        "D": (20.0, SCALE),
        "gamma": (1.0, SCALE),
        "d": (2, POSITIVE),
        "budgets": ([0, 1, 2, 4, 8, 16, 32, 64],
                    _list_of(NONNEGATIVE, "a nonempty list of distinct nonnegative integers", distinct=True)),
        "trials": (2000, POSITIVE),
    }, "excess error of the sampling-oracle game across query budgets"),
    "robust_vc_audit": ({
        "universe_size": (8, POSITIVE),
        "thresholds": (25, POSITIVE),
        "k_grid": ([1, 2, 3], GRID),
        "max_m": (4, POSITIVE),
    }, "robust VC overhead and growth-function audits"),
    "regularity_check": ({
        "hypothesis": ({"kind": "sphere", "center": [0.0, 0.0], "radius": 2.0}, HYPOTHESIS),
        "alpha": (1.0, SCALE),
        "probes": (256, NONNEGATIVE),
        "domain_radius": (3.0, SCALE),
    }, "probe a hypothesis for single-label balls of a given radius"),
}


def list_experiments() -> list[tuple[str, str]]:
    return [(name, description) for name, (_, description) in sorted(EXPERIMENT_TABLES.items())]


def __getattr__(name: str):
    """``EXPERIMENTS``, ``ExperimentSpec`` and ``RunRecord``, read from ``runners``, which loads on first access."""
    if name not in ("EXPERIMENTS", "ExperimentSpec", "RunRecord"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import runners

    return getattr(runners, name)
