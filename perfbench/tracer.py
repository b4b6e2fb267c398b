"""Per-layer spans and counters for robustlab, installed from outside ``src/``.

``install`` rebinds each traced public function in every ``robustlab``
module namespace that holds it (so ``from .regions import point_key`` call
sites are covered too) and replaces traced methods on their classes.  A
span stack gives each span its parent, so a span's self time is its busy
time minus the busy time of the spans it called.  Spans are aggregated in
memory as they close and read out once, after the run, by ``metrics``.

robustlab is single-threaded and the benchmark calls it from one thread,
so no layer ever waits on another: busy time is the whole story and no
wait time is reported.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import sys
from array import array
from time import perf_counter

# Span names, grouped by the robustlab module (layer) they belong to.
SPANS = (
    "rerm.IndexedExhaustiveOracle.init",
    "rerm.IndexedExhaustiveOracle.solve",
    "rerm.tolrerm",
    "rerm.make_learning_task",
    "regions.RegionFamily.region_for",
    "regions.uniform_sample",
    "regions.contains_many",
    "geometry.cover_compact_by_balls",
    "geometry.verify_cover",
    "classifiers.violation_radius",
    "classifiers.robust_loss_point",
    "classifiers.regularity_check",
    "classifiers.DiscreteDistribution.sample",
    "sandwich.build_point_sandwich",
    "sandwich.build_ball_sandwich",
    "sandwich.sandwich_audit",
    "oracle_game.run_query_game",
    "loss_vc.overhead_audit",
    "loss_vc.pattern_witnesses",
    "seeding.rng_for",
    "harness.runner",
    "harness.write_record",
)

# Exact counts gathered at span boundaries.  They must repeat exactly
# between two traced runs of one seed.
COUNTS = (
    "regions.point_key.calls",
    "regions.uniform_sample.points",
    "regions.contains_many.rows",
    "geometry.cover_compact_by_balls.centers",
    "geometry.verify_cover.pairs",
    "geometry.Ball.init.calls",
    "oracle_game.draws",
    "loss_vc.subsets_scanned",
    "harness.write_record.bytes",
)

# Spans whose per-call latency distribution is reported.
LATENCY_SPANS = ("rerm.tolrerm", "sandwich.sandwich_audit")

# Candidate rows that uniform_sample handed to contains_many; the
# denominator of the rejection sampler's acceptance ratio.
_ROWS_TESTED = "regions.uniform_sample.rows_tested"


def is_count(name: str) -> bool:
    """Whether a per-layer metric is an exact count (as opposed to a time)."""
    return name.endswith(".calls") or name in COUNTS


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self._stack: list[list] = []  # frames: [name, start, child busy time]
        self.calls = dict.fromkeys(SPANS, 0)
        self.busy = dict.fromkeys(SPANS, 0.0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.durations = {name: array("d") for name in LATENCY_SPANS}
        self.counts = dict.fromkeys(COUNTS + (_ROWS_TESTED,), 0)

    def reset(self) -> None:
        """Zero every span and count in place; installed wrappers hold these objects."""
        for table, zero in ((self.calls, 0), (self.counts, 0), (self.busy, 0.0), (self.self_s, 0.0)):
            for key in table:
                table[key] = zero
        for values in self.durations.values():
            del values[:]

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after(tracer, args, result)`` adds counts."""
        stack = self._stack
        durations = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[1]
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_s[name] += elapsed - frame[2]
                if durations is not None:
                    durations.append(elapsed)
                if stack:
                    stack[-1][2] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def watch(self, fn, after):
        """Wrap ``fn`` without a span; ``after(tracer, args, result)`` adds counts."""

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, args, result)
            return result

        return watched

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that each call only increments ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the run since the last ``reset``.

        ``trace.overhead_ratio`` needs an untraced run too; the caller adds it.
        """
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.busy[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for span in LATENCY_SPANS:
            ms = [1000.0 * v for v in self.durations[span]]
            if len(ms) > 1:
                cuts = statistics.quantiles(ms, n=100, method="inclusive")
                p50, p99 = cuts[49], cuts[98]
            else:
                p50 = p99 = ms[0] if ms else 0.0
            out[f"{span}.ms_p50"] = p50
            out[f"{span}.ms_p99"] = p99
        for name in COUNTS:
            out[name] = self.counts[name]
        tested = self.counts[_ROWS_TESTED]
        out["regions.uniform_sample.accept_ratio"] = (
            self.counts["regions.uniform_sample.points"] / tested if tested else 0.0
        )
        game_s = self.busy["oracle_game.run_query_game"]
        out["oracle_game.draws_per_s"] = self.counts["oracle_game.draws"] / game_s if game_s else 0.0
        return out


# --------------------------------------------------------------------------
# count hooks, run after a wrapped call returns
# --------------------------------------------------------------------------


def _sampled_points(tracer, args, result):
    tracer.counts["regions.uniform_sample.points"] += len(result)


def _tested_rows(tracer, args, result):
    # args = (region, pts); nested membership tests are not new candidates
    parent = tracer.parent()
    if parent == "regions.contains_many":
        return
    tracer.counts["regions.contains_many.rows"] += len(args[1])
    if parent == "regions.uniform_sample":
        tracer.counts[_ROWS_TESTED] += len(args[1])


def _kept_centers(tracer, args, result):
    tracer.counts["geometry.cover_compact_by_balls.centers"] += len(result)


def _probe_rows(target, probe_count) -> int:
    """Probe points ``verify_cover`` compares, chosen as it chooses them.

    Builds no region, so the ``Ball`` constructor count is left alone.
    """
    from robustlab.geometry import Ball
    from robustlab.regions import FinitePoints, UnionOfBalls

    if isinstance(target, FinitePoints):
        return len(target.points)
    if isinstance(target, Ball):
        return probe_count if target.radius > 0 else 1
    if isinstance(target, UnionOfBalls):
        return probe_count if any(b.radius > 0 for b in target.balls) else len(target.balls)
    return probe_count  # Expanded: gamma > 0, so it has positive measure


def _cover_pairs(tracer, args, result):
    # computed from the arguments: (target, balls, probe_count, seed)
    target, balls, probe_count = args[0], args[1], args[2]
    if balls:
        tracer.counts["geometry.verify_cover.pairs"] += _probe_rows(target, probe_count) * len(balls)


def _game_draws(tracer, args, result):
    tracer.counts["oracle_game.draws"] += sum(result.anchor_queries)


def _search_subsets(tracer, args, result):
    tracer.counts["loss_vc.subsets_scanned"] += result.subsets_scanned


def _audit_subsets(tracer, args, result):
    tracer.counts["loss_vc.subsets_scanned"] += sum(row.pattern_checks for row in result)


def _written_bytes(tracer, args, result):
    # args = (record, path, fmt)
    tracer.counts["harness.write_record.bytes"] += os.path.getsize(args[1])


# --------------------------------------------------------------------------
# installation
# --------------------------------------------------------------------------


def install(tracer: Tracer):
    """Wrap robustlab's traced functions and methods with ``tracer``.

    Returns a function that puts every original back, so one process can
    alternate untraced and traced runs.
    """
    from robustlab import classifiers, geometry, harness, loss_vc, oracle_game
    from robustlab import regions, rerm, sandwich, seeding

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "robustlab"]
    saved: list[tuple[object, str, object]] = []  # (namespace, name, original)

    def replace(namespace, attr, value):
        # namespace is a module, a class or a dict
        if isinstance(namespace, dict):
            saved.append((namespace, attr, namespace[attr]))
            namespace[attr] = value
        else:
            saved.append((namespace, attr, vars(namespace)[attr]))
            setattr(namespace, attr, value)

    def rebind(module, attr, wrap):
        original = getattr(module, attr)
        replacement = wrap(original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    replace(m, key, replacement)

    def patch(cls, attr, wrap):
        replace(cls, attr, wrap(cls.__dict__[attr]))

    def span(name, after=None):
        return lambda fn: tracer.span(name, fn, after)

    rebind(rerm, "tolrerm", span("rerm.tolrerm"))
    rebind(rerm, "make_learning_task", span("rerm.make_learning_task"))
    patch(rerm.IndexedExhaustiveOracle, "__init__", span("rerm.IndexedExhaustiveOracle.init"))
    patch(rerm.IndexedExhaustiveOracle, "solve", span("rerm.IndexedExhaustiveOracle.solve"))

    rebind(regions, "point_key", lambda fn: tracer.counter("regions.point_key.calls", fn))
    patch(regions.RegionFamily, "region_for", span("regions.RegionFamily.region_for"))
    rebind(regions, "uniform_sample", span("regions.uniform_sample", _sampled_points))
    for cls in (regions.FinitePoints, geometry.Ball, regions.UnionOfBalls, regions.Expanded):
        patch(cls, "contains_many", span("regions.contains_many", _tested_rows))

    rebind(geometry, "cover_compact_by_balls", span("geometry.cover_compact_by_balls", _kept_centers))
    rebind(geometry, "verify_cover", span("geometry.verify_cover", _cover_pairs))
    patch(geometry.Ball, "__init__", lambda fn: tracer.counter("geometry.Ball.init.calls", fn))

    rebind(classifiers, "violation_radius", span("classifiers.violation_radius"))
    rebind(classifiers, "robust_loss_point", span("classifiers.robust_loss_point"))
    rebind(classifiers, "regularity_check", span("classifiers.regularity_check"))
    patch(classifiers.DiscreteDistribution, "sample", span("classifiers.DiscreteDistribution.sample"))

    rebind(sandwich, "build_point_sandwich", span("sandwich.build_point_sandwich"))
    rebind(sandwich, "build_ball_sandwich", span("sandwich.build_ball_sandwich"))
    rebind(sandwich, "sandwich_audit", span("sandwich.sandwich_audit"))

    rebind(oracle_game, "run_query_game", span("oracle_game.run_query_game", _game_draws))

    rebind(loss_vc, "overhead_audit", span("loss_vc.overhead_audit", _audit_subsets))
    rebind(loss_vc, "pattern_witnesses", span("loss_vc.pattern_witnesses"))
    rebind(loss_vc, "robust_vc_search", lambda fn: tracer.watch(fn, _search_subsets))

    rebind(seeding, "rng_for", span("seeding.rng_for"))

    rebind(harness, "write_record", span("harness.write_record", _written_bytes))
    runner_span = span("harness.runner")
    for name, spec in list(harness.EXPERIMENTS.items()):
        replace(harness.EXPERIMENTS, name, dataclasses.replace(spec, runner=runner_span(spec.runner)))

    def uninstall() -> None:
        for obj, attr, original in reversed(saved):
            if isinstance(obj, dict):
                obj[attr] = original
            else:
                setattr(obj, attr, original)

    return uninstall
