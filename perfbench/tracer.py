"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps qsl-lab's public functions where the calling module binds
them (``qsl_lab.experiments.propagate_unitary_batch``,
``qsl_lab.qsl.bloch_angle``, ...), so no program file changes.  Each call
records a span: name, start, end, parent span and op index.  Spans stay in
memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Every op runs inside a root span ``bench.op``, so the self times
of an op's spans add up to the op's wall time.  Health numbers computed
from a call's result run inside ``trace.bookkeeping`` spans, which keeps
that work out of the layers' self times.

Names the program no longer binds are skipped, so the benchmark keeps
running across refactors; their metrics then read 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# per-layer metrics printed by a traced run, with their units
LAYER_METRICS = (
    ("dynamics.propagate_unitary_batch.self_s", "s"),
    ("dynamics.propagate_timedep.self_s", "s"),
    ("dynamics.propagate_const.self_s", "s"),
    ("dynamics.propagate_lindblad.self_s", "s"),
    ("dynamics.state_steps", "count"),
    ("dynamics.state_bytes", "B"),
    ("dynamics.unitary_purity_drift", "1"),
    ("dynamics.lindblad_trace_drift", "1"),
    ("dynamics.lindblad_min_eig", "1"),
    ("qsl.path_angles.self_s", "s"),
    ("qsl.start_angles.self_s", "s"),
    ("qsl.report_from_series.self_s", "s"),
    ("qsl.qsl_report.self_s", "s"),
    ("qsl.accumulate_path.self_s", "s"),
    ("qsl.crossing_angle_evals", "count"),
    ("qsl.clamp_warnings", "count"),
    ("swaptest.simulate_path_measurement.self_s", "s"),
    ("swaptest.pairs", "count"),
    ("swaptest.shots", "count"),
    ("states.self_s", "s"),
    ("states.calls", "count"),
    ("svg.render_chart.self_s", "s"),
    ("svg.bytes", "B"),
    ("experiments.run_fig4.self_s", "s"),
    ("experiments.run_fig5.self_s", "s"),
    ("experiments.run_appendix_c.self_s", "s"),
    ("experiments.run_swap_demo.self_s", "s"),
    ("experiments.run_custom.self_s", "s"),
    ("experiments.artifacts_s", "s"),
    ("experiments.artifact_bytes", "B"),
    ("experiments.sweep_near_ties", "count"),
    ("experiments.sweep_grid_missed_crossings", "count"),
    ("experiments.pool_serial_s", "s"),
    ("experiments.pool_parallel_s", "s"),
    ("experiments.pool_speedup", "1"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.op_s", "s"),
    ("trace.overhead_frac", "1"),
)

ROOT_SPAN = "bench.op"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index, op index]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.minima: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []
        self._undo: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def record_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def record_min(self, name: str, value: float) -> None:
        self.minima[name] = min(self.minima.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` runs in a bookkeeping span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                index = self.open(BOOKKEEPING_SPAN)
                try:
                    after(self, args, result)
                finally:
                    self.close(index)
            return result

        return traced

    def counter(self, name: str, fn):
        """``fn`` with a call counter and no span (for calls too many to span)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement_of) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) if it exists."""
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            return
        if is_dict:
            owner[attr] = replacement_of(original)
        else:
            setattr(owner, attr, replacement_of(original))
        self._undo.append((owner, attr, original, is_dict))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, is_dict = self._undo.pop()
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def self_times(self, ops=None) -> dict[str, float]:
        """Total self time per span name, over the spans of ``ops`` (all if None)."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is None or op in ops:
                totals[name] += (end - start) - child[index]
        return totals

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]


def _state_health(tracer: Tracer, states: np.ndarray, batch: int) -> None:
    tracer.count("dynamics.state_steps", states.shape[0] * batch)
    tracer.count("dynamics.state_bytes", states.nbytes)


def _unitary_health(tracer: Tracer, states: np.ndarray) -> None:
    purities = np.einsum("k...ij,k...ji->k...", states, states).real
    tracer.record_max("dynamics.unitary_purity_drift", float(np.max(np.abs(purities - purities[0]))))


def _after_trajectory(tracer, args, traj) -> None:
    _state_health(tracer, traj.states, 1)
    _unitary_health(tracer, traj.states)


def _after_batch(tracer, args, result) -> None:
    _, states = result
    _state_health(tracer, states, states.shape[1])
    _unitary_health(tracer, states)


def _after_lindblad(tracer, args, traj) -> None:
    states = traj.states
    _state_health(tracer, states, 1)
    drift = np.max(np.abs(np.einsum("kii->k", states) - 1.0))
    tracer.record_max("dynamics.lindblad_trace_drift", float(drift))
    hermitian = (states + states.conj().transpose(0, 2, 1)) / 2.0
    tracer.record_min("dynamics.lindblad_min_eig", float(np.min(np.linalg.eigvalsh(hermitian))))


def _after_swaptest(tracer, args, estimate) -> None:
    pairs = len(estimate.trajectory) - 1
    shots_per_pair = args[4] if len(args) > 4 else None
    tracer.count("swaptest.pairs", pairs)
    # three overlaps (cross term and both purities) per pair
    tracer.count("swaptest.shots", 3 * pairs * (shots_per_pair or 0))


def _after_render(tracer, args, svg_text) -> None:
    tracer.count("svg.bytes", len(svg_text.encode("utf-8")))


def _after_execute(tracer, args, result) -> None:
    run_result = result[0]
    out = Path(args[1])
    names = [f"{run_result.experiment}.csv", "report.txt", *run_result.svgs]
    tracer.count("experiments.artifact_bytes", sum((out / n).stat().st_size for n in names))


def install_layers(tracer: Tracer) -> None:
    """Wrap the layer boundaries of qsl-lab for one traced run."""
    import qsl_lab.cli as cli
    import qsl_lab.dynamics as dynamics
    import qsl_lab.experiments as experiments
    import qsl_lab.qsl as qsl
    import qsl_lab.swaptest as swaptest

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    tracer.patch(cli, "main", span("cli.main"))
    tracer.patch(cli, "execute", span("experiments.execute", _after_execute))
    for key, runner in list(experiments.RUNNERS.items()):
        tracer.patch(experiments.RUNNERS, key, span(f"experiments.{runner.__name__}"))

    tracer.patch(dynamics, "propagate_const", span("dynamics.propagate_const", _after_trajectory))
    tracer.patch(dynamics, "propagate_timedep", span("dynamics.propagate_timedep", _after_trajectory))
    tracer.patch(dynamics, "propagate_lindblad", span("dynamics.propagate_lindblad", _after_lindblad))
    tracer.patch(experiments, "propagate_unitary_batch", span("dynamics.propagate_unitary_batch", _after_batch))

    for owner in (qsl, experiments):
        tracer.patch(owner, "path_angles", span("qsl.path_angles"))
        tracer.patch(owner, "start_angles", span("qsl.start_angles"))
        tracer.patch(owner, "report_from_series", span("qsl.report_from_series"))
        tracer.patch(owner, "qsl_report", span("qsl.qsl_report"))
    for owner in (qsl, experiments, swaptest):
        tracer.patch(owner, "accumulate_path", span("qsl.accumulate_path"))
    tracer.patch(qsl, "bloch_angle", lambda fn: tracer.counter("qsl.crossing_angle_evals", fn))

    tracer.patch(
        experiments,
        "simulate_path_measurement",
        span("swaptest.simulate_path_measurement", _after_swaptest),
    )
    tracer.patch(experiments, "render_chart", span("svg.render_chart", _after_render))
    for fn_name in ("qubit_state_from_angles", "random_bloch_direction", "density_from_bloch"):
        tracer.patch(experiments, fn_name, span(f"states.{fn_name}"))
    tracer.patch(dynamics, "check_density_matrix", span("states.check_density_matrix"))


def layer_metrics(tracer: Tracer, traced_ops, op_times, untraced_times, extra) -> dict:
    """Per-op averages of the traced ops' self times and counts, plus health."""
    n = max(len(traced_ops), 1)
    traced_ops = set(traced_ops)
    selfs = tracer.self_times(traced_ops)
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    for name, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = selfs.get(name[: -len(".self_s")], 0.0) / n
    values["experiments.artifacts_s"] = selfs.get("experiments.execute", 0.0) / n
    values["states.self_s"] = sum(t for k, t in selfs.items() if k.startswith("states.")) / n
    values["states.calls"] = sum(
        1 for s in tracer.spans if s[0].startswith("states.") and s[4] in traced_ops
    ) / n
    for name, total in tracer.counts.items():
        if name in values:
            values[name] = total / n
    for name in ("dynamics.unitary_purity_drift", "dynamics.lindblad_trace_drift"):
        values[name] = tracer.maxima.get(name, 0.0)
    values["dynamics.lindblad_min_eig"] = tracer.minima.get("dynamics.lindblad_min_eig", 0.0)
    traced_median = float(np.median(op_times)) if op_times else 0.0
    untraced_median = float(np.median(untraced_times)) if untraced_times else 0.0
    # a per-op mean like the self times above, so their shares of it add up
    values["bench.op_s"] = float(np.mean(op_times)) if op_times else 0.0
    if untraced_median > 0:
        values["trace.overhead_frac"] = traced_median / untraced_median - 1.0
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
