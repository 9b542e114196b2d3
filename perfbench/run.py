"""qsl-lab benchmark.

    python3 perfbench/run.py --workload {sweep,figures,nlevel} --seed N
                             --seconds S --trace {0,1}

Run from the root of a source checkout; qsl_lab is imported from ``src``.
One client runs ops in a closed loop (the next op starts when the previous
one has finished) on one thread, with the BLAS/OpenMP pools pinned to one
thread.  Every op's outputs are checked outside the timed interval.

``--trace 0`` prints the end-to-end metrics.  Their times are given at a
fixed reference speed of the host: a shared host changes speed by up to
half for seconds to minutes at a time, so each op and each set-up is timed
together with a fixed calibration loop (small numpy calls and Python
arithmetic) run right before and right after it, and the metric is the
ratio of the two times, scaled by ``CALIBRATION_REFERENCE_S``.  A slower
program raises the ratio; a slower host raises both times.  The raw
wall-clock medians are on the metadata line.

``--trace 1`` alternates untraced and traced ops, prints the per-layer
metrics of the traced ones (see tracer.py) and writes the spans to
``.bench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the run
metadata.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import ROOT_SPAN, Tracer, install_layers, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep", "figures", "nlevel")
# fresh-process set-ups per run, spread evenly over the timed ops
SETUP_PROBES = 10
# serial/pool pairs of sweep ops timed in a traced run
POOL_REPEATS = 2
# enough ops that ten lie beyond the 90th percentile
MIN_OPS = 100
# stop starting ops after this long, so a run on a slow machine still ends
HARD_STOP_S = 140.0
# calibration loop: a fixed Hermitian 4x4 matrix and the number of rounds
_CALIBRATION_RNG = np.random.default_rng(0)
CALIBRATION_MATRIX = _CALIBRATION_RNG.normal(size=(4, 4)) + 1j * _CALIBRATION_RNG.normal(size=(4, 4))
CALIBRATION_MATRIX += CALIBRATION_MATRIX.conj().T
CALIBRATION_ROUNDS = 150
# the calibration loop's time on the reference host (2-vCPU Xeon, 2.1 GHz);
# end-to-end times are reported as if the host ran at that speed
CALIBRATION_REFERENCE_S = 0.005
END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
    "success_frac": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def require_sources() -> None:
    missing = [p for p in ("src/qsl_lab/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"benchmark: not a qsl-lab checkout, missing {', '.join(missing)} under {ROOT}")


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now."""
    start = time.perf_counter()
    total = 0.0
    for k in range(CALIBRATION_ROUNDS):
        w, v = np.linalg.eigh(CALIBRATION_MATRIX)
        m = np.einsum("ij,jk,lk->il", v, CALIBRATION_MATRIX, v.conj())
        total += math.cos(0.1 * k) * float(w[0]) + float(m[0, 0].real)
    count = 0
    for k in range(20_000):
        count += k * k
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Seconds from process start until the first op is ready, in a fresh process."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(work)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    shutil.rmtree(work, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1]) - start


class Timing:
    """Raw seconds and calibration ratios of a series of measurements."""

    def __init__(self):
        self.seconds: list[float] = []
        self.ratios: list[float] = []

    def add(self, seconds: float, before: float, after: float) -> None:
        self.seconds.append(seconds)
        self.ratios.append(seconds / (0.5 * (before + after)))

    def at_reference(self, percent: int) -> float:
        """A percentile of the ratios, in seconds at the reference speed."""
        ratio = statistics.quantiles(self.ratios, n=100, method="inclusive")[percent - 1]
        return ratio * CALIBRATION_REFERENCE_S


def run_op(wl, state, i, tracer=None):
    """One timed op: (seconds, result, error text or None)."""
    root = None
    if tracer is not None:
        tracer.op = i
        root = tracer.open(ROOT_SPAN)
    start = time.perf_counter()
    try:
        result, error = wl.op(state, i), None
    except Exception:  # an op that raises is a failed op; the loop goes on
        result, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if root is not None:
        tracer.close(root)
    return elapsed, result, error


class Loop:
    """Closed-loop runner: attempted/failed counts and per-op latencies.

    With ``calibrated`` set, each untraced op is timed against the
    calibration loop run right before and after it, and ``probe`` (a
    set-up measurement) is called ``SETUP_PROBES`` times, spread evenly
    over the run and timed the same way.
    """

    def __init__(self, wl, state, started: float, probe=None, calibrated=False):
        self.wl = wl
        self.state = state
        self.started = started
        self.probe = probe
        self.calibrated = calibrated
        self.calibration = calibrate() if calibrated else 0.0  # the latest one
        self.ops = Timing()
        self.setups = Timing()
        self.attempted = 0
        self.failed = 0
        self.grid_missed_crossings = 0
        self.traced_latencies: list[float] = []
        self.traced_ops: list[int] = []

    def recalibrate(self) -> tuple[float, float]:
        before, self.calibration = self.calibration, calibrate()
        return before, self.calibration

    def attempt(self, i: int, tracer=None, record=True) -> None:
        if tracer is not None:
            install_layers(tracer)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                elapsed, result, error = run_op(self.wl, self.state, i, tracer)
            tracer.uninstall()
            tracer.count("qsl.clamp_warnings", sum("clamping" in str(w.message) for w in caught))
        else:
            elapsed, result, error = run_op(self.wl, self.state, i)
            if self.calibrated:
                before, after = self.recalibrate()
                if record:
                    self.ops.add(elapsed, before, after)
            elif record:
                self.ops.seconds.append(elapsed)
        self.attempted += 1
        problems = [error] if error else self.wl.check(self.state, i, result)
        if problems:
            self.failed += 1
            print(f"op {i} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        missed = self.state.pop("grid_missed_crossings", 0)
        self.grid_missed_crossings += missed
        if tracer is not None:
            tracer.count("experiments.sweep_near_ties", self.state.pop("near_ties", 0))
            tracer.count("experiments.sweep_grid_missed_crossings", missed)
            self.traced_latencies.append(elapsed)
            self.traced_ops.append(i)

    def time_setup(self) -> None:
        self.recalibrate()
        seconds = self.probe()
        self.setups.add(seconds, *self.recalibrate())

    def run(self, seconds: float, min_ops: int, tracer=None) -> None:
        self.attempt(0, record=False)  # warm-up: gated, not timed
        i = 1
        while True:
            measured = sum(self.ops.seconds) + sum(self.traced_latencies)
            ops = len(self.ops.seconds) + len(self.traced_latencies)
            probes = len(self.setups.seconds)
            if self.probe is not None and probes < SETUP_PROBES and measured >= probes * seconds / SETUP_PROBES:
                self.time_setup()
            if measured >= seconds and ops >= min_ops:
                break
            last = (self.ops.seconds or self.traced_latencies or [0.0])[-1]
            if time.monotonic() - self.started + last > HARD_STOP_S:
                print(f"stopping after {ops} ops: hard stop at {HARD_STOP_S} s", file=sys.stderr)
                break
            self.attempt(i, tracer if (tracer is not None and i % 2 == 0) else None)
            i += 1
        while self.probe is not None and len(self.setups.seconds) < SETUP_PROBES:
            self.time_setup()


def end_to_end(loop: Loop) -> dict:
    p50 = loop.ops.at_reference(50)
    values = {
        "setup_s": loop.setups.at_reference(50),
        "samples_per_s": loop.wl.samples_per_op(loop.state) / p50,
        "ops_per_s": 1.0 / p50,
        "latency_p50_s": p50,
        "latency_p90_s": loop.ops.at_reference(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": (loop.attempted - loop.failed) / loop.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def measure_pool(loop: Loop, seed: int, work: Path) -> dict:
    """Median time of one sweep op, serially and on a pool of nproc workers."""
    from qsl_lab.experiments import SWEEP_CHUNK
    from workloads import WORKLOADS, call_cli

    sweep = type(WORKLOADS["sweep"])()
    sweep.SAMPLES = SWEEP_CHUNK  # one full chunk per purity, as at the default sample count
    state = sweep.setup(seed, work / "pool")
    nproc = os.cpu_count() or 1
    seconds = {"serial": [], "pool": []}
    for i in range(POOL_REPEATS):
        for label, threads in (("serial", 1), ("pool", nproc)):
            start = time.perf_counter()
            result = call_cli(sweep.argv(state, i, threads=threads))
            seconds[label].append(time.perf_counter() - start)
            loop.attempted += 1
            problems = sweep.check(state, i, result)
            if problems:
                loop.failed += 1
                print(f"pool op (threads={threads}) failed: " + "; ".join(problems[:5]), file=sys.stderr)
    serial, pool = statistics.median(seconds["serial"]), statistics.median(seconds["pool"])
    return {
        "experiments.pool_serial_s": serial,
        "experiments.pool_parallel_s": pool,
        "experiments.pool_speedup": serial / pool,
    }


def metadata(args) -> dict:
    import numpy

    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            revision = done.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    require_sources()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        import_start = time.perf_counter()
        import qsl_lab.cli  # noqa: F401

        import_s = time.perf_counter() - import_start
        from workloads import WORKLOADS

        wl = WORKLOADS[args.workload]
        state = wl.setup(args.seed, work / "run")
        if args.trace:
            loop = Loop(wl, state, started)
            tracer = Tracer()
            loop.run(args.seconds, 2, tracer)
            extra = {"cli.import_s": import_s, **measure_pool(loop, args.seed, work)}
            metrics = layer_metrics(tracer, loop.traced_ops, loop.traced_latencies, loop.ops.seconds, extra)
        else:
            tracer = None
            probe = functools.partial(measure_setup, args.workload, args.seed, work / "probe")
            loop = Loop(wl, state, started, probe=probe, calibrated=True)
            loop.run(args.seconds, MIN_OPS)
            metrics = end_to_end(loop)
        meta = metadata(args)
        meta["ops_timed"] = len(loop.ops.seconds) + len(loop.traced_latencies)
        meta["sweep_grid_missed_crossings"] = loop.grid_missed_crossings
        if not args.trace:
            meta["wall_latency_p50_s"] = statistics.median(loop.ops.seconds)
            meta["wall_setup_s"] = statistics.median(loop.setups.seconds)
            meta["calibration_p50_s"] = statistics.median(
                sec / ratio for sec, ratio in zip(loop.ops.seconds, loop.ops.ratios)
            )
        if tracer is not None:
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            spans_path = out / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps({"meta": meta, "spans": tracer.span_records()}), encoding="utf-8")
            meta["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
