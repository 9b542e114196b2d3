"""Experiment harness: figure reproductions, sweeps, CSV/SVG artifacts.

Configs are plain key = value text files (see CONFIG_KEYS for the schema);
every experiment has complete defaults, so a config file only needs the
keys it overrides.  Output tables are CSV with a '#'-prefixed metadata
header and are byte-identical for a fixed config and seed; wall-clock
timing goes to report.txt only, to keep the tables diffable.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from . import __version__
from .dynamics import landau_zener, propagate, propagate_unitary_batch, qubit_hamiltonian
from .errors import ConfigError
from .qsl import accumulate_path, angles_from_start, path_angles, qsl_report, report_from_series, start_angles
from .states import density_from_bloch, qubit_state_from_angles, random_bloch_direction
from .svg import PALETTE, render_chart
from .swaptest import simulate_path_measurement

EXPERIMENTS = ("fig4", "fig5", "appendix-c", "swap-demo", "custom")

# config-file schema: key -> (parser, description)
CONFIG_KEYS = {
    "experiment": ("str", "experiment id; must match the CLI subcommand"),
    "seed": ("int", "base RNG seed"),
    "T_max": ("float", "time horizon, > 0"),
    "steps": ("int", "uniform grid steps, >= 1"),
    "A": ("float", "constant-Hamiltonian amplitude (H = A n.sigma/2 + B I)"),
    "nx": ("float", "rotation-axis x component"),
    "ny": ("float", "rotation-axis y component"),
    "nz": ("float", "rotation-axis z component"),
    "B": ("float", "identity offset of the constant Hamiltonian"),
    "V": ("float", "Landau-Zener sweep rate"),
    "Delta": ("float", "Landau-Zener minimal gap"),
    "phi": ("float", "initial-state polar angle, radians"),
    "varphi": ("float", "initial-state azimuthal angle, radians"),
    "purity": ("float", "initial-state purity, in (0.5, 1]"),
    "angles": ("floats", "comma-separated initial Bloch angles (fig4 series)"),
    "theta_target": ("float", "target Bloch angle, in (0, pi]"),
    "shots": ("shots", "shots per swap-test pair; 'inf' for the exact mode"),
    "samples": ("int", "random initial states per purity level"),
    "purities": ("floats", "comma-separated purity levels, each in (0.5, 1]"),
    "dynamics": ("choice", "'lz' or 'const' (custom experiment)"),
    "threads": ("int", "worker processes for sweeps"),
}

_COMMON = {"seed": 12345, "threads": 1}
DEFAULTS = {
    "fig4": {
        **_COMMON,
        "A": -1.0,
        "nx": 0.0,
        "ny": 0.0,
        "nz": 1.0,
        "B": 0.0,
        "purity": 1.0,
        "angles": (math.pi / 2, math.pi / 3, math.pi / 6),
        "T_max": 2.0,
        "steps": 2000,
    },
    "fig5": {
        **_COMMON,
        "V": 1.0,
        "Delta": 1.0,
        "phi": math.pi / 2,
        "varphi": 0.0,
        "purity": 1.0,
        "theta_target": 1.4,
        "T_max": 2.0,
        "steps": 8000,
    },
    "appendix-c": {
        **_COMMON,
        "V": 1.0,
        "Delta": 1.0,
        "theta_target": math.pi / 2,
        "purities": (1.0, 0.9, 0.8, 0.7),
        "samples": 2000,
        "T_max": 10.0,
        "steps": 2000,
    },
    "swap-demo": {
        **_COMMON,
        "A": -1.0,
        "nx": 0.0,
        "ny": 0.0,
        "nz": 1.0,
        "B": 0.0,
        "phi": math.pi / 2,
        "varphi": 0.0,
        "purity": 1.0,
        "T_max": 2.0,
        "steps": 50,
        "shots": 100000,
    },
    "custom": {
        **_COMMON,
        "dynamics": "lz",
        "V": 1.0,
        "Delta": 1.0,
        "A": -1.0,
        "nx": 0.0,
        "ny": 0.0,
        "nz": 1.0,
        "B": 0.0,
        "phi": math.pi / 2,
        "varphi": 0.0,
        "purity": 1.0,
        "theta_target": math.pi / 2,
        "T_max": 10.0,
        "steps": 2000,
    },
}

TIE_TOL = 1e-9
SWEEP_CHUNK = 250


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration; ``values`` maps schema keys to parsed values."""

    experiment: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]


def _parse_value(key: str, raw: str, where: str):
    kind = CONFIG_KEYS[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            return tuple(float(part) for part in raw.split(","))
        if kind == "shots":
            return None if raw.strip().lower() == "inf" else int(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key!r} from {raw!r}: {exc}") from None


def _validate(config: ExperimentConfig, where: str) -> None:
    v = config.values

    def bad(msg):
        raise ConfigError(f"{where}: {msg}")

    if v.get("T_max", 1.0) <= 0:
        bad(f"T_max must be positive, got {v['T_max']}")
    if v.get("steps", 1) < 1:
        bad(f"steps must be >= 1, got {v['steps']}")
    if v.get("threads", 1) < 1:
        bad(f"threads must be >= 1, got {v['threads']}")
    if "theta_target" in v and not 0.0 < v["theta_target"] <= math.pi:
        bad(f"theta_target must lie in (0, pi], got {v['theta_target']}")
    for key in ("purity",):
        if key in v and not 0.5 < v[key] <= 1.0:
            bad(f"{key} must lie in (0.5, 1], got {v[key]}")
    if "purities" in v:
        for p in v["purities"]:
            if not 0.5 < p <= 1.0:
                bad(f"every purity must lie in (0.5, 1], got {p}")
    if "angles" in v:
        for a in v["angles"]:
            if not 0.0 <= a <= math.pi:
                bad(f"initial angles must lie in [0, pi], got {a}")
    if "samples" in v and v["samples"] < 1:
        bad(f"samples must be >= 1, got {v['samples']}")
    if "shots" in v and v["shots"] is not None and v["shots"] < 1:
        bad(f"shots must be >= 1 or 'inf', got {v['shots']}")
    if "dynamics" in v and v["dynamics"] not in ("lz", "const"):
        bad(f"dynamics must be 'lz' or 'const', got {v['dynamics']!r}")
    if all(k in v for k in ("nx", "ny", "nz")):
        norm = math.sqrt(v["nx"] ** 2 + v["ny"] ** 2 + v["nz"] ** 2)
        if abs(norm - 1.0) > 1e-10:
            bad(f"(nx, ny, nz) must be a unit vector, |n| = {norm:.12f}")


def parse_config_text(text: str, experiment: str, where: str = "<config>") -> ExperimentConfig:
    """Parse key = value lines over the experiment's defaults.

    Unknown and duplicate keys are errors, reported with their line number.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    values = dict(DEFAULTS[experiment])
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{where}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{where}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        if key == "experiment":
            if raw != experiment:
                raise ConfigError(
                    f"{where}:{lineno}: config is for experiment {raw!r}, expected {experiment!r}"
                )
            continue
        if key not in values and key != "threads":
            raise ConfigError(f"{where}:{lineno}: key {key!r} does not apply to {experiment!r}")
        values[key] = _parse_value(key, raw, f"{where}:{lineno}")
    config = ExperimentConfig(experiment=experiment, values=values)
    _validate(config, where)
    return config


def load_config(path, experiment: str, seed_override: int | None = None, threads_override: int | None = None) -> ExperimentConfig:
    if path is None:
        config = parse_config_text("", experiment)
    else:
        text = Path(path).read_text(encoding="utf-8")
        config = parse_config_text(text, experiment, where=str(path))
    values = dict(config.values)
    if seed_override is not None:
        values["seed"] = int(seed_override)
    if threads_override is not None:
        values["threads"] = int(threads_override)
    config = ExperimentConfig(experiment=experiment, values=values)
    _validate(config, "<cli>")
    return config


def _fmt_meta(value) -> str:
    if value is None:
        return "inf"
    if isinstance(value, tuple):
        return ",".join(_fmt_meta(x) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


@dataclass
class ResultTable:
    """Typed column table plus a deterministic metadata block."""

    columns: tuple
    rows: list
    metadata: dict

    def to_csv(self) -> str:
        lines = [f"# {key} = {_fmt_meta(val)}" for key, val in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class RunResult:
    experiment: str
    table: ResultTable
    svgs: dict
    checks: list
    summary: list


def _metadata(config: ExperimentConfig) -> dict:
    meta = {"experiment": config.experiment, "version": __version__}
    for key in sorted(config.values):
        if key == "threads":
            continue  # execution detail; rows are worker-count independent
        meta[key] = config.values[key]
    return meta


def _direction_at_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Unit vector at a given angle from ``axis`` (deterministic transverse leg)."""
    ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    transverse = ref - np.dot(ref, axis) * axis
    transverse = transverse / np.linalg.norm(transverse)
    return math.cos(angle) * axis + math.sin(angle) * transverse


def _const_hamiltonian(v: dict) -> np.ndarray:
    """The constant qubit Hamiltonian A n.sigma/2 + B I of a config."""
    return qubit_hamiltonian(v["A"], (v["nx"], v["ny"], v["nz"]), v["B"])


def run_fig4(config: ExperimentConfig, threads: int = 1) -> RunResult:
    """Path length vs time for a constant Hamiltonian, one series per angle.

    Each series must be a straight line of slope |A| sin(theta).
    """
    v = config.values
    h = _const_hamiltonian(v)
    axis = np.array([v["nx"], v["ny"], v["nz"]])
    radius = math.sqrt(2.0 * v["purity"] - 1.0)
    checks, series, labels = [], [], []
    times = None
    for i, angle in enumerate(v["angles"]):
        rho0 = density_from_bloch(radius * _direction_at_angle(axis, angle))
        traj = accumulate_path(propagate(h, rho0, v["T_max"], v["steps"]))
        times = traj.times
        s = traj.cumulative_path
        slope, intercept = np.polyfit(times, s, 1)
        resid = float(np.max(np.abs(s - (slope * times + intercept))))
        expected = abs(v["A"]) * math.sin(angle)
        checks.append(
            Check(
                f"slope_theta{i}",
                abs(slope - expected) <= 1e-6,
                f"angle={angle:.6f}: slope={slope:.9f}, expected={expected:.9f}",
            )
        )
        checks.append(
            Check(f"linear_theta{i}", resid <= 1e-6, f"max residual from fit = {resid:.3e}")
        )
        series.append(s)
        labels.append(f"theta={angle:.4f}")
    columns = ("t",) + tuple(f"s_theta{i}" for i in range(len(series)))
    rows = [tuple(float(x) for x in row) for row in zip(times, *series)]
    svg = render_chart(
        title="path length under a constant Hamiltonian",
        xlabel="t",
        ylabel="s(t)",
        lines=[(labels[i], times, series[i], PALETTE[i % len(PALETTE)]) for i in range(len(series))],
    )
    summary = [c.detail for c in checks if c.name.startswith("slope")]
    return RunResult(
        experiment="fig4",
        table=ResultTable(columns, rows, _metadata(config)),
        svgs={"fig4.svg": svg},
        checks=checks,
        summary=summary,
    )


def _run_series(config: ExperimentConfig, model, title: str, assess) -> RunResult:
    """Shared body of fig5 and custom: one trajectory, its report, t/s/theta table and chart.

    ``assess(traj, report)`` returns the runner's own (checks, summary, vlines).
    """
    v = config.values
    rho0 = qubit_state_from_angles(v["purity"], v["phi"], v["varphi"])
    traj = accumulate_path(propagate(model, rho0, v["T_max"], v["steps"]))
    angles = angles_from_start(traj)
    rep = qsl_report(model, rho0, v["theta_target"], trajectory=traj)
    checks, summary, vlines = assess(traj, rep)
    s = traj.cumulative_path
    rows = [tuple(float(x) for x in row) for row in zip(traj.times, s, angles)]
    svg = render_chart(
        title=title,
        xlabel="t",
        ylabel="radians",
        lines=[
            ("s(t)", traj.times, s, PALETTE[0]),
            ("Theta(rho0, rho_t)", traj.times, angles, PALETTE[2]),
        ],
        vlines=vlines,
    )
    return RunResult(
        experiment=config.experiment,
        table=ResultTable(("t", "s", "theta"), rows, _metadata(config)),
        svgs={f"{config.experiment}.svg": svg},
        checks=checks,
        summary=summary,
    )


def _assess_fig5(traj, rep):
    d2 = np.diff(traj.cumulative_path, 2)
    checks = [
        Check(
            "convexity",
            float(d2.min()) >= -1e-8,
            f"min discrete second difference = {d2.min():.3e}",
        )
    ]
    summary = [
        f"theta_target = {rep.theta_target!r}",
        f"tau_new = {rep.tau_new!r}",
        f"tau_existing = {rep.tau_existing!r}",
        f"actual_time = {rep.actual_time!r}",
        f"path_length = {rep.path_length!r}",
        f"reachable = {rep.reachable}",
    ]
    if not rep.reachable:
        summary.append("target angle not reached on this horizon")
        return checks, summary, []
    checks.append(
        Check(
            "bounds_below_actual_time",
            rep.tau_new < rep.actual_time and rep.tau_existing < rep.actual_time,
            f"tau_new={rep.tau_new:.6f}, tau_existing={rep.tau_existing:.6f}, "
            f"T={rep.actual_time:.6f}",
        )
    )
    # the path is convex on this window, so the whole-interval average
    # velocity exceeds the initial-segment average and the path-integral
    # bound is the tighter (larger) of the two
    checks.append(
        Check(
            "new_bound_at_least_existing",
            rep.tau_existing <= rep.tau_new + traj.dt,
            f"tau_existing={rep.tau_existing:.6f} <= tau_new={rep.tau_new:.6f}",
        )
    )
    vlines = [
        ("tau_existing", rep.tau_existing, PALETTE[3]),
        ("tau_new", rep.tau_new, PALETTE[1]),
        ("T", rep.actual_time, PALETTE[5]),
    ]
    return checks, summary, vlines


def run_fig5(config: ExperimentConfig, threads: int = 1) -> RunResult:
    """Landau-Zener path length, Bloch angle, and both bounds for one target."""
    model = landau_zener(config["V"], config["Delta"])
    return _run_series(config, model, "Landau-Zener path length and Bloch angle", _assess_fig5)


def classify_bounds(tau_new, tau_existing, tie_tol: float = TIE_TOL) -> str:
    """red: new bound tighter; blue: existing tighter; black: unreachable."""
    if tau_existing is None or tau_new is None:
        return "black"
    if abs(tau_new - tau_existing) <= tie_tol:
        return "tie"
    return "red" if tau_new > tau_existing else "blue"


def _sweep_chunk(payload):
    """Evaluate one block of sweep samples; top level so workers can import it."""
    sweep_rate, gap, theta, t_max, steps, seed, purity, j_start, j_stop = payload
    model = landau_zener(sweep_rate, gap)
    dirs = []
    rho0s = []
    for j in range(j_start, j_stop):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(j)]))
        phi, varphi = random_bloch_direction(rng)
        dirs.append((phi, varphi))
        rho0s.append(qubit_state_from_angles(purity, phi, varphi))
    times, states = propagate_unitary_batch(model, np.stack(rho0s), t_max, steps)
    step_angles = path_angles(states)
    batch = states.shape[1]
    path = np.concatenate([np.zeros((1, batch)), np.cumsum(step_angles, axis=0)])
    angles = start_angles(states)
    rows = []
    for b, (phi, varphi) in enumerate(dirs):
        rep = report_from_series(times, states[:, b], path[:, b], angles[:, b], theta)
        rows.append(
            (
                float(phi),
                float(varphi),
                float(purity),
                rep.tau_new,
                rep.tau_existing,
                classify_bounds(rep.tau_new, rep.tau_existing),
            )
        )
    return rows


def run_appendix_c(config: ExperimentConfig, threads: int = 1) -> RunResult:
    """Bound comparison over random initial states at several purity levels.

    Directions are seeded per sample index only, so sample j probes the same
    direction at every purity; chunk boundaries are fixed, so serial and
    parallel runs produce identical rows.
    """
    v = config.values
    samples = v["samples"]
    payloads = []
    for purity in v["purities"]:
        for j_start in range(0, samples, SWEEP_CHUNK):
            payloads.append(
                (
                    v["V"],
                    v["Delta"],
                    v["theta_target"],
                    v["T_max"],
                    v["steps"],
                    v["seed"],
                    purity,
                    j_start,
                    min(j_start + SWEEP_CHUNK, samples),
                )
            )
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk_rows = list(pool.map(_sweep_chunk, payloads))
    else:
        chunk_rows = [_sweep_chunk(p) for p in payloads]
    rows = [row for chunk in chunk_rows for row in chunk]
    checks, summary = [], []
    svgs = {}
    for purity in v["purities"]:
        sub = [r for r in rows if r[2] == purity]
        counts = {label: sum(1 for r in sub if r[5] == label) for label in ("red", "blue", "black", "tie")}
        summary.append(
            f"purity {purity}: red={counts['red']} blue={counts['blue']} "
            f"black={counts['black']} tie={counts['tie']}"
        )
        checks.append(
            Check(
                f"majority_red_p{purity}",
                counts["red"] > samples / 2,
                f"red fraction = {counts['red'] / samples:.4f}",
            )
        )
        groups = {
            "red": PALETTE[1],
            "blue": PALETTE[0],
            "black": PALETTE[5],
            "tie": PALETTE[2],
        }
        points = []
        for label, color in groups.items():
            xs = [r[1] for r in sub if r[5] == label]
            ys = [r[0] for r in sub if r[5] == label]
            if xs:
                points.append((label, xs, ys, color, None))
        svgs[f"appendix-c-p{int(round(purity * 100)):03d}.svg"] = render_chart(
            title=f"bound comparison at purity {purity}",
            xlabel="varphi",
            ylabel="phi",
            points=points,
        )
    columns = ("phi", "varphi", "purity", "tau_new", "tau_existing", "class")
    return RunResult(
        experiment="appendix-c",
        table=ResultTable(columns, rows, _metadata(config)),
        svgs=svgs,
        checks=checks,
        summary=summary,
    )


def run_swap_demo(config: ExperimentConfig, threads: int = 1) -> RunResult:
    """Swap-test reconstruction of the fig4 path with shot-noise error bars."""
    v = config.values
    h = _const_hamiltonian(v)
    rho0 = qubit_state_from_angles(v["purity"], v["phi"], v["varphi"])
    est = simulate_path_measurement(h, rho0, v["T_max"], v["steps"], v["shots"], v["seed"])
    exact = est.trajectory.cumulative_path
    deltas = np.abs(est.path_estimate - exact)
    summary = []
    with_err = est.path_stderr > 0
    for k in (1, 2, 3):
        if np.any(with_err):
            frac = float(np.mean(deltas[with_err] <= k * est.path_stderr[with_err]))
        else:
            frac = 1.0
        summary.append(f"coverage within {k} sigma: {frac:.4f}")
    columns = ("t", "s_exact", "s_est", "s_err")
    rows = [
        tuple(float(x) for x in row)
        for row in zip(est.trajectory.times, exact, est.path_estimate, est.path_stderr)
    ]
    svg = render_chart(
        title="swap-test path reconstruction",
        xlabel="t",
        ylabel="s(t)",
        lines=[("exact", est.trajectory.times, exact, PALETTE[0])],
        points=[("estimated", est.trajectory.times, est.path_estimate, PALETTE[1], est.path_stderr)],
    )
    return RunResult(
        experiment="swap-demo",
        table=ResultTable(columns, rows, _metadata(config)),
        svgs={"swap-demo.svg": svg},
        checks=[],
        summary=summary,
    )


def _assess_custom(traj, rep):
    checks = []
    if rep.reachable:
        checks.append(
            Check(
                "bounds_below_actual_time",
                rep.tau_new <= rep.actual_time + traj.dt
                and rep.tau_existing <= rep.actual_time + traj.dt,
                f"tau_new={rep.tau_new!r}, tau_existing={rep.tau_existing!r}, "
                f"T={rep.actual_time!r}",
            )
        )
    summary = [
        f"tau_new = {rep.tau_new!r}",
        f"tau_existing = {rep.tau_existing!r}",
        f"actual_time = {rep.actual_time!r}",
        f"reachable = {rep.reachable}",
    ]
    return checks, summary, []


def run_custom(config: ExperimentConfig, threads: int = 1) -> RunResult:
    """User-specified dynamics, initial state and target; series plus report."""
    v = config.values
    model = landau_zener(v["V"], v["Delta"]) if v["dynamics"] == "lz" else _const_hamiltonian(v)
    return _run_series(config, model, "custom dynamics", _assess_custom)


RUNNERS = {
    "fig4": run_fig4,
    "fig5": run_fig5,
    "appendix-c": run_appendix_c,
    "swap-demo": run_swap_demo,
    "custom": run_custom,
}


def execute(config: ExperimentConfig, out_dir) -> tuple[RunResult, float, bool]:
    """Run one experiment, write csv/svg/report artifacts, return (result, seconds, ok)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    result = RUNNERS[config.experiment](config, threads=config.values.get("threads", 1))
    elapsed = perf_counter() - start
    result.table.write(out / f"{config.experiment}.csv")
    for name, svg_text in result.svgs.items():
        (out / name).write_text(svg_text, encoding="utf-8")
    ok = all(c.passed for c in result.checks)
    lines = [f"qsl-lab {__version__} report", f"experiment = {config.experiment}", ""]
    lines += [f"{key} = {_fmt_meta(val)}" for key, val in sorted(config.values.items())]
    lines.append("")
    lines += result.summary
    lines.append("")
    for check in result.checks:
        lines.append(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    lines.append("")
    lines.append(f"wall_clock_seconds = {elapsed:.3f}")
    lines.append(f"artifacts = {config.experiment}.csv, " + ", ".join(sorted(result.svgs)))
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return result, elapsed, ok
