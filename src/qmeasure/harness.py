"""Experiment harness: configuration tree, engine table, result emission.

A single JSON-serializable configuration describes the physical setup, the
measurement plan, per-engine numerics, and the output layout. `ENGINES`
maps each engine letter to an adapter that computes one chain,
(cfg, plan, final) -> list of ChainRecords: A (closed-form Gaussian
packets), B (lattice Pade free steps with Strang-split gates), C (eigenbasis
filter-matrix chains). With `final` set an adapter need only scan the last
measurement, whose record comes last. `run`, `sweep` and `cross_validate`
go through that table alone, and `_records` turns chain records into
ResultRecords in one place.
The chains of a plan list are independent, so `_records` maps every
engine's over k = min(plans, CPUs) threads of the calling process with
`ThreadPoolExecutor.map`, taken in plan order. On two threads of 2 cores
LAPACK's tridiagonal solves overlap (1.6-1.9x), numpy's loops over 2401-point
arrays do not (0.4-0.9x), and two of engine B's free intervals ran 1.8-1.9x
as fast when the host gave both cores. The threads share the memoized weight
matrices and quadrature rules, which are read-only. Records
come back in plan order, and so does the first failure; chains not started
by then never run. With k = 1 (one CPU, or a `run` or `validate`, whose plan
is one chain) the builtin `map` runs them in the calling thread and no
thread starts. At a fixed BLAS thread count (one when qmeasure is imported
before numpy) the output bytes do not depend on the CPU count, and
in-process tracing sees every chain.
Emission is deterministic: fixed column order, fixed float formatting, a
content hash of the settings in every JSON document, and no wall-clock
fields in any artifact.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .collapse import OutcomeDistribution
from .gaussian_analytic import stroboscopic_widths
from .oscillator import OscillatorBasis, project_gaussian
from .pde import Lattice, _check_gate_steps, run_stroboscopic
from .stroboscopic import (StroboscopicPlan, asymptotic_uncertainty, nth_outcome_distribution,
                           uncertainty_evolution)
from .weights import WeightSpec


class ConfigError(ValueError):
    """Malformed or inconsistent configuration."""


class TruncationError(RuntimeError):
    """The eigenbasis is too small to represent the initial state."""


FORMATS = ("csv", "json", "svg")
GENERATOR = "qmeasure 0.1.0"


@dataclass(frozen=True)
class UnitsConfig:
    mass: float = 0.5
    frequency: float = 1.0
    hbar: float = 1.0


@dataclass(frozen=True)
class StateConfig:
    width: float = 5.0
    center: float = 0.0


@dataclass(frozen=True)
class FilterConfig:
    kind: str = "gaussian"
    error: float = 1.0


@dataclass(frozen=True)
class PlanConfig:
    interval_over_period: float = 0.5
    measurements: int = 16
    results: object = "constant"
    result_value: float = 0.0


@dataclass(frozen=True)
class NumericsConfig:
    levels: int = 64
    gate_fraction: float = 1e-5
    gate_steps: int = 1
    lattice: Lattice = field(default_factory=Lattice)


@dataclass(frozen=True)
class SweepConfig:
    start_over_period: float = 0.025
    stop_over_period: float = 1.5
    points: int = 60


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "results"
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    units: UnitsConfig = field(default_factory=UnitsConfig)
    state: StateConfig = field(default_factory=StateConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)
    numerics: NumericsConfig = field(default_factory=NumericsConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    engines: tuple = ("A", "C")


def _coerce_scalar(raw, default, where: str):
    # Python's json reads NaN, Infinity and integers too large for a float;
    # each passes the range checks and fails later
    if (isinstance(default, (int, float)) and isinstance(raw, (int, float))
            and not abs(raw) <= sys.float_info.max):
        raise ConfigError(f"{where}: expected a finite number")
    if isinstance(default, int):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or int(raw) != raw:
            raise ConfigError(f"{where}: expected an integer")
        return int(raw)
    if isinstance(default, float):
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{where}: expected a number")
        return float(raw)
    if isinstance(default, str):
        if not isinstance(raw, str):
            raise ConfigError(f"{where}: expected a string")
        return raw
    raise ConfigError(f"{where}: unsupported value")


def _string_tuple(raw, where: str) -> tuple:
    if not isinstance(raw, (list, tuple)) or not all(isinstance(v, str) for v in raw):
        raise ConfigError(f"{where}: expected a list of strings")
    return tuple(raw)


def _build(cls, data, path: str = ""):
    section = path[:-1] or "configuration"
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected an object")
    allowed = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in data.items():
        where = f"{path}{key}"
        if key not in allowed:
            raise ConfigError(f"unknown configuration key '{where}'")
        f = allowed[key]
        default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
        if dataclasses.is_dataclass(default):
            kwargs[key] = _build(type(default), raw, where + ".")
        elif key == "results":
            if isinstance(raw, str):
                kwargs[key] = raw
            elif isinstance(raw, (list, tuple)):
                kwargs[key] = tuple(_coerce_scalar(v, 0.0, f"{where}[{i}]")
                                    for i, v in enumerate(raw))
            else:
                raise ConfigError(f"{where}: expected a policy name or a list of outcomes")
        elif key in ("engines", "formats"):
            kwargs[key] = _string_tuple(raw, where)
        else:
            kwargs[key] = _coerce_scalar(raw, default, where)
    return _section(section, cls, **kwargs)


def config_from_mapping(data: dict) -> "ExperimentConfig":
    """Build and validate a configuration from a plain mapping."""
    return validate_config(_build(ExperimentConfig, data))


def load_config(path=None) -> "ExperimentConfig":
    """Read a JSON configuration file; None gives the validated defaults."""
    return validate_config(_read_config(path))


def _read_config(path) -> "ExperimentConfig":
    """The configuration in a JSON file (None: the defaults), type-checked
    but not yet validated, so that command-line overrides apply first."""
    if path is None:
        return ExperimentConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return _build(ExperimentConfig, data)


def _section(name: str, build, *args, **kwargs):
    """build(*args, **kwargs), reporting its ValueError as a ConfigError of
    section `name`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def validate_config(cfg: "ExperimentConfig") -> "ExperimentConfig":
    """Cross-field validation; returns the config with engines and formats
    deduplicated into canonical order.

    The basis, filter and plan are built once so that their own checks
    apply (the lattice checked itself when built); the rest no object owns."""
    u, s, flt, num, sweep, out = (cfg.units, cfg.state, cfg.filter, cfg.numerics, cfg.sweep,
                                  cfg.output)
    if num.levels < 2:
        raise ConfigError("numerics.levels must be at least 2")
    _section("units", OscillatorBasis, u.mass, u.frequency, num.levels, u.hbar)
    if s.width <= 0:
        raise ConfigError("state.width must be positive")
    _section("filter", WeightSpec, flt.kind, 0.0, flt.error)
    _section("plan", _plan, cfg, cfg.plan.interval_over_period * _period(cfg))
    if not 0 < num.gate_fraction < 0.1:
        raise ConfigError("numerics.gate_fraction must lie in (0, 0.1)")
    if num.gate_steps < 1:
        raise ConfigError("numerics.gate_steps must be at least 1")
    if "B" in cfg.engines:
        _section("numerics", _check_gate_steps, num.gate_steps,
                 num.gate_fraction * _period(cfg))
    if sweep.start_over_period <= 0 or sweep.stop_over_period < sweep.start_over_period:
        raise ConfigError("sweep: need 0 < start_over_period <= stop_over_period")
    if sweep.points < 2:
        raise ConfigError("sweep.points must be at least 2")
    if not out.directory:
        raise ConfigError("output.directory must be nonempty")
    bad = [f for f in out.formats if f not in FORMATS]
    if bad or not out.formats:
        raise ConfigError(f"output.formats must be a nonempty subset of {FORMATS}")
    engines = tuple(e for e in ENGINES if e in cfg.engines)
    unknown = [e for e in cfg.engines if e not in ENGINES]
    if unknown:
        raise ConfigError(f"unknown engines {unknown}; choose from {tuple(ENGINES)}")
    if not engines:
        raise ConfigError("engines must name at least one of A, B, C")
    if flt.kind == "step" and engines != ("C",):
        raise ConfigError("step filters run only on engine C")
    formats = tuple(f for f in FORMATS if f in out.formats)
    return dataclasses.replace(cfg, engines=engines,
                               output=dataclasses.replace(out, formats=formats))


def config_hash(cfg: "ExperimentConfig") -> str:
    """SHA-256 of the canonical JSON form of the settings."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class ResultRecord:
    """One emitted row; identical shape across engines and run modes."""

    engine: str
    filter: str
    dt_over_T: float
    n: int
    delta_a_eff: float
    a_tilde: float
    norm: float


def _period(cfg) -> float:
    return 2.0 * np.pi / cfg.units.frequency


def _initial_state(cfg):
    """The configured packet projected onto engine C's eigenbasis."""
    u, num = cfg.units, cfg.numerics
    basis = OscillatorBasis(u.mass, u.frequency, num.levels, u.hbar)
    state, captured = project_gaussian(basis, cfg.state.width, cfg.state.center)
    if captured < 0.999:
        raise TruncationError(
            f"levels={num.levels} captures only {captured:.6f} of the initial packet; "
            "raise numerics.levels"
        )
    return state


def _plan(cfg, interval: float) -> StroboscopicPlan:
    p = cfg.plan
    return StroboscopicPlan(interval, p.measurements, cfg.filter.kind,
                            cfg.filter.error, p.results, p.result_value)


def _engine_a(cfg, plan: StroboscopicPlan, final: bool) -> list:
    # the closed form is cheap: it always walks the whole chain
    u = cfg.units
    tau = cfg.numerics.gate_fraction * _period(cfg)
    return stroboscopic_widths(cfg.state.width, plan.interval, plan.measurements, plan.error,
                               tau, u.mass, u.frequency, u.hbar, center=cfg.state.center,
                               results=plan.results, result_value=plan.result_value)


def _engine_b(cfg, plan: StroboscopicPlan, final: bool) -> list:
    u, num = cfg.units, cfg.numerics
    return run_stroboscopic(num.lattice, plan, cfg.state.width, num.gate_fraction * _period(cfg),
                            u.mass, u.frequency, u.hbar, center=cfg.state.center,
                            gate_steps=num.gate_steps,
                            scan_at={plan.measurements} if final else None)


def _engine_c(cfg, plan: StroboscopicPlan, final: bool) -> list:
    state = _initial_state(cfg)
    return [asymptotic_uncertainty(plan, state)] if final else uncertainty_evolution(plan, state)


ENGINES = {"A": _engine_a, "B": _engine_b, "C": _engine_c}


def _records(cfg: "ExperimentConfig", ratios, final: bool) -> list:
    """ResultRecords of every configured engine at each interval/period
    ratio; with `final`, only each chain's last measurement. The chains run
    as the module docstring states."""
    jobs = [(engine, r, _plan(cfg, r * _period(cfg))) for engine in cfg.engines for r in ratios]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    k = min(len(ratios), cpus or 1)
    with ThreadPoolExecutor(k) as pool:
        chains = (pool.map if k > 1 else map)(
            lambda job: ENGINES[job[0]](cfg, job[2], final), jobs)
        return [ResultRecord(engine, cfg.filter.kind, r, c.n, c.delta_a_eff, c.a_tilde,
                             c.norm_squared)
                for (engine, r, _), chain in zip(jobs, chains)
                for c in (chain[-1:] if final else chain)]


def run(cfg: "ExperimentConfig") -> list:
    """Per-measurement uncertainty records for every configured engine."""
    return _records(cfg, [cfg.plan.interval_over_period], final=False)


def sweep(cfg: "ExperimentConfig") -> list:
    """Asymptotic uncertainty against the quiescent interval, one row per
    grid point per engine (n is the plan's measurement count)."""
    grid = np.linspace(cfg.sweep.start_over_period, cfg.sweep.stop_over_period,
                       cfg.sweep.points)
    return _records(cfg, [float(r) for r in grid], final=True)


@dataclass(frozen=True)
class PairReport:
    """Agreement between two engines across the chain."""

    engines: str
    max_rel_early: float
    max_rel_late: float
    tol_early: float
    tol_late: float

    @property
    def passed(self) -> bool:
        return self.max_rel_early <= self.tol_early and self.max_rel_late <= self.tol_late


@dataclass(frozen=True)
class ValidationReport:
    pairs: tuple
    records: tuple

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.pairs)


# cross_validate's gates: transient measurements (n <= 7) and asymptotic ones
TOL_EARLY, TOL_LATE = 0.10, 0.01


def cross_validate(cfg: "ExperimentConfig") -> ValidationReport:
    """Pairwise engine agreement on delta_a_eff.

    Measurements n <= 7 are transient (the packet is still narrowing) and
    held to TOL_EARLY; n >= 8 must agree to TOL_LATE. Needs at least two
    engines and at least eight measurements.
    """
    if len(cfg.engines) < 2:
        raise ConfigError("cross validation needs at least two engines")
    if cfg.plan.measurements < 8:
        raise ConfigError("cross validation needs plan.measurements >= 8")
    records = run(cfg)
    by_engine = {}
    for rec in records:
        by_engine.setdefault(rec.engine, {})[rec.n] = rec.delta_a_eff
    pairs = []
    for x, y in itertools.combinations(sorted(by_engine), 2):
        a, b = by_engine[x], by_engine[y]
        early, late = 0.0, 0.0
        for n in sorted(set(a) & set(b)):
            rel = abs(a[n] - b[n]) / (0.5 * (a[n] + b[n]))
            if n >= 8:
                late = max(late, rel)
            else:
                early = max(early, rel)
        pairs.append(PairReport(f"{x}/{y}", early, late, TOL_EARLY, TOL_LATE))
    return ValidationReport(tuple(pairs), tuple(records))


def distribution(cfg: "ExperimentConfig") -> OutcomeDistribution:
    """Outcome density of the plan's final measurement (eigenbasis engine)."""
    state = _initial_state(cfg)
    interval = cfg.plan.interval_over_period * _period(cfg)
    return nth_outcome_distribution(_plan(cfg, interval), state)


CSV_HEADER = "engine,filter,dt_over_T,n,delta_a_eff,a_tilde,norm"


def _fmt(value: float) -> str:
    # + 0.0 turns negative zero into plain 0
    return f"{value + 0.0:.12g}"


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


def _json(cfg, body: dict) -> str:
    """`body` in the envelope every JSON document shares."""
    doc = {"config_hash": config_hash(cfg), "generated_by": GENERATOR,
           "settings": dataclasses.asdict(cfg), **body}
    return json.dumps(doc, sort_keys=True, indent=2, default=list) + "\n"


def _write(cfg, stem: str, render: dict) -> list:
    """Write render[fmt]() to <stem>.<fmt> for every configured format;
    returns the paths."""
    out_dir = Path(cfg.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in cfg.output.formats:
        path = out_dir / f"{stem}.{fmt}"
        path.write_text(render[fmt]())
        written.append(path)
    return written


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def render_line_chart(series, x_label: str, y_label: str, title: str) -> str:
    """Hand-rolled SVG line chart; `series` is a list of (label, xs, ys)."""
    w, h, ml, mr, mt, mb = 720, 480, 80, 24, 44, 56
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or max(abs(y_hi), 1.0) * 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (w - ml - mr)

    def sy(v):
        return h - mb - (v - y_lo) / (y_hi - y_lo) * (h - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    for tv in np.linspace(x_lo, x_hi, 5).tolist():
        px = sx(tv)
        parts.append(f'<line x1="{px:.1f}" y1="{h - mb}" x2="{px:.1f}" y2="{h - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{h - mb + 20}" text-anchor="middle">{tv:.3g}</text>')
    for tv in np.linspace(y_lo, y_hi, 5).tolist():
        py = sy(tv)
        parts.append(f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 9}" y="{py + 4:.1f}" text-anchor="end">{tv:.3g}</text>')
        parts.append(f'<line x1="{ml}" y1="{py:.1f}" x2="{w - mr}" y2="{py:.1f}" '
                     f'stroke="#dddddd" stroke-width="0.5"/>')
    parts.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black"/>')
    parts.append(f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" stroke="black"/>')
    parts.append(f'<text x="{(ml + w - mr) / 2:.0f}" y="{h - 12}" text-anchor="middle">{x_label}</text>')
    parts.append(f'<text x="20" y="{(mt + h - mb) / 2:.0f}" text-anchor="middle" '
                 f'transform="rotate(-90 20 {(mt + h - mb) / 2:.0f})">{y_label}</text>')
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = mt + 16 + 18 * idx
        parts.append(f'<rect x="{w - mr - 150}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{w - mr - 132}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _chart_for(records, sweep_mode: bool) -> str:
    series = {}
    for r in records:
        xs, ys = series.setdefault(f"{r.engine} ({r.filter})", ([], []))
        xs.append(r.dt_over_T if sweep_mode else r.n)
        ys.append(r.delta_a_eff)
    return render_line_chart([(key, xs, ys) for key, (xs, ys) in series.items()],
                             "interval / period" if sweep_mode else "measurement index n",
                             "effective uncertainty", "Stroboscopic measurement uncertainty")


def emit(cfg: "ExperimentConfig", records, stem: str, extra: dict | None = None) -> list:
    """Write the configured formats under output.directory; returns paths."""
    return _write(cfg, stem, {
        "csv": lambda: _csv(CSV_HEADER, ([r.engine, r.filter, _fmt(r.dt_over_T), str(r.n),
                                          _fmt(r.delta_a_eff), _fmt(r.a_tilde), _fmt(r.norm)]
                                         for r in records)),
        "json": lambda: _json(cfg, {"records": [dataclasses.asdict(r) for r in records],
                                    **(extra or {})}),
        "svg": lambda: _chart_for(records, stem == "sweep"),
    })


DISTRIBUTION_HEADER = "engine,filter,dt_over_T,a,density"


def emit_distribution(cfg: "ExperimentConfig", dist: OutcomeDistribution) -> list:
    """Write engine C's final-measurement outcome density in the configured
    formats."""
    kind, dt_over_T = cfg.filter.kind, cfg.plan.interval_over_period
    return _write(cfg, "distribution", {
        "csv": lambda: _csv(DISTRIBUTION_HEADER, (["C", kind, _fmt(dt_over_T), _fmt(float(a)),
                                                   _fmt(float(p))]
                                                  for a, p in zip(dist.outcomes, dist.density))),
        "json": lambda: _json(cfg, {"distribution": {
            "engine": "C",
            "filter": kind,
            "dt_over_T": dt_over_T,
            "a_tilde": dist.a_tilde,
            "delta_a_eff": dist.delta_a_eff,
            "outcomes": [float(v) for v in dist.outcomes],
            "density": [float(v) for v in dist.density],
        }}),
        "svg": lambda: render_line_chart(
            [(f"C ({kind})", dist.outcomes, dist.density)],
            "outcome a", "probability density", "Final measurement outcome density"),
    })
