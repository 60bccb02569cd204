"""Crank-Nicolson solver for the oscillator, with Strang-split measurement gates.

The grid wavefunction evolves under H = -(hbar^2/2m) d^2/dx^2 + (m omega^2/2) x^2.
With z = i dt/2hbar a Crank-Nicolson step is psi' = (1 + zH)^-1 (1 - zH) psi
on a tridiagonal system with Dirichlet walls. Since that is 2 (1 + zH)^-1 psi
- psi, each evolve call factors 1 + zH once (LAPACK zgttrf) and every step is
one tridiagonal solve. The scheme is unitary up to roundoff.

A measurement of duration tau with result a is the propagator of
H - i hbar kappa (x - a)^2, the restricted path integral. The gate splits it
into `gate_steps` Strang substeps: a free half step, the Gaussian filter to
the power 1/gate_steps (the absorptive term's exact propagator), and a free
half step. Its error is second order in tau/gate_steps, and as tau -> 0 it
becomes the von Neumann collapse psi -> w_a psi. Step filters have no such
gate term and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .collapse import OutcomeDistribution, _self_sizing_scan
from .stroboscopic import ChainRecord, StroboscopicPlan, _scan_chain
from .weights import WeightSpec, evaluate_weight


class StepFilterUnsupportedError(ValueError):
    """The grid engine only implements the Gaussian gate Hamiltonian."""


class BoundaryLeakError(RuntimeError):
    """Probability reached the lattice walls; results would be corrupted."""


@dataclass(frozen=True)
class Lattice:
    """Uniform spatial grid with hard-wall boundaries."""

    x_min: float = -60.0
    x_max: float = 60.0
    points: int = 4801

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.points < 8:
            raise ValueError("need at least 8 lattice points")

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.points)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)


@dataclass
class GridWavefunction:
    lattice: Lattice
    values: np.ndarray

    def norm_squared(self) -> float:
        return float(np.trapezoid(np.abs(self.values) ** 2, dx=self.lattice.dx))

    def boundary_mass(self) -> float:
        """Probability in the outermost three cells on either wall."""
        p = np.abs(self.values) ** 2 * self.lattice.dx
        return float(p[:3].sum() + p[-3:].sum())

    def moments(self) -> tuple[float, float]:
        """Position mean and variance (normalized internally)."""
        p = np.abs(self.values) ** 2
        total = np.trapezoid(p, dx=self.lattice.dx)
        x = self.lattice.x
        mean = np.trapezoid(x * p, dx=self.lattice.dx) / total
        var = np.trapezoid((x - mean) ** 2 * p, dx=self.lattice.dx) / total
        return float(mean), float(var)

    def normalized(self) -> "GridWavefunction":
        return GridWavefunction(self.lattice, self.values / np.sqrt(self.norm_squared()))


def sample_gaussian(lattice: Lattice, width: float, center: float = 0.0) -> GridWavefunction:
    """Normalized Gaussian packet sampled on the lattice."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = lattice.x
    values = (np.pi * width**2) ** -0.25 * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    return GridWavefunction(lattice, values.astype(complex)).normalized()


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal operator with a constant off-diagonal."""

    diagonal: np.ndarray
    off_diagonal: complex


def effective_hamiltonian(lattice: Lattice, mass: float, omega: float,
                          hbar: float = 1.0) -> TridiagonalOperator:
    """Three-point Hamiltonian; omega = 0 gives a free particle."""
    if mass <= 0 or hbar <= 0:
        raise ValueError("mass and hbar must be positive")
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    x = lattice.x
    k = hbar**2 / (2.0 * mass * lattice.dx**2)
    diag = 2.0 * k + 0.5 * mass * omega**2 * x**2 + 0j
    return TridiagonalOperator(diag, complex(-k))


def apply_hamiltonian(op: TridiagonalOperator, values: np.ndarray) -> np.ndarray:
    out = op.diagonal * values
    out[:-1] += op.off_diagonal * values[1:]
    out[1:] += op.off_diagonal * values[:-1]
    return out


def crank_nicolson_evolve(op: TridiagonalOperator, values: np.ndarray, dt: float,
                          steps: int, hbar: float = 1.0) -> np.ndarray:
    """Advance `steps` Crank-Nicolson steps of size dt; returns new values.

    Raises LinAlgError when 1 + i dt H/2hbar is singular."""
    z = 1j * dt / (2.0 * hbar)
    off = np.full(values.size - 1, z * op.off_diagonal)
    dl, d, du, du2, ipiv, info = zgttrf(off, 1.0 + z * op.diagonal, off)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Crank-Nicolson matrix is singular (zgttrf info {info})")
    psi = values
    for _ in range(steps):
        y, _ = zgttrs(dl, d, du, du2, ipiv, psi)
        y *= 2.0
        y -= psi
        psi = y
    return psi


def _leak_check(wavefn: GridWavefunction, stage: str):
    leak = wavefn.boundary_mass()
    if leak > 1e-8:
        raise BoundaryLeakError(f"boundary probability {leak:.3e} exceeds 1e-08 {stage}; "
                                "enlarge the lattice")


def _gate(wavefn: GridWavefunction, op: TridiagonalOperator, error: float, duration: float,
          steps: int, hbar: float):
    """Engine B's gate on `wavefn` as a function `gate(a)` of the outcome. The leading
    half substep is taken once, here; `close=False` skips the closing, unitary one."""
    half = duration / (2 * steps)
    lead = crank_nicolson_evolve(op, wavefn.values, half, 1, hbar)
    root_error = error * np.sqrt(steps)

    def gate(a: float, close: bool = True) -> np.ndarray:
        filt = evaluate_weight(WeightSpec("gaussian", a, root_error), wavefn.lattice.x)
        psi = lead * filt
        for _ in range(steps - 1):
            psi = crank_nicolson_evolve(op, psi, half, 2, hbar) * filt
        return crank_nicolson_evolve(op, psi, half, 1, hbar) if close else psi

    return gate


def _steps_within(duration: float, time_step: float) -> int:
    """Fewest equal steps, at least one, no longer than time_step."""
    return max(1, int(np.ceil(duration / time_step)))


def _check_gate_steps(gate_steps: int, gate_duration: float, time_step: float):
    """Engine B's substep rule: no gate substep may be longer than time_step."""
    need = _steps_within(gate_duration, time_step)
    if gate_steps < need:
        raise ValueError(f"gate_steps must be at least {need}, so that no gate "
                         "substep is longer than the time step")


def _scan(wavefn: GridWavefunction, op: TridiagonalOperator, error: float, gate_duration: float,
          gate_steps: int, points: int, hbar: float, seed: float | None) -> OutcomeDistribution:
    """Outcome distribution from the gated norm at each candidate outcome,
    on a self-sizing window centered on the packet's mean."""
    gate = _gate(wavefn, op, error, gate_duration, gate_steps, hbar)
    mean, var = wavefn.moments()

    def scan(hw: float) -> OutcomeDistribution:
        outcomes = np.linspace(mean - hw, mean + hw, points)
        norms = [GridWavefunction(wavefn.lattice, gate(float(a), close=False)).norm_squared()
                 for a in outcomes]
        return OutcomeDistribution.from_norms(outcomes, norms, "gaussian", error)

    return _self_sizing_scan(scan, error, var, seed)


def run_stroboscopic(lattice: Lattice, plan: StroboscopicPlan, width: float,
                     gate_duration: float, mass: float, omega: float, hbar: float = 1.0,
                     center: float = 0.0, gate_steps: int = 1, time_step: float = 0.000625,
                     outcome_points: int = 129,
                     scan_at: set[int] | None = None) -> list[ChainRecord]:
    """Full grid simulation of the plan, starting from a Gaussian packet.

    Each measurement is scanned by gating the same pre-gate state at each of
    `outcome_points` candidate outcomes; the imposed result's gate, of
    `gate_steps` Strang substeps none longer than `time_step`, then advances
    the chain, followed by free evolution across the quiescent interval.
    `scan_at` restricts which measurements are scanned (all by default).
    Probability reaching the walls raises BoundaryLeakError.
    """
    if plan.filter_kind != "gaussian":
        raise StepFilterUnsupportedError("step filters have no local gate Hamiltonian on the grid")
    if gate_duration <= 0:
        raise ValueError("gate_duration must be positive")
    _check_gate_steps(gate_steps, gate_duration, time_step)
    wavefn = sample_gaussian(lattice, width, center)
    _leak_check(wavefn, "before measurement 1")
    free_op = effective_hamiltonian(lattice, mass, omega, hbar)
    free_steps = _steps_within(plan.interval, time_step)
    free_dt = plan.interval / free_steps

    def advance(wavefn: GridWavefunction, a: float, n: int) -> GridWavefunction:
        values = _gate(wavefn, free_op, plan.error, gate_duration, gate_steps, hbar)(a)
        wavefn = GridWavefunction(
            lattice, crank_nicolson_evolve(free_op, values, free_dt, free_steps, hbar))
        _leak_check(wavefn, f"after interval {n}")
        return wavefn

    def scan(wavefn: GridWavefunction, seed):
        dist = _scan(wavefn.normalized(), free_op, plan.error, gate_duration, gate_steps,
                     outcome_points, hbar, seed)
        return dist.delta_a_eff, dist.a_tilde

    return _scan_chain(plan, wavefn, advance, scan, GridWavefunction.norm_squared, scan_at)
