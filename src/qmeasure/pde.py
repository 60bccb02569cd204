"""Crank-Nicolson solver for the oscillator with non-Hermitian measurement gates.

The grid wavefunction evolves under

    H_eff = -(hbar^2/2m) d^2/dx^2 + (m omega^2/2) x^2 - i hbar kappa (x - a)^2,

with the gate term present only while a measurement runs. With z = i dt/2hbar
a Crank-Nicolson step is psi' = (1 + zH)^-1 (1 - zH) psi on a tridiagonal
system with Dirichlet walls. Since (1 + zH)^-1 (1 - zH) = 2 (1 + zH)^-1 - 1,
each evolve call factors 1 + zH once (LAPACK zgttrf) and every step is one
tridiagonal solve, psi' = 2 y - psi with (1 + zH) y = psi. The scheme is
unitary up to roundoff while the gate is off. Under the absorptive gate it
is A-stable, so the norm never grows, but not L-stable: where
w = kappa dt (x - a)^2 / 2 is large, the step factor (1 - w)/(1 + w) tends
to -1 instead of exp(-2w), so the gate step must stay small against
1/(kappa (x - a)^2) to reproduce the filter. Only the Gaussian filter has
a gate Hamiltonian of this form; step filters are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .collapse import OutcomeDistribution, _self_sizing_scan
from .stroboscopic import ChainRecord, StroboscopicPlan, _scan_chain
from .weights import measurement_coupling


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

    def boundary_mass(self, cells: int = 3) -> float:
        """Probability in the outermost cells on either wall."""
        p = np.abs(self.values) ** 2 * self.lattice.dx
        return float(p[:cells].sum() + p[-cells:].sum())

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


def effective_hamiltonian(lattice: Lattice, mass: float, omega: float, hbar: float = 1.0,
                          gate_center: float | None = None,
                          gate_coupling: float = 0.0) -> TridiagonalOperator:
    """Three-point Hamiltonian; omega = 0 gives a free particle, and a gate
    adds the absorptive quadratic well at gate_center."""
    if mass <= 0 or hbar <= 0:
        raise ValueError("mass and hbar must be positive")
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    x = lattice.x
    k = hbar**2 / (2.0 * mass * lattice.dx**2)
    diag = 2.0 * k + 0.5 * mass * omega**2 * x**2 + 0j
    if gate_center is not None:
        diag -= 1j * hbar * gate_coupling * (x - gate_center) ** 2
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


def _leak_check(wavefn: GridWavefunction, stage: str, tolerance: float = 1e-8):
    leak = wavefn.boundary_mass()
    if leak > tolerance:
        raise BoundaryLeakError(
            f"boundary probability {leak:.3e} exceeds {tolerance:.0e} {stage}; "
            "enlarge the lattice"
        )


def _gate_evolved(wavefn: GridWavefunction, a: float, kappa: float, duration: float,
                  gate_steps: int, mass: float, omega: float, hbar: float) -> GridWavefunction:
    op = effective_hamiltonian(wavefn.lattice, mass, omega, hbar,
                               gate_center=a, gate_coupling=kappa)
    dt = duration / gate_steps
    return GridWavefunction(wavefn.lattice,
                            crank_nicolson_evolve(op, wavefn.values, dt, gate_steps, hbar))


def _scan(wavefn: GridWavefunction, error: float, gate_duration: float, gate_steps: int,
          points: int, mass: float, omega: float, hbar: float,
          seed: float | None) -> OutcomeDistribution:
    """Outcome distribution by rerunning the gate for each candidate outcome,
    on a self-sizing window centered on the packet's mean."""
    kappa = measurement_coupling(error, gate_duration)
    mean, var = wavefn.moments()

    def scan(hw: float) -> OutcomeDistribution:
        outcomes = np.linspace(mean - hw, mean + hw, points)
        norms = [_gate_evolved(wavefn, float(a), kappa, gate_duration, gate_steps,
                               mass, omega, hbar).norm_squared() for a in outcomes]
        return OutcomeDistribution.from_norms(outcomes, norms, "gaussian", error)

    return _self_sizing_scan(scan, error, var, seed)


def run_stroboscopic(
    lattice: Lattice,
    plan: StroboscopicPlan,
    width: float,
    gate_duration: float,
    mass: float,
    omega: float,
    hbar: float = 1.0,
    center: float = 0.0,
    gate_steps: int = 200,
    time_step: float | None = None,
    outcome_points: int = 129,
    scan_at: set[int] | None = None,
) -> list[ChainRecord]:
    """Full grid simulation of the plan, starting from a Gaussian packet.

    Each measurement is scanned by rerunning its gate over a grid of
    candidate outcomes (`outcome_points` of them) from the same pre-gate
    state; the imposed result's gate then advances the chain, followed by
    free Crank-Nicolson evolution across the quiescent interval. `scan_at`
    restricts which measurements are scanned (all by default). Probability
    reaching the walls raises BoundaryLeakError.
    """
    if plan.filter_kind != "gaussian":
        raise StepFilterUnsupportedError(
            "step filters have no local gate Hamiltonian on the grid"
        )
    if gate_duration <= 0 or gate_steps < 1:
        raise ValueError("gate_duration and gate_steps must be positive")
    if time_step is None:
        time_step = 0.000625 / omega if omega > 0 else 0.000625
    kappa = measurement_coupling(plan.error, gate_duration)
    wavefn = sample_gaussian(lattice, width, center)
    _leak_check(wavefn, "before measurement 1")
    free_op = effective_hamiltonian(lattice, mass, omega, hbar)
    free_steps = max(1, int(np.ceil(plan.interval / time_step)))
    free_dt = plan.interval / free_steps

    def advance(wavefn: GridWavefunction, a: float, n: int) -> GridWavefunction:
        wavefn = _gate_evolved(wavefn, a, kappa, gate_duration, gate_steps, mass, omega, hbar)
        wavefn = GridWavefunction(
            lattice, crank_nicolson_evolve(free_op, wavefn.values, free_dt, free_steps, hbar))
        _leak_check(wavefn, f"after interval {n}")
        return wavefn

    def scan(wavefn: GridWavefunction, seed):
        dist = _scan(wavefn.normalized(), plan.error, gate_duration, gate_steps,
                     outcome_points, mass, omega, hbar, seed)
        return dist.delta_a_eff, dist.a_tilde

    return _scan_chain(plan, wavefn, advance, scan, GridWavefunction.norm_squared, scan_at)
