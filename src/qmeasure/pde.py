"""Lattice solver for the oscillator: Pade free steps made of complex
Crank-Nicolson substeps, and Strang-split measurement gates.

The grid wavefunction evolves under H = -(hbar^2/2m) d^2/dx^2 + (m omega^2/2) x^2,
with Dirichlet walls. The Laplacian is the compact fourth-order (Numerov,
"Mehrstellen") stencil of Lele 1992 (J. Comput. Phys. 103:16): with the mass
matrix B = tridiag(1, 10, 1)/12 and the three-point difference delta^2,
d^2/dx^2 ~ B^-1 delta^2/dx^2, whose error on a mode e^ikx is about
(k dx)^4/240 against (k dx)^2/12 for delta^2/dx^2 alone. The lattice H is the
pencil H = B^-1 M with M = -(hbar^2/2m) delta^2/dx^2 + B V. B and delta^2
commute, so H = B^-1 (-(hbar^2/2m) delta^2/dx^2) + V is symmetric, and both B
and M are tridiagonal. With z = i dt/2hbar a Crank-Nicolson step
psi' = (1 + zH)^-1 (1 - zH) psi is therefore (B + zM)^-1 (B - zM) psi: each
evolve call factors B + zM once (LAPACK zgttrf), and every step is one
tridiagonal product and one tridiagonal solve. The scheme is unitary up to
roundoff.

The free intervals take the diagonal Pade (4,4) step of exp(-iH dt), which
is eighth order and unitary (van Dijk & Toyama 2007, Phys. Rev. E
75:036707): q(W)^-1 q(-W), W = -iH dt, with q(w) = prod_j (1 - w/r_j) the
Pade denominator, is the product of the Crank-Nicolson steps of the complex
lengths f_j dt, f_j = 2/r_j, each factored once per evolve call. Alone each
grows or damps some modes by up to about 2.9x, so they alternate step by
step. The f_j are two conjugate pairs, and the rounded numerator B - zM of
each is exactly the conjugate of the rounded B + z'M of its partner, so over
8 periods the norm moves by under 1e-13 (forming it as 2 B psi - (B + zM) psi
let the (2,2) step drift by 2.3e-12). B + zM is regular: H's spectrum is real.

A measurement of duration tau with result a is the propagator of
H - i hbar kappa (x - a)^2, the restricted path integral. The gate splits it
into `gate_steps` Strang substeps: a free half step, the Gaussian filter to
the power 1/gate_steps (the absorptive term's exact propagator), and a free
half step. Its error is second order in tau/gate_steps, and as tau -> 0 it
becomes the von Neumann collapse psi -> w_a psi. Step filters have no such
gate term and are rejected.

With no lattice given, each chain runs on one derived from its state:
spacing SPACING (0.05), and walls at +-L, L the largest R + REACH S along
the chain rounded up to a whole unit, so 40 L + 1 points. R and S are the
amplitude and spread of engine A's closed-form packet in the phase plane
(x, p/(m omega)) after each gate (`GaussianPacket.phase_space`); the gates
are Gaussian filters, so A follows the same packet. Free oscillator
evolution keeps R and S, so |<x>| <= R and sqrt(Var x) <= S at every time
inside an interval, not only at its ends, where `_leak_check` looks. REACH
is 8: the probability beyond 8 standard deviations of a Gaussian is
1.2e-15, seven orders below the leak bound of 1e-8. On the default
16-measurement chain at T/2, B/A at n = 16 reads +1.173e-5 on +-60, on
+-44 (the derived lattice) and on +-33 (REACH about 6), +1.184e-5 on +-30,
and +8.14e-5 on +-25, which passes the leak check at every interval end.

The free step is derived from the same reach rho = max(R + REACH S). A Pade
(4,4) step of dt turns a mode of energy E by a phase error of order
(E dt/hbar)^9, ninth order in W, so over a fixed time its error goes as
E^9 dt^8. Holding that rate fixed at the reach energy E = m omega^2 rho^2/2,
the highest the packet reaches, gives dt ~ E^(-9/8) ~ rho^(-9/4):
dt = STEP_SCALE/omega (hbar omega/E)^(9/8), and each interval takes the
fewest equal steps no longer than that. STEP_SCALE = 20.8 is the anchor:
the default 16-measurement chain at T/2 (rho = 43.900) steps at 0.019945,
158 steps per T/2 interval as with the fixed step of 0.02 it replaces, and
keeps its rows. The sweep-B chains (rho 28.4 to 28.9) step at about
0.052, 60 to 62 steps per T/2 interval, and B's rows there move by under
4e-11; wider chains step finer than 0.02 (0.0143 at rho = 50.9, where 0.02
left B 2.2e-4 off its converged value). An explicit lattice takes the same
step, since its walls say nothing about the packet's energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import zgttrf, zgttrs

from .collapse import OutcomeDistribution, _window_scan
from .gaussian_analytic import GaussianPacket, _chain_advance
from .stroboscopic import ChainRecord, StroboscopicPlan, _chain_states, _scan_chain
from .weights import WeightSpec, evaluate_weight


class BoundaryLeakError(RuntimeError):
    """Probability reached the lattice walls; results would be corrupted."""


# engine B's free Pade step is STEP_SCALE/omega (hbar omega/E)^(9/8) at the
# chain's reach energy E; its longest gate substep, one Crank-Nicolson step,
# is GATE_STEP at any omega
STEP_SCALE = 20.8
GATE_STEP = 0.000625
# the derived lattice's spacing, and its walls' distance from the packet's
# phase-space amplitude in phase-space spreads
SPACING = 0.05
REACH = 8.0
# a Pade (4,4) step of dt is a Crank-Nicolson step of dt times each f_j = 2/r_j,
# r_j the roots of q(w) = 1 - w/2 + 3w^2/28 - w^3/84 + w^4/1680, by imaginary part
PADE = (0.18313248053143527 - 0.23132522602625522j, 0.31686751946856473 - 0.09488202514221687j,
        0.31686751946856473 + 0.09488202514221687j, 0.18313248053143527 + 0.23132522602625522j)


@dataclass(frozen=True)
class Lattice:
    """Uniform spatial grid with hard-wall boundaries."""

    x_min: float = -60.0
    x_max: float = 60.0
    points: int = 2401

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
    """The lattice Hamiltonian H = B^-1 M, held as M's three diagonals:
    `lower[i]` = M[i+1, i], `upper[i]` = M[i, i+1]. The mass matrix
    B = tridiag(1, 10, 1)/12 is the same on every lattice."""

    lower: np.ndarray
    diagonal: np.ndarray
    upper: np.ndarray


def effective_hamiltonian(lattice: Lattice, mass: float, omega: float,
                          hbar: float = 1.0) -> TridiagonalOperator:
    """Compact fourth-order Hamiltonian; omega = 0 gives a free particle."""
    if mass <= 0 or hbar <= 0:
        raise ValueError("mass and hbar must be positive")
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    k = hbar**2 / (2.0 * mass * lattice.dx**2)
    v = 0.5 * mass * omega**2 * lattice.x**2 + 0j
    # M = k tridiag(-1, 2, -1) + B diag(v)
    return TridiagonalOperator(v[:-1] / 12.0 - k, 2.0 * k + v * (10.0 / 12.0), v[1:] / 12.0 - k)


def _factor(lower: np.ndarray, diagonal: np.ndarray, upper: np.ndarray):
    """LU factors of a tridiagonal matrix; LinAlgError when it is singular."""
    dl, d, du, du2, ipiv, info = zgttrf(lower, diagonal, upper)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal matrix is singular (zgttrf info {info})")
    return dl, d, du, du2, ipiv


def _stepper(op: TridiagonalOperator, dt: float, hbar: float, substeps):
    """Factors 6 (B + i f dt M/2hbar) once for each fraction f of `substeps`, and
    returns advance(values, steps), which takes one substep per f in each step."""
    kernels = []
    for f in substeps:
        # both sides times 6, so that 6 B = tridiag(1/2, 5, 1/2) is exact
        z6 = 6.0 * (1j * f * dt / (2.0 * hbar))
        kernels.append((_factor(0.5 + z6 * op.lower, 5.0 + z6 * op.diagonal, 0.5 + z6 * op.upper),
                        (0.5 - z6 * op.lower, 5.0 - z6 * op.diagonal, 0.5 - z6 * op.upper)))

    def advance(values: np.ndarray, steps: int) -> np.ndarray:
        psi = values
        for _ in range(steps):
            for factors, (lower, diagonal, upper) in kernels:
                y = diagonal * psi
                y[1:] += lower * psi[:-1]
                y[:-1] += upper * psi[1:]
                psi = zgttrs(*factors, y, overwrite_b=True)[0]
        return psi

    return advance


def crank_nicolson_evolve(op: TridiagonalOperator, values: np.ndarray, dt: float,
                          steps: int, hbar: float = 1.0, substeps=(1.0,)) -> np.ndarray:
    """Advance `steps` steps of size dt; returns new values. Each step takes, for each
    fraction f of `substeps` in turn, the Crank-Nicolson step of length f dt: plain
    Crank-Nicolson at the default f = 1, and the eighth-order Pade step with PADE.

    Raises LinAlgError when some B + i f dt M/2hbar is singular."""
    return _stepper(op, dt, hbar, substeps)(values, steps)


def _leak_check(wavefn: GridWavefunction, stage: str):
    leak = wavefn.boundary_mass()
    if leak > 1e-8:
        raise BoundaryLeakError(f"boundary probability {leak:.3e} exceeds 1e-08 {stage}; "
                                "widen numerics.lattice, or drop that section so that "
                                "engine B derives its walls")


def _gate(wavefn: GridWavefunction, op: TridiagonalOperator, error: float, duration: float,
          steps: int, hbar: float):
    """Engine B's gate on `wavefn` as `gate(a)`; the half substep is factored and the
    leading one taken once, here. `close=False` skips the closing, unitary one."""
    half = _stepper(op, duration / (2 * steps), hbar, (1.0,))
    lead = half(wavefn.values, 1)
    root_error = error * np.sqrt(steps)

    def gate(a: float, close: bool = True) -> np.ndarray:
        filt = evaluate_weight(WeightSpec("gaussian", a, root_error), wavefn.lattice.x)
        psi = lead * filt
        for _ in range(steps - 1):
            psi = half(psi, 2) * filt
        return half(psi, 1) if close else psi

    return gate


def _steps_within(duration: float, time_step: float) -> int:
    """Fewest equal steps, at least one, no longer than time_step."""
    return max(1, int(np.ceil(duration / time_step)))


def _check_gate_steps(gate_steps: int, gate_duration: float):
    """Engine B's substep rule: no gate substep may be longer than GATE_STEP."""
    need = _steps_within(gate_duration, GATE_STEP)
    if gate_steps < need:
        raise ValueError(f"gate_steps must be at least {need}, so that no gate "
                         f"substep is longer than {GATE_STEP}")


def _scan(wavefn: GridWavefunction, op: TridiagonalOperator, error: float, gate_duration: float,
          gate_steps: int, hbar: float) -> OutcomeDistribution:
    """Outcome distribution from the gated norm at each candidate outcome,
    on `_window_scan`'s window centered on the packet's mean."""
    gate = _gate(wavefn, op, error, gate_duration, gate_steps, hbar)

    def norms(outcomes: np.ndarray) -> list[float]:
        return [GridWavefunction(wavefn.lattice, gate(float(a), close=False)).norm_squared()
                for a in outcomes]

    return _window_scan(norms, *wavefn.moments(), error, "gaussian")


def chain_reach(plan: StroboscopicPlan, width: float, gate_duration: float, mass: float,
                omega: float, hbar: float = 1.0, center: float = 0.0) -> float:
    """The largest R + REACH S of engine A's packet in the phase plane all
    along the plan's chain, as the module docstring states. Engine A's walk
    guards the chain norm as engine B's would, with ChainUnderflowError."""
    packets = _chain_states(plan, GaussianPacket.from_width(width, center=center),
                            _chain_advance(plan, gate_duration, mass, omega, hbar),
                            lambda packet: packet.norm_squared)
    return max(r + REACH * s for r, s in (packet.phase_space(mass, omega, hbar)
                                          for _, packet, _ in packets))


def derived_lattice(reach: float) -> Lattice:
    """The lattice of SPACING whose walls lie at +-reach rounded up to a whole unit."""
    half = int(np.ceil(reach))
    return Lattice(-float(half), float(half), round(2 * half / SPACING) + 1)


def free_step(reach: float, mass: float, omega: float, hbar: float = 1.0) -> float:
    """Engine B's longest free Pade step on a chain of this reach, as the
    module docstring states."""
    energy = 0.5 * mass * omega**2 * reach**2
    return STEP_SCALE / omega * (hbar * omega / energy) ** (9 / 8)


def run_stroboscopic(lattice: Lattice | None, plan: StroboscopicPlan, width: float,
                     gate_duration: float, mass: float, omega: float, hbar: float = 1.0,
                     center: float = 0.0, gate_steps: int = 1,
                     scan_at: set[int] | None = None) -> list[ChainRecord]:
    """Full grid simulation of the plan, starting from a Gaussian packet.

    Each measurement is scanned by gating the same pre-gate state at each of
    the Gaussian filter's `collapse.SCAN_POINTS` candidate outcomes; the
    imposed result's gate, of `gate_steps` Strang substeps none longer than
    GATE_STEP, then advances the chain, followed by free evolution across the
    quiescent interval in Pade steps no longer than `free_step` at the
    chain's reach.
    `scan_at` restricts which measurements are scanned (all by default).
    A `lattice` of None is `derived_lattice`'s at that reach. Probability
    reaching the walls raises BoundaryLeakError.
    """
    if plan.filter_kind != "gaussian":
        raise ValueError("step filters have no local gate Hamiltonian on the grid")
    if gate_duration <= 0:
        raise ValueError("gate_duration must be positive")
    _check_gate_steps(gate_steps, gate_duration)
    reach = chain_reach(plan, width, gate_duration, mass, omega, hbar, center)
    if lattice is None:
        lattice = derived_lattice(reach)
    wavefn = sample_gaussian(lattice, width, center)
    _leak_check(wavefn, "before measurement 1")
    free_op = effective_hamiltonian(lattice, mass, omega, hbar)
    free_steps = _steps_within(plan.interval, free_step(reach, mass, omega, hbar))
    free_dt = plan.interval / free_steps

    def advance(wavefn: GridWavefunction, a: float, n: int) -> GridWavefunction:
        values = _gate(wavefn, free_op, plan.error, gate_duration, gate_steps, hbar)(a)
        wavefn = GridWavefunction(
            lattice, crank_nicolson_evolve(free_op, values, free_dt, free_steps, hbar, PADE))
        _leak_check(wavefn, f"after interval {n}")
        return wavefn

    def scan(wavefn: GridWavefunction):
        dist = _scan(wavefn.normalized(), free_op, plan.error, gate_duration, gate_steps, hbar)
        return dist.delta_a_eff, dist.a_tilde

    return _scan_chain(plan, wavefn, advance, scan, GridWavefunction.norm_squared, scan_at)
