"""Impulsive measurement collapse and outcome statistics.

An impulsive measurement with result a maps the state to w_a * psi (the
restricted-propagator rule for a gate much shorter than the dynamical
timescales). The probability of reading result a is proportional to the
squared norm of the collapsed state; its effective width

    delta_a_eff^2 = 2 * integral (a - a_tilde)^2 P(a) da,

with a_tilde the density's peak, measures how much the apparatus error da
is diluted by the quantum spread of the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oscillator import EigenState, domain_halfwidth, eigenfunction_matrix, position_moments
from .weights import WeightMatrix, WeightSpec, quadrature_nodes, weight_matrix


class GridCoverageError(RuntimeError):
    """Raised when an outcome grid leaves visible probability at its edges."""


def apply_impulsive(state: EigenState, spec: WeightSpec, wm: WeightMatrix | None = None) -> EigenState:
    """Collapse rule psi -> w_a psi in the truncated basis (not renormalized)."""
    if wm is None:
        wm = weight_matrix(state.basis, spec)
    return EigenState(state.basis, wm.matrix @ state.coefficients)


def outcome_amplitudes(state: EigenState, kind: str, error: float, outcomes: np.ndarray) -> np.ndarray:
    """Collapsed-state coefficients for every outcome on a grid.

    Returns the (n_outcomes, n_max) matrix whose row i holds the eigenbasis
    coefficients of w_{a_i} * psi. Each outcome integrates over its own
    support window, so the rule resolves arbitrarily narrow filters and the
    step filter's integrand stays smooth on its panel.
    """
    basis = state.basis
    spec0 = WeightSpec(kind, 0.0, error)  # validates kind/error
    half = spec0.window_halfwidth()
    limit = domain_halfwidth(basis)
    outcomes = np.asarray(outcomes, dtype=float)

    base_x, base_w = np.polynomial.legendre.leggauss(quadrature_nodes(2.0 * half))
    lo = np.clip(outcomes - half, -limit, limit)
    hi = np.clip(outcomes + half, -limit, limit)
    span = hi - lo
    live = span > 0

    # map the reference rule into every live window (rows of zeros elsewhere)
    xs = 0.5 * span[:, None] * base_x[None, :] + 0.5 * (hi + lo)[:, None]
    ws = 0.5 * span[:, None] * base_w[None, :]
    u = eigenfunction_matrix(basis, xs)                      # (n_max, n_a, n_nodes)
    psi = np.einsum("l,lak->ak", state.coefficients, u)
    if kind == "gaussian":
        f = np.exp(-((xs - outcomes[:, None]) ** 2) / (2.0 * error**2))
    else:
        f = np.ones_like(xs)
    amps = np.einsum("lak,ak->al", u, ws * f * psi)
    amps[~live] = 0.0
    return amps


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized outcome density of one measurement, with its summary."""

    outcomes: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    a_tilde: float
    delta_a_eff: float
    boundary_mass: float
    kind: str = "gaussian"
    error: float = 1.0

    @classmethod
    def from_norms(
        cls,
        outcomes: np.ndarray,
        norms_squared: np.ndarray,
        kind: str,
        error: float,
        boundary_tolerance: float = 1e-6,
    ) -> "OutcomeDistribution":
        """Summarize raw collapsed norms ||w_a psi||^2 into a distribution,
        P(a) ~ ||w_a psi||^2 (the Born rule in the sharp-filter limit)."""
        outcomes = np.asarray(outcomes, dtype=float)
        raw = np.asarray(norms_squared, dtype=float)
        total = np.trapezoid(raw, outcomes)
        if not np.isfinite(total) or total <= 0.0:
            raise GridCoverageError("outcome grid carries no probability")
        density = raw / total
        h = outcomes[1] - outcomes[0]
        boundary = float((density[0] + density[-1]) * h)
        if boundary > boundary_tolerance:
            raise GridCoverageError(
                f"probability mass {boundary:.3e} at the grid edge; widen the outcome grid"
            )
        a_tilde = _refine_peak(outcomes, density)
        daeff = float(np.sqrt(2.0 * np.trapezoid((outcomes - a_tilde) ** 2 * density, outcomes)))
        return cls(outcomes, density, a_tilde, daeff, boundary, kind, error)


def _refine_peak(outcomes: np.ndarray, density: np.ndarray) -> float:
    """Sub-grid peak location by a parabola through the top three samples.

    argmax ties break toward the smaller outcome (first maximum).
    """
    i = int(np.argmax(density))
    if i == 0 or i == len(outcomes) - 1:
        return float(outcomes[i])
    curv = density[i - 1] - 2.0 * density[i] + density[i + 1]
    if curv >= 0.0:
        return float(outcomes[i])
    h = outcomes[1] - outcomes[0]
    shift = 0.5 * h * (density[i - 1] - density[i + 1]) / curv
    return float(outcomes[i] + np.clip(shift, -h, h))


def outcome_distribution(
    state: EigenState,
    error: float,
    kind: str = "gaussian",
    points: int = 801,
    halfwidth: float | None = None,
    center: float | None = None,
) -> OutcomeDistribution:
    """Outcome density of a single impulsive measurement of `state`.

    The grid is centered on the state's mean position and spans ten times a
    dispersion estimate sqrt(error^2 + spread^2) unless told otherwise.
    """
    work = state.normalized()
    mean, var = position_moments(work)
    if center is None:
        center = mean
    if halfwidth is None:
        halfwidth = 10.0 * float(np.sqrt(error**2 + 2.0 * var))
    outcomes = np.linspace(center - halfwidth, center + halfwidth, int(points))
    amps = outcome_amplitudes(work, kind, error, outcomes)
    norms2 = np.sum(np.abs(amps) ** 2, axis=1)
    return OutcomeDistribution.from_norms(outcomes, norms2, kind, error)


def _self_sizing_scan(scan, error: float, var: float, seed: float | None) -> OutcomeDistribution:
    """Run `scan(halfwidth)` on a window sized to the expected uncertainty.

    The window spans 10x sqrt(error^2 + 2 var), raised to 10x `seed` (the
    previous measurement's uncertainty) when one is given; if the measured
    uncertainty disagrees with the window by more than 15% the scan runs
    once more at the corrected span.
    """
    guess = float(np.sqrt(error**2 + 2.0 * max(var, 0.0)))
    if seed is not None:
        guess = max(guess, seed)
    halfwidth = 10.0 * guess
    dist = scan(halfwidth)
    if abs(10.0 * dist.delta_a_eff - halfwidth) > 0.15 * halfwidth:
        dist = scan(10.0 * dist.delta_a_eff)
    return dist
