"""Impulsive measurement collapse and outcome statistics.

An impulsive measurement with result a maps the state to w_a * psi (the
restricted-propagator rule for a gate much shorter than the dynamical
timescales). The probability of reading result a is proportional to the
squared norm of the collapsed state; its effective width

    delta_a_eff^2 = 2 * integral (a - a_tilde)^2 P(a) da,

with a_tilde the density's peak, measures how much the apparatus error da
is diluted by the quantum spread of the state.

An outcome scan evaluates w_a psi for every outcome a of a grid. For the
Gaussian filter all outcomes share one quadrature grid: panels as wide as a
filter window, each with the same Gauss-Legendre rule, tile the live
windows, the eigenfunctions are evaluated once on their nodes, and the
outcomes whose windows start in the same panel are reduced by one real
matrix product over that panel and the next. The step filter's integrand
jumps at each outcome's own window edges, so every step outcome keeps a
rule of its own on its window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .oscillator import (
    EigenState,
    _legendre_rule,
    domain_halfwidth,
    eigenfunction_matrix,
    position_moments,
)
from .weights import WeightSpec, quadrature_nodes, weight_matrix


class GridCoverageError(RuntimeError):
    """Raised when an outcome grid leaves visible probability at its edges."""


def apply_impulsive(state: EigenState, spec: WeightSpec) -> EigenState:
    """Collapse rule psi -> w_a psi in the truncated basis (not renormalized)."""
    return EigenState(state.basis, weight_matrix(state.basis, spec).matrix @ state.coefficients)


def outcome_amplitudes(state: EigenState, kind: str, error: float, outcomes: np.ndarray) -> np.ndarray:
    """Collapsed-state coefficients for every outcome on a grid.

    Returns the (n_outcomes, n_max) matrix whose row i holds the eigenbasis
    coefficients of w_{a_i} * psi; outcomes may come in any order, and rows
    whose window lies wholly outside the basis domain are exactly zero.
    Each outcome integrates over its own support window clipped to the
    domain: the Gaussian filter on the scan's shared panel grid, the step
    filter on a rule of its own, so its integrand stays smooth on its panel.
    """
    basis = state.basis
    spec0 = WeightSpec(kind, 0.0, error)  # validates kind/error
    half = spec0.window_halfwidth()
    limit = domain_halfwidth(basis)
    outcomes = np.asarray(outcomes, dtype=float)
    base_x, base_w = _legendre_rule(quadrature_nodes(2.0 * half))
    lo = np.clip(outcomes - half, -limit, limit)
    hi = np.clip(outcomes + half, -limit, limit)
    if kind == "gaussian":
        return _gaussian_amplitudes(state, error, outcomes, lo, hi, 2.0 * half, base_x, base_w)

    span = hi - lo
    live = span > 0
    # map the reference rule into every live window (rows of zeros elsewhere)
    xs = 0.5 * span[:, None] * base_x[None, :] + 0.5 * (hi + lo)[:, None]
    ws = 0.5 * span[:, None] * base_w[None, :]
    u = eigenfunction_matrix(basis, xs)                      # (n_max, n_a, n_nodes)
    psi = np.einsum("l,lak->ak", state.coefficients, u)
    amps = np.einsum("lak,ak->al", u, ws * psi)
    amps[~live] = 0.0
    return amps


def _gaussian_amplitudes(state: EigenState, error: float, outcomes: np.ndarray,
                         lo: np.ndarray, hi: np.ndarray, width: float,
                         base_x: np.ndarray, base_w: np.ndarray) -> np.ndarray:
    """Gaussian-filter amplitudes on one shared grid of panels.

    Panels of the window width tile the span of the live windows [lo, hi],
    each carrying the reference rule, so a window covers at most its first
    panel k and panel k + 1; only panels some window touches get nodes. The
    eigenfunctions are evaluated once, the real and imaginary parts of
    g = u w psi are stacked into one real (2 n_max, nodes) array, and the
    outcomes whose window starts in panel k are reduced by one matrix
    product of their filter profiles, cut to the window, with g on panels
    k and k + 1.
    """
    n_max = state.basis.n_max
    amps = np.zeros((outcomes.size, n_max), dtype=complex)
    rows = np.flatnonzero(hi > lo)
    if rows.size == 0:
        return amps
    start, stop = float(lo[rows].min()), float(hi[rows].max())
    count = max(1, int(np.ceil((stop - start) / width)))
    first = np.clip(np.floor((lo[rows] - start) / width).astype(int), 0, count - 1)
    panels = np.unique(np.concatenate([first, np.minimum(first + 1, count - 1)]))

    left = start + width * panels
    right = np.minimum(left + width, stop)
    x = (0.5 * (right - left)[:, None] * base_x + 0.5 * (right + left)[:, None]).ravel()
    w = (0.5 * (right - left)[:, None] * base_w).ravel()
    u = eigenfunction_matrix(state.basis, x)                 # (n_max, n_nodes)
    c = state.coefficients
    g = np.empty((2 * n_max, x.size))
    np.multiply(u, w * (c.real @ u), out=g[:n_max])
    np.multiply(u, w * (c.imag @ u), out=g[n_max:])

    nodes = base_x.size
    slot = np.searchsorted(panels, first)
    for j in np.unique(slot):
        group = rows[slot == j]
        band = slice(j * nodes, min(j + 2, panels.size) * nodes)
        xb = x[band]
        f = np.exp(-((xb[None, :] - outcomes[group, None]) ** 2) / (2.0 * error**2))
        f[(xb < lo[group, None]) | (xb > hi[group, None])] = 0.0
        r = f @ g[:, band].T
        amps[group] = r[:, :n_max] + 1j * r[:, n_max:]
    return amps


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized outcome density of one measurement, with its summary."""

    outcomes: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    a_tilde: float
    delta_a_eff: float
    boundary_mass: float

    @classmethod
    def from_norms(cls, outcomes: np.ndarray, norms_squared: np.ndarray) -> "OutcomeDistribution":
        """Summarize raw collapsed norms ||w_a psi||^2 into a distribution,
        P(a) ~ ||w_a psi||^2 (the Born rule in the sharp-filter limit).
        GridCoverageError when the two end samples carry over 1e-6 of it."""
        outcomes = np.asarray(outcomes, dtype=float)
        raw = np.asarray(norms_squared, dtype=float)
        total = np.trapezoid(raw, outcomes)
        if not np.isfinite(total) or total <= 0.0:
            raise GridCoverageError("outcome grid carries no probability")
        density = raw / total
        h = outcomes[1] - outcomes[0]
        boundary = float((density[0] + density[-1]) * h)
        if boundary > 1e-6:
            raise GridCoverageError(
                f"probability mass {boundary:.3e} at the grid edge; widen the outcome grid"
            )
        a_tilde = _refine_peak(outcomes, density)
        daeff = float(np.sqrt(2.0 * np.trapezoid((outcomes - a_tilde) ** 2 * density, outcomes)))
        return cls(outcomes, density, a_tilde, daeff, boundary)


def _refine_peak(outcomes: np.ndarray, density: np.ndarray) -> float:
    """Sub-grid peak location by a parabola through the top three samples.

    Ties break toward the smaller outcome (first maximum): samples within
    1e-12 of the maximum, relative, count as tied, so a symmetric density
    does not pick its peak by round-off.
    """
    peak = float(np.max(density))
    i = int(np.argmax(density >= peak - 1e-12 * abs(peak)))
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
    return OutcomeDistribution.from_norms(outcomes, norms2)


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
