"""Impulsive measurement collapse and outcome statistics.

An impulsive measurement with result a maps the state to w_a * psi (the
restricted-propagator rule for a gate much shorter than the dynamical
timescales). The probability of reading result a is proportional to the
squared norm of the collapsed state; its effective width

    delta_a_eff^2 = 2 * integral (a - a_tilde)^2 P(a) da,

with a_tilde the density's peak, measures how much the apparatus error da
is diluted by the quantum spread of the state.

Every outcome scan, engine C's here and engine B's on the lattice, is one
routine, `_window_scan`: it lays out the outcomes on a window centered on
the state's mean and 10x the expected uncertainty wide (or 10x the previous
measurement's), takes the squared norms ||w_a psi||^2 its engine computes
there, reruns once on a corrected window when the measured uncertainty is
more than 15% off, and summarizes the norms with
`OutcomeDistribution.from_norms`. `outcome_distribution` is that scan of one
measurement on engine C's norms, as a chain's first scan.

Engine C's norms come from `_scan_norms`, for either filter, on one shared
quadrature grid: panels carrying one Gauss-Legendre rule each tile the live
windows, and the eigenfunctions are evaluated once on their nodes. Gaussian
panels are as wide as a filter window; step panels run between consecutive
window edges, so the step's jumps fall on panel ends and its indicator is
exact on every node. The outcomes, in order of position, are then reduced
in blocks of 32, each by one real matrix product over only the nodes its
windows cover, straight to their squared norms. Past its (2 n_max, nodes)
grid array a scan allocates only a block's arrays, so repeated scans reuse
memory the allocator already holds instead of faulting in fresh pages.
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
from .weights import WeightSpec, quadrature_nodes


class GridCoverageError(RuntimeError):
    """Raised when an outcome grid leaves visible probability at its edges."""


# outcomes per block of a scan: at 16 and 128 the default `run` took about
# 10% longer, and at 64 it faulted in fresh pages on every run
_BLOCK = 32


def _scan_norms(state: EigenState, kind: str, error: float, outcomes: np.ndarray) -> np.ndarray:
    """Squared norms ||w_a psi||^2 for every outcome a, in any order, on one
    shared grid of panels, by blocks.

    Gaussian panels of the window width tile the span of the live windows
    [lo, hi] (clipped to the basis domain), each carrying one Gauss-Legendre
    rule, so a window covers at most its first panel and the next. Step
    panels run between consecutive window edges, so the step's jumps fall
    on panel ends; each carries one rule whose node count keeps the longest
    panel at the density of a window's own rule. Only panels some window
    touches get nodes. The eigenfunctions are evaluated once, and the real
    and imaginary parts of g = u w psi are stacked into one real
    (2 n_max, nodes) array. The live outcomes, sorted by position, are then
    reduced in blocks of `_BLOCK`: each block's filter profiles, cut to
    their windows, multiply g over only the nodes those windows cover, and
    the product's rows, the real and then the imaginary parts of the
    coefficients of w_a psi, give their squared norms. Outcomes whose window
    lies wholly outside the basis domain read exactly 0.
    """
    basis = state.basis
    n_max = basis.n_max
    outcomes = np.asarray(outcomes, dtype=float)
    half = WeightSpec(kind, 0.0, error).window_halfwidth()  # validates kind/error
    limit = domain_halfwidth(basis)
    lo = np.clip(outcomes - half, -limit, limit)
    hi = np.clip(outcomes + half, -limit, limit)
    rows = np.flatnonzero(hi > lo)
    norms = np.zeros(outcomes.size)
    if rows.size == 0:
        return norms
    # lo and hi both grow with the outcome, so this sorts the windows' starts
    # and ends alike
    rows = rows[np.argsort(outcomes[rows], kind="stable")]
    width = 2.0 * half
    nodes = quadrature_nodes(width)
    if kind == "gaussian":
        start, stop = float(lo[rows[0]]), float(hi[rows[-1]])
        count = max(1, int(np.ceil((stop - start) / width)))
        first = np.clip(np.floor((lo[rows] - start) / width).astype(int), 0, count - 1)
        panels = np.unique(np.concatenate([first, np.minimum(first + 1, count - 1)]))
        left = start + width * panels
        right = np.minimum(left + width, stop)
    else:
        edges = np.unique(np.concatenate([lo[rows], hi[rows]]))
        left, right = edges[:-1], edges[1:]
        # a panel is covered when more windows start than end before its middle
        mid = 0.5 * (left + right)
        covered = (np.searchsorted(lo[rows], mid, side="right")
                   > np.searchsorted(hi[rows], mid, side="left"))
        left, right = left[covered], right[covered]
        # four nodes past a window rule's density: with only two or three,
        # short panels were 1e-6 off on 801 outcomes at error 3
        nodes = int(np.ceil(nodes * np.max(right - left) / width)) + 4
    base_x, base_w = _legendre_rule(nodes)
    x = (0.5 * (right - left)[:, None] * base_x + 0.5 * (right + left)[:, None]).ravel()
    w = (0.5 * (right - left)[:, None] * base_w).ravel()
    u = eigenfunction_matrix(basis, x)                       # (n_max, nodes)
    c = state.coefficients
    g = np.empty((2 * n_max, x.size))
    np.multiply(u, w * (c.real @ u), out=g[:n_max])
    np.multiply(u, w * (c.imag @ u), out=g[n_max:])
    del u

    # x ascends and so do both window edges, so a block's windows cover
    # the columns from its first window's start to its last window's end
    a = outcomes[rows]
    starts = np.searchsorted(x, lo[rows], side="left").tolist()
    ends = np.searchsorted(x, hi[rows], side="right").tolist()
    # every node lies in the domain, so a window is the nodes within `half`
    # of its outcome; the Gaussian profile is formed in place and rounds as
    # evaluate_weight does, with exp(-inf) = 0 outside the window, and the
    # step profile is the window's indicator, exact on panels that end at
    # window edges
    reach, scale = half**2, -2.0 * error**2
    for i in range(0, rows.size, _BLOCK):
        j0, j1 = starts[i], ends[min(i + _BLOCK, rows.size) - 1]
        f = np.subtract.outer(a[i:i + _BLOCK], x[j0:j1])
        np.square(f, out=f)
        if kind == "gaussian":
            f[f > reach] = np.inf
            f /= scale
            np.exp(f, out=f)
        else:
            np.less_equal(f, reach, out=f)
        r = f @ g[:, j0:j1].T
        norms[rows[i:i + _BLOCK]] = np.einsum("ij,ij->i", r, r)
    return norms


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
        GridCoverageError when the two end samples carry over 1e-6 of it; on
        a chain's self-sizing scan window that mass is a truncated basis's
        spread, so the message names numerics.levels."""
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
                f"probability mass {boundary:.3e} at the scan window's edges exceeds 1e-06; "
                "raise numerics.levels"
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


# outcomes per engine C scan; each window is sized to the measured
# uncertainty, so the count resolves the density alike in every regime
_SCAN_POINTS = 801


def outcome_distribution(state: EigenState, error: float, kind: str = "gaussian") -> OutcomeDistribution:
    """Outcome density of a single impulsive measurement of `state`, normalized:
    the scan engine C runs on a chain's first measurement, on the same window."""
    mean, var = position_moments(state)
    work = state.normalized()
    return _window_scan(lambda a: _scan_norms(work, kind, error, a), mean, var, error,
                        _SCAN_POINTS, None)


def _window_scan(norms, center: float, var: float, error: float, points: int,
                 seed: float | None) -> OutcomeDistribution:
    """Engines B and C's outcome scan: `norms(outcomes)` gives ||w_a psi||^2
    on `points` outcomes of a window centered on `center`, the state's mean.

    The window spans 10x sqrt(error^2 + 2 var), var the state's position
    variance, raised to 10x `seed` (the previous measurement's uncertainty)
    when one is given; if the measured uncertainty disagrees with the window
    by more than 15% the scan runs once more at the corrected span.
    """
    def scan(halfwidth: float) -> OutcomeDistribution:
        outcomes = np.linspace(center - halfwidth, center + halfwidth, points)
        return OutcomeDistribution.from_norms(outcomes, norms(outcomes))

    guess = float(np.sqrt(error**2 + 2.0 * max(var, 0.0)))
    if seed is not None:
        guess = max(guess, seed)
    halfwidth = 10.0 * guess
    dist = scan(halfwidth)
    if abs(10.0 * dist.delta_a_eff - halfwidth) > 0.15 * halfwidth:
        dist = scan(10.0 * dist.delta_a_eff)
    return dist
