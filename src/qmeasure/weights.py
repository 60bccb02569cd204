"""Measurement weight functions and their eigenbasis matrix elements.

A position measurement with result a and instrumental error da acts on the
wavefunction as multiplication by a weight w_a(x): either a Gaussian filter
exp(-(x-a)^2/(2 da^2)) or a hard step filter (indicator of [a-da, a+da]).
In the truncated eigenbasis the same operation is the matrix
W_ij = integral u_i(x) w_a(x) u_j(x) dx, a symmetric contraction whose
spectrum lies in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .oscillator import (
    OscillatorBasis,
    QuadratureError,
    domain_halfwidth,
    eigenfunction_matrix,
    gauss_legendre,
)

FILTER_KINDS = ("gaussian", "step")


@dataclass(frozen=True)
class WeightSpec:
    """A single measurement filter: kind, result a (center), and error da."""

    kind: str
    center: float = 0.0
    error: float = 1.0

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}; expected one of {FILTER_KINDS}")
        if not self.error > 0:
            raise ValueError("filter error must be positive")

    def window_halfwidth(self) -> float:
        """Half-width outside which the filter is negligible (or exactly zero)."""
        # gaussian tail at 8 sigma is exp(-32) ~ 1e-14
        return 8.0 * self.error if self.kind == "gaussian" else self.error


def evaluate_weight(spec: WeightSpec, x) -> np.ndarray:
    """Filter profile w_a(x) on the given points (step boundaries closed)."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "gaussian":
        return np.exp(-((x - spec.center) ** 2) / (2.0 * spec.error**2))
    return np.where(np.abs(x - spec.center) <= spec.error, 1.0, 0.0)


def measurement_coupling(error: float, duration: float) -> float:
    """Coupling strength kappa = 1/(2 da^2 tau) of a gate of length tau.

    Continuous evolution under the anti-Hermitian potential -i*hbar*kappa*
    (x-a)^2 for a time tau accumulates exactly the Gaussian filter
    exp(-(x-a)^2/(2 da^2)) when the Hamiltonian part is negligible.
    """
    if not (error > 0 and duration > 0):
        raise ValueError("error and duration must be positive")
    return 1.0 / (2.0 * error**2 * duration)


@dataclass(frozen=True)
class WeightMatrix:
    """Eigenbasis matrix of one filter, with its quadrature error estimate."""

    basis: OscillatorBasis
    spec: WeightSpec
    matrix: np.ndarray = field(repr=False)
    quad_error: float = 0.0


# the most Gauss-Legendre nodes a window's base rule takes, and the largest
# quadrature error estimate a weight matrix may carry
NODE_BUDGET = 800
TOLERANCE = 1e-8


def quadrature_nodes(length: float) -> int:
    """Gauss-Legendre node count for a window of the given length."""
    # 16 nodes per unit length keeps several nodes per oscillation of the
    # highest retained level
    return int(min(NODE_BUDGET, max(64, 16.0 * length + 48)))


def _window(spec: WeightSpec, limit: float) -> tuple[float, float, int] | None:
    """The filter's support window clipped to the basis domain, with the
    node count of its base rule (None when the window is empty)."""
    half = spec.window_halfwidth()
    lo = max(-limit, spec.center - half)
    hi = min(limit, spec.center + half)
    if hi <= lo:
        return None
    return lo, hi, quadrature_nodes(hi - lo)


def weight_matrix(basis: OscillatorBasis, spec: WeightSpec) -> WeightMatrix:
    """Build W_ij = <u_i| w_a |u_j> over the truncated basis.

    The integral runs over the filter's own support window (clipped to the
    basis domain), which keeps narrow filters fully resolved and reduces the
    step filter to a panel on which its integrand is smooth. The base rule
    has at most NODE_BUDGET nodes; its quadrature error is estimated against
    the same rule on each half of the window, twice the density from no new
    rule, and estimates above TOLERANCE raise QuadratureError. Matrices are
    memoized per (basis, spec) and returned read-only; the cache sits
    behind this plain function, which perfbench's tracer wraps.
    """
    return _weight_matrix(basis, spec)


@lru_cache(maxsize=256)
def _weight_matrix(basis: OscillatorBasis, spec: WeightSpec) -> WeightMatrix:
    # a chain imposes the same filter at every step, and a sweep rebuilds
    # the same chain at every grid point
    window = _window(spec, domain_halfwidth(basis))
    if window is None:
        m = np.zeros((basis.n_max, basis.n_max))
        m.setflags(write=False)
        return WeightMatrix(basis, spec, m)
    lo, hi, nodes = window

    def build(*cuts: float) -> np.ndarray:
        x, w = map(np.concatenate, zip(*(gauss_legendre(a, b, nodes)
                                         for a, b in zip(cuts, cuts[1:]))))
        u = eigenfunction_matrix(basis, x)
        f = evaluate_weight(spec, x)
        return (u * (w * f)) @ u.T

    m = build(lo, hi)
    err = float(np.max(np.abs(m - build(lo, 0.5 * (lo + hi), hi))))
    if err > TOLERANCE:
        raise QuadratureError(
            f"weight matrix quadrature error {err:.3e} exceeds {TOLERANCE:.1e}; "
            "raise weights.NODE_BUDGET"
        )
    m.setflags(write=False)
    return WeightMatrix(basis, spec, m, err)
