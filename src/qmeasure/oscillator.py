"""Harmonic-oscillator eigenbasis tools.

Everything the eigenbasis measurement engine needs from the oscillator
itself: stable evaluation of the normalized eigenfunctions (also far out,
where the ground state underflows), free-evolution phase factors, shared
Gauss-Legendre quadrature helpers for the weight matrices and outcome scans,
and the closed-form projection of Gaussian packets onto a truncated basis.

Conventions used throughout the package: levels are indexed from n = 0 with
energy E_n = hbar*omega*(n + 1/2); a Gaussian of width sigma means
psi(x) ~ exp(-(x - x0)^2 / (2 sigma^2)), so the ground state has
sigma^2 = hbar/(m*omega).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

_LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Raised when a quadrature grid fails its convergence check."""


@dataclass(frozen=True)
class OscillatorBasis:
    """Truncated energy eigenbasis of a 1-D harmonic oscillator.

    Parameters
    ----------
    mass, omega : float
        Particle mass and angular frequency (both > 0).
    n_max : int
        Number of retained levels; coefficients run over n = 0 .. n_max-1.
    hbar : float
        Reduced Planck constant, default 1.
    """

    mass: float
    omega: float
    n_max: int
    hbar: float = 1.0

    def __post_init__(self):
        if not (self.mass > 0 and self.omega > 0 and self.hbar > 0):
            raise ValueError("mass, omega and hbar must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    @property
    def length_scale(self) -> float:
        """Ground-state width sqrt(hbar/(m*omega))."""
        return float(np.sqrt(self.hbar / (self.mass * self.omega)))

    def turning_point(self, n: int) -> float:
        """Classical turning point of level n."""
        return float(np.sqrt((2 * n + 1.0)) * self.length_scale)


def free_phase_factors(basis: OscillatorBasis, dt: float) -> np.ndarray:
    """Diagonal of the free propagator, exp(-i E_n dt / hbar)."""
    return np.exp(-1j * basis.omega * dt * (np.arange(basis.n_max) + 0.5))


def eigenfunction_matrix(basis: OscillatorBasis, x) -> np.ndarray:
    """Normalized eigenfunctions u_0..u_{n_max-1} evaluated at x.

    Returns an array of shape (n_max,) + x.shape. Uses the three-term
    recurrence on the normalized Hermite functions, which is stable upward
    (unnormalized Hermite polynomials overflow near n ~ 150; the normalized
    functions stay O(1) for any level). Beyond |xi| = FAR_XI, where u_0
    nears the smallest float, the recurrence carries a power-of-two scale
    per point (`_scaled_recurrence`).
    """
    xi = np.asarray(x, dtype=float) * np.sqrt(basis.mass * basis.omega / basis.hbar)
    norm = (basis.mass * basis.omega / (np.pi * basis.hbar)) ** 0.25
    out = np.empty((basis.n_max,) + xi.shape)
    out[0] = norm * np.exp(-0.5 * xi**2)
    if basis.n_max > 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(1, basis.n_max - 1):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * xi * out[n] - np.sqrt(n / (n + 1.0)) * out[n - 1]
    far = np.abs(xi) > FAR_XI
    if np.any(far):
        columns, far = out.reshape(basis.n_max, -1), far.ravel()
        columns[:, far] = _scaled_recurrence(norm, xi.ravel()[far], basis.n_max)
    return out


# u_0 = exp(-xi^2/2) falls below the smallest normal float at |xi| = 37.6
# and to 0 at 38.6, while level 999 turns at 44.7
FAR_XI = 37.0


def _scaled_recurrence(norm: float, xi: np.ndarray, n_max: int) -> np.ndarray:
    """The eigenfunction recurrence at points xi, run on mantissas
    t_n = u_n 2**e so that no point's u_0 underflows.

    e starts at each point's binary exponent of exp(-xi^2/2) and drops as
    the levels grow; the ldexp that returns u_n is exact wherever u_n is a
    normal float, and values below the smallest normal float read 0.
    """
    half_square = 0.5 * xi**2
    e = np.floor(half_square / _LN2)
    prev, cur = np.zeros_like(xi), norm * np.exp(e * _LN2 - half_square)
    e = e.astype(np.int64)
    out = np.empty((n_max,) + xi.shape)
    out[0] = np.ldexp(cur, -e)
    for n in range(n_max - 1):
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * xi * cur - np.sqrt(n / (n + 1.0)) * prev
        k = np.minimum(e, np.maximum(np.frexp(cur)[1], 0))
        prev, cur, e = np.ldexp(prev, -k), np.ldexp(cur, -k), e - k
        out[n + 1] = np.ldexp(cur, -e)
    # denormals carry nothing at 1e-308 of the O(1) levels and slow every
    # product that reads them
    out[np.abs(out) < np.finfo(float).tiny] = 0.0
    return out


@dataclass
class EigenState:
    """State vector in the truncated eigenbasis."""

    basis: OscillatorBasis
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != (self.basis.n_max,):
            raise ValueError("coefficient vector must have length n_max")
        self.coefficients = c

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))

    def normalized(self) -> "EigenState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return EigenState(self.basis, self.coefficients / n)


def position_wavefunction(state: EigenState, x) -> np.ndarray:
    """psi(x) = sum_n c_n u_n(x) on the given sample points."""
    u = eigenfunction_matrix(state.basis, x)
    return np.tensordot(state.coefficients, u, axes=(0, 0))


def position_moments(state: EigenState) -> tuple[float, float]:
    """Mean and variance of position, via the tridiagonal x matrix."""
    b = state.basis
    c = state.coefficients
    s = np.sqrt(b.hbar / (2.0 * b.mass * b.omega))
    n = np.arange(b.n_max)
    nrm2 = float(np.vdot(c, c).real)
    if nrm2 == 0.0:
        raise ValueError("moments of the zero state are undefined")
    # <x>: couples n and n+1
    off1 = np.sqrt(n[1:])  # <n-1|a|n> ladder weights
    mean = 2.0 * s * float(np.sum((np.conj(c[:-1]) * c[1:]).real * off1))
    # <x^2>: diagonal (2n+1), and n <-> n+2 with sqrt((n+1)(n+2))
    diag = (2 * n + 1.0)
    x2 = float(np.sum(np.abs(c) ** 2 * diag))
    if b.n_max > 2:
        off2 = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        x2 += 2.0 * float(np.sum((np.conj(c[:-2]) * c[2:]).real * off2))
    x2 *= s**2
    mean /= nrm2
    x2 /= nrm2
    return mean, x2 - mean**2


# ---------------------------------------------------------------------------
# quadrature helpers shared by the weight-matrix and outcome-scan code
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _legendre_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on the three-term recurrence (Hale & Townsend 2013),
    O(n^2) where numpy's `leggauss` takes the eigenvalues of a dense n x n
    matrix (Golub & Welsch 1969), O(n^3): 8 ms against 70 ms at 800 nodes,
    23 ms against 0.3 s at 1,600. Only the positive half is iterated,
    from Tricomi's guesses, until no node moves by more than 4e-16; the
    other half is its mirror, and odd rules get an exact 0 node. The weights
    come from a final pass, w = 2/((1 - x^2) P_n'(x)^2); at 800 nodes the end
    weight is 2e-12 off in relative terms, `leggauss`'s 1.4e-9. The same few
    node counts recur in every weight matrix and outcome scan.
    """
    n = int(points)
    k = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    j = np.arange(1.0, n)
    # P_{j+1} = a_j x P_j - b_j P_{j-1}; Python floats keep the loop's
    # scalar multiplies cheap
    a, b = ((2.0 * j + 1.0) / (j + 1.0)).tolist(), (j / (j + 1.0)).tolist()

    def legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P_n(x) and n (P_{n-1}(x) - x P_n(x)) = (1 - x^2) P_n'(x)."""
        p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
        for aj, bj in zip(a, b):
            np.multiply(x, p1, out=t)
            t *= aj
            p0 *= bj
            np.subtract(t, p0, out=p0)
            p0, p1 = p1, p0
        return p1, n * (p0 - x * p1)

    for _ in range(100):
        p, dp = legendre(x)
        dx = p * (1.0 - x) * (1.0 + x) / dp
        x -= dx
        if np.max(np.abs(dx), initial=0.0) <= 4e-16:
            break
    else:
        raise QuadratureError(f"Gauss-Legendre nodes did not converge at {n} points")
    if n % 2:
        x = np.concatenate([[0.0], x])
    _, dp = legendre(x)
    w = 2.0 * (1.0 - x) * (1.0 + x) / dp**2
    x = np.concatenate([-x[::-1][:n // 2], x])
    w = np.concatenate([w[::-1][:n // 2], w])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(lo: float, hi: float, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    if hi <= lo:
        raise ValueError("empty integration interval")
    x, w = _legendre_rule(int(points))
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def domain_halfwidth(basis: OscillatorBasis) -> float:
    """Half-width that covers the basis support.

    The highest retained level oscillates out to its classical turning point
    and decays as a Gaussian beyond it; six length scales of margin push the
    tail below 1e-12.
    """
    lx = basis.length_scale
    return max(8.0 * lx, basis.turning_point(basis.n_max - 1) + 6.0 * lx)


def project_gaussian(
    basis: OscillatorBasis,
    width: float,
    center: float = 0.0,
) -> tuple[EigenState, float]:
    """Expand a normalized Gaussian packet in the truncated basis, in closed
    form.

    The packet is a squeezed coherent state. In xi = x/l, with s = sigma/l
    and xi0 = center/l, the Hermite generating function gives its amplitudes
    as c_0 = sqrt(2 s/(s^2+1)) exp(-xi0^2/(2 (s^2+1))), c_1 = beta c_0 and
    c_(n+1) = (beta c_n + gamma sqrt(n) c_(n-1)) / sqrt(n+1), where
    beta = sqrt(2) xi0/(s^2+1) and gamma = (s^2-1)/(s^2+1).

    Parameters
    ----------
    width : float
        Packet width sigma (> 0), psi ~ exp(-(x-center)^2/(2 sigma^2)).

    Returns
    -------
    state : EigenState
        The projected state, renormalized to unit norm.
    captured : float
        Norm fraction sum |c_n|^2 of the exact packet retained by the
        truncation, so that truncation loss stays visible.
    """
    if not width > 0:
        raise ValueError("packet width must be positive")
    s, xi0 = width / basis.length_scale, center / basis.length_scale
    d = s * s + 1.0
    beta, gamma = math.sqrt(2.0) * xi0 / d, (s * s - 1.0) / d
    # the recurrence runs on mantissas t_n = c_n 2**e_n, so that a far packet's
    # c_0 (below the smallest float once xi0^2/(2 d) passes about 708) neither
    # underflows nor loses digits to denormals; e shrinks to 0 as the
    # amplitudes grow, and the last step's ldexp is exact wherever c_n is normal
    q = xi0 * xi0 / (2.0 * d)
    e = int(q / _LN2)
    cur, prev = math.sqrt(2.0 * s / d) * math.exp(e * _LN2 - q), 0.0
    roots = np.sqrt(np.arange(basis.n_max + 1.0)).tolist()
    mantissas, exponents = [cur], [e]
    for n in range(basis.n_max - 1):
        prev, cur = cur, (beta * cur + gamma * roots[n] * prev) / roots[n + 1]
        if e and abs(cur) > 1.0:
            k = min(e, math.frexp(cur)[1])
            prev, cur, e = math.ldexp(prev, -k), math.ldexp(cur, -k), e - k
        mantissas.append(cur)
        exponents.append(e)
    coeff = np.ldexp(mantissas, -np.array(exponents))
    captured = float(np.sum(coeff**2))
    if not 0.0 < captured < math.inf:
        # 0 where every amplitude is below 1e-162, NaN or inf for an
        # overflowing width
        raise ArithmeticError(
            f"the packet's captured fraction {captured!r} cannot be normalized; "
            "raise the level count or bring the width into range")
    state = EigenState(basis, coeff.astype(complex) / np.sqrt(captured))
    return state, captured
