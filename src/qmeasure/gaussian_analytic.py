"""Closed-form Gaussian packet evolution through measured and free segments.

A Gaussian packet stays Gaussian under any Hamiltonian quadratic in x, even
with complex coefficients, so a measurement gate (harmonic potential plus
the anti-Hermitian term -i*hbar*kappa*(x-a)^2) and free oscillator evolution
both reduce to fractional-linear updates of the packet parameters. Writing

    psi(x) = exp(-gamma x^2 + b x + c),  Re gamma > 0,

the quadratic propagator exp[A(x''^2 + x'^2) + B x'' x'] with

    A = i m W cos(W t) / (2 hbar sin(W t)),   B = -i m W / (hbar sin(W t)),

(W the segment's, possibly complex, frequency) maps

    gamma' = -A - B^2 / (4 (gamma - A)),      b' = B b / (2 (gamma - A)),

plus bookkeeping of the real log-amplitude. This engine is the fast exact
reference for the packet width entering each stroboscopic measurement; the
outcome uncertainty of a measurement on a Gaussian of width sigma is
sqrt(da^2 + sigma^2) in the impulsive regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stroboscopic import ChainRecord, StroboscopicPlan, _scan_chain
from .weights import measurement_coupling


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian state exp(-curvature*x^2 + linear*x), with real log amplitude."""

    curvature: complex
    linear: complex = 0.0
    log_scale: float = 0.0

    def __post_init__(self):
        if not np.real(self.curvature) > 0:
            raise ValueError("Re(curvature) must be positive for a normalizable packet")

    @classmethod
    def from_width(cls, width: float, center: float = 0.0, momentum: float = 0.0,
                   hbar: float = 1.0) -> "GaussianPacket":
        """Normalized packet of width sigma centered at `center`."""
        if not width > 0:
            raise ValueError("width must be positive")
        g = 1.0 / (2.0 * width**2)
        b = 2.0 * g * center + 1j * momentum / hbar
        c = -0.25 * float(np.log(np.pi * width**2)) - g * center**2
        return cls(g, b, c)

    @property
    def width(self) -> float:
        return float((2.0 * np.real(self.curvature)) ** -0.5)

    @property
    def center(self) -> float:
        return float(np.real(self.linear) / (2.0 * np.real(self.curvature)))

    @property
    def norm_squared(self) -> float:
        rg = np.real(self.curvature)
        rb = np.real(self.linear)
        return float(np.exp(2.0 * self.log_scale + rb**2 / (2.0 * rg)) * np.sqrt(np.pi / (2.0 * rg)))

    def phase_space(self, mass: float, omega: float, hbar: float = 1.0) -> tuple[float, float]:
        """Amplitude R and spread S of the packet in the plane (x, p/(m omega)).

        R = sqrt(<x>^2 + (<p>/m omega)^2) and S = sqrt(Var x + Var p/(m omega)^2),
        with Var x = 1/(4 Re g) and Var p = hbar^2 |g|^2 / Re g for curvature g.
        Free oscillator evolution rotates that plane, so it keeps both, and at
        every time of a free interval |<x>| <= R and Var x <= S^2.
        """
        g, b = complex(self.curvature), complex(self.linear)
        mean_x = b.real / (2.0 * g.real)
        mean_p = hbar * (b.imag - 2.0 * g.imag * mean_x)
        scale = mass * omega
        return (float(np.hypot(mean_x, mean_p / scale)),
                float(np.sqrt(0.25 / g.real + (hbar / scale) ** 2 * abs(g) ** 2 / g.real)))


def impulsive_uncertainty(width: float, error: float) -> float:
    """Effective outcome uncertainty sqrt(error^2 + width^2)."""
    return float(np.hypot(width, error))


def _propagate(packet: GaussianPacket, frequency: complex, shift: complex,
               offset: complex, duration: float, mass: float, hbar: float) -> GaussianPacket:
    """One quadratic segment: frequency W, potential center `shift`, constant
    energy `offset`, all possibly complex."""
    s = np.sin(frequency * duration)
    cterm = np.cos(frequency * duration)
    A = 1j * mass * frequency * cterm / (2.0 * hbar * s)
    B = -1j * mass * frequency / (hbar * s)

    g, b, rc = packet.curvature, packet.linear, packet.log_scale
    # re-center on the (complex) potential minimum
    beta = b - 2.0 * g * shift
    rc += float(np.real(b * shift - g * shift**2))

    denom = g - A
    g_new = -A - B**2 / (4.0 * denom)
    beta_new = B * beta / (2.0 * denom)
    rc += 0.5 * float(np.log(np.abs(mass * frequency / (2.0 * np.pi * hbar * s))))
    rc += float(duration / hbar * np.imag(offset))
    rc += float(np.real(beta**2 / (4.0 * denom)))
    rc += 0.5 * float(np.log(np.abs(np.pi / denom)))

    b_new = beta_new + 2.0 * g_new * shift
    rc += float(np.real(-g_new * shift**2 - beta_new * shift))
    if not np.real(g_new) > 0:
        raise ArithmeticError("packet curvature left the physical half-plane")
    return GaussianPacket(complex(g_new), complex(b_new), rc)


def evolve_free(packet: GaussianPacket, duration: float, mass: float, omega: float,
                hbar: float = 1.0) -> GaussianPacket:
    """Free harmonic evolution for `duration`.

    Integer multiples of the half period are applied exactly through the
    mirror identity psi(x, T/2) = -i psi(-x, 0) (curvature invariant, linear
    coefficient flips sign), which also avoids the kernel's sin(omega t)
    singularities; any remainder goes through the fractional-linear map.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not duration >= 0:
        raise ValueError("duration must be nonnegative")
    half = np.pi / omega
    k = int(np.floor(duration / half))
    r = duration - k * half
    tol = 1e-10 * half
    if r > half - tol:
        k += 1
        r = 0.0
    elif r < tol:
        r = 0.0
    out = packet
    if k % 2 == 1:
        out = GaussianPacket(out.curvature, -out.linear, out.log_scale)
    if r > 0.0:
        out = _propagate(out, omega, 0.0, 0.0, r, mass, hbar)
    return out


def evolve_measured(packet: GaussianPacket, duration: float, error: float, mass: float,
                    omega: float, hbar: float = 1.0, center: float = 0.0) -> GaussianPacket:
    """Evolution through one measurement gate of length `duration`.

    The gate adds -i*hbar*kappa*(x-center)^2 to the harmonic Hamiltonian,
    kappa = 1/(2 error^2 duration); completing the square gives a segment
    with complex frequency W^2 = omega^2 - 2 i hbar kappa / m, a complex
    potential center, and a constant complex offset that feeds the norm.
    """
    kappa = measurement_coupling(error, duration)
    w2 = complex(omega**2, -2.0 * hbar * kappa / mass)
    w = np.sqrt(w2)
    shift = -2j * hbar * kappa * center / (mass * w2)
    offset = -1j * hbar * kappa * center**2 - 0.5 * mass * w2 * shift**2
    return _propagate(packet, w, shift, offset, duration, mass, hbar)


def stroboscopic_widths(
    width: float,
    interval: float,
    measurements: int,
    error: float,
    gate_duration: float,
    mass: float,
    omega: float,
    hbar: float = 1.0,
    *,
    center: float = 0.0,
    results: str | Sequence[float] = "constant",
    result_value: float = 0.0,
    scan_at: set[int] | None = None,
) -> list[ChainRecord]:
    """Effective uncertainties along a stroboscopic sequence.

    Measurement n happens at t = (n-1)*interval; the record for n describes
    the packet just before that measurement, whose outcome therefore scatters
    with delta_a_eff = sqrt(error^2 + width_n^2) around the packet center
    (a_tilde); norm_squared is the packet's. Measurements 1..N-1 are then
    imposed with the given results and the packet evolved onward. `scan_at`
    restricts which measurements get a record (all by default).
    """
    if not gate_duration > 0:
        raise ValueError("gate_duration must be positive")
    plan = StroboscopicPlan(interval, measurements, "gaussian", error, results, result_value)
    return _scan_chain(plan, GaussianPacket.from_width(width, center=center),
                       _chain_advance(plan, gate_duration, mass, omega, hbar),
                       lambda p: (impulsive_uncertainty(p.width, error), p.center),
                       lambda p: p.norm_squared, scan_at)


def _chain_advance(plan: StroboscopicPlan, gate_duration: float, mass: float, omega: float,
                   hbar: float):
    """Engine A between measurements: the gate at the imposed result, then
    one free interval."""
    def advance(packet: GaussianPacket, a: float, n: int) -> GaussianPacket:
        packet = evolve_measured(packet, gate_duration, plan.error, mass, omega, hbar, center=a)
        return evolve_free(packet, plan.interval, mass, omega, hbar)

    return advance

