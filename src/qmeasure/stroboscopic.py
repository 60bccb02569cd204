"""Stroboscopic measurement chains in the oscillator eigenbasis.

A plan fixes the quiescent interval, the number of measurements, the filter,
and the sequence of imposed results. Between measurements the state evolves
freely (diagonal phases); each imposed measurement multiplies the coefficient
vector by the filter's matrix at the imposed outcome. Scanning the n-th
measurement over candidate outcomes a gives the conditional distribution
P(a), its peak, and the effective uncertainty delta_a_eff.

The measure/impose/evolve sequence itself is engine-neutral: `_chain_states`
walks it and `_scan_chain` turns it into ChainRecords, and engines A
(Gaussian packets), B (lattice wavefunctions) and C (eigenbasis vectors)
supply only how their state advances, how it is scanned and its norm. The
walk also guards every engine's chain: an imposition that keeps less than
1e-8 of the chain norm raises ChainUnderflowError, since engine C's rows,
and engine B's, would then be numerical noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collapse import _SCAN_POINTS, OutcomeDistribution, _scan_norms, _window_scan
from .oscillator import EigenState, free_phase_factors, position_moments
from .weights import FILTER_KINDS, WeightSpec, weight_matrix


class ChainUnderflowError(RuntimeError):
    """An imposed result kept less than `_MIN_SHARE` of the chain norm."""


# least share of the chain norm one imposition may keep: past it engine C's
# computed share stops following engine A's exact one and bottoms out near
# 3e-10, its noise floor, so the chain's later rows would be noise
_MIN_SHARE = 1e-8


@dataclass(frozen=True)
class StroboscopicPlan:
    """Measurement schedule: N measurements separated by a fixed interval.

    `results` is either a policy name ("constant", "alternating") expanded
    with `result_value`, or an explicit sequence of at least N-1 outcomes
    imposed on measurements 1..N-1.
    """

    interval: float
    measurements: int
    filter_kind: str = "gaussian"
    error: float = 1.0
    results: str | tuple = "constant"
    result_value: float = 0.0

    def __post_init__(self):
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.measurements < 1:
            raise ValueError("measurements must be at least 1")
        if self.filter_kind not in FILTER_KINDS:
            raise ValueError(f"filter_kind must be one of {FILTER_KINDS}")
        if self.error <= 0:
            raise ValueError("error must be positive")
        if isinstance(self.results, str):
            if self.results not in ("constant", "alternating"):
                raise ValueError(f"unknown results policy {self.results!r}")
        else:
            seq = tuple(float(v) for v in self.results)
            if len(seq) < self.measurements - 1:
                raise ValueError(
                    f"need at least {self.measurements - 1} imposed results, got {len(seq)}"
                )
            object.__setattr__(self, "results", seq)

    def imposed_results(self) -> np.ndarray:
        """Outcomes imposed on measurements 1..N-1."""
        count = self.measurements - 1
        if isinstance(self.results, str):
            if self.results == "constant":
                return np.full(count, float(self.result_value))
            return float(self.result_value) * (-1.0) ** np.arange(count)
        return np.asarray(self.results[:count], dtype=float)


def qnd_commutator(basis, dt: float) -> float:
    """[x(t), x(t+dt)] magnitude (hbar/m omega) sin(omega dt); zero marks
    the back-action-free intervals."""
    return float(basis.hbar / (basis.mass * basis.omega) * np.sin(basis.omega * dt))


def _seeded_scan(state: EigenState, kind: str, error: float,
                 seed: float | None) -> OutcomeDistribution:
    """Engine C's outcome scan of `state`, normalized, on a window seeded with
    `seed`; with no seed it is `outcome_distribution`."""
    mean, var = position_moments(state)
    work = state.normalized()
    return _window_scan(lambda a: _scan_norms(work, kind, error, a), mean, var, error,
                        _SCAN_POINTS, seed)


@dataclass(frozen=True)
class ChainRecord:
    """Scan of the n-th measurement conditioned on the imposed history."""

    n: int
    delta_a_eff: float
    a_tilde: float
    norm_squared: float


def _chain_states(plan: StroboscopicPlan, state, advance, norm):
    """The plan's measure/impose/evolve sequence, for any engine's states.

    Yields (n, state entering measurement n, its norm(state)) for n = 1..N;
    between measurements n and n + 1, advance(state, a, n) imposes result a
    on measurement n and evolves the state freely over one interval.
    ChainUnderflowError when an imposition keeps less than `_MIN_SHARE` of
    the chain norm.
    """
    imposed = plan.imposed_results()
    norm_squared = norm(state)
    for n in range(1, plan.measurements + 1):
        yield n, state, norm_squared
        if n < plan.measurements:
            state = advance(state, float(imposed[n - 1]), n)
            before, norm_squared = norm_squared, norm(state)
            share = norm_squared / before
            if not share >= _MIN_SHARE:
                raise ChainUnderflowError(f"imposing measurement {n} kept {share:.3e} of the "
                                          f"chain norm, less than {_MIN_SHARE:.0e}")


def _scan_chain(plan: StroboscopicPlan, state, advance, scan, norm,
                scan_at: set[int] | None = None) -> list[ChainRecord]:
    """ChainRecords of the measurements in `scan_at` (all by default).

    scan(state, seed) gives the (delta_a_eff, a_tilde) of the measurement
    `state` enters, its window seeded with the previous scan's delta_a_eff
    (None at the first scan); norm(state) gives the record's norm_squared.
    """
    records, seed = [], None
    for n, s, norm_squared in _chain_states(plan, state, advance, norm):
        if scan_at is None or n in scan_at:
            delta_a_eff, a_tilde = scan(s, seed)
            records.append(ChainRecord(n, delta_a_eff, a_tilde, norm_squared))
            seed = delta_a_eff
    return records


def _filter(plan: StroboscopicPlan, basis, a: float) -> np.ndarray:
    return weight_matrix(basis, WeightSpec(plan.filter_kind, center=a, error=plan.error)).matrix


def _eigen_advance(plan: StroboscopicPlan, basis):
    """Engine C between measurements: the filter matrix at the imposed
    result, then the free phases of one interval."""
    phases = free_phase_factors(basis, plan.interval)

    def advance(state: EigenState, a: float, n: int) -> EigenState:
        return EigenState(basis, phases * (_filter(plan, basis, a) @ state.coefficients))

    return advance


def _norm_squared(state: EigenState) -> float:
    return float(np.vdot(state.coefficients, state.coefficients).real)


def _last_state(plan: StroboscopicPlan, state: EigenState) -> EigenState:
    """Normalized `state` with results 1..N-1 imposed: the unnormalized
    state entering the N-th measurement."""
    for _, last, _ in _chain_states(plan, state.normalized(), _eigen_advance(plan, state.basis),
                                    _norm_squared):
        pass
    return last


def uncertainty_evolution(plan: StroboscopicPlan, state: EigenState,
                          scan_at: set[int] | None = None) -> list[ChainRecord]:
    """Scan the measurements of the plan in sequence.

    The record for n holds the effective uncertainty and peak of the n-th
    outcome distribution given results 1..n-1 imposed, plus the squared norm
    of the unnormalized conditioned state entering the scan. `scan_at`
    restricts which measurements are scanned (all by default); each scan's
    window is seeded from the previous scan's uncertainty.
    """
    def scan(s: EigenState, seed):
        dist = _seeded_scan(s.normalized(), plan.filter_kind, plan.error, seed)
        return dist.delta_a_eff, dist.a_tilde

    return _scan_chain(plan, state.normalized(), _eigen_advance(plan, state.basis), scan,
                       _norm_squared, scan_at)


def apply_chain(plan: StroboscopicPlan, state: EigenState, final_a: float) -> EigenState:
    """Unnormalized state after the full plan with the last outcome final_a.

    Imposes results 1..N-1 with free evolution in between, then applies the
    N-th filter at final_a (no evolution afterwards).
    """
    last = _last_state(plan, state)
    return EigenState(state.basis, _filter(plan, state.basis, float(final_a)) @ last.coefficients)


def nth_outcome_distribution(plan: StroboscopicPlan, state: EigenState) -> OutcomeDistribution:
    """Outcome distribution of the final (N-th) measurement of the plan."""
    return _seeded_scan(_last_state(plan, state).normalized(), plan.filter_kind, plan.error, None)


@dataclass(frozen=True)
class AsymptoticResult(ChainRecord):
    """Record of measurement N, with the scan at N-2 as a stability check.

    `reference` is the delta_a_eff scanned at N-2 (NaN when N < 3).
    `stabilized` means the scans at N-2 and N differ by under 1%, not that
    the chain has converged: at dt = T/2 they read 1.0377 and 1.0327, yet the
    sequence still falls toward the instrumental error as n grows.
    """

    stabilized: bool
    reference: float


def asymptotic_uncertainty(plan: StroboscopicPlan, state: EigenState) -> AsymptoticResult:
    """Record of the last measurement, scanning only n = N-2 and n = N.

    Intermediate measurements are imposed without scanning, so a length-N
    chain costs two scans, and the scan at N-2 seeds the window of the scan
    at N. `stabilized` means the two scans differ by under 1% relative, not
    "converged"; same-parity steps are compared so period-two orbits of the
    width (possible at quarter-period intervals) still count as stabilized.
    """
    N = plan.measurements
    *head, last = uncertainty_evolution(plan, state, scan_at={N - 2, N})
    reference = head[0].delta_a_eff if head else float("nan")
    stabilized = bool(head and abs(last.delta_a_eff - reference) <= 0.01 * last.delta_a_eff)
    return AsymptoticResult(**vars(last), stabilized=stabilized, reference=reference)
