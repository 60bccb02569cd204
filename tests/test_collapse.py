import numpy as np
import pytest

from qmeasure import (
    EigenState,
    GridCoverageError,
    OscillatorBasis,
    OutcomeDistribution,
    WeightSpec,
    outcome_distribution,
    position_wavefunction,
    project_gaussian,
    weight_matrix,
)
from qmeasure.collapse import _scan_norms
from qmeasure.oscillator import _legendre_rule, domain_halfwidth, eigenfunction_matrix
from qmeasure.weights import quadrature_nodes

SQRT26 = 5.0990195135927845


def _direct_norms(state, kind, error, outcomes):
    """||W(a) c||^2 by per-outcome weight matrices."""
    return np.array([np.linalg.norm(weight_matrix(state.basis, WeightSpec(kind, float(a), error)).matrix
                                    @ state.coefficients) ** 2 for a in outcomes])


def test_scan_norms_match_matrix_path(basis, packet):
    """The windowed scan must reproduce per-outcome matrix applications."""
    outcomes = np.array([-2.0, 0.0, 1.3])
    for kind in ("gaussian", "step"):
        norms = _scan_norms(packet, kind, 1.0, outcomes)
        assert np.allclose(norms, _direct_norms(packet, kind, 1.0, outcomes), atol=1e-9)


def _random_state(basis, rng):
    c = rng.normal(size=basis.n_max) + 1j * rng.normal(size=basis.n_max)
    return EigenState(basis, c / np.linalg.norm(c))


# the Gaussian cases keep the bare error as their id
@pytest.mark.parametrize("kind, error", [pytest.param("gaussian", e, id=str(e)) for e in (0.05, 1.0, 3.0)]
                         + [pytest.param("step", e, id=f"step-{e}") for e in (0.05, 1.0, 3.0)])
def test_banded_scan_matches_matrix_path(basis, rng, kind, error):
    """Random states, with windows inside, across and wholly outside the
    domain edge, against per-outcome weight matrices."""
    limit, half = domain_halfwidth(basis), WeightSpec(kind, 0.0, error).window_halfwidth()
    outcomes = np.concatenate([
        rng.uniform(-limit, limit, 6),
        [limit - 0.5 * half, -limit + 0.25 * half, limit + 0.5 * half],
        [limit + 2.0 * half, -limit - 1.5 * half],
    ])
    for _ in range(2):
        state = _random_state(basis, rng)
        norms = _scan_norms(state, kind, error, outcomes)
        direct = _direct_norms(state, kind, error, outcomes)
        assert np.max(np.abs(norms - direct)) <= 1e-12 * np.max(direct)


@pytest.mark.parametrize("error", [0.1125, 3.0])
def test_step_scan_with_coinciding_edges(basis, rng, error):
    """The error is a multiple of half the outcome-grid step (0.075), so
    a_i + error and a_j - error meet up to rounding: panels of zero or
    near-zero length must neither yield NaN nor count a node twice."""
    state = _random_state(basis, rng)
    outcomes = np.linspace(-30.0, 30.0, 801)
    edges = np.unique(np.concatenate([outcomes - error, outcomes + error]))
    assert np.min(np.diff(edges)) < 1e-12
    norms = _scan_norms(state, "step", error, outcomes)
    assert np.all(np.isfinite(norms))
    rows = np.arange(0, outcomes.size, 20)
    direct = _direct_norms(state, "step", error, outcomes[rows])
    assert np.max(np.abs(norms[rows] - direct)) <= 1e-12 * np.max(direct)


@pytest.mark.parametrize("kind", ["gaussian", "step"])
def test_shuffled_outcomes_permute_rows(basis, rng, kind):
    state = _random_state(basis, rng)
    outcomes = np.linspace(-30.0, 30.0, 121)
    perm = rng.permutation(outcomes.size)
    norms = _scan_norms(state, kind, 0.7, outcomes)
    shuffled = _scan_norms(state, kind, 0.7, outcomes[perm])
    assert np.allclose(shuffled, norms[perm], rtol=0.0, atol=1e-14 * np.max(norms))


def test_rows_outside_domain_are_zero(basis, packet):
    limit = domain_halfwidth(basis)
    outside = np.array([-limit - 8.5, limit + 9.0, limit + 100.0])
    norms = _scan_norms(packet, "gaussian", 1.0, np.concatenate([outside, [0.0]]))
    assert np.all(norms[:3] == 0.0)
    assert norms[3] > 0.0
    for kind in ("gaussian", "step"):
        assert np.all(_scan_norms(packet, kind, 1.0, outside) == 0.0)


def _gaussian_norms_reference(state, error, outcomes):
    """The Gaussian scan as a plain loop: each live outcome's filter
    profile over every node of the shared panel grid, masked to its window,
    gives the coefficients of W(a) c and their squared norm."""
    half = 8.0 * error
    limit = domain_halfwidth(state.basis)
    lo = np.clip(outcomes - half, -limit, limit)
    hi = np.clip(outcomes + half, -limit, limit)
    live = np.flatnonzero(hi > lo)
    width = 2.0 * half
    start, stop = lo[live].min(), hi[live].max()
    left = start + width * np.arange(max(1, int(np.ceil((stop - start) / width))))
    right = np.minimum(left + width, stop)
    base_x, base_w = _legendre_rule(quadrature_nodes(width))
    x = (0.5 * (right - left)[:, None] * base_x + 0.5 * (right + left)[:, None]).ravel()
    w = (0.5 * (right - left)[:, None] * base_w).ravel()
    u = eigenfunction_matrix(state.basis, x)
    psi = state.coefficients @ u
    norms = np.zeros(outcomes.size)
    for i in live:
        f = np.exp(-((x - outcomes[i]) ** 2) / (2.0 * error**2))
        f[(x < lo[i]) | (x > hi[i])] = 0.0
        norms[i] = np.linalg.norm(u @ (w * f * psi)) ** 2
    return norms


# the blocked scan sums the same products in another order: float64
# round-off, relative to each squared norm, so that outcomes far out in the
# state's tails count as much as the peak's
SCAN_RTOL = 1e-13


@pytest.mark.parametrize("error", [0.3, 1.0])
def test_blocked_scan_matches_plain_loop(basis, rng, error):
    """Shuffled outcomes, windows across panel edges and past the domain
    edge, and outcomes wholly outside the domain."""
    state = _random_state(basis, rng)
    limit, width = domain_halfwidth(basis), 16.0 * error
    # the outcomes run past the domain, so the panels start at -limit
    edges = -limit + width * np.arange(1, 4)
    outcomes = np.concatenate([
        np.linspace(-limit - 2.0 * width, limit + 2.0 * width, 301),
        edges - 0.5 * width, edges + 0.1 * error, edges - 0.1 * error,
        rng.uniform(-limit, limit, 40),
    ])
    outcomes = outcomes[rng.permutation(outcomes.size)]
    norms = _scan_norms(state, "gaussian", error, outcomes)
    reference = _gaussian_norms_reference(state, error, outcomes)
    assert np.all(np.abs(norms - reference) <= SCAN_RTOL * reference)
    outside = (outcomes + 8.0 * error <= -limit) | (outcomes - 8.0 * error >= limit)
    assert outside.any() and np.all(norms[outside] == 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "step"])
def test_distribution_density_matches_amplitudes(basis, rng, kind):
    """The density is ||W(a) c||^2 over one normalizing constant, here taken
    at the densest of every 40th outcome."""
    state = _random_state(basis, rng)
    dist = outcome_distribution(state, 0.7, kind=kind)
    rows = np.arange(0, dist.outcomes.size, 40)
    direct = _direct_norms(state, kind, 0.7, dist.outcomes[rows])
    peak = np.argmax(direct)
    scaled = dist.density[rows] * (direct[peak] / dist.density[rows][peak])
    assert np.max(np.abs(scaled - direct)) <= 1e-12 * direct[peak]


def test_single_measurement_uncertainty(packet):
    """Scanning a width-5 packet with a unit filter gives sqrt(26)."""
    dist = outcome_distribution(packet, 1.0)
    assert dist.delta_a_eff == pytest.approx(SQRT26, abs=1e-3)
    assert dist.a_tilde == pytest.approx(0.0, abs=1e-6)
    assert dist.boundary_mass < 1e-6


def test_distribution_is_normalized(packet):
    dist = outcome_distribution(packet, 1.0)
    total = np.trapezoid(dist.density, dist.outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_narrow_filter_recovers_born_rule():
    """With error << packet width, P(a) converges to |psi(a)|^2.

    A near-delta filter weights P(a) by the basis projection kernel
    sum_n u_n(a)^2, so the basis must extend well past the packet for the
    kernel to be flat where the density lives.
    """
    basis = OscillatorBasis(0.5, 1.0, 160)
    packet, _ = project_gaussian(basis, 5.0)
    dist = outcome_distribution(packet, 0.01)
    rho = np.abs(position_wavefunction(packet, dist.outcomes)) ** 2
    rho /= np.trapezoid(rho, dist.outcomes)
    l1 = np.trapezoid(np.abs(dist.density - rho), dist.outcomes)
    assert l1 < 0.02


def test_step_scan_on_packet(packet):
    dist = outcome_distribution(packet, 1.0, kind="step")
    assert dist.a_tilde == pytest.approx(0.0, abs=1e-6)
    # step and gaussian filters of equal nominal error need not agree, but
    # both are dominated by the packet spread here
    assert dist.delta_a_eff == pytest.approx(SQRT26, rel=0.05)


def test_from_norms_gaussian_peak():
    a = np.linspace(-6.0, 8.0, 1401)
    norms = np.exp(-((a - 1.0) ** 2) / 2.0)
    dist = OutcomeDistribution.from_norms(a, norms)
    assert dist.a_tilde == pytest.approx(1.0, abs=1e-9)
    # delta_a_eff^2 = 2 var of the density
    assert dist.delta_a_eff == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_from_norms_off_grid_peak():
    a = np.linspace(-6.0, 8.0, 281)
    norms = np.exp(-((a - 1.017) ** 2) / 2.0)
    dist = OutcomeDistribution.from_norms(a, norms)
    assert dist.a_tilde == pytest.approx(1.017, abs=2e-3)


def test_near_tied_peaks_pick_the_first():
    """A symmetric bimodal density whose right peak exceeds the left by one
    ulp still reports the left peak."""
    a = np.linspace(-1.0, 1.0, 201)
    norms = np.exp(-((a - 0.5) ** 2) / 0.01) + np.exp(-((a + 0.5) ** 2) / 0.01)
    right = int(np.argmin(np.abs(a - 0.5)))
    left = int(np.argmin(np.abs(a + 0.5)))
    norms[right] = np.nextafter(norms[left], np.inf)
    dist = OutcomeDistribution.from_norms(a, norms)
    assert dist.a_tilde == pytest.approx(-0.5, abs=1e-6)


def test_from_norms_rejects_uncovered_density():
    a = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(GridCoverageError):
        OutcomeDistribution.from_norms(a, np.ones_like(a))


def test_excited_state_scan(basis):
    """P(a) for the first excited level is symmetric with a dip at 0."""
    coeffs = np.zeros(basis.n_max, dtype=complex)
    coeffs[1] = 1.0
    state = EigenState(basis, coeffs)
    dist = outcome_distribution(state, 0.2)
    mid = np.argmin(np.abs(dist.outcomes))
    peak = np.argmax(dist.density)
    assert dist.density[mid] < dist.density[peak]
    sym = dist.density[::-1]
    assert np.allclose(dist.density, sym, atol=1e-6 * dist.density.max())
