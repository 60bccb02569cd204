import numpy as np
import pytest

from qmeasure import (
    EigenState,
    GridCoverageError,
    OscillatorBasis,
    OutcomeDistribution,
    WeightSpec,
    apply_impulsive,
    outcome_amplitudes,
    outcome_distribution,
    position_wavefunction,
    project_gaussian,
    weight_matrix,
)
from qmeasure.oscillator import domain_halfwidth, eigenfunction_matrix
from qmeasure.weights import quadrature_nodes

SQRT26 = 5.0990195135927845


def test_apply_impulsive_matches_matrix(basis, packet):
    spec = WeightSpec("gaussian", center=0.7)
    collapsed = apply_impulsive(packet, spec)
    direct = weight_matrix(basis, spec).matrix @ packet.coefficients
    assert np.allclose(collapsed.coefficients, direct, atol=1e-12)
    # filtering can only remove probability
    assert collapsed.norm() < packet.norm()


def test_outcome_amplitudes_match_matrix_path(basis, packet):
    """The windowed scan must reproduce per-outcome matrix applications."""
    outcomes = np.array([-2.0, 0.0, 1.3])
    for kind in ("gaussian", "step"):
        amps = outcome_amplitudes(packet, kind, 1.0, outcomes)
        for i, a in enumerate(outcomes):
            w = weight_matrix(basis, WeightSpec(kind, center=float(a))).matrix
            assert np.allclose(amps[i], w @ packet.coefficients, atol=1e-9)


def _random_state(basis, rng):
    c = rng.normal(size=basis.n_max) + 1j * rng.normal(size=basis.n_max)
    return EigenState(basis, c / np.linalg.norm(c))


@pytest.mark.parametrize("error", [0.05, 1.0, 3.0])
def test_banded_scan_matches_matrix_path(basis, rng, error):
    """Random states, with windows inside, across and wholly outside the
    domain edge, against per-outcome weight matrices."""
    limit, half = domain_halfwidth(basis), 8.0 * error
    outcomes = np.concatenate([
        rng.uniform(-limit, limit, 6),
        [limit - 0.5 * half, -limit + 0.25 * half, limit + 0.5 * half],
        [limit + 2.0 * half, -limit - 1.5 * half],
    ])
    for _ in range(2):
        state = _random_state(basis, rng)
        amps = outcome_amplitudes(state, "gaussian", error, outcomes)
        direct = np.array([weight_matrix(basis, WeightSpec("gaussian", float(a), error)).matrix
                           @ state.coefficients for a in outcomes])
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(amps - direct)) <= 1e-12 * scale


def test_shuffled_outcomes_permute_rows(basis, rng):
    state = _random_state(basis, rng)
    outcomes = np.linspace(-30.0, 30.0, 121)
    perm = rng.permutation(outcomes.size)
    amps = outcome_amplitudes(state, "gaussian", 0.7, outcomes)
    shuffled = outcome_amplitudes(state, "gaussian", 0.7, outcomes[perm])
    assert np.allclose(shuffled, amps[perm], rtol=0.0, atol=1e-14 * np.max(np.abs(amps)))


def test_rows_outside_domain_are_zero(basis, packet):
    limit = domain_halfwidth(basis)
    outside = np.array([-limit - 8.5, limit + 9.0, limit + 100.0])
    amps = outcome_amplitudes(packet, "gaussian", 1.0, np.concatenate([outside, [0.0]]))
    assert np.all(amps[:3] == 0.0)
    assert np.any(amps[3] != 0.0)
    for kind in ("gaussian", "step"):
        assert np.all(outcome_amplitudes(packet, kind, 1.0, outside) == 0.0)


def _step_amplitudes_reference(state, error, outcomes):
    """The per-outcome window rule the step filter keeps."""
    half = error
    limit = domain_halfwidth(state.basis)
    base_x, base_w = np.polynomial.legendre.leggauss(quadrature_nodes(2.0 * half))
    lo = np.clip(outcomes - half, -limit, limit)
    hi = np.clip(outcomes + half, -limit, limit)
    span = hi - lo
    xs = 0.5 * span[:, None] * base_x[None, :] + 0.5 * (hi + lo)[:, None]
    ws = 0.5 * span[:, None] * base_w[None, :]
    u = eigenfunction_matrix(state.basis, xs)
    psi = np.einsum("l,lak->ak", state.coefficients, u)
    amps = np.einsum("lak,ak->al", u, ws * np.ones_like(xs) * psi)
    amps[~(span > 0)] = 0.0
    return amps


def test_step_amplitudes_unchanged(basis, rng):
    state = _random_state(basis, rng)
    outcomes = np.linspace(-30.0, 30.0, 81)
    for error in (0.3, 1.0):
        got = outcome_amplitudes(state, "step", error, outcomes)
        assert np.array_equal(got, _step_amplitudes_reference(state, error, outcomes))


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


def test_scan_respects_explicit_window(packet):
    dist = outcome_distribution(packet, 1.0, points=601, halfwidth=40.0, center=0.0)
    assert dist.outcomes[0] == pytest.approx(-40.0)
    assert dist.outcomes[-1] == pytest.approx(40.0)
    assert dist.delta_a_eff == pytest.approx(SQRT26, abs=2e-3)


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
