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
    dist = OutcomeDistribution.from_norms(a, norms, "gaussian", 1.0)
    assert dist.a_tilde == pytest.approx(1.0, abs=1e-9)
    # delta_a_eff^2 = 2 var of the density
    assert dist.delta_a_eff == pytest.approx(np.sqrt(2.0), rel=1e-6)


def test_from_norms_off_grid_peak():
    a = np.linspace(-6.0, 8.0, 281)
    norms = np.exp(-((a - 1.017) ** 2) / 2.0)
    dist = OutcomeDistribution.from_norms(a, norms, "gaussian", 1.0)
    assert dist.a_tilde == pytest.approx(1.017, abs=2e-3)


def test_from_norms_rejects_uncovered_density():
    a = np.linspace(-1.0, 1.0, 101)
    with pytest.raises(GridCoverageError):
        OutcomeDistribution.from_norms(a, np.ones_like(a), "gaussian", 1.0)


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
