import numpy as np
import pytest

from qmeasure import (
    GaussianPacket,
    Lattice,
    effective_hamiltonian,
    evolve_free,
    evolve_measured,
    impulsive_uncertainty,
    sample_gaussian,
    stroboscopic_widths,
)
from qmeasure.pde import _gate

MASS = 0.5
OMEGA = 1.0
T = 2.0 * np.pi
LX2 = 2.0  # hbar / (m omega)


def test_from_width_roundtrip():
    p = GaussianPacket.from_width(3.0, center=-1.2, momentum=0.4)
    assert p.width == pytest.approx(3.0)
    assert p.center == pytest.approx(-1.2)
    assert p.norm_squared == pytest.approx(1.0, abs=1e-12)


def test_curvature_must_be_physical():
    with pytest.raises(ValueError):
        GaussianPacket(-0.1 + 0.3j)


def test_full_period_revival():
    p = GaussianPacket.from_width(2.5, center=0.8)
    q = evolve_free(p, T, MASS, OMEGA)
    assert abs(q.curvature - p.curvature) < 1e-10
    assert abs(q.linear - p.linear) < 1e-10
    assert abs(q.log_scale - p.log_scale) < 1e-10


def test_half_period_mirror():
    p = GaussianPacket.from_width(1.7, center=0.9)
    q = evolve_free(p, T / 2.0, MASS, OMEGA)
    assert q.center == pytest.approx(-0.9, abs=1e-10)
    assert q.width == pytest.approx(1.7, abs=1e-10)
    assert q.norm_squared == pytest.approx(1.0, abs=1e-10)


def test_many_period_revival_snaps():
    p = GaussianPacket.from_width(0.6)
    q = evolve_free(p, 7.0 * T + 1e-13, MASS, OMEGA)
    assert abs(q.curvature - p.curvature) < 1e-9


def test_breathing_width_law(rng):
    """sigma(t)^2 = sigma0^2 cos^2(wt) + (lx^2/sigma0)^2 sin^2(wt)."""
    sigma0 = 4.0
    p = GaussianPacket.from_width(sigma0)
    for t in rng.uniform(0.05, T, size=8):
        q = evolve_free(p, float(t), MASS, OMEGA)
        expected = np.sqrt(sigma0**2 * np.cos(t) ** 2 + (LX2 / sigma0) ** 2 * np.sin(t) ** 2)
        assert q.width == pytest.approx(expected, rel=1e-10)
        assert q.norm_squared == pytest.approx(1.0, abs=1e-10)


def test_center_rotates(rng):
    p = GaussianPacket.from_width(np.sqrt(LX2), center=2.0)
    for t in rng.uniform(0.05, T, size=6):
        q = evolve_free(p, float(t), MASS, OMEGA)
        assert q.center == pytest.approx(2.0 * np.cos(t), abs=1e-10)


def test_impulsive_gate_limits():
    """A very short gate multiplies by the filter: width and norm follow the
    static collapse formulas."""
    sigma, err = 5.0, 1.0
    p = GaussianPacket.from_width(sigma)
    tau = 1e-8
    q = evolve_measured(p, tau, err, MASS, OMEGA)
    # collapse rule 1/width'^2 = 1/width^2 + 1/err^2
    assert q.width == pytest.approx(sigma / np.sqrt(1.0 + sigma**2), rel=1e-6)
    # norm^2 -> integral of w^2 |psi|^2 = (1 + sigma^2/err^2)^(-1/2)
    assert q.norm_squared == pytest.approx((1.0 + sigma**2) ** -0.5, rel=1e-6)


def test_off_center_impulsive_gate():
    sigma, err, a = 2.0, 0.5, 1.1
    p = GaussianPacket.from_width(sigma)
    q = evolve_measured(p, 1e-8, err, MASS, OMEGA, center=a)
    assert q.width == pytest.approx((1.0 / sigma**2 + 1.0 / err**2) ** -0.5, rel=1e-6)
    # the collapse pulls the center toward the outcome
    assert q.center == pytest.approx(a / (1.0 + (err / sigma) ** 2), rel=1e-6)
    expected_norm = (1.0 + (sigma / err) ** 2) ** -0.5 * np.exp(-(a**2) / (sigma**2 + err**2))
    assert q.norm_squared == pytest.approx(expected_norm, rel=1e-5)


def test_measured_segment_against_grid():
    """A moderate gate cross-checked against the lattice engine's gate."""
    lat = Lattice(-40.0, 40.0, 4001)
    duration, err, a = 0.05, 1.0, 0.7
    grid = sample_gaussian(lat, 2.0)
    # 80 Strang substeps: none longer than the 0.000625 gate-substep bound
    values = _gate(grid, effective_hamiltonian(lat, MASS, OMEGA), err, duration, 80, 1.0)(a)
    p = evolve_measured(GaussianPacket.from_width(2.0), duration, err, MASS, OMEGA, center=a)

    rho = np.abs(values) ** 2
    total = np.trapezoid(rho, lat.x)
    mean = np.trapezoid(lat.x * rho, lat.x) / total
    var = np.trapezoid((lat.x - mean) ** 2 * rho, lat.x) / total
    assert total == pytest.approx(p.norm_squared, rel=1e-5)
    assert mean == pytest.approx(p.center, abs=1e-6)
    assert np.sqrt(2.0 * var) == pytest.approx(p.width, rel=1e-5)


def test_impulsive_uncertainty_value():
    assert impulsive_uncertainty(5.0, 1.0) == pytest.approx(np.sqrt(26.0))


def _width_recursion(s0: float, n: int, quarter: bool) -> float:
    """Impulsive-limit variance recursion: collapse s -> s/(1+s); a half
    period keeps s, a quarter period maps s -> 4/s (lx^2 = 2)."""
    s = s0
    for _ in range(n - 1):
        s = s / (1.0 + s)
        if quarter:
            s = 4.0 / s
    return np.sqrt(1.0 + s)


def test_half_period_chain_matches_recursion():
    recs = stroboscopic_widths(5.0, T / 2.0, 16, 1.0, 1e-5 * T, MASS, OMEGA)
    assert recs[0].delta_a_eff == pytest.approx(np.sqrt(26.0), abs=1e-12)
    for n in (2, 4, 8, 16):
        assert recs[n - 1].delta_a_eff == pytest.approx(
            _width_recursion(25.0, n, quarter=False), rel=2e-4)


def test_quarter_period_chain_matches_recursion():
    recs = stroboscopic_widths(5.0, T / 4.0, 16, 1.0, 1e-5 * T, MASS, OMEGA)
    for n in (2, 3, 8, 16):
        assert recs[n - 1].delta_a_eff == pytest.approx(
            _width_recursion(25.0, n, quarter=True), rel=2e-4)
    # the quarter-period chain settles on the fixed point 1 + sqrt(2)
    assert recs[15].delta_a_eff == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-4)


def test_chain_records_shape():
    recs = stroboscopic_widths(5.0, T / 2.0, 6, 1.0, 1e-5 * T, MASS, OMEGA)
    assert [r.n for r in recs] == [1, 2, 3, 4, 5, 6]
    norms = [r.norm_squared for r in recs]
    assert norms[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_imposed_result_policies():
    const = stroboscopic_widths(5.0, T / 2.0, 5, 1.0, 1e-5 * T, MASS, OMEGA,
                                results="constant", result_value=0.0)
    explicit = stroboscopic_widths(5.0, T / 2.0, 5, 1.0, 1e-5 * T, MASS, OMEGA,
                                   results=[0.0, 0.0, 0.0, 0.0])
    for a, b in zip(const, explicit):
        assert a.delta_a_eff == pytest.approx(b.delta_a_eff, rel=1e-12)
    shifted = stroboscopic_widths(5.0, T / 2.0, 5, 1.0, 1e-5 * T, MASS, OMEGA,
                                  results=[1.0, 0.0, 0.0, 0.0])
    assert shifted[1].a_tilde != pytest.approx(const[1].a_tilde, abs=1e-6)
    with pytest.raises(ValueError):
        stroboscopic_widths(5.0, T / 2.0, 5, 1.0, 1e-5 * T, MASS, OMEGA, results="sway")
    with pytest.raises(ValueError):
        stroboscopic_widths(5.0, T / 2.0, 5, 1.0, 1e-5 * T, MASS, OMEGA, results=[0.0])
    # center, results and result_value are keyword-only
    with pytest.raises(TypeError):
        stroboscopic_widths(5.0, T / 2.0, 5, 1.0, 1e-5 * T, MASS, OMEGA, 1.0, 0.0)
