import json
import math

import numpy as np
import pytest
from scipy.special import eval_hermite, factorial

from qmeasure import (
    EigenState,
    OscillatorBasis,
    eigenfunction_matrix,
    free_phase_factors,
    gauss_legendre,
    position_moments,
    position_wavefunction,
    project_gaussian,
)
from qmeasure.cli import main
from qmeasure.oscillator import FAR_XI, _legendre_rule, _scaled_recurrence, domain_halfwidth

# ground state amplitude at the origin, (m omega / pi hbar)^(1/4) at the
# default units m=1/2, omega=1, hbar=1
U0_AT_ORIGIN = 0.6316187777460647

# fraction of a width-5 packet captured by a 20-level basis
CAPTURED_20 = 0.9876484069981

RULE_SIZES = [1, 2, 3, 64, 65, 304, 800, 1600]


def test_basis_validation():
    with pytest.raises(ValueError):
        OscillatorBasis(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        OscillatorBasis(0.5, -1.0, 8)
    with pytest.raises(ValueError):
        OscillatorBasis(0.5, 1.0, 0)


def test_basis_scales(basis):
    assert basis.period == pytest.approx(2.0 * np.pi)
    assert basis.length_scale == pytest.approx(np.sqrt(2.0))
    assert basis.turning_point(0) == pytest.approx(np.sqrt(2.0))
    assert basis.turning_point(4) == pytest.approx(3.0 * np.sqrt(2.0))


def test_ground_state_origin(basis):
    assert eigenfunction_matrix(basis, 0.0)[0] == pytest.approx(U0_AT_ORIGIN, abs=1e-12)


def test_eigenfunctions_match_hermite_form(basis, rng):
    """The recurrence must agree with the explicit normalized Hermite form."""
    x = rng.uniform(-6.0, 6.0, size=40)
    xi = x * np.sqrt(basis.mass * basis.omega / basis.hbar)
    u = eigenfunction_matrix(basis, x)
    for n in range(13):
        norm = (basis.mass * basis.omega / (np.pi * basis.hbar)) ** 0.25
        norm /= np.sqrt(2.0**n * factorial(n))
        expected = norm * eval_hermite(n, xi) * np.exp(-0.5 * xi**2)
        assert np.allclose(u[n], expected, rtol=1e-10, atol=1e-12)


def test_orthonormality(basis):
    L = domain_halfwidth(basis)
    x, w = gauss_legendre(-L, L, 800)
    u = eigenfunction_matrix(basis, x)
    gram = (u * w) @ u.T
    assert np.max(np.abs(gram - np.eye(basis.n_max))) < 1e-8


def test_orthonormality_beyond_the_underflow():
    """At 768 levels the top level turns at xi = 39.2 and the domain reaches
    45.2, past xi = 38.6 where u_0 = exp(-xi^2/2) reads 0: without a scale
    of its own, every level read 0 there, and u_767's norm 0.89."""
    basis = OscillatorBasis(0.5, 1.0, 768)
    L = domain_halfwidth(basis)
    x, w = gauss_legendre(-L, L, 2400)
    u = eigenfunction_matrix(basis, x)
    gram = (u * w) @ u.T
    assert np.max(np.abs(gram - np.eye(basis.n_max))) < 1e-12


def test_scaled_recurrence_matches_the_plain_one():
    """Where u_0 is still a normal float, the scaled recurrence gives the
    plain one's values, to 1e-12 of each point's largest level (splitting
    exp(-xi^2/2) at a power of two rounds its argument, of up to 685, anew)."""
    basis = OscillatorBasis(0.5, 1.0, 400)
    xi = np.linspace(20.0, FAR_XI, 41)
    norm = (basis.mass * basis.omega / (np.pi * basis.hbar)) ** 0.25
    plain = eigenfunction_matrix(basis, xi * basis.length_scale)
    scaled = _scaled_recurrence(norm, xi, basis.n_max)
    assert np.all(scaled != 0.0)
    assert np.max(np.abs(scaled - plain) / np.max(np.abs(plain), axis=0)) < 1e-12


def test_free_phases_full_period(basis):
    # after one period every level has advanced by exp(-2 pi i (n + 1/2)) = -1
    phases = free_phase_factors(basis, basis.period)
    assert np.allclose(phases, -1.0, atol=1e-12)


def test_free_phases_compose(basis):
    p1 = free_phase_factors(basis, 0.7)
    p2 = free_phase_factors(basis, 1.1)
    assert np.allclose(p1 * p2, free_phase_factors(basis, 1.8), atol=1e-12)


def _quadrature_projection(basis, width, center):
    """The packet's amplitudes from a Gauss-Legendre rule sized to the basis
    and the packet (0.8 nodes per unit of half-width times the top level's
    and the packet's wavenumbers, at least 800): the reference for
    project_gaussian's closed form."""
    L = max(domain_halfwidth(basis), abs(center) + 8.0 * width)
    k = np.sqrt(2.0 * basis.n_max + 1.0) / basis.length_scale + 8.0 / width
    x, w = gauss_legendre(-L, L, max(800, int(np.ceil(0.8 * L * k))))
    psi = (np.pi * width**2) ** -0.25 * np.exp(-((x - center) ** 2) / (2.0 * width**2))
    return (eigenfunction_matrix(basis, x) * w) @ psi


@pytest.mark.parametrize("levels", [20, 64, 512])
def test_projection_matches_quadrature(levels):
    basis = OscillatorBasis(0.5, 1.0, levels)
    for width in (0.3, 1.0, 5.0, 8.0):
        for center in (0.0, 2.5, 7.0):
            state, captured = project_gaussian(basis, width, center)
            coeff = state.coefficients * np.sqrt(captured)
            reference = _quadrature_projection(basis, width, center)
            assert np.max(np.abs(coeff - reference)) <= 1e-13
            assert abs(captured - np.sum(reference**2)) <= 1e-13


def test_ground_state_projection_is_exact(basis):
    # the ground state is the Gaussian of width sqrt(hbar / m omega)
    state, captured = project_gaussian(basis, np.sqrt(2.0))
    assert captured == 1.0
    assert np.array_equal(state.coefficients, np.eye(basis.n_max)[0])


@pytest.mark.parametrize("center", [1.5, -3.0, 6.0])
def test_coherent_state_amplitudes(basis, center):
    """A packet of the ground state's width is a coherent state:
    c_n = alpha^n exp(-alpha^2/2)/sqrt(n!), alpha = x0/(l sqrt(2))."""
    alpha = center / (basis.length_scale * np.sqrt(2.0))
    state, captured = project_gaussian(basis, basis.length_scale, center)
    expected = [math.copysign(1.0, alpha) ** n
                * math.exp(n * math.log(abs(alpha)) - alpha**2 / 2 - math.lgamma(n + 1) / 2)
                for n in range(basis.n_max)]
    assert np.max(np.abs(state.coefficients * np.sqrt(captured) - expected)) <= 1e-14


def test_projection_capture_fractions(basis):
    small = OscillatorBasis(basis.mass, basis.omega, 20, basis.hbar)
    _, captured = project_gaussian(small, 5.0)
    assert captured == pytest.approx(CAPTURED_20, abs=1e-9)
    _, captured64 = project_gaussian(basis, 5.0)
    assert captured64 > 0.999


def test_projected_wavefunction_pointwise(basis, packet):
    x = np.linspace(-8.0, 8.0, 17)
    target = (np.pi * 25.0) ** -0.25 * np.exp(-(x**2) / 50.0)
    values = position_wavefunction(packet, x)
    # truncating at 64 levels leaves ~6e-6 of the norm in the tail, which
    # shows up pointwise at the 1e-4 level
    assert np.allclose(values, target, rtol=0, atol=5e-4)


def test_position_moments(basis, packet, rng):
    mean, var = position_moments(packet)
    assert mean == pytest.approx(0.0, abs=1e-10)
    # |psi|^2 of a width-sigma packet has variance sigma^2 / 2; the
    # truncated tail carries x^2 weight, so only ~1e-4 relative holds
    assert var == pytest.approx(12.5, rel=5e-4)

    state, _ = project_gaussian(basis, 2.0, center=1.5)
    mean, var = position_moments(state)
    assert mean == pytest.approx(1.5, rel=1e-6)
    assert var == pytest.approx(2.0, rel=1e-5)


def test_moments_match_grid_integrals(basis, rng):
    for _ in range(5):
        c = rng.normal(size=16) + 1j * rng.normal(size=16)
        coeffs = np.zeros(basis.n_max, dtype=complex)
        coeffs[:16] = c / np.linalg.norm(c)
        state = EigenState(basis, coeffs)
        x = np.linspace(-20, 20, 4001)
        rho = np.abs(position_wavefunction(state, x)) ** 2
        mean = np.trapezoid(x * rho, x)
        var = np.trapezoid((x - mean) ** 2 * rho, x)
        m, v = position_moments(state)
        assert m == pytest.approx(mean, abs=1e-8)
        assert v == pytest.approx(var, rel=1e-7)


def test_projection_rejects_unresolvable_packet(basis, tmp_path, capsys):
    """64 levels hold 0.45% of a width-5e-4 packet; the run stops on the
    truncation guard and names the setting to raise."""
    _, captured = project_gaussian(basis, 5e-4)
    assert captured == pytest.approx(0.0044958970581, abs=1e-13)
    config = tmp_path / "narrow.json"
    config.write_text(json.dumps({"state": {"width": 5e-4}}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "raise numerics.levels" in capsys.readouterr().err
    # amplitudes that are not finite are refused, not renormalized
    with pytest.raises(ArithmeticError):
        project_gaussian(basis, 1e200)


@pytest.mark.parametrize("levels", [512, 1000])
def test_projection_rule_grows_with_the_basis(levels):
    """A width-0.3 packet on 512 and 1,000 levels is captured whole."""
    state, captured = project_gaussian(OscillatorBasis(0.5, 1.0, levels), 0.3)
    assert captured > 0.999
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("width, center, expected", [
    (0.3, 55.0, 0.999999999965),
    # c_0 = 4.5e-390 here, below the smallest float
    (0.1, 60.0, 0.839850093114),
])
def test_projection_of_far_packets(width, center, expected):
    _, captured = project_gaussian(OscillatorBasis(0.5, 1.0, 1000), width, center)
    assert captured == pytest.approx(expected, abs=1e-9)


def test_eigenstate_normalization(basis, rng):
    coeffs = rng.normal(size=basis.n_max) + 1j * rng.normal(size=basis.n_max)
    state = EigenState(basis, coeffs)
    assert state.normalized().norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", RULE_SIZES)
def test_legendre_rule_nodes(n):
    x, w = _legendre_rule(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    if n <= 800:
        # the eigenvalue rule, to within two ulps of 1
        reference, _ = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - reference)) <= 4e-16


@pytest.mark.parametrize("n", RULE_SIZES)
def test_legendre_rule_integrates_even_powers(n):
    """An n-point rule integrates x^(2k) exactly for 2k < 2n."""
    x, w = _legendre_rule(n)
    assert abs(np.sum(w) - 2.0) <= 1e-14
    # x^(2k) carries 2k times the nodes' rounding, up to 3.5e-13 at n = 1600
    x2 = x * x
    error = max(abs(np.sum(w * x2**k) * (2 * k + 1) / 2.0 - 1.0) for k in range(n))
    assert error <= 1e-12
