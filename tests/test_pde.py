import numpy as np
import pytest
from scipy.linalg import solve, solve_banded

from qmeasure import (
    BoundaryLeakError,
    GaussianPacket,
    Lattice,
    StepFilterUnsupportedError,
    StroboscopicPlan,
    apply_hamiltonian,
    crank_nicolson_evolve,
    effective_hamiltonian,
    evolve_measured,
    measurement_coupling,
    run_stroboscopic,
    sample_gaussian,
)
from qmeasure.pde import TridiagonalOperator

MASS = 0.5
OMEGA = 1.0
T = 2.0 * np.pi
SQRT26 = 5.0990195135927845

COARSE = Lattice(-60.0, 60.0, 2401)


def test_lattice_properties():
    lat = Lattice(-10.0, 10.0, 201)
    assert lat.dx == pytest.approx(0.1)
    assert lat.x[0] == -10.0 and lat.x[-1] == 10.0
    with pytest.raises(ValueError):
        Lattice(5.0, -5.0, 100)


def test_sample_gaussian_moments():
    wavefn = sample_gaussian(COARSE, 3.0, center=1.0)
    assert wavefn.norm_squared() == pytest.approx(1.0, abs=1e-12)
    mean, var = wavefn.moments()
    assert mean == pytest.approx(1.0, abs=1e-9)
    assert var == pytest.approx(4.5, rel=1e-6)


def _dense(op):
    n = op.diagonal.size
    return np.diag(op.diagonal) + op.off_diagonal * (np.eye(n, k=1) + np.eye(n, k=-1))


def test_apply_hamiltonian_matches_dense():
    rng = np.random.default_rng(7)
    lat = Lattice(-5.0, 5.0, 64)
    op = effective_hamiltonian(lat, MASS, OMEGA, gate_center=0.3, gate_coupling=2.0)
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    assert np.allclose(apply_hamiltonian(op, v), _dense(op) @ v, atol=1e-12)


def test_hamiltonian_on_ground_state():
    """H psi0 = (hbar omega / 2) psi0 away from the walls."""
    wavefn = sample_gaussian(COARSE, np.sqrt(2.0))
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    hpsi = apply_hamiltonian(op, wavefn.values)
    sel = np.abs(COARSE.x) < 4.0
    ratio = hpsi[sel] / wavefn.values[sel]
    assert np.allclose(ratio.real, 0.5, atol=5e-3)
    assert np.max(np.abs(ratio.imag)) < 1e-12


def test_norm_conservation_1000_steps():
    """Crank-Nicolson keeps the norm to roundoff without a gate."""
    wavefn = sample_gaussian(COARSE, 2.0, center=1.5)
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    values = crank_nicolson_evolve(op, wavefn.values, 0.005, 1000)
    drift = abs(np.trapezoid(np.abs(values) ** 2, dx=COARSE.dx) - 1.0)
    assert drift < 1e-10


def test_evolution_does_not_mutate_input():
    wavefn = sample_gaussian(COARSE, 2.0)
    before = wavefn.values.copy()
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    crank_nicolson_evolve(op, wavefn.values, 0.01, 5)
    assert np.array_equal(wavefn.values, before)


def _banded_reference(op, values, dt, steps, hbar=1.0):
    """Crank-Nicolson as an explicit right-hand side plus a banded solve per step."""
    z = 1j * dt / (2.0 * hbar)
    ab = np.zeros((3, values.size), dtype=complex)
    ab[0, 1:] = z * op.off_diagonal
    ab[1, :] = 1.0 + z * op.diagonal
    ab[2, :-1] = z * op.off_diagonal
    psi = values
    for _ in range(steps):
        explicit = ab[1] * psi
        explicit[:-1] += ab[0, 1:] * psi[1:]
        explicit[1:] += ab[2, :-1] * psi[:-1]
        psi = solve_banded((1, 1), ab, 2.0 * psi - explicit)
    return psi


def test_gated_steps_match_dense_iteration():
    """With the non-Hermitian gate on, each step is solve(1 + zH, (1 - zH) psi)."""
    rng = np.random.default_rng(11)
    lat = Lattice(-5.0, 5.0, 64)
    op = effective_hamiltonian(lat, MASS, OMEGA, gate_center=0.3, gate_coupling=2.0)
    dense = _dense(op)
    dt, steps = 0.01, 7
    z = 1j * dt / 2.0
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    expected = psi
    for _ in range(steps):
        expected = solve(np.eye(64) + z * dense, (np.eye(64) - z * dense) @ expected)
    values = crank_nicolson_evolve(op, psi, dt, steps)
    assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_gate_matches_banded_formulation():
    """A 200-step gate on the default lattice agrees with the per-step banded solve."""
    lat = Lattice()
    tau = 1e-5 * T
    wavefn = sample_gaussian(lat, 5.0)
    op = effective_hamiltonian(lat, MASS, OMEGA, gate_center=0.8,
                               gate_coupling=measurement_coupling(1.0, tau))
    expected = _banded_reference(op, wavefn.values, tau / 200, 200)
    values = crank_nicolson_evolve(op, wavefn.values, tau / 200, 200)
    assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_singular_step_matrix_raises():
    """A zero pivot in 1 + zH is reported, not divided through."""
    dt = 0.01
    diagonal = np.ones(16, dtype=complex)
    diagonal[5] = 2j / dt
    op = TridiagonalOperator(diagonal, 0j)
    with pytest.raises(np.linalg.LinAlgError):
        crank_nicolson_evolve(op, np.ones(16, dtype=complex), dt, 3)


def test_ground_state_phase():
    """The stationary state only accumulates exp(-i E0 t)."""
    wavefn = sample_gaussian(COARSE, np.sqrt(2.0))
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    t = 1.5
    values = crank_nicolson_evolve(op, wavefn.values, 0.0015, 1000)
    overlap = np.trapezoid(np.conj(wavefn.values) * values, dx=COARSE.dx)
    assert overlap * np.exp(1j * 0.5 * t) == pytest.approx(1.0, abs=2e-4)


def test_free_particle_spreading():
    """omega = 0: width^2 grows as sigma0^2 (1 + (hbar t / m sigma0^2)^2)."""
    wavefn = sample_gaussian(COARSE, 1.0)
    op = effective_hamiltonian(COARSE, MASS, 0.0)
    t = 1.0
    values = crank_nicolson_evolve(op, wavefn.values, 0.001, 1000)
    rho = np.abs(values) ** 2
    var = np.trapezoid(COARSE.x**2 * rho, dx=COARSE.dx)
    sigma_sq = 1.0 * (1.0 + (t / (MASS * 1.0)) ** 2)
    # the three-point stencil underestimates high-k group velocity by
    # ~(k dx)^2/6, a dx^2/(2 sigma0^2) ~ 1e-3 deficit on the t^2 term
    assert 2.0 * var == pytest.approx(sigma_sq, rel=2e-3)


def test_oscillator_width_breathing():
    wavefn = sample_gaussian(COARSE, 4.0)
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    t = T / 4.0
    values = crank_nicolson_evolve(op, wavefn.values, t / 2000, 2000)
    rho = np.abs(values) ** 2
    var = np.trapezoid(COARSE.x**2 * rho, dx=COARSE.dx)
    # a quarter period turns width 4 into lx^2/4 = 1/2
    assert np.sqrt(2.0 * var) == pytest.approx(0.5, rel=2e-3)


def test_gate_is_impulsive_filter():
    """A tau << tau_c gate multiplies the packet by the gaussian weight."""
    tau = 1e-5 * T
    plan_err, a = 1.0, 0.8
    packet = GaussianPacket.from_width(5.0)
    exact = evolve_measured(packet, tau, plan_err, MASS, OMEGA, center=a)

    lat = Lattice(-60.0, 60.0, 4801)
    wavefn = sample_gaussian(lat, 5.0)
    op = effective_hamiltonian(lat, MASS, OMEGA, gate_center=a,
                               gate_coupling=measurement_coupling(plan_err, tau))
    values = crank_nicolson_evolve(op, wavefn.values, tau / 200, 200)
    rho = np.abs(values) ** 2
    total = np.trapezoid(rho, dx=lat.dx)
    mean = np.trapezoid(lat.x * rho, dx=lat.dx) / total
    assert total == pytest.approx(exact.norm_squared, rel=1e-6)
    assert mean == pytest.approx(exact.center, abs=1e-6)


def test_single_measurement_uncertainty():
    plan = StroboscopicPlan(T / 2.0, 1)
    recs = run_stroboscopic(COARSE, plan, 5.0, 1e-5 * T, MASS, OMEGA,
                            time_step=0.005)
    assert len(recs) == 1
    assert recs[0].delta_a_eff == pytest.approx(SQRT26, abs=1e-2)
    assert recs[0].a_tilde == pytest.approx(0.0, abs=1e-6)


def test_scan_subset():
    plan = StroboscopicPlan(T / 2.0, 3)
    recs = run_stroboscopic(COARSE, plan, 5.0, 1e-5 * T, MASS, OMEGA,
                            time_step=0.005, outcome_points=65, scan_at={1, 3})
    assert [r.n for r in recs] == [1, 3]
    assert recs[1].norm_squared < recs[0].norm_squared


def test_step_filter_rejected():
    plan = StroboscopicPlan(T / 2.0, 2, filter_kind="step")
    with pytest.raises(StepFilterUnsupportedError):
        run_stroboscopic(COARSE, plan, 5.0, 1e-5 * T, MASS, OMEGA)


def test_boundary_leak_detected():
    # a width-5 packet on a +-12 lattice already puts > 1e-8 on the walls
    small = Lattice(-12.0, 12.0, 481)
    plan = StroboscopicPlan(T / 2.0, 2)
    with pytest.raises(BoundaryLeakError):
        run_stroboscopic(small, plan, 5.0, 1e-5 * T, MASS, OMEGA,
                         time_step=0.005)
