from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm, solve, solve_banded

from qmeasure import (
    BoundaryLeakError,
    GaussianPacket,
    GridWavefunction,
    Lattice,
    StepFilterUnsupportedError,
    StroboscopicPlan,
    crank_nicolson_evolve,
    effective_hamiltonian,
    evolve_measured,
    measurement_coupling,
    run_stroboscopic,
    sample_gaussian,
    stroboscopic_widths,
)
from qmeasure import pde
from qmeasure.pde import PADE, TIME_STEP, TridiagonalOperator, _gate, _scan

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


def _absorbing(lat, center, coupling):
    """The Hamiltonian plus the absorptive well W = -i kappa (x - center)^2 (hbar = 1),
    added to the pencil as M += B W: complex diagonals for the Crank-Nicolson kernel."""
    op = effective_hamiltonian(lat, MASS, OMEGA)
    well = -1j * coupling * (lat.x - center) ** 2
    return TridiagonalOperator(op.lower + well[:-1] / 12.0, op.diagonal + well * (10.0 / 12.0),
                               op.upper + well[1:] / 12.0)


def _dense(op):
    """M as a dense matrix."""
    return np.diag(op.diagonal) + np.diag(op.upper, 1) + np.diag(op.lower, -1)


def _mass(n):
    """B = tridiag(1, 10, 1)/12 as a dense matrix."""
    return (10.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 12.0


def test_spectrum_is_fourth_order():
    """The lowest 40 levels on a dx = 0.05 lattice sit within 1e-3 of
    (n + 1/2) hbar omega. The compact stencil's error grows as (k dx)^4/240
    and reaches 5.0e-4 at n = 39; the three-point stencil's, (k dx)^2/12,
    reaches 0.122 there."""
    lat = Lattice(-20.0, 20.0, 801)
    op = effective_hamiltonian(lat, MASS, OMEGA)
    levels = np.linalg.eigvalsh(solve(_mass(lat.points), _dense(op)))[:40]
    assert np.max(np.abs(levels - (np.arange(40) + 0.5))) < 1e-3


def test_hamiltonian_on_ground_state():
    """H psi0 = (hbar omega / 2) psi0 away from the walls."""
    wavefn = sample_gaussian(COARSE, np.sqrt(2.0))
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    # H psi = B^-1 (M psi), with M psi formed from M's three diagonals
    psi = wavefn.values
    mpsi = op.diagonal * psi
    mpsi[:-1] += op.upper * psi[1:]
    mpsi[1:] += op.lower * psi[:-1]
    mass = np.array([np.ones(psi.size), np.full(psi.size, 10.0), np.ones(psi.size)]) / 12.0
    hpsi = solve_banded((1, 1), mass, mpsi)
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
    """Crank-Nicolson as an explicit right-hand side (B - zM) psi plus a banded
    solve by B + zM per step."""
    z = 1j * dt / (2.0 * hbar)
    n = values.size
    mass = np.zeros((3, n), dtype=complex)
    mass[0, 1:], mass[1, :], mass[2, :-1] = 1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0
    pencil = np.zeros((3, n), dtype=complex)
    pencil[0, 1:], pencil[1, :], pencil[2, :-1] = op.upper, op.diagonal, op.lower
    psi = values
    for _ in range(steps):
        explicit = (mass[1] - z * pencil[1]) * psi
        explicit[:-1] += (mass[0, 1:] - z * pencil[0, 1:]) * psi[1:]
        explicit[1:] += (mass[2, :-1] - z * pencil[2, :-1]) * psi[:-1]
        psi = solve_banded((1, 1), mass + z * pencil, explicit)
    return psi


def test_gated_steps_match_dense_iteration():
    """With the non-Hermitian gate on, each step is solve(B + zM, (B - zM) psi)."""
    rng = np.random.default_rng(11)
    lat = Lattice(-5.0, 5.0, 64)
    op = _absorbing(lat, 0.3, 2.0)
    dense, mass = _dense(op), _mass(64)
    dt, steps = 0.01, 7
    z = 1j * dt / 2.0
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    expected = psi
    for _ in range(steps):
        expected = solve(mass + z * dense, (mass - z * dense) @ expected)
    values = crank_nicolson_evolve(op, psi, dt, steps)
    assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_gate_matches_banded_formulation():
    """A 200-step gate on the default lattice agrees with the per-step banded solve."""
    lat = Lattice()
    tau = 1e-5 * T
    wavefn = sample_gaussian(lat, 5.0)
    op = _absorbing(lat, 0.8, measurement_coupling(1.0, tau))
    expected = _banded_reference(op, wavefn.values, tau / 200, 200)
    values = crank_nicolson_evolve(op, wavefn.values, tau / 200, 200)
    assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(expected))


def _pade_denominator(dense_w):
    """q(W) for the diagonal Pade (4,4) approximant exp(W) ~ q(W)^-1 q(-W), with
    q_j = (8 - j)! 4! / (8! j! (4 - j)!) (-1)^j."""
    power, total = np.eye(len(dense_w)), np.zeros_like(dense_w)
    for j in range(5):
        total = total + (-1) ** j * factorial(8 - j) * factorial(4) / (
            factorial(8) * factorial(j) * factorial(4 - j)) * power
        power = power @ dense_w
    return total


def test_pade_steps_match_dense_product():
    """A Pade step is the (4,4) rational function q(W)^-1 q(-W) of
    W = -iH dt, H = B^-1 M, here with the non-Hermitian gate on."""
    rng = np.random.default_rng(13)
    lat = Lattice(-5.0, 5.0, 64)
    op = _absorbing(lat, 0.3, 2.0)
    dt, steps = 0.01, 7
    w = -1j * dt * solve(_mass(64), _dense(op))
    step = solve(_pade_denominator(w), _pade_denominator(-w))
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    expected = np.linalg.matrix_power(step, steps) @ psi
    values = crank_nicolson_evolve(op, psi, dt, steps, substeps=PADE)
    assert np.max(np.abs(values - expected)) < 1e-12 * np.max(np.abs(expected))


def test_pade_fractions_are_conjugate_pairs_summing_to_one():
    """The substep lengths add up to the step, and each numerator has the
    exact conjugate of its partner's denominator."""
    assert sum(PADE) == pytest.approx(1.0, abs=1e-15)
    assert len(set(PADE)) == 4 and set(PADE) == {f.conjugate() for f in PADE}


def test_pade_step_is_eighth_order():
    """Against exact propagation on the same lattice, exp(-iHt) with
    H = B^-1 M, the Pade error after t = 1 falls about 256-fold each time dt
    halves (232 and 250 from 8 to 16 to 32 steps)."""
    lat = Lattice(-10.0, 10.0, 201)
    op = effective_hamiltonian(lat, MASS, OMEGA)
    psi = sample_gaussian(lat, 1.0, center=1.0).values
    exact = expm(-1j * solve(_mass(lat.points), _dense(op))) @ psi
    errors = [np.linalg.norm(crank_nicolson_evolve(op, psi, 1.0 / steps, steps,
                                                   substeps=PADE) - exact)
              for steps in (8, 16, 32)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 200.0 < coarse / fine < 300.0


def _counting(monkeypatch, name):
    """Counts the calls of the LAPACK routine `name` made through qmeasure.pde."""
    calls = []
    routine = getattr(pde, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return routine(*args, **kwargs)

    monkeypatch.setattr(pde, name, counted)
    return calls


def test_half_period_interval_solve_count(monkeypatch):
    """One T/2 interval of a chain makes 2 solves for the gate's half steps
    and 4 ceil(pi/0.02) = 632 for its free interval, in Pade (4,4) steps of
    TIME_STEP (the (2,2) steps of 0.005 made 1,258)."""
    solves = _counting(monkeypatch, "zgttrs")
    run_stroboscopic(COARSE, StroboscopicPlan(T / 2.0, 2), 5.0, 1e-5 * T, MASS, OMEGA,
                     scan_at=set())
    assert len(solves) == 2 + 632


def test_scan_factors_its_gate_once(monkeypatch):
    """A scan of gate_steps 3 factors the half-step matrix once, however
    many outcomes it gates."""
    wavefn = sample_gaussian(COARSE, 2.0, center=0.4)
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    factorizations = _counting(monkeypatch, "zgttrf")
    for points in (33, 65):
        _scan(wavefn, op, 1.0, 0.005, 3, points, 1.0, None)
    assert len(factorizations) == 2


def test_pade_norm_drift_over_eight_periods():
    """Engine B's free step keeps the norm to 1e-12 over 8T on the default
    lattice."""
    lat = Lattice()
    wavefn = sample_gaussian(lat, 5.0)
    op = effective_hamiltonian(lat, MASS, OMEGA)
    steps = int(np.ceil(8.0 * T / TIME_STEP))
    values = crank_nicolson_evolve(op, wavefn.values, 8.0 * T / steps, steps, substeps=PADE)
    assert abs(GridWavefunction(lat, values).norm_squared() - wavefn.norm_squared()) <= 1e-12


def test_singular_step_matrix_raises():
    """A zero pivot in B + zM is reported, not divided through: row 5 of M
    is 6i times row 5 of B, so at dt = 1/3 (z = i/6) row 5 of B + zM vanishes."""
    dt = 1.0 / 3.0
    lower, diagonal, upper = (np.zeros(k, dtype=complex) for k in (15, 16, 15))
    lower[4], diagonal[5], upper[5] = 0.5j, 5j, 0.5j
    op = TridiagonalOperator(lower, diagonal, upper)
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
    # the compact stencil's group-velocity error is fourth order in k dx:
    # the width falls about 2e-6 short, most of it Crank-Nicolson's time
    # error (a three-point stencil fell about 1e-3 short)
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
    values = _gate(wavefn, effective_hamiltonian(lat, MASS, OMEGA), plan_err, tau, 1, 1.0)(a)
    rho = np.abs(values) ** 2
    total = np.trapezoid(rho, dx=lat.dx)
    mean = np.trapezoid(lat.x * rho, dx=lat.dx) / total
    assert total == pytest.approx(exact.norm_squared, rel=1e-6)
    assert mean == pytest.approx(exact.center, abs=1e-6)


@pytest.mark.parametrize("steps", [1, 3])
def test_scan_norms_are_full_gate_norms(steps):
    """The scan skips the closing half substep, which keeps the norm."""
    tau, err = 0.05, 1.0
    wavefn = sample_gaussian(COARSE, 2.0, center=0.4)
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    dist = _scan(wavefn, op, err, tau, steps, 65, 1.0, None)
    gate = _gate(wavefn, op, err, tau, steps, 1.0)
    norms = np.array([np.trapezoid(np.abs(gate(a)) ** 2, dx=COARSE.dx) for a in dist.outcomes])
    expected = norms / np.trapezoid(norms, dist.outcomes)
    assert np.allclose(dist.density, expected, rtol=1e-12, atol=0.0)


def test_gate_splitting_is_second_order():
    """A finite gate's norm error against the closed form falls about
    fourfold each time the substep count doubles."""
    lat = Lattice(-40.0, 40.0, 4001)
    duration, err, a = 0.05, 1.0, 0.7
    wavefn = sample_gaussian(lat, 2.0)
    op = effective_hamiltonian(lat, MASS, OMEGA)
    exact = evolve_measured(GaussianPacket.from_width(2.0), duration, err, MASS, OMEGA,
                            center=a).norm_squared
    errors = [abs(np.trapezoid(np.abs(_gate(wavefn, op, err, duration, steps, 1.0)(a)) ** 2,
                               dx=lat.dx) - exact) for steps in (4, 8, 16)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.0 < coarse / fine < 5.0


def test_gate_substeps_no_longer_than_time_step():
    plan = StroboscopicPlan(T / 2.0, 1)
    with pytest.raises(ValueError, match="at least 80"):
        run_stroboscopic(COARSE, plan, 5.0, 0.05, MASS, OMEGA, gate_steps=1)


def test_default_time_step_is_absolute():
    """The gate-substep bound is 0.000625 at any omega."""
    plan = StroboscopicPlan(np.pi / 2.0, 1)
    with pytest.raises(ValueError, match="at least 80,"):
        run_stroboscopic(COARSE, plan, 5.0, 0.05, MASS, 2.0 * OMEGA, gate_steps=1)


def test_single_measurement_uncertainty():
    plan = StroboscopicPlan(T / 2.0, 1)
    recs = run_stroboscopic(COARSE, plan, 5.0, 1e-5 * T, MASS, OMEGA)
    assert len(recs) == 1
    assert recs[0].delta_a_eff == pytest.approx(SQRT26, abs=1e-2)
    assert recs[0].a_tilde == pytest.approx(0.0, abs=1e-6)


def test_headline_point_within_a_tenth_percent():
    """At dt = T/2, n = 16, the default lattice reads engine A's width to
    0.1%, and with Pade (4,4) free steps to 0.002% (+0.0012%; +0.0034% with
    (2,2) steps of 0.005, +0.019% with Crank-Nicolson free steps, and +0.75%
    with a three-point stencil)."""
    plan = StroboscopicPlan(T / 2.0, 16)
    rec = run_stroboscopic(Lattice(), plan, 5.0, 1e-5 * T, MASS, OMEGA, scan_at={16})[-1]
    exact = stroboscopic_widths(5.0, T / 2.0, 16, 1.0, 1e-5 * T, MASS, OMEGA)[-1]
    assert rec.delta_a_eff == pytest.approx(exact.delta_a_eff, rel=1e-3)
    assert rec.delta_a_eff == pytest.approx(exact.delta_a_eff, rel=2e-5)


def test_scan_subset():
    plan = StroboscopicPlan(T / 2.0, 3)
    recs = run_stroboscopic(COARSE, plan, 5.0, 1e-5 * T, MASS, OMEGA, scan_at={1, 3})
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
        run_stroboscopic(small, plan, 5.0, 1e-5 * T, MASS, OMEGA)
