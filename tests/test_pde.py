from math import factorial

import numpy as np
import pytest
from scipy.linalg import expm, solve, solve_banded

from qmeasure import (
    BoundaryLeakError,
    GaussianPacket,
    GridWavefunction,
    Lattice,
    StroboscopicPlan,
    crank_nicolson_evolve,
    effective_hamiltonian,
    evolve_free,
    evolve_measured,
    measurement_coupling,
    run_stroboscopic,
    sample_gaussian,
    stroboscopic_widths,
)
from qmeasure import collapse, pde
from qmeasure.pde import (PADE, TridiagonalOperator, _gate, _scan, _steps_within, chain_reach,
                          derived_lattice, free_step)

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


def _reach(plan, width, center=0.0):
    """The largest R + 8 S of engine A's packet entering each measurement,
    R and S its amplitude and spread in the phase plane (x, p/(m omega))."""
    packets = [GaussianPacket.from_width(width, center=center)]
    for a in plan.imposed_results():
        gated = evolve_measured(packets[-1], 1e-5 * T, plan.error, MASS, OMEGA, center=float(a))
        packets.append(evolve_free(gated, plan.interval, MASS, OMEGA))
    return max(r + 8.0 * s for r, s in (packet.phase_space(MASS, OMEGA) for packet in packets))


def _rule_step(reach):
    """Engine B's free step at reach rho: 20.8/omega (hbar omega/E)^(9/8) at
    E = m omega^2 rho^2/2."""
    return 20.8 / OMEGA * (0.5 * MASS * OMEGA * reach**2) ** (-9.0 / 8.0)


def test_half_period_interval_solve_count(monkeypatch):
    """Each T/2 interval of a chain makes 2 solves for the gate's half steps
    and 4 for each of its ceil((T/2)/dt) Pade (4,4) free steps, dt the step
    rule's at the chain's reach: the default 16-measurement chain (reach
    43.90) keeps the 2 + 632 solves of the fixed step of 0.02 that the rule
    replaced (the (2,2) steps of 0.005 made 1,258), and a sweep-B chain
    (reach 28.68) makes 2 + 4 x 61."""
    solves = _counting(monkeypatch, "zgttrs")
    for measurements, center, result, steps in [(16, 0.0, 0.0, 158), (4, 0.31, -0.27, 61)]:
        plan = StroboscopicPlan(T / 2.0, measurements, result_value=result)
        per_interval = 2 + 4 * int(np.ceil(T / 2.0 / _rule_step(_reach(plan, 5.0, center))))
        assert per_interval == 2 + 4 * steps
        solves.clear()
        run_stroboscopic(None, plan, 5.0, 1e-5 * T, MASS, OMEGA, center=center, scan_at=set())
        assert len(solves) == (measurements - 1) * per_interval


def test_scan_factors_its_gate_once(monkeypatch):
    """A scan of gate_steps 3 factors the half-step matrix once, however
    many outcomes it gates."""
    wavefn = sample_gaussian(COARSE, 2.0, center=0.4)
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    factorizations = _counting(monkeypatch, "zgttrf")
    for points in (33, 65):
        monkeypatch.setitem(collapse.SCAN_POINTS, "gaussian", points)
        _scan(wavefn, op, 1.0, 0.005, 3, 1.0)
    assert len(factorizations) == 2


def test_pade_norm_drift_over_eight_periods():
    """Engine B's free step on the default chain keeps the norm to 1e-12 over
    8T on the default lattice."""
    lat = Lattice()
    wavefn = sample_gaussian(lat, 5.0)
    op = effective_hamiltonian(lat, MASS, OMEGA)
    reach = chain_reach(StroboscopicPlan(T / 2.0, 16), 5.0, 1e-5 * T, MASS, OMEGA)
    steps = _steps_within(8.0 * T, free_step(reach, MASS, OMEGA))
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
def test_scan_norms_are_full_gate_norms(monkeypatch, steps):
    """The scan skips the closing half substep, which keeps the norm."""
    tau, err = 0.05, 1.0
    wavefn = sample_gaussian(COARSE, 2.0, center=0.4)
    op = effective_hamiltonian(COARSE, MASS, OMEGA)
    monkeypatch.setitem(collapse.SCAN_POINTS, "gaussian", 65)
    dist = _scan(wavefn, op, err, tau, steps, 1.0)
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
    with pytest.raises(ValueError):
        run_stroboscopic(COARSE, plan, 5.0, 1e-5 * T, MASS, OMEGA)


def test_boundary_leak_detected():
    # a width-5 packet on a +-12 lattice already puts > 1e-8 on the walls
    small = Lattice(-12.0, 12.0, 481)
    plan = StroboscopicPlan(T / 2.0, 2)
    with pytest.raises(BoundaryLeakError):
        run_stroboscopic(small, plan, 5.0, 1e-5 * T, MASS, OMEGA)


def test_headline_point_on_the_derived_lattice():
    """With no lattice given, the default 16-measurement chain at T/2 runs on
    +-44 x 1761 (dx 0.05): its packet's phase-space spread grows from 3.547
    to 5.488. B reads A there to +1.17e-5, as on +-60 x 2401."""
    plan = StroboscopicPlan(T / 2.0, 16)
    reach = chain_reach(plan, 5.0, 1e-5 * T, MASS, OMEGA)
    assert derived_lattice(reach) == Lattice(-44.0, 44.0, 1761)
    rec = run_stroboscopic(None, plan, 5.0, 1e-5 * T, MASS, OMEGA, scan_at={16})[-1]
    exact = stroboscopic_widths(5.0, T / 2.0, 16, 1.0, 1e-5 * T, MASS, OMEGA)[-1]
    assert rec.delta_a_eff == pytest.approx(exact.delta_a_eff, rel=2e-5)


@pytest.mark.parametrize("dt_over_T", [0.25, 0.5])
def test_derived_lattice_keeps_the_sweep_b_rows(dt_over_T):
    """On the benchmark's sweep-B settings (4 measurements, center and
    result in [-0.5, 0.5]) the derived +-29 x 1161 lattice gives the rows of
    +-60 x 2401 to 1e-9."""
    plan = StroboscopicPlan(dt_over_T * T, 4, result_value=-0.27)
    reach = chain_reach(plan, 5.0, 1e-5 * T, MASS, OMEGA, center=0.31)
    assert derived_lattice(reach).points == 1161
    derived, fixed = (run_stroboscopic(lat, plan, 5.0, 1e-5 * T, MASS, OMEGA, center=0.31,
                                       scan_at={4})[-1] for lat in (None, Lattice()))
    for field in ("delta_a_eff", "a_tilde", "norm_squared"):
        assert getattr(derived, field) == pytest.approx(getattr(fixed, field), rel=1e-9)


def _campaign(count=6, seed=20261021):
    """Seeded configs from the ranges of the randomized agreement campaign:
    width, center, error and interval, with 4 measurements."""
    rng = np.random.default_rng(seed)
    return [(float(rng.choice([2.0, 5.0, 8.0])), float(rng.uniform(-3.0, 3.0)),
             float(rng.choice([0.5, 1.0, 2.0])), float(rng.choice([0.5, 0.37])))
            for _ in range(count)]


@pytest.mark.parametrize("width, center, error, dt_over_T", _campaign())
def test_derived_lattice_holds_the_packet(width, center, error, dt_over_T):
    """The derived lattice passes the leak guard after every interval."""
    plan = StroboscopicPlan(dt_over_T * T, 4, error=error)
    records = run_stroboscopic(None, plan, width, 1e-5 * T, MASS, OMEGA, center=center,
                               scan_at={4})
    assert [r.n for r in records] == [4]


@pytest.mark.parametrize("width, center, error, dt_over_T", _campaign())
def test_derived_lattice_holds_the_packet_mid_interval(width, center, error, dt_over_T):
    """Halfway through the last interval, where the leak guard does not
    look, the packet also keeps its boundary mass under 1e-8: the walls bound
    the packet at every time of an interval, not only at its ends."""
    plan = StroboscopicPlan(dt_over_T * T, 4, error=error)
    tau = 1e-5 * T
    reach = chain_reach(plan, width, tau, MASS, OMEGA, center=center)
    lat, dt = derived_lattice(reach), free_step(reach, MASS, OMEGA)
    op = effective_hamiltonian(lat, MASS, OMEGA)
    wavefn = sample_gaussian(lat, width, center)
    for n, a in enumerate(plan.imposed_results(), 1):
        duration = plan.interval / (2.0 if n == plan.measurements - 1 else 1.0)
        steps = _steps_within(duration, dt)
        values = _gate(wavefn, op, error, tau, 1, 1.0)(float(a))
        wavefn = GridWavefunction(lat, crank_nicolson_evolve(op, values, duration / steps,
                                                             steps, substeps=PADE))
    assert wavefn.boundary_mass() < 1e-8 * wavefn.norm_squared()


@pytest.mark.parametrize("width, center, error, dt_over_T, measurements", [
    (5.0, 0.0, 1.0, 0.5, 16),
    *((*config, 4) for config in _campaign()),
    (2.0, 0.0, 0.5, 0.5, 6),
], ids=["headline", *(f"campaign-{k}" for k in range(len(_campaign()))), "reach-51"])
def test_derived_step_converges(monkeypatch, width, center, error, dt_over_T, measurements):
    """B's last row at the derived free step is within 2e-5 of its row at
    half that step: on the headline chain (8.9e-6), on the campaign configs,
    and on a chain of reach 50.9, whose step of 0.0143 is finer than the
    fixed 0.02 that put it 2.2e-4 off."""
    plan = StroboscopicPlan(dt_over_T * T, measurements, error=error)

    def last_row():
        return run_stroboscopic(None, plan, width, 1e-5 * T, MASS, OMEGA, center=center,
                                scan_at={measurements})[-1].delta_a_eff

    derived = last_row()
    monkeypatch.setattr(pde, "STEP_SCALE", pde.STEP_SCALE / 2.0)
    assert derived == pytest.approx(last_row(), rel=2e-5)
