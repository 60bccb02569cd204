import numpy as np
import pytest

from qmeasure import (
    ChainRecord,
    ChainUnderflowError,
    EigenState,
    Lattice,
    OscillatorBasis,
    StroboscopicPlan,
    WeightSpec,
    config_from_mapping,
    distribution,
    measurement_coupling,
    nth_outcome_distribution,
    outcome_distribution,
    position_moments,
    qnd_commutator,
    run_stroboscopic,
    stroboscopic_widths,
    sweep,
    uncertainty_evolution,
    weight_matrix,
)
from qmeasure import stroboscopic

T = 2.0 * np.pi
SQRT26 = 5.0990195135927845


def test_plan_validation():
    with pytest.raises(ValueError):
        StroboscopicPlan(0.0, 4)
    with pytest.raises(ValueError):
        StroboscopicPlan(1.0, 0)
    with pytest.raises(ValueError):
        StroboscopicPlan(1.0, 4, filter_kind="boxcar")
    with pytest.raises(ValueError):
        StroboscopicPlan(1.0, 4, error=-1.0)
    with pytest.raises(ValueError):
        StroboscopicPlan(1.0, 4, results="drift")
    with pytest.raises(ValueError):
        StroboscopicPlan(1.0, 4, results=(0.0, 0.0))


NAN = float("nan")


# NaN fails every comparison, so each check must pass only positive values
@pytest.mark.parametrize("build, message", [
    (lambda: StroboscopicPlan(NAN, 4), "interval must be positive"),
    (lambda: StroboscopicPlan(1.0, 4, error=NAN), "error must be positive"),
    (lambda: stroboscopic_widths(5.0, NAN, 4, 1.0, 1e-5, 0.5, 1.0), "interval must be positive"),
    (lambda: OscillatorBasis(NAN, 1.0, 8), "mass, omega and hbar must be positive"),
    (lambda: OscillatorBasis(0.5, NAN, 8), "mass, omega and hbar must be positive"),
    (lambda: OscillatorBasis(0.5, 1.0, 8, NAN), "mass, omega and hbar must be positive"),
    (lambda: WeightSpec("gaussian", 0.0, NAN), "filter error must be positive"),
    (lambda: WeightSpec("step", 0.0, NAN), "filter error must be positive"),
    (lambda: measurement_coupling(NAN, 1.0), "error and duration must be positive"),
    (lambda: measurement_coupling(1.0, NAN), "error and duration must be positive"),
], ids=["plan-interval", "plan-error", "widths-interval", "basis-mass", "basis-omega",
        "basis-hbar", "spec-gaussian", "spec-step", "coupling-error", "coupling-duration"])
def test_nan_parameters_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_imposed_result_policies():
    plan = StroboscopicPlan(1.0, 5, result_value=2.0)
    assert np.allclose(plan.imposed_results(), [2.0, 2.0, 2.0, 2.0])
    alt = StroboscopicPlan(1.0, 5, results="alternating", result_value=2.0)
    assert np.allclose(alt.imposed_results(), [2.0, -2.0, 2.0, -2.0])
    seq = StroboscopicPlan(1.0, 4, results=[0.1, 0.2, 0.3, 0.9])
    assert np.allclose(seq.imposed_results(), [0.1, 0.2, 0.3])


def test_commutator_zeros(basis):
    assert qnd_commutator(basis, 0.3) == pytest.approx(2.0 * np.sin(0.3))
    for k in (1, 2, 3):
        assert qnd_commutator(basis, k * T / 2.0) == pytest.approx(0.0, abs=1e-12)


def test_first_measurement_uncertainty(packet):
    plan = StroboscopicPlan(T / 2.0, 1)
    recs = uncertainty_evolution(plan, packet)
    assert len(recs) == 1
    assert recs[0].delta_a_eff == pytest.approx(SQRT26, abs=1e-3)
    assert recs[0].norm_squared == pytest.approx(1.0, abs=1e-12)


def test_chain_against_packet_engine(packet):
    """Eigenbasis chain and closed-form packets agree along the sequence."""
    N = 10
    plan = StroboscopicPlan(T / 2.0, N)
    chain = uncertainty_evolution(plan, packet)
    widths = stroboscopic_widths(5.0, T / 2.0, N, 1.0, 1e-5 * T, 0.5, 1.0)
    for c, w in zip(chain, widths):
        tol = 0.01 if c.n >= 8 else 0.10
        assert abs(c.delta_a_eff - w.delta_a_eff) <= tol * w.delta_a_eff
    # survival probabilities track each other too
    assert chain[-1].norm_squared == pytest.approx(widths[-1].norm_squared, rel=0.05)


def test_apply_chain_consistency(packet):
    """nth_outcome_distribution equals manual norms of the chain's state
    entering measurement N, filtered at each outcome."""
    plan = StroboscopicPlan(T / 2.0, 3)
    dist = nth_outcome_distribution(plan, packet)
    idx = [int(f * len(dist.outcomes)) for f in (0.1, 0.5, 0.9)]
    last = stroboscopic._last_state(plan, packet).coefficients
    manual = []
    for i in idx:
        spec = WeightSpec(plan.filter_kind, center=float(dist.outcomes[i]), error=plan.error)
        manual.append(np.linalg.norm(weight_matrix(packet.basis, spec).matrix @ last) ** 2)
    manual = np.asarray(manual)
    scale = dist.density[idx[1]] / manual[1]
    assert np.allclose(dist.density[idx], manual * scale, rtol=1e-8)


def test_scan_subset(packet):
    """A record depends on its own measurement alone, not on which others
    were scanned."""
    cases = [(kind, fraction, 3, {1, 3}) for kind in ("gaussian", "step")
             for fraction in (0.25, 0.37, 0.5)] + [("gaussian", 0.5, 12, {10, 12})]
    for kind, fraction, measurements, scan_at in cases:
        plan = StroboscopicPlan(fraction * T, measurements, filter_kind=kind)
        full = uncertainty_evolution(plan, packet)
        recs = uncertainty_evolution(plan, packet, scan_at=scan_at)
        assert recs == [full[n - 1] for n in sorted(scan_at)], (kind, fraction, measurements)


def _engine_c_sweep(start: float, stop: float, points: int, measurements: int) -> list:
    """`qmeasure sweep`'s rows for engine C on the `packet` fixture's state."""
    return sweep(config_from_mapping({
        "engines": ["C"], "plan": {"measurements": measurements}, "numerics": {"levels": 64},
        "sweep": {"start_over_period": start, "stop_over_period": stop, "points": points}}))


def test_sweep_takes_engine_c_rows_from_the_scan_of_measurement_n(packet):
    """Each engine C row of a sweep is uncertainty_evolution's record of
    measurement N scanned alone at that interval, to the last bit."""
    rows = _engine_c_sweep(0.25, 0.75, 3, 8)
    assert [(r.engine, r.n) for r in rows] == [("C", 8)] * 3
    for row in rows:
        expected = uncertainty_evolution(StroboscopicPlan(row.dt_over_T * T, 8), packet,
                                         scan_at={8})[-1]
        assert (row.delta_a_eff, row.a_tilde, row.norm) == (
            expected.delta_a_eff, expected.a_tilde, expected.norm_squared)


def test_sweep_scans_engine_c_once_per_chain(monkeypatch):
    """A sweep scans only measurement N of each engine C chain, so its rows
    are the final-measurement distribution at each interval, bit for bit."""
    calls, seeded_scan = [], stroboscopic._seeded_scan

    def counted(*args):
        calls.append(args)
        return seeded_scan(*args)

    monkeypatch.setattr(stroboscopic, "_seeded_scan", counted)
    rows = _engine_c_sweep(0.25, 0.75, 3, 8)
    monkeypatch.undo()
    # every row takes at least one scan, so three scans are one per chain
    assert len(rows) == 3 and len(calls) == 3
    for row in rows:
        dist = distribution(config_from_mapping({
            "engines": ["C"], "numerics": {"levels": 64},
            "plan": {"measurements": 8, "interval_over_period": row.dt_over_T}}))
        assert (row.delta_a_eff, row.a_tilde) == (dist.delta_a_eff, dist.a_tilde)


def test_quarter_period_fixed_point(packet):
    plan = StroboscopicPlan(T / 4.0, 16)
    [res] = uncertainty_evolution(plan, packet, scan_at={16})
    assert res.delta_a_eff == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-6)


def test_alternating_results_keep_uncertainty(packet):
    """Imposing +-1 alternately changes centers, not the asymptotic spread."""
    [base] = uncertainty_evolution(StroboscopicPlan(T / 2.0, 12), packet, scan_at={12})
    [alt] = uncertainty_evolution(
        StroboscopicPlan(T / 2.0, 12, results="alternating", result_value=1.0), packet,
        scan_at={12})
    assert alt.delta_a_eff == pytest.approx(base.delta_a_eff, rel=0.02)
    assert abs(alt.a_tilde) < 1.2


def test_chain_underflow(packet):
    plan = StroboscopicPlan(T / 2.0, 8, error=1e-3, result_value=40.0)
    with pytest.raises(ChainUnderflowError):
        uncertainty_evolution(plan, packet)


@pytest.mark.parametrize("engine", ["A", "B", "C"])
def test_every_engine_rejects_an_imposition_that_keeps_almost_no_norm(packet, engine):
    """Result 10 at error 1 keeps under 1e-8 of a width-5 packet's norm at
    measurement 2, where the half period has mirrored the packet to -10."""
    plan = StroboscopicPlan(T / 2.0, 3, result_value=10.0)
    chain = {
        "A": lambda: stroboscopic_widths(5.0, plan.interval, 3, 1.0, 1e-5 * T, 0.5, 1.0,
                                         result_value=10.0),
        "B": lambda: run_stroboscopic(Lattice(points=1201), plan, 5.0, 1e-5 * T, 0.5, 1.0),
        "C": lambda: uncertainty_evolution(plan, packet),
    }[engine]
    with pytest.raises(ChainUnderflowError, match="imposing measurement 2 kept"):
        chain()


def test_step_chain_runs(packet):
    plan = StroboscopicPlan(T / 2.0, 4, filter_kind="step")
    recs = uncertainty_evolution(plan, packet)
    assert len(recs) == 4
    assert recs[-1].delta_a_eff < recs[0].delta_a_eff


def test_mini_sweep_finds_half_period():
    rows = _engine_c_sweep(0.4, 0.6, 5, 8)
    values = [r.delta_a_eff for r in rows]
    assert len(values) == 5
    # the half period is a local minimum
    assert values[2] <= values[1] and values[2] < values[3]
    assert rows[2].dt_over_T == pytest.approx(0.5)
    # half period beats the surrounding intervals clearly
    assert values[2] < 0.95 * values[0]
    assert values[2] < 0.95 * values[4]


def test_outcome_distribution_is_the_first_chain_scan(basis, packet):
    """outcome_distribution is engine C's scan of a chain's first measurement,
    bit for bit, with either filter, also when the scan's window is rerun:
    the ground state under a step filter of error 5 reads about 4.29, over
    15% below the first window's sqrt(error^2 + 2 var) = 5.20."""
    ground = EigenState(basis, np.eye(basis.n_max, dtype=complex)[0])
    for state, kind, error, rerun in ((packet, "gaussian", 1.0, False),
                                      (packet, "step", 1.0, False),
                                      (ground, "step", 5.0, True)):
        # the chain scans its normalized state: these are of unit norm to the bit
        assert np.array_equal(state.normalized().coefficients, state.coefficients)
        plan = StroboscopicPlan(T / 2.0, 1, filter_kind=kind, error=error)
        chain = nth_outcome_distribution(plan, state)
        dist = outcome_distribution(state, error, kind)
        assert np.array_equal(dist.outcomes, chain.outcomes)
        assert np.array_equal(dist.density, chain.density)
        assert (dist.a_tilde, dist.delta_a_eff, dist.boundary_mass) == (
            chain.a_tilde, chain.delta_a_eff, chain.boundary_mass)
        record = uncertainty_evolution(plan, state)[0]
        assert (record.delta_a_eff, record.a_tilde) == (dist.delta_a_eff, dist.a_tilde)
        first_window = 10.0 * np.sqrt(error**2 + 2.0 * position_moments(state)[1])
        assert (dist.outcomes[-1] < 0.85 * first_window) == rerun


def test_every_engine_walks_the_plan_into_chain_records(packet):
    """Engines A, B and C return ChainRecords for the same measurements of
    one plan, and engine A's a_tilde follows the imposed results."""
    plan = StroboscopicPlan(T / 2.0, 3, results=(2.0, -1.0))
    gate = 1e-5 * T
    a = stroboscopic_widths(5.0, plan.interval, plan.measurements, plan.error, gate, 0.5, 1.0,
                            results=plan.results)
    b = run_stroboscopic(Lattice(points=1201), plan, 5.0, gate, 0.5, 1.0)
    c = uncertainty_evolution(plan, packet)
    for chain in (a, b, c):
        assert all(type(r) is ChainRecord for r in chain)
        assert [r.n for r in chain] == [1, 2, 3]
    # A's a_tilde is the packet center: each impulsive measurement pulls it
    # toward the imposed result r, weighted by inverse variances (the
    # width^2 entering it is delta_a_eff^2 - error^2), and the half period
    # then mirrors it
    assert a[0].a_tilde == 0.0
    for before, after, r in zip(a, a[1:], plan.imposed_results()):
        var = before.delta_a_eff**2 - plan.error**2
        pulled = (before.a_tilde / var + r / plan.error**2) / (1.0 / var + 1.0 / plan.error**2)
        assert after.a_tilde == pytest.approx(-pulled, rel=1e-6)
    for chain in (b, c):
        for ra, rx in zip(a, chain):
            assert rx.a_tilde == pytest.approx(ra.a_tilde, abs=1e-3)
            assert rx.delta_a_eff == pytest.approx(ra.delta_a_eff, rel=0.10)
