import numpy as np
import pytest

from qmeasure import (
    ChainRecord,
    ChainUnderflowError,
    Lattice,
    StroboscopicPlan,
    apply_chain,
    asymptotic_uncertainty,
    nth_outcome_distribution,
    outcome_amplitudes,
    qnd_commutator,
    run_stroboscopic,
    stroboscopic_widths,
    sweep_quiescent_time,
    uncertainty_evolution,
)

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
    """nth_outcome_distribution equals manual norms of apply_chain states."""
    plan = StroboscopicPlan(T / 2.0, 3)
    dist = nth_outcome_distribution(plan, packet)
    idx = [80, 400, 720]
    manual = []
    for i in idx:
        final = apply_chain(plan, packet, float(dist.outcomes[i]))
        manual.append(final.norm() ** 2)
    manual = np.asarray(manual)
    scale = dist.density[idx[1]] / manual[1]
    assert np.allclose(dist.density[idx], manual * scale, rtol=1e-8)


def test_scan_subset(packet):
    plan = StroboscopicPlan(T / 2.0, 3)
    full = uncertainty_evolution(plan, packet)
    recs = uncertainty_evolution(plan, packet, scan_at={1, 3})
    assert [r.n for r in recs] == [1, 3]
    assert recs[0] == full[0]
    assert recs[1].norm_squared == full[2].norm_squared


def test_asymptotic_matches_full_chain(packet):
    plan = StroboscopicPlan(T / 2.0, 12)
    full = uncertainty_evolution(plan, packet)
    res = asymptotic_uncertainty(plan, packet)
    # window seeding differs slightly between the two paths
    assert res.delta_a_eff == pytest.approx(full[-1].delta_a_eff, rel=1e-4)
    assert res.stabilized
    assert res.reference == pytest.approx(full[-3].delta_a_eff, rel=1e-4)


def test_asymptotic_uncertainty_is_the_record_of_measurement_n(packet):
    """asymptotic_uncertainty is measurement N's ChainRecord from the chain
    scanned at N-2 and N, and sweep_quiescent_time collects those records."""
    plan = StroboscopicPlan(T / 2.0, 8)
    res = asymptotic_uncertainty(plan, packet)
    assert isinstance(res, ChainRecord) and res.n == 8
    last = uncertainty_evolution(plan, packet, scan_at={6, 8})[-1]
    assert (res.delta_a_eff, res.a_tilde, res.norm_squared) == (
        last.delta_a_eff, last.a_tilde, last.norm_squared)
    intervals = np.array([0.25, 0.5, 0.75]) * T
    curve = sweep_quiescent_time(packet, intervals, measurements=8)
    expected = tuple(asymptotic_uncertainty(StroboscopicPlan(dt, 8), packet) for dt in intervals)
    assert curve.results == expected
    assert np.array_equal(curve.values, [r.delta_a_eff for r in expected])


def test_quarter_period_fixed_point(packet):
    plan = StroboscopicPlan(T / 4.0, 16)
    res = asymptotic_uncertainty(plan, packet)
    assert res.delta_a_eff == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-6)


def test_alternating_results_keep_uncertainty(packet):
    """Imposing +-1 alternately changes centers, not the asymptotic spread."""
    base = asymptotic_uncertainty(StroboscopicPlan(T / 2.0, 12), packet)
    alt = asymptotic_uncertainty(
        StroboscopicPlan(T / 2.0, 12, results="alternating", result_value=1.0), packet)
    assert alt.delta_a_eff == pytest.approx(base.delta_a_eff, rel=0.02)
    assert abs(alt.a_tilde) < 1.2


def test_chain_underflow(packet):
    plan = StroboscopicPlan(T / 2.0, 8, error=1e-3, result_value=40.0)
    with pytest.raises(ChainUnderflowError):
        uncertainty_evolution(plan, packet)


def test_step_chain_runs(packet):
    plan = StroboscopicPlan(T / 2.0, 4, filter_kind="step")
    recs = uncertainty_evolution(plan, packet)
    assert len(recs) == 4
    assert recs[-1].delta_a_eff < recs[0].delta_a_eff


def test_mini_sweep_finds_half_period(packet):
    intervals = np.array([0.40, 0.45, 0.50, 0.55, 0.60]) * T
    curve = sweep_quiescent_time(packet, intervals, measurements=8)
    assert curve.values.shape == (5,)
    minima = curve.minima_indices()
    assert 2 in minima
    assert curve.intervals_over_period[2] == pytest.approx(0.5)
    # half period beats the surrounding intervals clearly
    assert curve.values[2] < 0.95 * curve.values[0]
    assert curve.values[2] < 0.95 * curve.values[4]


def test_outcome_amplitudes_reused_by_chain(basis, packet):
    # scanning measurement 1 through the plan equals a direct scan
    plan = StroboscopicPlan(T / 2.0, 1)
    dist = nth_outcome_distribution(plan, packet)
    amps = outcome_amplitudes(packet, "gaussian", 1.0, dist.outcomes)
    norms = np.sum(np.abs(amps) ** 2, axis=1)
    dens = norms / np.trapezoid(norms, dist.outcomes)
    assert np.allclose(dens, dist.density, rtol=1e-9, atol=1e-12)


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
