import numpy as np
import pytest
from scipy.special import erf

from qmeasure import (
    QuadratureError,
    WeightSpec,
    evaluate_weight,
    measurement_coupling,
    weight_matrix,
)
from qmeasure import weights
from qmeasure.oscillator import _legendre_rule

# closed forms for the centered unit-error filters in the default units:
#   gaussian <0|w|0> = 1/sqrt(2)        <1|w|1> = 1/(2 sqrt(2))
#   step     <0|w|0> = erf(1/sqrt(2))   <1|w|1> = erf(1/sqrt(2)) - sqrt(2/pi) e^(-1/2)
G00 = 0.7071067811865476
G11 = 0.3535533905932738
S00 = 0.6826894921370859
S11 = 0.19874804309879915


def test_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec("triangle")
    with pytest.raises(ValueError):
        WeightSpec("gaussian", error=0.0)


def test_evaluate_gaussian():
    spec = WeightSpec("gaussian", center=2.0, error=0.5)
    x = np.array([2.0, 2.5, 1.5])
    w = evaluate_weight(spec, x)
    assert w[0] == pytest.approx(1.0)
    assert w[1] == pytest.approx(np.exp(-0.5))
    assert w[2] == pytest.approx(np.exp(-0.5))


def test_evaluate_step_closed_boundaries():
    spec = WeightSpec("step", center=1.0, error=0.25)
    x = np.array([0.75, 1.25, 0.74999, 1.25001, 1.0])
    assert list(evaluate_weight(spec, x)) == [1.0, 1.0, 0.0, 0.0, 1.0]


def test_coupling_value():
    # kappa = 1 / (2 error^2 duration)
    assert measurement_coupling(2.0, 0.125) == pytest.approx(1.0)
    tau = 1e-5 * 2.0 * np.pi
    assert measurement_coupling(1.0, tau) == pytest.approx(1.0 / (2.0 * tau))


def test_matrix_elements_gaussian(basis):
    wm = weight_matrix(basis, WeightSpec("gaussian"))
    assert wm.matrix[0, 0] == pytest.approx(G00, abs=1e-10)
    assert wm.matrix[1, 1] == pytest.approx(G11, abs=1e-10)
    assert wm.quad_error < 1e-8


def test_matrix_elements_step(basis):
    wm = weight_matrix(basis, WeightSpec("step"))
    assert wm.matrix[0, 0] == pytest.approx(S00, abs=1e-9)
    assert wm.matrix[1, 1] == pytest.approx(S11, abs=1e-9)


def test_quadrature_error_is_measured(basis):
    """The check rule is denser than the base rule, so the estimate is a
    real, small difference rather than an identical rule's zero."""
    for kind in ("gaussian", "step"):
        wm = weight_matrix(basis, WeightSpec(kind))
        assert 0.0 < wm.quad_error < 1e-12


def test_centered_filter_preserves_parity(basis):
    wm = weight_matrix(basis, WeightSpec("gaussian"))
    # odd-even couplings vanish for a symmetric weight
    assert abs(wm.matrix[0, 1]) < 1e-12
    assert abs(wm.matrix[2, 5]) < 1e-12


def test_off_center_ground_element(basis):
    # <0|w_a|0> = exp(-a^2/4)/sqrt(2) for the unit gaussian filter
    for a in (0.5, -1.3, 2.0):
        wm = weight_matrix(basis, WeightSpec("gaussian", center=a))
        assert wm.matrix[0, 0] == pytest.approx(np.exp(-a**2 / 4.0) / np.sqrt(2.0), abs=1e-10)


def test_symmetry_and_spectrum(basis, rng):
    """Weight matrices are symmetric with eigenvalues inside [0, 1]."""
    for _ in range(20):
        kind = "gaussian" if rng.uniform() < 0.5 else "step"
        spec = WeightSpec(kind, center=rng.uniform(-3, 3), error=rng.uniform(0.2, 3.0))
        w = weight_matrix(basis, spec).matrix
        assert np.max(np.abs(w - w.T)) <= 1e-12
        vals = np.linalg.eigvalsh(w)
        assert vals.min() > -1e-8
        assert vals.max() < 1.0 + 1e-8


def test_wide_filter_approaches_identity(basis):
    w = weight_matrix(basis, WeightSpec("gaussian", error=1e6)).matrix
    assert np.max(np.abs(w - np.eye(basis.n_max))) < 1e-6


def test_norm_contraction(basis, rng):
    for kind in ("gaussian", "step"):
        w = weight_matrix(basis, WeightSpec(kind, center=0.4, error=0.8)).matrix
        for _ in range(10):
            c = rng.normal(size=basis.n_max) + 1j * rng.normal(size=basis.n_max)
            c /= np.linalg.norm(c)
            assert np.linalg.norm(w @ c) <= 1.0 + 1e-12


@pytest.fixture
def starved_quadrature(monkeypatch):
    """A 40-node budget against a 1e-14 tolerance, on an empty matrix cache."""
    monkeypatch.setattr(weights, "NODE_BUDGET", 40)
    monkeypatch.setattr(weights, "TOLERANCE", 1e-14)
    weights._weight_matrix.cache_clear()
    yield
    weights._weight_matrix.cache_clear()


def test_unconverged_quadrature_raises(basis, starved_quadrature):
    with pytest.raises(QuadratureError):
        weight_matrix(basis, WeightSpec("gaussian", error=0.3))


def test_quadrature_error_raises_on_every_call(basis, starved_quadrature):
    # failures are not memoized
    for _ in range(2):
        with pytest.raises(QuadratureError):
            weight_matrix(basis, WeightSpec("gaussian", error=0.3))


def test_cached_rules_and_matrices_are_read_only(basis):
    spec = WeightSpec("gaussian", center=0.3)
    wm = weight_matrix(basis, spec)
    assert weight_matrix(basis, spec) is wm
    assert not wm.matrix.flags.writeable
    empty = weight_matrix(basis, WeightSpec("step", center=1e3))
    assert not empty.matrix.flags.writeable and not empty.matrix.any()
    for array in _legendre_rule(304):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
