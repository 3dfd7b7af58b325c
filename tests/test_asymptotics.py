import numpy as np
import pytest

from awwlab import asymptotics as Y, atom as A, bath as B, harness as H
from awwlab.errors import WellCouplednessError


def test_leading_order_initial_value(ref_scenario, ref_tables):
    z = Y.leading_order_z(ref_tables, 0.05, 0.1, ref_scenario.z0, 0.0)
    assert np.allclose(z, ref_scenario.z0)


def test_leading_order_norm_formula(ref_scenario, ref_frame, ref_tables):
    eps, lam = 0.05, np.sqrt(0.05)
    z0 = np.array([0.6, 0.8], dtype=complex)
    for t in (0.3, 1.0):
        z = Y.leading_order_z(ref_tables, eps, lam, z0, t)
        decay = np.exp(-2.0 * (lam**2 / eps) * np.asarray(ref_tables.int_beta(t)))
        v0 = ref_frame.vectors_at(0.0)
        weights = np.abs(v0.conj().T @ z0) ** 2
        assert np.linalg.norm(z) ** 2 == pytest.approx(float(decay @ weights),
                                                       abs=1e-10)


def test_leading_order_norm_nonincreasing(ref_scenario, ref_tables):
    ts = np.linspace(0.0, 1.0, 101)
    z = Y.leading_order_z(ref_tables, 0.05, np.sqrt(0.05), ref_scenario.z0, ts)
    norms = np.linalg.norm(z, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_leading_order_gauge_invariant_populations(ref_scenario, ref_bath):
    # same path, different eigenvector gauge: populations must agree
    def ham(t):
        return ref_scenario.atom.hamiltonian(t)

    def provider(t):
        th = np.pi * t / 4.0
        c, s = np.cos(th), np.sin(th)
        chi = np.exp(1j * 0.7 * t)
        cols = np.array([[c * chi, -s], [s * chi, c]])
        return np.array([1.0, 2.0 + 0.3 * t]), cols

    regauged = A.AtomPath(dim=2, hamiltonian=ham,
                          coupling=ref_scenario.atom.coupling,
                          eigvec_provider=provider)
    frame_a = ref_scenario.frame()
    frame_b = A.eigenframe(regauged, np.linspace(0.0, 1.0, 801))
    tables_a = Y.AsymptoticTables(frame_a, ref_bath)
    tables_b = Y.AsymptoticTables(frame_b, ref_bath)
    eps, lam = 0.05, np.sqrt(0.05)
    for t in (0.4, 1.0):
        za = Y.leading_order_z(tables_a, eps, lam, ref_scenario.z0, t)
        zb = Y.leading_order_z(tables_b, eps, lam, ref_scenario.z0, t)
        pa = np.abs(frame_a.vectors_at(t).conj().T @ za) ** 2
        pb = np.abs(frame_b.vectors_at(t).conj().T @ zb) ** 2
        assert np.allclose(pa, pb, atol=1e-9)


def test_population_approx_closed_form(ref_bath):
    # constant levels at alpha = 1, 2 with unit coupling and lam^2 = eps:
    # level j survives with exp(-2 pi rho(alpha_j)), the survival law that
    # regime_classify's p_down evaluates from the tables
    atom = A.diag_rotation_atom(
        level_funcs=(lambda t: 1.0, lambda t: 2.0),
        theta_func=lambda t: 0.0,
        coupling_func=lambda t: np.array([1.0, 1.0]),
    )
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 201))
    tables = Y.AsymptoticTables(frame, ref_bath)
    eps, lam = 0.05, np.sqrt(0.05)
    survive = np.exp(-2.0 * np.pi * np.array([np.exp(-1.0), 4.0 * np.exp(-2.0)]))
    p_down = Y.regime_classify(eps, lam, tables, np.array([1.0, 0.0]), t=1.0).p_down
    assert p_down == pytest.approx(1.0 - survive[0], abs=1e-8)
    z0 = np.sqrt([0.7, 0.3]).astype(complex)
    p_down = Y.regime_classify(eps, lam, tables, z0, t=1.0).p_down
    assert p_down == pytest.approx(1.0 - survive @ [0.7, 0.3], abs=1e-8)


def test_regime_classification_thresholds(ref_scenario, ref_tables):
    def regime(eps, lam):
        return Y.regime_classify(eps, lam, ref_tables, ref_scenario.z0).regime

    assert regime(0.01, np.sqrt(0.1)) == "strong"
    assert regime(0.05, np.sqrt(0.05)) == "davies"
    assert regime(0.1, np.sqrt(0.1**3)) == "weak_b"
    assert regime(0.01, np.sqrt(5e-4)) == "weak_a"
    with pytest.raises(ValueError):
        regime(0.0, 0.1)


def test_regime_predictions(ref_scenario, ref_tables):
    strong = Y.regime_classify(0.01, np.sqrt(0.1), ref_tables, ref_scenario.z0)
    assert strong.p_down > 0.999
    weak = Y.regime_classify(0.1, np.sqrt(0.1**3), ref_tables, ref_scenario.z0)
    assert weak.p_down < 0.1


def test_regime_prediction_is_read_at_the_frames_end(ref_scenario, ref_tables, ref_bath):
    # the default t is the frame's last time; a t past the frame raises
    # instead of extrapolating int beta, and t = 0 predicts no de-excitation
    z0 = ref_scenario.z0
    with pytest.raises(ValueError, match="outside"):
        Y.regime_classify(0.05, np.sqrt(0.05), ref_tables, z0, t=1.5)
    at_start = Y.regime_classify(0.05, np.sqrt(0.05), ref_tables, z0, t=0.0)
    assert at_start.p_down == pytest.approx(0.0, abs=1e-14)
    const = H.builtin_scenario("ww-const-2level")
    tables = Y.AsymptoticTables(const.frame(), ref_bath)
    default = Y.regime_classify(0.05, np.sqrt(0.05), tables=tables, z0=const.z0)
    at_end = Y.regime_classify(0.05, np.sqrt(0.05), tables=tables, z0=const.z0, t=20.0)
    assert default.p_down == at_end.p_down


def test_strong_coupling_survival_bound(ref_scenario, ref_tables):
    eps, lam = 0.01, np.sqrt(0.1)
    z = Y.leading_order_z(ref_tables, eps, lam, ref_scenario.z0, 1.0)
    min_decay = float(np.min(ref_tables.int_beta(1.0)))
    assert np.linalg.norm(z) <= np.exp(-(lam**2 / eps) * min_decay) + 1e-12


def test_semigroup_lambda_zero_matches_exponential(ref_bath):
    import scipy.linalg as sla
    a = np.diag([1.0, 2.0])
    v = np.array([1.0, 1.0])
    z0 = np.array([0.6, 0.8], dtype=complex)
    t = 4.2
    z = Y.semigroup_time_independent(a, v, ref_bath, 0.0, z0, t)
    assert np.allclose(z, sla.expm(-1j * t * a) @ z0, atol=1e-12)


def test_semigroup_generator_dissipative(ref_bath):
    a = np.diag([1.0, 2.0])
    v = np.array([1.0, 1.0])
    z0 = np.array([1.0, 0.0], dtype=complex)
    ts = np.linspace(0.0, 30.0, 61)
    z = Y.semigroup_time_independent(a, v, ref_bath, 0.1, z0, ts)
    norms = np.linalg.norm(z, axis=1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_semigroup_rejects_uncoupled_level(ref_bath):
    a = np.diag([-1.0, 2.0])   # negative frequency: outside the bath support
    with pytest.raises(WellCouplednessError):
        Y.semigroup_time_independent(a, np.array([1.0, 1.0]), ref_bath, 0.05,
                                     np.array([1.0, 0.0]), 1.0)
