import numpy as np
import pytest

from awwlab import atom as A, bath as B, emission as E, exact as X
from awwlab.errors import WellCouplednessError

ONE = B.TestObservable(weight=lambda w: np.ones_like(w))
OMEGA = B.TestObservable(weight=lambda w: np.asarray(w, dtype=float))


def test_average_vanishes_initially(exact_runner):
    traj, modes = exact_runner(0.05, float(np.sqrt(0.05)))
    avg = E.observable_average(traj, modes, ONE)
    assert avg[0] == 0.0


def test_normalization_identity(exact_runner):
    # <1>_t equals the lost atomic weight at every sample
    traj, modes = exact_runner(0.05, float(np.sqrt(0.05)))
    avg = E.observable_average(traj, modes, ONE)
    assert np.max(np.abs(avg - X.de_excitation(traj))) < 1e-8


def test_average_positive_for_positive_weight(exact_runner):
    traj, modes = exact_runner(0.05, float(np.sqrt(0.05)))
    assert np.all(E.observable_average(traj, modes, OMEGA) >= 0.0)


def test_energy_concentrates_near_transition_line(exact_runner):
    # the emitted quanta should carry frequency near alpha_1 = 1
    traj, modes = exact_runner(0.05, float(np.sqrt(0.05)))
    total = E.observable_average(traj, modes, ONE)[-1]
    mean_omega = E.observable_average(traj, modes, OMEGA)[-1] / total
    assert abs(mean_omega - 1.0) < 0.2


def test_regime_A_values(ref_frame, ref_bath):
    assert E.regime_A_limit(ref_frame, ref_bath, ONE, 0) == pytest.approx(1.0)
    # B(omega) = omega at alpha = 1: omega^3 e^-w / omega^2 e^-w = 1
    assert E.regime_A_limit(ref_frame, ref_bath, OMEGA, 0) == pytest.approx(1.0)
    zero = B.TestObservable(weight=lambda w: np.zeros_like(w))
    assert E.regime_A_limit(ref_frame, ref_bath, zero, 0) == 0.0


def test_regime_A_outside_support(ref_bath):
    compact = B.BathSpec(density=ref_bath.density, support_max=4.0,
                         quad_cutoff=4.0, decay_amplitude=ref_bath.decay_amplitude,
                         decay_power=ref_bath.decay_power)
    atom = A.complex_phase_atom(theta0=0.3, omega=1.0, levels=(5.0, 6.0))
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 101))
    with pytest.raises(WellCouplednessError):
        E.regime_A_limit(frame, compact, ONE, 0)


def test_regime_B_zero_time(ref_scenario, ref_frame):
    assert E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom,
                            ONE, 0, 1.0, 0.0) == 0.0


def test_regime_B_refuses_times_past_the_frame(ref_scenario, ref_frame):
    # past t = 1 the frame's splines would extrapolate
    with pytest.raises(ValueError, match="outside the frame's range"):
        E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom, ONE, 0, 1.0, 1.5)


def test_regime_B_monotone_and_bounded(ref_scenario, ref_frame):
    vals = [E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom,
                             ONE, 0, 1.0, t) for t in (0.25, 0.5, 0.75, 1.0)]
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] <= 1.0 + 1e-6


def test_regime_B_approaches_regime_A(ref_scenario, ref_frame):
    a_val = E.regime_A_limit(ref_frame, ref_scenario.bath, ONE, 0)
    b_vals = [E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom,
                               ONE, 0, r, 1.0) for r in (1.0, 10.0, 100.0, 1000.0)]
    gaps = np.abs(np.array(b_vals) - a_val)
    # the approach saturates at the quadrature level, so allow a tiny slack
    assert np.all(np.diff(gaps) < 1e-6)
    assert gaps[-1] < 0.01 * a_val


def test_regime_B_matches_exact_simulation(exact_runner):
    # r = 1 line: the limit law approximates the measured emission total
    rels = []
    for eps in (0.05, 0.02):
        traj, modes = exact_runner(eps, float(np.sqrt(eps)))
        avg = E.observable_average(traj, modes, ONE)[-1]
        pred = 0.9008830388557988   # regime_B_limit(ONE, r=1, t=1), frozen
        rels.append(abs(avg - pred) / pred)
    assert rels[0] < 0.15 and rels[1] < rels[0]
