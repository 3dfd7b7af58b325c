"""The frame's running integrals in t (Berry phase and the asymptotic tables)
and the leading-order layer built on them, on two- and three-level paths."""

import dataclasses

import numpy as np
import pytest

from awwlab import asymptotics as Y, atom as A, bath as B, emission as E
from test_magnus import three_level_atom


@pytest.fixture(scope="module")
def d3_frame(tmp_path_factory):
    atom = three_level_atom(tmp_path_factory.mktemp("d3") / "atom.csv")
    return A.eigenframe(atom, np.linspace(0.0, 1.0, 801))


@pytest.fixture(scope="module")
def d3_z0():
    rng = np.random.default_rng(11)
    z0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z0 / np.linalg.norm(z0)


def test_berry_phase_between_grid_nodes_matches_the_analytic_phase():
    theta0, omega = 0.6, 2.0
    frame = A.eigenframe(A.complex_phase_atom(theta0, omega), np.linspace(0.0, 1.0, 801))
    ts = np.sort(np.random.default_rng(7).uniform(0.0, 1.0, 2003))
    want = omega * ts * np.sin(theta0) ** 2
    for j, sign in ((0, -1.0), (1, 1.0)):
        got = np.array([A.berry_phase(frame, j, t) for t in ts])
        assert np.max(np.abs(got - sign * want)) < 1e-11


def test_leading_order_rejects_an_atom_that_is_not_the_frames(ref_scenario, ref_frame):
    other = dataclasses.replace(ref_scenario.atom,
                                coupling=lambda t: np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Y.leading_order_z(ref_frame, ref_scenario.bath, other, 0.05, 0.1,
                          ref_scenario.z0, 1.0)
    one = B.TestObservable(weight=lambda w: np.ones_like(w))
    with pytest.raises(ValueError):
        E.regime_B_limit(ref_frame, ref_scenario.bath, other, one, 0, 1.0, 1.0)


def test_leading_order_calls_berry_phase_once_per_level(ref_scenario, ref_frame,
                                                        monkeypatch):
    calls = []

    def counting(frame, j, t):
        calls.append(j)
        return A.berry_phase(frame, j, t)

    monkeypatch.setattr(Y, "berry_phase", counting)
    Y.leading_order_z(ref_frame, ref_scenario.bath, ref_scenario.atom, 0.05, 0.1,
                      ref_scenario.z0, np.linspace(0.0, 1.0, 201))
    assert sorted(calls) == [0, 1]


def test_three_level_leading_order_initial_value(d3_frame, ref_bath, d3_z0):
    z = Y.leading_order_z(d3_frame, ref_bath, d3_frame.atom, 0.05, 0.125, d3_z0, 0.0)
    assert np.max(np.abs(z - d3_z0)) < 1e-12


def test_three_level_leading_order_norm_formula(d3_frame, ref_bath, d3_z0):
    eps, lam = 0.05, 0.125
    ts = np.linspace(0.0, 1.0, 11)
    z = Y.leading_order_z(d3_frame, ref_bath, d3_frame.atom, eps, lam, d3_z0, ts)
    weights = np.abs(d3_frame.vectors_at(0.0).conj().T @ d3_z0) ** 2
    decay = np.exp(-2.0 * (lam**2 / eps) * Y.AsymptoticTables(d3_frame, ref_bath).int_beta(ts))
    assert np.max(np.abs(np.sum(np.abs(z) ** 2, axis=1) - decay @ weights)) < 1e-10
    assert np.all(decay[-1] < 1.0)    # every level decays on this path


def test_three_level_leading_order_batch_equals_per_time_calls(d3_frame, ref_bath, d3_z0):
    ts = np.linspace(0.0, 1.0, 37)
    batch = Y.leading_order_z(d3_frame, ref_bath, d3_frame.atom, 0.05, 0.125, d3_z0, ts)
    single = np.array([Y.leading_order_z(d3_frame, ref_bath, d3_frame.atom, 0.05, 0.125,
                                         d3_z0, t) for t in ts])
    assert batch.shape == single.shape == (len(ts), 3)
    assert np.max(np.abs(batch - single)) < 1e-14
