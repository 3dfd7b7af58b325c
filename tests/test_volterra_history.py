"""The Volterra stepper's scalar-reduced ETDRK4 step against a plain full-state
ETDRK4 loop, and the bath's exponential sum against the closed-form kernel
through a direct O(n^2) Heun / product-trapezoid loop."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

pytest.importorskip("hypothesis")
from hypothesis import given

from awwlab import atom as A, bath as B, exact as E, reduced as R
from awwlab.errors import AwwlabError
from test_properties import DIMS, PROPERTY, SEEDS, frame_of, smooth_path, unit_z0


def sum_kernel(bath):
    """x -> gamma(x) from the bath's exp_sum, the kernel volterra_solve steps on."""
    kern = B.exp_sum(bath)
    return lambda x: np.exp(-np.outer(x, kern.lam)) @ kern.c


def phis(z):
    """(3, n) phi_1, phi_2, phi_3 of each entry of z: the top row of the
    exponential of [[z, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]."""
    out = []
    for value in z:
        aug = np.diag(np.ones(3, dtype=complex), 1)
        aug[0, 0] = value
        out.append(sla.expm(aug)[0, 1:])
    return np.array(out).T


def direct_etdrk4(atom, frame, bath, eps, lam, z0, x_step, t_out):
    """Cox & Matthews' ETDRK4 on the full state u = (y, m) of d + K entries:
    u' = L u + N(x, u) with L = diag(0, -lam_k) and
    N(x, u) = (-lam^2 beta(x) (c . m), <beta(x), y> for every k), then z on
    t_out as U_eps times the cubic Hermite interpolant of y through its values
    and slopes at the step ends, as volterra_solve returns it."""
    kern = B.exp_sum(bath)
    d, n_exp = atom.dim, len(kern.c)
    n = int(np.ceil(1.0 / (x_step * eps)))
    halves = np.linspace(0.0, 1.0, 2 * n + 1)
    free = R.PropagatorTable(frame, eps, np.union1d(halves, t_out))
    u = A.coupling_in_working_basis(frame, halves)
    beta = np.einsum("kji,kj->ki", free.at(halves).conj(), u)
    h = 1.0 / n / eps
    rates = np.concatenate([np.zeros(d), -kern.lam])
    e, e2 = np.exp(rates * h), np.exp(rates * h / 2)
    p1, p2, p3 = phis(rates * h)
    q = h / 2 * phis(rates * h / 2)[0]
    f1, f2, f3 = h * (p1 - 3 * p2 + 4 * p3), h * (p2 - 2 * p3), h * (4 * p3 - p2)

    def nonlinear(b, state):
        y, m = state[:d], state[d:]
        return np.concatenate([-lam**2 * b * (kern.c @ m), np.full(n_exp, np.vdot(b, y))])

    state = np.concatenate([z0, np.zeros(n_exp)])
    ys, slopes = [state[:d]], []
    for k in range(n):
        b0, b_mid, b1 = beta[2 * k], beta[2 * k + 1], beta[2 * k + 2]
        nu = nonlinear(b0, state)
        slopes.append(nu[:d])
        a = e2 * state + q * nu
        na = nonlinear(b_mid, a)
        b = e2 * state + q * na
        nb = nonlinear(b_mid, b)
        c = e2 * a + q * (2 * nb - nu)
        nc = nonlinear(b1, c)
        state = e * state + f1 * nu + 2 * f2 * (na + nb) + f3 * nc
        ys.append(state[:d])
    slopes.append(nonlinear(beta[-1], state)[:d])
    y_out = []
    for t in t_out:
        k = min(int(t * n), n - 1)
        th = t * n - k
        y0, y1, dy0, dy1 = ys[k], ys[k + 1], h * slopes[k], h * slopes[k + 1]
        y_out.append((2 * th**3 - 3 * th**2 + 1) * y0 + (th**3 - 2 * th**2 + th) * dy0
                     + (3 * th**2 - 2 * th**3) * y1 + (th**3 - th**2) * dy1)
    return np.einsum("kij,kj->ki", free.at(t_out), np.array(y_out))


def direct_heun(atom, frame, gamma, eps, lam, z0, x_step):
    """(times, z) of Heun stepping with a product-trapezoid history, each
    history sum formed directly from the kernel gamma(x), a vectorized callable."""
    h = x_step * eps
    n = int(np.ceil(1.0 / h))
    ts = np.linspace(0.0, 1.0, n + 1)
    h = ts[1] - ts[0]
    u_all = R.PropagatorTable(frame, eps, ts).at(ts)
    u = A.coupling_in_working_basis(frame, ts)
    beta = np.einsum("kji,kj->ki", u_all.conj(), u)
    kernel = gamma(ts / eps)
    rate = (lam / eps) ** 2
    y = np.empty((n + 1, atom.dim), dtype=complex)
    y[0] = z0
    inner = np.empty(n + 1, dtype=complex)
    inner[0] = np.vdot(beta[0], z0)

    def memory(k, last):
        if k == 0:
            return 0.0
        vals = inner[:k] * kernel[k:0:-1]
        return h * (vals.sum() + 0.5 * last * kernel[0] - 0.5 * vals[0])

    for k in range(n):
        f_k = -rate * beta[k] * memory(k, inner[k])
        inner_pred = np.vdot(beta[k + 1], y[k] + h * f_k)
        f_next = -rate * beta[k + 1] * memory(k + 1, inner_pred)
        y[k + 1] = y[k] + 0.5 * h * (f_k + f_next)
        inner[k + 1] = np.vdot(beta[k + 1], y[k + 1])
    return ts, np.einsum("kij,kj->ki", u_all, y)


def test_reference_volterra_matches_the_direct_sum(ref_scenario, ref_frame):
    eps = 0.05
    traj = R.volterra_solve(ref_frame, ref_scenario.bath, eps,
                            np.sqrt(eps), ref_scenario.z0)
    want = direct_etdrk4(ref_scenario.atom, ref_frame, ref_scenario.bath, eps,
                         np.sqrt(eps), ref_scenario.z0, traj.meta["x_step"], traj.times)
    assert np.max(np.abs(traj.z - want)) <= 1e-12


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_seeded_volterra_matches_the_direct_sum(d, seed):
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    z0 = unit_z0(d, seed)
    eps, lam, x_step = 0.1, np.sqrt(0.1), 0.01       # 1000 steps
    traj = R.volterra_solve(frame, B.reference_bath(), eps, lam, z0, x_step=x_step)
    want = direct_etdrk4(atom, frame, B.reference_bath(), eps, lam, z0, x_step, traj.times)
    assert np.max(np.abs(traj.z - want)) <= 1e-12


def test_reference_volterra_is_within_the_sum_certificate_of_the_closed_form(
        ref_scenario, ref_frame):
    """The sum's kernel moves z by at most (lam^2/eps) max|u|^2 t_end l1_error
    from the closed-form correlation, both through one Heun loop."""
    bath, eps = ref_scenario.bath, 0.05
    lam, x_step = np.sqrt(eps), eps / 2
    ts, got = direct_heun(ref_scenario.atom, ref_frame, sum_kernel(bath), eps, lam,
                          ref_scenario.z0, x_step)
    _, want = direct_heun(ref_scenario.atom, ref_frame, lambda x: B.correlation(bath, x),
                          eps, lam, ref_scenario.z0, x_step)
    u = A.coupling_in_working_basis(ref_frame, ts)
    bound = ((lam**2 / eps) * np.max(np.sum(np.abs(u) ** 2, axis=1)) * ts[-1]
             * B.exp_sum(bath).l1_error)
    assert np.max(np.abs(got - want)) <= bound


def test_volterra_steps_go_as_the_root_of_eps_and_output_on_the_grid(
        ref_scenario, ref_frame):
    atom, bath, z0 = ref_scenario.atom, ref_scenario.bath, ref_scenario.z0
    for eps, most in ((0.0125, 1500), (0.003125, 11500)):
        traj = R.volterra_solve(ref_frame, bath, eps, np.sqrt(eps), z0)
        assert traj.meta["x_step"] == R.X_STEP_FACTOR * np.sqrt(eps)
        assert traj.meta["steps"] == np.ceil(1.0 / (traj.meta["x_step"] * eps)) <= most
        assert np.array_equal(traj.times, E.output_grid(1.0))
    traj = R.volterra_solve(ref_frame, bath, 0.1, np.sqrt(0.1), z0, dt_out=0.03)
    assert np.array_equal(traj.times, E.output_grid(1.0, 0.03))


def test_volterra_refuses_a_bath_without_an_exp_sum(ref_scenario, ref_frame):
    bath = dataclasses.replace(ref_scenario.bath, analytic=False)
    with pytest.raises(AwwlabError, match="exp_sum"):
        R.volterra_solve(ref_frame, bath, 0.1, np.sqrt(0.1),
                         ref_scenario.z0)
