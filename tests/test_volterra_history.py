"""The Volterra history summed by the bath's exponential-sum recursion, against
a direct O(n^2) product-trapezoid loop."""

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given

from awwlab import atom as A, bath as B, reduced as R
from awwlab.errors import AwwlabError
from test_properties import DIMS, PROPERTY, SEEDS, frame_of, smooth_path, unit_z0


def sum_kernel(bath):
    """x -> gamma(x) from the bath's exp_sum, the kernel volterra_solve steps on."""
    kern = B.exp_sum(bath)
    return lambda x: np.exp(-np.outer(x, kern.lam)) @ kern.c


def direct_volterra(atom, frame, gamma, eps, lam, z0, x_step):
    """The same Heun / product-trapezoid scheme with each history sum formed
    directly from the kernel gamma(x), a vectorized callable."""
    h = x_step * eps
    n = int(np.ceil(1.0 / h))
    ts = np.linspace(0.0, 1.0, n + 1)
    h = ts[1] - ts[0]
    free = R.PropagatorTable(atom, eps, 1.0, intervals=n)
    u_all = free.table[::free.sub]
    u = A.coupling_in_working_basis(atom, frame, ts)
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
    return np.einsum("kij,kj->ki", u_all, y)


def test_reference_volterra_matches_the_direct_sum(ref_scenario, ref_frame):
    eps = 0.05
    traj = R.volterra_solve(ref_scenario.atom, ref_frame, ref_scenario.bath, eps,
                            np.sqrt(eps), ref_scenario.z0)
    want = direct_volterra(ref_scenario.atom, ref_frame, sum_kernel(ref_scenario.bath),
                           eps, np.sqrt(eps), ref_scenario.z0, traj.meta["x_step"])
    assert np.max(np.abs(traj.z - want)) <= 1e-12


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_seeded_volterra_matches_the_direct_sum(d, seed):
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    z0 = unit_z0(d, seed)
    eps, lam, x_step = 0.1, np.sqrt(0.1), 0.01       # 1000 steps
    traj = R.volterra_solve(atom, frame, B.reference_bath(), eps, lam, z0, x_step=x_step)
    want = direct_volterra(atom, frame, sum_kernel(B.reference_bath()), eps, lam, z0, x_step)
    assert np.max(np.abs(traj.z - want)) <= 1e-12


def test_reference_volterra_is_within_the_sum_certificate_of_the_closed_form(
        ref_scenario, ref_frame):
    """The sum's kernel moves z by at most (lam^2/eps) max|u|^2 t_end l1_error
    from the direct loop on the closed-form correlation."""
    bath, eps = ref_scenario.bath, 0.05
    lam = np.sqrt(eps)
    traj = R.volterra_solve(ref_scenario.atom, ref_frame, bath, eps, lam, ref_scenario.z0)
    want = direct_volterra(ref_scenario.atom, ref_frame, lambda x: B.correlation(bath, x),
                           eps, lam, ref_scenario.z0, traj.meta["x_step"])
    u = A.coupling_in_working_basis(ref_scenario.atom, ref_frame, traj.times)
    bound = ((lam**2 / eps) * np.max(np.sum(np.abs(u) ** 2, axis=1)) * traj.times[-1]
             * B.exp_sum(bath).l1_error)
    assert np.max(np.abs(traj.z - want)) <= bound


def test_volterra_refuses_a_bath_without_an_exp_sum(ref_scenario, ref_frame):
    bath = dataclasses.replace(ref_scenario.bath, analytic=False)
    with pytest.raises(AwwlabError, match="exp_sum"):
        R.volterra_solve(ref_scenario.atom, ref_frame, bath, 0.1, np.sqrt(0.1),
                         ref_scenario.z0)
