"""The blocked-FFT Volterra history against a direct O(n^2) product-trapezoid loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given

from awwlab import atom as A, bath as B, reduced as R
from test_properties import DIMS, PROPERTY, SEEDS, frame_of, smooth_path, unit_z0


def direct_volterra(atom, frame, bath, eps, lam, z0, x_step):
    """The same Heun / product-trapezoid scheme with each history sum formed directly."""
    h = x_step * eps
    n = int(np.ceil(1.0 / h))
    ts = np.linspace(0.0, 1.0, n + 1)
    h = ts[1] - ts[0]
    free = R.PropagatorTable(atom, eps, 1.0, intervals=n)
    u_all = free.table[::free.sub]
    u = A.coupling_in_working_basis(atom, frame, ts)
    beta = np.einsum("kji,kj->ki", u_all.conj(), u)
    kernel = B.correlation(bath, ts / eps)
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


def test_history_sums_equal_the_direct_convolution():
    rng = np.random.default_rng(4)
    n = 37 * R.HISTORY_BLOCK + 5
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    g = rng.normal(size=n) + 1j * rng.normal(size=n)
    history = R._History(a, g)
    got = np.array([history(m) for m in range(1, n)])
    want = np.convolve(a, g)[1:n] - a[1:n] * g[0]      # sum over j < m only
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_reference_volterra_matches_the_direct_sum(ref_scenario, ref_frame):
    eps = 0.05
    traj = R.volterra_solve(ref_scenario.atom, ref_frame, ref_scenario.bath, eps,
                            np.sqrt(eps), ref_scenario.z0)
    assert len(traj.times) - 1 >= 8 * R.HISTORY_BLOCK   # three or more FFT block sizes
    want = direct_volterra(ref_scenario.atom, ref_frame, ref_scenario.bath, eps,
                           np.sqrt(eps), ref_scenario.z0, traj.meta["x_step"])
    assert np.max(np.abs(traj.z - want)) <= 1e-12


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_seeded_volterra_matches_the_direct_sum(d, seed):
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    z0 = unit_z0(d, seed)
    eps, lam, x_step = 0.1, np.sqrt(0.1), 0.01       # 1000 steps
    traj = R.volterra_solve(atom, frame, B.reference_bath(), eps, lam, z0, x_step=x_step)
    want = direct_volterra(atom, frame, B.reference_bath(), eps, lam, z0, x_step)
    assert np.max(np.abs(traj.z - want)) <= 1e-12
