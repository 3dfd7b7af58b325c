"""The shared Magnus kernel and the array-of-times contract of AtomPath it
relies on, on two- and three-level paths."""

import numpy as np
import pytest
import scipy.linalg as sla

from awwlab import atom as A, reduced as R
from awwlab.errors import ResolutionError


def three_level_atom(path, seed=3, rows=401):
    """Seeded smooth path A(t) = U(t) diag(alpha(t)) U(t)^H via tabulated_atom.

    Levels 1.0, 1.8, 2.6 drift by at most 0.08, so the gap stays >= 0.64;
    U(t) = exp(-i t H) with a seeded Hermitian H of norm pi/4 turns the
    eigenvectors through complex directions.
    """
    rng = np.random.default_rng(seed)
    d = 3
    ts = np.linspace(0.0, 1.0, rows)
    alphas = np.array([1.0, 1.8, 2.6]) + 0.08 * np.sin(
        np.pi * ts[:, None] + rng.uniform(0.0, 2.0 * np.pi, d))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = 0.5 * (x + x.conj().T)
    herm *= (np.pi / 4.0) / np.linalg.norm(herm, 2)
    lam_h, vec_h = np.linalg.eigh(herm)
    rot = np.einsum("ij,kj,lj->kil", vec_h, np.exp(-1j * np.outer(ts, lam_h)),
                    vec_h.conj())
    mats = np.einsum("kij,kj,klj->kil", rot, alphas, rot.conj())
    coup = 0.5 * np.exp(1j * (0.3 * ts[:, None] + rng.uniform(0.0, 2.0 * np.pi, d)))
    cols = [ts]
    cols += [f(mats[:, i, j]) for i in range(d) for j in range(d) for f in (np.real, np.imag)]
    cols += [f(coup[:, j]) for j in range(d) for f in (np.real, np.imag)]
    np.savetxt(path, np.column_stack(cols), delimiter=",", header="t,...", comments="")
    return A.tabulated_atom(path)


def test_constant_non_hermitian_generator_is_exact():
    # the effective_solve case: G = H - i Gamma, stepped on an uneven grid
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    g = 0.5 * (x + x.conj().T) - 0.3j * np.outer(v, v.conj())
    eps = 0.1
    grid = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 60)]))
    u = A.magnus_propagate(lambda t: g, grid, -1j / eps)
    assert u.shape == (len(grid), 3, 3)
    for k in (0, 17, len(grid) - 1):
        want = sla.expm(-1j / eps * grid[k] * g)
        assert np.linalg.norm(u[k] - want) < 1e-10 * max(1.0, np.linalg.norm(want))


def test_products_compose_across_a_split_grid(ref_scenario):
    matfun = ref_scenario.atom.matrix
    grid = np.linspace(0.0, 1.0, 201)
    scale = -1j / 0.05
    full = A.magnus_propagate(matfun, grid, scale)
    m = 73
    rest = A.magnus_propagate(matfun, grid[m:], scale)
    assert np.linalg.norm(rest[-1] @ full[m] - full[-1]) < 1e-12


@pytest.mark.parametrize("hermitian", [True, False], ids=["anti-hermitian", "general"])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_batched_exponential_matches_scipy_matrix_by_matrix(hermitian, d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(400, d, d)) + 1j * rng.normal(size=(400, d, d))
    if hermitian:
        x = 0.5 * (x - np.swapaxes(x.conj(), 1, 2))
    # 1-norms from 1e-4 to 20: every Pade degree, and scaling and squaring
    # for the matrices beyond the degree-13 threshold
    norms = np.abs(x).sum(axis=1).max(axis=1)
    x *= (np.geomspace(1e-4, 20.0, 400) / norms)[:, None, None]
    got = A._expm(x)
    want = sla.expm(x)
    rel = np.linalg.norm(got - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.max(rel) <= 1e-13
    for top in (1e-3, 0.2, 0.9, 2.0):   # one stack per Pade degree below 13
        small = x[np.abs(x).sum(axis=1).max(axis=1) <= top]
        assert np.max(np.abs(A._expm(small) - sla.expm(small))) <= 1e-13


def test_propagator_table_rejects_times_outside_its_range(ref_frame):
    # the table holds U_eps at its stops alone: at() reads exactly those
    stops = np.array([0.0, 0.1, 0.35, 0.7, 1.0])
    tab = R.PropagatorTable(ref_frame, 0.05, stops)
    assert np.array_equal(tab.times, stops) and len(tab.table) == len(stops)
    assert np.array_equal(tab.at(stops), tab.table)
    assert np.array_equal(tab.at(stops[2]), tab.table[2])
    between = 0.5 * (stops[:-1] + stops[1:])
    for t in (-1e-3, *between, 1.0 + 1e-9, 1.5):
        with pytest.raises(ValueError, match="not a node"):
            tab.at(t)


def test_propagator_table_refuses_a_stop_past_its_frame(ref_frame):
    with pytest.raises(ValueError, match="outside the frame's range"):
        R.PropagatorTable(ref_frame, 0.05, [0.0, 0.5, 1.5])


def bump_atom():
    """ww-ref-2level with 0.5 exp(-((t - 33/64)/0.01)^2) added to the upper level:
    ||A(t)|| peaks at t = 33/64, off every time k/32 and every frame node k/800."""
    def upper(t):
        return 2.0 + 0.3 * t + 0.5 * np.exp(-((t - 33.0 / 64.0) / 0.01) ** 2)

    return A.diag_rotation_atom(level_funcs=(lambda t: 1.0, upper),
                                theta_func=lambda t: np.pi * t / 4.0,
                                coupling_func=lambda t: np.array([1.0, 1.0]))


def test_magnus_steps_resolve_a_peak_of_the_path(monkeypatch, ref_bath):
    # every step of the free and the effective propagation turns at most
    # PHASE_PER_STEP, with ||A|| the largest at the step's ends and middle
    atom, eps = bump_atom(), 0.05
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 801))
    grids, real = [], A.magnus_propagate

    def spy(matfun, grid, scale=1.0):
        grids.append(np.asarray(grid))
        return real(matfun, grid, scale)

    monkeypatch.setattr(R, "magnus_propagate", spy)
    R.PropagatorTable(frame, eps, [0.0, 1.0])
    R.effective_solve(frame, ref_bath, eps, 0.1, np.array([1.0, 0.0]))
    assert len(grids) == 2
    for grid in grids:
        ends_and_middles = np.stack([grid[:-1], 0.5 * (grid[:-1] + grid[1:]), grid[1:]])
        a_norm = np.max(np.linalg.norm(atom.matrix(ends_and_middles), 2, axis=(-2, -1)), axis=0)
        assert np.max(a_norm * np.diff(grid) / eps) <= 1.01 * A.PHASE_PER_STEP


def test_fine_grid_keeps_the_stops_and_splits_each_gap_evenly(ref_scenario, ref_frame):
    eps = 0.05
    stops = np.concatenate([np.linspace(0.0, 0.5, 21), [0.53, 0.9, 1.0]])
    h_max = A.PHASE_PER_STEP * eps / ref_frame.a_norm
    grid, at = A.fine_grid(stops, h_max)
    assert np.array_equal(grid[at], stops)
    for k, gap in enumerate(np.diff(stops)):
        steps = np.diff(grid[at[k]:at[k + 1] + 1])
        n = len(steps)            # the fewest: n - 1 equal steps would be too long
        assert np.max(steps) <= h_max * (1.0 + 1e-12) and (n == 1 or gap / (n - 1) > h_max)
        assert np.allclose(steps, gap / n, rtol=1e-12, atol=0.0)
    a_norm = np.max(np.linalg.norm(ref_scenario.atom.matrix(grid), 2, axis=(-2, -1)))
    assert a_norm * np.max(np.diff(grid)) / eps <= A.PHASE_PER_STEP * (1.0 + 1e-9)


def test_fine_grid_merges_close_stops_and_keeps_stops_alone_at_infinity():
    grid, at = A.fine_grid([0.0, 0.5, 0.5 + 5e-14, 1.0], 0.3)
    assert np.array_equal(grid[at], [0.0, 0.5, 1.0])
    assert np.array_equal(at, [0, 2, 4])
    stops = np.linspace(0.0, 1.0, 7)
    grid, at = A.fine_grid(stops, np.inf)
    assert np.array_equal(grid, stops) and np.array_equal(at, np.arange(7))


def test_three_level_propagator_table_stays_unitary(d3_frame):
    tab = R.PropagatorTable(d3_frame, 0.05, np.linspace(0.0, 1.0, 41))
    defect = np.einsum("kij,klj->kil", tab.table, tab.table.conj()) - np.eye(3)
    assert np.max(np.abs(defect)) < 1e-10


def test_three_level_kato_transport_matches_berry_gauge(tmp_path):
    atom = three_level_atom(tmp_path / "atom.csv")
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 801))
    for t in (0.3, 0.75, 1.0):
        moved = A.kato_intertwiner(frame, t) @ frame.vectors_at(0.0)
        phases = np.array([A.berry_phase(frame, j, t) for j in range(3)])
        want = frame.vectors_at(t) * np.exp(1j * phases)[None, :]
        assert np.max(np.linalg.norm(moved - want, axis=0)) < 1e-6
    # the transport is far from the identity on this path
    assert np.min(np.linalg.norm(moved - frame.vectors_at(0.0), axis=0)) > 0.1


def test_volterra_rejects_a_history_grid_over_half_a_radian(ref_scenario, ref_frame):
    # x_step = 1 at eps = 0.1: about 2.3 rad of fast phase per history node
    with pytest.raises(ResolutionError):
        R.volterra_solve(ref_frame, ref_scenario.bath, 0.1,
                         np.sqrt(0.1), ref_scenario.z0, x_step=1.0)


def constant_atom():
    return A.AtomPath(dim=2,
                      hamiltonian=lambda t: np.array([[1.0, 0.2j], [-0.2j, 2.0]]),
                      coupling=lambda t: np.array([0.5, 1.0j]))


@pytest.mark.parametrize("make", [
    pytest.param(lambda path: A.diag_rotation_atom(
        level_funcs=(lambda t: 1.0, lambda t: 2.0 + 0.3 * t),
        theta_func=lambda t: np.pi * t / 4.0,
        coupling_func=lambda t: np.array([1.0, 1.0])), id="diag_rotation"),
    pytest.param(lambda path: A.complex_phase_atom(theta0=0.3, omega=1.7), id="complex_phase"),
    pytest.param(three_level_atom, id="tabulated-d3"),
    pytest.param(lambda path: constant_atom(), id="constant"),
])
def test_batched_matrix_and_couplings_equal_scalar_calls(tmp_path, make):
    atom = make(tmp_path / "atom.csv")
    ts = np.linspace(0.0, 1.0, 37)
    d = atom.dim
    assert atom.matrix(ts).shape == (37, d, d)
    assert atom.couplings(ts).shape == (37, d)
    assert np.array_equal(atom.matrix(ts), np.array([atom.matrix(t) for t in ts]))
    assert np.array_equal(atom.couplings(ts), np.array([atom.couplings(t) for t in ts]))
    assert atom.matrix(ts.reshape(37, 1)).shape == (37, 1, d, d)


def test_one_non_hermitian_matrix_fails_the_batch():
    def ham(t):
        a = np.zeros(np.shape(t) + (2, 2), dtype=complex)
        a[..., 0, 0], a[..., 1, 1] = 1.0, 2.0
        a[..., 0, 1] = np.where(np.asarray(t) > 0.5, 1e-6, 0.0)   # a[1, 0] stays 0
        return a

    atom = A.AtomPath(dim=2, hamiltonian=ham, coupling=lambda t: np.array([1.0, 1.0]))
    atom.matrix(np.linspace(0.0, 0.5, 11))
    with pytest.raises(ValueError, match="not Hermitian"):
        atom.matrix(np.linspace(0.0, 1.0, 11))


@pytest.mark.parametrize("ham, t", [
    (lambda t: np.eye(3), 0.5),                                   # 3 x 3 for two levels
    (lambda t: np.ones((1, 2, 2)), np.linspace(0.0, 1.0, 11)),    # one matrix for 11 times
], ids=["three-levels", "one-for-many"])
def test_a_hamiltonian_of_the_wrong_shape_fails(ham, t):
    atom = A.AtomPath(dim=2, hamiltonian=ham, coupling=lambda t: np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="has shape"):
        atom.matrix(t)


def test_magnus_propagate_calls_matfun_once(ref_scenario):
    calls = []

    def counted(t):
        calls.append(np.shape(t))
        return ref_scenario.atom.matrix(t)

    u = A.magnus_propagate(counted, np.linspace(0.0, 1.0, 101), -1j / 0.05)
    assert calls == [(200,)]
    assert np.max(np.abs(u[-1] @ u[-1].conj().T - np.eye(2))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1000])
def test_blocked_running_product_matches_the_step_by_step_product(n):
    # magnus_propagate's products come in blocks of floor(sqrt(n)) steps; with
    # a damping term the steps are not unitary, as for the effective generator
    rng = np.random.default_rng(n)
    x, y = (rng.normal(size=(2, n, 3, 3)) + 1j * rng.normal(size=(2, n, 3, 3)))
    steps = A._expm(0.05 * (x - np.swapaxes(x.conj(), 1, 2))
                    - 0.01 * y @ np.swapaxes(y.conj(), 1, 2))
    want = [np.eye(3)]
    for step in steps:
        want.append(step @ want[-1])
    assert np.max(np.abs(A._running_product(steps) - np.array(want))) <= 1e-13


def test_three_level_frame_keeps_the_scipy_gauge_at_t0(tmp_path):
    # the coupling amplitudes are defined against these columns
    atom = three_level_atom(tmp_path / "atom.csv")
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 801))
    assert np.array_equal(frame.vectors[0], sla.eigh(atom.matrix(0.0))[1])
