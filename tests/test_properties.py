"""Property tests of the d-level claims on seeded smooth Hermitian paths, d = 2, 3, 4."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from awwlab import atom as A, bath as B, exact as E, reduced as R, spectral as S
from test_exact import density_rule_grid

# short, reproducible runs: a fixed example sequence and no example database
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True, database=None)
DIMS = st.sampled_from([2, 3, 4])
SEEDS = st.integers(0, 2**32 - 1)
EPS = 0.1
LAM2 = 0.05        # coupling of the oracle runs


def smooth_path(d, seed):
    """A(t) = U(t) diag(alpha(t)) U(t)^H with U(t) = exp(-i t H).

    Levels 1 + 0.6 j each drift by at most 0.1, so the gap stays >= 0.4 and
    the spectrum positive; H is a seeded Hermitian matrix of norm at most
    pi/2; the couplings have modulus in [0.3, 0.7] and a slow phase.
    """
    rng = np.random.default_rng(seed)
    amp, freq = rng.uniform(-0.1, 0.1, d), rng.uniform(0.5, 2.0, d)
    phase = rng.uniform(0.0, 2.0 * np.pi, d)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = 0.5 * (x + x.conj().T)
    herm *= rng.uniform(0.2, np.pi / 2.0) / np.linalg.norm(herm, 2)
    lam_h, vec_h = np.linalg.eigh(herm)
    mag, v_phase = rng.uniform(0.3, 0.7, d), rng.uniform(0.0, 2.0 * np.pi, d)

    def ham(t):
        t = np.asarray(t, dtype=float)[..., None]
        alphas = 1.0 + 0.6 * np.arange(d) + amp * np.sin(freq * t + phase)
        rot = (vec_h * np.exp(-1j * t * lam_h)[..., None, :]) @ vec_h.conj().T
        a = (rot * alphas[..., None, :]) @ np.swapaxes(rot.conj(), -1, -2)
        return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))

    def coupling(t):
        return mag * np.exp(1j * (v_phase + 0.3 * np.asarray(t, dtype=float)[..., None]))

    return A.AtomPath(dim=d, hamiltonian=ham, coupling=coupling)


def frame_of(atom):
    return A.eigenframe(atom, np.linspace(0.0, 1.0, 401))


def unit_z0(d, seed):
    z0 = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, d))
    return z0 / np.linalg.norm(z0)


def oracle_run(d, seed, modes=None):
    """The exact oracle at EPS, lam^2 = LAM2 on smooth_path(d, seed), with its inputs.

    modes defaults to discretize_bath's grid for EPS.
    """
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    bath = B.reference_bath()
    if modes is None:
        modes = E.discretize_bath(bath, EPS)
    traj = E.propagate_exact(atom, frame, modes, unit_z0(d, seed),
                             EPS, np.sqrt(LAM2), bath=bath, override_smallness=True)
    return atom, frame, bath, traj


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_propagator_table_is_unitary_and_at_composes(d, seed):
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    tab = R.PropagatorTable(frame, EPS, np.linspace(0.0, 1.0, 5))
    defect = np.einsum("kij,klj->kil", tab.table, tab.table.conj()) - np.eye(d)
    assert np.max(np.abs(defect)) < 1e-10
    # the table at an interval end agrees with a table whose last node is that time
    for t in np.linspace(0.0, 1.0, 5)[1:-1]:
        alone = R.PropagatorTable(frame, EPS, [0.0, t]).at(t)
        assert np.linalg.norm(tab.at(t) - alone) < 1e-7


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_volterra_without_coupling_is_the_free_propagator(d, seed):
    atom = smooth_path(d, seed)
    z0 = unit_z0(d, seed)
    frame = frame_of(atom)
    traj = R.volterra_solve(frame, B.reference_bath(), EPS, 0.0, z0)
    want = R.PropagatorTable(frame, EPS, [0.0, 1.0]).at(1.0) @ z0
    assert np.linalg.norm(traj.z[-1] - want) < 1e-7


@PROPERTY
@given(d=DIMS, seed=SEEDS, t=st.floats(0.2, 1.0))
def test_perturbed_projections_resolve_the_generator(d, seed, t):
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    g = R.EffectiveGenerator(atom, frame, B.reference_bath(), EPS, 0.1)(t)
    energies = frame.energies_at(t)
    pspec = S.perturbed_spectrum(g, energies, frame.vectors_at(t))
    projections = pspec.projections
    assert np.linalg.norm(projections.sum(axis=0) - np.eye(d)) < 1e-10
    for p in projections:
        assert np.linalg.norm(p @ p - p) < 1e-10
    assert np.linalg.norm(np.einsum("j,jkl->kl", pspec.eigenvalues, projections) - g) < 1e-10
    radius = 0.5 * float(np.min(np.diff(energies)))
    for j, p in enumerate(projections):
        riesz = S.riesz_projection(g, complex(energies[j]), radius)
        assert np.linalg.norm(riesz - p) < 1e-8


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_one_stacked_spectrum_is_the_per_time_spectra(d, seed):
    atom = smooth_path(d, seed)
    frame = frame_of(atom)
    ts = np.linspace(0.0, 1.0, 50)
    g = R.EffectiveGenerator(atom, frame, B.reference_bath(), EPS, 0.1)(ts)
    energies, vectors = frame.energies_at(ts), frame.vectors_at(ts)
    stack = S.perturbed_spectrum(g, energies, vectors)
    for k in range(len(ts)):
        one = S.perturbed_spectrum(g[k], energies[k], vectors[k])
        assert np.array_equal(stack.eigenvalues[k], one.eigenvalues)
        assert np.array_equal(stack.projections[k], one.projections)
    resolved = np.einsum("...j,...jkl->...kl", stack.eigenvalues, stack.projections)
    assert np.max(np.abs(resolved - g)) < 1e-10


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_oracle_conserves_the_norm(d, seed):
    traj = oracle_run(d, seed)[3]
    assert np.max(np.abs(traj.norm_defect)) <= 1e-8


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_volterra_converges_to_the_oracle_at_fourth_order(d, seed):
    atom, frame, bath, oracle = oracle_run(d, seed)
    dist = []
    for x_step in (0.05, 0.025):
        traj = R.volterra_solve(frame, bath, EPS, np.sqrt(LAM2), oracle.z[0],
                                x_step=x_step)
        dist.append(np.max(np.linalg.norm(traj.z_at(oracle.times) - oracle.z, axis=1)))
    assert dist[0] >= 10.0 * dist[1]


@PROPERTY
@given(d=DIMS, seed=SEEDS)
def test_oracle_on_the_default_grid_matches_a_denser_grid(d, seed):
    # discretize_bath's grid at EPS has 93 modes, the density rule's 160
    traj = oracle_run(d, seed)[3]
    dense = oracle_run(d, seed, density_rule_grid(B.reference_bath(), 1.0 / EPS))[3]
    assert traj.meta["modes"] < dense.meta["modes"]
    assert np.max(np.abs(traj.z - dense.z)) <= 1e-9
