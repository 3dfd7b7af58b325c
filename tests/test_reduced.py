import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from awwlab import asymptotics as Y, atom as A, bath as B, exact as E, reduced as R
from awwlab.errors import DiscretizationError


def test_propagator_unitary_and_flow(ref_frame):
    eps = 0.05
    tab = R.PropagatorTable(ref_frame, eps, [0.0, 0.5, 1.0])
    u1 = tab.at(1.0)
    assert np.allclose(u1 @ u1.conj().T, np.eye(2), atol=1e-10)
    # U(1, 0.5) U(0.5, 0) with U(t, s) = at(t) at(s)^H
    comp = (tab.at(1.0) @ tab.at(0.5).conj().T) @ (tab.at(0.5) @ tab.at(0.0).conj().T)
    assert np.linalg.norm(comp - u1) < 1e-8
    assert np.allclose(tab.at(0.0), np.eye(2))


def test_propagator_constant_hamiltonian_closed_form():
    atom = A.diag_rotation_atom(
        level_funcs=(lambda t: 1.0, lambda t: 2.0),
        theta_func=lambda t: 0.3,
        coupling_func=lambda t: np.array([1.0, 1.0]),
    )
    eps, t = 0.1, 0.7
    want = sla.expm(-1j * t / eps * atom.matrix(0.0))
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 11))
    got = R.PropagatorTable(frame, eps, [0.0, t]).at(t)
    assert np.linalg.norm(got - want) < 1e-8


def test_effective_generator_refuses_an_atom_that_is_not_the_frames(ref_scenario,
                                                                    ref_frame):
    # an equal path that is not the frame's own fails when the generator is
    # built, even at lam = 0, where no call would read u(t)
    other = dataclasses.replace(ref_scenario.atom)
    for lam in (0.0, 0.3):
        with pytest.raises(ValueError, match="frame.atom"):
            R.EffectiveGenerator(other, ref_frame, ref_scenario.bath, 0.1, lam)


def test_volterra_lambda_zero_is_free_motion(ref_scenario, ref_frame):
    traj = R.volterra_solve(ref_frame, ref_scenario.bath,
                            0.1, 0.0, ref_scenario.z0)
    u = R.PropagatorTable(ref_frame, 0.1, [0.0, 1.0]).at(1.0)
    assert np.linalg.norm(traj.z[-1] - u @ ref_scenario.z0) < 1e-8
    assert np.max(np.abs(np.linalg.norm(traj.z, axis=1) - 1.0)) < 1e-10


def test_volterra_matches_exact_oracle(ref_scenario, ref_frame, exact_runner):
    eps = 0.05
    traj_e, _ = exact_runner(eps, float(np.sqrt(eps)))
    traj_v = R.volterra_solve(ref_frame, ref_scenario.bath,
                              eps, np.sqrt(eps), ref_scenario.z0)
    err = np.max(np.linalg.norm(traj_v.z_at(traj_e.times) - traj_e.z, axis=1))
    assert err < 5e-4


def test_volterra_norm_monotone(ref_scenario, ref_frame):
    traj = R.volterra_solve(ref_frame, ref_scenario.bath,
                            0.05, np.sqrt(0.05), ref_scenario.z0)
    norms = np.linalg.norm(traj.z, axis=1)
    assert np.max(np.diff(norms)) < 1e-6


def test_effective_generator_lambda_zero(ref_scenario, ref_frame):
    g = R.EffectiveGenerator(ref_scenario.atom, ref_frame, ref_scenario.bath,
                             0.05, 0.0)(0.4)
    assert np.allclose(g, ref_scenario.atom.matrix(0.4))


def test_effective_generator_rank_one_closed_form(ref_bath):
    # d = 1: G = alpha - i lam^2 |v|^2 I(t/eps, alpha)
    alpha, v, eps, lam, t = 1.3, 0.8, 0.05, 0.2, 0.6
    atom = A.AtomPath(dim=1,
                      hamiltonian=lambda s: np.array([[alpha]]),
                      coupling=lambda s: np.array([v]))
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 51))
    g = R.EffectiveGenerator(atom, frame, ref_bath, eps, lam)(t)
    want = alpha - 1j * lam**2 * v**2 * B.half_line_transform(ref_bath, alpha, t / eps)
    assert abs(g[0, 0] - want) < 1e-8


def test_effective_generator_distance_bound(ref_scenario, ref_frame):
    lam2 = 1.0 / 64
    gen = R.EffectiveGenerator(ref_scenario.atom, ref_frame, ref_scenario.bath,
                               0.05, np.sqrt(lam2))
    bound = lam2 * 2.0 * B.correlation_l1_norm(ref_scenario.bath)
    for t in np.linspace(0.0, 1.0, 21):
        dist = np.linalg.norm(gen(t) - ref_scenario.atom.matrix(t), 2)
        assert dist <= bound + 1e-10


def test_gamma_operator_norm_bound(ref_scenario, ref_frame):
    gen = R.EffectiveGenerator(ref_scenario.atom, ref_frame, ref_scenario.bath,
                               0.05, 0.1)
    for t in np.linspace(0.0, 1.0, 21):
        # Gamma(t) = sum_j I_j P_j(t)
        vecs = gen.frame.vectors_at(t)
        gamma = (vecs * gen.transforms(t)) @ vecs.conj().T
        assert np.linalg.norm(gamma, 2) <= B.correlation_l1_norm(ref_scenario.bath) + 1e-10


def test_generator_on_a_d3_path_equals_per_level_transforms(d3_frame, ref_bath):
    # off the frame's nodes, G is A - i lam^2 |u><u| sum_j I_j P_j with each
    # I_j one scalar half_line_transform call
    eps, lam = 0.0125, 0.125
    atom = d3_frame.atom
    gen = R.EffectiveGenerator(atom, d3_frame, ref_bath, eps, lam)
    ts = d3_frame.times[:-1:50] + 0.37 * d3_frame.step
    for t, g in zip(ts, gen(ts)):
        vecs = d3_frame.vectors_at(t)
        i_vals = [B.half_line_transform(ref_bath, a, t / eps) for a in d3_frame.energies_at(t)]
        gamma = sum(i_j * np.outer(vecs[:, j], vecs[:, j].conj())
                    for j, i_j in enumerate(i_vals))
        u = A.coupling_in_working_basis(d3_frame, t)
        want = atom.matrix(t) - 1j * lam**2 * np.outer(u, u.conj() @ gamma)
        assert np.max(np.abs(g - want)) < 1e-13


def test_transforms_run_in_blocks(d3_frame, ref_bath):
    # 15 000 times of 3 levels: all at once, the sum's (45 000, K) temporaries
    # would take 45 000 * K * 16 bytes each (115 MB at K = 160)
    gen = R.EffectiveGenerator(d3_frame.atom, d3_frame, ref_bath, 0.003125, 0.125)
    ts = np.linspace(0.0, 1.0, 15000)
    gen.transforms(ts[:2])                      # the sum is built on first use
    tracemalloc.start()
    try:
        vals = gen.transforms(ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vals.shape == (15000, 3)
    assert peak < 8 * vals.nbytes


def test_effective_solve_lambda_zero(ref_scenario, ref_frame):
    traj = R.effective_solve(ref_frame, ref_scenario.bath,
                             0.1, 0.0, ref_scenario.z0)
    u = R.PropagatorTable(ref_frame, 0.1, [0.0, 1.0]).at(1.0)
    assert np.linalg.norm(traj.z[-1] - u @ ref_scenario.z0) < 1e-7


def test_effective_close_to_volterra(ref_scenario, ref_frame):
    errs = []
    for eps in (0.1, 0.05):
        lam = np.sqrt(eps)
        tv = R.volterra_solve(ref_frame, ref_scenario.bath,
                              eps, lam, ref_scenario.z0)
        te = R.effective_solve(ref_frame, ref_scenario.bath,
                               eps, lam, ref_scenario.z0)
        errs.append(np.max(np.linalg.norm(te.z_at(tv.times) - tv.z, axis=1)))
    # O(eps) proximity along the Davies line
    assert errs[0] < 0.2 and errs[1] < 0.6 * errs[0]


def test_reduced_solvers_run_on_complex_phase_atom(ref_bath):
    # a provider-gauged path with a complex eigenvector phase, batched
    # through magnus_propagate, the Volterra beta and the effective generator
    atom = A.complex_phase_atom(theta0=np.pi / 4, omega=1.0)
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 801))
    eps, lam = 0.1, np.sqrt(1.0 / 64)
    z0 = frame.vectors[0][:, 0]
    modes = E.discretize_bath(ref_bath, eps)
    oracle = E.propagate_exact(atom, frame, modes, z0, eps, lam, bath=ref_bath)
    volt = R.volterra_solve(frame, ref_bath, eps, lam, z0)
    eff = R.effective_solve(frame, ref_bath, eps, lam, z0)
    ts = oracle.times
    assert np.max(np.linalg.norm(volt.z_at(ts) - oracle.z, axis=1)) < 1e-3
    assert np.max(np.linalg.norm(eff.z_at(ts) - oracle.z, axis=1)) < 2e-2


def test_solvers_run_over_the_frame_and_not_past_it(ref_scenario, ref_frame):
    # the reference frame covers [0, 1]; past it the eigenvector splines extrapolate
    atom, bath, z0 = ref_scenario.atom, ref_scenario.bath, ref_scenario.z0
    eps = 0.1
    lam = float(np.sqrt(eps))
    modes = E.discretize_bath(bath, eps)
    # the reduced solvers take no t_end: they run over the frame's whole span
    for name, solve in (("volterra", R.volterra_solve), ("effective", R.effective_solve)):
        assert solve(ref_frame, bath, eps, lam, z0).times[-1] == 1.0, name

    def exact(**kw):
        return E.propagate_exact(atom, ref_frame, modes, z0, eps, lam, bath=bath,
                                 override_smallness=True, **kw)

    with pytest.raises(ValueError, match="outside the frame"):
        exact(t_end=1.5)
    full, explicit = exact(), exact(t_end=1.0)
    assert full.times[-1] == 1.0
    assert np.array_equal(full.z, explicit.z)
    with pytest.raises(ValueError, match="outside the frame"):
        R.EffectiveGenerator(atom, ref_frame, bath, eps, lam, t_end=1.5)
    gen = R.EffectiveGenerator(atom, ref_frame, bath, eps, lam)
    assert np.array_equal(gen.transforms(1.0), B.half_line_transform(
        bath, ref_frame.energies_at(1.0), 1.0 / eps))
    with pytest.raises(ValueError, match="outside the frame"):
        gen.transforms(1.5)
    with pytest.raises(ValueError, match="outside the frame"):
        A.coupling_in_working_basis(ref_frame, 1.5)
    with pytest.raises(ValueError, match="outside the frame"):
        A.coupling_in_working_basis(ref_frame, np.array([0.5, 1.5]))


@pytest.mark.parametrize("solver", ["exact", "generator"])
def test_solvers_refuse_an_empty_span(ref_scenario, ref_frame, solver):
    atom, bath, z0 = ref_scenario.atom, ref_scenario.bath, ref_scenario.z0
    eps = 0.1
    lam = float(np.sqrt(eps))
    solve = {
        "exact": lambda: E.propagate_exact(atom, ref_frame, E.discretize_bath(bath, eps),
                                           z0, eps, lam, t_end=0.0, bath=bath,
                                           override_smallness=True),
        "generator": lambda: R.EffectiveGenerator(atom, ref_frame, bath, eps, lam, t_end=0.0),
    }[solver]
    with pytest.raises(ValueError, match="empty span"):
        solve()


def test_output_step_past_the_run_gives_one_step(ref_scenario, ref_frame):
    # round(t_end/dt_out) is 0 for dt_out = 2; the grid still takes one step to t_end
    atom, bath, z0 = ref_scenario.atom, ref_scenario.bath, ref_scenario.z0
    eps = 0.1
    lam = float(np.sqrt(eps))
    long_step = R.effective_solve(ref_frame, bath, eps, lam, z0, dt_out=2.0)
    one_step = R.effective_solve(ref_frame, bath, eps, lam, z0, dt_out=1.0)
    assert np.array_equal(long_step.times, [0.0, 1.0])
    assert np.array_equal(long_step.z, one_step.z)


def test_a_bath_without_an_exp_sum_is_refused_by_name(quad_bath, ref_frame, d3_frame):
    # every reduced description reads the bath through its exp_sum: a bath
    # without one is refused alike, naming it, by each of them
    eps, lam = 0.1, np.sqrt(0.1)
    calls = [lambda: B.half_line_transform(quad_bath, 1.0, 20.0),
             lambda: B.decay_and_shift(quad_bath, 1.0, 1.0),
             lambda: Y.semigroup_time_independent(np.diag([1.0, 2.0]), np.ones(2),
                                                  quad_bath, lam, np.eye(2)[0], 1.0)]
    for frame in (ref_frame, d3_frame):
        z0 = np.eye(frame.dim, dtype=complex)[0]
        calls += [
            lambda f=frame: R.EffectiveGenerator(f.atom, f, quad_bath, eps, lam)(0.5),
            lambda f=frame, z0=z0: R.effective_solve(f, quad_bath, eps, lam, z0),
            lambda f=frame, z0=z0: Y.leading_order_z(Y.AsymptoticTables(f, quad_bath),
                                                     eps, lam, z0, 0.5),
            lambda f=frame, z0=z0: R.volterra_solve(f, quad_bath, eps, lam, z0),
        ]
    for call in calls:
        with pytest.raises(DiscretizationError, match="exp_sum"):
            call()
