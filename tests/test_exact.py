import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.special import roots_legendre

from awwlab import bath as B, exact as X, harness as H
from awwlab.errors import (CouplingValidationError, DiscretizationError, ResolutionError,
                           StiffnessError)


def test_mode_grid_reproduces_correlation(ref_bath):
    modes = X.discretize_bath(ref_bath, 0.05)
    xs = np.linspace(0.0, 20.0, 313)
    discrete = np.exp(-1j * np.outer(xs, modes.omegas)) @ modes.couplings**2
    err = np.max(np.abs(discrete - B.correlation(ref_bath, xs)))
    assert err < 1e-4
    assert modes.achieved_error < 1e-4
    assert np.all(modes.weights > 0.0)
    assert np.all(np.diff(modes.omegas) > 0.0)


def density_rule_grid(bath, horizon):
    """The Gauss-Legendre grid of max(32, 2 cutoff horizon / pi) nodes, a spacing
    of about pi / (2 horizon) over [0, cutoff]; its error is not measured."""
    cutoff = bath.quad_cutoff
    nodes, wts = roots_legendre(max(32, math.ceil(2.0 * cutoff * horizon / np.pi)))
    omegas = 0.5 * cutoff * (nodes + 1.0)
    weights = 0.5 * cutoff * wts
    return X.ModeGrid(omegas=omegas, weights=weights,
                      couplings=np.sqrt(weights * bath.rho(omegas)),
                      horizon=horizon, achieved_error=np.nan)


def _kernel_error(bath, omegas, g2, xs):
    """max |gamma_N - gamma| over xs, in row blocks of at most 256 times."""
    return max(float(np.max(np.abs(np.exp(-1j * np.outer(part, omegas)) @ g2
                                   - B.correlation(bath, part))))
               for part in np.array_split(xs, math.ceil(len(xs) / 256)))


@pytest.mark.parametrize("horizon", [1.0, 4.0, 10.0, 40.0, 80.0, 320.0])
def test_first_grid_reaches_the_density_rule_floor_on_fewer_nodes(ref_bath, horizon):
    # max_doublings=0: the grid discretize_bath starts from, or an error
    modes = X.discretize_bath(ref_bath, 1.0, horizon=horizon, max_doublings=0)
    dense = density_rule_grid(ref_bath, horizon)
    dense_error = _kernel_error(ref_bath, dense.omegas, dense.couplings**2,
                                np.linspace(0.0, horizon, 400))
    # both sit on the quad_cutoff tail floor, about 9.4e-9
    assert abs(modes.achieved_error - dense_error) <= 1e-10
    # the node ratio falls from 0.58 at horizon 10 toward 0.41 at 320
    if horizon >= 10.0:
        assert modes.size <= 0.6 * dense.size
    if horizon >= 40.0:
        assert modes.size <= 0.5 * dense.size


@pytest.mark.parametrize("horizon", [1.0, 4.0, 10.0, 40.0, 80.0, 320.0])
def test_achieved_error_bounds_the_kernel_error_between_its_points(ref_bath, horizon):
    modes = X.discretize_bath(ref_bath, 1.0, horizon=horizon)
    fine = _kernel_error(ref_bath, modes.omegas, modes.couplings**2,
                         np.linspace(0.0, horizon, 4000))
    assert fine <= 1.5 * modes.achieved_error


def test_oracle_refuses_a_run_past_the_grid_horizon():
    # the ww-const-2level frame covers [0, 20]: at eps = 1 the kernel is
    # needed up to 20, and the default grid certifies it up to 1/eps = 1
    scen = H.builtin_scenario("ww-const-2level")
    frame, eps, lam = scen.frame(), 1.0, 0.05
    short = X.discretize_bath(scen.bath, eps)
    assert short.horizon == 1.0
    with pytest.raises(ResolutionError, match="horizon"):
        X.propagate_exact(scen.atom, frame, short, scen.z0, eps, lam, bath=scen.bath)
    # a run that ends within the horizon is allowed on the same grid
    X.propagate_exact(scen.atom, frame, short, scen.z0, eps, lam, t_end=1.0,
                      bath=scen.bath)
    full = X.discretize_bath(scen.bath, eps, horizon=20.0)
    traj = X.propagate_exact(scen.atom, frame, full, scen.z0, eps, lam, bath=scen.bath)
    assert traj.times[-1] == 20.0
    assert np.max(traj.norm_defect) < 1e-8


def test_mode_grid_failure_reports_error(ref_bath):
    with pytest.raises(DiscretizationError) as err:
        X.discretize_bath(ref_bath, 0.05, tol_corr=1e-14, max_doublings=0)
    assert err.value.achieved > 1e-14


def test_free_propagation_conserves_atom_norm(ref_scenario, ref_frame):
    modes = X.discretize_bath(ref_scenario.bath, 0.1)
    traj = X.propagate_exact(ref_scenario.atom, ref_frame, modes,
                             ref_scenario.z0, 0.1, 0.0, bath=ref_scenario.bath)
    assert np.max(np.abs(np.linalg.norm(traj.z, axis=1) - 1.0)) < 1e-8
    assert np.max(np.abs(traj.field)) == 0.0


def test_total_norm_conserved_with_coupling(exact_runner):
    traj, _ = exact_runner(0.05, float(np.sqrt(0.05)))
    assert np.max(traj.norm_defect) < 1e-8


def test_z_at_refuses_times_outside_the_run(exact_runner):
    # past the samples the spline would extrapolate: |z_at(1.5)| was about 20
    traj, _ = exact_runner(0.1, 0.1)
    assert np.max(np.abs(traj.z_at(traj.times) - traj.z)) < 1e-12
    for t in (1.5, 3.0, -0.1, np.array([0.5, 1.0 + 1e-9]), np.nan):
        with pytest.raises(ValueError, match="outside the trajectory's range"):
            traj.z_at(t)


def test_populations_partition_unity(exact_runner, ref_frame):
    traj, _ = exact_runner(0.05, float(np.sqrt(0.05)))
    p, p_down = X.populations(traj, ref_frame)
    total = p.sum(axis=1) + p_down
    assert np.max(np.abs(total - 1.0)) < 1e-8
    assert np.all(p >= -1e-12) and np.all(p_down >= -1e-12)


def test_field_amplitude_closed_form(ref_scenario, ref_frame):
    eps, lam = 0.05, float(np.sqrt(0.05))
    modes = X.discretize_bath(ref_scenario.bath, eps)
    traj = X.propagate_exact(ref_scenario.atom, ref_frame, modes,
                             ref_scenario.z0, eps, lam, bath=ref_scenario.bath,
                             override_smallness=True, record_source=True)
    f_closed = X.field_amplitude_closed_form(traj, modes, eps, lam, 1.0)
    assert np.max(np.abs(f_closed - traj.field[-1])) < 1e-4


def test_field_reconstruction_requires_history(exact_runner, ref_frame):
    traj, modes = exact_runner(0.1, float(np.sqrt(0.1)))
    with pytest.raises(ResolutionError):
        X.field_amplitude_closed_form(traj, modes, 0.1, np.sqrt(0.1), 1.0)


def test_smallness_gate(ref_scenario, ref_frame):
    modes = X.discretize_bath(ref_scenario.bath, 0.05)
    with pytest.raises(CouplingValidationError):
        X.propagate_exact(ref_scenario.atom, ref_frame, modes, ref_scenario.z0,
                          0.05, np.sqrt(0.05), bath=ref_scenario.bath)


def test_initial_state_must_be_normalized(ref_scenario, ref_frame):
    modes = X.discretize_bath(ref_scenario.bath, 0.1)
    with pytest.raises(ValueError):
        X.propagate_exact(ref_scenario.atom, ref_frame, modes,
                          np.array([2.0, 0.0]), 0.1, 0.0, bath=ref_scenario.bath)


def test_davies_population_cross_check(exact_runner, ref_frame, ref_bath):
    # along lam^2 = eps the surviving upper population approaches
    # exp(-2 int beta_1) with an O(eps) defect
    beta1, _ = B.decay_and_shift(ref_bath, 1.0, 1.0)
    pred = np.exp(-2.0 * beta1)
    for eps, c_max in ((0.1, 0.3), (0.05, 0.3)):
        traj, _ = exact_runner(eps, float(np.sqrt(eps)))
        p, _ = X.populations(traj, ref_frame)
        assert abs(p[-1, 0] - pred) < c_max * eps


def _traced_peak(fn, *args, **kw):
    tracemalloc.start()
    try:
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_photon_buildup_memory_is_bounded(ref_scenario, ref_frame):
    # neither the oracle nor the reconstruction may hold anything of the size
    # N x n_src: the peak stays below a quarter of one such complex array
    eps, lam = 0.05, float(np.sqrt(0.05))
    modes = X.discretize_bath(ref_scenario.bath, eps)
    traj, peak_run = _traced_peak(
        X.propagate_exact, ref_scenario.atom, ref_frame, modes, ref_scenario.z0,
        eps, lam, bath=ref_scenario.bath, override_smallness=True, record_source=True)
    _, peak_field = _traced_peak(X.field_amplitude_closed_form, traj, modes, eps, lam, 1.0)
    quarter = modes.size * len(traj.source_times) * 16 / 4
    assert peak_run < quarter
    assert peak_field < quarter


def test_blocked_reconstruction_matches_dense_trapezoid(exact_runner):
    eps, lam = 0.05, float(np.sqrt(0.05))
    traj, modes = exact_runner(eps, lam, record_source=True)
    for t in (0.0, 0.37, 0.5, 1.0):
        keep = traj.source_times <= t + 1e-12
        ts, src = traj.source_times[keep], traj.source_vals[keep]
        phase = np.exp(-1j * np.outer(modes.omegas, t - ts) / eps)
        dense = (-1j * (lam / eps) * modes.couplings
                 * np.trapezoid(phase * src[None, :], ts, axis=1))
        blocked = X.field_amplitude_closed_form(traj, modes, eps, lam, t)
        assert np.max(np.abs(blocked - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_every_output_time_is_a_source_time(exact_runner):
    # the source grid refines the output grid, so the closed-form field
    # matches the oracle's at odd output times (t = 0.105, ...) as at even ones
    eps = 0.02
    lam = float(np.sqrt(eps))          # r = lam^2 / eps = 1
    traj, modes = exact_runner(eps, lam, record_source=True)
    steps, src_steps = len(traj.times) - 1, len(traj.source_times) - 1
    assert src_steps % steps == 0
    sub = src_steps // steps
    assert np.max(np.abs(traj.source_times[::sub] - traj.times)) <= 1e-15
    for k in np.nonzero(traj.times >= 0.1)[0]:
        f_rec = X.field_amplitude_closed_form(traj, modes, eps, lam, traj.times[k])
        scale = np.max(np.abs(traj.field[k]))
        assert np.max(np.abs(f_rec - traj.field[k])) <= 1e-5 * scale, traj.times[k]


def test_recording_the_source_leaves_the_run_unchanged(exact_runner):
    eps, lam = 0.05, float(np.sqrt(0.05))
    plain, _ = exact_runner(eps, lam)
    recorded, _ = exact_runner(eps, lam, record_source=True)
    for name in ("times", "z", "field", "norm_defect"):
        assert np.array_equal(getattr(recorded, name), getattr(plain, name)), name
    assert plain.source_times is None and plain.source_vals is None
    # same steps and the same stages: every attempt solves the dense
    # interpolant's stages with its own, whether a sample reads them or not
    for key in ("nfev", "steps", "rejected", "tables"):
        assert recorded.meta[key] == plain.meta[key], key


def test_stage_maps_are_evaluated_once_per_run_of_equal_steps(ref_scenario, ref_frame):
    # A(t) depends on time alone: one call covers the stages of up to
    # MAP_STEPS steps of one size, so a run calls it far less often than it
    # attempts steps
    calls = []

    def ham(t):
        calls.append(np.shape(t))
        return ref_scenario.atom.hamiltonian(t)

    atom = dataclasses.replace(ref_scenario.atom, hamiltonian=ham)
    frame = dataclasses.replace(ref_frame, atom=atom)
    eps = 0.0125
    modes = X.discretize_bath(ref_scenario.bath, eps)
    traj = X.propagate_exact(atom, frame, modes, ref_scenario.z0, eps, np.sqrt(eps),
                             record_source=True, bath=ref_scenario.bath)
    meta = traj.meta
    assert len(calls) <= (meta["tables"] + meta["rejected"]
                          + math.ceil(meta["steps"] / X.MAP_STEPS) + 2)
    assert len(calls) < (meta["steps"] + meta["rejected"]) / 8
    # the source grid holds the output times exactly, and there the output
    # samples' z
    sub = (len(traj.source_times) - 1) // (len(traj.times) - 1)
    assert np.array_equal(traj.source_times[::sub], traj.times)
    assert np.array_equal(traj.source_vals[::sub],
                          np.einsum("kj,kj->k", frame.u_at(traj.times).conj(), traj.z))


def test_samples_are_read_a_block_of_steps_at_a_time(ref_scenario, ref_frame,
                                                      monkeypatch):
    # one reader serves the output rows and the source history: it reads
    # _DENSE_BLOCK kept steps at a time, not each step that holds an output time
    calls = []
    dense = X._Dop853.dense

    def spy(self, *args):
        calls.append(args)
        return dense(self, *args)

    monkeypatch.setattr(X._Dop853, "dense", spy)
    eps = 0.0125
    modes = X.discretize_bath(ref_scenario.bath, eps)
    traj = X.propagate_exact(ref_scenario.atom, ref_frame, modes, ref_scenario.z0, eps,
                             np.sqrt(eps), bath=ref_scenario.bath)
    assert len(traj.times) < traj.meta["steps"] / 4
    assert len(calls) <= math.ceil(traj.meta["steps"] / X._DENSE_BLOCK)


def test_field_reconstruction_checks_its_contract(exact_runner):
    eps, lam = 0.05, float(np.sqrt(0.05))
    traj, modes = exact_runner(eps, lam, record_source=True)
    for t in (-1.0, 2.0):
        with pytest.raises(ValueError):
            X.field_amplitude_closed_form(traj, modes, eps, lam, t)
    warped = dataclasses.replace(traj, source_times=traj.source_times ** 1.01)
    with pytest.raises(ResolutionError, match="uniform"):
        X.field_amplitude_closed_form(warped, modes, eps, lam, 0.5)
    coarse = dataclasses.replace(traj, source_times=traj.source_times[::8],
                                 source_vals=traj.source_vals[::8])
    with pytest.raises(ResolutionError, match="too coarse"):
        X.field_amplitude_closed_form(coarse, modes, eps, lam, 0.5)


def test_field_reconstruction_refuses_another_runs_eps_or_lam(exact_runner):
    # the source history fixes eps and lam: another value would scale and
    # phase the field wrongly without any other sign
    eps, lam = 0.05, float(np.sqrt(0.05))
    traj, modes = exact_runner(eps, lam, record_source=True)
    for wrong in ((0.5 * eps, lam), (eps, 2.0 * lam)):
        with pytest.raises(ValueError, match="traj.meta"):
            X.field_amplitude_closed_form(traj, modes, *wrong, 0.5)


def scipy_oracle(atom, frame, modes, z0, eps, lam, record_source=False, rtol=X.ODE_RTOL):
    """The oracle stepped by scipy.integrate.DOP853 with a per-call closure
    right-hand side in the field interaction picture, sampled through scipy's
    dense output of each step.

    Returns (z, field, norm_defect, source_vals, nfev, steps) on
    propagate_exact's grids, for its default t_end and dt_out.
    """
    t_end = frame.check_end()
    d, n_modes = atom.dim, modes.size
    u_spline = frame.u_at
    omegas, g = modes.omegas, modes.couplings
    inv_eps = 1.0 / eps

    def rhs(t, y):
        z, big_f = y[:d], y[d:]
        phase = np.exp(-1j * omegas * (t * inv_eps))
        u = u_spline(t)
        s_field = g @ (phase * big_f)           # <g, f>
        s_atom = np.vdot(u, z)                  # <u, z>
        dz = -1j * inv_eps * (atom.hamiltonian(t) @ z + lam * u * s_field)
        df = -1j * inv_eps * lam * s_atom * (g * np.conj(phase))
        return np.concatenate([dz, df])

    grids = [X.output_grid(t_end)]
    if record_source:
        h_src = X.PHASE_PER_STEP * eps / max(float(omegas[-1]), 1.0)
        grids.append(X.fine_grid(grids[0], h_src)[0])
    rows = [[] for _ in grids]
    filled = [0] * len(grids)
    y0 = np.concatenate([z0, np.zeros(n_modes, dtype=complex)])
    solver = DOP853(rhs, 0.0, y0, t_end, rtol=rtol, atol=X.ODE_ATOL)
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
        assert solver.status != "failed"
        dense = None
        for k, ts in enumerate(grids):
            stop = int(np.searchsorted(ts, solver.t, side="right"))
            if stop > filled[k]:
                dense = dense or solver.dense_output()
                rows[k].append(dense(ts[filled[k]:stop]).T)
                filled[k] = stop
    y_out = np.concatenate(rows[0])
    field = np.exp(-1j * np.outer(grids[0], omegas) * inv_eps) * y_out[:, d:]
    defect = np.abs(np.sum(np.abs(y_out) ** 2, axis=1) - 1.0)
    source = None
    if record_source:
        z_src = np.concatenate(rows[1])[:, :d]
        source = np.einsum("kj,kj->k", u_spline(grids[1]).conj(), z_src)
    return y_out[:, :d], field, defect, source, solver.nfev, steps


def _reference_case(case):
    """(atom, frame, bath, z0, eps, lam) of a bit-identity case."""
    if case == "d3":
        from test_properties import EPS, LAM2, frame_of, smooth_path, unit_z0
        atom = smooth_path(3, 7)
        return atom, frame_of(atom), B.reference_bath(), unit_z0(3, 7), EPS, np.sqrt(LAM2)
    scen = H.builtin_scenario("ww-ref-2level")
    eps, r = (0.02, 4.0) if case == "strong" else (0.05, 1.0)
    return scen.atom, scen.frame(), scen.bath, scen.z0, eps, float(np.sqrt(r * eps))


@pytest.mark.parametrize("case, record_source", [("ref", False), ("ref", True),
                                                 ("d3", True), ("strong", True)])
def test_oracle_agrees_with_scipy_dop853(case, record_source):
    # the in-module stepper uses scipy's tableau, error norm and controller on
    # steps rounded down to STEP_BITS bits: its numbers lie within 5e-12 of
    # scipy's, on at most 1 % more steps; on the seeded d = 3 path the
    # controller also rejects a step. At lam^2 = 4 eps the step size changes
    # every few steps, so stage maps evaluated ahead for MAP_STEPS steps of
    # one size are mostly thrown away unused
    atom, frame, bath, z0, eps, lam = _reference_case(case)
    modes = X.discretize_bath(bath, eps)
    traj = X.propagate_exact(atom, frame, modes, z0, eps, lam, bath=bath,
                             override_smallness=True, record_source=record_source)
    z, field, defect, source, _, steps = scipy_oracle(atom, frame, modes, z0, eps, lam,
                                                      record_source)
    assert np.max(np.abs(traj.z - z)) <= 5e-12
    assert np.max(np.abs(traj.field - field)) <= 5e-12
    assert np.max(np.abs(traj.norm_defect - defect)) <= 5e-12
    if record_source:
        assert np.max(np.abs(traj.source_vals - source)) <= 5e-12
    meta = traj.meta
    assert steps <= meta["steps"] <= 1.01 * steps
    # two evaluations start the run, and each attempted step solves fifteen
    # stages, the dense interpolant's three among them
    assert meta["nfev"] == 2 + 15 * (meta["steps"] + meta["rejected"])
    if case == "d3":
        assert meta["rejected"] >= 1


@pytest.mark.parametrize("case", ["ref", "d3"])
def test_interpolant_stages_match_forward_substitution(case):
    # the reference for the stepper's one triangular solve: stages 13 .. 15
    # of an accepted step, one at a time, k_s = M_s ((z, sigma_s) +
    # sum_{j < s} W_sj k_j), from the solver's maps, weights and free sigma
    _, frame, bath, z0, eps, lam = _reference_case(case)
    modes = X.discretize_bath(bath, eps)
    solver = X._Dop853(frame, modes, eps, lam, z0, frame.check_end(), X.ODE_RTOL)
    for _ in range(4):          # the field is zero at the first step's start
        step = solver.step()
    ref = step.k.copy()
    for s in range(X._STAGES + 1, len(X._C)):
        x = np.append(step.z, solver.sigma_free[s])
        x += np.einsum("jl,jl->l", solver.weights[s, :s], ref[:s])
        ref[s] = solver.maps[s] @ x
    tail = slice(X._STAGES + 1, None)
    assert np.max(np.abs(step.k[tail] - ref[tail])) <= 1e-14 * np.max(np.abs(ref[tail]))


@pytest.mark.parametrize("eps", [0.05, 0.0125])
def test_oracle_converges_to_a_tight_scipy_run(ref_scenario, ref_frame, eps):
    # rounding the steps leaves the oracle's error at its tolerance: against
    # scipy's DOP853 at rtol = 1e-13 it is off by at most 1e-12
    lam = float(np.sqrt(eps))
    modes = X.discretize_bath(ref_scenario.bath, eps)
    traj = X.propagate_exact(ref_scenario.atom, ref_frame, modes, ref_scenario.z0,
                             eps, lam, bath=ref_scenario.bath, override_smallness=True)
    z, field, *_ = scipy_oracle(ref_scenario.atom, ref_frame, modes, ref_scenario.z0,
                                eps, lam, rtol=1e-13)
    assert np.max(np.abs(traj.z - z)) <= 1e-12
    assert np.max(np.abs(traj.field - field)) <= 1e-12
    if eps == 0.0125:
        # consecutive steps share one phase table
        assert traj.meta["tables"] <= traj.meta["steps"] / 4


def test_oracle_fails_on_a_hamiltonian_that_turns_nan(ref_scenario, ref_frame):
    # every step that reaches past t = 0.5 has a NaN error norm and is cut
    # fivefold, until the step falls below 10 ulp of t
    ref = ref_scenario.atom

    def ham(t):
        return np.where((np.asarray(t) > 0.5)[..., None, None], np.nan, ref.hamiltonian(t))

    atom = dataclasses.replace(ref, hamiltonian=ham)
    frame = dataclasses.replace(ref_frame, atom=atom)
    eps = 0.05
    modes = X.discretize_bath(ref_scenario.bath, eps)
    with np.errstate(invalid="ignore"):
        with pytest.raises(StiffnessError, match="integration failed"):
            X.propagate_exact(atom, frame, modes, ref_scenario.z0, eps, np.sqrt(eps),
                              bath=ref_scenario.bath, override_smallness=True)


def test_oracle_refuses_an_atom_that_is_not_the_frames(ref_scenario, ref_frame):
    # A(t) comes from the atom and u(t) from the frame: they must be one path
    other = H.builtin_scenario("ww-ref-2level").atom
    modes = X.discretize_bath(ref_scenario.bath, 0.1)
    with pytest.raises(ValueError, match="frame.atom"):
        X.propagate_exact(other, ref_frame, modes, ref_scenario.z0, 0.1, 0.3,
                          bath=ref_scenario.bath)


def test_oracle_floors_rtol_as_scipy_does(ref_scenario, ref_frame):
    # scipy's DOP853 warns and raises an rtol below 100 ulp to that floor
    eps = 0.1
    modes = X.discretize_bath(ref_scenario.bath, eps)

    def run(rtol):
        return X.propagate_exact(ref_scenario.atom, ref_frame, modes, ref_scenario.z0,
                                 eps, 0.3, t_end=0.2, rtol=rtol, bath=ref_scenario.bath,
                                 override_smallness=True)

    with pytest.warns(UserWarning, match="rtol"):
        tiny = run(1e-17)
    floor = run(100 * np.finfo(float).eps)
    assert np.array_equal(tiny.z, floor.z)
    assert tiny.meta["nfev"] == floor.meta["nfev"]
