import dataclasses
import functools
import inspect
import os

import numpy as np
import pytest

from awwlab import (atom as A, bath as B, cli, config as C, emission as E, exact as X,
                    harness as H, reduced as R)
from awwlab.errors import ConfigError, GapViolation, IntegratorError
from test_bath import write_density_table
from test_magnus import three_level_atom

BASE_CFG = """\
atom.name = ww-ref-2level
bath.name = reference
sim.eps = 0.1
sim.lambda2 = 0.1
sweep.epsilons = 0.2, 0.1, 0.05
sweep.lambda_rule = lambda2=eps
emission.r = 1.0
emission.eps = 0.05
"""


def write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def tabulated_text(path):
    """BASE_CFG on the atom table at `path`."""
    return BASE_CFG.replace("atom.name = ww-ref-2level",
                            f"atom.name = tabulated\natom.file = {path}")


def write_diag_table(path, times, level=1.0):
    """Atom table of A(t) = diag(level, 3), v = (1, 1): columns t, 4 x (re, im), 2 x (re, im)."""
    rows = [[t, level, 0, 0, 0, 0, 0, 3, 0, 1, 0, 1, 0] for t in times]
    np.savetxt(path, rows, delimiter=",", header="t," + ",".join(["c"] * 12), comments="")
    return path


def clear_caches():
    H._parse_table.cache_clear()
    H._frame.cache_clear()


def test_config_parses_and_rejects(tmp_path):
    cfg = C.parse_config(BASE_CFG + "# trailing comment\n")
    assert cfg["atom.name"] == "ww-ref-2level"
    rc = C.RunConfig.from_dict(cfg)
    assert rc.sim_eps == 0.1
    assert rc.sweep_epsilons == (0.2, 0.1, 0.05)
    with pytest.raises(ConfigError):
        C.parse_config("atom.name = x\nbath.typo = y\n")
    with pytest.raises(ConfigError):   # bath.name missing
        C.RunConfig.from_dict(C.parse_config("atom.name = ww-ref-2level\n"))
    with pytest.raises(ConfigError):
        C.parse_config(BASE_CFG + "sim.eps = 0.2\n")    # duplicate
    with pytest.raises(ConfigError):
        C.RunConfig.from_dict({**cfg, "sim.eps": "abc"})
    with pytest.raises(ConfigError) as err:
        C.RunConfig.from_dict({**cfg, "sim.typo": "1"})
    assert err.value.key == "sim.typo"
    no_equals = "atom.name = ww-ref-2level\nbath.name reference\n"
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        C.parse_config(no_equals)
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, no_equals),
                     "--out", str(tmp_path / "out")]) == 2


def test_solver_defaults_are_stated_once():
    # the config keys and the solvers read the one constant in exact
    assert C.RunConfig.solver_rtol is X.ODE_RTOL
    assert C.RunConfig.solver_dt_out is X.DT_OUT
    assert C.RunConfig.solver_tol_corr is X.TOL_CORR
    defaults = {name: {key: p.default for key, p in inspect.signature(fn).parameters.items()}
                for name, fn in (("propagate", X.propagate_exact),
                                 ("effective", R.effective_solve),
                                 ("modes", X.discretize_bath))}
    assert defaults["propagate"]["rtol"] is X.ODE_RTOL
    assert defaults["propagate"]["dt_out"] is X.DT_OUT
    assert defaults["effective"]["dt_out"] is X.DT_OUT
    assert defaults["modes"]["tol_corr"] is X.TOL_CORR


def test_builtin_scenarios():
    ref = H.builtin_scenario("ww-ref-2level")
    assert ref.atom.dim == 2 and ref.t_end == 1.0
    const = H.builtin_scenario("ww-const-2level")
    assert const.t_end == 20.0
    assert np.allclose(const.atom.matrix(0.0), const.atom.matrix(13.7))
    with pytest.raises(ConfigError):
        H.builtin_scenario("nope")


def test_lambda_rules():
    def lam(rule, eps, index):
        return H._lambda_for(C._lambda_rule(rule), eps, index)

    assert lam("lambda2=eps", 0.04, 0) == pytest.approx(0.2)
    assert lam("lambda2=2*eps^3", 0.1, 0) == pytest.approx(np.sqrt(2e-3))
    assert lam("list:0.5,0.25", 0.1, 1) == 0.25
    with pytest.raises(ValueError):
        C._lambda_rule("lambda2=半")


@pytest.mark.parametrize("rule", ["list:0.3,0.2", "list:0.3,x,0.1"])
def test_lambda_list_errors_are_config_errors(tmp_path, rule):
    assert_config_error(tmp_path, BASE_CFG.replace("lambda2=eps", rule),
                        "sweep.lambda_rule", ("sweep", "regimes"))


@pytest.mark.parametrize("rule", ["garbage", "list:0.3,x,0.1", "lambda2=2*eps"])
def test_unreadable_lambda_rule_fails_every_command(tmp_path, rule):
    assert_config_error(tmp_path, BASE_CFG.replace("lambda2=eps", rule),
                        "sweep.lambda_rule", tuple(COMMAND_RUNS))


def test_sweep_worker_passes_dt_out(tmp_path, monkeypatch):
    seen = []

    def fake_metrics(scen, eps, lam, **kw):
        seen.append(kw["dt_out"])
        return {"eps": eps, "lam": lam, "E_lead": eps, "E_volt": eps, "E_eff": eps,
                "p_down": 0.5, "p_down_pred": 0.5, "regime": "B"}

    monkeypatch.setattr(H, "point_metrics", fake_metrics)
    cfg = C.parse_config(BASE_CFG + "solver.dt_out = 0.01\n")
    H.run_sweep(cfg, str(tmp_path / "s"), override=True)
    assert seen == [0.01] * 3
    seen.clear()
    H.run_sweep(C.parse_config(BASE_CFG), str(tmp_path / "d"), override=True)
    assert seen == [1.0 / 200] * 3


def test_sweep_pool_is_capped_at_the_point_count(tmp_path, monkeypatch):
    # a fake executor records the pool size and maps in this process, so no
    # worker is forked
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def fake_metrics(scen, eps, lam, **kw):
        return {"eps": eps, "lam": lam, "E_lead": eps, "E_volt": eps, "E_eff": eps,
                "p_down": 0.5, "p_down_pred": 0.5, "regime": "B"}

    monkeypatch.setattr(H, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(H, "point_metrics", fake_metrics)
    monkeypatch.setattr(H, "_pool_state", None)
    cfg = C.parse_config(BASE_CFG)
    for threads in (64, 2):
        res = H.run_sweep(cfg, str(tmp_path / f"t{threads}"), override=True,
                          threads=threads)
        assert [r["eps"] for r in res["results"]] == [0.2, 0.1, 0.05]
    assert sizes == [3, 2]


class _StopEmission(Exception):
    pass


def test_run_emission_passes_solver_keys(tmp_path, monkeypatch):
    seen = {}

    def fake_discretize(bath, eps, **kw):
        seen["tol_corr"] = kw.get("tol_corr")

    def fake_propagate(*args, **kw):
        seen["rtol"], seen["dt_out"] = kw.get("rtol"), kw.get("dt_out")
        raise _StopEmission

    monkeypatch.setattr(H.exact, "discretize_bath", fake_discretize)
    monkeypatch.setattr(H.exact, "propagate_exact", fake_propagate)
    cfg = C.parse_config(BASE_CFG + "solver.rtol = 1e-6\nsolver.dt_out = 0.01\n"
                                    "solver.tol_corr = 0.01\n")
    with pytest.raises(_StopEmission):
        H.run_emission(cfg, str(tmp_path / "e"), override=True)
    assert seen == {"tol_corr": 0.01, "rtol": 1e-6, "dt_out": 0.01}


def test_emission_limit_follows_the_populated_level(tmp_path, ref_scenario, ref_frame):
    cfg = C.parse_config(BASE_CFG + "sim.z0 = 0, 1\n")
    res = H.run_emission(cfg, str(tmp_path), override=True)
    summary = (tmp_path / "spectrum.csv").read_text().splitlines()[-1].split(",")
    level1 = E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom,
                              B.TestObservable(weight=np.ones_like), 1, res["r"],
                              ref_scenario.t_end)
    assert summary[0] == "summary"
    assert float(summary[2]) == pytest.approx(level1, rel=1e-12)
    assert res["limit"] == pytest.approx(level1, rel=1e-12)


def test_emission_limit_weights_every_level_of_a_d3_path(tmp_path):
    # z0 = (1, 1, 1) gives every level of the seeded three-level path a
    # positive initial weight |<phi_j(0), z0>|^2
    path = tmp_path / "atom.csv"
    three_level_atom(path)
    cfg = C.parse_config(tabulated_text(path) + "sim.z0 = 1, 1, 1\n")
    res = H.run_emission(cfg, str(tmp_path / "e"), override=True)
    scen = H.scenario_from_config(cfg)
    frame, one = scen.frame(), B.TestObservable(weight=np.ones_like)
    weights = [abs(np.vdot(frame.vectors[0][:, j], scen.z0)) ** 2 for j in range(3)]
    assert min(weights) > 0.0
    want = sum(w * E.regime_B_limit(frame, scen.bath, scen.atom, one, j, res["r"],
                                    scen.t_end) for j, w in enumerate(weights))
    summary = (tmp_path / "e" / "spectrum.csv").read_text().splitlines()[-1].split(",")
    assert summary[0] == "summary"
    assert float(summary[2]) == pytest.approx(want, rel=1e-12)
    assert res["limit"] == pytest.approx(want, rel=1e-12)


def test_serial_sweep_builds_frame_once(tmp_path, monkeypatch):
    frames = []
    real_eigenframe = H.eigenframe

    def counting_eigenframe(*args, **kw):
        frames.append(real_eigenframe(*args, **kw))
        return frames[-1]

    monkeypatch.setattr(H, "eigenframe", counting_eigenframe)
    res = H.run_sweep(C.parse_config(BASE_CFG), str(tmp_path / "s"), override=True)
    assert not res["partial"] and len(res["results"]) == 3
    assert len(frames) == 1


def test_frame_state_is_declared():
    # what the frame caches is a dataclass field or a cached property of
    # EigenFrame, never an attribute attached from outside
    scen = H.builtin_scenario("ww-ref-2level")
    H.point_metrics(scen, 0.2, float(np.sqrt(0.2)), override=True)
    frame = scen.frame()
    A.kato_intertwiner(frame, 0.5)
    declared = {f.name for f in dataclasses.fields(A.EigenFrame)} | {
        name for name, member in vars(A.EigenFrame).items()
        if isinstance(member, functools.cached_property)}
    assert set(vars(frame)) <= declared
    assert {"_berry", "_kato", "vectors_at"} <= set(vars(frame))


def test_sweep_rereads_a_rewritten_atom_table(tmp_path, monkeypatch):
    seen = []

    def fake_metrics(scen, eps, lam, **kw):
        seen.append(float(scen.atom.matrix(0.5)[0, 0].real))
        return {"eps": eps, "lam": lam, "E_lead": eps, "E_volt": eps, "E_eff": eps,
                "p_down": 0.5, "p_down_pred": 0.5, "regime": "B"}

    monkeypatch.setattr(H, "point_metrics", fake_metrics)
    path = tmp_path / "atom.csv"
    for level in (1.0, 1.5):
        write_diag_table(path, np.linspace(0, 1, 5), level)
        H.run_sweep(C.parse_config(tabulated_text(path)), str(tmp_path / "s"), override=True)
    assert seen == [1.0] * 3 + [1.5] * 3


@pytest.fixture
def frame_builds(monkeypatch):
    """The atoms harness.eigenframe is called on, from empty table and frame caches."""
    clear_caches()
    atoms = []
    real_eigenframe = H.eigenframe

    def counting_eigenframe(atom, *args, **kw):
        atoms.append(atom)
        return real_eigenframe(atom, *args, **kw)

    monkeypatch.setattr(H, "eigenframe", counting_eigenframe)
    yield atoms
    clear_caches()    # no frame of the spy's making outlives the test


def test_one_frame_per_table_content_and_t_end(tmp_path, frame_builds):
    first = write_diag_table(tmp_path / "a.csv", np.linspace(0, 1, 5))
    cfg = C.parse_config(tabulated_text(first))
    for out in ("s1", "s2"):
        H.run_simulate(cfg, str(tmp_path / out), override=True)
    scen = H.scenario_from_config(cfg)
    frame = scen.frame()
    assert len(frame_builds) == 1 and frame.atom is scen.atom is frame_builds[0]
    # another file with the same bytes shares the atom and its frame
    twin = tmp_path / "b.csv"
    twin.write_bytes(first.read_bytes())
    assert H.scenario_from_config(C.parse_config(tabulated_text(twin))).frame() is frame
    assert len(frame_builds) == 1
    # other bytes, or another span, build a frame of their own
    write_diag_table(twin, np.linspace(0, 1, 5), level=1.5)
    other = H.scenario_from_config(C.parse_config(tabulated_text(twin))).frame()
    shorter = H.scenario_from_config(
        C.parse_config(tabulated_text(first) + "sim.t_end = 0.5\n")).frame()
    assert len(frame_builds) == 3 and other is not frame and shorter is not frame
    assert other.energies[0, 0] == 1.5 and shorter.times[-1] == 0.5


def test_a_failed_table_or_frame_is_not_stored(tmp_path, frame_builds):
    path = tmp_path / "atom.csv"
    path.write_text("t,a\n0,1\n1,2\n")
    for _ in range(2):
        with pytest.raises(ConfigError) as err:
            H.scenario_from_config(C.parse_config(tabulated_text(path)))
        assert err.value.key == "atom.file"
    # A(t) = diag(3, 3) has no gap: the frame fails on every call
    write_diag_table(path, np.linspace(0, 1, 5), level=3.0)
    for calls in (1, 2):
        scen = H.scenario_from_config(C.parse_config(tabulated_text(path)))
        with pytest.raises(GapViolation):
            scen.frame()
        assert len(frame_builds) == calls


def test_simulate_files_do_not_depend_on_the_caches(tmp_path):
    path = tmp_path / "atom.csv"
    three_level_atom(path)
    cfg = C.parse_config(tabulated_text(path))
    clear_caches()
    files = []
    for out in ("cold", "warm", "cleared"):
        if out == "cleared":
            clear_caches()
        written = H.run_simulate(cfg, str(tmp_path / out), override=True)
        files.append({os.path.basename(p): open(p, "rb").read() for p in written})
    assert len(files[0]) == 5 and files[0] == files[1] == files[2]


def test_tabulated_sweep_serial_parallel_identical(tmp_path):
    path = tmp_path / "atom.csv"
    three_level_atom(path)
    cfg = C.parse_config(tabulated_text(path))
    for threads in (1, 2):
        res = H.run_sweep(cfg, str(tmp_path / f"s{threads}"), override=True, threads=threads)
        assert not res["partial"]
    assert (tmp_path / "s1" / "sweep.csv").read_bytes() == \
        (tmp_path / "s2" / "sweep.csv").read_bytes()


@pytest.mark.parametrize("value", ["0", "-0.05", "1.5", "nan"])
def test_eps_outside_unit_interval_is_config_error(tmp_path, value):
    text = BASE_CFG.replace("sim.eps = 0.1", f"sim.eps = {value}")
    cfg = C.parse_config(text)
    for run in (H.run_simulate, H.run_validate):
        with pytest.raises(ConfigError) as err:
            run(cfg, str(tmp_path / "out"), override=True)
        assert err.value.key == "sim.eps"
    path = write_cfg(tmp_path, text)
    for command in ("simulate", "validate"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "cli")]) == 2


@pytest.mark.parametrize("value", ["0", "-1", "inf"])
def test_nonpositive_t_end_is_config_error(tmp_path, value):
    text = BASE_CFG + f"sim.t_end = {value}\n"
    with pytest.raises(ConfigError) as err:
        H.run_simulate(C.parse_config(text), str(tmp_path / "out"), override=True)
    assert err.value.key == "sim.t_end"
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "cli")]) == 2


COMMAND_RUNS = {"simulate": H.run_simulate, "sweep": H.run_sweep,
                "emission": H.run_emission, "regimes": H.run_regimes,
                "validate": H.run_validate}


def assert_config_error(tmp_path, text, key, commands):
    """Each command rejects `text` with ConfigError(key=key), and the CLI exits 2."""
    cfg = C.parse_config(text)
    path = write_cfg(tmp_path, text)
    for command in commands:
        with pytest.raises(ConfigError) as err:
            COMMAND_RUNS[command](cfg, str(tmp_path / "out"), override=True)
        assert err.value.key == key
        assert cli.main([command, "--config", path, "--out", str(tmp_path / "cli"),
                         "--override-smallness"]) == 2


@pytest.mark.parametrize("key, value, commands", [
    ("sweep.lambda_rule", "list:0.3,0,0.2", ("sweep", "regimes")),
    ("sweep.lambda_rule", "list:0.3,1.5,0.2", ("sweep", "regimes")),
    ("sweep.lambda_rule", "lambda2=-1*eps^1", ("sweep", "regimes")),
    ("sim.lambda2", "-1", ("simulate", "validate")),
    ("sim.lambda2", "0", ("simulate", "validate")),
    ("emission.r", "-1", ("emission",)),
    ("emission.r", "0", ("emission",)),
    ("emission.r", "inf", ("emission",)),
    ("emission.r", "100", ("emission",)),       # lam^2 = r eps = 5 at emission.eps = 0.05
])
def test_coupling_outside_range_is_config_error(tmp_path, key, value, commands):
    lines = [line for line in BASE_CFG.splitlines() if not line.startswith(key)]
    assert_config_error(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n",
                        key, commands)


def test_sweep_direction_is_eps_or_lambda(tmp_path, monkeypatch):
    assert_config_error(tmp_path, BASE_CFG + "sweep.direction = bogus\n",
                        "sweep.direction", ("sweep",))
    monkeypatch.setattr(H, "point_metrics", lambda scen, eps, lam, **kw: {
        "eps": eps, "lam": lam, "E_lead": lam, "E_volt": lam, "E_eff": lam,
        "p_down": 0.5, "p_down_pred": 0.5, "regime": "davies"})
    res = H.run_sweep(C.parse_config(BASE_CFG + "sweep.direction = lambda\n"),
                      str(tmp_path / "lam"), override=True)
    assert res["slopes"]["E_lead"][0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("key, value", [
    ("solver.dt_out", "0"), ("solver.dt_out", "-0.01"),
    ("solver.rtol", "-1"), ("solver.rtol", "1"),
    ("solver.tol_corr", "0"), ("solver.tol_corr", "2"),
    ("sim.z0", "0, 0"), ("sim.z0", "1, nan"),
    ("sim.z0", "1, 0, 0"),                      # three entries, two levels
])
def test_solver_and_initial_state_outside_range_is_config_error(tmp_path, key, value):
    assert_config_error(tmp_path, BASE_CFG + f"{key} = {value}\n", key,
                        ("simulate", "sweep", "emission", "validate"))


@pytest.mark.parametrize("key, content", [
    ("atom.file", None),                        # no such file
    ("atom.file", "t,a\n0,1\n1,2\n"),          # no square dimension fits
    ("atom.file", "t,...\n0,1,0,0.5,0,0,0,3,0,1,0,1,0\n"
                  "1,1,0,0.5,0,0,0,3,0,1,0,1,0\n"),    # A(t) is not Hermitian
    ("bath.file", None),
    ("bath.file", "omega,rho\n0,0\n2,1\n1,1\n"),  # omega not increasing
    ("bath.file", "omega,rho\n1,2\n"),          # one row reads as a 1-d array
    ("bath.file", "omega,rho\n0,1\n1,-1\n2,1\n"),  # a negative density
])
def test_unreadable_table_is_config_error(tmp_path, key, content):
    path = tmp_path / "table.csv"
    if content is not None:
        path.write_text(content)
    text = BASE_CFG + f"{key} = {path}\n"
    if key == "atom.file":
        text = text.replace("atom.name = ww-ref-2level", "atom.name = tabulated")
    with pytest.raises(ConfigError) as err:
        H.scenario_from_config(C.parse_config(text))
    assert err.value.key == key
    assert_config_error(tmp_path, text, key, tuple(COMMAND_RUNS))


@pytest.mark.parametrize("key, line, replacement, commands", [
    ("bath.name", "bath.name = reference", "bath.name = nope", tuple(COMMAND_RUNS)),
    ("atom.file", "atom.name = ww-ref-2level", "atom.name = tabulated",   # no atom.file
     tuple(COMMAND_RUNS)),
    ("sweep.epsilons", "sweep.epsilons = 0.2, 0.1, 0.05", "", ("sweep", "regimes")),
], ids=["unknown-bath", "tabulated-without-file", "sweep-without-epsilons"])
def test_unknown_or_missing_choice_is_config_error(tmp_path, key, line, replacement,
                                                    commands):
    assert_config_error(tmp_path, BASE_CFG.replace(line, replacement), key, commands)


def test_tabulated_run_spans_its_table(tmp_path):
    path = write_diag_table(tmp_path / "atom.csv", np.linspace(0.0, 0.5, 6))
    text = tabulated_text(path)
    scen = H.scenario_from_config(C.parse_config(text))
    assert scen.t_end == 0.5 and scen.frame().times[-1] == 0.5
    assert H.scenario_from_config(C.parse_config(text + "sim.t_end = 0.25\n")).t_end == 0.25
    # past the table the splines would extrapolate the Hamiltonian
    assert_config_error(tmp_path, text + "sim.t_end = 0.75\n", "sim.t_end",
                        tuple(COMMAND_RUNS))


def test_tabulated_run_starts_at_zero(tmp_path):
    # the frame spans [0, t_end]; before the table's first time the splines
    # would extrapolate the Hamiltonian
    path = write_diag_table(tmp_path / "atom.csv", np.linspace(0.5, 1.5, 6))
    assert_config_error(tmp_path, tabulated_text(path), "atom.file", tuple(COMMAND_RUNS))


def test_loglog_slope_recovers_power_law():
    xs = np.array([0.2, 0.1, 0.05, 0.025])
    slope, stderr = H.loglog_slope(xs, 3.0 * xs**1.7)
    assert slope == pytest.approx(1.7, abs=1e-12)
    assert stderr < 1e-10
    with pytest.raises(ValueError):     # one distinct x: no slope to fit
        H.loglog_slope([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("text, key", [
    (BASE_CFG.replace("0.2, 0.1, 0.05", "0.1, 0.1, 0.1"), "sweep.epsilons"),
    (BASE_CFG.replace("lambda2=eps", "list:0.1,0.1,0.1") + "sweep.direction = lambda\n",
     "sweep.lambda_rule"),
], ids=["eps", "lambda"])
def test_slope_fit_over_a_constant_axis_is_config_error(tmp_path, monkeypatch, text, key):
    ran = []
    monkeypatch.setattr(H, "point_metrics", lambda *args, **kw: ran.append(args))
    assert_config_error(tmp_path, text, key, ("sweep",))
    assert ran == []


def test_sweep_fits_no_slope_over_one_successful_eps(tmp_path, monkeypatch):
    # the point at eps = 0.2 fails, and the three left share one eps
    def metrics(scen, eps, lam, **kw):
        if eps == 0.2:
            raise IntegratorError("failed")
        return {"eps": eps, "lam": lam, "E_lead": lam, "E_volt": lam, "E_eff": lam,
                "p_down": 0.5, "p_down_pred": 0.5, "regime": "davies"}

    monkeypatch.setattr(H, "point_metrics", metrics)
    cfg = C.parse_config(BASE_CFG.replace("0.2, 0.1, 0.05", "0.2, 0.1, 0.1, 0.1"))
    res = H.run_sweep(cfg, str(tmp_path / "out"), override=True)
    assert res["partial"] and res["slopes"] == {}


def test_simulate_writes_files(tmp_path):
    cfg = C.load_config(write_cfg(tmp_path, BASE_CFG + "sim.z0 = 3, 4\n"))
    out = tmp_path / "out"
    written = H.run_simulate(cfg, str(out), override=True)
    names = {os.path.basename(p) for p in written}
    assert names == {"trajectory_exact.csv", "trajectory_volterra.csv",
                     "trajectory_effective.csv", "trajectory_leading.csv",
                     "comparison.csv"}
    with open(out / "trajectory_exact.csv") as fh:
        header, first = (line.strip().split(",") for line in (next(fh), next(fh)))
    assert header == ["t", "re_z1", "im_z1", "re_z2", "im_z2",
                      "p_1", "p_2", "p_down", "norm_defect"]
    # sim.z0 is normalized
    assert [float(x) for x in first[1:5]] == pytest.approx([0.6, 0.0, 0.8, 0.0], abs=1e-15)
    # the oracle's norm defect, pure rounding, is printed to an absolute 1e-12
    assert first[-1] == "0.000000000000"
    # every description is written on the oracle's output grid
    times = [np.loadtxt(path, delimiter=",", skiprows=1, usecols=0) for path in written]
    assert all(np.array_equal(t, times[0]) for t in times[1:])


def test_sweep_serial_parallel_identical(tmp_path):
    cfg = C.load_config(write_cfg(tmp_path))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    res1 = H.run_sweep(cfg, str(out1), override=True, threads=1)
    res2 = H.run_sweep(cfg, str(out2), override=True, threads=2)
    assert open(out1 / "sweep.csv").read() == open(out2 / "sweep.csv").read()
    assert not res1["partial"]
    slope = res1["slopes"]["E_lead"][0]
    assert 0.5 < slope < 1.3
    assert res1["slopes"].keys() == res2["slopes"].keys()


def test_sweep_needs_three_points(tmp_path):
    text = BASE_CFG.replace("0.2, 0.1, 0.05", "0.1")
    cfg = C.load_config(write_cfg(tmp_path, text))
    with pytest.raises(ConfigError):
        H.run_sweep(cfg, str(tmp_path / "x"), override=True)


def test_sweep_flags_failed_points(tmp_path, capsys):
    # without the override, every point violates the smallness bound
    path = write_cfg(tmp_path)
    res = H.run_sweep(C.load_config(path), str(tmp_path / "f"), override=False)
    assert res["partial"]
    body = open(tmp_path / "f" / "sweep.csv").read()
    assert "CouplingValidationError" in body
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "cli")]) == 1
    assert "some sweep points failed" in capsys.readouterr().err


def test_run_validate(tmp_path):
    cfg = C.parse_config("atom.name = ww-ref-2level\nbath.name = reference\n"
                         "sim.eps = 0.05\nsim.lambda2 = 0.015625\n")
    res = H.run_validate(cfg)
    assert res["ok"] and res["smallness"] == pytest.approx(0.5, abs=1e-6)


def test_cli_exit_codes(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "cli_out")
    assert cli.main(["simulate", "--config", cfg_path, "--out", out,
                     "--override-smallness"]) == 0
    # numerical failure without override (smallness violated)
    assert cli.main(["simulate", "--config", cfg_path, "--out", out]) == 1
    # config error: unknown key
    bad = write_cfg(tmp_path, BASE_CFG + "bogus.key = 1\n", "bad.cfg")
    assert cli.main(["simulate", "--config", bad, "--out", out]) == 2
    # config error: missing file
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", out]) == 2


def test_cli_regimes_and_emission(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out = str(tmp_path / "re_out")
    assert cli.main(["regimes", "--config", cfg_path, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "regimes.csv"))
    assert cli.main(["emission", "--config", cfg_path, "--out", out,
                     "--override-smallness"]) == 0
    text = capsys.readouterr().out
    assert "limit" in text
    assert os.path.exists(os.path.join(out, "spectrum.csv"))


def test_output_step_past_the_run(tmp_path, capsys):
    # solver.dt_out = 2 on [0, 1] still gives one output step, ending at t_end
    for dt_out in ("1", "2"):
        path = write_cfg(tmp_path, BASE_CFG + f"solver.dt_out = {dt_out}\n", f"dt{dt_out}.cfg")
        assert cli.main(["emission", "--config", path, "--out", str(tmp_path / dt_out),
                         "--override-smallness"]) == 0
    assert "<B>_t = 0.000000" not in capsys.readouterr().out
    spectrum = [(tmp_path / dt_out / "spectrum.csv").read_bytes() for dt_out in ("1", "2")]
    assert spectrum[0] == spectrum[1]
    for command in ("simulate", "sweep"):
        assert cli.main([command, "--config", path, "--out", str(tmp_path / command),
                         "--override-smallness"]) == 0


def test_cli_validate_on_a_coarse_bath_table_exits_1(tmp_path, correlation_within_decay_t_max):
    table = write_density_table(tmp_path / "bath.csv", 241)
    path = write_cfg(tmp_path, "atom.name = ww-ref-2level\n"
                               "bath.name = reference\n"
                               f"bath.file = {table}\n"
                               "sim.lambda2 = 0.015625\n", "v.cfg")
    assert cli.main(["validate", "--config", path]) == 1


def test_cli_regimes_on_a_coarse_bath_table_needs_no_shift(tmp_path):
    # the regime table reads only int beta, so the Lamb-shift quadrature,
    # which misses its tolerance on this table, never runs
    table = write_density_table(tmp_path / "bath.csv", 241)
    path = write_cfg(tmp_path, BASE_CFG + f"bath.file = {table}\n", "tab.cfg")
    out = str(tmp_path / "re_out")
    assert cli.main(["regimes", "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "regimes.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    assert rows[0] == ["eps", "lambda", "ratio", "regime", "p_down_pred"]
    assert [row[:4] for row in rows[1:]] == [
        [eps, lam, "1.000000000000e+00", "davies"]
        for eps, lam in (("2.000000000000e-01", "4.472135955000e-01"),
                         ("1.000000000000e-01", "3.162277660168e-01"),
                         ("5.000000000000e-02", "2.236067977500e-01"))]
    for row in rows[1:]:
        assert float(row[4]) == pytest.approx(9.008875800403e-01, rel=1e-12)


def test_cli_validate_reports(tmp_path, capsys):
    path = write_cfg(tmp_path, "atom.name = ww-ref-2level\n"
                               "bath.name = reference\n"
                               "sim.lambda2 = 0.015625\n", "v.cfg")
    assert cli.main(["validate", "--config", path]) == 0
    assert "smallness" in capsys.readouterr().out
