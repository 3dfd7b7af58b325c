"""Scenario assembly, single runs, parameter sweeps and CSV reporting.

Sweep points are independent; they are dispatched to a process pool and
merged by index, so serial and concurrent runs produce identical files.
All floats are written with a fixed format to keep outputs byte-stable.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import asymptotics, bath as bath_mod, emission, exact, reduced
from .atom import AtomPath, diag_rotation_atom, eigenframe, tabulated_atom, validate_coupling
from .config import RunConfig
from .errors import AwwlabError, ConfigError

__all__ = [
    "Scenario",
    "builtin_scenario",
    "scenario_from_config",
    "run_simulate",
    "run_sweep",
    "run_emission",
    "run_regimes",
    "run_validate",
    "loglog_slope",
]

FLOAT_FMT = "%.12e"
# the oracle's norm defect is rounding, 1e-16 to 1e-13, and the oracle refuses
# one over NORM_TOL = 1e-6: an absolute quantum of 1e-12 keeps what the column
# says without printing which way a floating-point sum rounded
DEFECT_FMT = "%.12f"
FRAME_GRID = 801     # eigenframe grid points on [0, t_end]
CACHE_SIZE = 8       # parsed tables, and eigenframes, kept per process


@dataclass
class Scenario:
    """One atom-bath-initial-state combination ready to run.

    Nothing in the eigenframe depends on eps or lam, so every Scenario of
    one atom and t_end in a process shares one frame.
    """

    atom: AtomPath
    bath: bath_mod.BathSpec
    z0: np.ndarray
    t_end: float

    def frame(self):
        """The eigenframe on [0, t_end], built on the first call for this atom and t_end."""
        return _frame(self.atom, self.t_end)


@lru_cache(maxsize=CACHE_SIZE)
def _frame(atom: AtomPath, t_end: float):
    """One eigenframe per (atom, t_end); a GapViolation or FrameSmoothnessError
    is raised again on the next call, never stored."""
    return eigenframe(atom, np.linspace(0.0, t_end, FRAME_GRID))


def builtin_scenario(name: str, t_end: Optional[float] = None) -> Scenario:
    """Builtin scenarios by name.

    ww-ref-2level: rotating frame with drifting upper level; the standard
    time-dependent test case. ww-const-2level: autonomous counterpart for
    long-time semigroup comparisons.
    """
    if name == "ww-ref-2level":
        levels = (lambda t: 1.0, lambda t: 2.0 + 0.3 * t)
        theta, t_default = (lambda t: np.pi * t / 4.0), 1.0
    elif name == "ww-const-2level":
        levels, theta, t_default = (lambda t: 1.0, lambda t: 2.0), (lambda t: 0.0), 20.0
    else:
        raise ConfigError(f"unknown builtin scenario {name!r}", key="atom.name")
    atom = diag_rotation_atom(level_funcs=levels, theta_func=theta,
                              coupling_func=lambda t: np.array([1.0, 1.0]))
    return Scenario(atom=atom, bath=bath_mod.reference_bath(),
                    z0=np.array([1.0, 0.0], dtype=complex),
                    t_end=t_default if t_end is None else t_end)


def scenario_from_config(cfg: dict) -> Scenario:
    return _scenario(RunConfig.from_dict(cfg))


def _scenario(rc: RunConfig) -> Scenario:
    """The configured Scenario. Tables with the same bytes give the same atom
    (or bath) object, and so the same eigenframe for the same t_end."""
    if rc.atom_name == "tabulated":
        atom = _read_table(tabulated_atom, rc.atom_file, "atom.file")
        t_first, t_table = (float(t) for t in atom.coupling.x[[0, -1]])
        if t_first > 0.0:   # the frame starts at 0, and before the table the splines extrapolate
            raise ConfigError(f"atom.file = {rc.atom_file!r} starts at t = {t_first:g}; "
                              f"the run starts at t = 0", key="atom.file")
        t_end = t_table if rc.sim_t_end is None else rc.sim_t_end
        if t_end > t_table:
            raise ConfigError(f"sim.t_end = {t_end:g} lies past the atom table's last "
                              f"time {t_table:g}", key="sim.t_end")
        scen = Scenario(atom=atom, bath=_bath(rc),
                        z0=np.eye(atom.dim, dtype=complex)[0], t_end=t_end)
    else:
        scen = builtin_scenario(rc.atom_name, t_end=rc.sim_t_end)
        scen.bath = _bath(rc)
    if rc.sim_z0 is not None:
        z0 = np.asarray(rc.sim_z0, dtype=complex)
        if len(z0) != scen.atom.dim:
            raise ConfigError(f"sim.z0 has {len(z0)} entries, atom dimension is "
                              f"{scen.atom.dim}", key="sim.z0")
        scen.z0 = z0 / np.linalg.norm(z0)
    return scen


def _bath(rc: RunConfig) -> bath_mod.BathSpec:
    if rc.bath_file is not None:
        return _read_table(bath_mod.bath_from_csv, rc.bath_file, "bath.file")
    try:
        return bath_mod.bath_from_name(rc.bath_name)
    except KeyError:
        raise ConfigError(f"unknown bath {rc.bath_name!r}", key="bath.name")


def _read_table(reader, path: Optional[str], key: str):
    """reader on the file's bytes, parsed once per content in a process; a missing
    key or file, or a malformed table, is a ConfigError."""
    if path is None:
        raise ConfigError(f"missing required key {key!r}", key=key)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return _parse_table(reader, data)
    except (OSError, ValueError, IndexError) as exc:
        raise ConfigError(f"{key} = {path!r}: {exc}", key=key)


@lru_cache(maxsize=CACHE_SIZE)
def _parse_table(reader, data: bytes):
    """reader on the text of `data`; keyed on the content, so a file rewritten
    within the clock's resolution is read again, and a failed parse is never stored."""
    return reader(io.StringIO(data.decode(), newline=None))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else FLOAT_FMT % cell
                             for cell in row])


def write_trajectory_csv(path, traj, frame):
    d = traj.dim
    header = (["t"]
              + [f"{part}_z{j + 1}" for j in range(d) for part in ("re", "im")]
              + [f"p_{j + 1}" for j in range(d)] + ["p_down", "norm_defect"])
    p, p_down = exact.populations(traj, frame)
    defect = traj.norm_defect if traj.norm_defect is not None \
        else np.zeros(len(traj.times))
    # Python floats: FLOAT_FMT formats them faster than numpy scalars
    rows = np.column_stack([traj.times, np.ascontiguousarray(traj.z).view(float),
                            p, p_down]).tolist()
    for row, value in zip(rows, defect.tolist()):
        row.append(DEFECT_FMT % value)
    _write_csv(path, header, rows)


def _oracle(scen: Scenario, eps: float, lam: float, override: bool = False, **kw):
    """Mode grid and exact trajectory of one point; kw holds any of discretize_bath's
    tol_corr and propagate_exact's rtol and dt_out."""
    grid_kw = {"tol_corr": kw.pop("tol_corr")} if "tol_corr" in kw else {}
    modes = exact.discretize_bath(scen.bath, eps, horizon=scen.t_end / eps, **grid_kw)
    return modes, exact.propagate_exact(scen.atom, scen.frame(), modes, scen.z0, eps,
                                        lam, bath=scen.bath, override_smallness=override,
                                        **kw)


def _solve_all(scen: Scenario, eps: float, lam: float, override: bool = False,
               dt_out: float = exact.DT_OUT, **solver):
    """The point's asymptotic tables and its four trajectories, all on
    output_grid(t_end, dt_out); solver holds any of rtol and tol_corr."""
    frame = scen.frame()
    _, tr_exact = _oracle(scen, eps, lam, override, dt_out=dt_out, **solver)
    tr_volt = reduced.volterra_solve(frame, scen.bath, eps, lam, scen.z0, dt_out=dt_out)
    tr_eff = reduced.effective_solve(frame, scen.bath, eps, lam, scen.z0, dt_out=dt_out)
    # built after the solvers, so its splines do not add to their peak memory
    tables = asymptotics.AsymptoticTables(frame, scen.bath)
    z_lead = asymptotics.leading_order_z(tables, eps, lam, scen.z0, tr_exact.times)
    tr_lead = exact.Trajectory(times=tr_exact.times, z=z_lead,
                               meta={"eps": eps, "lam": lam, "scheme": "leading"})
    return tables, tr_exact, tr_volt, tr_eff, tr_lead


def _errors(tr_exact, tr_volt, tr_eff, tr_lead) -> dict:
    """Distance ||z - z_exact|| of each reduced description at every oracle time;
    _solve_all runs all four on the oracle's output grid."""
    return {name: np.linalg.norm(traj.z - tr_exact.z, axis=1)
            for name, traj in (("E_volt", tr_volt), ("E_eff", tr_eff), ("E_lead", tr_lead))}


def point_metrics(scen: Scenario, eps: float, lam: float, **kw) -> dict:
    """Error metrics of one (eps, lambda) point against the exact oracle."""
    tables, tr_exact, tr_volt, tr_eff, tr_lead = _solve_all(scen, eps, lam, **kw)
    errors = {name: float(np.max(e))
              for name, e in _errors(tr_exact, tr_volt, tr_eff, tr_lead).items()}
    report = asymptotics.regime_classify(eps, lam, tables=tables, z0=scen.z0, t=scen.t_end)
    return {"eps": eps, "lam": lam, **errors,
            "p_down": float(exact.de_excitation(tr_exact)[-1]),
            "p_down_pred": report.p_down, "regime": report.regime}


def _solver_kw(rc: RunConfig) -> dict:
    return {"rtol": rc.solver_rtol, "dt_out": rc.solver_dt_out,
            "tol_corr": rc.solver_tol_corr}


def run_simulate(cfg: dict, out_dir: str, override: bool = False) -> list:
    """One (eps, lambda) point; writes four trajectory CSVs plus a comparison."""
    rc = RunConfig.from_dict(cfg)
    tables, tr_exact, tr_volt, tr_eff, tr_lead = _solve_all(
        _scenario(rc), rc.sim_eps, np.sqrt(rc.sim_lambda2), override=override,
        **_solver_kw(rc))

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for tag, traj in (("exact", tr_exact), ("volterra", tr_volt),
                      ("effective", tr_eff), ("leading", tr_lead)):
        path = os.path.join(out_dir, f"trajectory_{tag}.csv")
        write_trajectory_csv(path, traj, tables.frame)
        written.append(path)

    errors = _errors(tr_exact, tr_volt, tr_eff, tr_lead)
    path = os.path.join(out_dir, "comparison.csv")
    _write_csv(path, ["t", *errors], zip(tr_exact.times, *errors.values()))
    written.append(path)
    return written


def _lambda_for(rule: tuple, eps: float, index: int) -> float:
    """Coupling lam of sweep point `index` at `eps` by a RunConfig.sweep_lambda_rule;
    it must lie in (0, 1]."""
    try:
        if rule[0] == "list":
            lam = rule[1][index]
        else:
            lam = math.sqrt(rule[1] * eps ** rule[2])
    except (ValueError, IndexError, OverflowError):
        raise ConfigError(f"sweep.lambda_rule gives no coupling for sweep point "
                          f"{index + 1} (eps = {eps!r})", key="sweep.lambda_rule")
    if not 0.0 < lam <= 1.0:
        raise ConfigError(f"sweep.lambda_rule gives lam = {lam!r} at sweep point "
                          f"{index + 1}, outside (0, 1]", key="sweep.lambda_rule")
    return lam


def _sweep_points(rc: RunConfig) -> list:
    """(eps, lam) of every sweep point."""
    if rc.sweep_epsilons is None:
        raise ConfigError("missing required key 'sweep.epsilons'", key="sweep.epsilons")
    return [(eps, _lambda_for(rc.sweep_lambda_rule, eps, i))
            for i, eps in enumerate(rc.sweep_epsilons)]


def _sweep_point(scen: Scenario, kw: dict, eps: float, lam: float) -> dict:
    try:
        return point_metrics(scen, eps, lam, **kw)
    except AwwlabError as exc:
        return {"eps": eps, "lam": lam, "error": f"{type(exc).__name__}: {exc}"}


_pool_state = None   # (Scenario, point_metrics keywords) of a sweep pool worker process


def _start_pool_worker(rc: RunConfig, kw: dict) -> None:
    global _pool_state
    _pool_state = (_scenario(rc), kw)


def _pool_point(point: tuple) -> dict:
    return _sweep_point(*_pool_state, *point)


def loglog_slope(xs, ys):
    """Least-squares slope of log y vs log x with its standard error; the xs
    must hold at least two distinct values."""
    lx, ly = np.log(np.asarray(xs, dtype=float)), np.log(np.asarray(ys, dtype=float))
    n = len(lx)
    if len(np.unique(lx)) < 2:
        raise ValueError("a slope fit needs at least two distinct x values")
    coeffs, residuals, *_ = np.polyfit(lx, ly, 1, full=True)
    slope = float(coeffs[0])
    if n > 2 and len(residuals):
        var = float(residuals[0]) / (n - 2)
        stderr = float(np.sqrt(var / np.sum((lx - lx.mean()) ** 2)))
    else:
        stderr = 0.0
    return slope, stderr


def run_sweep(cfg: dict, out_dir: str, override: bool = False,
              threads: int = 1) -> dict:
    """All sweep points on one scenario per process, then log-log slope fits per metric."""
    rc = RunConfig.from_dict(cfg)
    points = _sweep_points(rc)
    if len(points) < 3:
        raise ConfigError("need >= 3 points for slope fit", key="sweep.epsilons")
    axis = 0 if rc.sweep_direction == "eps" else 1
    if len({point[axis] for point in points}) < 2:
        key = "sweep.epsilons" if axis == 0 else "sweep.lambda_rule"
        raise ConfigError(f"{key} gives one {rc.sweep_direction} for every sweep point; "
                          "a slope fit needs at least two", key=key)
    scen = _scenario(rc)     # an unreadable table raises here, before any worker starts
    kw = {"override": override, **_solver_kw(rc)}

    if threads > 1:
        # the pool forks every worker up front, and each builds a Scenario
        with ProcessPoolExecutor(max_workers=min(threads, len(points)),
                                 initializer=_start_pool_worker,
                                 initargs=(rc, kw)) as pool:
            results = list(pool.map(_pool_point, points))
    else:
        results = [_sweep_point(scen, kw, *point) for point in points]

    os.makedirs(out_dir, exist_ok=True)
    header = ["eps", "lambda", "E_lead", "E_volt", "E_eff",
              "p_down", "p_down_pred", "regime", "status"]
    rows = []
    for res in results:
        if "error" in res:
            rows.append([res["eps"], res["lam"], "nan", "nan", "nan",
                         "nan", "nan", "failed", res["error"]])
        else:
            rows.append([res["eps"], res["lam"], res["E_lead"], res["E_volt"],
                         res["E_eff"], res["p_down"], res["p_down_pred"],
                         res["regime"], "ok"])
    _write_csv(os.path.join(out_dir, "sweep.csv"), header, rows)

    good = [res for res in results if "error" not in res]
    xs = [res["eps"] if axis == 0 else res["lam"] for res in good]
    slopes = {}
    if len(good) >= 3 and len(set(xs)) >= 2:
        for metric in ("E_lead", "E_volt", "E_eff"):
            ys = [res[metric] for res in good]
            if min(ys) > 0.0:
                slopes[metric] = loglog_slope(xs, ys)
    _write_csv(os.path.join(out_dir, "slopes.csv"),
               ["metric", "axis", "slope", "stderr"],
               [[m, rc.sweep_direction, s, se] for m, (s, se) in slopes.items()])
    return {"results": results, "slopes": slopes,
            "partial": len(good) < len(results)}


_OBSERVABLE_WEIGHTS = {"one": lambda w: np.ones_like(w),
                       "omega": lambda w: np.asarray(w, dtype=float)}


def run_emission(cfg: dict, out_dir: str, override: bool = False) -> dict:
    """Emitted-spectrum CSV plus mode-sum average vs the applicable limit law.

    The limit is each level's regime_B_limit weighted by |<phi_j(0), z0>|^2,
    as regime_classify weights its survival law.
    """
    rc = RunConfig.from_dict(cfg)
    scen = _scenario(rc)
    r = rc.emission_r
    eps = rc.sim_eps if rc.emission_eps is None else rc.emission_eps
    if r * eps > 1.0:   # lam^2 = r eps, confined to (0, 1] as every other coupling
        raise ConfigError(f"emission.r = {r!r} at eps = {eps!r} gives lam^2 = {r * eps!r}, "
                          f"outside (0, 1]", key="emission.r")
    lam = float(np.sqrt(r * eps))
    obs = bath_mod.TestObservable(weight=_OBSERVABLE_WEIGHTS[rc.emission_observable])
    modes, traj = _oracle(scen, eps, lam, override, **_solver_kw(rc))
    avg = float(emission.observable_average(traj, modes, obs)[-1])
    frame = scen.frame()
    weights = np.abs(frame.vectors[0].conj().T @ scen.z0) ** 2
    limit = float(sum(w * emission.regime_B_limit(frame, scen.bath, scen.atom, obs, j, r,
                                                  scen.t_end)
                      for j, w in enumerate(weights) if w > 0.0))

    os.makedirs(out_dir, exist_ok=True)
    t_fin = traj.times[-1]
    rows = [[t_fin, w, abs(f) ** 2, b]
            for w, f, b in zip(modes.omegas, traj.field[-1], obs(modes.omegas))]
    rows.append(["summary", avg, limit, r])
    _write_csv(os.path.join(out_dir, "spectrum.csv"),
               ["t", "omega", "density", "B"], rows)
    return {"average": avg, "limit": limit, "r": r, "eps": eps}


def run_regimes(cfg: dict, out_dir: str, override: bool = False) -> list:
    """Regime classification table over the configured sweep points."""
    rc = RunConfig.from_dict(cfg)
    points = _sweep_points(rc)
    scen = _scenario(rc)
    tables = asymptotics.AsymptoticTables(scen.frame(), scen.bath)
    rows = []
    out = []
    for eps, lam in points:
        rep = asymptotics.regime_classify(eps, lam, tables=tables, z0=scen.z0,
                                          t=scen.t_end)
        rows.append([eps, lam, rep.ratio, rep.regime, rep.p_down])
        out.append(rep)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "regimes.csv"),
               ["eps", "lambda", "ratio", "regime", "p_down_pred"], rows)
    return out


def run_validate(cfg: dict, out_dir: Optional[str] = None,
                 override: bool = False) -> dict:
    """Coupling-smallness and well-coupledness report for the configured point."""
    rc = RunConfig.from_dict(cfg)
    scen = _scenario(rc)
    eps, lam = rc.sim_eps, float(np.sqrt(rc.sim_lambda2))
    report = validate_coupling(scen.frame(), scen.bath, lam)
    ok = report.ok or override
    if not bath_mod.check_decay_bound(scen.bath):
        ok = False
    return {"ok": ok, "smallness": report.smallness_value,
            "smallness_ok": report.smallness_ok,
            "well_coupled": report.well_coupled,
            "beta_min": [float(b) for b in report.beta_min], "eps": eps, "lam": lam}
