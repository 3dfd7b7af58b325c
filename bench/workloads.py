"""The three workloads: their inputs, made from a seed, and one round each.

A round is one fixed list of operations. An operation fails when it
raises or misses a check; the other operations of the round still run.
Every call goes through the public functions of awwlab, looked up on
their module at call time, so a traced round sees them.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from awwlab import atom, bath, emission, exact, harness, reduced, spectral

import checks

WORKLOADS = ("ladder", "emission", "spectral-d3")

LADDER_EPS = (0.1, 0.05, 0.025, 0.0125)
EMISSION_EPS = 0.02
EMISSION_R = (0.25, 1.0, 4.0)
D3_EPS = (0.1, 0.05, 0.025)
D3_LAM2 = 1.0 / 64
D3_ROWS = 401          # rows of the tabulated atom, t = k/400
D3_DIAG_ROW = 200      # the adiabatic diagnostic runs over [0, 0.5]

HARNESS_DIR = "harness"   # CSVs written by awwlab.harness, under the round's directory

ONE = bath.TestObservable(weight=lambda w: np.ones_like(w), label="1")
OMEGA = bath.TestObservable(weight=lambda w: np.asarray(w, dtype=float), label="omega")


class Round:
    """Operations of one round with their failures."""

    def __init__(self):
        self.ops = []

    def op(self, name, fn):
        try:
            failures = fn()
        except Exception as exc:   # a raising operation is counted, not fatal
            self.ops.append({"name": name, "error": f"{type(exc).__name__}: {exc}",
                             "failures": []})
        else:
            self.ops.append({"name": name, "error": None, "failures": failures})


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def harness_csv_mib(out_dir):
    """Size of the CSV files awwlab.harness wrote for the round, in MiB."""
    total = 0
    for root, _, files in os.walk(os.path.join(out_dir, HARNESS_DIR)):
        total += sum(os.path.getsize(os.path.join(root, f))
                     for f in files if f.endswith(".csv"))
    return total / 2.0**20


# --- ladder ------------------------------------------------------------

def ladder_inputs(seed, out_dir):
    # The reference ladder is the input; it does not depend on the seed. The
    # order of the points stays fixed because it changes the peak memory.
    cfg = {"atom.name": "ww-ref-2level", "bath.name": "reference",
           "sweep.epsilons": ", ".join(repr(e) for e in LADDER_EPS),
           "sweep.lambda_rule": "lambda2=eps"}
    return {"cfg": cfg, "out": os.path.join(out_dir, HARNESS_DIR)}


def ladder_round(inp):
    rnd = Round()
    state = {}

    def sweep():
        harness.run_sweep(inp["cfg"], inp["out"], override=True)
        state["rows"] = {float(r["eps"]): r
                         for r in _read_csv(os.path.join(inp["out"], "sweep.csv"))}
        state["slopes"] = {r["metric"]: r
                           for r in _read_csv(os.path.join(inp["out"], "slopes.csv"))}
        return []

    rnd.op("run_sweep", sweep)
    for eps in LADDER_EPS:
        rnd.op(f"point eps={eps}",
               lambda eps=eps: checks.check_ladder_point(state["rows"][eps], eps))
    rnd.op("slopes", lambda: checks.check_ladder_fit(state["rows"], state["slopes"]))
    return rnd


# --- emission ----------------------------------------------------------

def emission_inputs(seed, out_dir):
    rng = np.random.default_rng(seed)
    # reconstruction times tau, 1 - tau and 1 on the output grid: their sum,
    # and so the reconstruction cost, is the same for every seed
    tau = int(rng.integers(20, 81)) / 200.0
    return {"times": (tau, 1.0 - tau, 1.0), "out": out_dir}


def emission_round(inp):
    rnd = Round()
    eps = EMISSION_EPS
    state = {}

    def prepare():
        scen = harness.builtin_scenario("ww-ref-2level")
        state["scen"] = scen
        state["frame"] = scen.frame()
        state["modes"] = exact.discretize_bath(scen.bath, eps, horizon=scen.t_end / eps)
        return []

    def buildup(r):
        scen, frame, modes = state["scen"], state["frame"], state["modes"]
        lam = float(np.sqrt(r * eps))
        traj = exact.propagate_exact(scen.atom, frame, modes, scen.z0, eps, lam,
                                     t_end=scen.t_end, bath=scen.bath,
                                     override_smallness=True, record_source=True)
        out = checks.check_norm(traj.z, traj.field)
        avg_one = emission.observable_average(traj, modes, ONE)
        avg_omega = emission.observable_average(traj, modes, OMEGA)
        out += checks.check_emitted_weight(float(avg_one[-1]), r, eps)
        out += checks.check_mean_frequency(float(avg_omega[-1] / avg_one[-1]), eps)
        for t in inp["times"]:
            k = int(np.argmin(np.abs(traj.times - t)))
            f_rec = exact.field_amplitude_closed_form(traj, modes, eps, lam, traj.times[k])
            out += checks.check_reconstruction(f_rec, traj.field[k])
        limits = [emission.regime_B_limit(frame, scen.bath, scen.atom, obs, 0, r,
                                          scen.t_end) for obs in (ONE, OMEGA)]
        return out + checks.check_limit_law(*limits, r)

    rnd.op("prepare", prepare)
    for r in EMISSION_R:
        rnd.op(f"buildup r={r}", lambda r=r: buildup(r))
    return rnd


# --- spectral-d3 -------------------------------------------------------

def d3_path(seed):
    """Seeded smooth three-level path A(t) = U(t) diag(alpha(t)) U(t)^H.

    Levels 1.0, 1.8, 2.6 drift by two seeded sine modes of amplitude
    <= 0.08 each, so the gap stays >= 0.48; U(t) = exp(tK) with a seeded
    anti-Hermitian K of norm pi/4; the coupling |v_j| lies in [0.42, 0.58]
    with a slow phase, so the coupling-smallness value stays below 0.6.
    """
    rng = np.random.default_rng(seed)
    d = 3
    ts = np.linspace(0.0, 1.0, D3_ROWS)
    amp = rng.uniform(-0.08, 0.08, (2, d))
    phase = rng.uniform(0.0, 2.0 * np.pi, (2, d))
    alphas = np.array([1.0, 1.8, 2.6]) + sum(
        amp[m] * np.sin((m + 1) * np.pi * ts[:, None] + phase[m]) for m in range(2))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    herm = 0.5 * (x + x.conj().T)                        # K = -i herm
    herm *= (np.pi / 4.0) / np.linalg.norm(herm, 2)
    lam_k, vec_k = np.linalg.eigh(herm)
    rot = np.einsum("ij,kj,lj->kil", vec_k, np.exp(-1j * np.outer(ts, lam_k)),
                    vec_k.conj())                        # U(t_k) = exp(-i t herm)
    mats = np.einsum("kij,kj,klj->kil", rot, alphas, rot.conj())
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    mag = rng.uniform(0.45, 0.55, d) * (1.0 + rng.uniform(-0.05, 0.05, d)
                                         * np.sin(np.pi * ts[:, None]))
    coup = mag * np.exp(1j * (rng.uniform(0.0, 2.0 * np.pi, d) + 0.3 * ts[:, None]))
    return ts, mats, coup


def write_atom_csv(path, ts, mats, coup):
    d = coup.shape[1]
    header = (["t"] + [f"{p}_a{i}{j}" for i in range(d) for j in range(d) for p in "ri"]
              + [f"{p}_v{j}" for j in range(d) for p in "ri"])
    body = np.column_stack(
        [ts] + [f(mats[:, i, j]) for i in range(d) for j in range(d) for f in (np.real, np.imag)]
        + [f(coup[:, j]) for j in range(d) for f in (np.real, np.imag)])
    np.savetxt(path, body, delimiter=",", header=",".join(header), comments="",
               fmt="%.17g")


def d3_inputs(seed, out_dir):
    rng = np.random.default_rng([seed, 3])
    ts, mats, coup = d3_path(seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "atom.csv")
    write_atom_csv(path, ts, mats, coup)
    alphas = np.linalg.eigvalsh(mats)
    tau = int(rng.integers(100, 301))
    return {
        "atom_csv": path, "out": out_dir, "ts": ts, "alphas": alphas,
        "phi0": np.linalg.eigh(mats[0])[1], "v2": np.abs(coup) ** 2,
        # Kato at tau, 1 - tau and 1 (fixed total transport length)
        "kato_rows": (tau, D3_ROWS - 1 - tau, D3_ROWS - 1),
        # spectra at four rows in t >= 0.5, so t/eps >= 5
        "spectrum_rows": tuple(int(k) for k in rng.choice(
            np.arange(200, D3_ROWS), size=4, replace=False)),
    }


def _d3_point(rnd, inp, eps, errors):
    lam = float(np.sqrt(D3_LAM2))
    cfg = {"atom.name": "tabulated", "atom.file": inp["atom_csv"],
           "bath.name": "reference", "sim.eps": repr(eps), "sim.lambda2": repr(D3_LAM2)}
    out_dir = os.path.join(inp["out"], HARNESS_DIR, f"eps{eps}")
    ts = inp["ts"]
    state = {}

    def simulate():
        harness.run_simulate(cfg, out_dir)
        rows = _read_csv(os.path.join(out_dir, "trajectory_exact.csv"))
        comp = _read_csv(os.path.join(out_dir, "comparison.csv"))
        errors[eps] = max(float(r["E_volt"]) for r in comp)
        return checks.check_norm_defect([float(r["norm_defect"]) for r in rows])

    def kato():
        scen = harness.scenario_from_config(cfg)
        frame = scen.frame()
        state["scen"], state["frame"] = scen, frame
        out = []
        for k in inp["kato_rows"]:
            t = float(ts[k])
            w = atom.kato_intertwiner(frame, t)
            moved = w @ frame.vectors_at(0.0)
            want = np.column_stack([np.exp(1j * atom.berry_phase(frame, j, t))
                                    * frame.vectors_at(t)[:, j] for j in range(scen.atom.dim)])
            out += checks.check_kato_berry(moved, want)
        return out

    def spectrum():
        scen, frame = state["scen"], state["frame"]
        gen = reduced.EffectiveGenerator(scen.atom, frame, scen.bath, eps, lam,
                                         t_end=scen.t_end)
        state["gen"] = gen
        out = []
        for k in inp["spectrum_rows"]:
            t = float(ts[k])
            g = gen(t)
            pspec = spectral.perturbed_spectrum(g, frame.energies_at(t), frame.vectors_at(t))
            alphas = inp["alphas"][k]
            radius = 0.5 * float(np.min(np.diff(alphas)))
            riesz = [spectral.riesz_projection(g, complex(a), radius) for a in alphas]
            out += checks.check_projections(riesz, pspec.projections)
            out += checks.check_decay_rates(pspec.eigenvalues.imag, alphas,
                                            inp["v2"][k], D3_LAM2, t / eps)
        return out

    def adiabatic():
        scen, frame = state["scen"], state["frame"]
        v = spectral.adiabatic_evolution_diagnostic(scen.atom, frame, scen.bath, eps,
                                                    lam, ts[D3_DIAG_ROW], gen=state["gen"])
        rows = slice(0, D3_DIAG_ROW + 1)
        rate = np.pi * inp["v2"][rows] * checks.rho(inp["alphas"][rows])
        predicted = np.exp(-(D3_LAM2 / eps) * np.trapezoid(rate, ts[rows], axis=0))
        return checks.check_adiabatic_norms(
            np.linalg.norm(v @ inp["phi0"], axis=0), predicted, D3_LAM2,
            float(np.max(np.sum(inp["v2"], axis=1))),
            float(np.min(np.diff(inp["alphas"], axis=1))))

    rnd.op(f"run_simulate eps={eps}", simulate)
    rnd.op(f"kato eps={eps}", kato)
    rnd.op(f"spectrum eps={eps}", spectrum)
    rnd.op(f"adiabatic eps={eps}", adiabatic)


def d3_round(inp):
    rnd = Round()
    errors = {}
    for eps in D3_EPS:
        _d3_point(rnd, inp, eps, errors)
    rnd.op("volterra trend", lambda: checks.check_error_falls(
        {e: errors[e] for e in D3_EPS}))
    return rnd


INPUTS = {"ladder": ladder_inputs, "emission": emission_inputs, "spectral-d3": d3_inputs}
ROUNDS = {"ladder": ladder_round, "emission": emission_round, "spectral-d3": d3_round}
