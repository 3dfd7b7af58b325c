"""Exact single-excitation dynamics against a discretized field.

The field is replaced by weighted quadrature modes; the coupled amplitude
equations are integrated in the interaction picture of the field, where the
fast mode phases exp(-i omega t / eps) appear explicitly in the coupling
terms instead of as stiff diagonal frequencies.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import DOP853
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from . import bath as bath_mod
from .atom import (PHASE_PER_NODE, PHASE_PER_STEP, AtomPath, EigenFrame,
                   coupling_in_working_basis, validate_coupling)
from .errors import (CouplingValidationError, DiscretizationError,
                     IntegratorError, ResolutionError, StiffnessError)

__all__ = [
    "ModeGrid",
    "Trajectory",
    "discretize_bath",
    "propagate_exact",
    "populations",
    "de_excitation",
    "field_amplitude_closed_form",
]

ODE_RTOL = 1e-10        # relative tolerance of the exact oracle's DOP853 stepper
ODE_ATOL = 1e-12        # absolute tolerance of the exact oracle's DOP853 stepper
DT_OUT = 1.0 / 200      # output grid spacing of the oracle and the effective solve
TOL_CORR = 1e-4         # largest |gamma_N - gamma| a mode grid may leave
NORM_TOL = 1e-6         # largest allowed |norm^2 - 1| of the oracle's state

@dataclass(frozen=True)
class ModeGrid:
    """Quadrature discretization of the field: gamma_N(t) = sum g_i^2 e^{-i w_i t}."""

    omegas: np.ndarray      # ascending frequencies in [0, cutoff]
    weights: np.ndarray     # positive quadrature weights
    couplings: np.ndarray   # g_i = sqrt(u_i rho(w_i))
    horizon: float          # largest kernel argument the grid certifies
    achieved_error: float   # max |gamma_N - gamma| on the certification grid

    @property
    def size(self) -> int:
        return len(self.omegas)


def discretize_bath(bath: bath_mod.BathSpec, eps: float, tol_corr: float = TOL_CORR,
                    horizon: Optional[float] = None, max_doublings: int = 5) -> ModeGrid:
    """Gauss-Legendre mode grid reproducing gamma on [0, horizon].

    The horizon defaults to the physical duration 1/eps. With w = cutoff
    (s + 1)/2, the kernel e^{-i w x} is a phase times e^{-i (cutoff x/2) s},
    whose frequency is at most k = cutoff horizon / 2 on [0, horizon]. The
    Legendre coefficients of e^{-i k s} are spherical Bessel values j_n(k),
    which die off once n passes k by a few k^{1/3}, and an n-node Gauss rule
    is exact to degree 2n - 1. So the node count starts at
    max(32, k/2 + 6 k^{1/3}) and doubles until the discrete correlation
    matches gamma to tol_corr on 400 points of [0, horizon]; the doubling
    also catches a density that is not smooth.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if horizon is None:
        horizon = 1.0 / eps
    cutoff = bath.quad_cutoff
    k = 0.5 * cutoff * horizon
    n = max(32, math.ceil(0.5 * k + 6.0 * k ** (1.0 / 3.0)))
    xs = np.linspace(0.0, horizon, 400)
    gamma_ref = bath_mod.correlation(bath, xs)
    for _ in range(max_doublings + 1):
        nodes, wts = roots_legendre(n)
        omegas = 0.5 * cutoff * (nodes + 1.0)
        weights = 0.5 * cutoff * wts
        g2 = weights * bath.rho(omegas)
        gamma_n = np.exp(-1j * np.outer(xs, omegas)) @ g2
        err = float(np.max(np.abs(gamma_n - gamma_ref)))
        if err <= tol_corr:
            return ModeGrid(
                omegas=omegas, weights=weights, couplings=np.sqrt(g2),
                horizon=float(horizon), achieved_error=err,
            )
        n *= 2
    raise DiscretizationError(
        f"mode grid failed to reach tol_corr={tol_corr:.1e} (achieved {err:.1e})",
        achieved=err,
    )


@dataclass
class Trajectory:
    """Sampled dynamics: atomic amplitudes plus (optionally) mode amplitudes."""

    times: np.ndarray                     # (n,)
    z: np.ndarray                         # (n, d) amplitudes in the working basis
    field: Optional[np.ndarray] = None    # (n, N) raw mode amplitudes f_i
    norm_defect: Optional[np.ndarray] = None
    source_times: Optional[np.ndarray] = None   # fine grid for <w(s), z(s)>
    source_vals: Optional[np.ndarray] = None
    meta: dict = dataclasses.field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.z.shape[1]

    def z_at(self, t):
        """Cubic interpolation of z between stored samples."""
        return CubicSpline(self.times, self.z, axis=0)(t)


def _coupling_spline(atom: AtomPath, frame: EigenFrame, t_end: float, n: int = 1601):
    ts = np.linspace(0.0, t_end, n)
    return CubicSpline(ts, coupling_in_working_basis(atom, frame, ts), axis=0)


def propagate_exact(atom: AtomPath, frame: EigenFrame, modes: ModeGrid,
                    z0: np.ndarray, eps: float, lam: float,
                    t_end: Optional[float] = None, dt_out: float = DT_OUT,
                    rtol: float = ODE_RTOL,
                    override_smallness: bool = False, record_source: bool = False,
                    bath: Optional[bath_mod.BathSpec] = None) -> Trajectory:
    """Integrate the coupled atom-mode amplitudes from f_0 = 0.

    i eps dz/dt = A(t) z + lam u(t) <g, f>
    i eps df_i/dt = w_i f_i + lam <u(t), z> g_i
    in the field interaction picture F_i = exp(i w_i t / eps) f_i.
    The grid must certify the kernel over the whole run: ResolutionError if
    t_end/eps exceeds modes.horizon.
    """
    t_end = frame.check_end(t_end)
    if t_end / eps > modes.horizon * (1.0 + 1e-12):
        raise ResolutionError(
            f"t_end/eps = {t_end / eps:g} lies past the mode grid's horizon "
            f"{modes.horizon:g}; build the grid with horizon >= t_end/eps")
    z0 = np.asarray(z0, dtype=complex)
    if abs(np.linalg.norm(z0) - 1.0) > 1e-10:
        raise ValueError("initial atomic amplitudes must have unit norm")
    if bath is not None and lam != 0.0 and not override_smallness:
        report = validate_coupling(atom, frame, bath, lam)
        if not report.smallness_ok:
            raise CouplingValidationError(
                f"coupling-smallness value {report.smallness_value:.3f} >= 1; "
                "pass override_smallness=True to force the run")

    d, n_modes = atom.dim, modes.size
    u_spline = _coupling_spline(atom, frame, t_end)
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

    n_out = int(round(t_end / dt_out)) + 1
    t_eval = np.linspace(0.0, t_end, n_out)
    y_out = np.empty((n_out, d + n_modes), dtype=complex)
    # (times, buffer, state columns) read from each step's dense output: the
    # full state on the output grid, only z on the source grid, so nothing of
    # size N x n_src is ever held
    samples = [(t_eval, y_out, slice(None))]
    if record_source:
        # phase per source step <= PHASE_PER_STEP, well inside the
        # PHASE_PER_NODE that the closed-form reconstruction's trapezoid takes
        dt_src = PHASE_PER_STEP * eps / max(float(omegas[-1]), 1.0)
        n_src = int(np.ceil(t_end / dt_src)) + 1
        t_src = np.linspace(0.0, t_end, n_src)
        z_src = np.empty((n_src, d), dtype=complex)
        samples.append((t_src, z_src, slice(0, d)))
    filled = [0] * len(samples)

    y0 = np.concatenate([z0, np.zeros(n_modes, dtype=complex)])
    solver = DOP853(rhs, 0.0, y0, t_end, rtol=rtol, atol=ODE_ATOL)
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"integration failed: {message}")
        # the interpolant costs three right-hand sides: build it only for a
        # step that holds a sampled time
        dense = None
        for k, (ts, buf, cols) in enumerate(samples):
            stop = int(np.searchsorted(ts, solver.t, side="right"))
            if stop > filled[k]:
                if dense is None:
                    dense = solver.dense_output()
                buf[filled[k]:stop] = dense(ts[filled[k]:stop]).T[:, cols]
                filled[k] = stop

    f_out = np.exp(-1j * np.outer(t_eval, omegas) * inv_eps) * y_out[:, d:]
    defect = np.abs(np.sum(np.abs(y_out) ** 2, axis=1) - 1.0)
    if np.max(defect) > NORM_TOL:
        raise IntegratorError(
            f"norm defect {np.max(defect):.2e} exceeds {NORM_TOL:.0e}")

    traj = Trajectory(
        times=t_eval, z=y_out[:, :d].copy(), field=f_out, norm_defect=defect,
        meta={"eps": eps, "lam": lam, "modes": n_modes, "method": "DOP853",
              "nfev": solver.nfev},
    )
    if record_source:
        traj.source_times = t_src
        traj.source_vals = np.einsum("kj,kj->k", u_spline(t_src).conj(), z_src)
    return traj


def populations(traj: Trajectory, frame: EigenFrame) -> tuple[np.ndarray, np.ndarray]:
    """Per-level instantaneous populations p_j(t) and de-excitation p_down(t)."""
    vt = frame.vectors_at(traj.times)            # (n, d, d)
    amps = np.einsum("kij,ki->kj", vt.conj(), traj.z)
    return np.abs(amps) ** 2, de_excitation(traj)


def de_excitation(traj: Trajectory) -> np.ndarray:
    return 1.0 - np.sum(np.abs(traj.z) ** 2, axis=1)


def field_amplitude_closed_form(traj: Trajectory, modes: ModeGrid,
                                eps: float, lam: float, t: float) -> np.ndarray:
    """f_t from the quadrature of the source history.

    f_t(w_i) = -i (lam/eps) g_i int_0^t <u(s), z(s)> e^{-i (t-s) w_i / eps} ds,
    by the trapezoid rule over the source times s_k <= t. t must lie in
    [0, source_times[-1]], and the source grid must be uniform, of step h:
    the sum runs over blocks of b = floor(sqrt(n)) source times, and within
    the block that starts at s_m, e^{i w s_k/eps} = e^{i w s_m/eps}
    e^{i w (k-m) h/eps}, so one (N, b) phase matrix serves every block. That
    takes N (b + n/b) exponentials and O(N b) memory, not N n of each.
    """
    if traj.source_times is None:
        raise ResolutionError(
            "trajectory has no recorded source history; rerun with record_source=True")
    ts = traj.source_times
    if not 0.0 <= t <= ts[-1]:
        raise ValueError(f"t = {t} lies outside the source history [0, {ts[-1]}]")
    step = (ts[-1] - ts[0]) / max(len(ts) - 1, 1)
    if np.max(np.abs(ts - (ts[0] + step * np.arange(len(ts))))) > 1e-9 * step:
        raise ResolutionError("source history is not on a uniform grid")
    if float(modes.omegas[-1]) * step / eps > PHASE_PER_NODE:
        raise ResolutionError("source history too coarse for the mode phases")
    n = int(np.searchsorted(ts, t + 1e-12, side="right"))
    ts = ts[:n]
    half = 0.5 * np.diff(ts)
    weights = np.zeros(n)
    weights[1:] += half
    weights[:-1] += half
    terms = weights * traj.source_vals[:n]
    b = math.isqrt(n)
    rate = modes.omegas / eps
    base = np.exp(1j * np.outer(rate, step * np.arange(b)))      # (N, b)
    integral = np.zeros(modes.size, dtype=complex)
    for m in range(0, n, b):
        block = terms[m:m + b]
        integral += np.exp(-1j * rate * (t - ts[m])) * (base[:, :len(block)] @ block)
    return -1j * (lam / eps) * modes.couplings * integral
