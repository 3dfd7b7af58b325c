"""Exact single-excitation dynamics against a discretized field.

The field is replaced by weighted quadrature modes; the coupled amplitude
equations are integrated in the interaction picture of the field, where the
fast mode phases exp(-i omega t / eps) appear explicitly in the coupling
terms instead of as stiff diagonal frequencies.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop853
from scipy.interpolate import CubicSpline
from scipy.special import roots_legendre

from . import bath as bath_mod
from .atom import (PHASE_PER_NODE, PHASE_PER_STEP, AtomPath, EigenFrame,
                   _broadcast_times, refined_grid, validate_coupling)
from .errors import (CouplingValidationError, DiscretizationError,
                     IntegratorError, ResolutionError, StiffnessError)

__all__ = [
    "ModeGrid",
    "Trajectory",
    "discretize_bath",
    "output_grid",
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


def output_grid(t_end: float, dt_out: float = DT_OUT) -> np.ndarray:
    """The output times: max(1, round(t_end/dt_out)) equal steps of [0, t_end]."""
    return np.linspace(0.0, t_end, max(1, round(t_end / dt_out)) + 1)


class _CoupledRhs:
    """Right-hand side of the amplitude equations, its time-only work batched.

    load(ts) computes, for all the times one step evaluates, everything that
    depends on time alone: the mode phases exp(-i w t / eps), g conj(phase),
    u(t) and A(t). at(k, y, out) writes the derivative at ts[k] into out.
    """

    def __init__(self, atom: AtomPath, u_spline: CubicSpline, modes: ModeGrid,
                 eps: float, lam: float):
        self.atom, self.u_spline, self.lam, self.d = atom, u_spline, lam, atom.dim
        self.g = modes.couplings
        self.minus_i_omegas = -1j * modes.omegas
        self.inv_eps = 1.0 / eps
        self.to_dz = -1j * self.inv_eps                 # dz = to_dz (A z + lam u <g, f>)
        self.to_df = self.to_dz * lam                   # df = to_df <u, z> g conj(phase)
        self.nfev = 0

    def load(self, ts: np.ndarray) -> None:
        d = self.d
        self.phase = np.exp(self.minus_i_omegas * (ts[:, None] * self.inv_eps))
        self.g_conj = self.g * np.conj(self.phase)
        self.u = self.u_spline(ts)
        self.a = _broadcast_times(self.atom.hamiltonian(ts), ts, (d, d), "A")

    def at(self, k: int, y: np.ndarray, out: np.ndarray) -> None:
        self.nfev += 1
        d, u = self.d, self.u[k]
        z, big_f = y[:d], y[d:]
        s_field = self.g @ (self.phase[k] * big_f)     # <g, f>
        s_atom = np.vdot(u, z)                          # <u, z>
        out[:d] = self.to_dz * (self.a[k] @ z + self.lam * u * s_field)
        np.multiply(self.to_df * s_atom, self.g_conj[k], out=out[d:])


# Hairer, Norsett & Wanner's DOP853 (Solving ODEs I, secs. II.4-II.6) with the
# tableau, error norm and step controller of scipy.integrate.DOP853, so the
# steps, and every number of the run, are the same as scipy's
_STAGES = _dop853.N_STAGES                                  # 12
_A = _dop853.A[:_STAGES, :_STAGES]
_A_EXTRA = _dop853.A[_STAGES + 1:]
_C_STEP = np.append(_dop853.C[1:_STAGES], 1.0)            # times of K[1:13] per unit h
_C_EXTRA = _dop853.C[_STAGES + 1:]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0                                # -1/(error order 7 + 1)
_MIN_RTOL = 100 * np.finfo(float).eps                       # scipy's floor on rtol


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class _Dop853:
    """Adaptive DOP853 steps of y' = rhs from y(0) = y0 up to t_end.

    Each attempted step first loads all twelve of its evaluation times into
    rhs, then runs the stages. step() takes one accepted step or raises
    StiffnessError once the step would fall below 10 ulp of t; dense(ts, cols)
    reads that step's dense output.
    """

    def __init__(self, rhs: _CoupledRhs, y0: np.ndarray, t_end: float,
                 rtol: float, atol: float):
        if rtol < _MIN_RTOL:
            warnings.warn(f"rtol = {rtol:g} is below {_MIN_RTOL:g}; using {_MIN_RTOL:g}",
                          stacklevel=3)
            rtol = _MIN_RTOL
        self.rhs, self.t_end, self.rtol, self.atol = rhs, t_end, rtol, atol
        self.t, self.y = 0.0, y0
        self.K = np.empty((_dop853.N_STAGES_EXTENDED, len(y0)), dtype=complex)
        self.f = np.empty_like(y0)
        rhs.load(np.zeros(1))
        rhs.at(0, y0, self.f)
        self.h_abs = self._first_step()
        self.steps = self.rejected = 0

    def _first_step(self) -> float:
        """The starting step of Hairer, Norsett & Wanner, sec. II.4."""
        y0, f0 = self.y, self.f
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, self.t_end)
        f1 = np.empty_like(y0)
        self.rhs.load(np.array([h0]))
        self.rhs.at(0, y0 + h0 * f0, f1)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
        return min(100 * h0, h1, self.t_end)

    def step(self) -> None:
        t, y, K, rhs = self.t, self.y, self.K, self.rhs
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError("integration failed: Required step size "
                                     "is less than spacing between numbers.")
            t_new = min(t + h_abs, self.t_end)
            h_abs = h = t_new - t
            rhs.load(t + _C_STEP * h)
            K[0] = self.f
            for s in range(1, _STAGES):
                rhs.at(s - 1, y + np.dot(K[:s].T, _A[s, :s]) * h, K[s])
            y_new = y + h * np.dot(K[:_STAGES].T, _dop853.B)
            rhs.at(_STAGES - 1, y_new, K[_STAGES])
            error_norm = self._error_norm(y, y_new, h)
            if error_norm < 1:
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            self.rejected += 1
        if error_norm == 0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        self.steps += 1
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y, self.h_abs = t_new, y_new, h_abs * factor
        self.f = K[_STAGES].copy()
        self.F = None

    def _error_norm(self, y: np.ndarray, y_new: np.ndarray, h: float) -> float:
        """Scaled norm of the embedded fifth- and third-order error estimates."""
        K = self.K[:_STAGES + 1]
        scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
        err5_norm_2 = np.linalg.norm(np.dot(K.T, _dop853.E5) / scale) ** 2
        err3_norm_2 = np.linalg.norm(np.dot(K.T, _dop853.E3) / scale) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def _interpolant(self) -> np.ndarray:
        """Rows F of the last step's seventh-degree dense output; three more stages."""
        K, h, y_old, rhs = self.K, self.h, self.y_old, self.rhs
        rhs.load(self.t_old + _C_EXTRA * h)
        for k, s in enumerate(range(_STAGES + 1, len(K))):
            rhs.at(k, y_old + np.dot(K[:s].T, _A_EXTRA[k, :s]) * h, K[s])
        F = np.empty((_dop853.INTERPOLATOR_POWER, K.shape[1]), dtype=complex)
        f_old, delta_y = K[0], self.y - y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(_dop853.D, K)
        return F

    def dense(self, ts: np.ndarray, cols: slice) -> np.ndarray:
        """Columns cols of the last step's dense output at its times ts, (len(ts), ncols).

        The interpolant costs three right-hand sides: a step builds it on its
        first call only, and a step without a sampled time never does.
        """
        if self.F is None:
            self.F = self._interpolant()
        x = ((ts - self.t_old) / self.h)[:, None]
        y_old = self.y_old[cols]
        y = np.zeros((len(ts), len(y_old)), dtype=complex)
        for i, f in enumerate(self.F[::-1, cols]):
            y += f
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += y_old
        return y


def propagate_exact(atom: AtomPath, frame: EigenFrame, modes: ModeGrid,
                    z0: np.ndarray, eps: float, lam: float,
                    t_end: Optional[float] = None, dt_out: float = DT_OUT,
                    rtol: float = ODE_RTOL,
                    override_smallness: bool = False, record_source: bool = False,
                    bath: Optional[bath_mod.BathSpec] = None) -> Trajectory:
    """Integrate the coupled atom-mode amplitudes from f_0 = 0.

    i eps dz/dt = A(t) z + lam u(t) <g, f>
    i eps df_i/dt = w_i f_i + lam <u(t), z> g_i
    in the field interaction picture F_i = exp(i w_i t / eps) f_i, stepped by
    _Dop853 (scipy.integrate.DOP853's steps to the last bit) with u = frame.u_at.
    The state is sampled on output_grid(t_end, dt_out), <u, z> on a refined_grid.
    meta records nfev and the accepted and rejected steps.
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
    omegas = modes.omegas
    inv_eps = 1.0 / eps

    t_eval = output_grid(t_end, dt_out)
    y_out = np.empty((len(t_eval), d + n_modes), dtype=complex)
    # (times, buffer, state columns) read from each step's dense output: the
    # full state on the output grid, only z on the source grid, so nothing of
    # size N x n_src is ever held
    samples = [(t_eval, y_out, slice(None))]
    if record_source:
        # every output time is a source time, and the phase per source step is
        # <= PHASE_PER_STEP, well inside the reconstruction's PHASE_PER_NODE
        t_src, _ = refined_grid(t_end, len(t_eval) - 1,
                                PHASE_PER_STEP * eps / max(float(omegas[-1]), 1.0))
        z_src = np.empty((len(t_src), d), dtype=complex)
        samples.append((t_src, z_src, slice(0, d)))
    filled = [0] * len(samples)

    y0 = np.concatenate([z0, np.zeros(n_modes, dtype=complex)])
    rhs = _CoupledRhs(atom, frame.u_at, modes, eps, lam)
    solver = _Dop853(rhs, y0, t_end, rtol, ODE_ATOL)
    while solver.t < t_end:
        solver.step()
        for k, (ts, buf, cols) in enumerate(samples):
            stop = int(np.searchsorted(ts, solver.t, side="right"))
            if stop > filled[k]:
                buf[filled[k]:stop] = solver.dense(ts[filled[k]:stop], cols)
                filled[k] = stop

    f_out = np.exp(-1j * np.outer(t_eval, omegas) * inv_eps) * y_out[:, d:]
    defect = np.abs(np.sum(np.abs(y_out) ** 2, axis=1) - 1.0)
    if np.max(defect) > NORM_TOL:
        raise IntegratorError(
            f"norm defect {np.max(defect):.2e} exceeds {NORM_TOL:.0e}")

    traj = Trajectory(
        times=t_eval, z=y_out[:, :d].copy(), field=f_out, norm_defect=defect,
        meta={"eps": eps, "lam": lam, "modes": n_modes, "method": "DOP853",
              "nfev": rhs.nfev, "steps": solver.steps, "rejected": solver.rejected},
    )
    if record_source:
        traj.source_times = t_src
        traj.source_vals = np.einsum("kj,kj->k", frame.u_at(t_src).conj(), z_src)
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
