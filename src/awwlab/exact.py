"""Exact single-excitation dynamics against a discretized field.

The field is replaced by weighted quadrature modes; the coupled amplitude
equations are stepped with the field in the interaction picture of each
step's start, where the fast mode phases exp(-i omega t / eps) appear in the
coupling terms instead of as stiff diagonal frequencies. The field enters
each stage in rank-one form, so a step's fifteen stages, the dense
interpolant's with them, are one triangular solve, and the phases come from
one table per step size. What depends on time alone, A(t) and u(t), is
evaluated once for a run of up to MAP_STEPS equal steps, and every sample,
on the output grid or in the source history, is read from the dense output
of blocks of kept steps, not step by step.
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
from scipy.linalg.lapack import ztrtrs
from scipy.special import roots_legendre

from . import bath as bath_mod
from .atom import (PHASE_PER_NODE, PHASE_PER_STEP, AtomPath, EigenFrame,
                   _broadcast_times, _within, fine_grid, validate_coupling)
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
STEP_BITS = 8           # significant bits of each oracle step: steps of one size share a table
MAP_STEPS = 16          # most steps of one size whose stage maps one A(t), u(t) evaluation covers
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
    matches gamma to tol_corr on CERT_POINTS points of [0, horizon]; the doubling
    also catches a density that is not smooth.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if horizon is None:
        horizon = 1.0 / eps
    cutoff = bath.quad_cutoff
    k = 0.5 * cutoff * horizon
    n = max(32, math.ceil(0.5 * k + 6.0 * k ** (1.0 / 3.0)))
    xs = np.linspace(0.0, horizon, bath_mod.CERT_POINTS)
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
        """Cubic interpolation of z between stored samples; ValueError for a time
        outside [times[0], times[-1]], where the spline would extrapolate."""
        return CubicSpline(self.times, self.z, axis=0)(_within(t, self.times, "trajectory's"))


def output_grid(t_end: float, dt_out: float = DT_OUT) -> np.ndarray:
    """The output times: max(1, round(t_end/dt_out)) equal steps of [0, t_end]."""
    return np.linspace(0.0, t_end, max(1, round(t_end / dt_out)) + 1)


# Hairer, Norsett & Wanner's DOP853 (Solving ODEs I, secs. II.4-II.6) with the
# tableau, error norm and step controller of scipy.integrate.DOP853
_STAGES = _dop853.N_STAGES                                  # 12; K[12] is f(t + h, y_new)
_C, _A = _dop853.C, _dop853.A                               # all 16 stages; A[12] is B
_UPDATE = np.array([_A[_STAGES, :_STAGES + 1], _dop853.E5, _dop853.E3])  # y_new, err5, err3
# the dense output's rows F = h _DENSE @ K, as scipy forms them from K and y_new - y
_DENSE = np.vstack([_A[_STAGES], -_A[_STAGES], 2 * _A[_STAGES], _dop853.D])
_DENSE[1, 0] += 1.0
_DENSE[2, [0, _STAGES]] -= 1.0
# scipy's nested form weights row k of F by x^(k//2 + 1) (1 - x)^((k + 1)//2)
_DENSE_POWERS = np.arange(len(_DENSE)) // 2 + 1, (np.arange(len(_DENSE)) + 1) // 2
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0                                # -1/(error order 7 + 1)
_MIN_RTOL = 100 * np.finfo(float).eps                       # scipy's floor on rtol
# kept steps per dense call: a block holds their start fields and phase
# tables, so its size bounds what the reader holds
_DENSE_BLOCK = 16


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _norm2(x: np.ndarray) -> float:
    return np.vdot(x, x).real


def _round_step(h: float) -> float:
    """h rounded down to STEP_BITS significant bits."""
    mantissa, exponent = math.frexp(h)
    return math.ldexp(math.floor(math.ldexp(mantissa, STEP_BITS)), exponent - STEP_BITS)


class _Step:
    """One accepted step as its dense output reads it: its start t, size h, z
    and f at t, its sixteen stage rows k and the phase table's rows g E. f
    and the table are references, not copies."""

    __slots__ = ("t", "h", "z", "f", "k", "g_phase")

    def __init__(self, t, h, z, f, k, g_phase):
        self.t, self.h, self.z, self.f, self.k, self.g_phase = t, h, z, f, k, g_phase


def _dense_basis(x: np.ndarray) -> np.ndarray:
    """(len(x), 7) weights of the rows of F at the step fractions x."""
    x = x[:, None]
    return x ** _DENSE_POWERS[0] * (1 - x) ** _DENSE_POWERS[1]


class _Dop853:
    """Adaptive DOP853 steps of frame.atom's amplitude equations from z0 and the
    empty field up to t_end, at rtol and ODE_ATOL, with u(t) = frame.u_at(t).

    The state is z and the field f at the step's start t. Within a step the
    field is taken in the picture of t, F(s) = exp(i w (s - t)/eps) f(s), so
    stage j's field derivative is kappa_j g conj(E_j), with kappa = -i (lam/eps)
    <u, z>. A stage reads the field only through sigma = <g, f> =
    (g E_s) . f + h sum_j A_sj kappa_j G_sj, G_sj = gamma_N((c_s - c_j) h/eps):
    each stage maps (z, sigma) linearly to (dz/dt, kappa), d + 1 numbers, and
    an attempt's fifteen stages, the dense interpolant's three with them,
    solve one lower triangular system. The N-mode work of a step is a few
    products with its phase table. Steps are rounded down to STEP_BITS
    significant bits, so t + h is exact and consecutive steps share one
    table; the solver holds only the last table built, and each returned step
    references its own. The stage maps need A(t) and u(t), which depend on
    time alone: one evaluation covers the stages of the next MAP_STEPS steps
    of one size (fewer if t_end comes first), and a step reads its row of
    that batch; a new size, or a step past the batch, evaluates a new one.
    step() takes one accepted step and returns it as a _Step, or raises
    StiffnessError once the step would fall below 10 ulp of t. dense(steps,
    ts, rows) reads z at the times ts, and f at ts[rows], from the stage rows
    of kept steps.
    """

    def __init__(self, frame: EigenFrame, modes: ModeGrid, eps: float, lam: float,
                 z0: np.ndarray, t_end: float, rtol: float):
        if rtol < _MIN_RTOL:
            warnings.warn(f"rtol = {rtol:g} is below {_MIN_RTOL:g}; using {_MIN_RTOL:g}",
                          stacklevel=3)
            rtol = _MIN_RTOL
        self.frame, self.eps, self.lam = frame, eps, lam
        self.omegas, self.g = modes.omegas, modes.couplings
        self.t_end, self.rtol = t_end, rtol
        self.k = np.empty((len(_C), frame.dim + 1), dtype=complex)
        self.nfev = self.steps = self.rejected = self.tables = 0
        self.table_h = self.batch_h = None
        self.batch_starts, self.batch_next = np.empty(0), 0
        f0 = np.zeros(modes.size, dtype=complex)
        self.t, self.z, self.f, self.abs_f = 0.0, z0, f0, np.abs(f0)
        # between steps, row _STAGES holds (dz/dt, kappa) at t
        self.k[_STAGES] = self._rhs(self._maps(np.zeros(1))[0], z0, 0.0)
        self.h_abs = self._first_step()

    def _maps(self, ts: np.ndarray) -> np.ndarray:
        """The maps (z, sigma) -> (dz/dt, kappa) at the times ts, of shape
        ts.shape + (d + 1, d + 1): dz/dt = -(i/eps) (A z + lam sigma u) and
        kappa = -i (lam/eps) <u, z>."""
        d, to_dz = self.z.shape[0], -1j / self.eps
        u = self.frame.u_at(ts)
        maps = np.zeros(ts.shape + (d + 1, d + 1), dtype=complex)
        maps[..., :d, :d] = to_dz * _broadcast_times(self.frame.atom.hamiltonian(ts), ts,
                                                     (d, d), "A")
        maps[..., :d, d] = (to_dz * self.lam) * u
        maps[..., d, :d] = (to_dz * self.lam) * u.conj()
        return maps

    def _rhs(self, maps: np.ndarray, z: np.ndarray, sigma: complex) -> np.ndarray:
        self.nfev += 1
        return maps @ np.append(z, sigma)

    def _first_step(self) -> float:
        """The starting step of Hairer, Norsett & Wanner, sec. II.4."""
        g, z0, f0, d = self.g, self.z, self.f, len(self.z)
        k0 = self.k[_STAGES]
        y0 = np.concatenate([z0, f0])
        dy0 = np.concatenate([k0[:d], k0[d] * g])
        scale = ODE_ATOL + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(dy0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, self.t_end)
        # one Euler step: the field at h0 is exp(-i w h0/eps) (f0 + h0 kappa g)
        phase = np.exp(-1j * self.omegas * (h0 / self.eps))
        k1 = self._rhs(self._maps(np.array([h0]))[0], z0 + h0 * k0[:d],
                       (g * phase) @ (f0 + h0 * dy0[d:]))
        dy1 = np.concatenate([k1[:d], k1[d] * g * np.conj(phase)])
        d2 = _rms((dy1 - dy0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
        return min(100 * h0, h1, self.t_end)

    def _tabulate(self, h: float) -> None:
        """The phase table of step size h, unless it is the one held: the
        (16, N) rows g E of the phases E = exp(-i w c h/eps) (g conj(E) is
        their conjugate, g being real), the step's own phase E(h), and the
        (16, 16, d + 1) stage weights, h A_sj on z and h A_sj G_sj on sigma."""
        if h == self.table_h:
            return
        self.table_h, self.tables = h, self.tables + 1
        phase = np.exp(np.outer(_C * (-1j * h / self.eps), self.omegas))
        self.g_phase, self.step_phase = self.g * phase, phase[_STAGES].copy()
        weights = np.empty(self.k.shape[:1] + self.k.shape, dtype=complex)
        weights[..., :-1] = (h * _A)[..., None]
        weights[..., -1] = h * _A * (self.g_phase @ self.g_phase.conj().T)
        self.weights = weights
        # -W_sj of stages 1 .. 15, shaped to multiply their maps into the
        # (s, k, j, l) layout of _stages' triangular system
        self.system_weights = -weights[1:, None, 1:]

    def _stage_maps(self, t: float, h: float) -> np.ndarray:
        """The (16, d + 1, d + 1) stage maps of the step of size h from t: its
        row of the held batch, or of a new batch for the next MAP_STEPS steps
        of size h that end by t_end."""
        j = self.batch_next
        if h != self.batch_h or j >= len(self.batch_starts) or self.batch_starts[j] != t:
            n = max(1, min(MAP_STEPS, int((self.t_end - t) / h)))
            # t + j h is exact, so these are the times the steps will start from
            self.batch_starts, self.batch_h, j = t + h * np.arange(n), h, 0
            self.batch = self._maps(self.batch_starts[:, None] + _C * h)
        self.batch_next = j + 1
        return self.batch[j]

    def _stages(self, z: np.ndarray) -> None:
        """Stages 1 .. 15 of the step from z, given k_0; 13 .. 15 serve dense().

        Stage s solves k_s = M_s (x_s + sum_j W_sj k_j), x_s = (z, (g E_s) . f),
        for its map M_s and the table's weights W: with A strictly lower
        triangular, that is one unit lower triangular system in the k_s.
        """
        w, maps = self.weights[1:], self.maps[1:]
        x = np.empty((len(_C) - 1, len(z) + 1), dtype=complex)
        x[:, :-1] = z
        x[:, -1] = self.sigma_free[1:]
        x += np.einsum("sjl,jl->sl", w[:, :1], self.k[:1])
        coupled = maps[:, :, None, :] * self.system_weights
        self.k[1:] = ztrtrs(coupled.reshape(x.size, -1),
                            np.einsum("skl,sl->sk", maps, x).reshape(-1, 1),
                            lower=True, unitdiag=True)[0].reshape(len(x), -1)
        self.nfev += len(x)

    def step(self) -> _Step:
        t, z, f = self.t, self.z, self.f
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        k = np.empty_like(self.k)        # a new array: the last step keeps its rows
        k[0], self.k = self.k[_STAGES], k
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError("integration failed: Required step size "
                                     "is less than spacing between numbers.")
            t_new = min(t + _round_step(h_abs), self.t_end)
            h_abs = h = t_new - t
            self._tabulate(h)
            self.maps = self._stage_maps(t, h)
            self.sigma_free = self.g_phase @ f              # <g, f> carried freely to c h
            self._stages(z)
            # rows: the update, then the fifth- and third-order error estimates;
            # those of f are conjugated, as they sum rows g conj(E)
            z_rows = _UPDATE @ k[:_STAGES + 1, :-1]
            f_rows = np.conj(_UPDATE * k[:_STAGES + 1, -1]) @ self.g_phase[:_STAGES + 1]
            z_new = z + h * z_rows[0]
            f_new = self.step_phase * (f + h * np.conj(f_rows[0]))
            abs_f_new = np.abs(f_new)
            scale_z = ODE_ATOL + np.maximum(np.abs(z), np.abs(z_new)) * self.rtol
            scale_f = ODE_ATOL + np.maximum(self.abs_f, abs_f_new) * self.rtol
            err_z, err_f = z_rows[1:] / scale_z, f_rows[1:] * (1.0 / scale_f)
            err5_norm_2 = _norm2(err_z[0]) + _norm2(err_f[0])
            err3_norm_2 = _norm2(err_z[1]) + _norm2(err_f[1])
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error_norm = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error_norm = h * err5_norm_2 / np.sqrt(denom * (len(z) + len(f)))
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
        self.t, self.z, self.f, self.abs_f = t_new, z_new, f_new, abs_f_new
        self.h_abs = h_abs * factor
        return _Step(t, h, z, f, k, self.g_phase)

    def dense(self, steps: list, ts: np.ndarray, rows: np.ndarray):
        """(z, f): z at the ascending times ts, (len(ts), d), and f at ts[rows],
        (len(rows), N), from consecutive kept steps that cover them. A time is
        read from the step whose span (t, t + h] holds it; the first step's
        span holds its start too. z takes each step's rows of F = h _DENSE @ K,
        f only the rows of the steps that hold ts[rows], with their tables."""
        starts = np.array([s.t for s in steps])
        owner = np.maximum(np.searchsorted(starts, ts, side="left") - 1, 0)
        held, pos = np.unique(owner, return_inverse=True)
        steps = [steps[i] for i in held]
        k = np.array([s.k for s in steps])
        dt = ts - starts[owner]
        h = np.array([s.h for s in steps])[pos]
        basis = h[:, None] * _dense_basis(dt / h)
        coef = _DENSE @ k[..., :-1]                     # (m, 7, d) in _dense_basis
        z = np.array([s.z for s in steps])[pos] + np.einsum("ik,ikl->il", basis, coef[pos])
        f = np.empty((len(rows), len(self.omegas)), dtype=complex)
        for r, i in enumerate(rows):
            step, w = steps[pos[i]], basis[i] @ _DENSE
            f[r] = step.f + np.conj(np.conj(w * k[pos[i], :, -1]) @ step.g_phase)
        return z, f * np.exp(np.outer(dt[rows], -1j / self.eps * self.omegas))


def propagate_exact(atom: AtomPath, frame: EigenFrame, modes: ModeGrid,
                    z0: np.ndarray, eps: float, lam: float,
                    t_end: Optional[float] = None, dt_out: float = DT_OUT,
                    rtol: float = ODE_RTOL,
                    override_smallness: bool = False, record_source: bool = False,
                    *, bath: bath_mod.BathSpec) -> Trajectory:
    """Integrate the coupled atom-mode amplitudes from f_0 = 0.

    i eps dz/dt = A(t) z + lam u(t) <g, f>
    i eps df_i/dt = w_i f_i + lam <u(t), z> g_i
    with u = frame.u_at, stepped by _Dop853: scipy.integrate.DOP853's tableau,
    error norm and controller on steps rounded down to STEP_BITS significant
    bits; its results lie within about 1e-12 of scipy's, on at most 1 % more steps.
    z is sampled on the fine_grid of output_grid(t_end, dt_out), which holds
    every output time exactly: on the output times alone, or with
    record_source on steps over which the fastest mode turns at most
    PHASE_PER_STEP, for the history <u, z>. The samples are read from the
    dense output of _DENSE_BLOCK kept steps at a time, and each output time
    takes z from its sample and f from its step's start field and table: no
    more than that many steps, and nothing of size N per source time, are
    ever held.
    meta records nfev = 2 + 15 (steps + rejected), the accepted and rejected
    steps and the phase tables built. The grid must certify the kernel over
    the whole run: ResolutionError if t_end/eps exceeds modes.horizon. `atom`
    must be frame.atom. Unless override_smallness, a coupling that fails
    validate_coupling's smallness bound for `bath` raises
    CouplingValidationError; lam = 0 is not checked.
    """
    frame.check_atom(atom)
    t_end = frame.check_end(t_end)
    if t_end / eps > modes.horizon * (1.0 + 1e-12):
        raise ResolutionError(
            f"t_end/eps = {t_end / eps:g} lies past the mode grid's horizon "
            f"{modes.horizon:g}; build the grid with horizon >= t_end/eps")
    z0 = np.asarray(z0, dtype=complex)
    if abs(np.linalg.norm(z0) - 1.0) > 1e-10:
        raise ValueError("initial atomic amplitudes must have unit norm")
    if lam != 0.0 and not override_smallness:
        report = validate_coupling(frame, bath, lam)
        if not report.smallness_ok:
            raise CouplingValidationError(
                f"coupling-smallness value {report.smallness_value:.3f} >= 1; "
                "pass override_smallness=True to force the run")

    d, n_modes = atom.dim, modes.size
    t_eval = output_grid(t_end, dt_out)
    # the phase per source step is <= PHASE_PER_STEP, well inside the
    # reconstruction's PHASE_PER_NODE
    h_src = PHASE_PER_STEP * eps / max(float(modes.omegas[-1]), 1.0)
    t_samples, at = fine_grid(t_eval, h_src if record_source else np.inf)
    z = np.empty((len(t_samples), d), dtype=complex)
    field = np.empty((len(t_eval), n_modes), dtype=complex)
    solver = _Dop853(frame, modes, eps, lam, z0, t_end, rtol)
    kept, filled = [], 0
    while solver.t < t_end:
        kept.append(solver.step())
        if len(kept) == _DENSE_BLOCK or solver.t >= t_end:
            stop = int(np.searchsorted(t_samples, solver.t, side="right"))
            if stop > filled:
                # the output times among samples filled .. stop - 1
                lo, hi = np.searchsorted(at, [filled, stop])
                z[filled:stop], field[lo:hi] = solver.dense(
                    kept, t_samples[filled:stop], at[lo:hi] - filled)
            filled, kept = stop, []

    z_out = z[at]
    defect = np.abs(np.sum(np.abs(z_out) ** 2, axis=1) + np.sum(np.abs(field) ** 2, axis=1)
                    - 1.0)
    if np.max(defect) > NORM_TOL:
        raise IntegratorError(
            f"norm defect {np.max(defect):.2e} exceeds {NORM_TOL:.0e}")

    traj = Trajectory(
        times=t_eval, z=z_out, field=field, norm_defect=defect,
        meta={"eps": eps, "lam": lam, "modes": n_modes, "method": "DOP853",
              "nfev": solver.nfev, "steps": solver.steps, "rejected": solver.rejected,
              "tables": solver.tables},
    )
    if record_source:
        traj.source_times = t_samples
        traj.source_vals = np.einsum("kj,kj->k", frame.u_at(t_samples).conj(), z)
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
    by the trapezoid rule over the source times s_k <= t. eps and lam must
    be the run's, as traj.meta records them, and t must lie in
    [0, source_times[-1]]; ValueError if not. The source grid must be uniform,
    of step h: the sum runs over blocks of b = floor(sqrt(n)) source times,
    and within the block that starts at s_m, e^{i w s_k/eps} = e^{i w s_m/eps}
    e^{i w (k-m) h/eps}, so one (N, b) phase matrix serves every block. That
    takes N (b + n/b) exponentials and O(N b) memory, not N n of each.
    """
    if traj.source_times is None:
        raise ResolutionError(
            "trajectory has no recorded source history; rerun with record_source=True")
    if (traj.meta.get("eps", eps), traj.meta.get("lam", lam)) != (eps, lam):
        raise ValueError("eps and lam differ from the run's, recorded in traj.meta")
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
