"""Exact single-excitation dynamics against a discretized field.

The field is replaced by weighted quadrature modes; the coupled amplitude
equations are integrated in the interaction picture of the field, where the
fast mode phases exp(-i omega t / eps) appear explicitly in the coupling
terms instead of as stiff diagonal frequencies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from . import bath as bath_mod
from .atom import AtomPath, EigenFrame, coupling_in_working_basis, validate_coupling
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

ODE_METHOD = "DOP853"   # solve_ivp method of the exact oracle
ODE_ATOL = 1e-12        # solve_ivp absolute tolerance of the exact oracle
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

    def discrete_correlation(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.exp(-1j * np.outer(x, self.omegas)) @ (self.couplings**2)
        return out if out.size > 1 else out[0]


def discretize_bath(bath: bath_mod.BathSpec, eps: float, tol_corr: float = 1e-4,
                    horizon: Optional[float] = None, max_doublings: int = 5) -> ModeGrid:
    """Gauss-Legendre mode grid reproducing gamma on [0, horizon].

    The horizon defaults to the physical duration 1/eps; the node count
    starts from the density rule (spacing ~ pi/(2*horizon) over the cutoff)
    and doubles until the discrete correlation matches gamma to tol_corr.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if horizon is None:
        horizon = 1.0 / eps
    cutoff = bath.quad_cutoff
    n = int(np.ceil(2.0 * cutoff * horizon / np.pi))
    n = max(n, 32)
    xs = np.linspace(0.0, horizon, 400)
    gamma_ref = bath_mod.correlation(bath, xs)
    for _ in range(max_doublings + 1):
        nodes, wts = leggauss(n)
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
                    t_end: float = 1.0, dt_out: float = 1.0 / 200,
                    rtol: float = 1e-10,
                    override_smallness: bool = False, record_source: bool = False,
                    bath: Optional[bath_mod.BathSpec] = None) -> Trajectory:
    """Integrate the coupled atom-mode amplitudes from f_0 = 0.

    i eps dz/dt = A(t) z + lam u(t) <g, f>
    i eps df_i/dt = w_i f_i + lam <u(t), z> g_i
    in the field interaction picture F_i = exp(i w_i t / eps) f_i.
    """
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
    if record_source:
        # phase per source step <= 0.1 rad so the closed-form reconstruction
        # can integrate the mode phases by trapezoid
        dt_src = 0.1 * eps / max(float(omegas[-1]), 1.0)
        n_src = int(np.ceil(t_end / dt_src)) + 1
        t_src = np.linspace(0.0, t_end, n_src)
        t_all = np.union1d(t_eval, t_src)
    else:
        t_src = None
        t_all = t_eval

    y0 = np.concatenate([z0, np.zeros(n_modes, dtype=complex)])
    sol = solve_ivp(rhs, (0.0, t_end), y0, method=ODE_METHOD, t_eval=t_all,
                    rtol=rtol, atol=ODE_ATOL)
    if not sol.success:
        raise StiffnessError(f"integration failed: {sol.message}")

    idx = np.searchsorted(t_all, t_eval)
    z_out = sol.y[:d, idx].T
    f_out = (np.exp(-1j * np.outer(t_eval, omegas) * inv_eps) * sol.y[d:, idx].T)
    defect = np.abs(np.sum(np.abs(sol.y[:, idx]) ** 2, axis=0) - 1.0)
    if np.max(defect) > NORM_TOL:
        raise IntegratorError(
            f"norm defect {np.max(defect):.2e} exceeds {NORM_TOL:.0e}")

    traj = Trajectory(
        times=t_eval, z=z_out, field=f_out, norm_defect=defect,
        meta={"eps": eps, "lam": lam, "modes": n_modes, "method": ODE_METHOD,
              "nfev": sol.nfev},
    )
    if record_source:
        jdx = np.searchsorted(t_all, t_src)
        z_src = sol.y[:d, jdx].T
        u_src = u_spline(t_src)
        traj.source_times = t_src
        traj.source_vals = np.einsum("kj,kj->k", u_src.conj(), z_src)
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

    f_t(w_i) = -i (lam/eps) g_i int_0^t <u(s), z(s)> e^{-i (t-s) w_i / eps} ds.
    """
    if traj.source_times is None:
        raise ResolutionError(
            "trajectory has no recorded source history; rerun with record_source=True")
    ts, src = traj.source_times, traj.source_vals
    mask = ts <= t + 1e-12
    ts, src = ts[mask], src[mask]
    if len(ts) > 1:
        step = ts[1] - ts[0]
        if float(modes.omegas[-1]) * step / eps > 0.5:
            raise ResolutionError("source history too coarse for the mode phases")
    phase = np.exp(-1j * np.outer(modes.omegas, (t - ts)) / eps)   # (N, n)
    integral = np.trapezoid(phase * src[None, :], ts, axis=1)
    return -1j * (lam / eps) * modes.couplings * integral
