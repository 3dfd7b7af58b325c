"""Time-dependent atomic Hamiltonian, smooth eigenframe, and geometric transport.

The working basis is the eigenbasis of A(0); the coupling amplitudes v_j(t)
are given relative to the instantaneous eigenvectors, and w(t) collects the
same interaction re-expressed over the frozen t=0 eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, isqrt
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import eigh

from . import bath as bath_mod
from .errors import FrameSmoothnessError, GapViolation

__all__ = [
    "AtomPath",
    "EigenFrame",
    "eigenframe",
    "coupling_in_working_basis",
    "berry_phase",
    "kato_intertwiner",
    "magnus_propagate",
    "fine_grid",
    "validate_coupling",
    "CouplingReport",
    "diag_rotation_atom",
    "complex_phase_atom",
    "tabulated_atom",
]

HERMITICITY_TOL = 1e-12
PHASE_PER_STEP = 0.1       # target rad of fast phase per Magnus step
PHASE_PER_NODE = 0.5       # most rad of fast phase per step of the Volterra stepper
KATO_UNITARITY_TOL = 1e-8      # largest entry of |W^H W - 1| for a Kato transport
_GAUSS_OFFSET = np.sqrt(3.0) / 6.0
# diagonal Pade degrees m and the largest 1-norm at which each one's backward
# error stays below double precision (Higham, SIAM J. Matrix Anal. Appl. 26
# (2005), Table 2.3)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))


@dataclass(frozen=True)
class AtomPath:
    """d-level Hamiltonian path A(t) with coupling amplitudes v(t).

    hamiltonian(t) -> (..., d, d) Hermitian matrices for an array t of shape (...)
    coupling(t)    -> (..., d) complex amplitudes relative to the moving eigenbasis
    Either may instead return one (d, d) or (d,) constant, which broadcasts
    over t. The amplitudes v_j are taken against the eigenvectors that
    eigenframe tracks from t = 0, so they depend on the sign and phase of the
    t = 0 eigenvectors (scipy.linalg.eigh's choice unless eigvec_provider
    fixes it).
    eigvec_provider, when given, fixes the eigenframe gauge analytically:
    it returns (energies ascending, eigenvector columns) at a scalar time t.
    """

    dim: int
    hamiltonian: Callable[[np.ndarray], np.ndarray]
    coupling: Callable[[np.ndarray], np.ndarray]
    eigvec_provider: Optional[Callable[[float], tuple]] = None

    def matrix(self, t) -> np.ndarray:
        """A(t) for a scalar t, or the (..., d, d) stack for an array of times.

        Each matrix must be Hermitian to HERMITICITY_TOL against its own scale.
        """
        t = np.asarray(t, dtype=float)
        a = _broadcast_times(self.hamiltonian(t), t, (self.dim, self.dim), "A")
        bad = _not_hermitian(a)
        if np.any(bad):
            raise ValueError(f"A({t[bad][0]}) is not Hermitian to tolerance")
        return a

    def couplings(self, t) -> np.ndarray:
        """v(t) for a scalar t, or the (..., d) stack for an array of times."""
        t = np.asarray(t, dtype=float)
        return _broadcast_times(self.coupling(t), t, (self.dim,), "v")


def _not_hermitian(a: np.ndarray) -> np.ndarray:
    """Which matrices of a (..., d, d) stack are not Hermitian to HERMITICITY_TOL
    against their own scale, the largest of 1 and their largest entry."""
    defect = np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2)), axis=(-2, -1))
    return defect > HERMITICITY_TOL * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))


def _broadcast_times(value, t: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """Complex value of shape t.shape + shape; a constant of `shape` broadcasts."""
    value = np.asarray(value, dtype=complex)
    if value.shape == t.shape + shape:
        return value
    if value.shape == shape:
        return np.broadcast_to(value, t.shape + shape)
    raise ValueError(f"{name}(t) has shape {value.shape} for times of shape "
                     f"{t.shape}, expected {t.shape + shape}")


def _within(t, times: np.ndarray, owner: str) -> np.ndarray:
    """t as a float array; ValueError if a time lies outside [times[0], times[-1]]."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= times[0]) & (t <= times[-1])):
        raise ValueError(f"t in [{np.min(t):g}, {np.max(t):g}] lies outside the "
                         f"{owner} range [{times[0]:g}, {times[-1]:g}]")
    return t


@dataclass
class EigenFrame:
    """Smoothly tracked eigendecomposition of A(t) on a time grid."""

    atom: AtomPath
    times: np.ndarray          # (n,)
    energies: np.ndarray       # (n, d) ascending in j
    vectors: np.ndarray        # (n, d, d), column j = phi_j(t_k)
    gap: float

    @property
    def dim(self) -> int:
        return self.atom.dim

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def a_norm(self) -> float:
        """max ||A(t)|| over the nodes: the largest |alpha_j|, A(t) being Hermitian."""
        return float(np.max(np.abs(self.energies)))

    def check_times(self, t) -> np.ndarray:
        """t as a float array (_within): outside the nodes the splines would extrapolate."""
        return _within(t, self.times, "frame's")

    def check_end(self, t_end: Optional[float] = None) -> float:
        """A solver's last time: t_end, or the frame's last; ValueError past the
        frame or at its first time, where the run would be empty."""
        t_end = float(self.times[-1] if t_end is None else self.check_times(t_end))
        if t_end <= self.times[0]:
            raise ValueError(f"t_end = {t_end:g} leaves an empty span from {self.times[0]:g}")
        return t_end

    def check_atom(self, atom: AtomPath) -> None:
        """ValueError unless atom is self.atom, the path the frame was built from. Only
        exact.propagate_exact, reduced.EffectiveGenerator, emission.regime_B_limit and
        spectral.adiabatic_evolution_diagnostic still take both, and each calls it."""
        if atom is not self.atom:
            raise ValueError("atom is not frame.atom, the path the frame was built from")

    @cached_property
    def energies_at(self) -> CubicSpline:
        return CubicSpline(self.times, self.energies, axis=0)

    @cached_property
    def vectors_at(self) -> CubicSpline:
        """Eigenvector columns at arbitrary t in the tracked gauge.

        Cubic-spline interpolation of the grid columns, with no
        re-orthonormalization: off the grid the columns are orthonormal only
        to interpolation accuracy (a defect of about 5e-14 on the reference
        frame of 801 points).
        """
        return CubicSpline(self.times, self.vectors, axis=0)

    @cached_property
    def _berry(self) -> PPoly:
        """xi_j(t) = i int <phi_j, dphi_j> as a (d,)-valued spline in t, zero at times[0].

        The antiderivative of the cubic spline through the connection at the
        grid points, with dphi_j from the derivative of vectors_at.
        """
        conn = np.einsum("kij,kij->kj", self.vectors.conj(),
                         self.vectors_at.derivative()(self.times))  # <phi_j | dphi_j>
        # <phi|dphi> is purely imaginary for a normalized path; the real residue
        # measures frame roughness.
        residue = np.max(np.abs(conn.real))
        if residue > 1e-4:
            raise FrameSmoothnessError(
                f"Berry connection has real residue {residue:.1e}; refine the grid")
        xi = CubicSpline(self.times, 1j * conn, axis=0).antiderivative()
        imag_residue = np.max(np.abs(xi(self.times).imag))
        if imag_residue > 1e-8:
            raise FrameSmoothnessError(
                f"Berry phase accumulated imaginary part {imag_residue:.1e}")
        return xi

    @cached_property
    def u_at(self) -> CubicSpline:
        """u(t) = sum_l v_l(t) phi_l(t), the cubic spline through its node values."""
        u = self.vectors @ self.atom.couplings(self.times)[..., None]
        return CubicSpline(self.times, u[..., 0], axis=0)

    @cached_property
    def _kato(self) -> Callable[[np.ndarray], np.ndarray]:
        """K(t) = sum_j dP_j P_j = sum_j (dphi_j + phi_j <dphi_j, phi_j>) phi_j^H."""
        dvectors_at = self.vectors_at.derivative()

        def kato(t):
            v, dv = self.vectors_at(t), dvectors_at(t)
            overlap = np.einsum("...ij,...ij->...j", dv.conj(), v)   # <dphi_j, phi_j>
            k_mat = (dv + v * overlap[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
            return 0.5 * (k_mat - np.swapaxes(k_mat.conj(), -1, -2))

        return kato

    def projections(self, k: int) -> np.ndarray:
        """(d, d, d) stack of rank-one spectral projections at grid index k."""
        v = self.vectors[k]
        return np.einsum("ij,kj->jik", v, v.conj())


def eigenframe(atom: AtomPath, times: np.ndarray, gap_min: float = 1e-8) -> EigenFrame:
    """Track a smooth eigenframe of A(t) over the grid.

    Without an analytic provider, the eigenvectors at times[0] are those of
    scipy.linalg.eigh, and their sign or phase is physical: the coupling
    amplitudes v_j(t) are defined against these columns. The other grid
    points come from one batched eigh, each column phase-aligned so its
    overlap with the previous grid point is real and positive (a cumulative
    sum of the overlap phases).

    The frame owns its times, energies and vectors and returns them
    read-only, so a frame that several callers share cannot be changed by one.
    """
    times = np.array(times, dtype=float)
    n, d = len(times), atom.dim
    if atom.eigvec_provider is not None:
        pairs = [atom.eigvec_provider(t) for t in times]
        energies = np.array([np.asarray(a, float) for a, _ in pairs])
        vectors = np.array([np.asarray(v, complex) for _, v in pairs])
        ortho = np.max(np.abs(np.swapaxes(vectors.conj(), 1, 2) @ vectors - np.eye(d)),
                       axis=(1, 2))
        if np.any(ortho > 1e-10):
            k = int(np.argmax(ortho > 1e-10))
            raise FrameSmoothnessError(
                f"provided eigenvectors not orthonormal at t={times[k]} "
                f"(defect {ortho[k]:.1e})")
    else:
        # one A(t) evaluation per grid point: bench/test_bench.py counts 801
        # traced AtomPath.matrix calls for the ww-ref-2level frame
        mats = np.array([atom.matrix(t) for t in times])
        energies = np.empty((n, d))
        vectors = np.empty((n, d, d), dtype=complex)
        energies[0], vectors[0] = eigh(mats[0])
        energies[1:], vectors[1:] = np.linalg.eigh(mats[1:])
        overlap = np.einsum("kij,kij->kj", vectors[:-1].conj(), vectors[1:])
        vectors[1:] *= np.exp(-1j * np.cumsum(np.angle(overlap), axis=0))[:, None, :]
    bad = np.any(np.diff(energies, axis=1) < gap_min, axis=1) | (energies[:, 0] <= 0.0)
    if np.any(bad):
        t_bad = float(times[np.argmax(bad)])
        raise GapViolation(f"eigenvalue gap/positivity violated at t={t_bad}", time=t_bad)
    gap = float(np.min(np.diff(energies, axis=1))) if d > 1 else np.inf
    flip = np.real(np.einsum("kij,kij->kj", vectors[:-1].conj(), vectors[1:])) <= 0.0
    if np.any(flip):
        k = int(np.argmax(np.any(flip, axis=1)))
        raise FrameSmoothnessError(
            f"eigenvector phase flip at t={times[k + 1]}, levels {np.nonzero(flip[k])[0]}")
    for array in (times, energies, vectors):
        array.flags.writeable = False
    return EigenFrame(atom=atom, times=times, energies=energies, vectors=vectors, gap=gap)


def coupling_in_working_basis(frame: EigenFrame, t) -> np.ndarray:
    """The interaction vector u(t) in the working basis, frame.u_at(t). A scalar t
    gives a (d,) vector, an array the (..., d) stack."""
    return frame.u_at(frame.check_times(t))


def berry_phase(frame: EigenFrame, j: int, t):
    """xi_j(t) = i int_0^t <phi_j(u), d/du phi_j(u)> du in the frame gauge.

    A scalar t gives a float, an array of times the array of phases.
    """
    return np.take(frame._berry(frame.check_times(t)).real, j, axis=-1)


def kato_intertwiner(frame: EigenFrame, t: float, s: float = 0.0) -> np.ndarray:
    """Transport W(t,s) solving dW/dt = K(t) W, W(s,s) = 1.

    magnus_propagate with steps no longer than the frame grid spacing; the
    anti-Hermitian generator makes every step exactly unitary.
    """
    frame.check_times([t, s])
    if t < s:
        return kato_intertwiner(frame, s, t).conj().T
    d = frame.dim
    if t == s:
        return np.eye(d, dtype=complex)
    w = magnus_propagate(frame._kato, fine_grid([s, t], frame.step)[0])[-1]
    defect = np.max(np.abs(w.conj().T @ w - np.eye(d)))
    if defect > KATO_UNITARITY_TOL:
        raise FrameSmoothnessError(
            f"Kato transport lost unitarity (defect {defect:.1e}); refine the grid")
    return w


def magnus_propagate(matfun: Callable[[np.ndarray], np.ndarray], grid,
                     scale: complex = 1.0) -> np.ndarray:
    """(n, d, d) cumulative products U(grid[k], grid[0]) for U' = scale M(t) U.

    One fourth-order two-point Gauss Magnus step per grid interval (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470 (2009), sec. 5). matfun is called once,
    on the array of all Gauss nodes, and returns the (2(n-1), d, d) stack or
    one constant (d, d) matrix; the step exponentials are one batched
    scaling-and-squaring Pade exponential (_expm), then a running product.
    M may be non-Hermitian: the effective generator and the free, Kato and
    adiabatic transports all take this one path.
    """
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)
    nodes = np.concatenate([grid[:-1] + (0.5 - _GAUSS_OFFSET) * h,
                            grid[:-1] + (0.5 + _GAUSS_OFFSET) * h])
    m = np.asarray(matfun(nodes))
    m = scale * np.broadcast_to(m, nodes.shape + m.shape[-2:])
    b1, b2 = m[:len(h)], m[len(h):]
    h = h[:, None, None]
    return _running_product(
        _expm(0.5 * h * (b1 + b2) + (np.sqrt(3.0) / 12.0) * h * h * (b2 @ b1 - b1 @ b2)))


def _running_product(steps: np.ndarray) -> np.ndarray:
    """(n + 1, d, d) products steps[k-1] ... steps[0] of an (n, d, d) stack,
    the identity first, in blocks of b = floor(sqrt(n)) steps: b - 1 batched
    products form every block's own running product, then one product per
    block carries in all the steps before it, about 2 sqrt(n) calls in all."""
    n, d = steps.shape[0], steps.shape[-1]
    b = max(isqrt(n), 1)
    blocks = -(-n // b)
    u = np.empty((1 + blocks * b, d, d), dtype=complex)
    u[0] = u[n + 1:] = np.eye(d)                  # the last block is padded with identities
    u[1:n + 1] = steps
    within = u[1:].reshape(blocks, b, d, d)
    for j in range(1, b):
        np.matmul(within[:, j], within[:, j - 1], out=within[:, j])
    for i in range(1, blocks):
        np.matmul(within[i], within[i - 1, -1], out=within[i])
    return u[:n + 1]


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (n, d, d) stack, Hermitian or not.

    Scaling and squaring (Higham 2005): one diagonal Pade approximant for the
    whole stack, of the lowest degree whose threshold covers the stack's
    largest 1-norm; a matrix beyond the degree-13 threshold is scaled by its
    own power of two and squared back.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    top = np.max(norm, initial=0.0)
    m, theta = next((p for p in _PADE_THETA if top <= p[1]), _PADE_THETA[-1])
    with np.errstate(invalid="ignore"):   # a non-finite matrix stays unscaled
        s = np.ceil(np.log2(np.maximum(norm / theta, 1.0)))
    s = np.where(np.isfinite(s), s, 0.0).astype(int)
    a = a * np.exp2(-s)[:, None, None]
    b = [factorial(2 * m - k) * factorial(m) / (factorial(2 * m) * factorial(k)
                                                 * factorial(m - k)) for k in range(m + 1)]
    even = [np.broadcast_to(np.eye(a.shape[-1]), a.shape), a @ a]   # a^0, a^2, ...
    while len(even) < (m + 1) // 2:
        even.append(even[-1] @ even[1])
    u = a @ sum(b[2 * i + 1] * p for i, p in enumerate(even))
    v = sum(b[2 * i] * p for i, p in enumerate(even))
    r = np.linalg.solve(v - u, v + u)
    for i in range(s.max(initial=0)):
        sel = s > i
        r[sel] = r[sel] @ r[sel]
    return r


def fine_grid(stops, h_max: float):
    """(grid, at): the ascending times `stops`, times less than 1e-13 apart
    counting as one, with each gap between them split into the fewest equal
    steps no longer than h_max; grid[at] are the stops, exactly. h_max = inf
    keeps the stops alone."""
    stops = np.asarray(stops, dtype=float)
    stops = stops[np.concatenate([[True], np.diff(stops) >= 1e-13])]
    gaps = np.diff(stops)
    sub = np.maximum(np.ceil(gaps / h_max), 1).astype(int)
    at = np.concatenate([[0], np.cumsum(sub)])
    gap = np.repeat(np.arange(len(gaps)), sub)
    grid = np.append(stops[gap] + (np.arange(len(gap)) - at[gap]) * (gaps / sub)[gap],
                     stops[-1])
    return grid, at


@dataclass(frozen=True)
class CouplingReport:
    smallness_value: float          # 4 lambda^2 ||v||^2 ||gamma||_L1 / gap
    smallness_ok: bool
    beta_min: np.ndarray            # per level inf_t beta_j(t)
    well_coupled: np.ndarray        # per level bool

    @property
    def ok(self) -> bool:
        return self.smallness_ok and bool(np.all(self.well_coupled))


def validate_coupling(frame: EigenFrame, bath: "bath_mod.BathSpec",
                      lam: float) -> CouplingReport:
    """Coupling smallness and per-level well-coupledness at the frame's nodes,
    with the couplings of frame.atom."""
    v = frame.atom.couplings(frame.times)
    vnorm2 = float(np.max(np.sum(np.abs(v) ** 2, axis=1)))
    g_l1 = bath_mod.correlation_l1_norm(bath)
    value = 4.0 * lam**2 * vnorm2 * g_l1 / frame.gap
    beta_min = np.min(bath_mod.decay_rate(bath, v, frame.energies), axis=0)
    return CouplingReport(
        smallness_value=float(value),
        smallness_ok=bool(value < 1.0),
        beta_min=beta_min,
        well_coupled=beta_min > 0.0,
    )


# ---------------------------------------------------------------------------
# builtin atom families
# ---------------------------------------------------------------------------

def diag_rotation_atom(level_funcs, theta_func, coupling_func) -> AtomPath:
    """A(t) = R(theta(t)) diag(alpha_1(t), ..., alpha_d(t)) R(theta(t))^T, d = 2.

    level_funcs, theta_func and coupling_func take an array of times; a
    constant result broadcasts.
    """
    d = len(level_funcs)
    if d != 2:
        raise ValueError("the rotation family is two-level")
    lo_func, hi_func = level_funcs

    def ham(t):
        theta = theta_func(t)
        c, s = np.cos(theta), np.sin(theta)
        lo, hi = lo_func(t), hi_func(t)
        diag_00 = c * c * lo + s * s * hi
        off = c * s * (lo - hi)
        diag_11 = s * s * lo + c * c * hi
        a = np.empty(np.shape(diag_00 + off + diag_11) + (2, 2))
        a[..., 0, 0] = diag_00
        a[..., 0, 1] = a[..., 1, 0] = off
        a[..., 1, 1] = diag_11
        return a

    return AtomPath(dim=d, hamiltonian=ham, coupling=coupling_func)


def complex_phase_atom(theta0: float, omega: float, levels=(1.0, 2.0)) -> AtomPath:
    """Two-level path with constant spectrum and a complex eigenvector phase.

    phi_1(t) = (cos theta0, e^{i omega t} sin theta0): the tracked gauge
    accumulates the geometric phase -omega t sin^2(theta0).
    """
    lo, hi = levels
    c, s = np.cos(theta0), np.sin(theta0)

    def provider(t):
        ph = np.exp(1j * omega * t)
        v = np.empty(np.shape(ph) + (2, 2), dtype=complex)
        v[..., 0, 0], v[..., 1, 0] = c, ph * s
        v[..., 0, 1], v[..., 1, 1] = -np.conj(ph) * s, c
        return np.array([lo, hi]), v

    def ham(t):
        a, v = provider(t)
        return (v * a) @ np.swapaxes(v.conj(), -1, -2)

    return AtomPath(dim=2, hamiltonian=ham, eigvec_provider=provider,
                    coupling=lambda t: np.array([1.0, 1.0], dtype=complex))


def tabulated_atom(path) -> AtomPath:
    """Atom path from CSV: column t, then d^2 (re, im) matrix entries row-major,
    then d (re, im) coupling entries; cubic-spline interpolated. The coupling
    is the CubicSpline itself, so coupling.x holds the table's times. `path`
    is anything numpy.loadtxt reads. Every tabulated matrix must be Hermitian
    to HERMITICITY_TOL against its own scale, as AtomPath.matrix requires;
    ValueError otherwise."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    ts = data[:, 0]
    n_rest = data.shape[1] - 1
    # 2 d^2 + 2 d = n_rest
    d = int(round((-1 + np.sqrt(1 + 2 * n_rest)) / 2))
    if 2 * d * d + 2 * d != n_rest:
        raise ValueError("column count does not match any square dimension")
    mats = (data[:, 1:1 + 2 * d * d:2] + 1j * data[:, 2:2 + 2 * d * d:2]).reshape(-1, d, d)
    bad = _not_hermitian(mats)
    if np.any(bad):
        raise ValueError(f"the matrix at t = {ts[bad][0]:g} is not Hermitian to tolerance")
    coups = data[:, 1 + 2 * d * d::2] + 1j * data[:, 2 + 2 * d * d::2]
    m_spline = CubicSpline(ts, mats, axis=0)
    c_spline = CubicSpline(ts, coups, axis=0)

    def ham(t):
        a = m_spline(t)
        return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))  # symmetrize interpolation noise

    return AtomPath(dim=d, hamiltonian=ham, coupling=c_spline)
