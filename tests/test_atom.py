import numpy as np
import pytest
import scipy.linalg as sla
from scipy.interpolate import CubicSpline

from awwlab import asymptotics as Y, atom as A
from awwlab.errors import FrameSmoothnessError, GapViolation
from awwlab.exact import Trajectory


def rotation_atom():
    return A.diag_rotation_atom(
        level_funcs=(lambda t: 1.0, lambda t: 2.0 + 0.3 * t),
        theta_func=lambda t: np.pi * t / 4.0,
        coupling_func=lambda t: np.array([1.0, 1.0]),
    )


def test_matrix_is_hermitian_and_has_given_spectrum():
    atom = rotation_atom()
    for t in (0.0, 0.37, 1.0):
        m = atom.matrix(t)
        assert np.allclose(m, m.conj().T)
        assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [1.0, 2.0 + 0.3 * t])


def test_eigenframe_tracks_smoothly(ref_frame):
    # adjacent eigenvector columns should overlap almost perfectly
    ov = np.einsum("kij,kij->kj", ref_frame.vectors[:-1].conj(),
                   ref_frame.vectors[1:])
    assert np.min(ov.real) > 0.999
    assert ref_frame.gap == pytest.approx(1.0, abs=1e-12)


def test_eigenframe_energies(ref_frame):
    en = ref_frame.energies_at(0.5)
    assert en[0] == pytest.approx(1.0, abs=1e-10)
    assert en[1] == pytest.approx(2.15, abs=1e-10)


def test_gap_violation_raises():
    crossing = A.diag_rotation_atom(
        level_funcs=(lambda t: 1.0, lambda t: 2.0 - 2.0 * t),
        theta_func=lambda t: 0.0,
        coupling_func=lambda t: np.array([1.0, 1.0]),
    )
    with pytest.raises(GapViolation) as err:
        A.eigenframe(crossing, np.linspace(0.0, 1.0, 101), gap_min=0.2)
    # the gap 1 - 2t first falls below 0.2 at the grid point t = 0.4 (in floats)
    assert err.value.time == pytest.approx(0.4, abs=1e-12)


def test_provided_eigenvectors_must_be_orthonormal():
    # the provider's columns are skewed from t = 0.5 on
    def provider(t):
        skew = 0.1 if t >= 0.5 else 0.0
        return np.array([1.0, 2.0]), np.array([[1.0, skew], [0.0, 1.0]], dtype=complex)

    atom = A.AtomPath(dim=2, hamiltonian=lambda t: np.diag([1.0, 2.0]),
                      coupling=lambda t: np.array([1.0, 1.0]), eigvec_provider=provider)
    with pytest.raises(FrameSmoothnessError, match="not orthonormal at t=0.5"):
        A.eigenframe(atom, np.linspace(0.0, 1.0, 5))


def test_fast_rotation_on_a_coarse_grid_is_a_phase_flip():
    # theta = 3 pi t turns the eigenvectors by pi/2 between grid points 1/6
    # apart, so tracked columns lose their overlap at the first step
    fast = A.diag_rotation_atom(
        level_funcs=(lambda t: 1.0, lambda t: 2.0),
        theta_func=lambda t: 3.0 * np.pi * t,
        coupling_func=lambda t: np.array([1.0, 1.0]),
    )
    with pytest.raises(FrameSmoothnessError, match="phase flip at t=0.1666"):
        A.eigenframe(fast, np.linspace(0.0, 1.0, 7))


def test_projections_resolve_identity(ref_frame):
    ps = ref_frame.projections(300)
    total = ps.sum(axis=0)
    assert np.allclose(total, np.eye(2), atol=1e-12)
    for p in ps:
        assert np.allclose(p @ p, p, atol=1e-12)


def test_coupling_in_working_basis(ref_frame):
    t = 0.6
    th = np.pi * t / 4.0
    want = np.array([np.cos(th) - np.sin(th), np.sin(th) + np.cos(th)])
    got = A.coupling_in_working_basis(ref_frame, t)
    # frame columns may carry a sign gauge; compare projections onto them
    vt = ref_frame.vectors_at(t)
    assert np.allclose(np.abs(vt.conj().T @ got), np.abs([1.0, 1.0]), atol=1e-10)
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(want), abs=1e-10)


def _frame_of_path(name, ref_frame):
    """The reference frame, or the frame of the seeded three-level smooth path."""
    if name == "ref":
        return ref_frame
    from test_properties import frame_of, smooth_path
    return frame_of(smooth_path(3, 7))


@pytest.mark.parametrize("path", ["ref", "d3"])
def test_coupling_spline_reproduces_the_frame_product(path, ref_frame):
    # u(t) is one spline through vectors @ couplings at the nodes; between
    # them it stays with the product of the eigenvector spline and v(t)
    frame = _frame_of_path(path, ref_frame)
    atom = frame.atom
    nodes = frame.times
    want = (frame.vectors @ atom.couplings(nodes)[..., None])[..., 0]
    assert np.max(np.abs(A.coupling_in_working_basis(frame, nodes) - want)) <= 1e-15
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    product = (frame.vectors_at(mid) @ atom.couplings(mid)[..., None])[..., 0]
    assert np.max(np.abs(A.coupling_in_working_basis(frame, mid) - product)) <= 1e-11


def test_berry_phase_real_rotation_vanishes(ref_frame):
    # real orthogonal eigenframes carry no geometric phase
    for j in range(2):
        assert abs(A.berry_phase(ref_frame, j, 1.0)) < 1e-8


def test_berry_phase_complex_frame_analytic():
    atom = A.complex_phase_atom(theta0=np.pi / 4, omega=1.0)
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 801))
    # lower level: xi(t) = -omega t sin^2(theta0); the upper level mirrors it
    for t in (0.25, 0.5, 1.0):
        assert A.berry_phase(frame, 0, t) == pytest.approx(-0.5 * t, abs=1e-8)
        assert A.berry_phase(frame, 1, t) == pytest.approx(0.5 * t, abs=1e-8)


def test_kato_transport_matches_berry_gauge(ref_frame):
    for t in (0.25, 0.5, 1.0):
        w = A.kato_intertwiner(ref_frame, t)
        assert np.allclose(w @ w.conj().T, np.eye(2), atol=1e-10)
        for j in range(2):
            moved = w @ ref_frame.vectors_at(0.0)[:, j]
            want = np.exp(1j * A.berry_phase(ref_frame, j, t)) \
                * ref_frame.vectors_at(t)[:, j]
            assert np.linalg.norm(moved - want) < 1e-6


def test_kato_transport_carries_a_nonzero_berry_phase():
    # xi_j(t) = -/+ t/2 on this path, so dropping the phase misses by 0.12-0.49
    atom = A.complex_phase_atom(theta0=np.pi / 4, omega=1.0)
    frame = A.eigenframe(atom, np.linspace(0.0, 1.0, 801))
    for t in (0.25, 0.5, 1.0):
        moved = A.kato_intertwiner(frame, t) @ frame.vectors_at(0.0)
        phases = np.array([A.berry_phase(frame, j, t) for j in range(2)])
        want = frame.vectors_at(t) * np.exp(1j * phases)[None, :]
        assert np.max(np.linalg.norm(moved - want, axis=0)) < 1e-12
        assert np.min(np.linalg.norm(moved - frame.vectors_at(t), axis=0)) > 0.1


def test_frame_quantities_refuse_times_outside_the_frame(ref_scenario, ref_frame, ref_tables):
    # the frame's splines would extrapolate silently; its range [0, 1] is inclusive
    z0 = ref_scenario.z0
    outside = [
        lambda: A.kato_intertwiner(ref_frame, 1.5),
        lambda: A.kato_intertwiner(ref_frame, 0.5, -0.1),
        lambda: A.berry_phase(ref_frame, 0, 3.0),
        lambda: A.berry_phase(ref_frame, 1, np.nan),
        lambda: Y.leading_order_z(ref_tables, 0.05, 0.1, z0, 2.0),
        lambda: Y.leading_order_z(ref_tables, 0.05, 0.1, z0, np.array([0.5, 1.0 + 1e-9])),
    ]
    for call in outside:
        with pytest.raises(ValueError, match="outside the frame's range"):
            call()
    ends = np.array([0.0, 1.0])
    A.kato_intertwiner(ref_frame, 1.0)
    A.kato_intertwiner(ref_frame, 0.0, 1.0)
    assert A.berry_phase(ref_frame, 0, ends).shape == (2,)
    assert Y.leading_order_z(ref_tables, 0.05, 0.1, z0, ends).shape == (2, 2)


def projection_spline_kato(frame):
    """K(t) = sum_j [d/dt P_j] P_j from a cubic spline of the (n, d, d, d)
    spectral projections at the nodes, anti-hermitized."""
    proj = np.einsum("kij,klj->kjil", frame.vectors, frame.vectors.conj())
    spline = CubicSpline(frame.times, proj, axis=0)
    dspline = spline.derivative()

    def kato(t):
        k_mat = np.einsum("...jab,...jbc->...ac", dspline(t), spline(t))
        return 0.5 * (k_mat - np.swapaxes(k_mat.conj(), -1, -2))

    return kato


@pytest.mark.parametrize("path", ["ref", "d3"])
def test_kato_generator_agrees_with_a_projection_spline(path, ref_frame):
    # the generator formed from vectors_at transports as one formed from a
    # spline of the projections themselves, on the same Magnus steps
    frame = _frame_of_path(path, ref_frame)
    kato = projection_spline_kato(frame)
    for t in (0.25, 0.5, 1.0):
        n_steps = max(1, int(np.ceil(t / frame.step)))
        want = A.magnus_propagate(kato, np.linspace(0.0, t, n_steps + 1))[-1]
        assert np.max(np.abs(A.kato_intertwiner(frame, t) - want)) <= 1e-12


def test_kato_intertwines_projections(ref_frame):
    t = 0.8
    w = A.kato_intertwiner(ref_frame, t)
    for j in range(2):
        lhs = w @ ref_frame.projections(0)[j] @ w.conj().T
        phi = ref_frame.vectors_at(t)[:, j]
        rhs = np.outer(phi, phi.conj())
        assert np.linalg.norm(lhs - rhs) < 1e-6


def test_validate_coupling_reference_value(ref_frame, ref_bath):
    report = A.validate_coupling(ref_frame, ref_bath, np.sqrt(1.0 / 64))
    # 4 * (1/64) * 2 * 4 / 1 = 1/2
    assert report.smallness_value == pytest.approx(0.5, abs=1e-6)
    assert report.smallness_ok and report.well_coupled.all() and report.ok


def test_validate_coupling_flags_large_lambda(ref_frame, ref_bath):
    report = A.validate_coupling(ref_frame, ref_bath, 0.5)
    assert not report.smallness_ok
    assert not report.ok


def test_tabulated_atom_roundtrip(tmp_path, ref_frame):
    atom = rotation_atom()
    ts = np.linspace(0.0, 1.0, 401)
    rows = []
    for t in ts:
        m = atom.matrix(t)
        v = np.asarray(atom.coupling(t), dtype=complex)
        row = [t]
        for val in m.ravel():
            row += [val.real, val.imag]
        for val in v:
            row += [val.real, val.imag]
        rows.append(row)
    path = tmp_path / "atom.csv"
    header = "t," + ",".join(f"c{i}" for i in range(12))
    np.savetxt(path, np.array(rows), delimiter=",", header=header, comments="")
    tab = A.tabulated_atom(path)
    assert tab.dim == 2
    for t in (0.1, 0.55, 0.93):
        assert np.allclose(tab.matrix(t), atom.matrix(t), atol=1e-8)
        assert np.allclose(tab.coupling(t), atom.coupling(t), atol=1e-8)


def test_frame_keeps_the_scipy_gauge_at_t0(ref_scenario, ref_frame):
    # the coupling amplitudes are defined against these columns, so the
    # sign scipy.linalg.eigh picks at t = 0 is physical
    assert np.array_equal(ref_frame.vectors[0], sla.eigh(ref_scenario.atom.matrix(0.0))[1])


def test_tabulated_atom_refuses_a_non_hermitian_table(tmp_path):
    # A = [[1, 0.5], [0, 3]], v = (1, 1): ham's symmetrisation would hide the fault
    path = tmp_path / "atom.csv"
    rows = [[t, 1, 0, 0.5, 0, 0, 0, 3, 0, 1, 0, 1, 0] for t in np.linspace(0.0, 1.0, 5)]
    np.savetxt(path, rows, delimiter=",", header="t," + ",".join(["c"] * 12), comments="")
    with pytest.raises(ValueError, match="not Hermitian"):
        A.tabulated_atom(path)
    # interpolation-scale noise on a Hermitian table passes, and is symmetrised
    for row in rows:
        row[5] = 0.5 + 1e-13
    np.savetxt(path, rows, delimiter=",", header="t," + ",".join(["c"] * 12), comments="")
    a = A.tabulated_atom(path).matrix(0.3)
    assert np.array_equal(a, a.conj().T)


def test_frame_arrays_are_read_only(ref_scenario):
    times = np.linspace(0.0, 1.0, 11)
    frame = A.eigenframe(ref_scenario.atom, times)
    for array in (frame.times, frame.energies, frame.vectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # the frame holds its own copy of the grid; the caller's stays writable
    times[0] = 0.5
    assert frame.times[0] == 0.0
