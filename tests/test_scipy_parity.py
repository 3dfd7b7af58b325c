"""The package's cubic spline, Simpson rule and DOP853 coefficients against
the scipy routines they stand in for, so that every CSV stays byte-identical.

The runtime package loads neither scipy.interpolate nor scipy.integrate; the
tests may. Every value must be equal bit for bit.
"""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.integrate._ivp import dop853_coefficients as dop853
from scipy.interpolate import CubicSpline

from awwlab import exact as X
from awwlab.atom import _cubic_spline, _simpson
from test_magnus import three_level_atom


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


def times_to_read(x, rng):
    """Random times on the knots' span and a little past it, and the knots."""
    span = x[-1] - x[0]
    return [rng.uniform(x[0] - 0.01 * span, x[-1] + 0.01 * span, 257),
            rng.uniform(x[0], x[-1], (5, 16)), x]


def assert_spline_matches(x, y, rng):
    """Coefficients, values (at arrays, single times and the knots),
    derivative and antiderivative of _cubic_spline against CubicSpline."""
    ours, theirs = _cubic_spline(x, y), CubicSpline(x, y, axis=0)
    assert_same(ours.c, theirs.c)
    assert np.array_equal(ours.x, theirs.x)
    for got, want in ((ours, theirs), (ours.derivative(), theirs.derivative()),
                      (ours.antiderivative(), theirs.antiderivative())):
        for t in times_to_read(x, rng):
            assert_same(got(t), want(t))
        for t in (x[0], 0.5 * (x[0] + x[1]), x[len(x) // 2], x[-1]):
            assert_same(got(t), want(t))
            assert_same(got(float(t)), want(float(t)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 801])
@pytest.mark.parametrize("shape", [(), (2,), (3, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_spline_matches_scipy_on_any_knot_count(n, shape, dtype):
    # 2 and 3 knots are scipy's special cases: a line, and the parabola
    # through the three points
    rng = np.random.default_rng(n)
    x = np.cumsum(rng.uniform(0.5, 1.5, n)) / n
    y = rng.normal(size=(n,) + shape)
    if dtype is complex:
        y = y + 1j * rng.normal(size=(n,) + shape)
    assert_spline_matches(x, y, rng)


@pytest.mark.parametrize("frame_fixture", ["ref_frame", "d3_frame"])
def test_frame_splines_match_scipy(request, frame_fixture):
    frame = request.getfixturevalue(frame_fixture)
    rng = np.random.default_rng(11)
    times = frame.times
    u = frame.vectors @ frame.atom.couplings(times)[..., None]
    for ours, values in ((frame.energies_at, frame.energies),
                         (frame.vectors_at, frame.vectors), (frame.u_at, u[..., 0])):
        theirs = CubicSpline(times, values, axis=0)
        assert_same(ours.c, theirs.c)
        for t in times_to_read(times, rng) + [0.37, times[400]]:
            assert_same(ours(t), theirs(t))
    dvectors = CubicSpline(times, frame.vectors, axis=0).derivative()(times)
    conn = np.einsum("kij,kij->kj", frame.vectors.conj(), dvectors)
    berry = CubicSpline(times, 1j * conn, axis=0).antiderivative()
    for t in times_to_read(times, rng) + [0.37]:
        assert_same(frame._berry(t), berry(t))
    assert_same(frame.energies_at.antiderivative()(times),
                CubicSpline(times, frame.energies, axis=0).antiderivative()(times))


def test_tabulated_atom_matches_scipy(tmp_path):
    atom = three_level_atom(tmp_path / "atom.csv")
    data = np.loadtxt(tmp_path / "atom.csv", delimiter=",", skiprows=1)
    ts = data[:, 0]
    mats = (data[:, 1:19:2] + 1j * data[:, 2:19:2]).reshape(-1, 3, 3)
    m_spline = CubicSpline(ts, mats, axis=0)
    c_spline = CubicSpline(ts, data[:, 19::2] + 1j * data[:, 20::2], axis=0)
    assert np.array_equal(atom.coupling.x, ts)
    for t in times_to_read(ts, np.random.default_rng(5)) + [0.3, ts[17]]:
        a = m_spline(t)
        assert_same(atom.matrix(t), 0.5 * (a + np.swapaxes(a.conj(), -1, -2)))
        assert_same(atom.coupling(t), c_spline(t))


def test_trajectory_interpolation_matches_scipy():
    rng = np.random.default_rng(2)
    times = X.output_grid(1.0)
    z = rng.normal(size=(len(times), 2)) + 1j * rng.normal(size=(len(times), 2))
    traj = X.Trajectory(times=times, z=z)
    theirs = CubicSpline(times, z, axis=0)
    for t in times_to_read(times, rng)[1:] + [0.123, times[7], 1.0]:
        assert_same(traj.z_at(t), theirs(t))


def test_spline_refuses_what_scipy_refuses():
    x = np.linspace(0.0, 1.0, 5)
    for bad_x, bad_y in ((x[:1], np.ones(1)), (x[::-1], np.ones(5)),
                         (np.array([0.0, 0.5, 0.5, 0.7, 1.0]), np.ones(5)),
                         (x, np.array([0.0, 1.0, np.nan, 1.0, 0.0])), (x, np.ones(4))):
        with pytest.raises(ValueError):
            CubicSpline(bad_x, bad_y, axis=0)
        with pytest.raises(ValueError):
            _cubic_spline(bad_x, bad_y)


@pytest.mark.parametrize("n", [3, 201, 401, 40001])
@pytest.mark.parametrize("shape", [(), (3,)])
def test_simpson_matches_scipy(n, shape):
    # 201 to 40 001 points are the regime-B limit's grids, 401 with three
    # complex levels the adiabatic diagnostic's
    rng = np.random.default_rng(n)
    x = np.linspace(0.0, rng.uniform(0.5, 2.0), n)
    y = rng.normal(size=(n,) + shape)
    if shape:
        y = y + 1j * rng.normal(size=(n,) + shape)
    assert_same(_simpson(y, x), simpson(y, x=x, axis=0))
    uneven = np.sort(rng.uniform(0.0, 1.0, n))
    assert_same(_simpson(y, uneven), simpson(y, x=uneven, axis=0))


@pytest.mark.parametrize("n", [2, 4, 400])
def test_simpson_refuses_an_even_count(n):
    with pytest.raises(ValueError, match="odd number of points"):
        _simpson(np.ones(n), np.linspace(0.0, 1.0, n))


def test_dop853_coefficients_are_scipys():
    assert X._STAGES == dop853.N_STAGES
    for ours, theirs in ((X._C, dop853.C), (X._A, dop853.A), (X._E5, dop853.E5),
                         (X._E3, dop853.E3), (X._D, dop853.D)):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
