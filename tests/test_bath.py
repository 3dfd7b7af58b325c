import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from awwlab import bath as B
from awwlab import exact as X
from awwlab.atom import validate_coupling
from awwlab.errors import DiscretizationError

SQRT_2PI = np.sqrt(2.0 * np.pi)


def test_correlation_closed_form_values(ref_bath):
    assert B.correlation(ref_bath, 0.0) == pytest.approx(2.0)
    val = B.correlation(ref_bath, 1.0)
    assert val == pytest.approx(-0.5 - 0.5j, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_correlation_quadrature_matches_closed_form(ref_bath):
    # an independent reference: gamma(t) = int_0^inf w^2 e^-w e^{-i w t} dw by
    # QUADPACK's Fourier weights (QAWF) on [0, inf)
    rho = lambda w: w**2 * np.exp(-w)
    ts = np.array([0.0, 0.3, 1.0, 4.0, 11.0, -2.5])
    want = np.array([quad(rho, 0.0, np.inf, weight="cos", wvar=t, epsabs=1e-12)[0]
                     - 1j * quad(rho, 0.0, np.inf, weight="sin", wvar=t, epsabs=1e-12)[0]
                     for t in ts])
    assert np.max(np.abs(B.correlation(ref_bath, ts) - want)) < 1e-10


def test_correlation_hermitian_symmetry(ref_bath):
    ts = np.array([0.4, 1.7, 6.0])
    assert np.allclose(B.correlation(ref_bath, -ts),
                       np.conj(B.correlation(ref_bath, ts)), atol=1e-10)


def test_fourier_hat_closed_form(ref_bath):
    assert B.fourier_hat(ref_bath, 1.0) == pytest.approx(SQRT_2PI * np.exp(-1.0))
    assert B.fourier_hat(ref_bath, -0.5) == 0.0


def test_fourier_hat_nonnegative(ref_bath):
    rng = np.random.default_rng(7)
    alphas = rng.uniform(-3.0, 20.0, size=200)
    assert np.all(B.fourier_hat(ref_bath, alphas) >= 0.0)


def test_l1_norm(ref_bath):
    assert B.correlation_l1_norm(ref_bath) == pytest.approx(4.0, abs=1e-6)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1.25, 1.5])
def test_l1_norm_of_a_slowly_decaying_closed_form(s):
    # the Ohmic rho = w^s e^-w has gamma = Gamma(s+1)/(1+it)^(s+1), so
    # |gamma| <= Gamma(s+1) 2^((s+1)/2)/(1+t)^(s+1) and the envelope reaches
    # x_max ~ 1e6-1e7, where one quad over [0, x_max] misses the peak at x ~ 1
    ohmic = B.BathSpec(
        density=lambda w: w**s * np.exp(-w),
        support_max=np.inf,
        quad_cutoff=25.0,
        decay_amplitude=gamma_fn(s + 1.0) * 2.0 ** ((s + 1.0) / 2.0),
        decay_power=s + 1.0,
        closed_form_correlation=lambda t: gamma_fn(s + 1.0) / (1.0 + 1j * np.asarray(t)) ** (s + 1.0),
    )
    want = gamma_fn(s + 1.0) * np.sqrt(np.pi) * gamma_fn(s / 2.0) / gamma_fn((s + 1.0) / 2.0)
    assert B.correlation_l1_norm(ohmic) == pytest.approx(want, abs=1e-8)


def test_half_line_transform_finite_T_oracle(ref_bath):
    # independent oracle: direct time-domain quadrature of the closed form
    alpha, T = 1.0, 20.0
    re = quad(lambda x: np.real(np.exp(1j * alpha * x) * 2.0 / (1 + 1j * x) ** 3),
              0, T, limit=400)[0]
    im = quad(lambda x: np.imag(np.exp(1j * alpha * x) * 2.0 / (1 + 1j * x) ** 3),
              0, T, limit=400)[0]
    got = B.half_line_transform(ref_bath, alpha, T)
    assert got == pytest.approx(re + 1j * im, abs=1e-8)
    assert B.half_line_transform(ref_bath, alpha, 0.0) == 0.0


def test_half_line_transform_long_horizon_oracle(ref_bath):
    # T = 80 is the longest horizon of the eps = 0.0125 ladder point; each
    # panel then carries a full wavelength of the kernel
    alpha, T = 2.3, 80.0
    f = lambda x: np.exp(1j * alpha * x) * 2.0 / (1 + 1j * x) ** 3
    re = quad(lambda x: np.real(f(x)), 0, T, limit=800)[0]
    im = quad(lambda x: np.imag(f(x)), 0, T, limit=800)[0]
    got = B.half_line_transform(ref_bath, alpha, T)
    assert got == pytest.approx(re + 1j * im, abs=1e-8)


def test_half_line_transform_infinite_T(ref_bath):
    got = B.half_line_transform(ref_bath, 1.0, np.inf)
    # real part is pi * rho(1); imaginary part is the principal value integral
    assert got.real == pytest.approx(np.pi * np.exp(-1.0), abs=1e-9)
    # long-but-finite horizon approaches the limit
    far = B.half_line_transform(ref_bath, 1.0, 400.0)
    assert abs(far - got) < 1e-4


def test_decay_and_shift_reference_values(ref_bath):
    beta, shift = B.decay_and_shift(ref_bath, 1.0, 1.0)
    assert beta == pytest.approx(np.pi * np.exp(-1.0), abs=1e-10)
    # shift equals the imaginary part of the infinite half-line transform
    hl = B.half_line_transform(ref_bath, 1.0, np.inf)
    assert shift == pytest.approx(hl.imag, abs=1e-9)


def test_decay_scales_with_coupling(ref_bath):
    b1, s1 = B.decay_and_shift(ref_bath, 1.0, 1.3)
    b2, s2 = B.decay_and_shift(ref_bath, 2.0, 1.3)
    assert b2 == pytest.approx(4.0 * b1)
    assert s2 == pytest.approx(4.0 * s1)


def test_decay_certificate(ref_bath):
    assert B.check_decay_bound(ref_bath)


def write_density_table(path, nodes):
    """CSV table of the reference density w^2 e^-w at `nodes` points of [0, 25]."""
    omega = np.linspace(0.0, 25.0, nodes)
    np.savetxt(path, np.column_stack([omega, omega**2 * np.exp(-omega)]), delimiter=",",
               header="omega,rho", comments="")
    return path


def test_bath_from_csv_roundtrip(tmp_path, ref_bath):
    tab = B.bath_from_csv(write_density_table(tmp_path / "bath.csv", 4001))
    omega = np.linspace(-1.0, 30.0, 3001)     # off the nodes and past both ends
    inside = (omega >= 0.0) & (omega <= 25.0)
    assert np.max(np.abs(tab.rho(omega) - ref_bath.rho(omega))[inside]) < 1e-5   # pchip
    assert np.all(tab.rho(omega[~inside]) == 0.0)
    assert tab.closed_form_correlation is None and not tab.analytic


def test_bath_from_csv_rejects_bad_tables(tmp_path):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.array([[0.0, 1.0], [0.0, 2.0]]), delimiter=",",
               header="omega,rho", comments="")
    with pytest.raises(ValueError):
        B.bath_from_csv(path)


@pytest.fixture(scope="module")
def table_bath(tmp_path_factory):
    return B.bath_from_csv(write_density_table(tmp_path_factory.mktemp("tab") / "bath.csv", 241))


@pytest.mark.parametrize("consumer", [
    pytest.param(lambda b, *_: B.correlation(b, np.array([0.0, 1.0])), id="correlation"),
    pytest.param(lambda b, *_: B.correlation_l1_norm(b), id="correlation_l1_norm"),
    pytest.param(lambda b, *_: B.check_decay_bound(b), id="check_decay_bound"),
    pytest.param(lambda b, *_: X.discretize_bath(b, 0.5), id="discretize_bath"),
    pytest.param(lambda b, frame, _: validate_coupling(frame, b, 0.1), id="validate_coupling"),
    pytest.param(lambda b, frame, scen: X.propagate_exact(
        frame.atom, frame, X.discretize_bath(scen.bath, 0.5), scen.z0, 0.5, 0.1, bath=b),
        id="propagate_exact"),
])
@pytest.mark.parametrize("bath_fixture", ["table_bath", "quad_bath"])
def test_a_bath_without_a_closed_form_is_refused_by_name(
        request, bath_fixture, consumer, ref_frame, ref_scenario):
    # every reader of gamma reads the closed form, and a bath without one (a
    # 241-node table of w^2 e^-w, or the reference density stripped of it) is
    # refused alike, naming it, before any work on it starts
    bath = request.getfixturevalue(bath_fixture)
    with pytest.raises(DiscretizationError, match="no closed-form correlation"):
        consumer(bath, ref_frame, ref_scenario)


def test_reference_bath_hits_the_l1_norm_cache():
    assert B.reference_bath() is B.reference_bath()
    B.correlation_l1_norm.cache_clear()
    B.correlation_l1_norm(B.reference_bath())
    B.correlation_l1_norm(B.reference_bath())
    info = B.correlation_l1_norm.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_bath_from_name(ref_bath):
    assert B.bath_from_name("reference") is ref_bath
    with pytest.raises(KeyError):
        B.bath_from_name("nope")


# levels below, at and inside the support, and beyond quad_cutoff = 25
LEVELS = np.array([-0.7, 0.0, 0.4, 1.0, 2.3, 24.0, 31.0])


@pytest.mark.parametrize("T", [0.0, 0.3, 20.0, 80.0, np.inf])
def test_batched_transform_equals_stacked_scalar_calls(ref_bath, T):
    batched = B.half_line_transform(ref_bath, LEVELS, T)
    stacked = np.array([B.half_line_transform(ref_bath, a, T) for a in LEVELS])
    assert batched.shape == LEVELS.shape
    np.testing.assert_allclose(batched, stacked, rtol=1e-14, atol=1e-14)
    assert np.ndim(B.half_line_transform(ref_bath, 1.0, T)) == 0
    rows = B.half_line_transform(ref_bath, np.stack([LEVELS, LEVELS[::-1]]), T)
    np.testing.assert_allclose(rows, np.stack([stacked, stacked[::-1]]),
                               rtol=1e-14, atol=1e-14)


def test_batched_decay_and_shift_equals_stacked_scalar_calls(ref_bath):
    v = np.array([1.0, 0.5j, 0.0, 0.3 - 0.4j, 2.0, 0.7, 1.0])
    beta, shift = B.decay_and_shift(ref_bath, v, LEVELS)
    stacked = np.array([B.decay_and_shift(ref_bath, v_j, a) for v_j, a in zip(v, LEVELS)])
    np.testing.assert_allclose(beta, stacked[:, 0], rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(shift, stacked[:, 1], rtol=1e-14, atol=1e-14)
    assert beta[2] == shift[2] == 0.0            # an uncoupled level
    assert np.all(beta[:2] == 0.0) and beta[-1] > 0.0   # rho > 0 beyond the cutoff


@pytest.mark.parametrize("alpha", [-0.7, 0.0, 31.0])
def test_principal_value_outside_the_support_matches_quad(ref_bath, alpha):
    # the shift is PV int_0^inf rho(w)/(alpha - w) dw. Off [0, quad_cutoff]:
    # at or below the support's edge the integrand is regular; beyond the
    # cutoff QUADPACK's Cauchy weight takes the principal value on [0, 2 alpha]
    rho = lambda w: w**2 * np.exp(-w)
    regular = lambda a, b: quad(lambda w: rho(w) / (alpha - w), a, b, epsabs=1e-13)[0]
    if alpha <= 0.0:
        want = regular(0.0, np.inf)
    else:
        want = (regular(2.0 * alpha, np.inf)
                - quad(rho, 0.0, 2.0 * alpha, weight="cauchy", wvar=alpha, epsabs=1e-13)[0])
    bound = B.exp_sum(ref_bath).l1_error
    assert abs(B.half_line_transform(ref_bath, alpha, np.inf).imag - want) <= bound
    assert abs(B.decay_and_shift(ref_bath, 1.0, alpha)[1] - want) <= bound


# ---------------------------------------------------------------------------
# the exponential-sum kernel
# ---------------------------------------------------------------------------

def test_reference_sum_is_certified(ref_bath, quad_bath):
    kern = B.exp_sum(ref_bath)
    assert B.exp_sum(ref_bath) is kern                 # built once per bath
    with pytest.raises(DiscretizationError, match="exp_sum"):
        B.exp_sum(quad_bath)                           # not marked analytic
    assert kern.l1_error < 1e-8
    assert np.all(kern.lam.real > 0.0)
    # a grid ten times denser than the certificate's, out to the longest
    # horizon of the reference ladder, finds no larger error
    xs = np.linspace(0.0, 320.0, 32001)
    err = np.abs(np.exp(-np.outer(xs, kern.lam)) @ kern.c - B.correlation(ref_bath, xs))
    assert np.max(err) <= 1.01 * kern.sup_error
    assert np.trapezoid(err, xs) <= kern.l1_error
    # T = inf is covered: the certificate holds the envelope 6/(1+x)^3's
    # mass past x_max, where no point checks the fit
    assert kern.l1_error >= 3.0 / (1.0 + kern.x_max) ** 2


def test_the_sum_is_built_on_first_use_not_at_import():
    code = ("import awwlab, awwlab.cli, awwlab.harness; from awwlab import bath; "
            "assert bath.exp_sum.cache_info().currsize == 0")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def quadpack_transform(alpha, T):
    """int_0^T e^{i alpha x} gamma(x) dx of the closed form gamma = 2/(1+ix)^3 by
    QUADPACK's Fourier weights: QAWO on [0, T], QAWF on [0, inf)."""
    limit = {"limit": 200} if np.isfinite(T) else {}

    def part(f, weight):
        return quad(f, 0.0, T, weight=weight, wvar=alpha, epsabs=1e-12, **limit)[0]

    re = lambda x: (2.0 / (1.0 + 1j * x) ** 3).real
    im = lambda x: (2.0 / (1.0 + 1j * x) ** 3).imag
    return part(re, "cos") - part(im, "sin") + 1j * (part(im, "cos") + part(re, "sin"))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("T", [0.0, 0.5, 20.0, 80.0, 320.0, np.inf])
def test_sum_agrees_with_the_quadrature(ref_bath, T):
    # an independent reference: QUADPACK's integral of the closed-form gamma,
    # tail past quad_cutoff included, is within the sum's certificate at
    # every level, inside the support and beyond quad_cutoff = 25
    levels = np.array([0.4, 1.0, 2.3, 24.0, 31.0])
    bound = B.exp_sum(ref_bath).l1_error
    got = B.half_line_transform(ref_bath, levels, T)
    if T == 0.0:
        assert np.all(got == 0.0)
        return
    want = np.array([quadpack_transform(a, T) for a in levels])
    assert np.max(np.abs(got - want)) <= bound
    if np.isinf(T):
        _, shift = B.decay_and_shift(ref_bath, 1.0, levels)
        assert np.max(np.abs(shift - want.imag)) <= bound


def test_array_T_equals_stacked_scalar_calls(ref_bath):
    horizons = np.array([0.0, 0.5, 20.0, 80.0, np.inf])
    grid = B.half_line_transform(ref_bath, LEVELS[None, :], horizons[:, None])
    stacked = np.array([[B.half_line_transform(ref_bath, a, T) for a in LEVELS]
                        for T in horizons])
    assert grid.shape == (len(horizons), len(LEVELS))
    np.testing.assert_allclose(grid, stacked, rtol=1e-14, atol=1e-14)
    # one horizon per level, repeated horizons included
    pairs = B.half_line_transform(ref_bath, LEVELS[:6], horizons[[0, 1, 2, 2, 3, 4]])
    np.testing.assert_allclose(pairs, stacked[[0, 1, 2, 2, 3, 4], np.arange(6)],
                               rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        B.half_line_transform(ref_bath, LEVELS, np.array([1.0, -1.0, 2.0, 0.0, 1.0, 1.0, 1.0]))


def test_infinite_horizon_real_part_is_the_decay_rate(ref_bath):
    got = B.half_line_transform(ref_bath, LEVELS, np.inf)
    assert np.array_equal(got.real, B.decay_rate(ref_bath, 1.0, LEVELS))
