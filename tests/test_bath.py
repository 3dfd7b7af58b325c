import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from awwlab import bath as B
from awwlab.errors import DiscretizationError, QuadratureError

SQRT_2PI = np.sqrt(2.0 * np.pi)


def test_correlation_closed_form_values(ref_bath):
    assert B.correlation(ref_bath, 0.0) == pytest.approx(2.0)
    val = B.correlation(ref_bath, 1.0)
    assert val == pytest.approx(-0.5 - 0.5j, abs=1e-12)


def test_correlation_quadrature_matches_closed_form(ref_bath, quad_bath):
    ts = np.array([0.0, 0.3, 1.0, 4.0, 11.0, -2.5])
    got = B.correlation(quad_bath, ts)
    want = B.correlation(ref_bath, ts)
    assert np.max(np.abs(got - want)) < 1e-8


def test_correlation_hermitian_symmetry(quad_bath):
    ts = np.array([0.4, 1.7, 6.0])
    assert np.allclose(B.correlation(quad_bath, -ts),
                       np.conj(B.correlation(quad_bath, ts)), atol=1e-10)


def test_fourier_hat_closed_form(ref_bath):
    assert B.fourier_hat(ref_bath, 1.0) == pytest.approx(SQRT_2PI * np.exp(-1.0))
    assert B.fourier_hat(ref_bath, -0.5) == 0.0


def test_fourier_hat_nonnegative(ref_bath):
    rng = np.random.default_rng(7)
    alphas = rng.uniform(-3.0, 20.0, size=200)
    assert np.all(B.fourier_hat(ref_bath, alphas) >= 0.0)


def test_l1_norm(ref_bath):
    assert B.correlation_l1_norm(ref_bath) == pytest.approx(4.0, abs=1e-6)


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
    ts = np.array([0.0, 0.5, 2.0])
    got = B.correlation(tab, ts, tol=1e-6)   # pchip density is only C1
    assert np.max(np.abs(got - B.correlation(ref_bath, ts))) < 1e-5


def test_tabulated_correlation_at_longer_times(tmp_path, ref_bath):
    tab = B.bath_from_csv(write_density_table(tmp_path / "bath.csv", 4001))
    ts = np.array([0.5, 2.0, 10.0])
    got = B.correlation(tab, ts, tol=1e-6)
    assert np.max(np.abs(got - B.correlation(ref_bath, ts))) < 1e-5


def test_bath_from_csv_rejects_bad_tables(tmp_path):
    path = tmp_path / "bad.csv"
    np.savetxt(path, np.array([[0.0, 1.0], [0.0, 2.0]]), delimiter=",",
               header="omega,rho", comments="")
    with pytest.raises(ValueError):
        B.bath_from_csv(path)


def test_l1_norm_without_closed_form_stops_at_the_certified_time(
        quad_bath, correlation_within_decay_t_max):
    # the body ends at DECAY_T_MAX and the envelope tail C/((m-1)(1+x)^(m-1)),
    # C = 6 and m = 3, is added per half line: ||gamma|| = 4 is exceeded by at
    # most twice that tail
    tail = 6.0 / (2.0 * (1.0 + B.DECAY_T_MAX) ** 2)
    assert 0.0 <= B.correlation_l1_norm(quad_bath) - 4.0 <= 2.0 * tail


def test_l1_norm_asks_each_correlation_for_its_own_tol(quad_bath, monkeypatch):
    # the body integrates |gamma| to tol, so each |gamma(x)| is asked for that
    # tol, not for correlation's tighter default; the spy stops the first call
    class Asked(Exception):
        pass

    def spy(bath, t, tol=1e-9):
        raise Asked(tol)

    monkeypatch.setattr(B, "correlation", spy)
    for tol in (1e-8, 3e-7):
        with pytest.raises(Asked) as asked:
            B.correlation_l1_norm.__wrapped__(quad_bath, tol)
        assert asked.value.args == (tol,)


def test_l1_norm_of_a_coarse_table_fails_as_a_quadrature_error(
        tmp_path, correlation_within_decay_t_max):
    # a 241-node table misses the norm's tol = 1e-8; that must surface as
    # an AwwlabError, not as a MemoryError from quadratures at x ~ 3e6
    tab = B.bath_from_csv(write_density_table(tmp_path / "bath.csv", 241))
    with pytest.raises(QuadratureError):
        B.correlation_l1_norm(tab)


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


def test_quadrature_error_carries_estimate(quad_bath):
    with pytest.raises(QuadratureError) as err:
        B.correlation(quad_bath, 1.0, tol=1e-16)
    assert err.value.achieved is not None


@pytest.mark.parametrize("call", [
    *[pytest.param(lambda b, t=t: B.correlation(b, t, tol=1e-16), id=f"correlation-t{t}")
      for t in (0.0, 0.3, 1.0, 4.0, 11.0)],
])
def test_quadrature_error_estimate_never_zero(quad_bath, call):
    # the two panel resolutions can agree to the last bit; the roundoff
    # floor must still keep an unreachable tol from being reported as met
    with pytest.raises(QuadratureError) as err:
        call(quad_bath)
    assert 0.0 < err.value.achieved < np.inf


def test_quadrature_rejects_nan_density(ref_bath):
    # a user density that is NaN above omega = 3 must not yield a silent NaN
    nan_bath = B.BathSpec(
        density=lambda w: np.where(w > 3.0, np.nan, w**2 * np.exp(-w)),
        support_max=np.inf,
        quad_cutoff=ref_bath.quad_cutoff,
        decay_amplitude=ref_bath.decay_amplitude,
        decay_power=ref_bath.decay_power,
    )
    with pytest.raises(QuadratureError):
        B.correlation(nan_bath, 1.0)


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
