import numpy as np
import pytest

from awwlab import (asymptotics as Y, atom as A, bath as B, emission as E, reduced as R,
                    spectral as S)
from awwlab.errors import ContourError, MatchingError
from test_magnus import three_level_atom


@pytest.fixture(scope="module")
def ref_generator(ref_scenario, ref_frame):
    return R.EffectiveGenerator(ref_scenario.atom, ref_frame, ref_scenario.bath,
                                0.05, np.sqrt(1.0 / 64))


def spectrum_at(gen, frame, t):
    return S.perturbed_spectrum(gen(t), frame.energies_at(t), frame.vectors_at(t))


def test_lambda_zero_recovers_hermitian_spectrum(ref_scenario, ref_frame):
    t = 0.5
    g = ref_scenario.atom.matrix(t)
    pspec = S.perturbed_spectrum(g, ref_frame.energies_at(t), ref_frame.vectors_at(t))
    assert np.allclose(pspec.eigenvalues.imag, 0.0, atol=1e-12)
    assert np.allclose(pspec.eigenvalues.real, ref_frame.energies_at(t), atol=1e-12)
    for p in pspec.projections:
        assert np.allclose(p, p.conj().T, atol=1e-12)


def test_projections_idempotent_complete(ref_generator, ref_frame):
    for t in (0.1, 0.5, 0.9):
        pspec = spectrum_at(ref_generator, ref_frame, t)
        total = pspec.projections.sum(axis=0)
        assert np.linalg.norm(total - np.eye(2)) < 1e-10
        for p in pspec.projections:
            assert np.linalg.norm(p @ p - p) < 1e-10
        g = np.einsum("j,jkl->kl", pspec.eigenvalues, pspec.projections)
        assert np.linalg.norm(g - ref_generator(t)) < 1e-9


def test_eigenvalue_shift_bound(ref_generator, ref_frame, ref_scenario):
    # |alpha(eps, lam) - alpha| <= lam^2 ||v||^2_inf ||gamma||_L1
    lam2 = 1.0 / 64
    bound = lam2 * 2.0 * B.correlation_l1_norm(ref_scenario.bath)
    for t in np.linspace(0.05, 1.0, 11):
        pspec = spectrum_at(ref_generator, ref_frame, t)
        shift = np.max(np.abs(pspec.eigenvalues - ref_frame.energies_at(t)))
        assert shift <= bound
        assert np.all(pspec.eigenvalues.imag <= 1e-10)


def test_projection_distance_bound(ref_generator, ref_frame, ref_scenario):
    # 50 random (t, lam) samples inside the smallness region
    rng = np.random.default_rng(11)
    g_l1 = B.correlation_l1_norm(ref_scenario.bath)
    for _ in range(50):
        k = int(rng.integers(10, len(ref_frame.times)))
        t = float(ref_frame.times[k])
        lam2 = float(rng.uniform(1e-4, 1.0 / 33))
        g = R.effective_generator(ref_scenario.atom, ref_frame,
                                  ref_scenario.bath, 0.05, np.sqrt(lam2), t)
        pspec = S.perturbed_spectrum(g, ref_frame.energies_at(t),
                                     ref_frame.vectors_at(t))
        bound = 4.0 * lam2 * 2.0 * g_l1 / ref_frame.gap
        for j in range(2):
            dist = np.linalg.norm(pspec.projections[j]
                                  - ref_frame.projections(k)[j], 2)
            assert dist <= bound


def test_eigenvalue_expansion_is_second_order(ref_scenario, ref_frame):
    # residual against alpha + lam^2 alpha' shrinks like lam^4
    t, eps = 0.6, 0.05
    alpha0 = float(ref_frame.energies_at(t)[0])
    # level correction -i|v|^2 I(t/eps, alpha), with |v| = 1 on this path
    a1 = -1j * B.half_line_transform(ref_scenario.bath, alpha0, t / eps)
    ratios = []
    for lam in (0.1, 0.05, 0.025):
        g = R.effective_generator(ref_scenario.atom, ref_frame,
                                  ref_scenario.bath, eps, lam, t)
        pspec = S.perturbed_spectrum(g, ref_frame.energies_at(t),
                                     ref_frame.vectors_at(t))
        resid = abs(pspec.eigenvalues[0] - alpha0 - lam**2 * a1)
        ratios.append(resid / lam**4)
    assert max(ratios) / min(ratios) < 1.2


@pytest.mark.parametrize("g, energies, vectors", [
    # both levels lie nearest the eigenvalue 1
    (np.diag([1.0 + 0j, 5.0]), np.array([1.0, 2.0]), np.eye(2)),
    # each level's nearest eigenvalue has the other reference column's eigenvector
    (np.diag([1.0 + 0j, 2.0]), np.array([1.0, 2.0]), np.eye(2)[:, ::-1]),
], ids=["shared-nearest-eigenvalue", "distance-and-overlap-disagree"])
def test_matching_error_when_levels_cannot_be_told_apart(g, energies, vectors):
    with pytest.raises(MatchingError):
        S.perturbed_spectrum(g, energies, vectors)


def test_riesz_projection_diagonal_matrix():
    g = np.diag([1.0 + 0j, 2.0])
    p = S.riesz_projection(g, 1.0, 0.5)
    assert np.linalg.norm(p - np.diag([1.0, 0.0])) < 1e-12


def test_riesz_matches_eigensolver(ref_generator, ref_frame):
    for t in (0.3, 0.8):
        g = ref_generator(t)
        pspec = spectrum_at(ref_generator, ref_frame, t)
        for j in range(2):
            p = S.riesz_projection(g, complex(ref_frame.energies_at(t)[j]), 0.5)
            assert np.linalg.norm(p - pspec.projections[j]) < 1e-8


def test_riesz_rejects_contour_through_eigenvalue():
    g = np.diag([1.0 + 0j, 2.0])
    with pytest.raises(ContourError):
        S.riesz_projection(g, 1.5, 0.5)


def test_residue_identity():
    for j, center in enumerate((1.0, 2.0)):
        for l, pole in enumerate((1.0, 2.0)):
            val = S.residue_integral(complex(center), 0.5, complex(pole))
            want = -1.0 if j == l else 0.0
            assert abs(val - want) < 1e-10


def test_adiabatic_diagnostic_identity_and_convergence(ref_scenario, ref_frame):
    atom, bath = ref_scenario.atom, ref_scenario.bath
    gen = R.EffectiveGenerator(atom, ref_frame, bath, 0.1, 0.1)
    v_id = S.adiabatic_evolution_diagnostic(atom, ref_frame, bath, 0.1, 0.1, 0.5, 0.5,
                                            gen=gen)
    assert np.allclose(v_id, np.eye(2))

    gaps = []
    for eps, lam2 in ((0.1, 0.02), (0.05, 0.01)):
        lam = np.sqrt(lam2)
        gen = R.EffectiveGenerator(atom, ref_frame, bath, eps, lam)
        v = S.adiabatic_evolution_diagnostic(atom, ref_frame, bath, eps, lam, 1.0, gen=gen)
        cols = []
        for z0 in (np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)):
            traj = R.effective_solve(ref_scenario.atom, ref_frame,
                                     ref_scenario.bath, eps, lam, z0)
            cols.append(traj.z[-1])
        gaps.append(np.linalg.norm(v - np.column_stack(cols)))
    assert gaps[1] < gaps[0]


@pytest.fixture(scope="module")
def d3_frame(tmp_path_factory):
    atom = three_level_atom(tmp_path_factory.mktemp("d3") / "atom.csv")
    return A.eigenframe(atom, np.linspace(0.0, 1.0, 801))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(B, name)

    def counting(*args, **kw):
        calls.append(name)
        return real(*args, **kw)

    monkeypatch.setattr(B, name, counting)
    return calls


def test_only_the_leading_order_runs_the_shift_quadrature(d3_frame, ref_bath, monkeypatch):
    # the tables and their decay-only readers take the rate from decay_rate;
    # the Lamb shift, a quadrature per level, is run by leading_order_z alone,
    # in one decay_and_shift call on all RATE_POINTS times
    z0 = np.eye(3, dtype=complex)[0]
    shifts = count_calls(monkeypatch, "decay_and_shift")
    transforms = count_calls(monkeypatch, "half_line_transform")
    tables = Y.AsymptoticTables(d3_frame, ref_bath)
    Y.regime_classify(0.05, 0.125, tables, z0)
    E.regime_B_limit(d3_frame, ref_bath, d3_frame.atom,
                     B.TestObservable(weight=np.ones_like), 0, 1.0, 1.0)
    assert (shifts, transforms) == ([], [])
    Y.leading_order_z(d3_frame, ref_bath, d3_frame.atom, 0.05, 0.125, z0,
                      np.linspace(0.0, 1.0, 11), tables=tables)
    assert len(shifts) == 1


def test_diagnostic_reads_the_generators_table(d3_frame, ref_bath, monkeypatch):
    eps, lam = 0.1, 0.125
    gen = R.EffectiveGenerator(d3_frame.atom, d3_frame, ref_bath, eps, lam)
    transforms = count_calls(monkeypatch, "half_line_transform")
    v = S.adiabatic_evolution_diagnostic(d3_frame.atom, d3_frame, ref_bath, eps, lam,
                                         0.5, gen=gen)
    assert transforms == []
    # the level corrections come from the table: level j keeps the golden-rule
    # norm exp(-(lam^2/eps) int beta_j) up to O(lam^2) (about 4e-3 here)
    norms = np.linalg.norm(v @ d3_frame.vectors_at(0.0), axis=0)
    predicted = np.exp(-(lam**2 / eps) * Y.AsymptoticTables(d3_frame, ref_bath).int_beta(0.5))
    assert np.all(np.abs(norms / predicted - 1.0) < 1e-2)


def test_diagnostic_rejects_a_generator_that_does_not_fit(ref_scenario, ref_frame):
    atom, bath = ref_scenario.atom, ref_scenario.bath
    eps, lam = 0.1, 0.1
    short = R.EffectiveGenerator(atom, ref_frame, bath, eps, lam, t_end=0.5)
    with pytest.raises(ValueError, match="covers"):
        S.adiabatic_evolution_diagnostic(atom, ref_frame, bath, eps, lam, 0.8, gen=short)
    with pytest.raises(ValueError, match="another"):
        S.adiabatic_evolution_diagnostic(atom, ref_frame, bath, 0.05, lam, 0.4, gen=short)
    S.adiabatic_evolution_diagnostic(atom, ref_frame, bath, eps, lam, 0.5, 0.1, gen=short)
