"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured numbers so the whole
battery can be read off a single `pytest -s tests/test_acceptance.py` run.
"""

import numpy as np

from awwlab import (asymptotics as Y, atom as A, bath as B, emission as E,
                    exact as X, harness as H, reduced as R, spectral as S)

ONE = B.TestObservable(weight=lambda w: np.ones_like(w))


def report(num, label, ok, detail):
    print(f"\nACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_norm_conservation(exact_runner):
    traj, modes = exact_runner(0.05, float(np.sqrt(0.05)))
    psi_sq = np.sum(np.abs(traj.z) ** 2, axis=1) \
        + np.sum(np.abs(traj.field) ** 2, axis=1)
    defect = float(np.max(np.abs(psi_sq - 1.0)))
    report(1, "norm conservation", defect < 1e-8,
           f"sup defect {defect:.2e}, {modes.size} modes")


def test_02_leading_order_scaling(davies_sweep, ref_scenario, ref_frame,
                                  ref_tables):
    eps_list = sorted(davies_sweep, reverse=True)
    errs = []
    for eps in eps_list:
        traj, _ = davies_sweep[eps]
        z_lead = Y.leading_order_z(ref_tables, eps, np.sqrt(eps), ref_scenario.z0,
                                   traj.times)
        errs.append(float(np.max(np.linalg.norm(traj.z - z_lead, axis=1))))
    slope, _ = H.loglog_slope(eps_list, errs)
    mono = bool(np.all(np.diff(errs) < 0.0))
    ok = mono and 0.7 <= slope <= 1.3
    report(2, "leading-order error scaling", ok,
           f"slope {slope:.3f}, errors {['%.3f' % e for e in errs]}")


def test_03_population_decay_constant(davies_sweep, ref_frame, ref_scenario,
                                      ref_tables):
    ks = []
    for eps in sorted(davies_sweep, reverse=True):
        traj, _ = davies_sweep[eps]
        lam2 = eps
        p, _ = X.populations(traj, ref_frame)
        pred = np.exp(-2.0 * (lam2 / eps)
                      * np.asarray(ref_tables.int_beta(traj.times))[:, 0])
        err = float(np.max(np.abs(p[:, 0] - pred)))
        ks.append(err / (eps + lam2 + lam2**2 / eps))
    ok = max(ks) / min(ks) < 2.0
    report(3, "population decay constant", ok,
           f"K range [{min(ks):.3f}, {max(ks):.3f}], ratio {max(ks)/min(ks):.2f}")


def test_04_regime_taxonomy(exact_runner):
    strong, _ = exact_runner(0.01, float(np.sqrt(0.1)))
    p_strong = float(X.de_excitation(strong)[-1])
    weak, _ = exact_runner(0.1, float(np.sqrt(0.1**3)))
    p_weak = float(X.de_excitation(weak)[-1])
    ok = p_strong > 0.9 and p_weak < 5 * 0.1
    report(4, "regime taxonomy", ok,
           f"strong p_down {p_strong:.4f} > 0.9, weak p_down {p_weak:.3e} < 0.5")


def test_05_time_independent_semigroup(ref_bath):
    scen = H.builtin_scenario("ww-const-2level")
    frame = scen.frame()
    a = np.diag([1.0, 2.0])
    v = np.array([1.0, 1.0])
    lams = (0.05, 0.025, 0.0125)
    errs = []
    modes = X.discretize_bath(ref_bath, 1.0, horizon=20.0)
    for lam in lams:
        traj = X.propagate_exact(scen.atom, frame, modes, scen.z0, 1.0, lam,
                                 t_end=20.0, dt_out=0.1, bath=ref_bath)
        z_semi = Y.semigroup_time_independent(a, v, ref_bath, lam, scen.z0,
                                              traj.times)
        errs.append(float(np.max(np.linalg.norm(traj.z - z_semi, axis=1))))
    slope, _ = H.loglog_slope(lams, errs)
    ok = abs(slope - 2.0) <= 0.3
    report(5, "autonomous semigroup scaling", ok,
           f"slope {slope:.3f} in lambda, errors {['%.1e' % e for e in errs]}")


def test_06_geometric_phase(ref_frame):
    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        w = A.kato_intertwiner(ref_frame, t)
        for j in range(2):
            moved = w @ ref_frame.vectors_at(0.0)[:, j]
            want = np.exp(1j * A.berry_phase(ref_frame, j, t)) \
                * ref_frame.vectors_at(t)[:, j]
            worst = max(worst, float(np.linalg.norm(moved - want)))
    atom_c = A.complex_phase_atom(theta0=np.pi / 4, omega=1.0)
    frame_c = A.eigenframe(atom_c, np.linspace(0.0, 1.0, 801))
    xi_err = abs(A.berry_phase(frame_c, 0, 1.0) - (-0.5))
    ok = worst < 1e-6 and xi_err < 1e-8
    report(6, "geometric phase transport", ok,
           f"max Kato-vs-phase gap {worst:.2e}, analytic xi error {xi_err:.2e}")


def test_07_spectral_machinery(ref_scenario, ref_frame):
    gen = R.EffectiveGenerator(ref_scenario.atom, ref_frame, ref_scenario.bath,
                               0.05, np.sqrt(1.0 / 64))
    riesz_gap = 0.0
    for t in (0.3, 0.8):
        g = gen(t)
        pspec = S.perturbed_spectrum(g, ref_frame.energies_at(t),
                                     ref_frame.vectors_at(t))
        for j in range(2):
            p = S.riesz_projection(g, complex(ref_frame.energies_at(t)[j]), 0.5)
            riesz_gap = max(riesz_gap,
                            float(np.linalg.norm(p - pspec.projections[j])))
    residue_gap = 0.0
    for j, center in enumerate((1.0, 2.0)):
        for l, pole in enumerate((1.0, 2.0)):
            val = S.residue_integral(complex(center), 0.5, complex(pole))
            residue_gap = max(residue_gap, abs(val - (-1.0 if j == l else 0.0)))

    rng = np.random.default_rng(23)
    g_l1 = B.correlation_l1_norm(ref_scenario.bath)
    bound_ok = True
    for _ in range(50):
        k = int(rng.integers(10, len(ref_frame.times)))
        t = float(ref_frame.times[k])
        lam2 = float(rng.uniform(1e-4, 1.0 / 33))
        g = R.EffectiveGenerator(ref_scenario.atom, ref_frame,
                                 ref_scenario.bath, 0.05, np.sqrt(lam2))(t)
        pspec = S.perturbed_spectrum(g, ref_frame.energies_at(t),
                                     ref_frame.vectors_at(t))
        bound = 4.0 * lam2 * 2.0 * g_l1 / ref_frame.gap
        for j in range(2):
            dist = float(np.linalg.norm(
                pspec.projections[j] - ref_frame.projections(k)[j], 2))
            bound_ok = bound_ok and dist <= bound
    ok = riesz_gap < 1e-8 and residue_gap < 1e-10 and bound_ok
    report(7, "spectral machinery", ok,
           f"riesz gap {riesz_gap:.1e}, residue gap {residue_gap:.1e}, "
           f"projection bound {'held' if bound_ok else 'violated'} at 50 samples")


def test_08_emission_limit_law(exact_runner, ref_scenario, ref_frame):
    pred = E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom,
                            ONE, 0, 1.0, 1.0)
    rels = []
    for eps in (0.05, 0.02):
        traj, modes = exact_runner(eps, float(np.sqrt(eps)))
        avg = float(E.observable_average(traj, modes, ONE)[-1])
        rels.append(abs(avg - pred) / pred)
    a_val = E.regime_A_limit(ref_frame, ref_scenario.bath, ONE, 0)
    b_far = E.regime_B_limit(ref_frame, ref_scenario.bath, ref_scenario.atom,
                             ONE, 0, 1000.0, 1.0)
    a_gap = abs(b_far - a_val) / a_val
    ok = rels[0] < 0.20 and rels[1] < rels[0] and a_gap < 0.01
    report(8, "emission limit laws", ok,
           f"rel errors {rels[0]:.3%} -> {rels[1]:.3%}, regime-A gap {a_gap:.2e}")


def test_09_volterra_oracle_equivalence(exact_runner, ref_scenario, ref_frame):
    errs = []
    for eps in (0.1, 0.05):
        traj, _ = exact_runner(eps, float(np.sqrt(eps)))
        tv = R.volterra_solve(ref_frame, ref_scenario.bath,
                              eps, np.sqrt(eps), ref_scenario.z0)
        errs.append(float(np.max(np.linalg.norm(
            tv.z_at(traj.times) - traj.z, axis=1))))
    factor = errs[0] / errs[1]
    ok = factor >= 1.5
    report(9, "memory-kernel oracle equivalence", ok,
           f"errors {errs[0]:.2e} -> {errs[1]:.2e}, drop factor {factor:.2f}")


def test_10_bath_identities(ref_bath):
    checks = {
        "gamma(0)": (complex(B.correlation(ref_bath, 0.0)), 2.0),
        "l1 norm": (B.correlation_l1_norm(ref_bath), 4.0),
        "ghat(1)": (float(B.fourier_hat(ref_bath, 1.0)),
                    np.sqrt(2.0 * np.pi) * np.exp(-1.0)),
        "beta(1,1)": (B.decay_and_shift(ref_bath, 1.0, 1.0)[0],
                      np.pi * np.exp(-1.0)),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst < 1e-6
    report(10, "bath unit identities", ok, f"max deviation {worst:.2e}")
