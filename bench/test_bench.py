"""Tests of the benchmark itself: every check rejects a wrong answer.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402

GOLDEN_1 = 1.0 - np.exp(-2.0 * np.pi / np.e)   # r = 1, alpha = 1, |v| = 1


def ladder_rows(e_lead_slope=1.0, volt_drop=4.0):
    eps = [0.1, 0.05, 0.025, 0.0125]
    rows = {}
    for k, e in enumerate(eps):
        rows[e] = {"status": "ok", "regime": "davies", "p_down": str(GOLDEN_1 + 0.5 * e),
                   "E_lead": str(2.0 * e**e_lead_slope), "E_eff": str(1.2 * e),
                   "E_volt": str(4e-4 / volt_drop**k)}
    return rows


def fitted(rows):
    eps = sorted(rows, reverse=True)
    return {m: {"slope": repr(checks.loglog_slope(eps, [float(rows[e][m]) for e in eps]))}
            for m in ("E_lead", "E_eff")}


def test_golden_rule_weight_is_the_closed_form():
    assert checks.golden_rule_weight(1.0) == pytest.approx(GOLDEN_1, rel=1e-15)
    assert checks.golden_rule_weight(0.25) == pytest.approx(0.438904229931933, rel=1e-12)


def test_ladder_point_rejects_bad_status_regime_and_p_down():
    row = ladder_rows()[0.05]
    assert checks.check_ladder_point(row, 0.05) == []
    assert checks.check_ladder_point(dict(row, status="QuadratureError: x"), 0.05)
    assert checks.check_ladder_point(dict(row, regime="weak_a"), 0.05)
    assert checks.check_ladder_point(dict(row, p_down=str(GOLDEN_1 + 0.06)), 0.05)
    # the regime-A answer (no decay) is far off
    assert checks.check_ladder_point(dict(row, p_down="0.0"), 0.05)


def test_ladder_fit_rejects_wrong_slopes_and_a_flat_volterra_error():
    rows = ladder_rows()
    assert checks.check_ladder_fit(rows, fitted(rows)) == []
    steep = ladder_rows(e_lead_slope=2.0)
    assert checks.check_ladder_fit(steep, fitted(steep))
    # slopes.csv that disagrees with its own sweep rows
    assert checks.check_ladder_fit(rows, fitted(steep))
    flat = ladder_rows(volt_drop=1.2)
    assert checks.check_ladder_fit(flat, fitted(flat))


def test_norm_check_rejects_an_injected_drift():
    z = np.full((5, 2), np.sqrt(0.25))
    field = np.full((5, 2), np.sqrt(0.25)) + 0j
    assert checks.check_norm(z, field) == []
    field[3, 0] *= 1.0 + 1e-7
    assert checks.check_norm(z, field)


def test_emission_checks_reject_wrong_limits():
    eps = 0.02
    assert checks.check_emitted_weight(GOLDEN_1 + 0.5 * eps, 1.0, eps) == []
    # the weight of r = 2 is not the weight of r = 1
    assert checks.check_emitted_weight(checks.golden_rule_weight(2.0), 1.0, eps)
    assert checks.check_mean_frequency(1.0 + 1.5 * eps, eps) == []
    assert checks.check_mean_frequency(2.0, eps)          # the upper level's line
    assert checks.check_limit_law(GOLDEN_1, GOLDEN_1, 1.0) == []
    assert checks.check_limit_law(GOLDEN_1 * 1.01, GOLDEN_1 * 1.01, 1.0)
    assert checks.check_limit_law(GOLDEN_1, 1.1 * GOLDEN_1, 1.0)


def test_reconstruction_rejects_a_conjugated_field():
    f = np.exp(1j * np.linspace(0.0, 3.0, 50)) * np.linspace(0.1, 1.0, 50)
    assert checks.check_reconstruction(f * (1.0 + 1e-5), f) == []
    assert checks.check_reconstruction(np.conj(f), f)
    assert checks.check_reconstruction(np.zeros_like(f), np.zeros_like(f))


def test_norm_defect_rejects_drift_and_nan():
    assert checks.check_norm_defect([1e-12, 3e-12]) == []
    assert checks.check_norm_defect([1e-12, 2e-8])
    assert checks.check_norm_defect([1e-12, np.nan])


def test_kato_check_rejects_swapped_levels():
    vecs = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0].astype(complex)
    assert checks.check_kato_berry(vecs, vecs * (1.0 + 1e-9)) == []
    assert checks.check_kato_berry(vecs[:, [1, 0, 2]], vecs)
    # a lost geometric phase
    assert checks.check_kato_berry(vecs * np.exp(0.01j), vecs)


def test_projection_check_rejects_a_swapped_projection():
    vecs = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0]
    proj = [np.outer(vecs[:, j], vecs[:, j]) for j in range(3)]
    assert checks.check_projections(proj, [p + 1e-12 for p in proj]) == []
    assert checks.check_projections([proj[1], proj[0], proj[2]], proj)


def test_decay_rate_check_rejects_a_factor_two():
    alphas = np.array([1.0, 1.8, 2.6])
    v2 = np.array([0.25, 0.3, 0.2])
    lam2 = 1.0 / 64
    right = -lam2 * np.pi * v2 * checks.rho(alphas)
    assert checks.check_decay_rates(right * 1.01, alphas, v2, lam2, 20.0) == []
    assert checks.check_decay_rates(2.0 * right, alphas, v2, lam2, 20.0)
    # rates taken at the wrong levels
    assert checks.check_decay_rates(right[::-1], alphas, v2, lam2, 20.0)


def test_adiabatic_check_rejects_missing_decay():
    predicted = np.array([0.85, 0.73, 0.77])
    assert checks.check_adiabatic_norms(predicted + 0.01, predicted, 1 / 64, 0.8, 0.7) == []
    assert checks.check_adiabatic_norms(np.ones(3), predicted, 1 / 64, 0.8, 0.7)


def test_error_falls_rejects_a_stalled_error():
    assert checks.check_error_falls({0.1: 3e-5, 0.05: 1.3e-5, 0.025: 6e-6}) == []
    assert checks.check_error_falls({0.1: 3e-5, 0.05: 1.3e-5, 0.025: 1.2e-5})


def test_tracer_self_time_and_outermost_inclusive_time():
    tracer = spans.Tracer()
    outer = tracer.open("a", eps=0.1)
    inner = tracer.open("a")
    leaf = tracer.open("b")
    tracer.close(leaf)
    tracer.close(inner)
    tracer.close(outer, is_point=True)
    tracer.start[:] = [0.0, 1.0, 2.0]
    tracer.end[:] = [10.0, 5.0, 4.0]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "s": 10.0, "self_s": (10.0 - 4.0) + (4.0 - 2.0)}
    assert summary["b"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert tracer.stage_time_per_point("b") == {0.1: 2.0}
    assert tracer.stage_time_per_point("a") == {}       # the point span itself


def test_install_reaches_functions_imported_by_name():
    """harness holds eigenframe under its own name; the traced run must see it."""
    code = (
        "import sys, json; sys.path[:0] = [%r, %r]\n"
        "import awwlab, spans\n"
        "t = spans.Tracer(); spans.install(t, awwlab)\n"
        "awwlab.harness.builtin_scenario('ww-ref-2level').frame()\n"
        "print(json.dumps(t.summary()))\n"
    ) % (os.path.join(os.path.dirname(HERE), "src"), HERE)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    summary = json.loads(out.stdout)
    assert summary["harness.builtin_scenario"]["calls"] == 1
    assert summary["atom.eigenframe"]["calls"] == 1
    assert summary["atom.AtomPath.matrix"]["calls"] == 801


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
