import numpy as np
import pytest

from awwlab import asymptotics, atom, bath as bath_mod, exact
from awwlab.harness import builtin_scenario
from test_magnus import three_level_atom


@pytest.fixture(scope="session")
def ref_bath():
    return bath_mod.reference_bath()


@pytest.fixture(scope="session")
def ref_scenario():
    return builtin_scenario("ww-ref-2level")


@pytest.fixture(scope="session")
def ref_frame(ref_scenario):
    return ref_scenario.frame()


@pytest.fixture(scope="session")
def ref_tables(ref_scenario, ref_frame):
    return asymptotics.AsymptoticTables(ref_frame, ref_scenario.bath)


@pytest.fixture(scope="session")
def d3_frame(tmp_path_factory):
    """Eigenframe of the seeded three-level path on 801 nodes of [0, 1]."""
    d3_atom = three_level_atom(tmp_path_factory.mktemp("d3") / "atom.csv")
    return atom.eigenframe(d3_atom, np.linspace(0.0, 1.0, 801))


@pytest.fixture
def correlation_within_decay_t_max(monkeypatch):
    """bath.correlation that fails beyond DECAY_T_MAX.

    For a bath without a closed form each correlation is a quadrature whose
    memory grows with t; the spy makes a request for t ~ 3e6 fail at once.
    """
    real = bath_mod.correlation

    def spy(bath, t, tol=1e-9):
        assert np.all(np.abs(t) <= bath_mod.DECAY_T_MAX), f"correlation at t = {t}"
        return real(bath, t, tol)

    monkeypatch.setattr(bath_mod, "correlation", spy)


@pytest.fixture(scope="session")
def exact_runner(ref_scenario, ref_frame):
    """Cached exact trajectories of the reference scenario, keyed by (eps, lam)."""
    cache = {}

    def run(eps, lam, **kw):
        key = (eps, lam, tuple(sorted(kw.items())))
        if key not in cache:
            modes = exact.discretize_bath(ref_scenario.bath, eps)
            cache[key] = exact.propagate_exact(
                ref_scenario.atom, ref_frame, modes, ref_scenario.z0, eps, lam,
                bath=ref_scenario.bath, override_smallness=True, **kw), modes
        return cache[key]

    return run


@pytest.fixture(scope="session")
def davies_sweep(exact_runner):
    """Exact runs along lam^2 = eps for the scaling criteria."""
    out = {}
    for eps in (0.2, 0.1, 0.05, 0.025):
        out[eps] = exact_runner(eps, float(np.sqrt(eps)))
    return out
