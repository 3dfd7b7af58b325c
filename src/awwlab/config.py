"""Flat key=value configuration files, read into one typed `RunConfig`.

One assignment per line, '#' starts a comment. Keys are dotted paths
(atom.*, bath.*, sim.*, sweep.*, solver.*, emission.*); unknown keys are
rejected so typos surface as errors instead of silent defaults.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .exact import DT_OUT, ODE_RTOL, TOL_CORR

__all__ = ["RunConfig", "KNOWN_KEYS", "parse_config", "load_config"]

# allowed ranges as (text, test) pairs
_UNIT = "in (0, 1]", lambda x: 0.0 < x <= 1.0
_OPEN_UNIT = "in (0, 1)", lambda x: 0.0 < x < 1.0
_POSITIVE = "positive and finite", lambda x: 0.0 < x < math.inf


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _lambda_rule(text: str) -> tuple:
    """("list", (l1, l2, ...)), or ("power", c, p) for lambda2 = c * eps^p."""
    rule = text.replace(" ", "")
    if rule.startswith("list:"):
        return "list", tuple(float(tok) for tok in rule[len("list:"):].split(","))
    if rule == "lambda2=eps":
        return "power", 1.0, 1.0
    if rule.startswith("lambda2="):
        c, p = rule[len("lambda2="):].split("*eps^")   # ValueError unless one '*eps^'
        return "power", float(c), float(p)
    raise ValueError(text)


def _key(help_text, parse=str, allowed=None, default=MISSING):
    return field(default=default, metadata={"help": help_text, "parse": parse, "allowed": allowed})


@dataclass(frozen=True)
class RunConfig:
    """Every key with its type, default, range and help text. Field `sim_t_end`
    holds key `sim.t_end`. A field without a default is a required key; for a
    `None` default the run derives the value, as the help text says."""

    atom_name: str = _key("builtin atom path: ww-ref-2level | ww-const-2level | tabulated")
    bath_name: str = _key("builtin bath: reference")
    atom_file: Optional[str] = _key("CSV path for atom.name = tabulated", default=None)
    bath_file: Optional[str] = _key("CSV path (omega, rho) for a tabulated bath", default=None)
    sim_eps: float = _key("adiabatic parameter for single runs", float, _UNIT, 0.05)
    sim_lambda2: float = _key("coupling squared for single runs", float, _UNIT, 1.0 / 64)
    sim_t_end: Optional[float] = _key("final rescaled time (default 1, 20 for "
                                      "ww-const-2level, the table's last time for "
                                      "tabulated)", float, _POSITIVE, None)
    sim_z0: Optional[tuple] = _key(
        "comma-separated initial amplitudes (default 1,0,...)", _floats,
        ("of nonzero finite norm", lambda z: 0.0 < math.hypot(*z) < math.inf), None)
    sweep_epsilons: Optional[tuple] = _key(
        "comma-separated epsilon list, required by sweep (>= 3) and regimes", _floats,
        ("each in (0, 1]", lambda xs: all(_UNIT[1](x) for x in xs)), None)
    sweep_lambda_rule: tuple = _key("lambda2=eps | lambda2=<c>*eps^<p> | list:<l1,l2,...>, "
                                    "each coupling lam in (0, 1]", _lambda_rule,
                                    default=_lambda_rule("lambda2=eps"))
    sweep_direction: str = _key("sweep axis for the slope fit", str,
                                ("eps | lambda", lambda s: s in ("eps", "lambda")), "eps")
    solver_rtol: float = _key("exact-propagation relative tolerance", float, _OPEN_UNIT, ODE_RTOL)
    solver_dt_out: float = _key("output grid spacing", float, _POSITIVE, DT_OUT)
    solver_tol_corr: float = _key("mode-grid correlation tolerance", float, _OPEN_UNIT, TOL_CORR)
    emission_r: float = _key("decay-vs-slowness ratio r = lambda2/eps", float, _POSITIVE, 1.0)
    emission_observable: str = _key("emitted observable", str,
                                    ("one | omega", lambda s: s in ("one", "omega")), "one")
    emission_eps: Optional[float] = _key("emission epsilon (default sim.eps)", float, _UNIT, None)

    @classmethod
    def from_dict(cls, cfg: dict) -> "RunConfig":
        """Read a flat key -> string dict; a bad key raises ConfigError(key=...)."""
        for key in cfg:
            if key not in _FIELDS:
                raise ConfigError(f"unknown key {key!r}", key=key)
        values = {}
        for key, f in _FIELDS.items():
            if key not in cfg:
                if f.default is MISSING:
                    raise ConfigError(f"missing required key {key!r}", key=key)
                continue
            text, allowed = cfg[key], f.metadata["allowed"]
            try:
                value = f.metadata["parse"](text)
            except ValueError:
                raise ConfigError(f"key {key!r}: cannot read {text!r}", key=key)
            if allowed is not None and not allowed[1](value):
                raise ConfigError(f"{key} = {text!r} must be {allowed[0]}", key=key)
            values[f.name] = value
        return cls(**values)


_FIELDS = {f.name.replace("_", ".", 1): f for f in fields(RunConfig)}

KNOWN_KEYS = {key: f.metadata["help"] for key, f in _FIELDS.items()}


def parse_config(text: str) -> dict:
    """Parse key = value lines into a flat string dict; an unknown or duplicate
    key is a ConfigError naming its line. RunConfig.from_dict checks the rest."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key)
        out[key] = value
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
