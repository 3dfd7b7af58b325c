"""Flat key=value configuration files.

One assignment per line, '#' starts a comment. Keys are dotted paths
(atom.*, bath.*, sim.*, sweep.*, solver.*, emission.*, output.*); unknown
keys are rejected so typos surface as errors instead of silent defaults.
"""

from __future__ import annotations

from .errors import ConfigError

__all__ = ["KNOWN_KEYS", "parse_config", "load_config", "get_float", "get_str",
           "get_float_list"]

KNOWN_KEYS = {
    "atom.name": "builtin atom path: ww-ref-2level | ww-const-2level | tabulated",
    "atom.file": "CSV path for atom.name = tabulated",
    "bath.name": "builtin bath: reference",
    "bath.file": "CSV path (omega, rho) for a tabulated bath",
    "sim.eps": "adiabatic parameter for single runs, in (0, 1]",
    "sim.lambda2": "coupling strength squared for single runs",
    "sim.t_end": "final rescaled time, > 0 (default 1.0)",
    "sim.z0": "comma-separated initial amplitudes (default 1,0,...)",
    "sweep.epsilons": "comma-separated epsilon list (>= 3 for slope fits)",
    "sweep.lambda_rule": "lambda2=eps | lambda2=<c>*eps^<p> | list:<l1,l2,...>",
    "sweep.direction": "sweep axis for the slope fit: eps | lambda",
    "solver.rtol": "exact-propagation relative tolerance (default 1e-10)",
    "solver.dt_out": "output grid spacing (default 0.005)",
    "solver.tol_corr": "mode-grid correlation tolerance (default 1e-4)",
    "emission.r": "decay-vs-slowness ratio r = lambda2/eps",
    "emission.observable": "one | omega",
    "emission.eps": "epsilon for the emission comparison",
    "output.dir": "output directory for CSV files",
}

_REQUIRED = ("atom.name", "bath.name")


def parse_config(text: str) -> dict:
    """Parse key = value lines into a flat string dict."""
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
    for key in _REQUIRED:
        if key not in out:
            raise ConfigError(f"missing required key {key!r}", key=key)
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")


def get_str(cfg: dict, key: str, default=None) -> str:
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ConfigError(f"missing required key {key!r}", key=key)
    return default


def get_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}", key=key)
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {cfg[key]!r}", key=key)


def get_float_list(cfg: dict, key: str, default=None) -> list:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}", key=key)
        return list(default)
    try:
        return [float(tok) for tok in cfg[key].replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number list: {cfg[key]!r}", key=key)

