"""Run configuration: line-oriented key=value parsing and the bundled
shock-tube experiment presets t1..t6.

A config file may name a `preset` and then override any key. All quantities
are SI (times in seconds). RunConfig checks its own values where it is built,
as EosParams and the regime policies do, so a config made or replaced in code
is checked too. The parser reads keys and numbers (unknown keys and
non-finite numbers are hard errors) and picks the regime policy; every error,
its own or a value type's, names the config line or override it comes from.
"""

import math
from dataclasses import dataclass

from .eos import EosParams, _check_admissible
from .errors import ConfigError, DemflowError, InvalidStateError, _require
from .regime import (ConstantRegime, PiecewiseRegime, StochasticRegime,
                     UniformRandomRegime, check_breakpoints)
from .state import SATURATION_TOL

# volume-fraction floor for initial data; keeps nearly pure phases off the
# boundary so relaxation and probability coefficients stay well defined
EPS_VF = 1e-6

RELAXATION_MODES = ("none", "continuous", "projection")
REGIME_MODES = ("constant", "piecewise", "stochastic", "uniform")


@dataclass(frozen=True)
class PhaseSideInit:
    """One phase's initial (alpha, rho, u, p) on one side of the diaphragm."""

    alpha: float
    rho: float
    u: float
    p: float


@dataclass(frozen=True)
class RunConfig:
    """One experiment: domain, grid, end time, both phases' EOS and initial
    states, relaxation mode, regime policy and outputs. It checks its values
    where it is built; an error's `field` is the config key the failing rule
    reads."""

    x_min: float
    x_max: float
    n_cells: int
    t_end: float
    eos1: EosParams
    eos2: EosParams
    left1: PhaseSideInit
    left2: PhaseSideInit
    right1: PhaseSideInit
    right2: PhaseSideInit
    cfl: float = 0.9
    diaphragm: float = 0.0
    relaxation: str = "none"
    regime_policy: object = ConstantRegime(0.0)
    snapshot_times: tuple = ()
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        _require(self.x_max > self.x_min, ConfigError, "x_max", "x_max must exceed x_min")
        _require(self.n_cells >= 3, ConfigError, "n_cells", "n_cells must be at least 3")
        _require(self.t_end >= 0.0, ConfigError, "t_end", "t_end must be non-negative")
        _require(0.0 < self.cfl <= 1.0, ConfigError, "cfl", "cfl must lie in (0, 1]")
        _require(self.x_min < self.diaphragm < self.x_max, ConfigError, "diaphragm",
                 "diaphragm must lie inside the domain")
        for prefix, phase in (("left", 1), ("left", 2), ("right", 1), ("right", 2)):
            init, eos = getattr(self, f"{prefix}{phase}"), getattr(self, f"eos{phase}")
            key = f"{prefix}_alpha{phase}"
            _require(EPS_VF <= init.alpha <= 1.0 - EPS_VF, ConfigError, key,
                     f"{key} must lie in [{EPS_VF:g}, {1.0 - EPS_VF:g}]")
            for q, rho, p in (("rho", init.rho, None), ("p", None, init.p)):
                try:
                    _check_admissible(rho, p, eos)
                except InvalidStateError as exc:
                    _require(False, ConfigError, f"{prefix}_{q}{phase}",
                             f"{prefix} phase {phase} state inadmissible: {exc}")
        for prefix, a, b in (("left", self.left1, self.left2), ("right", self.right1, self.right2)):
            _require(abs(a.alpha + b.alpha - 1.0) <= SATURATION_TOL, ConfigError,
                     f"{prefix}_alpha1", f"{prefix} volume fractions do not saturate")
        _require(self.relaxation in RELAXATION_MODES, ConfigError, "relaxation",
                 f"relaxation must be one of {RELAXATION_MODES}")
        for s in self.snapshot_times:
            _require(0.0 <= s <= self.t_end, ConfigError, "snapshots",
                     f"snapshot time {s:g} outside [0, t_end]")


# left_alpha1, left_rho1, left_u1, left_p1, left_alpha2, ..., right_p2
_STATE_KEYS = tuple(f"{side}_{q}{phase}" for side in ("left", "right")
                    for phase in (1, 2) for q in ("alpha", "rho", "u", "p"))
_FLOAT_KEYS = {
    "x_min", "x_max", "t_end", "cfl", "diaphragm",
    "gamma1", "pi_inf1", "gamma2", "pi_inf2",
    "regime_r", "regime_epsilon", "regime_r0", *_STATE_KEYS,
}
_INT_KEYS = {"n_cells", "seed"}
_STR_KEYS = {"relaxation", "regime", "output", "preset"}
_LIST_KEYS = {"regime_breakpoints", "regime_values", "snapshots"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS

_REQUIRED = ("x_min", "x_max", "n_cells", "t_end", "gamma1", "pi_inf1", "gamma2", "pi_inf2",
             *_STATE_KEYS)


def _entries(sources):
    """{key: (value, where)} from (where, text) pairs; `where` prefixes the
    errors of its entry ("line 3", "override k=v"; None for none). '#' starts
    a comment; later duplicates win."""
    entries = {}
    for where, raw in sources:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", where)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", where)
        if not value and key not in _STR_KEYS:
            raise ConfigError(f"empty value for {key!r}", where)
        entries[key] = (value, where)
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse a key=value config (UTF-8, '#' comments; later duplicates win);
    errors name the offending line."""
    return _build(_entries((f"line {n}", raw)
                           for n, raw in enumerate(text.splitlines(), start=1)))


def preset_config(name: str, overrides=()) -> RunConfig:
    """Expand a named preset, optionally overriding keys ('key=value' strings).
    An error names the override it comes from; a preset error names nothing."""
    return _build(_entries([(None, f"preset={name}"),
                            *((f"override {o}", raw) for o in overrides
                              for raw in o.splitlines())]))


def available_presets():
    return sorted(PRESETS)


def _build(entries) -> RunConfig:
    if "preset" in entries:
        name, where = entries.pop("preset")
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r} (available: {', '.join(available_presets())})", where)
        merged = {k: (v, where) for k, v in PRESETS[name].items()}
        merged.update(entries)
        entries = merged

    def origin(key):
        return entries[key][1] if key in entries else None

    def take(key, kind, default=None):
        if key not in entries:
            return default
        raw, where = entries[key]
        try:
            value = kind(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"cannot parse {key}={raw!r}", where) from None
        numbers = value if kind is float_list else (value,)
        if kind in (float, float_list) and not all(map(math.isfinite, numbers)):
            raise ConfigError(f"{key} must be finite, got {raw!r}", where)
        return value

    def float_list(raw):
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())

    missing = [k for k in _REQUIRED if k not in entries]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    x_min = take("x_min", float)
    x_max = take("x_max", float)
    n_cells = take("n_cells", int)
    t_end = take("t_end", float)
    cfl = take("cfl", float, 0.9)
    diaphragm = take("diaphragm", float, 0.0)
    seed = take("seed", int, 0)

    def built(kind, keys, label=None, **values):
        """kind(**values); a check's error names the line or override of the
        key its rule reads (keys: field -> key; an unmapped field is the key
        itself), then `label`."""
        try:
            return kind(**values)
        except DemflowError as exc:
            raise ConfigError(f"{label}: {exc}" if label else str(exc),
                              origin(keys.get(exc.field, exc.field))) from exc

    eos1, eos2 = (built(EosParams, {"gamma": f"gamma{k}", "pi_inf": f"pi_inf{k}"}, f"phase {k}",
                        gamma=take(f"gamma{k}", float), pi_inf=take(f"pi_inf{k}", float))
                  for k in (1, 2))
    left1, left2, right1, right2 = (
        PhaseSideInit(*(take(f"{side}_{q}{phase}", float) for q in ("alpha", "rho", "u", "p")))
        for side in ("left", "right") for phase in (1, 2))
    relaxation = take("relaxation", str, "none")

    regime = take("regime", str, "constant")
    if regime not in REGIME_MODES:
        raise ConfigError(f"regime must be one of {REGIME_MODES}", origin("regime"))
    if regime == "constant":
        policy = built(ConstantRegime, {"value": "regime_r"}, value=take("regime_r", float, 0.0))
    elif regime == "piecewise":
        bps = take("regime_breakpoints", float_list)
        vals = take("regime_values", float_list)
        if bps is None or vals is None:
            raise ConfigError("piecewise regime needs regime_breakpoints and regime_values")
        policy = built(PiecewiseRegime,
                       {"breakpoints": "regime_breakpoints", "values": "regime_values"},
                       breakpoints=bps, values=vals)
        built(check_breakpoints, {"breakpoints": "regime_breakpoints"},
              policy=policy, x_min=x_min, x_max=x_max)
    elif regime == "stochastic":
        eps = take("regime_epsilon", float)
        if eps is None:
            raise ConfigError("stochastic regime needs regime_epsilon")
        policy = built(StochasticRegime, {"epsilon": "regime_epsilon", "initial": "regime_r0",
                                          "seed": "seed"},
                       epsilon=eps, seed=seed, initial=take("regime_r0", float, 0.0))
    else:
        policy = built(UniformRandomRegime, {"seed": "seed"}, seed=seed)

    return built(RunConfig, {}, x_min=x_min, x_max=x_max, n_cells=n_cells, t_end=t_end,
                 eos1=eos1, eos2=eos2, left1=left1, left2=left2, right1=right1, right2=right2,
                 cfl=cfl, diaphragm=diaphragm, relaxation=relaxation, regime_policy=policy,
                 snapshot_times=take("snapshots", float_list, ()), seed=seed,
                 output=take("output", str, None))


# gas phase 1 (gamma=1.4, pi=0) against water-like phase 2 (gamma=4.4, pi=6e8)
_COMMON = {
    "x_min": "-1", "x_max": "1", "diaphragm": "0", "cfl": "0.9",
    "gamma1": "1.4", "pi_inf1": "0", "gamma2": "4.4", "pi_inf2": "6e8",
}

PRESETS = {
    # uniform volume fraction, strong pressure-ratio shock tube, no relaxation
    "t1_uniform_vf": {
        **_COMMON, "n_cells": "1000", "t_end": "100e-6",
        "left_alpha1": "0.5", "left_rho1": "50", "left_u1": "0", "left_p1": "1e9",
        "left_alpha2": "0.5", "left_rho2": "1000", "left_u2": "0", "left_p2": "1e9",
        "right_alpha1": "0.5", "right_rho1": "50", "right_u1": "0", "right_p1": "1e5",
        "right_alpha2": "0.5", "right_rho2": "1000", "right_u2": "0", "right_p2": "1e5",
        "relaxation": "none", "regime": "constant", "regime_r": "0",
    },
}

# same tube with infinite-drag relaxation active
PRESETS["t2_uniform_vf_relaxed"] = {
    **PRESETS["t1_uniform_vf"], "n_cells": "3000", "relaxation": "continuous",
}

# nearly pure chambers: water at 2e8 Pa pushing into gas at 1e5 Pa
PRESETS["t3_pure_phases"] = {
    **_COMMON, "n_cells": "1000", "t_end": "229e-6",
    "left_alpha1": "1e-6", "left_rho1": "50", "left_u1": "0", "left_p1": "2e8",
    "left_alpha2": "0.999999", "left_rho2": "1000", "left_u2": "0", "left_p2": "2e8",
    "right_alpha1": "0.999999", "right_rho1": "50", "right_u1": "0", "right_p1": "1e5",
    "right_alpha2": "1e-6", "right_rho2": "1000", "right_u2": "0", "right_p2": "1e5",
    "relaxation": "continuous", "regime": "constant", "regime_r": "0",
}

# symmetric expansion creating gas pockets at the diaphragm
PRESETS["t4_cavitation"] = {
    **_COMMON, "n_cells": "2000", "t_end": "2e-3",
    "left_alpha1": "1e-2", "left_rho1": "50", "left_u1": "-10", "left_p1": "1e5",
    "left_alpha2": "0.99", "left_rho2": "1000", "left_u2": "-10", "left_p2": "1e5",
    "right_alpha1": "1e-2", "right_rho1": "50", "right_u1": "10", "right_p1": "1e5",
    "right_alpha2": "0.99", "right_rho2": "1000", "right_u2": "10", "right_p2": "1e5",
    "relaxation": "continuous", "regime": "constant", "regime_r": "0",
}

# spatially varying regime over the t1 tube
PRESETS["t5_piecewise_r"] = {
    **PRESETS["t1_uniform_vf"], "n_cells": "2000", "relaxation": "continuous",
    "regime": "piecewise",
    "regime_breakpoints": "-0.52,0.395,0.761",
    "regime_values": "0.13,0.47,1,0.69",
}

# dense-to-dilute transition: stochastic r starting from stratified flow
PRESETS["t6_dense_dilute"] = {
    **PRESETS["t1_uniform_vf"], "n_cells": "3000", "relaxation": "continuous",
    "regime": "stochastic", "regime_epsilon": "1e-3", "regime_r0": "0", "seed": "0",
}
