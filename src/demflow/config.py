"""Run configuration: line-oriented key=value parsing and the bundled
shock-tube experiment presets t1..t6.

A config file may name a `preset` and then override any key. All quantities
are SI (times in seconds). RunConfig checks its own values where it is built,
as EosParams and the regime policies do, so a config made or replaced in code
is checked too. The parser states each key's kind once, in one table, and
each built type's field -> key map once; defaults live only on the types,
and a config states every EOS and initial-state key. It parses every key it
is given (unknown keys and non-finite numbers are hard errors), then builds
the EOS, the initial states, the regime policy the `regime` key names and the
RunConfig from the keys the config sets. Every error, its own or a value
type's, names the config line or override it comes from: for a rule that
reads several keys, the one of them that the config sets last.
"""

import math
from dataclasses import MISSING, dataclass, fields

from .eos import EosParams, _check_admissible
from .errors import ConfigError, DemflowError, InvalidStateError, _require
from .regime import (ConstantRegime, PiecewiseRegime, StochasticRegime,
                     UniformRandomRegime, check_breakpoints)
from .relaxation import _RELAXERS
from .state import SATURATION_TOL

# volume-fraction floor for initial data; keeps nearly pure phases off the
# boundary so relaxation and probability coefficients stay well defined
EPS_VF = 1e-6

RELAXATION_MODES = tuple(_RELAXERS)


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
    checks, and its `reads` every config key the rule reads."""

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
    output: str | None = None

    def __post_init__(self):
        _require(self.x_max > self.x_min, ConfigError, "x_max", "x_max must exceed x_min", "x_min")
        if isinstance(self.regime_policy, PiecewiseRegime):
            check_breakpoints(self.regime_policy, self.x_min, self.x_max)
        _require(self.n_cells >= 3, ConfigError, "n_cells", "n_cells must be at least 3")
        _require(self.t_end >= 0.0, ConfigError, "t_end", "t_end must be non-negative")
        _require(0.0 < self.cfl <= 1.0, ConfigError, "cfl", "cfl must lie in (0, 1]")
        _require(self.x_min < self.diaphragm < self.x_max, ConfigError, "diaphragm",
                 "diaphragm must lie inside the domain", "x_min", "x_max")
        for prefix, phase in (("left", 1), ("left", 2), ("right", 1), ("right", 2)):
            init, eos = getattr(self, f"{prefix}{phase}"), getattr(self, f"eos{phase}")
            key = f"{prefix}_alpha{phase}"
            _require(EPS_VF <= init.alpha <= 1.0 - EPS_VF, ConfigError, key,
                     f"{key} must lie in [{EPS_VF:g}, {1.0 - EPS_VF:g}]")
            for q, rho, p, *others in (("rho", init.rho, None),
                                       ("p", None, init.p, f"pi_inf{phase}")):
                try:
                    _check_admissible(rho, p, eos)
                except InvalidStateError as exc:
                    _require(False, ConfigError, f"{prefix}_{q}{phase}",
                             f"{prefix} phase {phase} state inadmissible: {exc}", *others)
        for prefix, a, b in (("left", self.left1, self.left2), ("right", self.right1, self.right2)):
            _require(abs(a.alpha + b.alpha - 1.0) <= SATURATION_TOL, ConfigError,
                     f"{prefix}_alpha1", f"{prefix} volume fractions do not saturate",
                     f"{prefix}_alpha2")
        _require(self.relaxation in RELAXATION_MODES, ConfigError, "relaxation",
                 f"relaxation must be one of {RELAXATION_MODES}")
        for s in self.snapshot_times:
            _require(0.0 <= s <= self.t_end, ConfigError, "snapshots",
                     f"snapshot time {s:g} outside [0, t_end]", "t_end")


def _float_list(raw):
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


# field -> key of each type the config builds: RunConfig's own keys, ...
_RUN_KEYS = {f: f for f in ("x_min", "x_max", "n_cells", "t_end", "cfl", "diaphragm",
                            "relaxation", "output")}
_RUN_KEYS["snapshot_times"] = "snapshots"
# ... the RunConfig fields built in turn: field -> (type, map, label of its errors)
_PARTS = {
    **{f"eos{k}": (EosParams, {"gamma": f"gamma{k}", "pi_inf": f"pi_inf{k}"}, f"phase {k}")
       for k in (1, 2)},
    **{f"{side}{k}": (PhaseSideInit, {q: f"{side}_{q}{k}" for q in ("alpha", "rho", "u", "p")},
                      None) for side in ("left", "right") for k in (1, 2)},
}
# ... and each regime mode's policy: mode -> (policy type, map)
_REGIMES = {
    "constant": (ConstantRegime, {"value": "regime_r"}),
    "piecewise": (PiecewiseRegime, {"breakpoints": "regime_breakpoints",
                                    "values": "regime_values"}),
    "stochastic": (StochasticRegime, {"epsilon": "regime_epsilon", "initial": "regime_r0",
                                      "seed": "seed"}),
    "uniform": (UniformRandomRegime, {"seed": "seed"}),
}
REGIME_MODES = tuple(_REGIMES)

# every EOS and initial-state key: a float, and required whatever the types'
# defaults (EosParams.pi_inf = 0 serves code, but a config states each phase)
_PART_KEYS = [key for _, keys, _ in _PARTS.values() for key in keys.values()]

# each key's kind: the function that parses its value (a str value may be empty)
_KINDS = {
    **dict.fromkeys(("x_min", "x_max", "t_end", "cfl", "diaphragm", "regime_r",
                     "regime_epsilon", "regime_r0", *_PART_KEYS), float),
    "n_cells": int, "seed": int,
    **dict.fromkeys(("relaxation", "regime", "output", "preset"), str),
    **dict.fromkeys(("regime_breakpoints", "regime_values", "snapshots"), _float_list),
}


def _required(kind, keys):
    """The keys of kind's fields that have no default, in field order: the
    required keys of RunConfig's own fields and of a regime policy."""
    return [keys[f.name] for f in fields(kind) if f.default is MISSING and f.name in keys]


def _entries(sources):
    """{key: (value, where)} from (where, text) pairs, in the order of each
    key's last entry; `where` prefixes the errors of its entry ("line 3",
    "override k=v"; None for none). '#' starts a comment; later duplicates
    win."""
    entries = {}
    for where, raw in sources:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", where)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KINDS:
            raise ConfigError(f"unknown key {key!r}", where)
        if not value and _KINDS[key] is not str:
            raise ConfigError(f"empty value for {key!r}", where)
        entries.pop(key, None)
        entries[key] = (value, where)
    return entries


def _parsed(key, raw, where):
    """The value of key parsed by its kind; a number must be finite."""
    kind = _KINDS[key]
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key}={raw!r}", where) from None
    if kind in (float, _float_list) and not all(
            map(math.isfinite, value if kind is _float_list else (value,))):
        raise ConfigError(f"{key} must be finite, got {raw!r}", where)
    return value


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
        preset = {key: (raw, where) for key, raw in PRESETS[name].items() if key not in entries}
        entries = {**preset, **entries}

    def origin(*keys):
        """The `where` of the last entry among keys (None for none)."""
        return next((where for key, (_, where) in reversed(entries.items()) if key in keys), None)

    required = [*_required(RunConfig, _RUN_KEYS), *_PART_KEYS]
    missing = [key for key in required if key not in entries]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    values = {key: _parsed(key, raw, where) for key, (raw, where) in entries.items()}

    def built(kind, keys, label=None, **given):
        """kind(**given) with each field of `keys` (field -> key) that the
        config sets; a check's error names the line or override of the key
        its rule reads that the config sets last (an unmapped field is the
        key itself), then `label`."""
        given.update((field, values[key]) for field, key in keys.items() if key in values)
        try:
            return kind(**given)
        except DemflowError as exc:
            raise ConfigError(f"{label}: {exc}" if label else str(exc),
                              origin(*(keys.get(f, f) for f in exc.reads))) from exc

    regime = values.get("regime", "constant")
    if regime not in _REGIMES:
        raise ConfigError(f"regime must be one of {REGIME_MODES}", origin("regime"))
    needs = _required(*_REGIMES[regime])
    if any(key not in values for key in needs):
        raise ConfigError(f"{regime} regime needs {' and '.join(needs)}")
    parts = {field: built(*part) for field, part in _PARTS.items()}
    return built(RunConfig, _RUN_KEYS, regime_policy=built(*_REGIMES[regime]), **parts)


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
