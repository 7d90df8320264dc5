"""Run configuration: line-oriented key=value parsing, validation, and the
bundled shock-tube experiment presets t1..t6.

A config file may name a `preset` and then override any key. All quantities
are SI (times in seconds). Unknown keys are hard errors with line numbers.
"""

from dataclasses import dataclass

from .eos import EosParams, _check_admissible
from .errors import ConfigError, DemflowError
from .regime import (ConstantRegime, PiecewiseRegime, StochasticRegime,
                     UniformRandomRegime)
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


def parse_config(text: str) -> RunConfig:
    """Parse a key=value config (UTF-8, '#' comments; later duplicates win)."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key {key!r}", line=lineno)
        if not value and key not in _STR_KEYS:
            raise ConfigError(f"empty value for {key!r}", line=lineno)
        entries[key] = (value, lineno)
    return _build(entries)


def preset_config(name: str, overrides=()) -> RunConfig:
    """Expand a named preset, optionally overriding keys ('key=value' strings)."""
    lines = [f"preset={name}", *overrides]
    return parse_config("\n".join(lines))


def available_presets():
    return sorted(PRESETS)


def _build(entries) -> RunConfig:
    if "preset" in entries:
        name, line = entries.pop("preset")
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r} (available: {', '.join(available_presets())})",
                line=line)
        merged = {k: (v, line) for k, v in PRESETS[name].items()}
        merged.update(entries)
        entries = merged

    def line_of(key):
        return entries[key][1] if key in entries else None

    def take(key, kind, default=None):
        if key not in entries:
            if default is None and key in _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            return default
        raw, lineno = entries[key]
        try:
            return kind(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"cannot parse {key}={raw!r}", line=lineno) from None

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

    if not x_max > x_min:
        raise ConfigError("x_max must exceed x_min", line=line_of("x_max"))
    if n_cells < 3:
        raise ConfigError("n_cells must be at least 3", line=line_of("n_cells"))
    if t_end < 0.0:
        raise ConfigError("t_end must be non-negative", line=line_of("t_end"))
    if not 0.0 < cfl <= 1.0:
        raise ConfigError("cfl must lie in (0, 1]", line=line_of("cfl"))
    if not x_min < diaphragm < x_max:
        raise ConfigError("diaphragm must lie inside the domain", line=line_of("diaphragm"))

    try:
        eos1 = EosParams(take("gamma1", float), take("pi_inf1", float))
        eos2 = EosParams(take("gamma2", float), take("pi_inf2", float))
    except DemflowError as exc:
        raise ConfigError(str(exc)) from exc

    def side(prefix, phase, eos):
        init = PhaseSideInit(
            alpha=take(f"{prefix}_alpha{phase}", float),
            rho=take(f"{prefix}_rho{phase}", float),
            u=take(f"{prefix}_u{phase}", float),
            p=take(f"{prefix}_p{phase}", float),
        )
        key = f"{prefix}_alpha{phase}"
        if not EPS_VF <= init.alpha <= 1.0 - EPS_VF:
            raise ConfigError(
                f"{key} must lie in [{EPS_VF:g}, {1.0 - EPS_VF:g}]", line=line_of(key))
        try:
            _check_admissible(init.rho, init.p, eos)
        except DemflowError as exc:
            raise ConfigError(f"{prefix} phase {phase} state inadmissible: {exc}",
                              line=line_of(f"{prefix}_p{phase}")) from exc
        return init

    left1 = side("left", 1, eos1)
    left2 = side("left", 2, eos2)
    right1 = side("right", 1, eos1)
    right2 = side("right", 2, eos2)
    for prefix, a, b in (("left", left1, left2), ("right", right1, right2)):
        if abs(a.alpha + b.alpha - 1.0) > SATURATION_TOL:
            raise ConfigError(f"{prefix} volume fractions do not saturate",
                              line=line_of(f"{prefix}_alpha1"))

    relaxation = take("relaxation", str, "none")
    if relaxation not in RELAXATION_MODES:
        raise ConfigError(f"relaxation must be one of {RELAXATION_MODES}",
                          line=line_of("relaxation"))

    regime = take("regime", str, "constant")
    if regime not in REGIME_MODES:
        raise ConfigError(f"regime must be one of {REGIME_MODES}", line=line_of("regime"))
    if regime == "constant":
        policy = ConstantRegime(take("regime_r", float, 0.0))
    elif regime == "piecewise":
        bps = take("regime_breakpoints", float_list)
        vals = take("regime_values", float_list)
        if bps is None or vals is None:
            raise ConfigError("piecewise regime needs regime_breakpoints and regime_values")
        policy = PiecewiseRegime(bps, vals)
    elif regime == "stochastic":
        eps = take("regime_epsilon", float)
        if eps is None:
            raise ConfigError("stochastic regime needs regime_epsilon")
        if eps < 0.0:
            raise ConfigError("regime_epsilon must be non-negative",
                              line=line_of("regime_epsilon"))
        policy = StochasticRegime(epsilon=eps, seed=seed,
                                  initial=take("regime_r0", float, 0.0))
    else:
        policy = UniformRandomRegime(seed=seed)
    if isinstance(policy, ConstantRegime) and not 0.0 <= policy.value <= 1.0:
        raise ConfigError("regime_r must lie in [0, 1]", line=line_of("regime_r"))
    if isinstance(policy, StochasticRegime) and not 0.0 <= policy.initial <= 1.0:
        raise ConfigError("regime_r0 must lie in [0, 1]", line=line_of("regime_r0"))

    snapshot_times = take("snapshots", float_list, ())
    for s in snapshot_times:
        if not 0.0 <= s <= t_end:
            raise ConfigError(f"snapshot time {s:g} outside [0, t_end]",
                              line=line_of("snapshots"))

    return RunConfig(
        x_min=x_min, x_max=x_max, n_cells=n_cells, t_end=t_end,
        eos1=eos1, eos2=eos2,
        left1=left1, left2=left2, right1=right1, right2=right2,
        cfl=cfl, diaphragm=diaphragm, relaxation=relaxation,
        regime_policy=policy, snapshot_times=tuple(snapshot_times),
        seed=seed, output=take("output", str, None),
    )


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
