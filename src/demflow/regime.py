"""Management of the per-interface flow-regime field r(x, t) in [0, 1].

r = 0 selects the stratified probability pair, r = 1 the disperse one.
Policies: constant, piecewise-constant in x, stochastic random-walk updates
(clamped to [0, 1]), and a uniform-resample comparison mode drawing fresh
U[0, 1] values each step (distribution bounds are an assumption; the use
case only states "uniformly randomly chosen"). Each policy checks its values
where it is built; init_field checks only what needs the grid.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, _require

# recorded in output metadata so runs are reproducible across builds
RNG_ALGORITHM = "numpy-pcg64"


@dataclass(frozen=True)
class ConstantRegime:
    value: float = 0.0

    def __post_init__(self):
        _require(0.0 <= self.value <= 1.0, ConfigError, "value",
                 f"regime value {self.value} outside [0, 1]")

    def describe(self):
        return f"constant:r={self.value:g}"


@dataclass(frozen=True)
class PiecewiseRegime:
    """r(x) = values[j] on [breakpoints[j-1], breakpoints[j]); open-ended
    outermost pieces."""

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        _require(len(self.breakpoints) + 1 == len(self.values), ConfigError, "values",
                 "piecewise regime needs len(values) == len(breakpoints) + 1", "breakpoints")
        _require(all(a < b for a, b in zip(self.breakpoints, self.breakpoints[1:])), ConfigError,
                 "breakpoints", "piecewise regime breakpoints must be strictly increasing")
        for v in self.values:
            _require(0.0 <= v <= 1.0, ConfigError, "values", f"regime value {v} outside [0, 1]")

    def describe(self):
        bps = ",".join(f"{b:g}" for b in self.breakpoints)
        vals = ",".join(f"{v:g}" for v in self.values)
        return f"piecewise:breakpoints={bps}:values={vals}"


def _check_seed(seed):
    """A random policy's seed, which numpy's generator takes only when >= 0."""
    _require(seed >= 0, ConfigError, "seed", f"regime seed must be non-negative, got {seed}")


@dataclass(frozen=True)
class StochasticRegime:
    """Per-step random walk r += epsilon * Unif[-1, 1], clamped to [0, 1]."""

    epsilon: float
    seed: int = 0
    initial: float = 0.0

    def __post_init__(self):
        _require(self.epsilon >= 0.0, ConfigError, "epsilon",
                 f"regime epsilon must be non-negative, got {self.epsilon}")
        _require(0.0 <= self.initial <= 1.0, ConfigError, "initial",
                 f"regime value {self.initial} outside [0, 1]")
        _check_seed(self.seed)

    def describe(self):
        return f"stochastic:epsilon={self.epsilon:g}:r0={self.initial:g}:seed={self.seed}"


@dataclass(frozen=True)
class UniformRandomRegime:
    """Fresh U[0, 1] draw per interface per step (comparison mode)."""

    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)

    def describe(self):
        return f"uniform:seed={self.seed}"


@dataclass(frozen=True)
class RegimeField:
    """Immutable per-step snapshot of the interface r values; the generator is
    shared across snapshots so a run consumes one stream, interface-major
    within each step."""

    values: np.ndarray
    policy: object
    rng: np.random.Generator | None = None


def check_breakpoints(policy: PiecewiseRegime, x_min, x_max):
    """The piecewise rule that needs the domain: every breakpoint lies strictly
    inside (x_min, x_max). RunConfig applies it, and init_field for a grid
    built without one; its error's fields are config keys."""
    _require(all(x_min < b < x_max for b in policy.breakpoints), ConfigError,
             "regime_breakpoints", "piecewise regime breakpoints outside the domain",
             "x_min", "x_max")


def init_field(policy, grid) -> RegimeField:
    """Sample the policy at the grid's interface positions. Only the stochastic
    and uniform-resample policies get a generator (RegimeField.rng)."""
    xs = grid.interface_positions()
    if isinstance(policy, ConstantRegime):
        values = np.full(xs.shape, float(policy.value))
        return RegimeField(values, policy)
    if isinstance(policy, PiecewiseRegime):
        check_breakpoints(policy, grid.x_min, grid.x_max)
        bps = np.asarray(policy.breakpoints, dtype=float)
        values = np.asarray(policy.values, dtype=float)[np.searchsorted(bps, xs, side="right")]
        return RegimeField(values, policy)
    if isinstance(policy, StochasticRegime):
        rng = np.random.default_rng(policy.seed)
        values = np.full(xs.shape, float(policy.initial))
        return RegimeField(values, policy, rng)
    if isinstance(policy, UniformRandomRegime):
        rng = np.random.default_rng(policy.seed)
        return RegimeField(rng.random(xs.shape), policy, rng)
    raise ConfigError(f"unknown regime policy {policy!r}")


def stochastic_update(field: RegimeField) -> RegimeField:
    """Advance a stochastic or uniform-resample field by one step; one draw per
    interface, deterministic given the seed. Other policies are not updated."""
    if isinstance(field.policy, StochasticRegime):
        q = 2.0 * field.rng.random(field.values.shape) - 1.0
        perturbed = field.values + field.policy.epsilon * q
        return replace(field, values=np.clip(perturbed, 0.0, 1.0))
    if isinstance(field.policy, UniformRandomRegime):
        return replace(field, values=field.rng.random(field.values.shape))
    raise ConfigError(f"policy {field.policy!r} has no stochastic update")
