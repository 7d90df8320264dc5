import numpy as np
import pytest

from demflow.eos import EosParams
from demflow.errors import ConfigError
from demflow.regime import (ConstantRegime, PiecewiseRegime, StochasticRegime,
                            UniformRandomRegime, init_field, stochastic_update)
from demflow.scheme import Grid1D
from demflow.state import MixtureCell, PhaseCellState, Primitive, cell_rows, prim_to_cons

GAS = EosParams(1.4, 0.0)


def make_grid(n=10, x_min=-1.0, x_max=1.0):
    v = Primitive(np.ones(n), np.zeros(n), np.full(n, 1e5))
    phase = PhaseCellState(alpha=np.full(n, 0.5), cons=prim_to_cons(v, GAS))
    return Grid1D(x_min, x_max, cell_rows(MixtureCell(phase, phase)))


def test_constant_field():
    field = init_field(ConstantRegime(0.0), make_grid())
    assert field.values.shape == (11,)
    assert np.all(field.values == 0.0)


PIECEWISE = PiecewiseRegime(breakpoints=(-0.52, 0.395, 0.761),
                            values=(0.13, 0.47, 1.0, 0.69))


def test_piecewise_field_reference_values():
    grid = make_grid(n=2000)
    field = init_field(PIECEWISE, grid)
    xs = grid.interface_positions()
    assert field.values[np.argmin(np.abs(xs - 0.5))] == 1.0
    assert field.values[np.argmin(np.abs(xs + 0.6))] == 0.13
    assert field.values[0] == 0.13
    assert field.values[-1] == 0.69


@pytest.mark.parametrize("build", [
    lambda: ConstantRegime(1.5),
    lambda: PiecewiseRegime(breakpoints=(0.1, 0.2), values=(0.1, 0.2)),
    lambda: PiecewiseRegime(breakpoints=(0.2, 0.1), values=(0.1, 0.2, 0.3)),
    lambda: PiecewiseRegime(breakpoints=(0.1,), values=(0.1, -0.2)),
    lambda: StochasticRegime(epsilon=-1e-3, seed=0),
    lambda: StochasticRegime(epsilon=1e-3, seed=0, initial=np.nan),
    lambda: StochasticRegime(epsilon=1e-3, seed=-1),
    lambda: UniformRandomRegime(seed=-1),
], ids=["constant_range", "piecewise_count", "piecewise_order", "piecewise_range",
        "stochastic_epsilon", "stochastic_initial", "stochastic_seed", "uniform_seed"])
def test_policies_reject_bad_values_where_they_are_built(build):
    with pytest.raises(ConfigError):
        build()


def test_piecewise_breakpoints_must_lie_inside_domain():
    grid = make_grid(n=10, x_min=0.0, x_max=0.5)
    with pytest.raises(ConfigError, match="outside"):
        init_field(PIECEWISE, grid)


def test_stochastic_zero_epsilon_is_identity():
    field = init_field(StochasticRegime(epsilon=0.0, seed=42, initial=0.3), make_grid())
    updated = stochastic_update(field)
    assert np.array_equal(updated.values, field.values)


def test_stochastic_determinism():
    grids = make_grid(), make_grid()
    runs = []
    for g in grids:
        field = init_field(StochasticRegime(epsilon=1e-2, seed=7), g)
        for _ in range(50):
            field = stochastic_update(field)
        runs.append(field.values)
    assert np.array_equal(runs[0], runs[1])


def test_stochastic_stays_clamped():
    field = init_field(StochasticRegime(epsilon=0.9, seed=1, initial=1.0), make_grid())
    for _ in range(200):
        field = stochastic_update(field)
        assert np.all((field.values >= 0.0) & (field.values <= 1.0))


def test_stochastic_converges_to_initial_as_epsilon_shrinks():
    drift = []
    for eps in (1e-2, 1e-4, 1e-6):
        field = init_field(StochasticRegime(epsilon=eps, seed=3, initial=0.5), make_grid())
        for _ in range(20):
            field = stochastic_update(field)
        drift.append(np.max(np.abs(field.values - 0.5)))
    assert drift[0] > drift[1] > drift[2]
    assert drift[2] <= 20 * 1e-6


def test_uniform_mode_resamples_in_unit_interval():
    field = init_field(UniformRandomRegime(seed=5), make_grid())
    first = field.values.copy()
    field = stochastic_update(field)
    assert not np.array_equal(field.values, first)
    assert np.all((field.values >= 0.0) & (field.values < 1.0))


def test_update_requires_random_policy():
    field = init_field(ConstantRegime(0.5), make_grid())
    with pytest.raises(ConfigError):
        stochastic_update(field)
