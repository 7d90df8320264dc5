"""Ensemble-averaged Godunov scheme with the one-parameter probability family.

Per interface, four Riemann problems (each phase pairing) feed probability-
weighted conservative fluxes plus signed cross-phase Lagrangian terms; the
volume fraction advances with the same machinery under the formal substitution
flux -> 0, state -> 1 (so the Lagrangian flux reduces to -sigma). Time
integration is forward Euler under a CFL bound, with optional per-cell
relaxation after each step (operator splitting).

The step stacks the two phases on one axis: per block of cells it evaluates
the equation of state once on both phases' rows, solves all four pairings in
one hllc call (leaves of shape (2, 2, m)), sums the cross fans' Lagrangian
and volume-fraction terms in one pass, and updates both phases through the
(2, 4, n) view of the grid's state. Blocks read views of the recovered
primitives; only a block at an end of the grid copies its edge cell.
"""

from dataclasses import astuple, dataclass, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .eos import sound_speed
from .errors import DemflowError, SolverError, _prefixed
from .probability import convex_quad
from .regime import RegimeField, init_field, stochastic_update
from .relaxation import relax_continuous, relax_projection
from .riemann import RiemannFan, ThermoState, hllc, thermo_state
from .state import (Conserved, MixtureCell, PhaseCellState, Primitive, cell_rows,
                    phase_primitives, prim_to_cons, validate_mixture)

# cells per block of the hyperbolic step: a block's temporaries, a few
# hundred arrays of up to (3, block) floats (~200 KB each), stay near a
# 2 MiB L2 cache and are reused by the allocator, where whole-grid ones at
# 1e5 cells come back as fresh pages (block sizes 2048-16384 measured in
# BENCH_10.json)
_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh whose cells are one C-contiguous float array `state` of
    shape (8, n_cells), rows as in state.cell_rows. `cells` views the rows as
    a MixtureCell, built once per grid so that phase_primitives' memo holds;
    nothing writes a grid's state in place."""

    x_min: float
    x_max: float
    state: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.state)
        if len(shape) != 2 or shape[0] != 8 or shape[1] < 3:
            raise SolverError(f"grid state has shape {shape}, needs (8, n) with n >= 3 cells")
        if not self.x_max > self.x_min:
            raise SolverError("grid domain is empty")
        object.__setattr__(self, "state", np.ascontiguousarray(self.state, dtype=float))

    @property
    def n_cells(self):
        return self.state.shape[1]

    @cached_property
    def cells(self) -> MixtureCell:
        a1, m1, p1, e1, a2, m2, p2, e2 = self.state
        return MixtureCell(PhaseCellState(a1, Conserved(m1, p1, e1)),
                           PhaseCellState(a2, Conserved(m2, p2, e2)))

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    def cell_centers(self):
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def interface_positions(self):
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True)
class InterfaceFluxSet:
    """Everything a run of m interfaces contributes: the fan of all four
    phase pairings, leaves of shape (2, 2, m) with pairing (k, l) at [k, l]
    (left phase k, right phase l, phase 1 first); `weight`, convex_quad's
    (2, 2, m) matrix P, the probability of each pairing with phase 1 as k;
    and the cross-pair switches `on` (2, m): on[0] is 1.0 where the 12 fan's
    contact speed is >= 0 (its sampled Godunov state belongs to phase 1),
    else 0.0, and on[1] likewise for the 21 fan (phase 2)."""

    fan: RiemannFan
    weight: np.ndarray
    on: np.ndarray


def _cross(x):
    """The 12 and 21 pairings of a (2, 2, m) leaf as one (2, m) view."""
    return x.reshape(4, -1)[1:3]


def _step_rows(grid: Grid1D, regime: RegimeField, eos1, eos2):
    """Rows rho1, rho2, u1, u2, p1, p2, alpha1 of the grid's cells, read from
    phase_primitives, the cells' one check. Only the regime field's shape is
    checked here: convex_quad checks its values in _interface_block."""
    if np.shape(regime.values) != (grid.n_cells + 1,):
        raise SolverError("regime field does not match the grid's interfaces")
    v1, v2 = phase_primitives(grid.cells, eos1, eos2)
    return (v1.rho, v2.rho, v1.u, v2.u, v1.p, v2.p, grid.state[0])


def _block_cells(rows, lo, hi):
    """Cells lo - 1 .. hi of each row, either side of interfaces lo .. hi:
    views inside the grid; a block at an end of the grid gets copies whose
    cell outside it repeats the edge cell (transmissive boundary)."""
    if 0 < lo and hi < len(rows[0]):
        return [x[lo - 1:hi + 1] for x in rows]
    cells = np.arange(lo - 1, hi + 1)
    return [x.take(cells, mode="clip") for x in rows]


def _interface_block(cells, r, eos1, eos2, first=0) -> InterfaceFluxSet:
    """Interface data between m consecutive cells (_block_cells' rows) at
    their m - 1 interfaces, r one value per interface, the first interface
    numbered `first` in errors.

    The equation of state is evaluated once, on both phases' rows with the
    phases' parameters as (2, 1) columns (the EOS formulas only read gamma
    and pi_inf, so they broadcast); one hllc call solves the four pairings
    from left views (2, 1, m - 1) and right views (1, 2, m - 1)."""
    rho1, rho2, u1, u2, p1, p2, alpha1 = cells
    weight = convex_quad(alpha1[:-1], alpha1[1:], r)
    eos = SimpleNamespace(gamma=np.array([[eos1.gamma], [eos2.gamma]]),
                          pi_inf=np.array([[eos1.pi_inf], [eos2.pi_inf]]))
    rec = thermo_state(Primitive(np.array((rho1, rho2)), np.array((u1, u2)),
                                 np.array((p1, p2))), eos)
    fan = hllc(ThermoState(*(x[:, None, :-1] for x in rec)),
               ThermoState(*(x[None, :, 1:] for x in rec)), weight, first)
    return InterfaceFluxSet(fan, weight, (_cross(fan.sigma) >= 0.0).astype(float))


def interface_fluxes(grid: Grid1D, regime: RegimeField, eos1, eos2) -> InterfaceFluxSet:
    """Solve the four phase-pairing Riemann problems at all n + 1 interfaces
    of the grid and attach the probability coefficients: the step's interface
    function applied to the whole grid as one block.

    Interface i sits between cells i - 1 and i; the two outer interfaces see
    a copy of their edge cell (transmissive boundary)."""
    rows = _step_rows(grid, regime, eos1, eos2)
    return _interface_block(_block_cells(rows, 0, grid.n_cells), regime.values, eos1, eos2)


def ensemble_flux(ifs: InterfaceFluxSet):
    """Probability-weighted conservative flux per phase at each interface,
    shape (2, 3, m), phase 1 first: phase k's is p_kk F_kk + on_kl p_kl F_kl
    + (1 - on_lk) p_lk F_lk (l the other phase). Cross-phase candidates only
    count when the sampled Godunov state belongs to the receiving phase (the
    `on` switches)."""
    # pairings 11, 12, 21, 22 on the first axis: [::3] is kk, [1:3] kl and
    # [2:0:-1] lk, each in phase order
    flux = ifs.fan.flux0.reshape(3, 4, -1).transpose(1, 0, 2)
    w = ifs.weight.reshape(4, 1, -1)
    on = ifs.on[:, None]
    return (w[::3] * flux[::3] + on * w[1:3] * flux[1:3]
            + (1.0 - on[::-1]) * w[2:0:-1] * flux[2:0:-1])


def _lagrangian_cell_sums(ifs, cross):
    """Phase 1's four-term signed sum per cell of the cross fans' weights
    `cross` (..., 2, m), the 12 fan's at [..., 0, :] and the 21 fan's at
    [..., 1, :]: inflow terms from the left interface (where a switch is on)
    plus inflow terms from the right interface (where it is off). Phase 2's
    sum is its exact negative."""
    (on12, on21), w = ifs.on, ifs.weight
    term21, term12 = w[1, 0] * cross[..., 1, :], w[0, 1] * cross[..., 0, :]
    plus = on21 * term21 - on12 * term12
    minus = (1.0 - on21) * term21 - (1.0 - on12) * term12
    return plus[..., :-1] + minus[..., 1:]


def boundary_lagrangian(ifs: InterfaceFluxSet):
    """Phase 1's cross-phase Lagrangian flux sums per cell, rows momentum and
    energy, shape (2, n) given n + 1 interfaces: the cross fans'
    p* [0, 1, sigma] without its mass row, which is zero. The step adds
    lam times them to phase 1 and subtracts them from phase 2."""
    sigma, p_star = _cross(ifs.fan.sigma), _cross(ifs.fan.p_star)
    return _lagrangian_cell_sums(ifs, np.array([p_star, p_star * sigma]))


def volume_fraction_rhs(ifs: InterfaceFluxSet):
    """Phase 1's volume-fraction transport per cell, shape (n,): the same sum
    with flux -> 0 and state -> 1, which turns the Lagrangian flux into
    -sigma. Phase 2's is its negative, so saturation holds exactly."""
    return _lagrangian_cell_sums(ifs, -_cross(ifs.fan.sigma))


def cfl_dt(grid: Grid1D, cfl, eos1, eos2) -> float:
    """Largest stable time step: cfl * dx / max(|u| + a) over cells and phases."""
    fastest = 0.0
    for v, eos in zip(phase_primitives(grid.cells, eos1, eos2), (eos1, eos2)):
        fastest = max(fastest, float(np.max(np.abs(v.u) + sound_speed(v.rho, v.p, eos))))
    if not np.isfinite(fastest) or fastest <= 0.0:
        raise SolverError("non-finite wave speed in CFL estimate")
    return float(cfl) * grid.dx / fastest


def hyperbolic_step(grid: Grid1D, regime: RegimeField, dt, eos1, eos2) -> Grid1D:
    """One forward-Euler update of alpha*U and alpha for both phases, written
    into the rows of a new grid's state; the input grid is not modified.

    Interface computations read only the two adjacent cells and the
    interface's r; cell updates read only their two interfaces' data, summed
    in a fixed order, so the result is independent of how the cells are
    split. The step sweeps them in even blocks of at most _BLOCK_CELLS, each
    with its two halo cells, so a large grid's temporaries stay small; every
    split gives the same bits, and a grid of up to _BLOCK_CELLS cells is one
    block. It checks its cells once (phase_primitives) and the new state once
    (validate_mixture); convex_quad checks r in each block.
    """
    rows = _step_rows(grid, regime, eos1, eos2)
    n = grid.n_cells
    n_blocks = -(-n // _BLOCK_CELLS)
    bounds = [k * n // n_blocks for k in range(n_blocks + 1)]
    lam = dt / grid.dx
    # phase k's rows alpha_k, U_k (3) at [k - 1]
    old = grid.state.reshape(2, 4, n)

    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ifs = _interface_block(_block_cells(rows, lo, hi), regime.values[lo:hi + 1],
                               eos1, eos2, lo)
        e = ensemble_flux(ifs)
        lag = lam * boundary_lagrangian(ifs)
        frac = lam * volume_fraction_rhs(ifs)
        # phase 2's sums are phase 1's negated, and x + (-y) is x - y bit for
        # bit. The mass rows get no sum: the Lagrangian flux's mass row is
        # +0.0, and x + 0.0 differs from x only at x = -0.0; a cell with a
        # mass of -0.0 or 0.0 fails the new state's density check either way
        # where alpha > 0, and keeps its old U where alpha = 0
        alpha, u_old = old[:, 0, lo:hi], old[:, 1:, lo:hi]
        alpha_u = alpha[:, None] * u_old
        alpha_u -= lam * (e[..., 1:] - e[..., :-1])
        alpha_u[:, 1:] += np.array((lag, -lag))
        if lo == 0:
            # made after the first block's temporaries, so that their freed
            # space is not trimmed off the heap top and faulted back each step
            new = np.empty_like(grid.state)
            new_rows = new.reshape(2, 4, n)
        alpha_new = np.add(alpha, np.array((frac, -frac)), out=new_rows[:, 0, lo:hi])
        present = alpha_new > 0.0
        u_new = np.divide(alpha_u, np.where(present, alpha_new, 1.0)[:, None],
                          out=new_rows[:, 1:, lo:hi])
        np.copyto(u_new, u_old, where=~present[:, None])

    out = replace(grid, state=new)
    validate_mixture(out.cells, eos1, eos2, context="after hyperbolic step")
    return out


def initial_grid(config) -> Grid1D:
    """Build the two-state (left/right of diaphragm) grid of a run config."""
    phases = []
    for left, right, eos in ((config.left1, config.right1, config.eos1),
                             (config.left2, config.right2, config.eos2)):
        # two columns: the states left and right of the diaphragm
        alpha, rho, u, p = np.array([astuple(left), astuple(right)]).T
        phases.append(PhaseCellState(alpha, prim_to_cons(Primitive(rho, u, p), eos)))
    n = config.n_cells
    x = config.x_min + (np.arange(n) + 0.5) * ((config.x_max - config.x_min) / n)
    sides = cell_rows(MixtureCell(*phases))
    return Grid1D(config.x_min, config.x_max,
                  np.where(x < config.diaphragm, sides[:, :1], sides[:, 1:]))


@dataclass(frozen=True)
class Snapshot:
    t: float
    grid: Grid1D
    regime_values: np.ndarray


_RELAXERS = {"none": None, "continuous": relax_continuous, "projection": relax_projection}
_MAX_STEPS = 10_000_000


def run(config) -> list:
    """Operator-split driver: CFL-limited hyperbolic steps, optional per-cell
    relaxation, per-step regime updates for random policies; emits snapshots
    at the requested times, each hit exactly by clipping the step."""
    eos1, eos2 = config.eos1, config.eos2
    grid = initial_grid(config)
    validate_mixture(grid.cells, eos1, eos2, context="initial condition")
    field = init_field(config.regime_policy, grid)
    relaxer = _RELAXERS[config.relaxation]

    targets = sorted(set(float(s) for s in config.snapshot_times) | {float(config.t_end)})
    snapshots = []
    t = 0.0
    steps = 0
    for target in targets:
        while t < target:
            steps += 1
            if steps > _MAX_STEPS:
                raise SolverError("time loop exceeded the step budget")
            try:
                dt = cfl_dt(grid, config.cfl, eos1, eos2)
                hit = t + dt >= target
                if hit:
                    dt = target - t
                if field.rng is not None:
                    field = stochastic_update(field)
                grid = hyperbolic_step(grid, field, dt, eos1, eos2)
                if relaxer is not None:
                    with _prefixed(f"{config.relaxation} relaxation"):
                        grid = replace(grid, state=cell_rows(relaxer(grid.cells, eos1, eos2)))
                        validate_mixture(grid.cells, eos1, eos2, context="after relaxation")
            except DemflowError as exc:
                raise type(exc)(f"{exc} (at t = {t:.9e} s, step {steps})") from exc
            t = target if hit else t + dt
        snapshots.append(Snapshot(t, grid, field.values.copy()))
    return snapshots
