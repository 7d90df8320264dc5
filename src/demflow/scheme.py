"""Ensemble-averaged Godunov scheme with the one-parameter probability family.

Per interface, four Riemann problems (each phase pairing) feed probability-
weighted conservative fluxes plus signed cross-phase Lagrangian terms; the
volume fraction advances with the same machinery under the formal substitution
flux -> 0, state -> 1 (so the Lagrangian flux reduces to -sigma). Time
integration is forward Euler under a CFL bound, with optional per-cell
relaxation after each step (operator splitting).
"""

from dataclasses import astuple, dataclass, replace
from functools import cached_property

import numpy as np

from .eos import sound_speed
from .errors import DemflowError, SolverError
from .probability import ProbabilityQuad, convex_quad
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
    """Everything one interface contributes: the four phase-pairing fans,
    the probability quad (phase 1 as k), and the cross-pair switches: on_12
    is 1.0 where fan_12's contact speed is >= 0 (its sampled Godunov state
    belongs to phase 1), else 0.0; on_21 likewise for fan_21 (phase 2)."""

    fan_11: RiemannFan
    fan_12: RiemannFan
    fan_21: RiemannFan
    fan_22: RiemannFan
    quad: ProbabilityQuad
    on_12: np.ndarray
    on_21: np.ndarray


def _edge_copied(grid: Grid1D, regime: RegimeField, eos1, eos2):
    """A step's cells, edge-copied: rows rho1, u1, p1, rho2, u2, p2, alpha1
    over n + 2 cells, the two outer ones copies of their edge cell
    (transmissive boundary), read from phase_primitives, the cells' one check.
    Only the regime field's shape is checked here: convex_quad checks its
    values in _interface_block."""
    if np.shape(regime.values) != (grid.n_cells + 1,):
        raise SolverError("regime field does not match the grid's interfaces")
    v1, v2 = phase_primitives(grid.cells, eos1, eos2)
    fields = (v1.rho, v1.u, v1.p, v2.rho, v2.u, v2.p, grid.cells.phase1.alpha)
    cells = np.empty((len(fields), grid.n_cells + 2))
    for row, x in zip(cells, fields):
        row[1:-1] = x
    cells[:, 0] = cells[:, 1]
    cells[:, -1] = cells[:, -2]
    return cells


def _interface_block(cells, r, eos1, eos2) -> InterfaceFluxSet:
    """Interface data between m consecutive edge-copied cells (columns of
    _edge_copied's rows) at their m - 1 interfaces, r one value per interface.

    The equation of state is evaluated once per phase on the m cells; all four
    pairings read left/right views of those two records."""
    rho1, u1, p1, rho2, u2, p2, alpha1 = cells
    quad = convex_quad(alpha1[:-1], alpha1[1:], r)

    def side_records(v, eos):
        rec = thermo_state(v, eos)
        return (ThermoState(*(x[:-1] for x in rec)),
                ThermoState(*(x[1:] for x in rec)))

    t1_left, t1_right = side_records(Primitive(rho1, u1, p1), eos1)
    t2_left, t2_right = side_records(Primitive(rho2, u2, p2), eos2)
    fan_11 = hllc(t1_left, t1_right)
    fan_12 = hllc(t1_left, t2_right)
    fan_21 = hllc(t2_left, t1_right)
    fan_22 = hllc(t2_left, t2_right)
    return InterfaceFluxSet(fan_11, fan_12, fan_21, fan_22, quad,
                            (fan_12.sigma >= 0.0).astype(float),
                            (fan_21.sigma >= 0.0).astype(float))


def interface_fluxes(grid: Grid1D, regime: RegimeField, eos1, eos2) -> InterfaceFluxSet:
    """Solve the four phase-pairing Riemann problems at all n + 1 interfaces
    of the grid and attach the probability coefficients: the step's interface
    function applied to the whole grid as one block.

    Interface i sits between cells i - 1 and i; the two outer interfaces see
    a copy of their edge cell (transmissive boundary)."""
    cells = _edge_copied(grid, regime, eos1, eos2)
    return _interface_block(cells, regime.values, eos1, eos2)


def ensemble_flux(ifs: InterfaceFluxSet):
    """Probability-weighted conservative flux per phase at each interface.
    Cross-phase candidates only count when the sampled Godunov state belongs
    to the receiving phase (the on_12 / on_21 switches)."""
    q, on12, on21 = ifs.quad, ifs.on_12, ifs.on_21
    e1 = (q.p_kk * ifs.fan_11.flux0
          + on12 * q.p_kl * ifs.fan_12.flux0
          + (1.0 - on21) * q.p_lk * ifs.fan_21.flux0)
    e2 = (q.p_ll * ifs.fan_22.flux0
          + on21 * q.p_lk * ifs.fan_21.flux0
          + (1.0 - on12) * q.p_kl * ifs.fan_12.flux0)
    return e1, e2


def _lagrangian_cell_sums(ifs, weight_12, weight_21):
    """Phase 1's four-term signed Lagrangian sum per cell from per-interface
    weights: inflow terms from the left interface (where a switch is on) plus
    inflow terms from the right interface (where it is off). Phase 2's sum
    is its exact negative."""
    q, on12, on21 = ifs.quad, ifs.on_12, ifs.on_21
    term21, term12 = q.p_lk * weight_21, q.p_kl * weight_12
    plus = on21 * term21 - on12 * term12
    minus = (1.0 - on21) * term21 - (1.0 - on12) * term12
    return plus[..., :-1] + minus[..., 1:]


def boundary_lagrangian(ifs: InterfaceFluxSet):
    """Cross-phase Lagrangian flux sums per cell and phase, shape (3, n) given
    n + 1 interfaces, from the cross fans' p* [0, 1, sigma], as (s, -s); the
    step adds lam * s for phase 1 and subtracts it for phase 2."""
    s = _lagrangian_cell_sums(ifs, ifs.fan_12.lagrangian, ifs.fan_21.lagrangian)
    return s, -s


def volume_fraction_rhs(ifs: InterfaceFluxSet):
    """Discrete right-hand side of the volume-fraction transport per cell and
    phase (flux -> 0, state -> 1 turns the Lagrangian flux into -sigma), as
    (s, -s): the phases sum to zero, preserving saturation exactly."""
    s = _lagrangian_cell_sums(ifs, -ifs.fan_12.sigma, -ifs.fan_21.sigma)
    return s, -s


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
    cells = _edge_copied(grid, regime, eos1, eos2)
    n = grid.n_cells
    n_blocks = -(-n // _BLOCK_CELLS)
    bounds = [k * n // n_blocks for k in range(n_blocks + 1)]
    lam = dt / grid.dx

    for lo, hi in zip(bounds[:-1], bounds[1:]):
        ifs = _interface_block(cells[:, lo:hi + 2], regime.values[lo:hi + 1], eos1, eos2)
        e1, e2 = ensemble_flux(ifs)
        lag = lam * _lagrangian_cell_sums(ifs, ifs.fan_12.lagrangian, ifs.fan_21.lagrangian)
        vrhs = lam * _lagrangian_cell_sums(ifs, -ifs.fan_12.sigma, -ifs.fan_21.sigma)
        if lo == 0:
            # made after the first block's temporaries, so that their freed
            # space is not trimmed off the heap top and faulted back each step
            new = np.empty_like(grid.state)
        # rows alpha_k, U_k of phase k start at row 0 (phase 1) and 4 (phase 2);
        # phase 2's sums are phase 1's negated, and x + (-y) is x - y bit for bit
        for row, e, sign in ((0, e1, np.add), (4, e2, np.subtract)):
            alpha = grid.state[row, lo:hi]
            u_old = grid.state[row + 1:row + 4, lo:hi]
            alpha_u = sign(alpha * u_old - lam * (e[:, 1:] - e[:, :-1]), lag)
            alpha_new = sign(alpha, vrhs, out=new[row, lo:hi])
            present = alpha_new > 0.0
            u_new = np.divide(alpha_u, np.where(present, alpha_new, 1.0),
                              out=new[row + 1:row + 4, lo:hi])
            np.copyto(u_new, u_old, where=~present)

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
                    grid = replace(grid, state=cell_rows(relaxer(grid.cells, eos1, eos2)))
                    validate_mixture(grid.cells, eos1, eos2, context="after relaxation")
            except DemflowError as exc:
                raise type(exc)(f"{exc} (at t = {t:.9e} s, step {steps})") from exc
            t = target if hit else t + dt
        snapshots.append(Snapshot(t, grid, field.values.copy()))
    return snapshots
