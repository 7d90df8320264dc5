"""1D compressible two-phase flow solver built on ensemble-averaged Godunov
updates, with a one-parameter family of interface probability coefficients
interpolating stratified and disperse flow regimes, and two infinite-drag
pressure/velocity relaxation procedures."""

from .config import PRESETS, RunConfig, parse_config, preset_config
from .eos import EosParams, de_dp, de_drho, internal_energy, pressure_from_energy, sound_speed
from .errors import ConfigError, DemflowError, InvalidStateError, SolverError
from .probability import check_consistency, convex_quad, extract_r
from .regime import (ConstantRegime, PiecewiseRegime, RegimeField,
                     StochasticRegime, UniformRandomRegime, init_field,
                     stochastic_update)
from .relaxation import (ReducedEquilibrium, maxwellian, projection_matrix,
                         relax_continuous, relax_projection)
from .riemann import (AcousticInterface, ExactRiemannSolution, RiemannFan,
                      ThermoState, exact_rp, hllc, interfacial_decomposition, thermo_state)
from .scheme import (Grid1D, InterfaceFluxSet, Snapshot, cfl_dt, ensemble_flux,
                     hyperbolic_step, initial_grid, interface_fluxes, run)
from .snapshots import (FieldError, OracleSpec, compare_oracle,
                        oracle_from_string, read_snapshot, write_snapshot)
from .state import (Conserved, MixtureCell, PhaseCellState, Primitive,
                    cell_rows, cons_to_prim, mixture_quantities, prim_to_cons)

__version__ = "0.1.0"
