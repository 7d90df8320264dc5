"""The package's public names, pinned: adding or removing an export is a
deliberate edit of this set."""

import types

import demflow

PUBLIC = {
    # config, errors
    "PRESETS", "RunConfig", "parse_config", "preset_config",
    "ConfigError", "DemflowError", "InvalidStateError", "SolverError",
    # eos, state, probability
    "EosParams", "internal_energy", "pressure_from_energy", "sound_speed",
    "Conserved", "MixtureCell", "PhaseCellState", "Primitive",
    "cell_rows", "cons_to_prim", "mixture_quantities", "prim_to_cons",
    "convex_quad",
    # regime
    "ConstantRegime", "PiecewiseRegime", "RegimeField", "StochasticRegime",
    "UniformRandomRegime", "init_field", "stochastic_update",
    # relaxation, riemann
    "ReducedEquilibrium", "maxwellian", "relax_continuous", "relax_projection",
    "ExactRiemannSolution", "RiemannFan", "ThermoState", "exact_rp", "hllc", "thermo_state",
    # scheme, snapshots
    "Grid1D", "InterfaceFluxSet", "Snapshot", "cfl_dt", "ensemble_flux",
    "hyperbolic_step", "initial_grid", "run",
    "FieldError", "OracleSpec", "compare_oracle", "oracle_from_string",
    "read_snapshot", "write_snapshot",
}


def test_public_names_are_the_pinned_set():
    names = {name for name, value in vars(demflow).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
