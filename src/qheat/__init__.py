"""Steady states and heat currents of few-level quantum systems.

Builds Redfield or Lindblad dissipative kernels for a finite-level
system coupled to bosonic heat reservoirs, solves for the stationary
density matrix, and evaluates per-reservoir heat currents, all in the
energy eigenbasis; steady_point runs that whole chain in one call, for
one point or a stack of them. Closed-form references for one and two
qubits, and the Pauli rate equation for any number of levels, live in
qheat.models; the command line front end in qheat.cli.

Units: hbar = k_B = 1 throughout.
"""

from .bath import (BathColumns, BathSpec, SpectralDensity,
                   SpectralLookupError, bath_correlation, planck_occupation)
from .kernel import (LINDBLAD, MODES, REDFIELD, NearDegeneracyError,
                     SuperKernel, build_kernel, check_trace_condition,
                     combine_kernels, degeneracy_tolerance, pair_index)
from .models import (CoupledLindbladResult, CoupledRedfieldResult,
                     PauliResult, RateParams, SingleQubitResult,
                     coupled_lindblad_closed, coupled_rates,
                     coupled_redfield_closed, limit_currents,
                     pauli_steady_state, single_qubit_closed)
from .steady import (POSITIVITY_TOL, RESIDUAL_TOL, DegenerateSteadyStateError,
                     DensityMatrix, IntegrationError, Liouvillian,
                     PositivityReport, SolveInfo, SteadyStateResidualError,
                     assemble_liouvillian, evolve, gibbs_state,
                     positivity_report, solve_steady_state, svd_steady_state)
from .system import (CoupledDiag, SystemSpec, make_coupled_qubits,
                     make_single_qubit)
from .thermo import (SECOND_LAW_FAIL, SECOND_LAW_NA, SECOND_LAW_PASS,
                     CurrentConsistencyError, CurrentReport, SteadyPoint,
                     law_checks, reservoir_current, steady_point)

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "BathColumns", "SpectralDensity", "SpectralLookupError",
    "bath_correlation", "planck_occupation",
    "SystemSpec", "CoupledDiag", "make_single_qubit", "make_coupled_qubits",
    "REDFIELD", "LINDBLAD", "MODES", "SuperKernel", "NearDegeneracyError",
    "build_kernel", "check_trace_condition", "combine_kernels",
    "degeneracy_tolerance", "pair_index",
    "DensityMatrix", "Liouvillian", "SolveInfo", "PositivityReport",
    "DegenerateSteadyStateError", "SteadyStateResidualError",
    "IntegrationError", "assemble_liouvillian", "solve_steady_state",
    "svd_steady_state", "evolve", "gibbs_state", "positivity_report",
    "RESIDUAL_TOL", "POSITIVITY_TOL",
    "CurrentReport", "CurrentConsistencyError", "law_checks",
    "reservoir_current", "SteadyPoint", "steady_point", "SECOND_LAW_PASS",
    "SECOND_LAW_FAIL", "SECOND_LAW_NA",
    "SingleQubitResult", "single_qubit_closed", "RateParams", "coupled_rates",
    "CoupledLindbladResult", "coupled_lindblad_closed",
    "CoupledRedfieldResult", "coupled_redfield_closed", "limit_currents",
    "PauliResult", "pauli_steady_state",
    "__version__",
]
