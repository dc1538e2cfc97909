"""Steady states and heat currents of few-level quantum systems.

Builds Redfield or Lindblad dissipative kernels for a finite-level
system coupled to bosonic heat reservoirs, solves for the stationary
density matrix, and evaluates per-reservoir heat currents, all in the
energy eigenbasis; steady_point runs that whole chain in one call, for
one point or a stack of them. Closed-form references for one and two
qubits, and the Pauli rate equation for any number of levels, live in
qheat.models; the command line front end in qheat.cli.

The package exports only what a caller of steady_point needs (the bath
and system types, the two shipped models) and the documented oracles of
qheat.models. Every other name, the layers steady_point runs among them,
is imported from its module: qheat.kernel, qheat.steady, qheat.thermo,
qheat.bath, qheat.system or qheat.models.

Units: hbar = k_B = 1 throughout.
"""

from .bath import BathColumns, BathSpec, SpectralDensity
from .models import (coupled_lindblad_closed, coupled_redfield_closed,
                     limit_currents, pauli_steady_state, single_qubit_closed)
from .system import SystemSpec, make_coupled_qubits, make_single_qubit
from .thermo import steady_point

__version__ = "0.1.0"

__all__ = [
    "BathSpec", "BathColumns", "SpectralDensity",
    "SystemSpec", "make_single_qubit", "make_coupled_qubits",
    "steady_point",
    "single_qubit_closed", "coupled_lindblad_closed",
    "coupled_redfield_closed", "limit_currents", "pauli_steady_state",
    "__version__",
]
