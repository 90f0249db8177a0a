"""Fermi-Hubbard simulation on four-level qudits.

Maps each spinful lattice site onto one ququart through Clifford-algebra
generators, transpiles the Trotterized evolution into controlled-sum and
subspace-rotation gates, emulates the circuits on a dense statevector,
and validates everything against an exact occupation-number reference.
"""

from .gamma import GammaSet, ggm, make_gamma_set, rotation
from .gates import (
    Circuit,
    Csum,
    GateTally,
    Rotation,
    apply,
    circuit_unitary,
    count_gates,
    csum_matrix,
    simulate,
)
from .mapping import (
    LatticeGeometry,
    MappedHamiltonian,
    build_mapped_hamiltonian,
    chain,
    dense_hamiltonian,
    ladder,
    map_fermion,
    map_ququart_level,
    product_state,
)
from .oracle import (
    ExactPropagator,
    GreensSeries,
    exact_populations,
    fermionic_hamiltonian,
    gf_fourier,
    lesser_gf,
    retarded_gf,
    spectral,
)
from .resources import ResourceReport, qfm_resources, qubit_baseline_resources
from .transpile import (
    SchmidtDecomposition,
    hopping_target,
    osd,
    transpile_hopping,
    trotter_step_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "GammaSet",
    "ggm",
    "make_gamma_set",
    "rotation",
    "Circuit",
    "Csum",
    "GateTally",
    "Rotation",
    "apply",
    "circuit_unitary",
    "count_gates",
    "csum_matrix",
    "simulate",
    "LatticeGeometry",
    "MappedHamiltonian",
    "build_mapped_hamiltonian",
    "chain",
    "dense_hamiltonian",
    "ladder",
    "map_fermion",
    "map_ququart_level",
    "product_state",
    "ExactPropagator",
    "GreensSeries",
    "exact_populations",
    "fermionic_hamiltonian",
    "gf_fourier",
    "lesser_gf",
    "retarded_gf",
    "spectral",
    "ResourceReport",
    "qfm_resources",
    "qubit_baseline_resources",
    "SchmidtDecomposition",
    "hopping_target",
    "osd",
    "transpile_hopping",
    "trotter_step_circuit",
    "__version__",
]
