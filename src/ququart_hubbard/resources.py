"""Gate-count and step-duration estimates: ququart encoding vs qubit zig-zag.

Ququart counts are tallied from the Trotter step the transpiler emits
(`transpile.step_layers`), so they follow any change to the step. The
step duration sums the slowest part of each layer (its bonds run in
parallel), the serial duration sums every part, both at
SINGLE_QUDIT_SECONDS per physical single-qudit pulse; virtual-Z rotations
and CSUM durations are not modeled. The qubit baseline reproduces the
published zig-zag layer sequences for the 1x8 and 2x4 lattices, whose aggregate two-qubit totals
(64 and 112) are the contract; per-layer splits are not modeled.
"""

from dataclasses import dataclass

from . import gates, mapping, transpile
from .errors import UnsupportedLattice

SINGLE_QUDIT_SECONDS = 50e-9

QUBIT_BASELINE = {
    "1x8": {
        "total_two_qubit": 64,
        "layers": ("fswap", "on-site", "fswap", "odd hopping", "even hopping"),
    },
    "2x4": {
        "total_two_qubit": 112,
        "layers": (
            "fswap",
            "on-site",
            "fswap",
            "vertical hopping",
            "fswap",
            "horizontal hopping 1",
            "fswap",
            "horizontal hopping 2",
        ),
    },
}


@dataclass(frozen=True)
class ResourceReport:
    encoding: str  # "qfm" or "qubit_zigzag"
    lattice: str
    two_body_gates_per_step: int
    single_qudit_physical_per_step: int
    carriers: int
    est_step_duration_s: float | None = None
    est_serial_step_duration_s: float | None = None
    layers: tuple = ()


def qfm_resources(geometry: mapping.LatticeGeometry) -> ResourceReport:
    """Per-step costs of the ququart encoding on a chain or 2-row ladder."""
    if geometry.kind not in ("chain", "ladder"):
        raise UnsupportedLattice(f"unsupported geometry kind {geometry.kind!r}")
    mh = mapping.build_mapped_hamiltonian(geometry, 1.0, 1.0)
    layers = [
        [gates.count_gates(gates.Circuit(geometry.site_count, tuple(part))) for part in layer]
        for layer in transpile.step_layers(mh, 1.0)
    ]
    parts = [t for layer in layers for t in layer]
    physical = sum(t.single_qudit_physical for t in parts)
    critical = sum(max(t.single_qudit_physical for t in layer) for layer in layers)
    return ResourceReport(
        encoding="qfm",
        lattice=geometry.label,
        two_body_gates_per_step=sum(t.two_qudit for t in parts),
        single_qudit_physical_per_step=physical,
        carriers=geometry.site_count,
        est_step_duration_s=critical * SINGLE_QUDIT_SECONDS,
        est_serial_step_duration_s=physical * SINGLE_QUDIT_SECONDS,
    )


def qubit_baseline_resources(lattice: str) -> ResourceReport:
    """Published zig-zag qubit costs; only 1x8 and 2x4 are tabulated."""
    key = lattice.strip().lower().replace(" ", "")
    key = {"chain(8)": "1x8", "ladder(2,4)": "2x4"}.get(key, key)
    if key not in QUBIT_BASELINE:
        raise UnsupportedLattice(
            f"qubit baseline tabulated only for 1x8 and 2x4, got {lattice!r}"
        )
    entry = QUBIT_BASELINE[key]
    sites = 8
    return ResourceReport(
        encoding="qubit_zigzag",
        lattice=key,
        two_body_gates_per_step=entry["total_two_qubit"],
        single_qudit_physical_per_step=0,
        carriers=2 * sites,
        layers=entry["layers"],
    )
