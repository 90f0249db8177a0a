"""Gate-count and step-duration estimates: ququart encoding vs qubit zig-zag.

Ququart counts are per Trotter step and derive from the transpiled bond
pattern (8 two-qudit gates and 32 physical single-qudit pulses per bond);
the consistency tests tally actually emitted circuits so these constants
cannot drift from the transpiler. The qubit baseline reproduces the
published zig-zag layer sequences for the 1x8 and 2x4 lattices, whose
aggregate two-qubit totals (64 and 112) are the contract; per-layer
splits are not modeled.
"""

from dataclasses import dataclass

from .errors import UnsupportedLattice
from .mapping import LatticeGeometry

TWO_QUDIT_PER_BOND = 8
SINGLE_QUDIT_PER_BOND = 32
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
    est_step_duration: float | None = None
    layers: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "encoding": self.encoding,
            "lattice": self.lattice,
            "two_body_gates_per_step": self.two_body_gates_per_step,
            "single_qudit_physical_per_step": self.single_qudit_physical_per_step,
            "carriers": self.carriers,
            "est_step_duration_s": self.est_step_duration,
            "layers": list(self.layers),
        }


def _bond_layer_count(geometry: LatticeGeometry) -> int:
    # parallel execution groups bonds into odd/even columns (+ rungs on ladders)
    return 2 if geometry.kind == "chain" else 3


def qfm_resources(
    geometry: LatticeGeometry,
    parallel_bonds: bool = True,
    two_qudit_seconds: float | None = None,
) -> ResourceReport:
    """Per-step costs of the ququart encoding on a chain or 2-row ladder."""
    if geometry.kind not in ("chain", "ladder"):
        raise UnsupportedLattice(f"unsupported geometry kind {geometry.kind!r}")
    bonds = geometry.bond_count
    critical_bonds = _bond_layer_count(geometry) if parallel_bonds else bonds
    duration = SINGLE_QUDIT_PER_BOND * critical_bonds * SINGLE_QUDIT_SECONDS
    if two_qudit_seconds is not None:
        duration += TWO_QUDIT_PER_BOND * critical_bonds * two_qudit_seconds
    return ResourceReport(
        encoding="qfm",
        lattice=geometry.label,
        two_body_gates_per_step=TWO_QUDIT_PER_BOND * bonds,
        single_qudit_physical_per_step=SINGLE_QUDIT_PER_BOND * bonds,
        carriers=geometry.site_count,
        est_step_duration=duration,
    )


def qubit_baseline_resources(lattice: str) -> ResourceReport:
    """Published zig-zag qubit costs; only 1x8 and 2x4 are tabulated."""
    key = lattice.strip().lower().replace(" ", "")
    if key == "chain(8)":
        key = "1x8"
    if key == "ladder(2,4)":
        key = "2x4"
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
        est_step_duration=None,
        layers=entry["layers"],
    )


def format_table(reports) -> str:
    headers = ("encoding", "lattice", "two-body/step", "1q physical/step", "carriers", "step time")
    rows = []
    for r in reports:
        duration = "-" if r.est_step_duration is None else f"{r.est_step_duration * 1e6:.2f} us"
        rows.append(
            (
                r.encoding,
                r.lattice,
                str(r.two_body_gates_per_step),
                str(r.single_qudit_physical_per_step),
                str(r.carriers),
                duration,
            )
        )
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
