"""Circuit representation and dense statevector simulator for ququart registers.

A circuit is an ordered list of gate operations on a register of L
four-level sites (register positions are 0-based). Two gate kinds exist:

  Rotation  -- single-qudit subspace rotation X/Y/Z^{jk}_phi; z-axis
               rotations may be flagged virtual (frame bookkeeping, zero
               physical cost).
  Csum      -- the two-qudit controlled-sum gate, sum_n |n><n| (x) Xt^n
               with Xt = sum_j |j><j+1 mod 4| (cyclic decrement), so
               Xt^4 = I.

Gate application uses index arithmetic on the reshaped state tensor; no
4^L x 4^L embedding is ever materialized.
"""

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import gamma
from .errors import DimensionTooLarge, InvalidSubspace, SiteOutOfRange
from .gamma import DIM


@dataclass(frozen=True)
class Rotation:
    site: int
    j: int
    k: int
    axis: str
    phi: float
    virtual: bool = False

    def __post_init__(self):
        if self.virtual and self.axis != "z":
            raise InvalidSubspace("only z-axis rotations can be virtual")


@dataclass(frozen=True)
class Csum:
    control: int
    target: int
    adjoint: bool = False

    def __post_init__(self):
        if self.control == self.target:
            raise SiteOutOfRange("csum control and target must differ")


GateOp = Rotation | Csum


@dataclass(frozen=True)
class Circuit:
    site_count: int
    ops: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for op in self.ops:
            for s in _op_sites(op):
                if not 0 <= s < self.site_count:
                    raise SiteOutOfRange(
                        f"op {op} touches site {s}, register has {self.site_count}"
                    )


def _op_sites(op: GateOp):
    if isinstance(op, Rotation):
        return (op.site,)
    return (op.control, op.target)


def xtilde_matrix() -> np.ndarray:
    """Cyclic level decrement: |j+1 mod 4> -> |j>."""
    m = np.zeros((DIM, DIM), dtype=complex)
    for j in range(DIM):
        m[j, (j + 1) % DIM] = 1.0
    return m


def csum_matrix(adjoint: bool = False) -> np.ndarray:
    """Controlled-sum permutation on the (control, target) pair."""
    xt = xtilde_matrix()
    m = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    shift = np.eye(DIM, dtype=complex)
    for n in range(DIM):
        proj = np.zeros((DIM, DIM), dtype=complex)
        proj[n, n] = 1.0
        m += np.kron(proj, shift)
        shift = shift @ xt
    return m.conj().T if adjoint else m


@lru_cache(maxsize=4096)
def gate_matrix(op: GateOp) -> np.ndarray:
    """Read-only local operator of a gate op: 4x4 for rotations; for csum the
    16x16 permutation as a (4, 4, 4, 4) tensor indexed
    [control out, target out, control in, target in]."""
    if isinstance(op, Rotation):
        m = gamma.rotation(op.j, op.k, op.axis, op.phi)
    else:
        m = csum_matrix(op.adjoint).reshape(DIM, DIM, DIM, DIM)
    m.flags.writeable = False
    return m


def gate_inverse(op: GateOp) -> GateOp:
    if isinstance(op, Rotation):
        return replace(op, phi=-op.phi)
    return replace(op, adjoint=not op.adjoint)


def apply(state: np.ndarray, op: GateOp, site_count: int) -> np.ndarray:
    """Apply one gate to a statevector, returning a new vector.

    Also accepts a batch of column vectors as a (4**L, batch) array.
    """
    state = np.asarray(state, dtype=complex)
    batch = state.ndim == 2
    shape = [DIM] * site_count + ([state.shape[1]] if batch else [])
    psi = state.reshape(shape)
    for s in _op_sites(op):
        if not 0 <= s < site_count:
            raise SiteOutOfRange(f"site {s} outside register of {site_count}")
    if isinstance(op, Rotation):
        m = gate_matrix(op)
        psi = np.tensordot(m, psi, axes=([1], [op.site]))
        psi = np.moveaxis(psi, 0, op.site)
    else:
        g = gate_matrix(op)
        psi = np.tensordot(g, psi, axes=([2, 3], [op.control, op.target]))
        psi = np.moveaxis(psi, [0, 1], [op.control, op.target])
    return psi.reshape(state.shape)


def simulate(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on an initial statevector."""
    out = np.asarray(state, dtype=complex)
    for op in circuit.ops:
        out = apply(out, op, circuit.site_count)
    return out


def circuit_unitary(circuit: Circuit, max_sites: int = 4) -> np.ndarray:
    """Dense unitary of the whole circuit (first op = rightmost factor)."""
    if circuit.site_count > max_sites:
        raise DimensionTooLarge(
            f"dense circuit unitary limited to {max_sites} sites"
        )
    dim = DIM**circuit.site_count
    u = np.eye(dim, dtype=complex)
    for op in circuit.ops:
        u = apply(u, op, circuit.site_count)
    return u


@dataclass(frozen=True)
class GateTally:
    two_qudit: int = 0
    single_qudit_physical: int = 0
    virtual_z: int = 0


def count_gates(circuit: Circuit) -> GateTally:
    two = phys = virt = 0
    for op in circuit.ops:
        if isinstance(op, Csum):
            two += 1
        elif op.virtual:
            virt += 1
        else:
            phys += 1
    return GateTally(two, phys, virt)


def nonadjacent_x(m: int, phi: float, site: int = 0) -> list:
    """X rotation between levels m and m+2 from adjacent-level pulses.

    Circuit-order sequence [Y^{m,m+1}_pi, X^{m+1,m+2}_phi, Y^{m,m+1}_-pi];
    the operator product reproduces X^{m,m+2}_phi exactly.
    """
    if m + 2 > DIM - 1:
        raise InvalidSubspace(f"levels ({m}, {m + 2}) outside 0..{DIM - 1}")
    return [
        Rotation(site, m, m + 1, "y", np.pi),
        Rotation(site, m + 1, m + 2, "x", phi),
        Rotation(site, m, m + 1, "y", -np.pi),
    ]


def nonadjacent_y(m: int, phi: float, site: int = 0) -> list:
    """Y rotation between levels m and m+2 from adjacent-level pulses.

    Under the half-angle convention the X_{+-pi} sandwich maps an x-type
    middle onto -y^{m,m+2}, so the middle angle is negated to land on
    Y^{m,m+2}_phi exactly.
    """
    if m + 2 > DIM - 1:
        raise InvalidSubspace(f"levels ({m}, {m + 2}) outside 0..{DIM - 1}")
    return [
        Rotation(site, m, m + 1, "x", np.pi),
        Rotation(site, m + 1, m + 2, "x", -phi),
        Rotation(site, m, m + 1, "x", -np.pi),
    ]


# --- circuit JSON -----------------------------------------------------------


def circuit_to_json_dict(circuit: Circuit) -> dict:
    ops = []
    for op in circuit.ops:
        if isinstance(op, Rotation):
            ops.append(
                {
                    "kind": "rot",
                    "site": op.site,
                    "j": op.j,
                    "k": op.k,
                    "axis": op.axis,
                    "phi": op.phi,
                    "virtual": op.virtual,
                }
            )
        else:
            ops.append(
                {
                    "kind": "csum",
                    "control": op.control,
                    "target": op.target,
                    "adjoint": op.adjoint,
                }
            )
    doc = {"sites": circuit.site_count, "ops": ops}
    if circuit.metadata:
        doc["metadata"] = dict(circuit.metadata)
    return doc


def circuit_from_json_dict(doc: dict) -> Circuit:
    ops = []
    for entry in doc["ops"]:
        if entry["kind"] == "rot":
            ops.append(
                Rotation(
                    entry["site"],
                    entry["j"],
                    entry["k"],
                    entry["axis"],
                    entry["phi"],
                    entry.get("virtual", False),
                )
            )
        elif entry["kind"] == "csum":
            ops.append(
                Csum(entry["control"], entry["target"], entry.get("adjoint", False))
            )
        else:
            raise ValueError(f"unknown op kind {entry['kind']!r}")
    return Circuit(doc["sites"], tuple(ops), doc.get("metadata", {}))


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_json_dict(circuit), fh, indent=1)


def load_circuit(path) -> Circuit:
    with open(path) as fh:
        return circuit_from_json_dict(json.load(fh))
