"""Circuit representation and dense statevector simulator for ququart registers.

A circuit is an ordered list of gate operations on a register of L
four-level sites (register positions are 0-based). Two gate kinds exist:

  Rotation  -- single-qudit subspace rotation X/Y/Z^{jk}_phi; z-axis
               rotations may be flagged virtual (frame bookkeeping, zero
               physical cost).
  Csum      -- the two-qudit controlled-sum gate, sum_n |n><n| (x) Xt^n
               with Xt = sum_j |j><j+1 mod 4| (cyclic decrement), so
               Xt^4 = I.

Every gate, and every fused block, acts by one contraction of a local
(4,)*2k tensor with the state reshaped to a (4,)*L tensor; no 4^L x 4^L
embedding is ever materialized. `simulate` fuses greedily, as qsim's gate
fuser does (Isakov et al., arXiv:2111.02396): rotations collect per site,
and each CSUM multiplies into the latest block its two sites share or else
opens a new 16x16 block, so a chain(L) Trotter step (about 100 ops per
bond) collapses to L - 1 blocks. When the circuit is a verified repetition
of one step (`metadata["steps"]`), that step is fused once and its block
list replayed `steps` times.
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
        # repeated Trotter steps share op objects: check each object once
        for op in {id(op): op for op in self.ops}.values():
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


def _contract(psi: np.ndarray, m: np.ndarray, sites) -> np.ndarray:
    """Apply a local (4,)*2k tensor, indexed [outs..., ins...], to axes
    `sites` of psi; any further axes of psi ride along as a batch."""
    k = len(sites)
    psi = np.tensordot(m, psi, axes=(list(range(k, 2 * k)), list(sites)))
    return np.moveaxis(psi, list(range(k)), list(sites))


def apply(state: np.ndarray, op: GateOp, site_count: int) -> np.ndarray:
    """Apply one gate to a statevector, returning a new vector.

    Also accepts a batch of column vectors as a (4**L, batch) array.
    """
    state = np.asarray(state, dtype=complex)
    sites = _op_sites(op)
    for s in sites:
        if not 0 <= s < site_count:
            raise SiteOutOfRange(f"site {s} outside register of {site_count}")
    psi = state.reshape([DIM] * site_count + list(state.shape[1:]))
    return _contract(psi, gate_matrix(op), sites).reshape(state.shape)


_EYE = np.eye(DIM, dtype=complex)


def _fuse(ops) -> list:
    """Greedy two-site fusion of an op sequence into [sites, tensor] blocks.

    Rotations collect per site into a pending 4x4. A CSUM takes the pending
    4x4s of its two sites with it and multiplies into the latest block on
    both sites if they share one; otherwise it opens a new (4, 4, 4, 4)
    block on (control, target). Pending 4x4s left at the end multiply into
    the latest block on their site, or become one-site blocks. Folding ops
    into a block that later blocks do not touch is exact: they commute.
    """
    blocks = []  # [sites, (4,)*2k tensor] in application order
    latest = {}  # site -> index of the latest block on it
    pending = {}  # site -> product of the rotations not yet in a block
    for op in ops:
        g = gate_matrix(op)
        if isinstance(op, Rotation):
            pending[op.site] = g @ pending.get(op.site, _EYE)
            continue
        c, t = op.control, op.target
        local = np.einsum("abcd,ce,df->abef", g, pending.pop(c, _EYE), pending.pop(t, _EYE))
        b = latest.get(c)
        if b is not None and latest.get(t) == b:
            sites, u = blocks[b]
            blocks[b][1] = _contract(u, local, (sites.index(c), sites.index(t)))
        else:
            blocks.append([(c, t), local])
            latest[c] = latest[t] = len(blocks) - 1
    for s, m in pending.items():
        if s in latest:
            sites, u = blocks[latest[s]]
            blocks[latest[s]][1] = _contract(u, m, (sites.index(s),))
        else:
            blocks.append([(s,), m])
    return blocks


def _period(circuit: Circuit) -> int:
    """Length of the op sequence that the circuit repeats: the
    `metadata["steps"]` hint if the ops really are that many copies of one
    step (identity-fast for emitted circuits, by value after JSON), else
    the whole op list."""
    ops = circuit.ops
    steps = circuit.metadata.get("steps")
    if isinstance(steps, int) and steps > 1 and len(ops) % steps == 0:
        n = len(ops) // steps
        if ops == ops[:n] * steps:
            return n
    return len(ops)


def simulate(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on an initial statevector, or on a (4**L, batch)
    array of them: fuse one period of the ops into two-site blocks, then
    apply the block list once per period."""
    state = np.asarray(state, dtype=complex)
    period = _period(circuit)
    blocks = _fuse(circuit.ops[:period])
    psi = state.reshape([DIM] * circuit.site_count + list(state.shape[1:]))
    for _ in range(len(circuit.ops) // max(period, 1)):
        for sites, u in blocks:
            psi = _contract(psi, u, sites)
    return psi.reshape(state.shape)


def circuit_unitary(circuit: Circuit, max_sites: int = 4) -> np.ndarray:
    """Dense unitary of the whole circuit (first op = rightmost factor)."""
    if circuit.site_count > max_sites:
        raise DimensionTooLarge(
            f"dense circuit unitary limited to {max_sites} sites"
        )
    return simulate(circuit, np.eye(DIM**circuit.site_count, dtype=complex))


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
