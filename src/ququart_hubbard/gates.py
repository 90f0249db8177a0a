"""Circuit representation and dense statevector simulator for ququart registers.

A circuit is one step, a flat tuple of gate ops, applied `repeat` times to
a register of L four-level sites (register positions are 0-based); `ops`
is `step * repeat`. Two gate kinds exist:

  Rotation  -- single-qudit subspace rotation X/Y/Z^{jk}_phi; z-axis
               rotations may be flagged virtual (frame bookkeeping, zero
               physical cost).
  Csum      -- the two-qudit controlled-sum gate, sum_n |n><n| (x) Xt^n
               with Xt = sum_j |j><j+1 mod 4| (cyclic decrement): the
               permutation |n, m> -> |n, m - n mod 4>, so CSUM^4 = I.

An op whose site or level is not an int (a bool is not), whose `phi` is
not a finite real or whose flag is not a bool raises InvalidCircuit, and
so does a circuit whose `metadata` is not a dict, and a file that is not JSON.
`save_circuit` and `load_circuit` are the circuit file's one writer and one
reader: the step as one list of op objects, each its `_KINDS` name plus its
dataclass fields.

Every gate is a 4x4 or 16x16 matrix on one site or two ascending sites,
applied only inside a circuit. Fusion takes one input shape, op columns
holding one op per run, and is greedy, as qsim's gate fuser is (Isakov et
al., arXiv:2111.02396): one-site matrices collect per site, and each
two-site matrix multiplies into the latest block its two sites share or
else opens a new 16x16 block. Before a block opens, the one-site matrices
still pending on a site that has a block close into that block, so a
bond's trailing corrections stay in its own block and every block of an
emitted step conserves its pair's (N_up, N_dn). A chain(L) step collapses
to L - 1 blocks, applied `repeat` times.

`simulate` fuses a lone circuit's step as one-op columns and runs it on
the full register through `linalg.apply_local`, one np.matmul per block
with no 4^L x 4^L embedding. `simulate_sector` runs a `Grid` on the
amplitudes of one (N_up, N_dn) sector (a `mapping.Sector`). The grid fuses
once per structure group into the (T, d, d) block stacks of one step plus
its `repeat`; the sector gathers each block's entries (`Sector.gather`),
and the gathered step runs `repeat` times. A column holding one shared op
object gives one matrix, a column of one pulse at varying angles one
`gamma.rotation` call on all its angles: one matrix build per column,
not one per run and op. Each circuit computes its ops' sites once
(`Circuit.sites`); its site check and the grouping both read them.
"""

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import attrgetter

import numpy as np

from . import gamma
from .errors import (
    InvalidCircuit, InvalidSubspace, SiteOutOfRange, StateSizeMismatch, SynthesisResidual,
)
from .gamma import DIM, _frozen
from .linalg import apply_local, dense_dim

# the largest synthesis residual, or fused-block entry between different
# charges, accepted before SynthesisResidual
RESIDUAL_TOL = 1e-8
GRID_BATCH_BYTES = 1 << 19  # one slice of grid runs in `simulate_sector`, 512 KiB


@dataclass(frozen=True)
class Rotation:
    site: int
    j: int
    k: int
    axis: str
    phi: float
    virtual: bool = False

    def __post_init__(self):
        phi = self.phi
        if not (type(self.site) is type(self.j) is type(self.k) is int
                and type(self.virtual) is bool
                and (type(phi) is int or isinstance(phi, float)) and math.isfinite(phi)):
            raise InvalidCircuit(f"sites and levels must be int, phi a finite real and "
                                 f"virtual a bool, got {self!r}")
        if not 0 <= self.j < self.k <= DIM - 1 or self.axis not in ("x", "y", "z"):
            raise InvalidSubspace(f"no {self.axis!r} rotation on levels ({self.j}, {self.k})")
        if self.virtual and self.axis != "z":
            raise InvalidSubspace("only z-axis rotations can be virtual")


@dataclass(frozen=True)
class Csum:
    control: int
    target: int
    adjoint: bool = False

    def __post_init__(self):
        if not (type(self.control) is type(self.target) is int and type(self.adjoint) is bool):
            raise InvalidCircuit(f"sites must be int and adjoint a bool, got {self!r}")
        if self.control == self.target:
            raise SiteOutOfRange("csum control and target must differ")


GateOp = Rotation | Csum


@dataclass(frozen=True)
class Circuit:
    site_count: int
    step: tuple = ()  # the gate ops of one step, in application order
    metadata: dict = field(default_factory=dict)
    repeat: int = 1
    # the ascending sites of each op of `step`, computed once here
    sites: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("sites", self.site_count), ("repeat", self.repeat)):
            if type(value) is not int or value < 1:
                raise InvalidCircuit(f"{name} must be an int >= 1, got {value!r}")
        if not isinstance(self.metadata, dict):
            raise InvalidCircuit(f"metadata must be a dict, got {self.metadata!r}")
        sites = tuple(map(_op_sites, self.step))
        off = {s for ss in set(sites) for s in ss if not 0 <= s < self.site_count}
        if off:
            op, s = next((op, s) for op, ss in zip(self.step, sites) for s in ss if s in off)
            raise SiteOutOfRange(f"{op} touches site {s}, register has {self.site_count}")
        object.__setattr__(self, "sites", sites)

    @property
    def ops(self) -> tuple:
        """The flat op sequence, `step` repeated `repeat` times."""
        return self.step * self.repeat


class _SiteTuples(dict):
    """site, or (control, target) -> its ascending sites tuple, built on
    first use: every op on the same sites shares one tuple object, so a
    circuit's `sites` allocates no tuple per op."""

    def __missing__(self, key):
        sites = self[key] = (key,) if type(key) is int else tuple(sorted(key))
        return sites


_SITES = _SiteTuples()


def _op_sites(op: GateOp) -> tuple:
    """The op's sites in ascending order, the order of its matrix's index."""
    if isinstance(op, Rotation):
        return _SITES[op.site]
    return _SITES[op.control, op.target]


def csum_matrix(adjoint: bool = False) -> np.ndarray:
    """Controlled-sum permutation |n, m> -> |n, m - n mod 4> on the
    (control, target) pair; the adjoint adds n instead."""
    n, m = np.divmod(np.arange(DIM * DIM), DIM)
    shift = n if adjoint else -n
    return np.eye(DIM * DIM, dtype=complex)[:, n * DIM + (m + shift) % DIM]


def gate_matrix(op: GateOp) -> np.ndarray:
    """Read-only local matrix of a gate op: 4x4 for rotations; for csum the
    16x16 permutation on the ascending pair of its sites (the control's
    level is the major index only when control < target)."""
    if isinstance(op, Rotation):
        return _rotation_matrix(op.j, op.k, op.axis, op.phi)
    return _csum_block(op.adjoint, op.control > op.target)


@lru_cache(maxsize=4096)
def _rotation_matrix(j: int, k: int, axis: str, phi: float) -> np.ndarray:
    """Cached per rotation, not per op: the same pulse on other sites shares it."""
    return _frozen(gamma.rotation(j, k, axis, phi))


@lru_cache(maxsize=None)
def _csum_block(adjoint: bool, control_above_target: bool) -> np.ndarray:
    m = csum_matrix(adjoint)
    if control_above_target:
        m = m.reshape(DIM, DIM, DIM, DIM).transpose(1, 0, 3, 2).reshape(DIM * DIM, -1)
    return _frozen(m)


def gate_inverse(op: GateOp) -> GateOp:
    if isinstance(op, Rotation):
        return Rotation(op.site, op.j, op.k, op.axis, -op.phi, op.virtual)
    return Csum(op.control, op.target, not op.adjoint)


_EYE = np.eye(DIM, dtype=complex)


def _kron4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b of two 4x4 matrices as a 16x16, or of (T, 4, 4) stacks as a
    (T, 16, 16) stack, by broadcasting (np.kron's generic path costs several
    times more)."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(*k.shape[:-4], DIM * DIM, DIM * DIM)


_PULSE = attrgetter("j", "k", "axis")  # a rotation's matrix is its pulse's at its phi


def _local_matrices(columns):
    """(sites, matrix) of each column, a tuple of one op per run: the one
    matrix of an op object every run holds (each column of a lone circuit),
    one `gamma.rotation` call on the angles of a column of one pulse, or
    else the (T, d, d) stack of the column's ops' matrices."""
    for col in columns:
        if len(set(map(id, col))) == 1:
            yield _op_sites(col[0]), gate_matrix(col[0])
        elif set(map(type, col)) == {Rotation} and len(set(map(_PULSE, col))) == 1:
            yield _op_sites(col[0]), gamma.rotation(*_PULSE(col[0]), [op.phi for op in col])
        else:
            yield _op_sites(col[0]), np.stack([gate_matrix(op) for op in col])


def _fuse(columns) -> list:
    """Greedy two-site fusion of op columns (`_local_matrices`) into
    [sites, matrix] blocks. Every product broadcasts over the runs' leading
    axis: one pass fuses a whole grid, or a lone circuit's one-op columns.

    One-site matrices collect per site into a pending 4x4. A two-site
    matrix takes the pending 4x4s of its sites with it and multiplies into
    the latest block on both sites if they share one. Otherwise it opens a
    new 16x16 block on its ascending sites, after the pending 4x4 of each
    of its sites that has a block closes into that site's latest block: a
    bond's trailing corrections stay in its own block, so each block of an
    emitted step conserves its pair's (N_up, N_dn). Pending 4x4s left at
    the end close the same way, or become one-site blocks. Folding a matrix
    into a block that later blocks do not touch is exact: they commute.
    """
    blocks = []  # [ascending sites, 4^k x 4^k matrix] in application order
    latest = {}  # site -> index of the latest block on it
    pending = {}  # site -> product of the one-site matrices not yet in a block

    def close(s):
        sites, u = blocks[latest[s]]
        m = pending.pop(s)
        blocks[latest[s]][1] = (_kron4(m, _EYE) if s == sites[0] else _kron4(_EYE, m)) @ u

    for sites, g in _local_matrices(columns):
        if len(sites) == 1:
            s = sites[0]
            pending[s] = g @ pending[s] if s in pending else g
            continue
        a, b = sites
        k = latest.get(a)
        opens = k is None or latest.get(b) != k
        if opens:
            for s in (a, b):
                if s in pending and s in latest:
                    close(s)
        if a in pending or b in pending:
            g = g @ _kron4(pending.pop(a, _EYE), pending.pop(b, _EYE))
        if opens:
            blocks.append([(a, b), g])
            latest[a] = latest[b] = len(blocks) - 1
        else:
            blocks[k][1] = g @ blocks[k][1]
    for s in list(pending):
        if s in latest:
            close(s)
        else:
            blocks.append([(s,), pending.pop(s)])
    return blocks


class Grid(tuple):
    """Circuits run on one start state, such as a tau grid. Circuits of one
    structure (a tau grid's nonzero taus) fuse in one pass over their steps'
    columns, each column's matrices built in one go (`_local_matrices`).
    The blocks are kept, so a grid shared between calls
    (`transpile.trotter_grid`) is prepared once."""

    @cached_property
    def chunks(self) -> tuple:
        """((indices, site count, repeat, blocks), ...), one per structure
        group: the fused blocks of one step, run `repeat` times. Every block
        is a (T, d, d) stack over the group's T runs: a block all runs share
        is broadcast once."""
        groups = {}  # keyed by what `_fuse` decides from
        for t, circuit in enumerate(self):
            groups.setdefault((circuit.site_count, circuit.repeat, circuit.sites), []).append(t)
        chunks = []
        for (site_count, repeat, _), idx in groups.items():
            blocks = tuple((sites, _frozen(np.broadcast_to(m, (len(idx), *m.shape[-2:]))))
                           for sites, m in _fuse(list(zip(*(self[t].step for t in idx)))))
            chunks.append((idx, site_count, repeat, blocks))
        return tuple(chunks)


def simulate_sector(grid: Grid, sector, state: np.ndarray) -> np.ndarray:
    """Run each circuit of the `Grid` on the same start state inside one
    (N_up, N_dn) sector: `state` holds the amplitudes, or (n, batch)
    columns of them, on the n register indices `sector.basis` (a
    `mapping.Sector`). Returns the batch-leading (T, *state.shape) runs on
    the same basis, each with the column layout of a lone run.

    Each structure group runs in slices under GRID_BATCH_BYTES, a run
    counting its state, its gathered copy and the entries it reads. Per
    slice each block of the group's one step is gathered once
    (`sector.gather`), and the gathered step runs `repeat` times: a block
    is one gather of each position's <= 4 same-charge partners, one
    multiply, one sum. A block whose entries between different charges
    exceed RESIDUAL_TOL raises SynthesisResidual; a circuit or state of
    another size raises StateSizeMismatch.
    """
    state = np.asarray(state, dtype=complex)
    n = len(sector.basis)
    if state.shape[0] != n:
        raise StateSizeMismatch(f"state has {state.shape[0]} amplitudes, the sector has {n}")
    start = np.ascontiguousarray(state.T).reshape(1, math.prod(state.shape[1:]), n)  # n may be 0
    out = np.empty((len(grid), *state.shape[::-1]), dtype=complex).swapaxes(1, -1)
    for group, site_count, repeat, blocks in grid.chunks:
        if site_count != sector.site_count:
            raise StateSizeMismatch(f"a circuit of {site_count} sites on a sector of "
                                    f"{sector.site_count} sites")
        size = max(1, GRID_BATCH_BYTES // max(1, 16 * (5 * state.size + 4 * n * len(blocks))))
        for lo in range(0, len(group), size):
            gathered = [_gather(sector, sites, m[lo:lo + size]) for sites, m in blocks]
            psi = start
            for _ in range(repeat):
                for partners, e in gathered:
                    psi = np.einsum("...k,...k->...", psi.take(partners, axis=-1), e)
            out[group[lo:lo + size]] = psi.reshape(len(psi), *state.shape[::-1]).swapaxes(1, -1)
    return out


def _gather(sector, sites, m: np.ndarray) -> tuple:
    """`sector.gather`, refused past RESIDUAL_TOL between different charges."""
    partners, entries, leak = sector.gather(sites, m)
    if leak > RESIDUAL_TOL:
        raise SynthesisResidual(f"a fused block on sites {sites} couples different "
                                f"(N_up, N_dn) by {leak:.3e} > {RESIDUAL_TOL:g}")
    return partners, entries


def simulate(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Run the circuit on an initial statevector, or on a (4**L, batch)
    array of them: fuse the step's one-op columns into two-site blocks once,
    then apply the block list `repeat` times."""
    return apply_local(state, _fuse(zip(circuit.step)) * circuit.repeat, circuit.site_count)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (first op = rightmost factor);
    raises DimensionTooLarge past the dense budget (L > 6)."""
    return simulate(circuit, np.eye(dense_dim(circuit.site_count), dtype=complex))


@dataclass(frozen=True)
class GateTally:
    two_qudit: int = 0
    single_qudit_physical: int = 0
    virtual_z: int = 0


def count_gates(circuit: Circuit) -> GateTally:
    two = phys = virt = 0
    for op in circuit.step:
        if isinstance(op, Csum):
            two += 1
        elif op.virtual:
            virt += 1
        else:
            phys += 1
    n = circuit.repeat
    return GateTally(two * n, phys * n, virt * n)


# --- circuit JSON -----------------------------------------------------------


_KINDS = {"rot": Rotation, "csum": Csum}


def save_circuit(circuit: Circuit, path) -> None:
    """Write the circuit document on one line: "sites", the step as "ops"
    (each op its `_KINDS` name plus its fields), "repeat", and "metadata"
    unless it is empty."""
    kind = {cls: name for name, cls in _KINDS.items()}
    doc = {"sites": circuit.site_count,
           "ops": [{"kind": kind[type(op)], **vars(op)} for op in circuit.step],
           "repeat": circuit.repeat}
    if circuit.metadata:
        doc["metadata"] = circuit.metadata
    # json.dumps without indent takes the C encoder; json.dump never does
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def load_circuit(path) -> Circuit:
    """Inverse of `save_circuit`. A file that is not JSON or not text, a
    missing key, an "ops" entry that is not an op object, an unknown op
    kind or a missing, unknown or mistyped op field raises InvalidCircuit;
    an op's own check raises InvalidSubspace or SiteOutOfRange."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
            ops = []
            for entry in doc["ops"]:
                fields = {**entry}  # a TypeError unless the entry is an object
                ops.append(_KINDS[fields.pop("kind")](**fields))
            return Circuit(doc["sites"], tuple(ops), doc.get("metadata", {}), doc["repeat"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidCircuit(f"malformed circuit document: {exc!r}") from None
