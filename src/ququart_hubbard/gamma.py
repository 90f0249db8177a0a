"""Clifford-algebra generators and two-level subspace operators for a ququart.

The five 4x4 generators are read-only constants in the Majorana basis

    G1 = sx (x) I,  G2 = sy (x) I,  G3 = sz (x) sx,  G4 = sz (x) sy,
    GT = sz (x) sz = -G1 G2 G3 G4  (the paper's Gt),

where all pairs mutually anticommute, {Gi, Gj} = 2 delta_ij. Entries are
small Gaussian integers, so products and anticommutators are exact in
floating point.

Subspace operators x/y/z^{jk} (`ggm`) embed the Pauli matrices into the
(j, k) two-level subspace of the four-level system; `rotation` follows
the half-angle convention R = e^{-i (phi/2) g}, is derived from `ggm`, and
takes one angle or an array of them.
"""

from functools import lru_cache

import numpy as np

from .errors import InvalidSubspace

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

DIM = 4

Axis = str  # one of "x", "y", "z"


def _frozen(m: np.ndarray) -> np.ndarray:
    """Read-only contiguous complex m: m itself when it already is one."""
    m = np.ascontiguousarray(m, dtype=complex)
    m.flags.writeable = False
    return m


G1 = _frozen(np.kron(PAULI_X, I2))
G2 = _frozen(np.kron(PAULI_Y, I2))
G3 = _frozen(np.kron(PAULI_Z, PAULI_X))
G4 = _frozen(np.kron(PAULI_Z, PAULI_Y))
GT = _frozen(np.kron(PAULI_Z, PAULI_Z))


_PAULI = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


@lru_cache(maxsize=None)
def ggm(j: int, k: int, axis: Axis) -> np.ndarray:
    """Pauli matrix `axis` embedded in the (j, k) two-level subspace."""
    if not (0 <= j < k <= DIM - 1):
        raise InvalidSubspace(f"need 0 <= j < k <= {DIM - 1}, got ({j}, {k})")
    if axis not in _PAULI:
        raise InvalidSubspace(f"unknown axis {axis!r}")
    m = np.zeros((DIM, DIM), dtype=complex)
    m[[j, j, k, k], [j, k, j, k]] = _PAULI[axis].ravel()
    return _frozen(m)


def rotation(j: int, k: int, axis: Axis, phi) -> np.ndarray:
    """Subspace rotation e^{-i (phi/2) g^{jk}}, identity elsewhere.

    The generator g squares to the subspace projector P, so the series
    terminates: I - P + cos(phi/2) P - i sin(phi/2) g. A real `phi` gives
    one 4x4; a 1-D array of T angles gives the (T, 4, 4) stack of their
    rotations, each bit for bit the 4x4 of its angle.
    """
    g = ggm(j, k, axis)
    p = g @ g
    if not isinstance(phi, (int, float, np.number)):
        phi = np.asarray(phi, dtype=float)[:, None, None]
    return np.eye(DIM) - p + np.cos(phi / 2.0) * p - 1j * np.sin(phi / 2.0) * g
