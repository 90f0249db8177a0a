import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ququart_hubbard import emulate, mapping, transpile
from ququart_hubbard.errors import InvalidSubspace
from ququart_hubbard.gamma import G1, G2, G3, G4, GT, _frozen, ggm, rotation
from ququart_hubbard.gates import Rotation

GAMMAS = (G1, G2, G3, G4)
ALL_FIVE = (*GAMMAS, GT)

subspaces = [(j, k) for j in range(4) for k in range(j + 1, 4)]


def anticommutator(a, b):
    return a @ b + b @ a


def test_clifford_relations_exact():
    eye = np.eye(4)
    for a, ga in enumerate(GAMMAS):
        for b, gb in enumerate(GAMMAS):
            expected = 2 * eye if a == b else 0 * eye
            assert np.array_equal(anticommutator(ga, gb), expected)


def test_tilde_is_minus_product_exact():
    assert np.array_equal(GT, -G1 @ G2 @ G3 @ G4)
    assert np.array_equal(GT, np.diag([1, -1, -1, 1]).astype(complex))


def test_tilde_anticommutes_exact():
    for g in GAMMAS:
        assert np.array_equal(anticommutator(GT, g), np.zeros((4, 4)))


def test_all_five_hermitian_unitary():
    for m in ALL_FIVE:
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(m @ m, np.eye(4))


def test_gamma_one_is_x_tensor_identity():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1.0
    assert np.array_equal(G1, expected)


def test_ggm_x_example():
    op = ggm(0, 1, "x")
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(op, expected)


def test_ggm_z_example():
    assert np.array_equal(ggm(0, 1, "z"), np.diag([1, -1, 0, 0]).astype(complex))


@pytest.mark.parametrize("j,k", subspaces)
def test_ggm_commutator_closes(j, k):
    x = ggm(j, k, "x")
    y = ggm(j, k, "y")
    z = ggm(j, k, "z")
    assert np.array_equal(x @ y - y @ x, 2j * z)


@pytest.mark.parametrize("j,k", [(2, 0), (1, 1), (0, 4), (-1, 2)])
def test_ggm_rejects_bad_subspace(j, k):
    with pytest.raises(InvalidSubspace):
        ggm(j, k, "x")


def test_rotation_zero_angle_identity():
    assert np.array_equal(rotation(0, 1, "x", 0.0), np.eye(4))


def test_rotation_two_pi_sign_flip():
    assert np.allclose(rotation(0, 1, "x", 2 * np.pi), np.diag([-1, -1, 1, 1]), atol=1e-15)


def test_rotation_z_diagonal_form():
    phi = 0.9
    expected = np.diag([np.exp(-1j * phi / 2), 1.0, np.exp(1j * phi / 2), 1.0])
    assert np.allclose(rotation(0, 2, "z", phi), expected, atol=1e-15)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("j,k", subspaces)
def test_rotation_matches_exponential(axis, j, k):
    phi = 1.234
    direct = rotation(j, k, axis, phi)
    via_expm = scipy.linalg.expm(-1j * (phi / 2.0) * ggm(j, k, axis))
    assert np.max(np.abs(direct - via_expm)) < 1e-12


@given(
    st.sampled_from(subspaces),
    st.sampled_from(["x", "y", "z"]),
    st.floats(-6, 6),
    st.floats(-6, 6),
)
@settings(max_examples=40, deadline=None)
def test_rotation_composition(jk, axis, phi, psi):
    j, k = jk
    left = rotation(j, k, axis, phi) @ rotation(j, k, axis, psi)
    assert np.max(np.abs(left - rotation(j, k, axis, phi + psi))) < 1e-10


def test_rotation_rejects_bad_subspace():
    with pytest.raises(InvalidSubspace):
        rotation(3, 1, "x", 0.3)
    with pytest.raises(InvalidSubspace):
        rotation(3, 1, "x", np.array([0.3, 0.4]))


def greens_grid_angles():
    """Every rotation angle of the chain(4) Green's-function time grid."""
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
    return np.array(sorted({op.phi for c in grid for op in c.step if isinstance(op, Rotation)}))


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("j,k", subspaces)
def test_rotation_of_an_angle_array_is_the_stack_of_its_angles(axis, j, k):
    phis = greens_grid_angles()
    batched = rotation(j, k, axis, phis)
    assert batched.shape == (len(phis), 4, 4) and batched.dtype == complex
    assert np.array_equal(batched, np.stack([rotation(j, k, axis, phi) for phi in phis]))
    # a list of angles, and a single angle in an array, stack the same way
    assert np.array_equal(rotation(j, k, axis, list(phis[:3])), batched[:3])
    assert np.array_equal(rotation(j, k, axis, phis[4:5]), batched[4:5])


@pytest.mark.parametrize("phi", [0.3, np.float64(0.3), 1, np.int64(-2)])
def test_rotation_of_one_angle_is_one_4x4(phi):
    m = rotation(1, 2, "x", phi)
    assert m.shape == (4, 4) and m.dtype == complex and m.flags.c_contiguous
    assert np.array_equal(m, rotation(1, 2, "x", np.array([phi], dtype=float))[0])


# each generator as a signed sum of subspace Paulis, (coefficient, j, k, axis)
GAMMA_GGM_TERMS = {
    1: ((1.0, 0, 2, "x"), (1.0, 1, 3, "x")),
    2: ((1.0, 0, 2, "y"), (1.0, 1, 3, "y")),
    3: ((1.0, 0, 1, "x"), (-1.0, 2, 3, "x")),
    4: ((1.0, 0, 1, "y"), (-1.0, 2, 3, "y")),
    "tilde": ((1.0, 0, 1, "z"), (-1.0, 2, 3, "z")),
}


@pytest.mark.parametrize("index,matrix", [
    (1, G1),
    (2, G2),
    (3, G3),
    (4, G4),
    ("tilde", GT),
])
def test_gamma_ggm_reconstruction_exact(index, matrix):
    total = sum(c * ggm(j, k, axis) for c, j, k, axis in GAMMA_GGM_TERMS[index])
    assert np.array_equal(total, matrix)


def test_frozen_keeps_a_contiguous_complex_array():
    m = np.eye(4, dtype=complex)
    assert _frozen(m) is m and not m.flags.writeable
    real = np.eye(4)
    frozen = _frozen(real)
    assert frozen.dtype == complex and not frozen.flags.writeable and real.flags.writeable


def test_generators_are_read_only_constants():
    for g in ALL_FIVE:
        assert g.dtype == complex and g.flags.c_contiguous and not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 5.0
    factor = mapping.local_fermion_factor("up", "create")
    assert factor.flags.writeable
    factor[0, 0] = 5.0
    assert mapping.local_fermion_factor("up", "create")[0, 0] == 0.0
