from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ququart_hubbard import gamma, gates, linalg, mapping, transpile
from ququart_hubbard.errors import DimensionTooLarge, InvalidSubspace, SiteOutOfRange
from ququart_hubbard.gates import Circuit, Csum, GateTally, Rotation

RNG = np.random.default_rng(7)


def random_state(n_sites, rng=RNG):
    v = rng.normal(size=4**n_sites) + 1j * rng.normal(size=4**n_sites)
    return v / np.linalg.norm(v)


# --- csum -------------------------------------------------------------------


def test_csum_is_permutation():
    cs = gates.csum_matrix()
    assert np.array_equal(np.abs(cs), np.abs(cs).astype(int))
    assert np.array_equal(cs @ cs.conj().T, np.eye(16))


def test_csum_power_four_identity():
    cs = gates.csum_matrix()
    assert np.array_equal(np.linalg.matrix_power(cs, 4), np.eye(16))


def test_csum_adjoint_inverse():
    assert np.array_equal(
        gates.csum_matrix() @ gates.csum_matrix(adjoint=True), np.eye(16)
    )


def test_csum_control_zero_acts_trivially():
    cs = gates.csum_matrix()
    for target_level in range(4):
        idx = 0 * 4 + target_level
        col = cs[:, idx]
        assert col[idx] == 1.0 and np.count_nonzero(col) == 1


def test_csum_decrements_target():
    # control level n shifts target level t to (t - n) mod 4
    cs = gates.csum_matrix()
    for n in range(4):
        for t in range(4):
            col = cs[:, n * 4 + t]
            assert col[n * 4 + ((t - n) % 4)] == 1.0
            assert np.count_nonzero(col) == 1


def test_apply_csum_matches_table():
    state = np.zeros(16, dtype=complex)
    state[1 * 4 + 1] = 1.0  # |1,1>
    out = gates.apply(state, Csum(0, 1), 2)
    expected = np.zeros(16, dtype=complex)
    expected[1 * 4 + 0] = 1.0  # |1, Xt|1>> = |1,0>
    assert np.array_equal(out, expected)


# --- apply ------------------------------------------------------------------


def test_apply_identity_rotation_is_noop():
    state = random_state(3)
    out = gates.apply(state, Rotation(1, 0, 2, "x", 0.0), 3)
    assert np.array_equal(out, state)


def test_apply_matches_dense_embedding():
    state = random_state(3)
    op = Rotation(1, 1, 3, "y", 0.77)
    out = gates.apply(state, op, 3)
    dense = linalg.kron_all([np.eye(4), gamma.rotation(1, 3, "y", 0.77), np.eye(4)])
    assert np.max(np.abs(out - dense @ state)) < 1e-14

    op2 = Csum(0, 2)
    out2 = gates.apply(state, op2, 3)
    g = gates.csum_matrix().reshape(4, 4, 4, 4)
    dense2 = np.zeros((64, 64), dtype=complex)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    block = np.zeros((4, 4)); block[a, c] = 1
                    block2 = np.zeros((4, 4)); block2[b, d] = 1
                    dense2 += g[a, b, c, d] * linalg.kron_all([block, np.eye(4), block2])
    assert np.max(np.abs(out2 - dense2 @ state)) < 1e-14


def test_apply_rejects_bad_site():
    with pytest.raises(SiteOutOfRange):
        gates.apply(random_state(2), Rotation(2, 0, 1, "x", 0.3), 2)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_apply_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    control = int(rng.integers(3))
    target = int((control + 1 + rng.integers(2)) % 3)
    ops = [
        Rotation(int(rng.integers(3)), 0, 2, "x", float(rng.normal())),
        Csum(control, target),
        Rotation(int(rng.integers(3)), 1, 2, "z", float(rng.normal()), virtual=True),
    ]
    for op in ops:
        state = gates.apply(state, op, 3)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gate_inverse_round_trip(seed):
    rng = np.random.default_rng(seed)
    state = random_state(2, rng)
    ops = [
        Rotation(0, 0, 3, "y", float(rng.normal())),
        Csum(1, 0, adjoint=bool(rng.integers(2))),
        Rotation(1, 0, 1, "z", float(rng.normal()), virtual=True),
    ]
    forward = state
    for op in ops:
        forward = gates.apply(forward, op, 2)
    back = forward
    for op in reversed(ops):
        back = gates.apply(back, gates.gate_inverse(op), 2)
    assert np.max(np.abs(back - state)) < 1e-10


def test_virtual_flag_limited_to_z():
    with pytest.raises(InvalidSubspace):
        Rotation(0, 0, 1, "x", 0.1, virtual=True)


# --- circuit unitary --------------------------------------------------------


def test_empty_circuit_unitary():
    assert np.array_equal(gates.circuit_unitary(Circuit(2)), np.eye(16))


def test_csum_pair_cancels():
    circuit = Circuit(2, (Csum(0, 1), Csum(0, 1, adjoint=True)))
    assert np.array_equal(gates.circuit_unitary(circuit), np.eye(16))


def test_circuit_unitary_matches_column_folding():
    rng = np.random.default_rng(3)
    ops = (
        Rotation(0, 0, 1, "x", 0.3),
        Csum(0, 1),
        Rotation(1, 2, 3, "y", -0.8),
        Csum(1, 0, adjoint=True),
    )
    circuit = Circuit(2, ops)
    u = gates.circuit_unitary(circuit)
    for k in rng.integers(0, 16, size=4):
        basis = np.zeros(16, dtype=complex)
        basis[k] = 1.0
        assert np.max(np.abs(gates.simulate(circuit, basis) - u[:, k])) < 1e-12


def test_circuit_unitary_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        gates.circuit_unitary(Circuit(5))


def test_circuit_rejects_out_of_range_ops():
    with pytest.raises(SiteOutOfRange):
        Circuit(2, (Rotation(2, 0, 1, "x", 0.1),))


@pytest.mark.parametrize("bad", [Rotation(3, 0, 1, "x", 0.1), Csum(0, -1), Csum(5, 1)])
def test_circuit_rejects_one_bad_op_deep_in_repeated_steps(bad):
    step = (Rotation(0, 0, 1, "z", 0.2, virtual=True), Csum(0, 1), Csum(1, 2, adjoint=True))
    ops = step * 5000 + (bad,) + step * 10
    with pytest.raises(SiteOutOfRange):
        Circuit(3, ops)


# --- fused simulation -------------------------------------------------------


def fold(circuit, state):
    """Gate-level reference: apply the ops one at a time."""
    out = np.asarray(state, dtype=complex)
    for op in circuit.ops:
        out = gates.apply(out, op, circuit.site_count)
    return out


def fused_error(circuit, state):
    return float(np.max(np.abs(gates.simulate(circuit, state) - fold(circuit, state))))


def chain_circuit(sites, steps, tau=1.3):
    mh = mapping.build_mapped_hamiltonian(mapping.chain(sites), 1.0, 2.0)
    return transpile.trotter_step_circuit(mh, tau, steps)


@pytest.mark.parametrize("steps", [1, 3, 30])
@pytest.mark.parametrize("sites", [2, 3, 4])
def test_fused_matches_gate_level_on_emitted_chains(sites, steps):
    circuit = chain_circuit(sites, steps)
    assert fused_error(circuit, random_state(sites)) <= 1e-12


def test_fused_matches_gate_level_on_one_chain8_step():
    assert fused_error(chain_circuit(8, 1), random_state(8)) <= 1e-12


@pytest.mark.parametrize("sites", [4, 8])
def test_fused_step_is_one_block_per_bond(sites):
    circuit = chain_circuit(sites, 5)
    blocks = gates._fuse(circuit.ops[: len(circuit.ops) // 5])
    assert len(blocks) == sites - 1
    assert all(len(block_sites) == 2 for block_sites, _ in blocks)


def test_fused_batch_matches_columns():
    circuit = chain_circuit(3, 3)
    batch = np.column_stack([random_state(3), random_state(3)])
    out = gates.simulate(circuit, batch)
    assert out.shape == (64, 2)
    assert float(np.max(np.abs(out - fold(circuit, batch)))) <= 1e-12
    for k in range(2):
        assert np.array_equal(out[:, k], gates.simulate(circuit, batch[:, k]))


def test_fused_json_reloaded_circuit(tmp_path):
    circuit = chain_circuit(3, 4)
    path = tmp_path / "circuit.json"
    gates.save_circuit(circuit, path)
    loaded = gates.load_circuit(path)
    assert loaded.ops == circuit.ops
    assert not any(a is b for a, b in zip(loaded.ops, circuit.ops))
    assert len({id(op) for op in loaded.ops}) == len(loaded.ops)
    state = random_state(3)
    assert np.array_equal(gates.simulate(loaded, state), gates.simulate(circuit, state))
    assert fused_error(loaded, state) <= 1e-12


@pytest.mark.parametrize("steps", [2, 3, 5, 7, 0, -1, "3", None])
def test_fused_ignores_wrong_steps_metadata(steps):
    honest = chain_circuit(2, 3)
    # the last step differs from the first two in one angle
    tampered = list(honest.ops)
    tampered[-1] = replace(tampered[-1], phi=tampered[-1].phi + 0.4)
    lying = Circuit(2, tuple(tampered), {"steps": steps})
    # 2 and 3 divide the op count but the copies differ; 5 and 7 do not divide it
    assert len(tampered) % 6 == 0 and len(tampered) % 5 and len(tampered) % 7
    assert fused_error(lying, random_state(2)) <= 1e-12


def test_fused_empty_and_rotation_only_circuits():
    state = random_state(2)
    assert np.array_equal(gates.simulate(Circuit(2, (), {"steps": 4}), state), state)
    rotations = (
        Rotation(0, 0, 1, "x", 0.3),
        Rotation(1, 1, 3, "y", -0.7),
        Rotation(0, 0, 2, "z", 0.5, virtual=True),
    )
    circuit = Circuit(2, rotations * 3, {"steps": 3})
    assert fused_error(circuit, state) <= 1e-12


def test_fused_csum_with_control_above_target():
    ops = (
        Rotation(2, 0, 1, "x", 0.4),
        Csum(2, 0),
        Rotation(0, 1, 2, "y", 0.9),
        Csum(0, 2, adjoint=True),  # joins the block opened as (2, 0)
        Rotation(2, 2, 3, "x", -1.1),
        Csum(2, 0, adjoint=True),
        Csum(1, 0),
        Rotation(0, 0, 3, "y", 0.2),
    )
    circuit = Circuit(3, ops)
    assert len(gates._fuse(ops)) == 2
    assert fused_error(circuit, random_state(3)) <= 1e-12


def test_fused_rotation_before_any_two_site_gate():
    ops = (
        Rotation(1, 0, 1, "x", 0.6),  # waits for site 1's first block
        Rotation(2, 1, 2, "y", -0.3),  # site 2 never meets a csum
        Csum(0, 1),
        Rotation(0, 2, 3, "x", 1.7),  # after site 0's last csum
    )
    circuit = Circuit(3, ops)
    assert sorted(sites for sites, _ in gates._fuse(ops)) == [(0, 1), (2,)]
    assert fused_error(circuit, random_state(3)) <= 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fused_matches_gate_level_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(int(rng.integers(0, 25))):
        if rng.random() < 0.4:
            control, target = (int(x) for x in rng.choice(3, size=2, replace=False))
            ops.append(Csum(control, target, adjoint=bool(rng.integers(2))))
        else:
            j = int(rng.integers(0, 3))
            k = int(rng.integers(j + 1, 4))
            axis = str(rng.choice(["x", "y", "z"]))
            ops.append(Rotation(int(rng.integers(3)), j, k, axis, float(rng.normal())))
    repeats = int(rng.integers(1, 4))
    circuit = Circuit(3, tuple(ops) * repeats, {"steps": repeats})
    assert fused_error(circuit, random_state(3, rng)) <= 1e-12


# --- tallies ----------------------------------------------------------------


def test_count_gates_empty():
    assert gates.count_gates(Circuit(1)) == GateTally(0, 0, 0)


def test_count_gates_mixed():
    circuit = Circuit(
        2,
        (
            Csum(0, 1),
            Rotation(0, 0, 1, "x", 0.3),
            Rotation(0, 0, 1, "z", 0.3, virtual=True),
            Rotation(1, 0, 1, "z", 0.3),  # physical z counts as physical
        ),
    )
    assert gates.count_gates(circuit) == GateTally(1, 2, 1)


# --- non-adjacent rotations -------------------------------------------------


def product_of(ops):
    u = np.eye(4, dtype=complex)
    for op in ops:
        u = gates.gate_matrix(op) @ u
    return u


@pytest.mark.parametrize("m", [0, 1])
def test_nonadjacent_x_zero_angle(m):
    u = product_of(gates.nonadjacent_x(m, 0.0))
    assert linalg.phase_overlap(u, np.eye(4)) > 1 - 1e-12


@pytest.mark.parametrize("m", [0, 1])
def test_nonadjacent_x_known_angle(m):
    u = product_of(gates.nonadjacent_x(m, np.pi / 2))
    target = gamma.rotation(m, m + 2, "x", np.pi / 2)
    assert linalg.phase_overlap(u, target) > 1 - 1e-10


def test_nonadjacent_y_known_angle():
    u = product_of(gates.nonadjacent_y(1, 1.3))
    target = gamma.rotation(1, 3, "y", 1.3)
    assert linalg.phase_overlap(u, target) > 1 - 1e-10


@given(st.sampled_from([0, 1]), st.floats(-6, 6))
@settings(max_examples=40, deadline=None)
def test_nonadjacent_sequences_match_direct(m, phi):
    ux = product_of(gates.nonadjacent_x(m, phi))
    uy = product_of(gates.nonadjacent_y(m, phi))
    assert linalg.phase_overlap(ux, gamma.rotation(m, m + 2, "x", phi)) > 1 - 1e-10
    assert linalg.phase_overlap(uy, gamma.rotation(m, m + 2, "y", phi)) > 1 - 1e-10


def test_nonadjacent_rejects_overflow():
    with pytest.raises(InvalidSubspace):
        gates.nonadjacent_x(2, 0.4)


def test_nonadjacent_counts_three_physical():
    ops = gates.nonadjacent_x(0, 0.9)
    assert len(ops) == 3
    assert all(isinstance(op, Rotation) and not op.virtual for op in ops)


# --- JSON -------------------------------------------------------------------


def test_circuit_json_round_trip(tmp_path):
    circuit = Circuit(
        3,
        (
            Rotation(0, 0, 2, "x", 0.123456789),
            Csum(1, 2, adjoint=True),
            Rotation(2, 0, 1, "z", -0.5, virtual=True),
        ),
        {"label": "roundtrip"},
    )
    path = tmp_path / "circuit.json"
    gates.save_circuit(circuit, path)
    loaded = gates.load_circuit(path)
    assert loaded == circuit
    state = random_state(3)
    a = gates.simulate(circuit, state)
    b = gates.simulate(loaded, state)
    assert np.array_equal(a, b)
