import functools
import hashlib
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ququart_hubbard import emulate, gamma, gates, linalg, mapping, transpile
from ququart_hubbard.errors import (
    DimensionTooLarge,
    InvalidCircuit,
    InvalidSubspace,
    SiteOutOfRange,
    StateSizeMismatch,
    SynthesisResidual,
)
from ququart_hubbard.gates import Circuit, Csum, GateTally, Rotation

RNG = np.random.default_rng(7)


def random_state(n_sites, rng=RNG):
    v = rng.normal(size=4**n_sites) + 1j * rng.normal(size=4**n_sites)
    return v / np.linalg.norm(v)


def run_op(state, op, site_count):
    """One gate op on a register state, as a one-op circuit."""
    return gates.simulate(Circuit(site_count, (op,)), state)


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
    out = run_op(state, Csum(0, 1), 2)
    expected = np.zeros(16, dtype=complex)
    expected[1 * 4 + 0] = 1.0  # |1, Xt|1>> = |1,0>
    assert np.array_equal(out, expected)


# --- apply ------------------------------------------------------------------


def test_apply_identity_rotation_is_noop():
    state = random_state(3)
    out = run_op(state, Rotation(1, 0, 2, "x", 0.0), 3)
    assert np.array_equal(out, state)


def test_apply_matches_dense_embedding():
    state = random_state(3)
    op = Rotation(1, 1, 3, "y", 0.77)
    out = run_op(state, op, 3)
    dense = functools.reduce(np.kron, [np.eye(4), gamma.rotation(1, 3, "y", 0.77), np.eye(4)])
    assert np.max(np.abs(out - dense @ state)) < 1e-14

    op2 = Csum(0, 2)
    out2 = run_op(state, op2, 3)
    g = gates.csum_matrix().reshape(4, 4, 4, 4)
    dense2 = np.zeros((64, 64), dtype=complex)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    block = np.zeros((4, 4)); block[a, c] = 1
                    block2 = np.zeros((4, 4)); block2[b, d] = 1
                    dense2 += g[a, b, c, d] * functools.reduce(np.kron, [block, np.eye(4), block2])
    assert np.max(np.abs(out2 - dense2 @ state)) < 1e-14


def test_apply_rejects_bad_site():
    with pytest.raises(SiteOutOfRange):
        run_op(random_state(2), Rotation(2, 0, 1, "x", 0.3), 2)


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
        state = run_op(state, op, 3)
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
        forward = run_op(forward, op, 2)
    back = forward
    for op in reversed(ops):
        back = run_op(back, gates.gate_inverse(op), 2)
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
    tracemalloc.start()
    try:
        with pytest.raises(DimensionTooLarge, match="GiB budget"):
            gates.circuit_unitary(Circuit(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_circuit_rejects_out_of_range_ops():
    with pytest.raises(SiteOutOfRange):
        Circuit(2, (Rotation(2, 0, 1, "x", 0.1),))
    with pytest.raises(SiteOutOfRange):
        Circuit(2, (Rotation(0, 0, 1, "x", 0.1), Csum(0, 2)))


@pytest.mark.parametrize("bad", [Rotation(3, 0, 1, "x", 0.1), Csum(0, -1), Csum(5, 1)])
def test_circuit_rejects_one_bad_op_deep_in_repeated_steps(bad):
    step = (Rotation(0, 0, 1, "z", 0.2, virtual=True), Csum(0, 1), Csum(1, 2, adjoint=True))
    ops = step * 5000 + (bad,) + step * 10
    with pytest.raises(SiteOutOfRange):
        Circuit(3, ops)


@pytest.mark.parametrize("bad, site", [
    (Rotation(3, 0, 1, "x", 0.1), 3), (Csum(0, -1), -1), (Csum(5, -1), -1), (Csum(4, 1), 4),
])
def test_circuit_names_the_first_op_off_the_register(bad, site):
    # the first bad op in step order, at its lowest bad site; a later bad op is not named
    ops = (Rotation(0, 0, 1, "x", 0.1), Csum(0, 2), bad, Rotation(7, 0, 1, "x", 0.1))
    with pytest.raises(SiteOutOfRange) as info:
        Circuit(3, ops)
    assert str(info.value) == f"{bad} touches site {site}, register has 3"


# --- fused simulation -------------------------------------------------------


def fold(circuit, state):
    """Gate-level reference: apply the ops one at a time, each its own
    matrix through `linalg.apply_local`, never through `gates._fuse`."""
    out = np.asarray(state, dtype=complex)
    for op in circuit.ops:
        out = linalg.apply_local(out, [(gates._op_sites(op), gates.gate_matrix(op))],
                                 circuit.site_count)
    return out


# on a 3-site register: (0, 1) leads, (1, 2) is the trailing pair and
# (0, 2) is not adjacent
ONE_OPS = {
    "rotation": Rotation(1, 0, 2, "x", 0.7),
    "virtual z": Rotation(2, 1, 3, "z", 0.4, virtual=True),
    "csum 0->1": Csum(0, 1),
    "csum 1->2 adjoint": Csum(1, 2, adjoint=True),
    "csum 2->1": Csum(2, 1),
    "csum 2->0 adjoint": Csum(2, 0, adjoint=True),
    "csum 0->2": Csum(0, 2),
}


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("name", sorted(ONE_OPS))
def test_one_op_circuit_is_the_gate_level_reference(name, width):
    op = ONE_OPS[name]
    state = random_state(3) if width is None else np.column_stack(
        [random_state(3) for _ in range(width)])
    assert np.array_equal(run_op(state, op, 3), fold(Circuit(3, (op,)), state))


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
    blocks = gates._fuse(zip(chain_circuit(sites, 5).step))
    assert len(blocks) == sites - 1
    assert all(len(block_sites) == 2 for block_sites, _ in blocks)


def charge_leak(sites, m):
    """Largest commutator norm of a fused block (or stack) with its sites'
    total N_up and N_dn, diagonals read from `mapping.level_occupations`."""
    occ = np.array(mapping.level_occupations(), dtype=float)
    n = occ if len(sites) == 1 else (occ[:, None] + occ[None, :]).reshape(16, 2)
    worst = 0.0
    for number in np.diag(n[:, 0]), np.diag(n[:, 1]):
        worst = max(worst, float(np.max(np.abs(m @ number - number @ m))))
    return worst


@pytest.mark.parametrize("tau", [0.3, 1.3, 5.0])
@pytest.mark.parametrize("geometry", [f"chain:{L}" for L in range(1, 9)]
                         + ["ladder:2x2", "ladder:2x4"])
def test_fused_blocks_conserve_their_pairs_charges(geometry, tau):
    # a bond's trailing corrections (the level-(1,2) swaps of pieces 3 and
    # 4 among them) close into that bond's block, not the next block on
    # their site
    mh = mapping.build_mapped_hamiltonian(mapping.parse_geometry(geometry), 1.0, 2.0)
    blocks = gates._fuse(zip(transpile.trotter_step_circuit(mh, tau, 3).step))
    assert max(charge_leak(sites, m) for sites, m in blocks) <= 1e-14


def test_fused_blocks_of_the_greens_grid_conserve_their_pairs_charges():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
    blocks = [block for _, _, _, chunk in grid.chunks for block in chunk]
    assert any(m.ndim == 3 for _, m in blocks)
    assert max(charge_leak(sites, m) for sites, m in blocks) <= 1e-14


@pytest.mark.parametrize("geometry, tau", [
    ("chain:4", 1.3), ("chain:8", 1.3), ("ladder:2x2", 0.9), ("chain:4", 0.0),
])
def test_segmented_fusion_matches_gate_level(geometry, tau):
    geom = mapping.parse_geometry(geometry)
    mh = mapping.build_mapped_hamiltonian(geom, 1.0, 2.0)
    circuit = transpile.trotter_step_circuit(mh, tau, 1)
    assert fused_error(circuit, random_state(geom.site_count)) <= 1e-12


def test_grid_column_of_one_op_object_is_one_matrix():
    # every circuit of the grid holds the same cached sandwich objects; only
    # the 24 tau-dependent middle pulses (two per hopping piece) and the 12
    # on-site rotations stack one matrix per tau
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
    columns = list(zip(*(circuit.step for circuit in grid[1:])))
    ndims = [m.ndim for _, m in gates._local_matrices(columns)]
    assert (len(ndims), ndims.count(3), ndims.count(2)) == (276, 36, 240)


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
    state = random_state(3)
    assert np.array_equal(gates.simulate(loaded, state), gates.simulate(circuit, state))
    assert fused_error(loaded, state) <= 1e-12


@pytest.mark.parametrize("steps", [2, 3, 5, 7, 0, -1, "3", None])
def test_fused_ignores_wrong_steps_metadata(steps):
    # metadata never steers simulation, whatever "steps" entry it carries
    honest = chain_circuit(2, 3)
    # a flat circuit whose last step differs from the first two in one angle
    tampered = list(honest.ops)
    tampered[-1] = replace(tampered[-1], phi=tampered[-1].phi + 0.4)
    flat = Circuit(2, tuple(tampered))
    state = random_state(2)
    assert fused_error(flat, state) <= 1e-12
    for circuit in (honest, flat):
        relabelled = replace(circuit, metadata={"steps": steps, "tau": -1.0})
        assert np.array_equal(gates.simulate(relabelled, state), gates.simulate(circuit, state))


def test_fused_empty_and_rotation_only_circuits():
    state = random_state(2)
    assert np.array_equal(gates.simulate(Circuit(2, (), repeat=4), state), state)
    rotations = (
        Rotation(0, 0, 1, "x", 0.3),
        Rotation(1, 1, 3, "y", -0.7),
        Rotation(0, 0, 2, "z", 0.5, virtual=True),
    )
    circuit = Circuit(2, rotations, repeat=3)
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
    assert len(gates._fuse(zip(ops))) == 2
    assert fused_error(circuit, random_state(3)) <= 1e-12


LONE_CIRCUITS = {
    "chain(4) step": lambda: chain_circuit(4, 3),
    "one-site only": lambda: Circuit(2, (
        Rotation(0, 0, 1, "x", 0.3), Rotation(1, 1, 3, "y", -0.7),
        Rotation(0, 0, 2, "z", 0.5, virtual=True)), repeat=2),
    "csum control above target": lambda: Circuit(3, (
        Rotation(2, 0, 1, "x", 0.4), Csum(2, 0), Rotation(0, 1, 2, "y", 0.9), Csum(1, 0))),
}


@pytest.mark.parametrize("name", sorted(LONE_CIRCUITS))
def test_lone_circuit_fuses_as_its_one_run_grid(name):
    # `simulate`'s one-op columns give, bit for bit, run 0 of the grid's stacks
    circuit = LONE_CIRCUITS[name]()
    (_, _, repeat, stacks), = gates.Grid([circuit]).chunks
    blocks = gates._fuse(zip(circuit.step))
    assert repeat == circuit.repeat
    assert [sites for sites, _ in blocks] == [sites for sites, _ in stacks]
    assert all(np.array_equal(m, stack[0]) for (_, m), (_, stack) in zip(blocks, stacks))


def test_fused_rotation_before_any_two_site_gate():
    ops = (
        Rotation(1, 0, 1, "x", 0.6),  # waits for site 1's first block
        Rotation(2, 1, 2, "y", -0.3),  # site 2 never meets a csum
        Csum(0, 1),
        Rotation(0, 2, 3, "x", 1.7),  # after site 0's last csum
    )
    circuit = Circuit(3, ops)
    assert sorted(sites for sites, _ in gates._fuse(zip(ops))) == [(0, 1), (2,)]
    assert fused_error(circuit, random_state(3)) <= 1e-12


def random_ops(rng, sites, count):
    """Random rotations and CSUMs on any site pair, adjacent or not, with
    the control on either side of the target."""
    ops = []
    for _ in range(count):
        if sites > 1 and rng.random() < 0.4:
            control, target = (int(x) for x in rng.choice(sites, size=2, replace=False))
            ops.append(Csum(control, target, adjoint=bool(rng.integers(2))))
        else:
            j = int(rng.integers(0, 3))
            k = int(rng.integers(j + 1, 4))
            axis = str(rng.choice(["x", "y", "z"]))
            ops.append(Rotation(int(rng.integers(sites)), j, k, axis, float(rng.normal())))
    return tuple(ops)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fused_matches_gate_level_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    ops = random_ops(rng, 3, int(rng.integers(0, 25)))
    repeats = int(rng.integers(1, 4))
    circuit = Circuit(3, ops, repeat=repeats)
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


# the one document save_circuit writes for PINNED_CIRCUIT: the file format
PINNED_CIRCUIT = Circuit(2, (Rotation(0, 0, 2, "x", 0.25), Csum(0, 1, adjoint=True)),
                         {"label": "pin"}, 3)
PINNED_DOCUMENT = (
    '{"sites": 2, "ops": [{"kind": "rot", "site": 0, "j": 0, "k": 2, "axis": "x", '
    '"phi": 0.25, "virtual": false}, {"kind": "csum", "control": 0, "target": 1, '
    '"adjoint": true}], "repeat": 3, "metadata": {"label": "pin"}}'
)


def test_saved_circuit_document_is_pinned(tmp_path):
    path = tmp_path / "circuit.json"
    gates.save_circuit(PINNED_CIRCUIT, path)
    assert path.read_bytes() == PINNED_DOCUMENT.encode()
    assert gates.load_circuit(path) == PINNED_CIRCUIT


def saved_document(circuit, path) -> dict:
    """The document `save_circuit` writes for `circuit` at `path`, parsed."""
    gates.save_circuit(circuit, path)
    return json.loads(path.read_text())


@pytest.mark.parametrize("repeat", [0, -1, 1.5, True, "3"])
def test_circuit_and_load_reject_bad_repeat(tmp_path, repeat):
    step = (Csum(0, 1),)
    with pytest.raises(InvalidCircuit):
        Circuit(2, step, repeat=repeat)
    path = tmp_path / "circuit.json"
    doc = saved_document(Circuit(2, step), path)
    doc["repeat"] = repeat
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidCircuit):
        gates.load_circuit(path)


MALFORMED_DOCUMENTS = {
    "levels out of order": (lambda doc: doc["ops"][0].update(j=2, k=1), InvalidSubspace),
    "unknown axis": (lambda doc: doc["ops"][0].update(axis="w"), InvalidSubspace),
    "no sites": (lambda doc: doc.pop("sites"), InvalidCircuit),
    "no repeat": (lambda doc: doc.pop("repeat"), InvalidCircuit),
    "sites as a string": (lambda doc: doc.update(sites="2"), InvalidCircuit),
    "unknown kind": (lambda doc: doc["ops"][1].update(kind="swap"), InvalidCircuit),
    "unknown field": (lambda doc: doc["ops"][1].update(phase=0.5), InvalidCircuit),
    "missing field": (lambda doc: doc["ops"][0].pop("phi"), InvalidCircuit),
    "op as a string": (lambda doc: doc["ops"].__setitem__(1, "csum"), InvalidCircuit),
    "segment of numbers": (lambda doc: doc["ops"].append([1, 2]), InvalidCircuit),
    "nested op list": (lambda doc: doc.update(ops=[doc["ops"]]), InvalidCircuit),
    "metadata a string": (lambda doc: doc.update(metadata="x"), InvalidCircuit),
    "metadata a list": (lambda doc: doc.update(metadata=[1, 2]), InvalidCircuit),
    "metadata a number": (lambda doc: doc.update(metadata=5), InvalidCircuit),
}


# op fields of the wrong type, each refused by the op's own check
MISTYPED_FIELDS = {
    "phi NaN": (0, "phi", float("nan")),
    "phi a string": (0, "phi", "0.5"),
    "virtual a string": (0, "virtual", "no"),
    "adjoint an int": (1, "adjoint", 2),
    "site a bool": (0, "site", True),
    "site a float": (0, "site", 1.0),
    "level a float": (0, "j", 0.0),
}


@pytest.mark.parametrize("case", sorted(MISTYPED_FIELDS))
def test_mistyped_op_fields_raise_invalid_circuit(tmp_path, case):
    index, name, value = MISTYPED_FIELDS[case]
    ops = (Rotation(0, 0, 2, "x", 0.1), Csum(0, 1))
    with pytest.raises(InvalidCircuit):
        replace(ops[index], **{name: value})
    path = tmp_path / "circuit.json"
    doc = saved_document(Circuit(2, ops), path)
    doc["ops"][index][name] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidCircuit):
        gates.load_circuit(path)


@pytest.mark.parametrize("data", [b"", b"{not json", b"\xff"],
                         ids=["empty", "not json", "not text"])
def test_load_circuit_refuses_a_file_that_is_not_json(tmp_path, data):
    # json.JSONDecodeError (UnicodeDecodeError for "not text") once escaped
    path = tmp_path / "circuit.json"
    path.write_bytes(data)
    with pytest.raises(InvalidCircuit, match="malformed circuit document"):
        gates.load_circuit(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_circuit_documents_raise_typed_errors(tmp_path, case):
    corrupt, error = MALFORMED_DOCUMENTS[case]
    path = tmp_path / "circuit.json"
    doc = saved_document(Circuit(2, (Rotation(0, 0, 2, "x", 0.1), Csum(0, 1))), path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(error):
        gates.load_circuit(path)


# SHA-256 of the save_circuit bytes for J = 1, v = 2, steps = 30, recorded
# when the on-site layer's angles came to be solved by the same virtual-Z
# emitter as the corrections (last-bit changes in those angles only); the
# earlier writer, reading these files and saving them again, writes the same
# bytes: the file format must not move.
CIRCUIT_FILE_DIGESTS = {
    ("chain:8", 0.3): "ae5a0738b400a0a6ad22254c19e2bef5906f50bb014c4220d4441ff94ec382cc",
    ("chain:8", 2.7): "db7ff158c73c516485654ad70a2c811de8de6dc24db3126b5ea4acdb7f870f86",
    ("ladder:2x4", 0.3): "6a74d6b670d8577827c6b1e93a9d793432530b1b785eea5bcdf8bb278e25471d",
    ("ladder:2x4", 2.7): "68c81d35527b93e8e142d931d0b15aec6537d021afe155dab41053003bc277f4",
}


@pytest.mark.parametrize("geometry, tau", sorted(CIRCUIT_FILE_DIGESTS))
def test_saved_circuit_bytes_are_pinned(tmp_path, geometry, tau):
    mh = mapping.build_mapped_hamiltonian(mapping.parse_geometry(geometry), 1.0, 2.0)
    path = tmp_path / "circuit.json"
    gates.save_circuit(transpile.trotter_step_circuit(mh, tau, 30), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CIRCUIT_FILE_DIGESTS[(geometry, tau)]


def test_circuit_json_keeps_repeat_and_writes_one_step(tmp_path):
    circuit = chain_circuit(3, 5)
    path = tmp_path / "circuit.json"
    gates.save_circuit(circuit, path)
    doc = json.loads(path.read_text())
    assert doc["repeat"] == 5
    assert len(doc["ops"]) == len(circuit.step)
    assert all(isinstance(entry, dict) for entry in doc["ops"])
    assert len(circuit.step) == len(circuit.ops) // 5
    loaded = gates.load_circuit(path)
    assert loaded == circuit and loaded.repeat == 5
    assert gates.count_gates(loaded) == gates.count_gates(Circuit(3, circuit.ops))


@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_fused_batch_columns_are_bit_identical(sites, width, seed):
    rng = np.random.default_rng(seed)
    circuit = Circuit(sites, random_ops(rng, sites, int(rng.integers(0, 30))),
                      repeat=int(rng.integers(1, 4)))
    batch = np.column_stack([random_state(sites, rng) for _ in range(width)])
    out = gates.simulate(circuit, batch)
    assert out.shape == batch.shape
    for k in range(width):
        assert np.array_equal(out[:, k], gates.simulate(circuit, batch[:, k]))
    assert float(np.max(np.abs(out - fold(circuit, batch)))) <= 1e-12


def test_simulate_runs_a_zero_width_batch():
    circuit = chain_circuit(3, 2)
    assert gates.simulate(circuit, np.zeros((64, 0))).shape == (64, 0)


def test_simulate_rejects_a_state_of_the_wrong_size():
    with pytest.raises(ValueError, match="amplitudes"):
        gates.simulate(Circuit(2, (Csum(0, 1),)), random_state(3))


# --- grid simulation in a sector ------------------------------------------


GREENS_SECTOR = mapping.token_state(("u", "ud", "u", "d"))[0]


def greens_grid_circuits(steps=30):
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    return [transpile.trotter_step_circuit(mh, t, steps) for t in emulate.LESSER_TIMES]


def sector_state(sector, width=None, rng=RNG):
    shape = (len(sector.basis),) if width is None else (len(sector.basis), width)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=0)


def full_register_runs(circuits, sector, state):
    """The reference: `gates.simulate` circuit by circuit on the whole
    register, from the sector state embedded in it, read on the sector."""
    full = np.zeros((4**sector.site_count, *state.shape[1:]), dtype=complex)
    full[sector.basis] = state
    return np.stack([gates.simulate(c, full) for c in circuits])[:, sector.basis]


def assert_grid_is_circuit_by_circuit(circuits, state):
    out = gates.simulate_sector(gates.Grid(circuits), GREENS_SECTOR, state)
    assert out.shape == (len(circuits), *state.shape)
    assert np.max(np.abs(out - full_register_runs(circuits, GREENS_SECTOR, state))) <= 1e-12
    return out


@pytest.mark.parametrize("batch_bytes", [gates.GRID_BATCH_BYTES, 3 * 256 * 2 * 16])
def test_grid_matches_circuit_by_circuit_on_the_greens_grid(monkeypatch, batch_bytes):
    # the 21 LESSER_TIMES circuits, t = 0 (the empty step) included, on a
    # (24, 2) batch; the smaller cap runs the 20 nonzero taus 2 at a time
    monkeypatch.setattr(gates, "GRID_BATCH_BYTES", batch_bytes)
    circuits = greens_grid_circuits()
    assert circuits[0].step == ()
    assert_grid_is_circuit_by_circuit(circuits, sector_state(GREENS_SECTOR, 2))


def test_grid_fuses_each_structure_once(monkeypatch):
    transpile.trotter_grid.cache_clear()  # a grid cached by an earlier test is fused already
    fused = []
    original = gates._fuse

    def counting_fuse(items):
        fused.append(items)
        return original(items)

    state = sector_state(GREENS_SECTOR)
    monkeypatch.setattr(gates, "_fuse", counting_fuse)
    gates.simulate_sector(gates.Grid(greens_grid_circuits()), GREENS_SECTOR, state)
    # the empty t = 0 step, then the 20 nonzero taus in one pass
    expected = [0, len(greens_grid_circuits()[1].step)]
    assert [len(items) for items in fused] == expected
    # a cached grid fuses on its first run only
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    for _ in range(2):
        grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
        gates.simulate_sector(grid, GREENS_SECTOR, state)
    assert [len(items) for items in fused] == expected * 2


def test_greens_grid_keeps_one_step_and_gathers_it_once_per_slice(monkeypatch):
    # the nonzero taus' group keeps one step's 3 blocks and its repeat, not
    # 90 blocks; each slice gathers each of them once
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
    (zero, _, _, empty), (taus, _, repeat, blocks) = grid.chunks
    assert (zero, empty, taus) == ([0], (), list(range(1, 21)))
    assert (len(blocks), repeat) == (3, 30)
    gathered = []
    gather = mapping.Sector.gather

    def counting_gather(sector, sites, stack):
        gathered.append(sites)
        return gather(sector, sites, stack)

    monkeypatch.setattr(mapping.Sector, "gather", counting_gather)
    state = sector_state(GREENS_SECTOR)
    gates.simulate_sector(grid, GREENS_SECTOR, state)  # the 20 runs in one slice
    assert gathered == [sites for sites, _ in blocks]
    gathered.clear()
    monkeypatch.setattr(gates, "GRID_BATCH_BYTES", 2 * 16 * (5 * 24 + 4 * 24 * 3))  # 2 a slice
    gates.simulate_sector(grid, GREENS_SECTOR, state)
    assert gathered == [sites for sites, _ in blocks] * 10


def test_grid_preparation_is_linear_in_the_ops(monkeypatch):
    # one rotation matrix per distinct shared pulse plus one batched call per
    # column of tau-dependent pulses (once 196 scalar calls), and each op's
    # sites computed once per circuit plus once per column (once twice per
    # op per circuit)
    transpile.trotter_grid.cache_clear()
    gates._rotation_matrix.cache_clear()
    angles, site_calls = [], []

    def counting_rotation(j, k, axis, phi):
        angles.append(np.shape(phi))
        return rotation(j, k, axis, phi)

    def counting_sites(op):
        site_calls.append(op)
        return op_sites(op)

    rotation, op_sites = gamma.rotation, gates._op_sites
    monkeypatch.setattr(gamma, "rotation", counting_rotation)
    monkeypatch.setattr(gates, "_op_sites", counting_sites)
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
    grid.chunks
    columns = list(zip(*(circuit.step for circuit in grid[1:])))
    varying = [col for col in columns if len(set(map(id, col))) > 1]
    shared = {(op.j, op.k, op.axis, op.phi) for col in columns if len(set(map(id, col))) == 1
              for op in col[:1] if isinstance(op, Rotation)}
    assert (len(shared), len(varying)) == (16, 36)
    assert sorted(angles) == [()] * len(shared) + [(len(grid) - 1,)] * len(varying)
    assert len(site_calls) == sum(len(circuit.step) for circuit in grid) + len(columns)


@pytest.mark.parametrize("width", [1, 3])
def test_cached_grid_in_small_chunks_matches_circuit_by_circuit(monkeypatch, width):
    # fused once at the default cap, then sliced 3 runs (width 1) or 1 run
    # (width 3) per slice: a run of the nonzero taus counts 16 B times 5
    # states and its 3 stacked blocks' 4 entries per amplitude
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    grid = transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30)
    gates.simulate_sector(grid, GREENS_SECTOR, sector_state(GREENS_SECTOR))
    monkeypatch.setattr(gates, "GRID_BATCH_BYTES", 3 * 16 * 24 * (5 + 4 * 3))
    state = sector_state(GREENS_SECTOR, None if width == 1 else width)
    assert_grid_is_circuit_by_circuit(grid, state)


def test_second_greens_component_reuses_the_grid(monkeypatch):
    transpile.trotter_grid.cache_clear()
    args = (mapping.chain(4), 1.0, 1.0, ("u", "ud", "u", "d"))
    emulate.lesser_gf_circuit(*args, [(2, 2, "down")], emulate.LESSER_TIMES, 30)
    calls = []

    def counting(original):
        def wrapper(*a):
            calls.append(original.__name__)
            return original(*a)
        return wrapper

    monkeypatch.setattr(transpile, "trotter_step_circuit",
                        counting(transpile.trotter_step_circuit))
    monkeypatch.setattr(gates, "_fuse", counting(gates._fuse))
    cached, = emulate.lesser_gf_circuit(*args, [(4, 4, "down")], list(emulate.LESSER_TIMES), 30)
    assert calls == []
    transpile.trotter_grid.cache_clear()
    fresh, = emulate.lesser_gf_circuit(*args, [(4, 4, "down")], emulate.LESSER_TIMES, 30)
    assert calls.count("trotter_step_circuit") == len(emulate.LESSER_TIMES)
    assert np.array_equal(cached.values, fresh.values)


def test_grid_of_reloaded_circuits_matches_circuit_by_circuit(tmp_path):
    # JSON reloads hold equal ops but share no op object, so every column stacks
    circuits = greens_grid_circuits()
    reloaded = []
    for t, circuit in enumerate(circuits):
        gates.save_circuit(circuit, tmp_path / f"circuit_{t}.json")
        reloaded.append(gates.load_circuit(tmp_path / f"circuit_{t}.json"))
    assert reloaded == circuits
    batch = sector_state(GREENS_SECTOR, 2)
    out = assert_grid_is_circuit_by_circuit(reloaded, batch)
    assert np.array_equal(out, gates.simulate_sector(gates.Grid(circuits), GREENS_SECTOR, batch))


def test_grid_runs_a_one_dimensional_state():
    assert_grid_is_circuit_by_circuit(greens_grid_circuits(3), sector_state(GREENS_SECTOR))
    empty = gates.simulate_sector(gates.Grid(), GREENS_SECTOR, sector_state(GREENS_SECTOR))
    assert empty.shape == (0, 24)


def mixed_structure_circuits():
    # ladder(2,2) has 4 sites too, and its rungs (1,3), (2,4) are the
    # non-adjacent blocks; one circuit repeats, one differs only in repeat
    chain = greens_grid_circuits(2)
    mh = mapping.build_mapped_hamiltonian(mapping.parse_geometry("ladder:2x2"), 1.0, 2.0)
    ladder = [transpile.trotter_step_circuit(mh, tau, 2) for tau in (0.4, 0.9, 0.0)]
    return [ladder[0], chain[3], ladder[1], chain[0], ladder[2], chain[5], ladder[0],
            replace(chain[3], repeat=3)]


def test_grid_of_mixed_structures_matches_circuit_by_circuit():
    assert_grid_is_circuit_by_circuit(mixed_structure_circuits(), sector_state(GREENS_SECTOR, 3))


def test_every_grid_block_is_a_stack_over_its_groups_runs():
    mh = mapping.build_mapped_hamiltonian(mapping.chain(4), 1.0, 1.0)
    same = greens_grid_circuits(2)[3]
    grids = {
        "greens": transpile.trotter_grid(mh, tuple(emulate.LESSER_TIMES), 30),
        "mixed": gates.Grid(mixed_structure_circuits()),
        "shared": gates.Grid([same, same]),  # every block broadcast from one matrix
    }
    for grid in grids.values():
        for group, _, _, blocks in grid.chunks:
            for sites, m in blocks:
                assert m.shape == (len(group), 4 ** len(sites), 4 ** len(sites))
    shared = [m for _, m in grids["shared"].chunks[0][3]]
    assert all(np.array_equal(m[0], m[1]) for m in shared)
    assert_grid_is_circuit_by_circuit(grids["shared"], sector_state(GREENS_SECTOR, 3))


def test_grid_rejects_circuits_of_another_site_count():
    circuits = [greens_grid_circuits(1)[2], chain_circuit(3, 1)]
    with pytest.raises(StateSizeMismatch, match="a circuit of 3 sites"):
        gates.simulate_sector(gates.Grid(circuits), GREENS_SECTOR, sector_state(GREENS_SECTOR))
    with pytest.raises(StateSizeMismatch, match="amplitudes"):
        gates.simulate(circuits[0], random_state(3))


@pytest.mark.parametrize("batch_bytes", [gates.GRID_BATCH_BYTES, 1])
def test_sector_grid_matches_the_full_register_grid(monkeypatch, batch_bytes):
    # the greens grid on a (24, 2) batch of the chain(4) sector of u,ud,u,d,
    # column by column; the 1-byte cap runs every tau alone
    monkeypatch.setattr(gates, "GRID_BATCH_BYTES", batch_bytes)
    assert len(GREENS_SECTOR.basis) == 24
    circuits, batch = greens_grid_circuits(), sector_state(GREENS_SECTOR, 2)
    out = assert_grid_is_circuit_by_circuit(circuits, batch)
    for k in range(2):
        lone = gates.simulate_sector(gates.Grid(circuits), GREENS_SECTOR, batch[:, k])
        assert np.max(np.abs(out[..., k] - lone)) <= 1e-15


def test_sector_grid_refuses_a_block_that_couples_charges():
    # X^{12} exchanges the up and down levels of one site
    sector = mapping.sector(2, 1, 1)
    circuit = Circuit(2, (Csum(0, 1), Rotation(1, 1, 2, "x", 1e-6), Csum(0, 1, adjoint=True)))
    state = sector_state(sector)
    with pytest.raises(SynthesisResidual, match="couples different"):
        gates.simulate_sector(gates.Grid([circuit]), sector, state)


def test_sector_grid_rejects_a_state_or_circuit_of_another_size():
    sector = mapping.sector(2, 1, 1)
    with pytest.raises(StateSizeMismatch, match="sector has 4"):
        gates.simulate_sector(gates.Grid([chain_circuit(2, 1)]), sector, np.ones(5))
    with pytest.raises(StateSizeMismatch, match="a circuit of 3 sites"):
        gates.simulate_sector(gates.Grid([chain_circuit(3, 1)]), sector, np.ones(4))


def test_sector_grid_runs_an_empty_sector():
    # no state has -1 up particles
    sector = mapping.sector(2, -1, 0)
    grid = gates.Grid([chain_circuit(2, 1)] * 2)
    assert gates.simulate_sector(grid, sector, np.zeros(0)).shape == (2, 0)
