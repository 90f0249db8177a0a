"""Acceptance suite: one test per entry of `ququart_hubbard.acceptance.CHECKS`,
each printing its PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The checks themselves live in the registry, which `ququart-hubbard validate`
runs too. Entries that share a name become one test parametrized by case.
"""

import dataclasses
from itertools import groupby

import numpy as np
import pytest

from ququart_hubbard import acceptance, cli, emulate, gates, mapping, oracle, transpile
from ququart_hubbard.acceptance import CHECKS


def _run(check):
    result = check.run()
    print(result.line())
    assert result.passed, result.line()


def _make_test(entries):
    if len(entries) == 1:
        return lambda: _run(entries[0])

    @pytest.mark.parametrize("check", entries, ids=[c.case for c in entries])
    def test(check):
        _run(check)

    return test


for _name, _entries in groupby(CHECKS, key=lambda c: c.name):
    globals()[f"test_{_name}"] = _make_test(list(_entries))


def test_criterion_3_fails_when_a_hamiltonian_couples_sectors(monkeypatch):
    # the planted entry is left over in mapped H - S P H_exact P^T S^dag; a NaN
    # once passed as a leak of max(0, nan) = 0
    for module, builder in ((mapping, "dense_hamiltonian"), (oracle, "fermionic_hamiltonian")):
        for value in (1e-9, np.nan):
            with monkeypatch.context() as patch:
                patch.setattr(module, builder, couple_sectors(getattr(module, builder), value))
                result = acceptance.spectrum_equivalence()
            assert not result.passed, (builder, value)
            assert result.detail == f"worst {value:.2e}"


def couple_sectors(build, value):
    """`build` with ``value`` at H[0, 1] and H[1, 0]: in either lane, indices
    0 and 1 differ in the last site's N_dn."""
    def build_coupled(*args):
        h = build(*args)
        h[0, 1] = h[1, 0] = value
        return h
    return build_coupled


def _negated(*pieces):
    return lambda factors: {k: (-left if k in pieces else left, right)
                            for k, (left, right) in factors.items()}


def _nan_in_one_factor(factors):
    left = factors[1][0].copy()
    left.flat[np.flatnonzero(left)[0]] = np.nan
    return {**factors, 1: (left, factors[1][1])}


# each maps the {piece: (left, right)} factors of a bond to a mutant's
HOPPING_MUTANTS = {
    # J -> -J for spin up only: a gauge change, so the spectra stay equal
    "spin-up-hopping-negated": _negated(1, 2),
    "one-factor-negated": _negated(1),
    "nan-in-one-factor": _nan_in_one_factor,
}


@pytest.mark.parametrize("mutant", [*HOPPING_MUTANTS, "interaction-negated"])
def test_a_mutated_mapping_fails_criterion_3_and_map(mutant, monkeypatch, tmp_path, capsys):
    if mutant in HOPPING_MUTANTS:
        factors = HOPPING_MUTANTS[mutant](mapping.hopping_local_factors())
        monkeypatch.setattr(mapping, "hopping_local_factors", lambda: factors)
    else:
        prefactor = mapping.resolve_int_prefactor()
        monkeypatch.setattr(mapping, "resolve_int_prefactor", lambda: -prefactor)
    result = acceptance.spectrum_equivalence()
    assert not result.passed, result.line()
    assert cli.main(["map", "--geometry", "chain:3", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().out.endswith(", FAILED above 1e-10\n")


SMALL_GEOMETRIES = [mapping.chain(L) for L in range(1, 6)] + [mapping.ladder(2, 2)]


@pytest.mark.parametrize("geom", SMALL_GEOMETRIES, ids=lambda g: g.label)
def test_relabelling_complements_the_fock_index_with_unit_signs(geom):
    L = geom.site_count
    register, sign = acceptance.relabelling(L)
    assert np.array_equal(register, 4**L - 1 - np.arange(4**L))
    assert np.isin(sign, (1, -1)).all()


@pytest.mark.parametrize("geom", SMALL_GEOMETRIES[:4] + SMALL_GEOMETRIES[-1:],
                         ids=lambda g: g.label)
def test_mapped_fermions_are_the_relabelled_oracle_fermions(geom):
    # mapped c on S|P(f)> is S P c_exact |f>: S[f] coefficient |dest> = sign S[t] |P(t)>
    L = geom.site_count
    fock = np.arange(4**L)
    register, sign = acceptance.relabelling(L)
    for site in range(1, L + 1):
        for spin in mapping.SPINS:
            for kind in ("annihilate", "create"):
                dest, coefficient = mapping.fermion_index_map(register, site, spin, kind, L)
                target, exact_sign = oracle._ladder(fock, site, spin, kind, L)
                assert np.array_equal(sign * coefficient, exact_sign * sign[target])
                alive = exact_sign != 0
                assert np.array_equal(dest[alive], register[target[alive]])


@pytest.mark.parametrize("plant", ["third coefficient 2e-10", "smaller coefficient x (1 + 1e-8)"])
def test_criterion_4_fails_on_a_coefficient_off_its_closed_form(monkeypatch, plant):
    # each plant moves one Schmidt coefficient past 1e-10 of (4|cos tau|,
    # 4|sin tau|, 0, ...); a detail other than the reconstruction residual
    # names it
    osd = transpile.osd

    def planted(u):
        dec = osd(u)
        coefficients = dec.coefficients.copy()
        if plant.startswith("third"):
            coefficients[2] = 2e-10
        else:
            coefficients[1] *= 1 + 1e-8
        return dataclasses.replace(dec, coefficients=coefficients)

    monkeypatch.setattr(transpile, "osd", planted)
    result = acceptance.schmidt_structure()
    assert not result.passed
    assert any("residual" not in detail for detail in result.detail.split("; "))


def test_criterion_2_fails_when_the_gt_string_is_dropped(monkeypatch):
    # without the string, c's on different sites commute; Sector.fermion
    # reads the same index map, so this is the c the circuit lane runs
    sector = mapping.Sector(2, 1, 1)
    kept = sector.fermion(2, "up", "annihilate").coefficient
    monkeypatch.setattr(mapping, "GT", np.eye(4, dtype=complex))
    result = acceptance.fermionic_relations_to_four_sites()
    assert not result.passed
    assert result.detail == "worst 2.00e+00"
    assert not np.array_equal(sector.fermion(2, "up", "annihilate").coefficient, kept)


def test_criterion_7_fails_when_the_onsite_phase_is_inverted(monkeypatch):
    # every on-site op inverted is e^{+i v dt n_up n_dn}, the sign of v
    # flipped. Criterion 6 does not see this mutant (its populations read
    # 0.335 > 0.132 > 0.045 and pass); criterion 7's lesser GF does.
    layers = transpile.step_layers

    def inverted_onsite(mh, dt):
        onsite, *bonds = layers(mh, dt)
        return [[[gates.gate_inverse(op) for op in part] for part in onsite], *bonds]

    monkeypatch.setattr(transpile, "step_layers", inverted_onsite)
    transpile.trotter_grid.cache_clear()
    try:
        result = acceptance.greens_functions()
    finally:
        transpile.trotter_grid.cache_clear()  # no mutated grid outlives the test
    assert not result.passed
    assert "worst GF dev 1.1498" in result.detail


def _recording(monkeypatch, module, name):
    """Patch module.name to log each call's (args, result); returns the log."""
    log, original = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        log.append((args, original(*args, **kwargs)))
        return log[-1][1]

    monkeypatch.setattr(module, name, wrapper)
    return log


def test_criterion_7_shares_each_propagation_and_hamiltonian(monkeypatch):
    # one ket per start state and one bra per distinct (j, spin): chain(3)'s
    # three j = 1 pairs take 2 propagations and chain(4)'s two diagonal
    # pairs 3 (10 as one call per component), with one oracle H per
    # geometry (5 as one per component); the spectral part's chain(2) H
    # is not counted
    runs = _recording(monkeypatch, gates, "simulate_sector")
    builds = _recording(monkeypatch, oracle, "fermionic_hamiltonian")
    circuit = _recording(monkeypatch, emulate, "lesser_gf_circuit")
    exact = _recording(monkeypatch, oracle, "lesser_gf")
    result = acceptance.greens_functions()
    monkeypatch.undo()
    assert result.passed
    assert len(runs) == 5
    assert [a[0].label for a, _ in builds if a[0].label != "chain(2)"] == ["chain(3)", "chain(4)"]
    series = [s for _, out in circuit for s in out]
    assert len(series) == len(exact) == 5
    for s, (args, values) in zip(series, exact):
        alone, orac = emulate.lesser_gf_pair(mapping.chain(s.site_count), 1.0, 1.0, args[1],
                                             s.i, s.j, s.spin, emulate.LESSER_TIMES, 30)
        assert np.array_equal(s.values, alone.values)
        assert np.array_equal(values, orac.values)


@pytest.mark.parametrize("grid", [acceptance.TAU_GRID, emulate.LESSER_TIMES, oracle.OMEGAS],
                         ids=["TAU_GRID", "LESSER_TIMES", "OMEGAS"])
def test_shared_grids_refuse_writes(grid):
    # a caller writing into a shared grid would change every later run on it
    with pytest.raises(ValueError, match="read-only"):
        grid[0] = 1.0
