"""Per-step gate budgets: ququart encoding vs the qubit zig-zag layout."""

from ququart_hubbard import gates, mapping, resources, transpile

if __name__ == "__main__":
    reports = []
    for lattice in ("1x8", "2x4"):
        geometry = mapping.parse_geometry(lattice)
        qfm = resources.qfm_resources(geometry)
        reports.extend([qfm, resources.qubit_baseline_resources(lattice)])
        # cross-check the table against an actually emitted circuit
        mh = mapping.build_mapped_hamiltonian(geometry, 1.0, 2.0)
        tally = gates.count_gates(transpile.trotter_step_circuit(mh, 1.0, 1))
        assert tally.two_qudit == qfm.two_body_gates_per_step
        assert tally.single_qudit_physical == qfm.single_qudit_physical_per_step
    print(resources.format_table(reports))
