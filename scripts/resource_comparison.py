"""Per-step gate budgets: ququart encoding vs the qubit zig-zag layout."""

from ququart_hubbard import mapping, resources

if __name__ == "__main__":
    reports = []
    for lattice in ("1x8", "2x4"):
        reports.append(resources.qfm_resources(mapping.parse_geometry(lattice)))
        reports.append(resources.qubit_baseline_resources(lattice))
    print(resources.format_table(reports))
