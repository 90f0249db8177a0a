"""The traced benchmark (`perfbench/run.py --trace 1`) wraps package
functions by module attribute, so deleting or renaming one of them breaks
it. Installing its tracer here makes such a change fail the tests."""

from pathlib import Path

import numpy as np

from ququart_hubbard import gates, mapping, oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_wraps_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (gates.simulate, oracle.lesser_gf, np.linalg.eigh)
    tracer = tracing.Tracer("tests")
    try:
        tracing.install(tracer)  # an AttributeError if a wrapped name is gone
        assert gates.simulate is not originals[0]
        h = oracle.fermionic_hamiltonian(mapping.chain(2), 1.0, 2.0)
        oracle.lesser_gf(h, ("u", "d"), 1, 1, "up", [0.0, 1.0])
    finally:
        tracer.restore()
    assert (gates.simulate, oracle.lesser_gf, np.linalg.eigh) == originals
    # the ket's and the bra's sector each take one eigh inside lesser_gf
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("oracle.fermionic_hamiltonian", -1), ("oracle.lesser_gf", -1),
        ("oracle.eigh", 1), ("oracle.eigh", 1),
    ]
