"""Call-boundary spans for the traced benchmark run.

The tracer replaces public functions of the package's modules with
wrappers, by module attribute, and puts the originals back on restore.
Only call boundaries are wrapped (``gates.simulate``, never the per-op
``gates.apply``); per-call counts are derived from the arguments and the
return value, for example ``len(circuit.ops)``.

Each wrapped call records a span (name, start, end, parent, run id) in
memory. A span's self time is its duration minus the part of its interval
that its direct child spans cover. The tracer's own bookkeeping, done
outside every span it opens, is summed into ``overhead``.
"""

import functools
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ququart_hubbard import emulate, gamma, gates, mapping, oracle, resources, transpile

COMPLEX_BYTES = 16
MODULES = ("gamma", "mapping", "gates", "transpile", "oracle", "emulate", "resources")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    run_id: str

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Wraps module attributes and records one span per wrapped call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counters = defaultdict(float)
        self.overhead = 0.0
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(counters, args, kwargs, result)`` runs after the call and
        adds argument-derived counts; its cost is booked as overhead.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            self.overhead += (span.start - t0) + (perf_counter() - span.end)
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def span_rows(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.run_id] for s in self.spans]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a = max(a, reach)
        b = min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list:
    """Per span: duration minus the part its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - covered_length(children[k], s.start, s.end)
        for k, s in enumerate(spans)
    ]


def install(tracer: Tracer) -> None:
    """Wrap the package's public call boundaries that the workloads reach."""
    count_gates = gates.count_gates  # unwrapped, for counts taken inside wrappers

    def simulate_counts(c, args, kwargs, result):
        circuit, state = args
        ops = len(circuit.ops)
        size = np.asarray(state).size
        c["gates.ops_applied"] += ops
        c["gates.virtual_z"] += count_gates(circuit).virtual_z
        c["gates.amplitudes"] = max(c["gates.amplitudes"], size)
        # computed, not measured: every op reads and writes the whole state
        c["gates.bytes_moved_computed"] += ops * size * COMPLEX_BYTES * 2

    def json_write_counts(c, args, kwargs, result):
        c["gates.json_bytes"] += os.path.getsize(args[1])

    def emitted_counts(c, args, kwargs, result):
        c["transpile.circuits"] += 1
        c["transpile.ops_emitted"] += len(result.ops)

    def dim_counts(c, args, kwargs, result):
        c["oracle.hilbert_dim"] = max(c["oracle.hilbert_dim"], result.shape[0])

    def resource_counts(c, args, kwargs, result):
        c["resources.two_qudit_per_step"] = result.two_body_gates_per_step
        c["resources.single_qudit_physical_per_step"] = result.single_qudit_physical_per_step

    tracer.wrap(gates, "simulate", "gates.simulate", simulate_counts)
    tracer.wrap(gates, "save_circuit", "gates.json_write", json_write_counts)
    tracer.wrap(gates, "load_circuit", "gates.json_read")
    tracer.wrap(gates, "count_gates", "gates.count_gates")
    tracer.wrap(transpile, "trotter_step_circuit", "transpile.trotter_step_circuit", emitted_counts)
    tracer.wrap(transpile, "synthesis_report", "transpile.synthesis_report")
    tracer.wrap(gamma, "rotation", "gamma.rotation")
    tracer.wrap(oracle, "fermionic_hamiltonian", "oracle.fermionic_hamiltonian", dim_counts)
    tracer.wrap(oracle, "lesser_gf", "oracle.lesser_gf")
    tracer.wrap(oracle, "retarded_gf", "oracle.retarded_gf")
    tracer.wrap(oracle, "gf_fourier", "oracle.gf_fourier")
    # oracle reaches LAPACK through np.linalg.eigh; no other package code
    # on the workloads' paths calls it
    tracer.wrap(np.linalg, "eigh", "oracle.eigh")
    tracer.wrap(mapping, "dense_hamiltonian", "mapping.dense_hamiltonian")
    tracer.wrap(mapping, "map_fermion", "mapping.map_fermion")
    tracer.wrap(mapping, "build_mapped_hamiltonian", "mapping.build_mapped_hamiltonian")
    tracer.wrap(mapping, "save_hamiltonian", "mapping.save_hamiltonian")
    tracer.wrap(emulate, "lesser_gf_pair", "emulate.lesser_gf_pair")
    tracer.wrap(emulate, "circuit_populations", "emulate.circuit_populations")
    tracer.wrap(resources, "qfm_resources", "resources.qfm_resources", resource_counts)


# span name -> per-layer metric holding its summed duration
TIMED_SPANS = {
    "gates.simulate": "gates.simulate_s",
    "gates.json_write": "gates.json_write_s",
    "gates.json_read": "gates.json_read_s",
    "gates.count_gates": "gates.count_gates_s",
    "transpile.trotter_step_circuit": "transpile.trotter_step_circuit_s",
    "transpile.synthesis_report": "transpile.synthesis_report_s",
    "gamma.rotation": "gamma.rotation_s",
    "oracle.fermionic_hamiltonian": "oracle.fermionic_hamiltonian_s",
    "oracle.eigh": "oracle.eigh_s",
    "oracle.lesser_gf": "oracle.lesser_gf_s",
    "oracle.retarded_gf": "oracle.retarded_gf_s",
    "oracle.gf_fourier": "oracle.gf_fourier_s",
    "mapping.dense_hamiltonian": "mapping.dense_hamiltonian_s",
    "mapping.map_fermion": "mapping.map_fermion_s",
    "mapping.build_mapped_hamiltonian": "mapping.build_mapped_hamiltonian_s",
    "mapping.save_hamiltonian": "mapping.save_hamiltonian_s",
    "emulate.lesser_gf_pair": "emulate.lesser_gf_pair_s",
    "emulate.circuit_populations": "emulate.circuit_populations_s",
}

# span name -> per-layer metric holding its call count
COUNTED_SPANS = {
    "gates.simulate": "gates.simulate_calls",
    "gamma.rotation": "gamma.rotation_calls",
    "oracle.eigh": "oracle.eigh_calls",
    "mapping.map_fermion": "mapping.map_fermion_calls",
}

COUNTERS = (
    "gates.ops_applied",
    "gates.amplitudes",
    "gates.bytes_moved_computed",
    "gates.json_bytes",
    "transpile.circuits",
    "transpile.ops_emitted",
    "oracle.hilbert_dim",
    "resources.two_qudit_per_step",
    "resources.single_qudit_physical_per_step",
)

DERIVED = ("gates.us_per_op", "gates.virtual_z_share", "trace_overhead_s", "bench.self_s")

LAYER_METRICS = (
    tuple(TIMED_SPANS.values())
    + tuple(COUNTED_SPANS.values())
    + COUNTERS
    + DERIVED
    + tuple(f"{m}.self_s" for m in MODULES)
)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer numbers of one traced execution lasting ``wall_s``."""
    out = {name: 0.0 for name in LAYER_METRICS}
    spans = tracer.spans
    for span, own in zip(spans, self_times(spans)):
        if span.name in TIMED_SPANS:
            out[TIMED_SPANS[span.name]] += span.end - span.start
        if span.name in COUNTED_SPANS:
            out[COUNTED_SPANS[span.name]] += 1
        out[f"{span.module}.self_s"] += own
    for name in COUNTERS:
        out[name] = tracer.counters[name]
    ops = tracer.counters["gates.ops_applied"]
    if ops:
        out["gates.us_per_op"] = out["gates.simulate_s"] / ops * 1e6
        out["gates.virtual_z_share"] = tracer.counters["gates.virtual_z"] / ops
    top = [(s.start, s.end) for s in spans if s.parent < 0]
    out["bench.self_s"] = wall_s - covered_length(top, -math.inf, math.inf)
    out["trace_overhead_s"] = tracer.overhead
    return out
