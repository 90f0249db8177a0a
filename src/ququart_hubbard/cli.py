"""Command-line entry point.

Subcommands: map, transpile, evolve, greens, resources, validate.
Options come from flags, one `RunConfig` field each, spelled `--name-with-dashes`;
each subcommand takes only the options it reads. Init tokens go through
`mapping.token_levels`, and pair spins and their initials come from `mapping.SPINS`.
Exit codes: 0 success, 1 config or usage error or stdout closed by its
reader (no traceback), 2 validation failure, 3 synthesis residual. The
text formats of the outputs live here; every CSV goes through `_write_csv`.
"""

import argparse
import csv
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import acceptance, emulate, gates, mapping, oracle, resources, transpile
from .errors import (ConfigInvalid, DimensionTooLarge, QuquartError, SynthesisResidual,
                     UnsupportedLattice)


OBSERVABLES = ("lesser_gf", "retarded_gf", "spectral")


def _option(default, help=None, bound=None):
    """A RunConfig field: its flag is `--name-with-dashes`, and `bound` is a
    lower bound such as (">", 0)."""
    return field(default=default, metadata={"help": help, "bound": bound})


_BOUNDS = {">": operator.gt, ">=": operator.ge}


@dataclass
class RunConfig:
    """Every option, declared once: each field is a flag on the
    subcommands that read it (`_COMMANDS`), in this order in `--help`."""

    geometry: str = _option("chain:2", "chain:L | ladder:2xN | 1x8 | 2x4")
    J: float = _option(1.0, "hopping amplitude")
    v: float = _option(2.0, "on-site interaction")
    init: str = _option("u,d", f"comma-separated site tokens from {{{','.join(mapping.TOKENS)}}}")
    tau_start: float = _option(acceptance.TAU_SPAN[0])
    tau_stop: float = _option(acceptance.TAU_SPAN[1])
    tau_step: float = _option(acceptance.TAU_SPAN[2], bound=(">", 0))
    steps: int = _option(30, "Trotter step count", bound=(">=", 1))
    pairs: str = _option("1,1,up", "Green's function pairs 'i,j,spin;...'")
    observables: tuple = _option(("lesser_gf",), f"comma list: {','.join(OBSERVABLES)}")
    eta: float = _option(0.1, "spectral damping rate", bound=(">", 0))
    tmax: float = _option(oracle.RETARDED_T_MAX, "time-grid extent", bound=(">", 0))
    dt: float = _option(oracle.RETARDED_DT, "time-grid spacing", bound=(">", 0))
    beta: float = _option(1.0, "inverse temperature", bound=(">=", 0))
    out: str = _option("out", "output directory")

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigInvalid(f"{f.name}: must be finite, got {value!r}")
            if f.metadata["bound"]:
                op, low = f.metadata["bound"]
                if not _BOUNDS[op](value, low):
                    raise ConfigInvalid(f"{f.name}: must be {op} {low}")
        unknown = [name for name in self.observables if name not in OBSERVABLES]
        if unknown:
            raise ConfigInvalid(
                f"observables: unknown {', '.join(map(repr, unknown))}; "
                f"choose from {','.join(OBSERVABLES)}"
            )
        try:
            mapping.parse_geometry(self.geometry)
        except UnsupportedLattice as exc:
            raise ConfigInvalid(f"geometry: {exc}")

    def require_init(self) -> tuple:
        """Init tokens checked against the geometry; for evolve/greens."""
        tokens = tuple(t.strip() for t in self.init.split(","))
        try:
            mapping.token_levels(tokens)
        except ValueError as exc:
            raise ConfigInvalid(f"init: {exc}")
        sites = self.geometry_obj().site_count
        if len(tokens) != sites:
            raise ConfigInvalid(f"init: {len(tokens)} tokens for {sites} sites")
        return tokens

    def tau_grid(self) -> np.ndarray:
        """evolve's taus; the one reader of tau_stop, so the one check on it."""
        if self.tau_stop < self.tau_start:
            raise ConfigInvalid("tau grid: stop precedes start")
        return oracle.uniform_grid(self.tau_start, self.tau_stop, self.tau_step)

    def geometry_obj(self) -> mapping.LatticeGeometry:
        return mapping.parse_geometry(self.geometry)

    def parsed_pairs(self) -> list:
        """(i, j, spin) triples with both sites checked against the geometry."""
        sites = self.geometry_obj().site_count
        out = []
        for chunk in self.pairs.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = [p.strip() for p in chunk.split(",")]
            if len(parts) != 3:
                raise ConfigInvalid(f"pairs: expected 'i,j,spin', got {chunk!r}")
            spin = {s[0]: s for s in mapping.SPINS}.get(parts[2], parts[2])
            if spin not in mapping.SPINS:
                raise ConfigInvalid(f"pairs: unknown spin {parts[2]!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigInvalid(f"pairs: site indices must be integers, got {chunk!r}")
            for site in (i, j):
                if not 1 <= site <= sites:
                    raise ConfigInvalid(f"pairs: site {site} outside 1..{sites}")
            out.append((i, j, spin))
        if not out:
            raise ConfigInvalid("pairs: empty")
        return out


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then flags, for the fields the subcommand reads."""
    config = RunConfig()
    for key in _COMMANDS[args.command][2]:
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config


def _ensure_out(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- output files -----------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows, comment: str = "") -> None:
    """Every CSV the CLI writes: an LF-terminated `# comment` line if given,
    then csv rows (CRLF-terminated) with floats at 17 significant digits,
    so they round-trip losslessly."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(x) if isinstance(x, float) else x for x in row] for row in rows)
    print(f"wrote {path}")


def _write_series(path: Path, s: oracle.GreensSeries) -> None:
    _write_csv(path, ["t", "re", "im"], zip(s.times, s.values.real, s.values.imag),
               f"i={s.i} j={s.j} spin={s.spin} kind={s.kind} L={s.site_count} J={_fmt(s.J)} "
               f"v={_fmt(s.v)} init={s.init} source={s.source}")


# --- subcommands ------------------------------------------------------------


def cmd_map(config: RunConfig) -> int:
    out = _ensure_out(config)
    geometry = config.geometry_obj()
    mh = mapping.build_mapped_hamiltonian(geometry, config.J, config.v)
    path = out / "mapped_hamiltonian.json"
    mapping.save_hamiltonian(mh, path)
    print(f"wrote {path}")
    print(f"bonds: {list(geometry.bonds)}")
    print(f"int_prefactor: {_fmt(mapping.resolve_int_prefactor())}")
    try:
        residual = acceptance.mapping_residual(geometry, config.J, config.v)
    except DimensionTooLarge:
        print("mapping residual: skipped (register too large for dense check)")
        return 0
    failed = not residual <= acceptance.MAPPING_TOL  # NaN fails
    print(f"mapping residual vs exact reference: {residual:.3e}"
          + (f", FAILED above {acceptance.MAPPING_TOL:g}" if failed else ""))
    return 2 if failed else 0


def cmd_transpile(config: RunConfig) -> int:
    geometry = config.geometry_obj()
    mh = mapping.build_mapped_hamiltonian(geometry, config.J, config.v)
    tau = config.tau_start
    circuit = transpile.trotter_step_circuit(mh, tau, config.steps)
    term_angle = transpile.hopping_angle(mh.J, tau / config.steps)
    # the residual gate raises before anything is written
    reports = [transpile.synthesis_report(i, term_angle) for i in transpile.HOPPING_TERM_IDS]
    out = _ensure_out(config)
    circuit_path = out / "circuit.json"
    gates.save_circuit(circuit, circuit_path)
    report = {
        "geometry": geometry.label,
        "tau": tau,
        "steps": config.steps,
        "term_angle": term_angle,
        "terms": reports,
        "circuit_tally": asdict(gates.count_gates(circuit)),
    }
    report_path = out / "synthesis_report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {circuit_path}")
    print(f"wrote {report_path}")
    worst = max(r["residual_norm"] for r in reports)
    print(f"max synthesis residual: {worst:.3e}")
    return 0


def cmd_evolve(config: RunConfig) -> int:
    geometry = config.geometry_obj()
    taus = config.tau_grid()
    tokens = config.require_init()
    rows = emulate.population_grid(geometry, config.J, config.v, tokens, taus, config.steps)
    out = _ensure_out(config)
    _write_csv(out / "populations.csv",
               ["tau", "n", "site", "spin", "circuit_value", "oracle_value", "abs_error"],
               ((r.tau, r.steps, r.site, r.spin, r.circuit_value, r.oracle_value, r.abs_error)
                for r in rows))
    worst = emulate.max_population_error(rows)
    print(f"max |circuit - oracle| population error: {worst:.4f}")
    return 0


def cmd_greens(config: RunConfig) -> int:
    geometry = config.geometry_obj()
    tokens = config.require_init()
    pairs = config.parsed_pairs()
    retarded = "retarded_gf" in config.observables or "spectral" in config.observables
    if retarded:
        times = oracle.uniform_grid(0.0, config.tmax, config.dt, 4**geometry.site_count)
    if "spectral" in config.observables:
        if len(times) < 2:
            raise ConfigInvalid(f"tmax: spectral needs tmax >= dt, got {len(times)} time point")
        for i, j, spin in pairs:
            if i != j:
                raise ConfigInvalid(f"pairs: spectral needs i == j, got {i},{j},{spin}")
    if "lesser_gf" in config.observables:
        emulate.require_chain(geometry)
    h_exact = oracle.fermionic_hamiltonian(geometry, config.J, config.v)
    coarse = emulate.LESSER_TIMES[emulate.LESSER_TIMES <= config.tmax]
    # every circuit series runs before any output, so a grid the sector lane
    # refuses (SynthesisResidual) writes nothing
    if "lesser_gf" in config.observables:
        circuit = dict(zip(pairs, emulate.lesser_gf_circuit(geometry, config.J, config.v, tokens,
                                                            pairs, coarse, config.steps)))
    out = _ensure_out(config)
    worst = 0.0
    for i, j, spin in pairs:
        if "lesser_gf" in config.observables:
            circ = circuit[(i, j, spin)]
            exact = oracle.lesser_gf(h_exact, tokens, i, j, spin, coarse)
            for series in (circ, replace(circ, values=exact, source="oracle")):
                _write_series(out / f"gf_lesser_{series.source}_i{i}_j{j}_{spin}.csv", series)
            worst = max(worst, float(np.max(np.abs(circ.values - exact))))
        if retarded:
            series = oracle.retarded_series(
                h_exact, config.beta, i, j, spin, times,
                geometry.site_count, config.J, config.v,
            )
            _write_series(out / f"gf_retarded_oracle_i{i}_j{j}_{spin}.csv", series)
            if "spectral" in config.observables:
                a_vals = oracle.spectral(series, config.eta, oracle.OMEGAS)
                _write_csv(out / f"spectral_i{i}_{spin}.csv", ["omega", "a"],
                           zip(oracle.OMEGAS, a_vals),
                           f"i={i} spin={spin} eta={_fmt(config.eta)} beta={_fmt(config.beta)}")
    if "lesser_gf" in config.observables:
        print(f"max |circuit - oracle| over lesser components: {worst:.4f}")
    return 0


def cmd_resources(config: RunConfig) -> int:
    geometry = config.geometry_obj()
    reports = [resources.qfm_resources(geometry)]
    try:
        reports.append(resources.qubit_baseline_resources(geometry.label))
    except UnsupportedLattice:
        pass  # no published baseline for this lattice
    print(json.dumps([asdict(r) for r in reports], indent=1))
    if len(reports) == 2:
        print(
            f"two-body gates per step: {reports[0].two_body_gates_per_step} (ququart) "
            f"vs {reports[1].two_body_gates_per_step} (qubit zig-zag)"
        )
    return 0


def cmd_validate(config: RunConfig) -> int:
    failed = False
    for check in acceptance.CHECKS:
        result = check.run()
        print(result.line(), flush=True)
        failed = failed or not result.passed
    return 2 if failed else 0


# --- argument parsing --------------------------------------------------------


# the RunConfig fields each subcommand reads: its flags
_MAP_READS = frozenset({"geometry", "J", "v", "out"})
_TRANSPILE_READS = _MAP_READS | {"tau_start", "steps"}

_COMMANDS = {
    "map": (cmd_map, "build and serialize the mapped Hamiltonian", _MAP_READS),
    "transpile": (cmd_transpile, "emit a Trotter circuit and synthesis report", _TRANSPILE_READS),
    "evolve": (cmd_evolve, "compare Trotter-circuit populations against the exact reference",
               _TRANSPILE_READS | {"init", "tau_stop", "tau_step"}),
    "greens": (cmd_greens, "compute Green's functions (circuit and exact lanes)",
               _MAP_READS | {"steps", "init", "pairs", "observables", "eta", "tmax", "dt", "beta"}),
    "resources": (cmd_resources, "gate-count and duration estimates", frozenset({"geometry"})),
    "validate": (cmd_validate, "run the acceptance criteria", frozenset()),
}

_FLAG_TYPES = {tuple: lambda text: tuple(v.strip() for v in text.split(","))}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 as a config error; 2 means a failed validation
        raise ConfigInvalid(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ququart-hubbard",
        description="Hubbard-model simulation toolkit for four-level qudits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, reads) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in fields(RunConfig):
            if f.name in reads:
                # the dest argparse derives from `--name-with-dashes` is the field's name
                p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                               type=_FLAG_TYPES.get(f.type, f.type))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _build_config(args)
        code = _COMMANDS[args.command][0](config)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # after its subclass BrokenPipeError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SynthesisResidual as exc:
        print(f"synthesis residual: {exc}", file=sys.stderr)
        return 3
    except QuquartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
