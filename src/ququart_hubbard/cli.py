"""Command-line entry point.

Subcommands: map, transpile, evolve, greens, resources, validate.
Options can come from a JSON config document (--config) with individual
flags taking precedence. Exit codes: 0 success, 1 config error,
2 validation failure, 3 synthesis residual.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance, emulate, gates, mapping, oracle, resources, transpile
from .errors import ConfigInvalid, QuquartError, SynthesisResidual, UnsupportedLattice
from .oracle import _fmt


OBSERVABLES = ("populations", "lesser_gf", "retarded_gf", "spectral")


@dataclass
class RunConfig:
    geometry: str = "chain:2"
    J: float = 1.0
    v: float = 2.0
    init: str = "u,d"
    tau_start: float = 0.5
    tau_stop: float | None = 5.0
    tau_step: float = 0.5
    steps: int = 30
    observables: tuple = ("populations",)
    pairs: str = "1,1,up"
    eta: float = 0.1
    t_max: float = 40.0
    dt: float = 0.05
    beta: float = 1.0
    out: str = "out"
    baseline: bool = False
    parallel_bonds: bool = True

    def validate(self) -> None:
        if self.tau_step <= 0:
            raise ConfigInvalid("tau_step: must be > 0")
        if self.steps < 1:
            raise ConfigInvalid("steps: must be >= 1")
        if self.eta <= 0:
            raise ConfigInvalid("eta: must be > 0")
        if self.dt <= 0:
            raise ConfigInvalid("dt: must be > 0")
        if self.t_max <= 0:
            raise ConfigInvalid("t_max: must be > 0")
        if not 0 <= self.beta < np.inf:
            raise ConfigInvalid("beta: must be finite and >= 0")
        unknown = [name for name in self.observables if name not in OBSERVABLES]
        if unknown:
            raise ConfigInvalid(
                f"observables: unknown {', '.join(map(repr, unknown))}; "
                f"choose from {','.join(OBSERVABLES)}"
            )
        try:
            mapping.parse_geometry(self.geometry)
        except (UnsupportedLattice, ValueError) as exc:
            raise ConfigInvalid(f"geometry: {exc}")
        if self.init:
            try:
                mapping.parse_init_tokens(self.init)
            except ValueError as exc:
                raise ConfigInvalid(f"init: {exc}")

    def require_init(self) -> tuple:
        """Init tokens checked against the geometry; for evolve/greens."""
        if not self.init:
            raise ConfigInvalid("init: required for this command")
        tokens = mapping.parse_init_tokens(self.init)
        sites = self.geometry_obj().site_count
        if len(tokens) != sites:
            raise ConfigInvalid(f"init: {len(tokens)} tokens for {sites} sites")
        return tokens

    def tau_grid(self) -> np.ndarray:
        stop = self.tau_start if self.tau_stop is None else self.tau_stop
        count = int(round((stop - self.tau_start) / self.tau_step)) + 1
        if count < 1:
            raise ConfigInvalid("tau grid: stop precedes start")
        return self.tau_start + self.tau_step * np.arange(count)

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
            spin = {"u": "up", "d": "down"}.get(parts[2], parts[2])
            if spin not in ("up", "down"):
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


_CONFIG_FIELDS = set(RunConfig.__dataclass_fields__)


def _build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        for key, value in doc.items():
            if key not in _CONFIG_FIELDS:
                raise ConfigInvalid(f"config: unknown field {key!r}")
            if key == "observables":
                value = tuple(value)
            setattr(config, key, value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            if key == "observables":
                value = tuple(v.strip() for v in value.split(","))
            setattr(config, key, value)
    config.validate()
    return config


def _ensure_out(config: RunConfig) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands ------------------------------------------------------------


def cmd_map(config: RunConfig) -> int:
    out = _ensure_out(config)
    geometry = config.geometry_obj()
    mh = mapping.build_mapped_hamiltonian(geometry, config.J, config.v)
    path = out / "mapped_hamiltonian.json"
    mapping.save_hamiltonian(mh, path)
    print(f"wrote {path}")
    print(f"bonds: {list(geometry.bonds)}")
    print(f"int_prefactor: {_fmt(mh.int_prefactor)}")
    if geometry.site_count <= 5:
        dense = mapping.dense_hamiltonian(mh)
        exact = oracle.fermionic_hamiltonian(geometry, config.J, config.v)
        residual = float(
            np.max(np.abs(np.linalg.eigvalsh(dense) - np.linalg.eigvalsh(exact)))
        )
        print(f"spectrum residual vs exact reference: {residual:.3e}")
    else:
        print("spectrum residual: skipped (register too large for dense check)")
    return 0


def cmd_transpile(config: RunConfig) -> int:
    out = _ensure_out(config)
    geometry = config.geometry_obj()
    mh = mapping.build_mapped_hamiltonian(geometry, config.J, config.v)
    tau = config.tau_start
    circuit = transpile.trotter_step_circuit(mh, tau, config.steps)
    circuit_path = out / "circuit.json"
    gates.save_circuit(circuit, circuit_path)
    term_angle = mh.J * tau / (2.0 * config.steps)
    reports = [transpile.synthesis_report(i, term_angle) for i in (1, 2, 3, 4)]
    tally = gates.count_gates(circuit)
    report = {
        "geometry": geometry.label,
        "tau": tau,
        "steps": config.steps,
        "term_angle": term_angle,
        "terms": reports,
        "circuit_tally": {
            "two_qudit": tally.two_qudit,
            "single_qudit_physical": tally.single_qudit_physical,
            "virtual_z": tally.virtual_z,
        },
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
    out = _ensure_out(config)
    geometry = config.geometry_obj()
    taus = config.tau_grid()
    rows = emulate.population_grid(
        geometry, config.J, config.v, config.require_init(), taus, config.steps
    )
    path = out / "populations.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["tau", "n", "site", "spin", "circuit_value", "oracle_value", "abs_error"]
        )
        for row in rows:
            writer.writerow(
                [
                    _fmt(row.tau),
                    row.steps,
                    row.site,
                    row.spin,
                    _fmt(row.circuit_value),
                    _fmt(row.oracle_value),
                    _fmt(row.abs_error),
                ]
            )
    worst = emulate.max_population_error(rows)
    print(f"wrote {path}")
    print(f"max |circuit - oracle| population error: {worst:.4f}")
    return 0


def cmd_greens(config: RunConfig) -> int:
    out = _ensure_out(config)
    geometry = config.geometry_obj()
    tokens = config.require_init()
    times = np.arange(0.0, config.t_max + 0.5 * config.dt, config.dt)
    h_exact = oracle.fermionic_hamiltonian(geometry, config.J, config.v)
    observables = set(config.observables) if config.observables else {"lesser_gf"}
    if "populations" in observables:
        observables.discard("populations")
        observables.add("lesser_gf")
    worst = 0.0
    for i, j, spin in config.parsed_pairs():
        if "lesser_gf" in observables:
            # comparison grid: coarse circuit lane, dense oracle lane
            coarse = np.arange(0.0, min(config.t_max, 5.0) + 1e-12, 0.25)
            circ, orac = emulate.lesser_gf_pair(
                geometry, config.J, config.v, tokens, i, j, spin, coarse, config.steps
            )
            for series, tag in ((circ, "circuit"), (orac, "oracle")):
                path = out / f"gf_lesser_{tag}_i{i}_j{j}_{spin}.csv"
                with open(path, "w") as fh:
                    fh.write(oracle.series_to_csv(series))
                print(f"wrote {path}")
            worst = max(worst, float(np.max(np.abs(circ.values - orac.values))))
        if "retarded_gf" in observables or "spectral" in observables:
            series = oracle.retarded_series(
                h_exact, config.beta, i, j, spin, times,
                geometry.site_count, config.J, config.v,
            )
            path = out / f"gf_retarded_oracle_i{i}_j{j}_{spin}.csv"
            with open(path, "w") as fh:
                fh.write(oracle.series_to_csv(series))
            print(f"wrote {path}")
            if "spectral" in observables and i == j:
                omegas = np.arange(-12.0, 12.0 + 1e-9, 0.01)
                a_vals = oracle.spectral(series, config.eta, omegas)
                spath = out / f"spectral_i{i}_{spin}.csv"
                with open(spath, "w", newline="") as fh:
                    fh.write(f"# i={i} spin={spin} eta={_fmt(config.eta)} beta={_fmt(config.beta)}\n")
                    writer = csv.writer(fh)
                    writer.writerow(["omega", "a"])
                    for w, a in zip(omegas, a_vals):
                        writer.writerow([_fmt(w), _fmt(a)])
                print(f"wrote {spath}")
    if "lesser_gf" in observables:
        print(f"max |circuit - oracle| over lesser components: {worst:.4f}")
    return 0


def cmd_resources(config: RunConfig) -> int:
    geometry = config.geometry_obj()
    reports = [resources.qfm_resources(geometry, parallel_bonds=config.parallel_bonds)]
    if config.baseline:
        reports.append(resources.qubit_baseline_resources(geometry.label))
    print(json.dumps([r.to_json_dict() for r in reports], indent=1))
    print(resources.format_table(reports))
    if config.baseline:
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config document; flags override")
    parser.add_argument("--geometry", help="chain:L | ladder:2xN | 1x8 | 2x4")
    parser.add_argument("--J", type=float, dest="J", help="hopping amplitude")
    parser.add_argument("--v", type=float, dest="v", help="on-site interaction")
    parser.add_argument("--init", help="comma-separated site tokens from {0,u,d,ud}")
    parser.add_argument("--tau-start", type=float, dest="tau_start")
    parser.add_argument("--tau-stop", type=float, dest="tau_stop")
    parser.add_argument("--tau-step", type=float, dest="tau_step")
    parser.add_argument("--steps", type=int, dest="steps", help="Trotter step count")
    parser.add_argument("--pairs", help="Green's function pairs 'i,j,spin;...'")
    parser.add_argument("--observables", help=f"comma list: {','.join(OBSERVABLES)}")
    parser.add_argument("--eta", type=float, dest="eta", help="spectral damping rate")
    parser.add_argument("--tmax", type=float, dest="t_max", help="time-grid extent")
    parser.add_argument("--dt", type=float, dest="dt", help="time-grid spacing")
    parser.add_argument("--beta", type=float, dest="beta", help="inverse temperature")
    parser.add_argument("--out", dest="out", help="output directory")
    parser.add_argument("--baseline", action="store_const", const=True, dest="baseline",
                        help="include the qubit zig-zag comparison")
    parser.add_argument("--sequential-bonds", action="store_const", const=False,
                        dest="parallel_bonds", help="duration model without bond parallelism")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ququart-hubbard",
        description="Hubbard-model simulation toolkit for four-level qudits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("map", "build and serialize the mapped Hamiltonian"),
        ("transpile", "emit a Trotter circuit and synthesis report"),
        ("evolve", "compare Trotter-circuit populations against the exact reference"),
        ("greens", "compute Green's functions (circuit and exact lanes)"),
        ("resources", "gate-count and duration estimates"),
        ("validate", "run the acceptance criteria"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    return parser


_COMMANDS = {
    "map": cmd_map,
    "transpile": cmd_transpile,
    "evolve": cmd_evolve,
    "greens": cmd_greens,
    "resources": cmd_resources,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        return _COMMANDS[args.command](config)
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
