"""Batch experiment runner: loads states and family literals, dispatches the
library operations, and emits deterministic CSV/JSON artifacts.

Every run is driven by a single self-contained JSON config document (no
settings come from environment variables), so identical configs with
identical seeds produce byte-identical CSV output. Wall-clock time and the
environment (Python and numpy versions, CPU count, BLAS/OpenMP thread
variables) are recorded only in the JSON run record, never in the CSV.
The process exits nonzero whenever a run produced inequality-violation
rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .approx import BoundTemplate, qmi_function, truncation_experiment
from .entropy import mutual_information, von_neumann_entropy
from .fixtures import FIXTURE_VERSION, FIXTURES, get_fixture
from .gibbs import max_entropy, solve_beta
from .qmat import DensityOp, column_projector, eigh, load_state, partial_trace, random_density, random_pure
from .relent import (
    Partition,
    SolverOpts,
    energy_sweep,
    regularized_estimates,
    relative_entropy_entanglement,
    sequence_convergence_demo,
    truncation_limit_experiment,
    verify_er_inequalities,
)
from .spectra import HamiltonianSpec, SpectrumFamily, build_fa_witness, parse_family, zeta_limit


# environment variables that set the BLAS/OpenMP thread count, recorded per run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ConfigError(ValueError):
    """Malformed config; the message names the failing field."""


def _require(config: dict, field: str, kind=None):
    if field not in config:
        raise ConfigError(f"config field {field!r} is required for command {config.get('command')!r}")
    value = config[field]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field {field!r} has wrong type {type(value).__name__}")
    return value


def _is_count(value) -> bool:
    """An integer >= 1; a bool, a float or a string is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _int_field(section: dict, field: str, default=None, within: str | None = None):
    """An optional integer field >= 1 (`_is_count`); anything else raises
    ConfigError naming the field."""
    value = section.get(field, default)
    if value is not None and not _is_count(value):
        where = f"{field!r}" + (f" in {within!r}" if within else "")
        raise ConfigError(f"config field {where} must be an integer >= 1, got {value!r}")
    return value


def resolve_state(spec, seed_note="state") -> DensityOp:
    """A state is either 'fixture:<name>' or a path to the JSON matrix format."""
    if not isinstance(spec, str):
        raise ConfigError(f"{seed_note} must be a string (fixture:<name> or a file path)")
    if spec.startswith("fixture:"):
        return get_fixture(spec.split(":", 1)[1])
    return load_state(spec)


def _solver_opts(config: dict) -> SolverOpts:
    raw = dict(config.get("opts", {}))
    try:
        opts = SolverOpts(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'opts' rejected: {exc}") from exc
    if "seed" in config and "seed" not in raw:
        try:
            opts = dataclasses.replace(opts, seed=config["seed"])
        except ValueError as exc:
            raise ConfigError(f"config field 'seed' rejected: {exc}") from exc
    return opts


def _partition(config: dict, nsys: int) -> Partition:
    if "partition" in config:
        return Partition(tuple(tuple(g) for g in config["partition"]))
    return Partition.finest(nsys)


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Command implementations; each returns (csv_header, csv_rows, extra, violations)
# ---------------------------------------------------------------------------


def _cmd_entropy(config: dict):
    rho = resolve_state(_require(config, "state"))
    groups = config.get("groups")
    rows = [["S", von_neumann_entropy(rho)]]
    for s in range(rho.sig.nsys):
        rows.append([f"S_marginal_{s}", von_neumann_entropy(partial_trace(rho, [s]))])
    if rho.sig.nsys > 1:
        rows.append(["QMI", mutual_information(rho, groups)])
    return ["quantity", "value"], rows, {}, []


def _cmd_gibbs(config: dict):
    ham = parse_family(_require(config, "hamiltonian", str))
    if not isinstance(ham, HamiltonianSpec):
        raise ConfigError("config field 'hamiltonian' must parse to a Hamiltonian literal")
    e_grid = sorted(float(e) for e in _require(config, "E_grid", list))
    dim = _int_field(config, "dim")

    rows = []
    for e in e_grid:
        ceiling = max_entropy(ham, e, dim)
        rows.append([e, solve_beta(ham, e, dim).beta, ceiling, ceiling / e if e != 0 else math.inf])
    violations = []
    ceilings = [r[2] for r in rows]
    for a, b in zip(ceilings, ceilings[1:]):
        if b < a - 1e-8:
            violations.append({"kind": "ceiling-not-monotone", "values": [a, b]})
    return ["E", "beta", "F_H", "ratio"], rows, {}, violations


def _cmd_zeta(config: dict):
    # Hamiltonian literals are evaluated directly; a spectrum-family
    # literal is answered with the zeta limit of its constructed witness
    fam = parse_family(_require(config, "family", str))
    if isinstance(fam, SpectrumFamily):
        target = build_fa_witness(fam)
    else:
        target = fam
    betas = tuple(config["betas"]) if "betas" in config else None
    res = zeta_limit(target, betas=betas)
    rows = [[b, v] for b, v in zip(res.betas, res.values)]
    return ["beta", "value"], rows, {"extrapolated": res.extrapolated}, []


def _cmd_approx(config: dict):
    rho = resolve_state(_require(config, "state"))
    subset = [int(s) for s in _require(config, "subset", list)]
    r_grid = [int(r) for r in _require(config, "r_grid", list)]
    channels = config.get("channels")
    f = qmi_function(channel_specs=channels)
    witnesses = None
    template = None
    if "witness_families" in config:
        fams = [parse_family(t) for t in config["witness_families"]]
        witnesses = [build_fa_witness(fam) for fam in fams]
        bound = config.get("bound", {})
        template = BoundTemplate(
            C=float(bound.get("C", 2.0)),
            D=float(bound.get("D", rho.sig.nsys)),
            trunc_dim=_int_field(bound, "trunc_dim", within="bound"),
        )
    report = truncation_experiment(
        rho, f, subset, r_grid, witnesses=witnesses, template=template
    )
    header = ["r", "c_r", "eps_r", "gentle_bound", "Y_r", "f_exact", "f_trunc", "diff"]
    rows = []
    violations = []
    for row in report.rows:
        y = row["Y_r"] if row["Y_r"] is not None else math.nan
        rows.append(
            [row["r"], row["c_r"], row["eps_r"], row["gentle_bound"], y, row["f_exact"], row["f_trunc"], row["diff"]]
        )
        if row["Y_r"] is not None and row["diff"] > row["Y_r"] + 1e-8:
            violations.append({"kind": "envelope", "r": row["r"], "diff": row["diff"], "Y_r": row["Y_r"]})
    return header, rows, {}, violations


def _cmd_er(config: dict):
    rho = resolve_state(_require(config, "state"))
    part = _partition(config, rho.sig.nsys)
    sol = relative_entropy_entanglement(rho, part, _solver_opts(config))
    atoms = [
        {
            "weight": w,
            "factors": [{"re": f.real.tolist(), "im": f.imag.tolist()} for f in a.factors],
        }
        for w, a in sol.atoms
    ]
    extra = {
        "solution": {
            "value": sol.value,
            "gap": sol.gap,
            "gap_semantics": "heuristic (oracle is approximate)",
            "iterations": sol.iterations,
            "converged": sol.converged,
            "status": sol.status,
            "lmo_spread": sol.lmo_spread,
            "atoms": atoms,
        }
    }
    rows = [[sol.value, sol.gap, sol.iterations, int(sol.converged)]]
    return ["value", "gap", "iters", "converged"], rows, extra, []


def _solves(rows_d: list[dict], *keys: str) -> list[dict]:
    """Per solve: its grid values under `keys`, status, iterations and gap;
    rows that skipped their solve have none."""
    fields = (*keys, "status", "iters", "gap")
    return [{f: r[f] for f in fields} for r in rows_d if not r.get("skipped")]


def _cmd_er_reg(config: dict):
    rho = resolve_state(_require(config, "state"))
    part = _partition(config, rho.sig.nsys)
    k_max = _int_field(config, "k_max", 2)
    rows_d = regularized_estimates(rho, part, k_max, _solver_opts(config))
    rows = [[r["k"], r["value"], r["gap"], r["iters"]] for r in rows_d]
    # the two-copy start's size, whether it is sigma x sigma, and why each
    # solve stopped go in the record only
    extra = {key: rows_d[-1][key] for key in ("lift_pairs", "lift_exact") if key in rows_d[-1]}
    extra["solves"] = _solves(rows_d, "k")
    violations = []
    for a, b in zip(rows_d, rows_d[1:]):
        if b["value"] > a["value"] + 1e-6:
            violations.append({"kind": "subadditivity", "k": b["k"], "values": [a["value"], b["value"]]})
    return ["k", "value", "gap", "iters"], rows, extra, violations


def _cmd_er_energy(config: dict):
    rho = resolve_state(_require(config, "state"))
    part = _partition(config, rho.sig.nsys)
    ham_specs = _require(config, "hams", list)
    hams = []
    for h in ham_specs:
        if isinstance(h, str):
            parsed = parse_family(h)
            if not isinstance(parsed, HamiltonianSpec):
                raise ConfigError("config field 'hams' entries must be Hamiltonian literals or lists")
            hams.append(parsed)
        else:
            hams.append(HamiltonianSpec.explicit([float(x) for x in h]))
    e_grid = [float(e) for e in _require(config, "E_grid", list)]
    rows_d = energy_sweep(rho, part, hams, e_grid, _solver_opts(config))
    rows = [[r["E"], r["value"], r["gap"], r["iters"]] for r in rows_d]
    violations = []
    for a, b in zip(rows_d, rows_d[1:]):
        if b["value"] > a["value"] + 1e-6:
            violations.append({"kind": "energy-monotonicity", "E": b["E"], "values": [a["value"], b["value"]]})
    return ["E", "value", "gap", "iters"], rows, {"solves": _solves(rows_d, "E")}, violations


def _cmd_fda(config: dict):
    rho = resolve_state(_require(config, "state"))
    rank_grid = [int(r) for r in _require(config, "rank_grid", list)]
    if any(r < 1 for r in rank_grid):
        raise ConfigError(f"config field 'rank_grid' needs ranks >= 1, got {rank_grid}")
    # one eigenbasis per marginal; rank r projects onto its first r columns
    # (all of them past the marginal's dimension), as top_projector does
    bases = [eigh(partial_trace(rho, [s]).mat).eigenvectors for s in range(rho.sig.nsys)]
    steps = [{s: column_projector(v[:, :r]) for s, v in enumerate(bases)} for r in rank_grid]
    m_grid = [int(m) for m in config.get("m_grid", [rho.sig.nsys])]
    rows_d = truncation_limit_experiment(rho, steps, m_grid, _solver_opts(config))
    rows = []
    for r in rows_d:
        if r.get("skipped"):
            rows.append([r["k"], math.nan, math.nan, math.nan, math.nan, math.nan])
        else:
            rows.append(
                [r["k"], r["m"], r["c_k"], r["value"], r["gap"], r["rel_change"] if r["rel_change"] is not None else math.nan]
            )
    return ["k", "m", "c_k", "value", "gap", "rel_change"], rows, {"solves": _solves(rows_d, "k", "m")}, []


def _cmd_verify(config: dict):
    opts = _solver_opts(config)
    seed = int(_require(config, "seed"))
    samples = config.get("samples", {})

    def bulk(name, builder):
        spec = samples.get(name)
        if not spec:
            return []
        count = int(spec.get("count", 0))
        return [builder(spec, seed + 1000 * i) for i in range(count)]

    er_ub = bulk("er_ub", lambda sp, sd: random_density(tuple(sp.get("dims", (3, 3))), int(sp.get("rank", 9)), sd))
    lb1 = bulk("lb1", lambda sp, sd: random_density(tuple(sp.get("dims", (2, 2))), int(sp.get("rank", 4)), sd))
    lb2 = bulk("lb2", lambda sp, sd: random_pure(tuple(sp.get("dims", (2, 2, 2))), sd))
    mixing = []
    mix_spec = samples.get("mixing")
    if mix_spec:
        rng = np.random.default_rng(seed)
        for i in range(int(mix_spec.get("count", 0))):
            dims = tuple(mix_spec.get("dims", (2, 2)))
            rank = int(mix_spec.get("rank", 4))
            mixing.append(
                (
                    random_density(dims, rank, seed + 2000 * i),
                    random_density(dims, rank, seed + 2000 * i + 1),
                    float(rng.uniform(0.2, 0.8)),
                )
            )
    report = verify_er_inequalities(
        er_ub_samples=er_ub, mixing_samples=mixing, lb1_samples=lb1, lb2_samples=lb2, opts=opts
    )
    header = ["check", "sample", "margin"]
    rows = [[r["check"], r["sample"], r["margin"]] for r in report["rows"]]
    return header, rows, {"checked": len(report["rows"])}, report["violations"]


def _cmd_theorem2(config: dict):
    rho0 = resolve_state(_require(config, "state"))
    ks = config.get("ks", [1, 2, 4, 8])
    if not isinstance(ks, list) or not all(_is_count(k) for k in ks):
        raise ConfigError(f"config field 'ks' must be a list of integers >= 1, got {ks!r}")
    dim = rho0.sig.total
    mixed = np.eye(dim, dtype=complex) / dim
    states = [
        DensityOp(rho0.sig, (1.0 - 1.0 / k) * rho0.mat + (1.0 / k) * mixed) for k in ks
    ]
    rows_d = sequence_convergence_demo(states, rho0, _partition(config, rho0.sig.nsys), _solver_opts(config))
    rows = [[r["k"], r["trace_distance"], r["qmi"], r["value"], r["gap"]] for r in rows_d]
    return ["k", "trace_distance", "qmi", "value", "gap"], rows, {"solves": _solves(rows_d, "k")}, []


_HANDLERS = {
    "entropy": _cmd_entropy,
    "gibbs": _cmd_gibbs,
    "zeta": _cmd_zeta,
    "approx": _cmd_approx,
    "er": _cmd_er,
    "er-reg": _cmd_er_reg,
    "er-energy": _cmd_er_energy,
    "fda": _cmd_fda,
    "verify": _cmd_verify,
    "theorem2": _cmd_theorem2,
}
COMMANDS = tuple(_HANDLERS)


def run(config: dict, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment config; returns the run record (also written to disk).

    The CSV artifact is deterministic given the config (including its
    seed); the JSON record additionally carries wall time, versions and
    the environment.
    """
    command = _require(config, "command", str)
    if command not in _HANDLERS:
        raise ConfigError(f"config field 'command' must be one of {COMMANDS}, got {command!r}")
    if command in ("er", "er-reg", "er-energy", "fda", "theorem2", "verify") and "seed" not in config:
        raise ConfigError("config field 'seed' is required for randomized commands")
    t0 = time.monotonic()
    header, rows, extra, violations = _HANDLERS[command](config)
    record = {
        "config": config,
        "command": command,
        "version": __version__,
        "fixture_version": FIXTURE_VERSION,
        "cells": len(rows),
        "extra": extra,
        "violations": violations,
        "wall_time_s": time.monotonic() - t0,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        },
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / f"{command}.csv", header, rows)
        (out / "record.json").write_text(json.dumps(record, indent=2, default=float) + "\n")
    record["csv"] = {"header": header, "rows": rows}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsep",
        description="Spectral truncation, Gibbs ceilings, and entanglement relative entropy experiments.",
    )
    parser.add_argument("--version", action="version", version=f"qsep {__version__}")
    parser.add_argument("--list-fixtures", action="store_true", help="list built-in fixture states and exit")
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="experiment to run")
    parser.add_argument("--config", help="path to the JSON experiment config")
    parser.add_argument("--out", default="qsep-out", help="output directory (default: qsep-out)")
    args = parser.parse_args(argv)

    if args.list_fixtures:
        for name in sorted(FIXTURES):
            print(f"{name} (v{FIXTURE_VERSION})")
        return 0
    if not args.command:
        parser.error("a command is required (or --list-fixtures / --version)")
    if not args.config:
        parser.error("--config is required")
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    if config.get("command") is None:
        config["command"] = args.command
    elif config["command"] != args.command:
        parser.error(
            f"config command {config['command']!r} disagrees with CLI command {args.command!r}"
        )
    try:
        record = run(config, out_dir=args.out)
    except ConfigError as exc:
        parser.error(str(exc))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n_viol = len(record["violations"])
    print(f"{args.command}: {record['cells']} cells, {n_viol} violations -> {args.out}/")
    return 0 if n_viol == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
