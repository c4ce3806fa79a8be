"""Inputs, timed stages and correctness checks of the three workloads.

Every workload runs four stages: the unconstrained ER pass, the energy
sweeps, the two-copy regularization and the truncation experiment. The
workload's own stages run at full size; the others run as small fixed
probes, so every end-to-end metric is measured in every run while the
workload's own stages dominate its time (see README.md).
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from qsep import approx, cli, relent, spectra
from qsep.qmat import DensityOp

import reference as ref
from hostspeed import Calibrator
from tracing import replace_everywhere, undo_all

OPTS = relent.SolverOpts(max_iters=150)
LN2 = math.log(2.0)
# closed-form anchors are drawn once from this seed, not from --seed: their
# summed excess is a solver-accuracy figure and must not move with the inputs
ANCHOR_SEED = 20240105
QUBIT_H = [0.0, 1.0]
E_GRID = [0.5, 1.0, 2.0, 4.0]
# W3 sweeps an active (0.5) and an inactive (4) cap only: over the full
# grid its sweep alone took 12 s of a 25 s round
W3_E_GRID = [0.5, 4.0]
PROBE_REG_REPEATS = 4
PROBE_PASSES = 4

BELL_ER_CONFIG = {"command": "er", "state": "fixture:bell", "seed": 0}
APPROX_CONFIG = {
    "command": "approx",
    "state": "fixture:correlated-geometric",
    "subset": [0, 1, 2],
    "r_grid": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "channels": [["depolarizing", 0.05], ["dephasing", 0.1], "identity"],
    "witness_families": ["geometric:0.02", "geometric:0.02"],
    "bound": {"C": 2.0, "D": 3.0},
}
GEOM_Q, GEOM_D, PARTIES = 0.02, 10, 3
# local unitaries commute with depolarizing and identity, so the rotated
# state's QMI values equal those of the diagonal state under these channels
ROTATED_CHANNELS = [["depolarizing", 0.05], ["depolarizing", 0.1], "identity"]
ROTATED_R_GRID = [4]
PROBE_D = 4
PROBE_R_GRID = [1, 2, 3]
PROBE_APPROX_REPEATS = 4

TOL_VALUE = 1e-8  # harness D(rho||sigma) against the solver's value
TOL_BOUND = 1e-9  # slack on lower bounds and the energy cap
TOL_ANCHOR = 1e-3  # largest accepted excess over a closed form
TOL_ORDER = 1e-6  # slack of the monotonicity and subadditivity checks
TOL_MASS = 1e-12  # compression masses
TOL_QMI = 1e-9  # QMI against the classical reference


# ---------------------------------------------------------------------------
# Input generation (numpy only; qsep sees the finished matrices)
# ---------------------------------------------------------------------------


def unit_vector(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def ginibre(rng, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def state(dims, mat, validate: bool = True) -> DensityOp:
    return DensityOp.create(tuple(dims), (mat + mat.conj().T) / 2, validate=validate)


def pure(dims, vec) -> DensityOp:
    return state(dims, np.outer(vec, vec.conj()))


def separable_mixture(rng, terms: int = 4) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        v = np.kron(unit_vector(rng, 2), unit_vector(rng, 2))
        m += w * np.outer(v, v.conj())
    return m


def bell() -> DensityOp:
    return pure((2, 2), np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))


def w3() -> DensityOp:
    v = np.zeros(8, dtype=complex)
    v[[1, 2, 4]] = 1 / math.sqrt(3)
    return pure((2, 2, 2), v)


def local_rotation(rng, mat: np.ndarray, dims) -> np.ndarray:
    """(U_1 x ... x U_n) mat (U_1 x ... x U_n)^dagger with Haar U_s, one factor at a time."""
    n = len(dims)
    t = mat.reshape(tuple(dims) * 2)
    for s, d in enumerate(dims):
        u = haar_unitary(rng, d)
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [s])), 0, s)
        t = np.moveaxis(np.tensordot(u.conj(), t, axes=([1], [n + s])), 0, n + s)
    return t.reshape(mat.shape)


# ---------------------------------------------------------------------------
# Operation accounting and the solve log
# ---------------------------------------------------------------------------


class Ops:
    """Counts operations; one that raises is counted failed and returns None."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - the run reports it and goes on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


class SolveLog:
    """Keeps (rho, constraint, solution) of every relative_entropy_entanglement
    call, including those made inside energy_sweep, regularized_estimates and
    cli.run, so the returned atoms can be checked."""

    def __init__(self):
        self.entries: list[tuple] = []
        self._undo: list = []

    def __enter__(self):
        original = relent.relative_entropy_entanglement

        def logged(rho, *args, **kwargs):
            sol = original(rho, *args, **kwargs)
            constraint = kwargs.get("constraint", args[3] if len(args) > 3 else None)
            self.entries.append((rho, constraint, sol))
            return sol

        replace_everywhere(original, logged, self._undo)
        return self

    def __exit__(self, *exc):
        undo_all(self._undo)
        return False


def energy_diagonal(hams, dims) -> np.ndarray:
    total = np.zeros(int(np.prod(dims)))
    for s, h in enumerate(hams):
        parts = [np.ones(d) for d in dims]
        parts[s] = np.asarray(h, dtype=float)
        term = np.ones(1)
        for p in parts:
            term = np.kron(term, p)
        total += term
    return total


def check_solves(entries, fails: list) -> None:
    """Rebuild sigma from the atoms and hold each solve to independent bounds."""
    for rho, constraint, sol in entries:
        dims = rho.sig.dims
        label = f"solve on dims {dims}"
        w = sol.weights()
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            fails.append(f"{label}: atom weights sum to {w.sum()!r}, min {w.min()!r}")
        sigma, vecs = ref.atom_mixture(sol.atoms)
        d = ref.relative_entropy(rho.mat, sigma)
        if not abs(d - sol.value) <= TOL_VALUE * max(1.0, abs(sol.value)):
            fails.append(f"{label}: D(rho||sigma) from atoms {d!r} != value {sol.value!r}")
        lower = ref.cut_lower_bound(rho.mat, dims)
        if sol.value < lower - TOL_BOUND:
            fails.append(f"{label}: value {sol.value!r} below cut bound {lower!r}")
        if constraint is not None:
            h = energy_diagonal(constraint.hams, dims)
            energy = float(sum(wa * (np.abs(v) ** 2 @ h) for wa, v in zip(w, vecs)))
            if energy > constraint.E + TOL_BOUND:
                fails.append(f"{label}: Tr H sigma = {energy!r} exceeds E = {constraint.E!r}")


def near(label, got, want, tol, fails) -> None:
    if not abs(got - want) <= tol:
        fails.append(f"{label}: {got!r} not within {tol} of {want!r}")


# ---------------------------------------------------------------------------
# Stages. A stage builds its inputs once per set-up; steps(inp, out) lists
# its operations as Step(metric, label, fn, regime), and the corrected time
# of each step (hostspeed.py, with the regime's kernel) is charged to its
# metric. check() reads the outputs of one execution.
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    metric: str
    label: str
    fn: Callable
    regime: str = "small"


class Execution:
    """Outputs, per-step corrected and wall seconds and logged solves of one
    run of a stage."""

    def __init__(self, stage, inp):
        self.stage, self.inp = stage, inp
        self.outputs: dict = {}
        self.step_times: dict = {}
        self.wall_times: dict = {}
        self.step_metric: dict = {}
        self.solves: list = []

    def run_step(self, step: Step, ops: Ops, log: SolveLog, calib: Calibrator) -> None:
        first = len(log.entries)
        result, wall, corrected = calib.timed(lambda: ops.call(step.label, step.fn), step.regime)
        self.outputs[step.label] = result
        self.step_times[step.label] = corrected
        self.wall_times[step.label] = wall
        self.step_metric[step.label] = step.metric
        self.solves += log.entries[first:]

    def metric(self, name: str) -> float:
        if name in self.step_metric.values():
            return sum(t for label, t in self.step_times.items() if self.step_metric[label] == name)
        return self.stage.derived(self.inp, self.outputs)[name]


def _cli_csv(config, out_dir: Path, csv_name: str):
    record = cli.run(config, out_dir)
    return record, (out_dir / csv_name).read_bytes()


class ERStage:
    """Unconstrained solves; Bell always goes through cli.run twice."""

    metrics = ("er_pass_s", "er_excess_nats")

    @staticmethod
    def inputs(seed, full, out):
        rng = np.random.default_rng(ANCHOR_SEED)
        anchors = [("isotropic 2x2 F=0.8", state((2, 2), ref.isotropic_state(2, 0.8)), ref.isotropic_er(2, 0.8))]
        batch = []
        if full:
            for i in range(2):
                v = unit_vector(rng, 9)
                anchors.append((f"pure 3x3 #{i}", pure((3, 3), v), ref.pure_er(v, (3, 3))))
            anchors.append(("isotropic 3x3 F=0.7", state((3, 3), ref.isotropic_state(3, 0.7)), ref.isotropic_er(3, 0.7)))
            anchors.append(("separable 2x2", state((2, 2), separable_mixture(rng)), 0.0))
            srng = np.random.default_rng([seed, 1])
            batch = [
                ("full-rank 3x3", state((3, 3), ginibre(srng, 9, 9))),
                ("pure 2x2x2", pure((2, 2, 2), unit_vector(srng, 8))),
                ("full-rank 4x4", state((4, 4), ginibre(srng, 16, 16))),
            ]
        return {"batch": batch, "anchors": anchors}

    @staticmethod
    def steps(inp, out):
        def solve(rho):
            return lambda: relent.relative_entropy_entanglement(rho, None, OPTS)

        steps = [Step("er_pass_s", label, solve(rho)) for label, rho in inp["batch"]]
        steps += [Step("er_pass_s", label, solve(rho)) for label, rho, _ in inp["anchors"]]
        for i in (0, 1):
            steps.append(Step("er_pass_s", f"er Bell config #{i}", lambda i=i: _cli_csv(BELL_ER_CONFIG, out / f"er-{i}", "er.csv")))
        return steps

    @staticmethod
    def derived(inp, outputs):
        excess = 0.0
        for label, _, closed in inp["anchors"]:
            if outputs.get(label):
                excess += outputs[label].value - closed
        if outputs.get("er Bell config #0"):
            excess += outputs["er Bell config #0"][0]["extra"]["solution"]["value"] - LN2
        return {"er_excess_nats": excess}

    @staticmethod
    def check(inp, outputs, fails):
        for label, _, closed in inp["anchors"]:
            sol = outputs.get(label)
            if sol and (sol.value < closed - 1e-7 or sol.value - closed > TOL_ANCHOR):
                fails.append(f"{label}: value {sol.value!r} vs closed form {closed!r}")
        runs = [outputs.get(f"er Bell config #{i}") for i in (0, 1)]
        if runs[0]:
            near("Bell er config", runs[0][0]["csv"]["rows"][0][0], LN2, TOL_ANCHOR, fails)
        if all(runs) and runs[0][1] != runs[1][1]:
            fails.append("er Bell config: CSV bytes differ between two cli.run calls")


class SweepStage:
    """energy_sweep with diag(0, 1) on every qubit."""

    metrics = ("er_sweep_s",)

    @staticmethod
    def inputs(seed, full, out):
        pair = ("classical pair", state((2, 2), np.diag([0.5, 0, 0, 0.5]).astype(complex)))
        return {"states": [("Bell", bell()), pair, ("W3", w3())] if full else [pair]}

    @staticmethod
    def steps(inp, out):
        def sweep(label, rho):
            grid = W3_E_GRID if label == "W3" else E_GRID
            return lambda: relent.energy_sweep(rho, None, [QUBIT_H] * rho.sig.nsys, grid, OPTS)

        return [Step("er_sweep_s", f"energy sweep {label}", sweep(label, rho)) for label, rho in inp["states"]]

    @staticmethod
    def check(inp, outputs, fails):
        for label, _ in inp["states"]:
            rows = outputs.get(f"energy sweep {label}")
            if rows is None:
                continue
            values = [r["value"] for r in rows]
            if any(b > a + TOL_ORDER for a, b in zip(values, values[1:])):
                fails.append(f"energy sweep {label}: values increase with E: {values}")
            for r in rows:
                if r["E"] >= 1.0 and label == "Bell":
                    near(f"Bell at E={r['E']}", r["value"], LN2, TOL_ANCHOR, fails)
                if r["E"] >= 1.0 and label == "classical pair":
                    near(f"classical pair at E={r['E']}", r["value"], 0.0, TOL_ORDER, fails)


class RegStage:
    """Two-copy regularized_estimates."""

    metrics = ("er_reg_s",)

    @staticmethod
    def inputs(seed, full, out):
        if not full:
            return {"states": [(f"Bell #{i}", bell()) for i in range(PROBE_REG_REPEATS)]}
        # a fixed draw, not one from --seed: on about one seeded full-rank
        # 2x2 state in ten the two-copy estimate breaks subadditivity (a
        # program fault named in CHANGES.md), which would make correctness
        # depend on the seed
        mixed = state((2, 2), ginibre(np.random.default_rng([ANCHOR_SEED, 2]), 4, 4))
        return {"states": [("Bell", bell()), ("full-rank 2x2", mixed)]}

    @staticmethod
    def steps(inp, out):
        def reg(rho):
            return lambda: relent.regularized_estimates(rho, None, 2, OPTS)

        return [Step("er_reg_s", f"regularization {label}", reg(rho)) for label, rho in inp["states"]]

    @staticmethod
    def check(inp, outputs, fails):
        for label, _ in inp["states"]:
            rows = outputs.get(f"regularization {label}")
            if rows is None:
                continue
            one, two = rows[0]["value"], rows[1]["value"]
            if two > one + TOL_ORDER:
                fails.append(f"regularization {label}: per-copy {two!r} exceeds one-copy {one!r}")
            if label.startswith("Bell"):
                near(f"{label} one copy", one, LN2, TOL_ANCHOR, fails)
                near(f"{label} two copies per copy", two, LN2, TOL_ANCHOR, fails)


def _rotated_experiment(rho, r_grid):
    f = approx.qmi_function(ROTATED_CHANNELS)
    witnesses = [spectra.build_fa_witness(spectra.parse_family(t)) for t in APPROX_CONFIG["witness_families"]]
    template = approx.BoundTemplate(C=2.0, D=3.0)
    return approx.truncation_experiment(rho, f, [0, 1, 2], r_grid, witnesses=witnesses, template=template)


def check_truncation_rows(label, rows, d, channels, fails) -> None:
    """Compare rows with the closed forms and the classical QMI reference."""
    f_exact = ref.classical_qmi(ref.apply_classical_channels(ref.correlated_joint(GEOM_Q, d, PARTIES), channels))
    for row in rows:
        r = row["r"]
        want = ref.compression_closed_forms(GEOM_Q, d, PARTIES, r)
        near(f"{label} r={r} c_r", row["c_r"], want["c_r"], TOL_MASS, fails)
        near(f"{label} r={r} eps_r^2", row["eps_r"] ** 2, want["eps_r"] ** 2, TOL_MASS, fails)
        near(f"{label} r={r} gentle^2", row["gentle_bound"] ** 2, want["gentle_bound"] ** 2, TOL_MASS, fails)
        f_trunc = ref.classical_qmi(
            ref.apply_classical_channels(ref.correlated_joint(GEOM_Q, d, PARTIES, r), channels)
        )
        near(f"{label} r={r} f_exact", row["f_exact"], f_exact, TOL_QMI, fails)
        near(f"{label} r={r} f_trunc", row["f_trunc"], f_trunc, TOL_QMI, fails)
        y = row["Y_r"]
        if y is not None and not math.isnan(y) and row["diff"] > y + 1e-8:
            fails.append(f"{label} r={r}: diff {row['diff']!r} exceeds Y_r {y!r}")


class ApproxStage:
    """Diagonal truncation experiment through cli.run, then a locally rotated copy."""

    metrics = ("approx_diag_s", "approx_dense_s")

    @staticmethod
    def inputs(seed, full, out):
        rng = np.random.default_rng([seed, 3])
        d = GEOM_D if full else PROBE_D
        diag = np.diag(ref.correlated_joint(GEOM_Q, d, PARTIES).ravel()).astype(complex)
        # a unitary conjugate of a valid state; the D=1000 validation would
        # cost an SVD and an eigendecomposition per set-up
        rotated = state((d,) * PARTIES, local_rotation(rng, diag, (d,) * PARTIES), validate=not full)
        if full:
            config, r_rot, repeats = APPROX_CONFIG, ROTATED_R_GRID, 1
        else:
            # the probe's diagonal state enters cli.run as a JSON matrix file
            path = out / "approx-probe-state.json"
            path.write_text(json.dumps({"dims": [d] * PARTIES, "re": diag.real.tolist(), "im": diag.imag.tolist()}))
            config = dict(APPROX_CONFIG, state=str(path), r_grid=PROBE_R_GRID)
            r_rot, repeats = PROBE_R_GRID, PROBE_APPROX_REPEATS
        return {"d": d, "config": config, "rotated": rotated, "r_rot": r_rot, "repeats": repeats}

    @staticmethod
    def steps(inp, out):
        # the D=1000 runs are corrected with the large kernel, the D=64 probe
        # with the small one
        regime = "large" if inp["d"] == GEOM_D else "small"
        steps = [
            Step("approx_diag_s", f"approx diagonal #{i}", lambda i=i: _cli_csv(inp["config"], out / f"approx-{i}", "approx.csv"), regime)
            for i in range(inp["repeats"])
        ]
        steps += [
            Step("approx_dense_s", f"approx rotated #{i}", lambda: _rotated_experiment(inp["rotated"], inp["r_rot"]), regime)
            for i in range(inp["repeats"])
        ]
        return steps

    @staticmethod
    def check(inp, outputs, fails):
        csvs = set()
        for i in range(inp["repeats"]):
            diag = outputs.get(f"approx diagonal #{i}")
            if diag:
                record, csv = diag
                keys = record["csv"]["header"]
                rows = [dict(zip(keys, row)) for row in record["csv"]["rows"]]
                check_truncation_rows("approx diagonal", rows, inp["d"], inp["config"]["channels"], fails)
                csvs.add(csv)
            rotated = outputs.get(f"approx rotated #{i}")
            if rotated:
                check_truncation_rows("approx rotated", rotated.rows, inp["d"], ROTATED_CHANNELS, fails)
        if len(csvs) > 1:
            fails.append("approx: CSV bytes differ between cli.run calls")


STAGES = (ERStage, SweepStage, RegStage, ApproxStage)
WORKLOADS = {
    "er-unconstrained": (ERStage,),
    "er-constrained": (SweepStage, RegStage),
    "approx-truncation": (ApproxStage,),
}


def make_inputs(workload: str, seed: int, out: Path) -> list:
    """(stage, inputs, own) for every stage."""
    own = WORKLOADS[workload]
    return [(stage, stage.inputs(seed, stage in own, out), stage in own) for stage in STAGES]


def run_round(plan, ops: Ops, log: SolveLog, out: Path, calib: Calibrator) -> dict:
    """One round: the own steps in PROBE_PASSES - 1 chunks, with a probe pass
    before, between and after them.

    Step times are host-speed corrected (hostspeed.py). A probe metric
    sums, over its steps, the median of the step's PROBE_PASSES timings.
    Own stages run once; their metrics are plain sums."""
    own = [Execution(stage, inp) for stage, inp, is_own in plan if is_own]
    steps = [(ex, step) for ex in own for step in ex.stage.steps(ex.inp, out)]
    passes = []

    def probe_pass():
        execs = [Execution(stage, inp) for stage, inp, is_own in plan if not is_own]
        for ex in execs:
            for step in ex.stage.steps(ex.inp, out):
                ex.run_step(step, ops, log, calib)
        passes.append(execs)

    chunks = PROBE_PASSES - 1
    for c in range(chunks):
        probe_pass()
        for ex, step in steps[c * len(steps) // chunks : (c + 1) * len(steps) // chunks]:
            ex.run_step(step, ops, log, calib)
    probe_pass()
    metrics = {}
    for ex in own:
        metrics.update({m: ex.metric(m) for m in ex.stage.metrics})
    for column in zip(*passes):
        first = column[0]
        for m in first.stage.metrics:
            labels = [label for label, lm in first.step_metric.items() if lm == m]
            if labels:
                metrics[m] = sum(statistics.median(ex.step_times[label] for ex in column) for label in labels)
            else:
                metrics[m] = statistics.median(ex.metric(m) for ex in column)
    samples = [{m: ex.metric(m) for ex in execs for m in ex.stage.metrics} for execs in passes]
    executions = own + [ex for execs in passes for ex in execs]
    # (label, wall s, corrected s) of every step, in the order run
    step_seconds = [(label, ex.wall_times[label], ex.step_times[label]) for ex in executions for label in ex.step_times]
    return {"executions": executions, "metrics": metrics, "probe_passes": samples, "step_seconds": step_seconds}


def check_round(round_result: dict) -> list[str]:
    fails: list[str] = []
    for ex in round_result["executions"]:
        ex.stage.check(ex.inp, ex.outputs, fails)
        check_solves(ex.solves, fails)
    return fails


def warm_up() -> None:
    """Touch the solver and truncation code paths once on tiny inputs."""
    rng = np.random.default_rng(0)
    rho = state((2, 2), ginibre(rng, 4, 4))
    relent.relative_entropy_entanglement(rho, None, relent.SolverOpts(max_iters=3))
    small = state((2, 2, 2), np.diag(ref.correlated_joint(GEOM_Q, 2, PARTIES).ravel()).astype(complex))
    approx.truncation_experiment(small, approx.qmi_function(ROTATED_CHANNELS), [0, 1, 2], [1])
