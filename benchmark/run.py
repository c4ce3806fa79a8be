"""qsep benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload er-unconstrained --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. With --trace 0 the workload's
rounds repeat until --seconds have passed and the end-to-end metrics are
printed; with --trace 1 one untraced and one traced round run and the
per-layer metrics are printed. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; a record with the
environment, every check and the trace goes to .benchmark-out/.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # BLAS reads these once, when numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark-out"
SETUP_REPEATS = 3


if not (SRC / "qsep" / "__init__.py").is_file():
    print(f"benchmark: no qsep sources under {SRC}; run from the root of a qsep checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Calibrator  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import qsep; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time of a fresh `import qsep` (numpy included) in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines,
        "commit": git_commit(),
    }


def setup(workload: str, seed: int, out: Path, calib: Calibrator):
    """Median fresh-import time plus median of input generation and warm-up,
    each host-speed corrected with the small kernel."""
    imports = []
    for _ in range(SETUP_REPEATS):
        # the child's own clock times the import; its correction factor is
        # the one of the whole bracketed call
        child, wall, corrected = calib.timed(import_seconds)
        imports.append(child * corrected / wall)
    local = []
    for _ in range(SETUP_REPEATS):

        def make():
            plan = workloads.make_inputs(workload, seed, out)
            workloads.warm_up()
            return plan

        plan, _, corrected = calib.timed(make)
        local.append(corrected)
    return statistics.median(imports) + statistics.median(local), plan


def end_to_end(rounds: list, setup_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    for stage in workloads.STAGES:
        for name in stage.metrics:
            value = statistics.median(rnd["metrics"][name] for rnd in rounds)
            metrics[name] = (value, "nats" if name.endswith("_nats") else "s")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return metrics


def per_layer(tr: Tracer, traced: dict, untraced_s: float, traced_s: float) -> dict:
    s = tr.summary()

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def secs(name):
        return s.get(name, {}).get("s", 0.0)

    m = {}
    for layer in (
        "linalg.eigh.small", "linalg.eigh.large", "linalg.eigvalsh.large",
        "relent.solve", "relent.product_lmo",
        "qmat.clean", "qmat.partial_trace", "qmat.product_operator",
        "entropy.von_neumann_entropy", "entropy.relative_entropy",
        "approx.apply_local_channels", "gibbs.fcb_bound",
    ):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.s"] = (secs(layer), "s")
    for layer in (
        "relent.tensor_power_regrouped", "entropy.mutual_information", "approx.make_plan",
        "approx.apply_plan", "spectra.build_fa_witness", "cli.run", "cli.write_csv",
    ):
        m[f"{layer}.s"] = (secs(layer), "s")
    m["linalg.kron.calls"] = (calls("linalg.kron"), "count")
    m["linalg.kron.out_mb"] = (tr.kron_bytes / 1e6, "MB")
    sols = [sol for ex in traced["executions"] for _, _, sol in ex.solves]
    iterations = sum(sol.iterations for sol in sols)
    m["relent.iterations"] = (iterations, "count")
    m["relent.converged.base"] = (len(sols), "count")
    m["relent.converged.ratio"] = (sum(sol.converged for sol in sols) / len(sols) if sols else 0.0, "ratio")
    m["relent.small_eigh_per_iter"] = (calls("linalg.eigh.small") / iterations if iterations else 0.0, "1/iter")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead.ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = environment()
    print("environment " + json.dumps(env), flush=True)

    fails = reference.self_test()
    ops = workloads.Ops()
    # no readings inside steps of the traced run: they would count in its spans
    calib = Calibrator(sample=not args.trace)
    with workloads.SolveLog() as log:
        setup_s, plan = setup(args.workload, args.seed, out, calib)
        rounds = []
        record: dict = {"environment": env, "setup_s": setup_s}
        if args.trace:
            t0 = time.perf_counter()
            rounds.append(workloads.run_round(plan, ops, log, out, calib))
            untraced_s = time.perf_counter() - t0
            with Tracer() as tr:
                t0 = time.perf_counter()
                traced = workloads.run_round(plan, ops, log, out, calib)
                traced_s = time.perf_counter() - t0
            rounds.append(traced)
            metrics = per_layer(tr, traced, untraced_s, traced_s)
            record["layers"] = tr.summary()
            record["spans"] = tr.span_records()
        else:
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < args.seconds:
                rounds.append(workloads.run_round(plan, ops, log, out, calib))
            metrics = end_to_end(rounds, setup_s)
    for results in rounds:
        fails += workloads.check_round(results)

    result = {
        "correct": not fails,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result=result, check_failures=fails, errors=ops.errors)
    record["round_metrics"] = [rnd["metrics"] for rnd in rounds]
    record["probe_passes"] = [rnd["probe_passes"] for rnd in rounds]
    record["step_seconds"] = [rnd["step_seconds"] for rnd in rounds]
    record["kernel_readings"] = calib.readings
    (out / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    for line in fails + ops.errors:
        print("check: " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
