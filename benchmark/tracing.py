"""Per-layer tracing from outside the program.

A Tracer replaces public qsep callables, and the numpy kernels qsep calls,
with timing wrappers. Each replacement is made under every name by which
a caller looks the callable up (module globals filled by `from x import y`,
the numpy module attributes, the DensityOp class), and is undone on exit.

Layer calls are kept as spans (id, name, start, end, parent id) in memory.
Numpy kernels run tens of thousands of times per solve, so they are
aggregated (calls, seconds) rather than kept as spans; their time still
counts as child time of the enclosing span, so self times stay exact.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

SMALL_N = 16

# (span name, module that defines it, attribute); method entries name a class
LAYERS = [
    ("relent.solve", "qsep.relent", "relative_entropy_entanglement"),
    ("relent.product_lmo", "qsep.relent", "product_lmo"),
    ("relent.energy_sweep", "qsep.relent", "energy_sweep"),
    ("relent.regularized_estimates", "qsep.relent", "regularized_estimates"),
    ("relent.tensor_power_regrouped", "qsep.relent", "tensor_power_regrouped"),
    ("qmat.clean", "qsep.qmat", "DensityOp.clean"),
    ("qmat.partial_trace", "qsep.qmat", "partial_trace"),
    ("qmat.product_operator", "qsep.qmat", "product_operator"),
    ("entropy.von_neumann_entropy", "qsep.entropy", "von_neumann_entropy"),
    ("entropy.relative_entropy", "qsep.entropy", "relative_entropy"),
    ("entropy.mutual_information", "qsep.entropy", "mutual_information"),
    ("approx.truncation_experiment", "qsep.approx", "truncation_experiment"),
    ("approx.make_plan", "qsep.approx", "make_plan"),
    ("approx.apply_plan", "qsep.approx", "apply_plan"),
    ("approx.apply_local_channels", "qsep.approx", "apply_local_channels"),
    ("gibbs.fcb_bound", "qsep.gibbs", "fcb_bound"),
    ("spectra.build_fa_witness", "qsep.spectra", "build_fa_witness"),
    ("cli.run", "qsep.cli", "run"),
    ("cli.write_csv", "qsep.cli", "write_csv"),
]


def _size_bucket(kernel: str):
    """Kernel label by matrix size; stacked matrices count one call each."""

    def label(args):
        a = args[0]
        n = a.shape[-1]
        count = math.prod(a.shape[:-2])
        return f"linalg.{kernel}.{'small' if n <= SMALL_N else 'large'}", count

    return label


def _kron_label(args):
    return "linalg.kron", 1


KERNELS = [
    (np.linalg, "eigh", _size_bucket("eigh")),
    (np.linalg, "eigvalsh", _size_bucket("eigvalsh")),
    (np, "kron", _kron_label),
]


def replace_everywhere(original, replacement, undo: list) -> None:
    """Rebind every qsep module global that refers to `original`; each change
    is appended to `undo` as (module, attribute, original)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qsep" or mod_name.startswith("qsep.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, replacement)


def undo_all(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class Tracer:
    """Context manager: while active, layer spans and kernel counts accumulate."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.kron_bytes = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _close(self, name: str, t0: float, child_s: float, units: int) -> float:
        t1 = time.perf_counter()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += units
        self.total[name] += dur
        self.self_time[name] += dur - child_s
        return t1

    def _layer(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)  # reserve the id; filled on exit
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                t1 = self._close(name, t0, frame[1], 1)
                self.spans[frame[0]] = (frame[0], name, t0, t1, parent)

        return traced

    def _kernel(self, fn, label):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            name, units = label(args)
            if name == "linalg.kron":
                self.kron_bytes += result.nbytes
            self._close(name, t0, 0.0, units)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def __enter__(self):
        for owner, attr, label in KERNELS:
            original = getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._kernel(original, label))
        for name, mod_name, attr in LAYERS:
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._layer(name, original))
            else:
                original = getattr(mod, attr)
                replace_everywhere(original, self._layer(name, original), self._undo)
        return self

    def __exit__(self, *exc):
        undo_all(self._undo)
        return False

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        names = sorted(set(self.calls))
        return {
            n: {"calls": self.calls[n], "s": self.total[n], "self_s": self.self_time[n]} for n in names
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": a, "end": b, "parent": p} for (i, n, a, b, p) in self.spans
        ]
