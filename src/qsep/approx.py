"""Spectral truncation maps, their trace-preserving channel variant, and the
computable inequalities that control how much a state functional can move
under truncation.

Each selected subsystem takes one marginal eigendecomposition, and rank r
keeps its first r eigenvectors. Every mass is a sum, never one minus a
sum: the tail sums the marginal eigenvalues past r, and c_r and qbar_r =
1 - c_r sum rho's diagonal in the product eigenbasis inside and outside the
kept block.
The envelope combines the tail mass with a continuity bound evaluated on
witness Hamiltonians; it is reported only where the closed-form branch
applies (tail parameter in (0, 1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import mutual_information
from .gibbs import BoundParams, fcb_bound
from .qmat import (
    HERM_TOL,
    DensityOp,
    SpectralDecomp,
    _herm_violation,
    column_projector,
    eigh,
    hermitian_part,
    partial_trace,
    trace_norm,
)

ANNIHILATION_TOL = 1e-12


@dataclass(frozen=True)
class TruncationPlan:
    """Rank-r isometries V_s (Q_s = V_s V_s^dagger, the first r marginal
    eigenvectors) and the masses of the state they were made from: c_r =
    Tr Q rho, qbar = 1 - c_r and the summed marginal tail (eps_r^2). Keys other
    than the subset, or V_s without r orthonormal columns, raise ValueError."""

    subset: tuple[int, ...]
    r: int
    isometries: dict[int, np.ndarray] = field(repr=False)
    c_r: float
    tail: float
    qbar: float

    def __post_init__(self):
        isos = {s: np.asarray(v) for s, v in self.isometries.items()}
        odd = sorted(set(isos) ^ set(self.subset), key=repr)
        if odd:
            raise ValueError(f"subsystem {odd[0]!r} is in only one of the subset {self.subset} and the isometry keys")
        for s, v in isos.items():
            if v.ndim != 2 or v.shape[1] != self.r:
                raise ValueError(f"isometry on subsystem {s} has shape {v.shape}, expected {self.r} columns")
            off = float(np.linalg.norm(v.conj().T @ v - np.eye(self.r)))
            if off > HERM_TOL:
                raise ValueError(f"isometry on subsystem {s} has columns {off:.3e} away from orthonormal")
        object.__setattr__(self, "isometries", isos)


def _checked_subset(rho: DensityOp, subset) -> tuple[int, ...]:
    """The subset as sorted distinct subsystems of rho, or ValueError."""
    subset = tuple(sorted(set(int(s) for s in subset)))
    if not subset:
        raise ValueError("subset must name at least one subsystem")
    if any(s < 0 or s >= rho.sig.nsys for s in subset):
        raise ValueError(f"subset {subset} out of range for {rho.sig.nsys} subsystems")
    return subset


def _check_rank(rho: DensityOp, subset: tuple[int, ...], r: int) -> None:
    if r < 1:
        raise ValueError("rank r must be >= 1")
    if r > min(rho.sig.dims[s] for s in subset):
        raise ValueError(f"rank r={r} exceeds a local dimension on subset {subset}")


def _marginal_bases(rho: DensityOp, subset, ranks, extra=()) -> tuple[tuple, dict[int, SpectralDecomp]]:
    """Checked sorted subset, checked ranks, and one qmat.eigh per marginal
    of the subset and of `extra` (eigenvalues descending)."""
    subset = _checked_subset(rho, subset)
    for r in ranks:
        _check_rank(rho, subset, r)
    return subset, {s: eigh(partial_trace(rho, [s]).mat) for s in sorted(set(subset) | set(extra))}


def _masses(rho: DensityOp, subset, bases, ranks) -> dict[int, tuple[float, float, float]]:
    """(c_r, qbar_r, tail_r) per rank r. p, rho's diagonal in the product
    eigenbasis of the subset, is one einsum; basis state i is kept at rank r
    when its shell max_s i_s is below r. Tails are clipped at 0 per marginal."""
    n = rho.sig.nsys
    ops = [rho.mat.reshape(rho.sig.dims * 2), list(range(n)) + [n + s if s in subset else s for s in range(n)]]
    for s in subset:
        v = bases[s].eigenvectors
        ops += [v.conj(), [s, 2 * n + s], v, [n + s, 2 * n + s]]
    p = np.einsum(*ops, [2 * n + s for s in subset], optimize="greedy").real
    shells = np.bincount(np.indices(p.shape).max(axis=0).ravel(), weights=p.ravel())
    tails = [[max(0.0, math.fsum(bases[s].eigenvalues[r:])) for s in subset] for r in ranks]
    return {r: (math.fsum(shells[:r]), max(0.0, math.fsum(shells[r:])), sum(t)) for r, t in zip(ranks, tails)}


def _isometry(p, s: int, d: int) -> np.ndarray:
    """Orthonormal columns V with V V^dagger = p, from eigh.

    Raises ValueError naming subsystem s unless p is a d x d orthogonal
    projector: Hermitian, with every eigenvalue 0 or 1 (both to HERM_TOL).
    """
    p = np.asarray(p, dtype=complex)
    if p.shape != (d, d):
        raise ValueError(f"projector on subsystem {s} has shape {p.shape}, expected {(d, d)}")
    res = _herm_violation(p)
    w, v = np.linalg.eigh(p)
    spread = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
    if res > HERM_TOL or spread > HERM_TOL:
        raise ValueError(
            f"projector on subsystem {s} is not an orthogonal projector: "
            f"Hermiticity residual {res:.3e}, eigenvalues {spread:.3e} away from 0 or 1"
        )
    return v[:, w > 0.5]


def _rows(x: np.ndarray, factors: list, dims) -> np.ndarray:
    """Left-multiply x, whose rows are indexed by subsystems of `dims`, by
    one factor per subsystem (None is the identity), one matmul each."""
    a = 1
    for f, d in zip(factors, dims):
        if f is not None:
            x = np.matmul(f, x.reshape(a, d, -1))
            d = f.shape[0]
        a *= d
    return x.reshape(a, -1)


def _conj_t(x: np.ndarray) -> np.ndarray:
    return np.conjugate(x.T, out=np.empty(x.shape[::-1], dtype=x.dtype))


def _reduce(mat: np.ndarray, vs: list, dims) -> np.ndarray:
    """Kept core W^dagger mat W of a Hermitian mat, W the product of the
    isometries `vs` (None is the identity): rows, a conjugate transpose, rows."""
    vh = [None if v is None else v.conj().T for v in vs]
    return _rows(_conj_t(_rows(mat, vh, dims)), vh, dims)


def _expand(sig, core: np.ndarray, vs: list, kept) -> tuple[DensityOp | None, float]:
    """The state W (core / c) W^dagger with c = Tr core, symmetrized once;
    the state is None when c is at most ANNIHILATION_TOL."""
    c = float(np.real(np.trace(core)))
    if c <= ANNIHILATION_TOL:
        return None, c
    mat = _rows(_conj_t(_rows(core / c, vs, kept)), vs, kept)
    return DensityOp(sig, hermitian_part(mat)), c


def _local_dim(rho: DensityOp, s) -> int:
    """rho's dimension on subsystem s; ValueError names s unless it is one."""
    if not (isinstance(s, (int, np.integer)) and 0 <= s < rho.sig.nsys):
        raise ValueError(f"subsystem {s!r} is not one of the {rho.sig.nsys} subsystems of the state")
    return rho.sig.dims[s]


def _compress(rho: DensityOp, isometries: dict) -> tuple[DensityOp | None, float]:
    """compress with each projector given as its isometry V, Q = V V^dagger.
    A key that is not a subsystem of rho, or V whose rows do not match its
    dimension, raises ValueError naming the subsystem."""
    dims = rho.sig.dims
    vs = [None] * len(dims)
    for s, v in isometries.items():
        if v.shape[0] != _local_dim(rho, s):
            raise ValueError(f"isometry on subsystem {s} has {v.shape[0]} rows, not the state's dimension {dims[s]}")
        vs[s] = v
    kept = [d if v is None else v.shape[1] for d, v in zip(dims, vs)]
    if 0 in kept:
        return None, 0.0
    return _expand(rho.sig, _reduce(rho.mat, vs, dims), vs, kept)


def compress(rho: DensityOp, projectors: dict[int, np.ndarray]) -> tuple[DensityOp | None, float]:
    """Normalized compression Q rho Q / c with its weight c = Tr Q rho.

    Q is the product of the per-subsystem `projectors` (identity on the
    other subsystems); a key that is not a subsystem of rho, or a
    projector that is not an orthogonal projector, raises ValueError
    naming it. Each projector is factored once as V V^dagger, and rho
    is reduced to the kept core W^dagger rho W, W the product of the V,
    with left multiplications only: rows, a conjugate transpose, rows.
    c is the trace of the core, which is divided by c and expanded back
    the same way, then symmetrized once. The state is None when c is at
    most ANNIHILATION_TOL, and (None, 0.0) is returned at once when a
    projector is zero.

    The state is not repaired: rounding in Q rho Q is divided by c, so at c
    barely above ANNIHILATION_TOL (about 5e-12) eigenvalues near -3e-11 can
    remain, still above qmat.EIG_FLOOR; from c of about 4e-10 on, none do.
    """
    return _compress(rho, {s: _isometry(p, s, _local_dim(rho, s)) for s, p in projectors.items()})


def _require_state(out: DensityOp | None) -> DensityOp:
    if out is None:
        raise ValueError("truncation annihilates state: Tr Q rho is numerically zero")
    return out


def make_plan(rho: DensityOp, subset, r: int) -> TruncationPlan:
    """The rank-r plan from rho's own marginals, with no compressed state built."""
    subset, bases = _marginal_bases(rho, subset, [r])
    c, qbar, tail = _masses(rho, subset, bases, [r])[r]
    isos = {s: bases[s].eigenvectors[:, :r] for s in subset}
    return TruncationPlan(subset=subset, r=r, isometries=isos, c_r=c, tail=tail, qbar=qbar)


def apply_plan(rho: DensityOp, plan: TruncationPlan) -> DensityOp:
    """Compress rho with the plan's isometries, normalized by its own Tr Q rho."""
    return _require_state(_compress(rho, plan.isometries)[0])


def truncation_map(rho: DensityOp, subset, r: int) -> tuple[DensityOp, TruncationPlan]:
    """apply_plan(rho, make_plan(rho, subset, r)) and the plan. The state is
    normalized by its core's trace, which can differ from c_r in the last bits."""
    plan = make_plan(rho, subset, r)
    return apply_plan(rho, plan), plan


# ---------------------------------------------------------------------------
# Local channels
#
# A local map acts on the 6-axis view (A, d, B, A, d, B) of the contiguous
# D x D matrix, with A and B the products of the dimensions before and
# after its subsystem; that view and the reshapes the maps take of it are
# free. A map returns an array of D * D entries in row-major order.
# ---------------------------------------------------------------------------


def channel_depolarizing(p: float):
    """Mix the subsystem toward maximally mixed with weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing weight must lie in [0, 1]")

    def apply_local(t: np.ndarray) -> np.ndarray:
        d = t.shape[1]
        tr = np.einsum("xiyuiv->xyuv", t)
        out = (1.0 - p) * t
        for i in range(d):
            out[:, i, :, :, i, :] += (p / d) * tr
        return out

    return apply_local


def channel_dephasing(p: float):
    """Suppress the subsystem's off-diagonal elements with weight p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("dephasing weight must lie in [0, 1]")

    def apply_local(t: np.ndarray) -> np.ndarray:
        out = (1.0 - p) * t
        for i in range(t.shape[1]):
            out[:, i, :, :, i, :] += p * t[:, i, :, :, i, :]
        return out

    return apply_local


def _sandwich(p: np.ndarray):
    """The local map X -> P X P: one row matmul, then one column matmul."""
    p = np.asarray(p, dtype=complex)

    def apply_local(t: np.ndarray) -> np.ndarray:
        # rows: P on each (d, B D) block; columns: X P is P^T applied to each
        # (d, B) block of the (D A, d, B) view
        a, d, b = t.shape[:3]
        rows = np.matmul(p, t.reshape(a, d, -1))
        if b == 1:
            return rows.reshape(-1, d) @ p
        return np.matmul(p.T, rows.reshape(-1, d, b))

    return apply_local


def channel_project_or_reroute(p: np.ndarray, tau_vec: np.ndarray):
    """P . P plus rerouting the complementary weight to the pure state tau.

    Unlike the other channels, its output is Hermitian only up to rounding;
    truncation_channels symmetrizes once after all of them.
    """
    kept = _sandwich(p)
    comp = np.eye(p.shape[0], dtype=complex) - p
    tau = np.outer(tau_vec, tau_vec.conj())

    def apply_local(t: np.ndarray) -> np.ndarray:
        lost = np.einsum("ij,xjyuiv->xyuv", comp, t)
        out = kept(t).reshape(t.shape)
        out += tau[None, :, None, None, :, None] * lost[:, None, :, :, None, :]
        return out

    return apply_local


CHANNEL_REGISTRY = {
    "depolarizing": channel_depolarizing,
    "dephasing": channel_dephasing,
}


def _apply_local_maps(rho: DensityOp, maps: list) -> np.ndarray:
    """Raw matrix after one local map per subsystem (None entries mean identity)."""
    dims = rho.sig.dims
    n = len(dims)
    if len(maps) != n:
        raise ValueError(f"need one channel per subsystem ({n}), got {len(maps)}")
    total = rho.sig.total
    mat = rho.mat
    for s, ch in enumerate(maps):
        if ch is None:
            continue
        a, b = math.prod(dims[:s]), math.prod(dims[s + 1 :])
        mat = ch(mat.reshape(a, dims[s], b, a, dims[s], b)).reshape(total, total)
    return mat


def apply_local_channels(rho: DensityOp, channels: list) -> DensityOp:
    """Apply one local channel per subsystem (None entries mean identity).

    The output is not symmetrized: depolarizing and dephasing keep an
    exactly Hermitian rho.mat exactly Hermitian in value, and rho.mat is
    exactly Hermitian for every state that DensityOp.create validates and
    every state the library builds. channel_project_or_reroute is Hermitian
    only up to rounding; truncation_channels symmetrizes its output. With
    every channel None the output shares rho's read-only matrix.
    """
    return DensityOp(rho.sig, _apply_local_maps(rho, channels))


def make_channel_product(specs: list):
    """Build a state map from per-subsystem specs like ('depolarizing', 0.1)."""

    def build(spec):
        name, *args = spec if isinstance(spec, (tuple, list)) else (spec,)
        identity = name is None or name == "identity"
        if not identity and name not in CHANNEL_REGISTRY:
            raise ValueError(f"unknown channel {name!r}")
        arity = 0 if identity else 1  # every registered channel takes one weight
        if len(args) != arity:
            raise ValueError(f"channel {name!r} takes {arity} argument(s), got {len(args)}")
        return None if identity else CHANNEL_REGISTRY[name](float(args[0]))

    chans = [build(spec) for spec in specs]

    def apply(rho: DensityOp) -> DensityOp:
        return apply_local_channels(rho, chans)

    return apply


def truncation_channels(rho: DensityOp, subset, r: int) -> DensityOp:
    """Trace-preserving truncation: project each selected subsystem onto its
    top-r marginal subspace and reroute the lost weight to the pure state of
    the largest marginal eigenvalue, both from rho's own marginals."""
    subset, bases = _marginal_bases(rho, subset, [r])
    chans = [None] * rho.sig.nsys
    for s in subset:
        v = bases[s].eigenvectors
        chans[s] = channel_project_or_reroute(column_projector(v[:, :r]), v[:, 0])
    return DensityOp(rho.sig, hermitian_part(_apply_local_maps(rho, chans)))


# ---------------------------------------------------------------------------
# Proof-side inequality checks
# ---------------------------------------------------------------------------


def projection_mass_check(plan: TruncationPlan, rho: DensityOp) -> tuple[float, float]:
    """Both sides of Tr Q rho >= 1 - sum of marginal tails for the plan's own state rho."""
    return plan.c_r, 1.0 - plan.tail


def gentle_bound_check(rho: DensityOp, subset, r: int) -> dict:
    """Trace-norm distance to the compression against its two gentle bounds.

    The ordering of the two bounds is checked at the mass level (before
    the square root, which amplifies eigensolver noise near full rank).
    """
    out, plan = truncation_map(rho, subset, r)
    distance = trace_norm(rho.mat - out.mat)
    bound_q = 2.0 * math.sqrt(plan.qbar)
    return {
        "distance": distance,
        "qbar_mass": plan.qbar,
        "tail_mass": plan.tail,
        "bound_q": bound_q,
        "bound_marginal": 2.0 * math.sqrt(plan.tail),
        "ok": distance <= bound_q + 1e-8 and plan.qbar <= plan.tail + 1e-8,
    }


def witness_operator(rho: DensityOp, s: int, levels: np.ndarray) -> np.ndarray:
    """Witness matrix diagonal in the descending eigenbasis of the s-th marginal."""
    dec = _marginal_bases(rho, [s], [])[1][s]
    g = np.asarray(levels, dtype=float)[: len(dec.eigenvalues)]
    return hermitian_part((dec.eigenvectors * g) @ dec.eigenvectors.conj().T)


def energy_growth_check(
    rho: DensityOp, plan: TruncationPlan, witnesses: dict[int, np.ndarray]
) -> tuple[float, float]:
    """Both sides of the witness-energy growth inequality under compression.

    `witnesses` maps subsystem index -> witness operator matrix on that
    subsystem (diagonal in the marginal eigenbasis, as built by
    :func:`witness_operator`).
    """
    out = apply_plan(rho, plan)
    lhs = 0.0
    base = 0.0
    for s, g in witnesses.items():
        g = np.asarray(g, dtype=complex)
        lhs += float(np.real(np.trace(g @ partial_trace(out, [s]).mat)))
        base += float(np.real(np.trace(g @ partial_trace(rho, [s]).mat)))
    return lhs, base / plan.c_r


# ---------------------------------------------------------------------------
# Envelope and experiment harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundTemplate:
    """Coefficients of the continuity bound; energies and witnesses come later."""

    C: float
    D: float
    trunc_dim: int | None = None


def tail_parameter(tails_sum: float) -> float:
    """eps_r = sqrt(summed marginal tail mass)."""
    return math.sqrt(max(0.0, tails_sum))


def _bound_params(template: BoundTemplate, witnesses: list, e_s: float) -> BoundParams:
    m = len(witnesses)
    return BoundParams(
        C=template.C,
        D=template.D,
        m=m,
        E=2.0 * e_s / m,
        hams=tuple(witnesses),
        trunc_dim=template.trunc_dim,
    )


def _envelope_value(params: BoundParams, eps: float) -> float | None:
    return fcb_bound(params, eps) if eps <= 1.0 else None


def envelope_from_families(marginal_spectra, witnesses, template: BoundTemplate, r_grid) -> list[dict]:
    """Rows (r, eps_r, Y_r) with tails taken from idealized marginal spectra.

    The bound's energy parameter doubles the summed witness energies
    (mE = 2 E_S); Y_r is None outside the closed-form branch eps_r in
    (0, 1] and exactly 0 once the tails vanish.
    """
    witnesses = list(witnesses)
    if not witnesses:
        raise ValueError("need at least one witness")
    energies = [w.energy for w in witnesses]
    if any(not math.isfinite(e) for e in energies):
        raise ValueError("witness energy must be finite")
    params = _bound_params(template, witnesses, float(sum(energies)))
    rows = []
    for r in r_grid:
        r = int(r)
        tails = sum(fam.tail_weight(r) for fam in marginal_spectra)
        eps = tail_parameter(tails)
        rows.append({"r": r, "eps_r": eps, "Y_r": _envelope_value(params, eps)})
    return rows


@dataclass(frozen=True)
class ApproxReport:
    """Per-rank record of a truncation experiment."""

    rows: list

    def worst_envelope_margin(self) -> float:
        vals = [row["Y_r"] - row["diff"] for row in self.rows if row["Y_r"] is not None]
        return min(vals) if vals else math.inf


def truncation_experiment(
    rho: DensityOp,
    f,
    subset,
    r_grid,
    witnesses: list | None = None,
    witness_subsystems: list[int] | None = None,
    template: BoundTemplate | None = None,
) -> ApproxReport:
    """Tabulate f(rho) against f of each rank-r compression, with the envelope.

    eps_r and the witness energies are the actual quantities of `rho`
    (marginal tail masses and Tr G rho_marginal), so each row instantiates
    the envelope inequality exactly. Witness inputs are optional; without
    them only (r, c_r, eps_r, gentle, f values, diff) is reported.
    `witness_subsystems` (default 0, 1, ...) names one distinct subsystem
    per witness; a list of another length, a repeated subsystem or one out
    of range raises ValueError.

    Each subsystem of the subset and of the witnesses takes one marginal
    eigendecomposition (qmat.eigh): the rank-r isometry is its first r
    eigenvector columns and the witness energy sum_i g_i lambda_i. c_r,
    eps_r^2 (the tail) and gentle_bound = 2 sqrt(qbar_r) come from the
    mass rule that make_plan uses. rho is reduced once, to the largest
    rank; the ranks then run in descending order, each core the leading
    block of the last, and rows come back in r_grid order.
    """
    params = None
    subs: list[int] = []
    if witnesses is not None:
        if template is None:
            raise ValueError("witnesses need a bound template for the envelope")
        if witness_subsystems is None:
            witness_subsystems = list(range(len(witnesses)))
        subs = [int(s) for s in witness_subsystems]
        if len(subs) != len(witnesses):
            raise ValueError(f"{len(witnesses)} witnesses but {len(subs)} witness subsystems")
        if len(set(subs)) < len(subs) or not set(subs) <= set(range(rho.sig.nsys)):
            raise ValueError(f"witness subsystems {subs} must be distinct subsystems of 0..{rho.sig.nsys - 1}")
    ranks = [int(r) for r in r_grid]
    subset, decs = _marginal_bases(rho, subset, ranks, extra=subs)
    masses = _masses(rho, subset, decs, ranks)
    dims = rho.sig.dims
    if witnesses is not None:
        e_s = sum(float(w.values(dims[s]) @ decs[s].eigenvalues) for s, w in zip(subs, witnesses))
        params = _bound_params(template, list(witnesses), e_s)
    f_exact = f(rho)
    bases = [decs[s].eigenvectors if s in subset else None for s in range(len(dims))]
    desc = sorted(set(ranks), reverse=True)
    core = None
    found = {}
    for r, r_next in zip(desc, desc[1:] + [None]):
        vs = [None if v is None else v[:, :r] for v in bases]
        kept = [d if v is None else r for d, v in zip(dims, vs)]
        if core is None:
            core = _reduce(rho.mat, vs, dims)
        out, _ = _expand(rho.sig, core, vs, kept)
        _require_state(out)
        # hand the next rank's core, a leading block of this one, off before f runs
        if r_next is None:
            core = None
        else:
            inner = [d if v is None else r_next for d, v in zip(dims, vs)]
            lead = tuple(slice(n) for n in inner) * 2
            core = np.ascontiguousarray(core.reshape(kept * 2)[lead]).reshape(math.prod(inner), -1)
        f_trunc = f(out)
        del out
        c, qbar, tail = masses[r]
        eps = tail_parameter(tail)
        found[r] = {
            "r": r,
            "c_r": c,
            "eps_r": eps,
            "gentle_bound": 2.0 * math.sqrt(qbar),
            "Y_r": None if params is None else _envelope_value(params, eps),
            "f_exact": f_exact,
            "f_trunc": f_trunc,
            "diff": abs(f_trunc - f_exact),
        }
    return ApproxReport(rows=[dict(found[r]) for r in ranks])


def qmi_function(channel_specs: list | None = None):
    """Mutual-information functional, optionally composed with local channels."""
    chan = make_channel_product(channel_specs) if channel_specs else None

    def f(rho: DensityOp) -> float:
        out = chan(rho) if chan is not None else rho
        return mutual_information(out)

    return f
