"""Relative entropy of entanglement across a partition, by conditional-gradient
descent over finite mixtures of product pure states.

The objective sigma -> D(rho || sigma) is convex on the separable set, and
every candidate direction is a product pure state (an atom), found by an
alternating minimal-eigenvector heuristic. Each outer step adds one atom
via exact line search, then a corrective pass re-balances the weights of
the atoms collected so far by SQUAREM-accelerated EM steps, evaluated in
sigma's eigenbasis, which in practice restores fast convergence on
separable inputs. Without an active energy cap the step also refines the
atoms themselves (Riemannian gradient steps on their factors, weights
held), searches with a light oracle seeded at sigma's own best atom and
finds the step length as the root of the objective's slope. The reported
gap is a true suboptimality certificate only when the atom oracle is
exact; it is labeled heuristic everywhere. The seeding makes every
uncapped gap >= 0, but value - gap is still a heuristic lower bound.
Near a singular sigma the gradient, and with it the gap, is dominated by
rho's weight on sigma's smallest eigenvalues, so an uncapped solve that
does not stop at gap-tol takes its final certificate at a slightly mixed
interior point.
"""

from __future__ import annotations

import math
import numbers
import string
from dataclasses import dataclass

import numpy as np

from .approx import compress
from .entropy import (
    LOG_FLOOR,
    _check_groups,
    binary_entropy,
    conditional_entropy,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from .gibbs import _is_source
from .qmat import (
    DensityOp,
    DimSig,
    hermitian_part,
    partial_trace,
    trace_distance,
)

# fixed solver constants: alternating sweeps per certificate-grade and per
# search-grade oracle call, golden-section steps (or secant evaluations) per
# line search, corrective-pass evaluations per iteration, refinement steps
# per iteration and step halvings per refinement step, the weight below
# which an atom is dropped, the stall test for slow descent (no objective
# descent beyond STALL_TOL over STALL_WINDOW iterations; a solve also stalls
# at its first iteration that leaves sigma unchanged) and the number of atom
# pairs kept by the two-copy warm start
LMO_SWEEPS = 50
LMO_SEARCH_SWEEPS = 10
LINE_ITERS = 48
POLISH_ITERS = 30
REFINE_STEPS = 5
REFINE_HALVINGS = 12
# weight of 1/D in the interior point of an uncapped solve's final certificate
CERT_MIX = 1e-5
PRUNE_TOL = 1e-10
STALL_WINDOW = 20
STALL_TOL = 1e-11
LIFT_CAP = 400
# multipliers mu of the capped oracle's stack G + mu H; mu = 0 comes first
MU_GRID = np.concatenate([[0.0], np.logspace(-3, 3, 25)])
_LETTERS = string.ascii_letters


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty groups of subsystem indices covering 0..n-1."""

    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        groups = _check_groups(self.groups, sum(len(g) for g in self.groups))
        canon = tuple(sorted((tuple(sorted(g)) for g in groups), key=lambda g: g[0]))
        object.__setattr__(self, "groups", canon)

    @staticmethod
    def finest(n: int) -> "Partition":
        return Partition(tuple((s,) for s in range(n)))

    @property
    def nsys(self) -> int:
        return sum(len(g) for g in self.groups)


@dataclass(frozen=True)
class SepAtom:
    """One unit vector per partition group; their product is a separable atom."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        fs = tuple(np.asarray(f, dtype=complex) for f in self.factors)
        for f in fs:
            if abs(np.linalg.norm(f) - 1.0) > 1e-10:
                raise ValueError("atom factors must be unit vectors")
        object.__setattr__(self, "factors", fs)


def _product_vectors(factor_stacks, dims, groups) -> np.ndarray:
    """Stacked product vectors (R, prod dims) of per-group factor stacks (R, d_g).

    `groups` cover the subsystems 0..len(dims)-1 and the product lands in
    subsystem order; a lone factor stack is already that product."""
    if len(factor_stacks) == 1:
        return factor_stacks[0]
    n_r = factor_stacks[0].shape[0]
    ops = [f.reshape([n_r] + [dims[s] for s in g]) for f, g in zip(factor_stacks, groups)]
    subs = ["Z" + "".join(_LETTERS[s] for s in g) for g in groups]
    out = "Z" + _LETTERS[: len(dims)]
    return np.einsum(",".join(subs) + "->" + out, *ops).reshape(n_r, -1)


def atom_vector(atom: SepAtom, sig: DimSig, partition: Partition) -> np.ndarray:
    """Full-space vector of a product atom, respecting subsystem ordering."""
    return _product_vectors([f[None] for f in atom.factors], sig.dims, partition.groups)[0]


@dataclass(frozen=True)
class LmoResult:
    """Oracle answers for a stack of M matrices: per group the (M, d_g)
    stack of best factors, their product vectors (M, D), the values
    <v|G_m|v> (M,) and the restart spreads (M,)."""

    factors: tuple[np.ndarray, ...]
    vectors: np.ndarray
    values: np.ndarray
    spreads: np.ndarray


def _group_views(g_mats: np.ndarray, dims: tuple[int, ...], groups) -> list:
    """Per-group contraction layouts of a stack of G, each with its rest.

    A layout (M, drest, dg * dg * drest) has axes (rest row, group row, group
    column, rest column), so one matmul with the rest factors' conjugates
    contracts the rest rows. The rest is (other groups' indices, their dims,
    those groups renumbered within the rest) for `_product_vectors`."""
    n = len(dims)
    n_m = g_mats.shape[0]
    gt = g_mats.reshape((n_m,) + dims + dims)
    views = []
    for j, g in enumerate(groups):
        others = [s for s in range(n) if s not in g]
        pos = {s: i for i, s in enumerate(others)}
        axes = [0] + [1 + s for s in others] + [1 + s for s in g]
        axes += [1 + n + s for s in g] + [1 + n + s for s in others]
        dg = int(np.prod([dims[s] for s in g]))
        dr = int(np.prod([dims[s] for s in others])) if others else 1
        view = np.ascontiguousarray(np.transpose(gt, axes)).reshape(n_m, dr, dg * dg * dr)
        rest = [k for k in range(len(groups)) if k != j]
        rest_groups = [tuple(pos[s] for s in groups[k]) for k in rest]
        views.append((view, (rest, tuple(dims[s] for s in others), rest_groups)))
    return views


def product_lmo(
    g_mats: np.ndarray,
    sig: DimSig,
    partition: Partition,
    restarts: int = 8,
    rng: np.random.Generator | int | None = 0,
    sweeps: int = LMO_SWEEPS,
    seeds: list[np.ndarray] | None = None,
) -> LmoResult:
    """Approximate minimizers of <psi|G_m|psi> over product unit vectors,
    one for each matrix of the stack g_mats (M, D, D), as one `LmoResult`
    whose arrays hold block m in row m.

    Alternating updates: with all factors but one fixed, the optimal
    remaining factor is the minimal eigenvector of the contracted
    operator. All M x restarts lanes sweep in lockstep (one batched
    contraction and one stacked eigensolve per group and sweep). Each
    block of `restarts` lanes stops on its own stall, when no lane's value
    moved by more than 1e-13 (relative) over a sweep, or after `sweeps`
    sweeps; the stalled blocks leave the live set at once. Restarts are
    drawn block by block, in the order M one-matrix calls would draw them,
    so the generator ends in the same state and every block's result
    equals that of its own call. `seeds`, per group an (M, d_g) stack,
    replaces lane 0 of block m by the product of the rows m after the
    draw: alternating updates never raise a lane's value, so block m then
    ends at most at <seed|G_m|seed>. Per block the best attained value
    wins, ties keeping the earliest restart; the restart spread (max - min
    attained value) is a quality diagnostic for this NP-hard subproblem.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dims = sig.dims
    groups = partition.groups
    n_m = g_mats.shape[0]
    views = _group_views(g_mats, dims, groups)
    gdims = [int(np.prod([dims[s] for s in g])) for g in groups]
    n_r = max(1, restarts)
    drawn = []
    for _ in range(n_m):
        for dg in gdims:
            v = rng.standard_normal((n_r, dg)) + 1j * rng.standard_normal((n_r, dg))
            drawn.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    factors = [np.concatenate(drawn[j :: len(gdims)]) for j in range(len(gdims))]
    if seeds is not None:
        for f, seed in zip(factors, seeds):
            f[::n_r] = seed
    # final per-block factors and values; rows of the live arrays belong to
    # the blocks in `live`, restarts contiguous within a block
    out_factors = [np.empty((n_m, n_r, dg), dtype=complex) for dg in gdims]
    out_vals = np.empty((n_m, n_r))
    live = np.arange(n_m)
    vals = np.full(n_m * n_r, math.inf)
    for sweep in range(sweeps):
        prev = vals
        n_live = len(live)
        for j in range(len(groups)):
            view, (rest, rest_dims, rest_groups) = views[j]
            if rest:
                o = _product_vectors([factors[k] for k in rest], rest_dims, rest_groups)
            else:  # a single group: the rest is the empty product
                o = np.ones((n_live * n_r, 1), dtype=complex)
            dg, dr = gdims[j], view.shape[1]
            t = np.matmul(o.conj().reshape(n_live, n_r, dr), view)  # (L, Z, dg * dg * dr)
            eff = np.matmul(t.reshape(n_live * n_r, dg * dg, dr), o[:, :, None]).reshape(-1, dg, dg)
            eff = (eff + eff.conj().transpose(0, 2, 1)) / 2
            w, v = np.linalg.eigh(eff)
            factors[j] = np.ascontiguousarray(v[:, :, 0])
            vals = w[:, 0]
        moved = np.abs(prev - vals).reshape(n_live, n_r).max(axis=1)
        stalled = moved <= 1e-13 * np.maximum(1.0, np.abs(vals).reshape(n_live, n_r).max(axis=1))
        stalled |= sweep == sweeps - 1  # out of sweeps: every live block ends here
        if stalled.any():
            done = live[stalled]
            for j, f in enumerate(factors):
                out_factors[j][done] = f.reshape(n_live, n_r, -1)[stalled]
            out_vals[done] = vals.reshape(n_live, n_r)[stalled]
            keep = ~stalled
            if not keep.any():
                break
            # compact only when a block stalls: indexing the live set on
            # every sweep costs more than the sweep saves on one block
            live = live[keep]
            views = [(view[keep], rest) for view, rest in views]
            factors = [f.reshape(n_live, n_r, -1)[keep].reshape(-1, f.shape[1]) for f in factors]
            vals = vals.reshape(n_live, n_r)[keep].reshape(-1)
    best = np.argmin(out_vals, axis=1)
    best_factors = tuple(f[np.arange(n_m), best] for f in out_factors)
    vectors = _product_vectors(best_factors, dims, groups)
    values = np.array([np.real(v.conj() @ g @ v) for v, g in zip(vectors, g_mats)])
    return LmoResult(best_factors, vectors, values, out_vals.max(axis=1) - out_vals.min(axis=1))


# ---------------------------------------------------------------------------
# The conditional-gradient engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverOpts:
    max_iters: int = 300
    tol: float = 1e-7
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("max_iters", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be a finite real >= 0, got {tol!r}")


@dataclass(frozen=True)
class EnergyConstraint:
    """Sum-of-local-terms Hamiltonian (diagonal per subsystem) and a mean-energy cap."""

    hams: tuple
    E: float

    def diagonal(self, sig: DimSig) -> np.ndarray:
        if len(self.hams) != sig.nsys:
            raise ValueError(f"need one local Hamiltonian per subsystem ({sig.nsys})")
        total = np.zeros(sig.total)
        for s, h in enumerate(self.hams):
            # a diagonal H may list its levels in any order
            vals = np.asarray(h.values(sig.dims[s]) if _is_source(h) else h, dtype=float)
            if vals.shape != (sig.dims[s],):
                raise ValueError(f"local Hamiltonian {s} has {vals.size} levels, need {sig.dims[s]}")
            before = int(np.prod(sig.dims[:s]))
            total = (total.reshape(before, sig.dims[s], -1) + vals[:, None]).reshape(-1)
        return total


@dataclass(frozen=True)
class ERSolution:
    """Upper estimate of the entanglement relative entropy with its decomposition.

    `gap` is value minus the best lower bound obj - gap met along the
    solve, each gap a conditional-gradient gap (Lagrangian under an energy
    cap); with a heuristic atom oracle it is a diagnostic, not a proven
    suboptimality bound. Without an active cap every oracle call is seeded with sigma's
    own lowest atom, so each such gap is >= 0 by construction, yet value
    - gap remains a heuristic lower bound. `status` says why the solve
    stopped: "gap-tol", "stalled" or "max-iters".
    """

    value: float
    gap: float
    sigma: DensityOp
    atoms: list
    iterations: int
    converged: bool
    status: str
    lmo_spread: float = 0.0

    def weights(self) -> np.ndarray:
        return np.asarray([w for w, _ in self.atoms])


def _objective(rho_mat: np.ndarray, sigma_mat: np.ndarray, tr_rho_ln_rho: float):
    """D(rho || sigma), with sigma's eigenvalues clipped at LOG_FLOOR."""
    ws, vs = np.linalg.eigh(hermitian_part(sigma_mat))
    ws = np.maximum(ws, LOG_FLOOR)
    weights = np.real((vs.conj() * (rho_mat @ vs)).sum(axis=0))
    return tr_rho_ln_rho - (weights * np.log(ws)).sum()


def _spectral_terms(rho_mat: np.ndarray, sigma_mat: np.ndarray, tr_rho_ln_rho: float):
    """D(rho || sigma), sigma's eigenvectors V and K = rt o phi from one
    eigendecomposition, so that -G = V K V^dagger is the gradient's negative.

    rt = V^dagger rho V, and phi is the logarithm's divided difference on
    sigma's eigenvalues mu (1/mu on the diagonal). No entry divides by zero:
    near-equal pairs divide by 1.0 in the unused branch, and mu >= LOG_FLOOR.
    sigma must be exactly Hermitian, as `_mixture` builds it."""
    ws, vs = np.linalg.eigh(sigma_mat)
    ws = np.maximum(ws, LOG_FLOOR)
    rt = vs.conj().T @ rho_mat @ vs
    lw = np.log(ws)
    obj = tr_rho_ln_rho - float((np.real(np.diag(rt)) * lw).sum())
    den = ws[:, None] - ws[None, :]
    near = np.abs(den) <= 1e-12 * np.maximum(ws[:, None], ws[None, :])
    phi = np.where(near, 2.0 / (ws[:, None] + ws[None, :]), (lw[:, None] - lw[None, :]) / np.where(near, 1.0, den))
    return obj, vs, rt * phi


def _gradient(vs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The divided-difference gradient G = -V K V^dagger of `_spectral_terms`."""
    return hermitian_part(vs @ -k @ vs.conj().T)


def _obj_and_grad(rho_mat: np.ndarray, sigma_mat: np.ndarray, tr_rho_ln_rho: float):
    """Objective and its divided-difference gradient G = -V K V^dagger."""
    obj, vs, k = _spectral_terms(rho_mat, sigma_mat, tr_rho_ln_rho)
    return obj, _gradient(vs, k)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(h, lo: float, hi: float) -> float:
    """Golden-section minimizer of a convex scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = h(c), h(d)
    for _ in range(LINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = h(d)
    return 0.5 * (a + b)


def _secant(rho_mat, sigma, vec, slope0: float, tr_rho_ln_rho: float):
    """Root of the slope of h(t) = D(rho || sigma_t), sigma_t = (1 - t) sigma
    + t |v><v|, on [0, 1] by a safeguarded secant search: (t, h(t)) at the
    evaluated point of least h.

    With (V_t, K_t) from `_spectral_terms` and u = V_t^dagger v, h'(t) =
    (1 - u^dagger K_t u) / (1 - t) wherever Tr G_t sigma_t = -1 (no
    eigenvalue of sigma_t clipped at LOG_FLOOR). So h' = 0 where y(t) =
    1 / (u^dagger K_t u) = 1, and y is linear in t when v is an eigenvector
    of sigma. The search is Illinois regula falsi on y - 1 over a bracket
    that starts as [0, 1], where y(0) = 1 / (1 - slope0) and y(1) =
    1 / <v|rho|v> are known; each other point takes one
    eigendecomposition. It stops when |y - 1| <= 1e-9 |slope0| + 1e-14,
    when the bracket collapses, or after LINE_ITERS evaluations."""
    direction = np.outer(vec, vec.conj())
    evaluated = []

    def y(t):
        obj, vs, k = _spectral_terms(rho_mat, (1.0 - t) * sigma + t * direction, tr_rho_ln_rho)
        evaluated.append((obj, t))
        u = vs.conj().T @ vec
        q = float(np.real(u.conj() @ k @ u))
        return 1.0 / q if q > 0.0 else math.inf

    r = float(np.real(vec.conj() @ rho_mat @ vec))
    if r >= 1.0:  # h descends on the whole segment, to sigma_1 = rho
        y(1.0)
        return 1.0, evaluated[0][0]
    (lo, f_lo), (hi, f_hi) = (0.0, 1.0 / (1.0 - slope0) - 1.0), (1.0, 1.0 / r - 1.0 if r > 0.0 else math.inf)
    side = 0
    for _ in range(LINE_ITERS):
        t = hi - f_hi * (hi - lo) / (f_hi - f_lo) if math.isfinite(f_hi) else 0.5 * (lo + hi)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:  # the bracket has collapsed
                break
        f = y(t) - 1.0
        if abs(f) <= 1e-9 * abs(slope0) + 1e-14:  # 1e-14: the rounding floor of y
            break
        # an end kept twice in a row has its f halved
        if f < 0.0:
            lo, f_lo, f_hi = t, f, f_hi / 2 if side < 0 else f_hi
            side = -1
        else:
            hi, f_hi, f_lo = t, f, f_lo / 2 if side > 0 else f_lo
            side = 1
    obj, t = min(evaluated)
    return t, obj


def _line_search(rho_mat, sigma, vecs, t_max, tr_rho_ln_rho, slopes=None):
    """Exact line search of D(rho || (1 - t) sigma + t |v><v|) on [0, t_max]
    for each candidate row v of vecs: (t*, value at t*) arrays, each from
    `_golden` on the candidate's own segment or, given the candidates'
    slopes at t = 0, from `_secant` (uncapped solves, whose segments all
    end at t_max = 1).

    A row that repeats an earlier row and its t_max bit for bit copies that
    search: on a diagonal problem the oracle returns the same basis vector
    for most multipliers (27 of the classical pair's 29 candidates)."""
    t_stars, vals = np.empty(len(vecs)), np.empty(len(vecs))
    searched: dict = {}
    for k, vec in enumerate(vecs):
        first = searched.setdefault((vec.tobytes(), float(t_max[k])), k)
        if first != k:
            t_stars[k], vals[k] = t_stars[first], vals[first]
            continue
        if slopes is not None:
            t_stars[k], vals[k] = _secant(rho_mat, sigma, vec, float(slopes[k]), tr_rho_ln_rho)
            continue
        direction = np.outer(vec, vec.conj())

        def h(t):
            return _objective(rho_mat, (1.0 - t) * sigma + t * direction, tr_rho_ln_rho)

        t_stars[k] = _golden(h, 0.0, float(t_max[k]))
        vals[k] = h(t_stars[k])
    return t_stars, vals


def _mixture(w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """sigma = sum_a w_a |psi_a><psi_a| over the stacked rows psi_a of vecs."""
    return hermitian_part((vecs.T * w) @ vecs.conj())


def _corrective_pass(rho_mat, vecs, w, atom_energies, e_cap, tr_rho_ln_rho, stop_gap):
    """Re-balance the weights of a fixed atom set: SQUAREM-accelerated EM on
    min_w D(rho || sum_a w_a |psi_a><psi_a|) over the simplex.

    The EM map w -> w m / (w . m), m_a = <psi_a|(-G)|psi_a> = Re (X K X^dagger)_aa
    with X = vecs^* V, fixes the simplex KKT conditions (Tr(-G sigma) = 1).
    Each cycle takes an EM step and, if it descends, extrapolates along two
    EM steps (Varadhan & Roland, Scand. J. Stat. 35, 335 (2008)), keeping
    the extrapolated point only when it is no worse than the EM point.
    Every trial point is pulled back onto Tr H sigma <= e_cap toward the
    last accepted point. The pass stops on KKT gap <= stop_gap, on an EM
    step that does not descend, or after POLISH_ITERS evaluations (one
    eigendecomposition each) past the start, and returns the accepted weights."""

    def evaluate(wt):
        obj, vs, k = _spectral_terms(rho_mat, _mixture(wt, vecs), tr_rho_ln_rho)
        x = vecs.conj() @ vs
        return wt, obj, np.clip(np.real(((x @ k) * x.conj()).sum(axis=1)), 0.0, None)

    def settled(wt, m):
        return m.max() - wt @ m <= stop_gap or wt @ m <= 0.0

    def onto_cap(new, base):
        e_new = float(new @ atom_energies)
        if e_new <= e_cap + 1e-12:
            return new
        e_base = float(base @ atom_energies)
        lam = (e_cap - e_base) / (e_new - e_base) if e_new > e_base else 0.0
        return base + max(0.0, lam) * (new - base)

    def em_step(wt, m):
        return onto_cap(wt * m / (wt @ m), wt)

    cur = evaluate(w)
    evals = 0
    while evals < POLISH_ITERS and not settled(cur[0], cur[2]):
        w0, obj0, m0 = cur
        step = evaluate(em_step(w0, m0))
        evals += 1
        if step[1] > obj0 + 1e-14:
            break
        cur = w1, obj1, m1 = step
        if evals >= POLISH_ITERS or settled(w1, m1):
            break
        w2 = em_step(w1, m1)
        r = w1 - w0
        v = w2 - w1 - r
        nv = np.linalg.norm(v)
        alpha = -max(1.0, np.linalg.norm(r) / nv) if nv > 0.0 else -1.0
        trial = w0 - 2.0 * alpha * r + alpha * alpha * v
        while trial.min() < 0.0 and alpha < -1.001:
            alpha = (alpha - 1.0) / 2.0
            trial = w0 - 2.0 * alpha * r + alpha * alpha * v
        if trial.min() < 0.0:
            trial = w2
        ext = evaluate(onto_cap(trial / trial.sum(), w1))
        evals += 1
        if ext[1] <= obj1:
            cur = ext
    return cur[0]


def _lowest_atom(g_mat: np.ndarray, vecs: np.ndarray, factors) -> list[np.ndarray]:
    """Per group the (1, d_g) factor of the atom of sigma lowest in G. Its
    value is at most Tr G sigma = sum_a w_a <a|G|a>, so an oracle seeded
    with it never returns more: the uncapped gap is >= 0 by construction."""
    a = int(np.argmin(np.real(((vecs.conj() @ g_mat) * vecs).sum(axis=1))))
    return [f[a : a + 1] for f in factors]


def _interior_point(rho_mat, sigma, vecs, factors, sig: DimSig, partition: Partition, tr_rho_ln_rho: float):
    """(obj, G, sigma_d, seeds) at sigma_d = (1 - CERT_MIX) sigma + CERT_MIX 1/D,
    where an uncapped solve that did not stop at gap-tol takes its final
    certificate.

    sigma_d is separable, so D(rho || sigma_d) minus its own gap bounds the
    optimum too, while near a singular sigma the gradient is dominated by
    rho's weight on sigma's smallest eigenvalues and the gap at sigma itself
    is loose. The seed is the lowest in G of sigma's atoms and of the
    computational product basis, whose uniform mixture is 1/D, so the
    oracle's value is at most Tr G sigma_d and the gap is >= 0."""
    dim = len(sigma)
    sigma_d = (1.0 - CERT_MIX) * sigma + (CERT_MIX / dim) * np.eye(dim)
    obj, g_mat = _obj_and_grad(rho_mat, sigma_d, tr_rho_ln_rho)
    values = np.real(((vecs.conj() @ g_mat) * vecs).sum(axis=1))
    diag = np.real(np.diag(g_mat))
    a, i = int(np.argmin(values)), int(np.argmin(diag))
    seeds = _basis_factors(sig, partition, [i]) if diag[i] < values[a] else [f[a : a + 1] for f in factors]
    return obj, g_mat, sigma_d, seeds


def _factor_gradients(gpsi: np.ndarray, factors, dims, groups) -> list[np.ndarray]:
    """Per group the stack (K, d_g) of c_k = (other factors of atom k)^dagger
    G |psi_k>, from the rows G |psi_k> of gpsi (K, D): the derivative of
    <psi_k|G|psi_k> in the conjugate of that group's factor."""
    n_k = len(gpsi)
    t = gpsi.reshape((n_k,) + tuple(dims))
    full = "Z" + _LETTERS[: len(dims)]
    subs = ["Z" + "".join(_LETTERS[s] for s in g) for g in groups]
    ops = [f.conj().reshape([n_k] + [dims[s] for s in g]) for f, g in zip(factors, groups)]
    out = []
    for j in range(len(groups)):
        rest = [i for i in range(len(groups)) if i != j]
        expr = ",".join([full] + [subs[i] for i in rest]) + "->" + subs[j]
        out.append(np.einsum(expr, t, *[ops[i] for i in rest]).reshape(n_k, -1))
    return out


def _refine(rho_mat, w, factors, dims, groups, obj, g_mat, tr_rho_ln_rho):
    """Atom refinement with the weights held fixed (Zinchenko, Friedland &
    Gour, PRA 82, 052336 (2010)): every factor f of every atom moves along
    the Riemannian gradient of D(rho || sigma) on its unit sphere,
    f <- normalize(f - eta (c - f <f|c>)), c from `_factor_gradients`, all
    atoms with one step eta. eta starts at 1 / ||G|| (Frobenius) and halves
    at most REFINE_HALVINGS times until the objective descends; a step
    taken at its first try doubles eta for the next. The phase takes at most
    REFINE_STEPS steps and ends at the first step that does not descend.
    Returns (factors, vecs, sigma, obj, G) at the last accepted point, or
    None if no step descended."""
    accepted = None
    eta = 1.0 / np.linalg.norm(g_mat)
    vecs = _product_vectors(factors, dims, groups)
    for _ in range(REFINE_STEPS):
        cs = _factor_gradients(vecs @ g_mat.T, factors, dims, groups)
        dirs = [c - f * (f.conj() * c).sum(axis=1, keepdims=True) for f, c in zip(factors, cs)]
        for halvings in range(REFINE_HALVINGS + 1):
            trial = [f - eta * d for f, d in zip(factors, dirs)]
            trial = [f / np.linalg.norm(f, axis=1, keepdims=True) for f in trial]
            t_vecs = _product_vectors(trial, dims, groups)
            t_sigma = _mixture(w, t_vecs)
            t_obj, vs, k = _spectral_terms(rho_mat, t_sigma, tr_rho_ln_rho)
            if t_obj < obj:
                break
            eta /= 2
        else:
            break
        factors, vecs, obj, g_mat = trial, t_vecs, t_obj, _gradient(vs, k)
        accepted = (factors, vecs, t_sigma, obj, g_mat)
        if halvings == 0:  # taken at its first try: the next step tries twice as far
            eta *= 2
    return accepted


def _basis_factors(sig: DimSig, partition: Partition, idx) -> list[np.ndarray]:
    """Per-group (len(idx), d_g) one-hot factor stacks of the product vectors e_idx."""
    coords = np.unravel_index(idx, sig.dims)
    per_group = []
    for g in partition.groups:
        gdims = [sig.dims[s] for s in g]
        pos = np.ravel_multi_index([coords[s] for s in g], gdims)
        per_group.append(np.eye(int(np.prod(gdims)), dtype=complex)[pos])
    return per_group


def relative_entropy_entanglement(
    rho: DensityOp,
    partition: Partition | None = None,
    opts: SolverOpts | None = None,
    initial_atoms: list[tuple[float, SepAtom]] | None = None,
    constraint: EnergyConstraint | None = None,
) -> ERSolution:
    """Minimize D(rho || sigma) over finite product-atom mixtures.

    The start mixes an anchor atom (the best single product atom, the
    initial_atoms, or under a cap the one-hot ground atom if the anchor is
    too energetic) with the uniform mixture 1/D, written as the D products
    of each partition group's marginal eigenvectors. Every solve, capped or
    warm-started too, uses this start, so the solve is covariant under
    local unitaries up to the oracle's random restarts.

    With `constraint`, every iterate keeps Tr H sigma <= E: candidate
    atoms come from a multiplier sweep on G + mu H (mu in MU_GRID) and
    `_golden` line searches are clipped to the feasible segment
    (feasibility, not per-step optimality, is guaranteed). Without one the
    solve has H = 0, E = inf and the single multiplier mu = 0, and three
    things change: the oracle is search-grade (LMO_SEARCH_SWEEPS sweeps)
    with lane 0 seeded at sigma's atom lowest in G (`_lowest_atom`), so
    every gap is >= 0; the line search is `_secant` on the slope; and
    after the corrective pass `_refine` moves the atoms' factors with the
    weights held. A cap at or above the largest product energy max_i H_ii
    binds no state and is solved uncapped. Only descending candidates,
    those with <v|G|v> < Tr G sigma, are line-searched. The gap is
    Lagrangian: Tr G sigma - max_mu (min <G + mu H> - mu E) over the
    multipliers, which under no cap is the plain conditional-gradient gap.

    `status` is "gap-tol" once the gap is at most tol (an uncapped gap
    only when a seeded certificate-grade call, LMO_SWEEPS sweeps, at the
    same sigma confirms it); "stalled" at the first iteration whose sigma
    (after the corrective pass, pruning and renormalization) equals the
    last bit for bit, or when the objective fell by at most STALL_TOL over
    STALL_WINDOW iterations; else "max-iters". One more certificate-grade
    oracle call at the final sigma gives the reported gap; an uncapped
    "gap-tol" stop reuses its confirming call, and any other uncapped stop
    takes the call, seeded, at the interior point of `_interior_point`.
    `converged` is "gap-tol" or that gap <= tol. Non-convergence returns
    the last iterate rather than raising.
    """
    if partition is None:
        partition = Partition.finest(rho.sig.nsys)
    if partition.nsys != rho.sig.nsys:
        raise ValueError("partition does not match the state's subsystem count")
    opts = opts or SolverOpts()
    rng = np.random.default_rng(opts.seed)
    dim = rho.sig.total
    rho_mat = rho.mat
    tr_rho_ln_rho = -von_neumann_entropy(rho)

    h_diag, e_cap, mus = np.zeros(dim), math.inf, np.zeros(1)
    if constraint is not None:
        h, e = constraint.diagonal(rho.sig), float(constraint.E)
        if e < h.min() - 1e-12:
            raise ValueError(f"infeasible energy bound {e}: ground product energy is {h.min()}")
        # every sigma has Tr H sigma <= max_i H_ii, so a cap at or above the
        # largest product energy binds nothing and the solve runs uncapped
        # (a NaN cap compares false and stays capped)
        if not e >= h.max():
            h_diag, e_cap, mus = h, e, MU_GRID
    h_mat = np.diag(h_diag)
    capped = len(mus) > 1

    # the mixture: weights w, one (K, d_g) factor stack per partition group
    # and their stacked product vectors vecs (K x D), all masked alike
    mix_w = 1e-8 if initial_atoms else 0.5
    if initial_atoms:
        gdims = [int(np.prod([rho.sig.dims[s] for s in g])) for g in partition.groups]
        for idx, (_, atom) in enumerate(initial_atoms):
            if len(atom.factors) != len(gdims):
                raise ValueError(f"initial atom {idx} has {len(atom.factors)} factors for groups {partition.groups}")
            for g, (f, dg) in enumerate(zip(atom.factors, gdims)):
                if f.shape != (dg,):
                    raise ValueError(f"initial atom {idx}: group {g} factor has shape {f.shape}, expected ({dg},)")
        w0 = [float(wt) for wt, _ in initial_atoms]
        factors = [np.stack(fs) for fs in zip(*(a.factors for _, a in initial_atoms))]
        vecs = _product_vectors(factors, rho.sig.dims, partition.groups)
    else:
        # best single product atom for rho anchors the start
        best = product_lmo(-rho_mat[None], rho.sig, partition, opts.restarts, rng)
        w0 = [1.0]
        if float((np.abs(best.vectors[0]) ** 2 * h_diag).sum()) <= e_cap:
            vecs, factors = best.vectors, list(best.factors)
        else:
            ground_idx = int(np.argmin(h_diag))
            vecs = np.eye(1, dim, ground_idx, dtype=complex)
            factors = _basis_factors(rho.sig, partition, [ground_idx])
    # lower the mixed component until the start respects the energy cap:
    # the start's energy is (1 - mix_w) e_start + mix_w mean, e_start the
    # energy of the anchor atom or of the warm mixture
    e_start = float(np.asarray(w0) @ (np.abs(vecs) ** 2 @ h_diag)) / sum(w0)
    mean = float(h_diag.mean())
    if mean > e_cap:
        mix_w = 0.0 if e_start >= e_cap else min(mix_w, 0.9 * (e_cap - e_start) / (mean - e_start))
    w = np.asarray(w0) * ((1.0 - mix_w) / sum(w0))  # sequential sum, not pairwise
    # the uniform mixture keeps full support; express it through the products
    # of each group's marginal eigenvectors, each reweighted on its own by the
    # corrective pass, so the start turns with rho under local unitaries
    if mix_w > 0:
        w = np.concatenate([w, np.full(dim, mix_w / dim)])
        onehot = _basis_factors(rho.sig, partition, np.arange(dim))
        basis = [b @ np.linalg.eigh(partial_trace(rho, g).mat)[1].T for b, g in zip(onehot, partition.groups)]
        vecs = np.vstack([vecs, _product_vectors(basis, rho.sig.dims, partition.groups)])
        factors = [np.vstack([f, b]) for f, b in zip(factors, basis)]

    sigma = _mixture(w, vecs)
    spread = 0.0
    status = "max-iters"
    obj_history: list[float] = []
    best_lower = -math.inf

    def oracle(g_mat, sweeps):
        if capped:  # one candidate atom per multiplier; mu = 0 stays G itself
            stack = np.repeat(g_mat[None], len(mus), axis=0)
            stack[1:] += mus[1:, None, None] * h_mat
            return product_lmo(stack, rho.sig, partition, opts.restarts, rng, sweeps=sweeps)
        seeds = _lowest_atom(g_mat, vecs, factors)
        return product_lmo(g_mat[None], rho.sig, partition, opts.restarts, rng, sweeps=sweeps, seeds=seeds)

    # one eigendecomposition per iteration boundary: (obj, G) at the current
    # sigma feeds the oracle, the stall test and the final certificate
    obj, g_mat = _obj_and_grad(rho_mat, sigma, tr_rho_ln_rho)
    for iterations in range(1, opts.max_iters + 1):
        base_val = float(np.real(np.trace(g_mat @ sigma)))
        # uncapped solves search with the light oracle and confirm a small
        # gap with a certificate-grade call
        cands = oracle(g_mat, LMO_SWEEPS if capped else LMO_SEARCH_SWEEPS)
        if not capped and base_val - float(cands.values[0]) <= opts.tol:
            cands = oracle(g_mat, LMO_SWEEPS)
        # Lagrangian lower bound on min Tr G sigma' over feasible sigma'; the
        # mu = 0 term stays out of mu E, which is 0 * inf with no cap
        lower = max(cands.values[0], (cands.values[1:] - mus[1:] * e_cap).max(initial=-math.inf))
        gap = base_val - float(lower)
        spread = max(spread, float(cands.spreads[0]))
        best_lower = max(best_lower, obj - gap)
        if gap <= opts.tol:
            status = "gap-tol"
            break
        # clip each candidate's step to the feasible segment
        e_sigma = float((np.abs(np.diag(sigma)) * h_diag).sum())
        e_atoms = (np.abs(cands.vectors) ** 2 * h_diag).sum(axis=1)
        over = (e_atoms > e_cap + 1e-12) & (e_atoms > e_sigma)
        t_max = np.ones(len(mus))
        t_max[over] = np.maximum(0.0, (e_cap - e_sigma) / (e_atoms[over] - e_sigma))
        # the objective is convex along each segment with slope <v|G|v> - Tr G sigma
        # at t = 0, so only a candidate with <v|G|v> < Tr G sigma can descend;
        # row 0 reuses the oracle's value, so gap > tol always keeps it
        q = cands.values.copy()
        q[1:] = [np.real(v.conj() @ g_mat @ v) for v in cands.vectors[1:]]
        feasible = np.flatnonzero((t_max > 0.0) & (q < base_val))
        t_star = 0.0
        if len(feasible):
            slopes = None if capped else q[feasible] - base_val
            t_stars, vals = _line_search(
                rho_mat, sigma, cands.vectors[feasible], t_max[feasible], tr_rho_ln_rho, slopes
            )
            k = int(np.argmin(vals))
            if vals[k] < obj - 1e-15:
                t_star, pick = float(t_stars[k]), feasible[k]
        if t_star > 0.0:
            vec = cands.vectors[pick]
            w = w * (1.0 - t_star)
            duplicate = np.abs(vecs.conj() @ vec) ** 2 > 1.0 - 1e-12
            if duplicate.any():
                w[np.argmax(duplicate)] += t_star
            else:
                w = np.append(w, t_star)
                vecs = np.vstack([vecs, vec])
                factors = [np.vstack([f, c[pick]]) for f, c in zip(factors, cands.factors)]
        atom_energies = (np.abs(vecs) ** 2 * h_diag).sum(axis=1)
        w = _corrective_pass(rho_mat, vecs, w, atom_energies, e_cap, tr_rho_ln_rho, max(opts.tol * 0.1, 1e-13))
        keep = w > PRUNE_TOL
        w, vecs, factors = w[keep], vecs[keep], [f[keep] for f in factors]
        w = w / w.sum()
        previous, sigma = sigma, _mixture(w, vecs)
        if np.array_equal(sigma, previous):
            # G and the corrective pass are deterministic in sigma, so every
            # later iteration would repeat this one but for the oracle's
            # random restarts
            status = "stalled"
            break
        obj, g_mat = _obj_and_grad(rho_mat, sigma, tr_rho_ln_rho)
        if not capped:
            refined = _refine(rho_mat, w, factors, rho.sig.dims, partition.groups, obj, g_mat, tr_rho_ln_rho)
            if refined is not None:
                factors, vecs, sigma, obj, g_mat = refined
        obj_history.append(obj)
        # the heuristic gap can lag far behind the objective; stop once the
        # value itself has stopped moving
        if len(obj_history) > STALL_WINDOW and obj_history[-STALL_WINDOW - 1] - obj <= STALL_TOL:
            status = "stalled"
            break

    # refresh the certificate with a fresh linearization (an uncapped stop at
    # gap-tol reuses the call that confirmed it, any other uncapped stop takes
    # it at an interior point), then report the gap against the best lower
    # bound seen anywhere on the trajectory (each obj - gap lower-bounds the
    # optimum up to the oracle's accuracy)
    cert_obj, cert_g, cert_sigma = obj, g_mat, sigma
    if capped:
        final = product_lmo(g_mat[None], rho.sig, partition, opts.restarts, rng)
    elif status == "gap-tol":
        final = cands
    else:
        cert_obj, cert_g, cert_sigma, seeds = _interior_point(
            rho_mat, sigma, vecs, factors, rho.sig, partition, tr_rho_ln_rho
        )
        final = product_lmo(cert_g[None], rho.sig, partition, opts.restarts, rng, seeds=seeds)
    final_gap = float(np.real(np.trace(cert_g @ cert_sigma))) - float(final.values[0])
    best_lower = max(best_lower, cert_obj - final_gap)
    sigma_op = DensityOp(rho.sig, sigma)
    value = relative_entropy(rho, sigma_op)
    gap = max(0.0, float(value) - best_lower)
    return ERSolution(
        value=float(value),
        gap=float(gap),
        sigma=sigma_op,
        atoms=[(wt, SepAtom(f)) for wt, f in zip(w, zip(*factors))],
        iterations=iterations,
        converged=status == "gap-tol" or gap <= opts.tol,
        status=status,
        lmo_spread=spread,
    )


def energy_sweep(
    rho: DensityOp,
    partition: Partition | None,
    hams,
    e_grid,
    opts: SolverOpts | None = None,
) -> list[dict]:
    """Solve the constrained problem along an increasing energy grid.

    Each step warm-starts from the previous solution's atoms (feasible
    again since the cap only loosens), which makes the reported values
    nonincreasing in E up to solver tolerance. A cap at or above the
    largest product energy is solved uncapped; only descending candidates
    are line-searched. Each row carries its solve's `status`.
    """
    e_grid = [float(e) for e in e_grid]
    if any(b <= a for a, b in zip(e_grid, e_grid[1:])):
        raise ValueError("energy grid must be strictly increasing")
    rows = []
    warm: list | None = None
    for e in e_grid:
        cap = EnergyConstraint(hams=tuple(hams), E=e)
        sol = relative_entropy_entanglement(rho, partition, opts, initial_atoms=warm, constraint=cap)
        rows.append({"E": e, "value": sol.value, "gap": sol.gap, "iters": sol.iterations, "status": sol.status})
        warm = sol.atoms
    return rows


# ---------------------------------------------------------------------------
# Tensor powers and the regularization estimate
# ---------------------------------------------------------------------------

DIM_LIMIT = 4096


def _admissible_copies(total: int) -> int:
    """The most copies k of a total-dimensional state with total**k <= DIM_LIMIT."""
    return int(math.floor(math.log(DIM_LIMIT) / math.log(total)))


def tensor_power_regrouped(rho: DensityOp, k: int) -> DensityOp:
    """rho^(x k) with each party's k copies joined into one subsystem.

    The copy-major tensor ordering is permuted to party-major with a
    single dense reshape/transpose pass.
    """
    if k < 1:
        raise ValueError("tensor power needs k >= 1")
    dims = rho.sig.dims
    n = len(dims)
    total = rho.sig.total**k
    if total > DIM_LIMIT:
        raise ValueError(
            f"dimension overflow: total {total} exceeds {DIM_LIMIT}; "
            f"admissible k_max={_admissible_copies(rho.sig.total)}"
        )
    mat = rho.mat
    for _ in range(k - 1):
        mat = np.kron(mat, rho.mat)
    if k > 1:
        t = mat.reshape(dims * k + dims * k)
        axes = [c * n + s for s in range(n) for c in range(k)]
        t = np.transpose(t, axes + [k * n + a for a in axes])
        mat = np.ascontiguousarray(t).reshape(total, total)
    return DensityOp(DimSig(tuple(d**k for d in dims)), mat)


def _caratheodory(atoms: list, sig: DimSig, partition: Partition) -> list:
    """At most D^2 of the atoms, reweighted to the same mixture sigma.

    Carathéodory steps: the projectors P_a of the K active atoms, stacked
    as the columns [Re P_a; Im P_a] of a real 2D^2 x K matrix, have a null
    vector u (the last right singular vector), so sum_a u_a P_a = 0 and,
    taking traces, sum_a u_a = 0. The weights move along -u until the
    first one reaches 0, and that atom is dropped, until K <= D^2. A list
    of at most D^2 atoms is returned as it is.
    """
    if len(atoms) <= sig.total**2:
        return atoms
    w = np.asarray([wt for wt, _ in atoms], dtype=float)
    stacks = [np.stack(fs) for fs in zip(*(a.factors for _, a in atoms))]
    vecs = _product_vectors(stacks, sig.dims, partition.groups)
    proj = (vecs[:, :, None] * vecs[:, None, :].conj()).reshape(len(atoms), -1)
    cols = np.concatenate([proj.real, proj.imag], axis=1).T
    alive = np.arange(len(atoms))
    while len(alive) > sig.total**2:
        u = np.linalg.svd(cols[:, alive])[2][-1]
        if u.max() <= 0.0:
            u = -u
        pos = np.flatnonzero(u > 0.0)
        j = pos[np.argmin(w[alive[pos]] / u[pos])]
        w[alive] = np.maximum(w[alive] - (w[alive[j]] / u[j]) * u, 0.0)
        w[alive[j]] = 0.0
        alive = np.delete(alive, j)
    return [(w[a], atoms[a][1]) for a in alive]


def _lift_atoms_to_power(atoms: list, sig: DimSig, partition: Partition) -> list:
    """Products of two copies of first-power atoms, regrouped per party.

    Keeps the LIFT_CAP heaviest pairs (ties in pair order) and renormalizes
    their weights; factors are built for the kept pairs only, one broadcast
    product per group. For D <= 4, atoms reduced to at most D^2 first
    (_caratheodory) give at most 256 pairs, all within the cap."""
    dims = sig.dims
    w = np.asarray([wt for wt, _ in atoms])
    pair_w = np.outer(w, w).ravel()
    order = np.argsort(-pair_w, kind="stable")
    order = order[pair_w[order] >= 1e-12][:LIFT_CAP]
    total = sum(pair_w[order])  # sequential sum, not pairwise
    first, second = np.divmod(order, len(atoms))
    stacks = [np.stack(fs) for fs in zip(*(a.factors for _, a in atoms))]
    lifted = []
    for g, s in zip(partition.groups, stacks):
        shape = [dims[x] for x in g]
        # elementwise: at d_g <= 3 it rounds as a one-pair np.tensordot
        # (zgemm) does, which einsum and a batched matmul do not
        prod = (s[first][:, :, None] * s[second][:, None, :]).reshape([len(order)] + shape + shape)
        m = len(shape)
        interleave = [0] + [1 + i for pair in zip(range(m), range(m, 2 * m)) for i in pair]
        lifted.append(np.transpose(prod, interleave).reshape(len(order), -1))
    return [(pair_w[j] / total, SepAtom(f)) for j, f in zip(order, zip(*lifted))]


def regularized_estimates(
    rho: DensityOp, partition: Partition | None = None, k_max: int = 2, opts: SolverOpts | None = None
) -> list[dict]:
    """Per-copy-count upper estimates of the regularized measure.

    Row k reports E(rho^(x k))/k with its gap also divided by k, so both
    are per copy; `raw_value` keeps the k-copy value. The k = 2 solve
    warm-starts from the k = 1 atom decomposition, reduced to at most D^2
    atoms, squared; its row adds `lift_pairs`, the number of atom pairs in
    that start, and `lift_exact`, whether they are all the pairs, so that
    the start is sigma x sigma. For D <= 4 every pair fits LIFT_CAP, and
    only pairs below weight 1e-12 can be dropped. Each row carries its
    solve's `status`. k_max is 1 or 2.
    """
    if partition is None:
        partition = Partition.finest(rho.sig.nsys)
    if rho.sig.total**k_max > DIM_LIMIT:
        raise ValueError(f"dimension overflow at k={k_max}; admissible k_max={_admissible_copies(rho.sig.total)}")
    if k_max not in (1, 2):
        raise ValueError(f"k_max must be 1 or 2, got {k_max}")
    sols = [relative_entropy_entanglement(rho, partition, opts)]
    if k_max == 2:
        one = _caratheodory(sols[0].atoms, rho.sig, partition)
        warm = _lift_atoms_to_power(one, rho.sig, partition)
        sols.append(relative_entropy_entanglement(tensor_power_regrouped(rho, 2), partition, opts, initial_atoms=warm))
    rows = [
        dict(k=k, value=sol.value / k, raw_value=sol.value, gap=sol.gap / k, iters=sol.iterations, status=sol.status)
        for k, sol in enumerate(sols, start=1)
    ]
    if k_max == 2:
        rows[1].update(lift_pairs=len(warm), lift_exact=len(warm) == len(one) ** 2)
    return rows


# ---------------------------------------------------------------------------
# Projective truncation limit experiment
# ---------------------------------------------------------------------------


def truncation_limit_experiment(
    rho: DensityOp,
    projector_steps: list[dict[int, np.ndarray]],
    m_grid: list[int] | None = None,
    opts: SolverOpts | None = None,
) -> list[dict]:
    """Track E_R of compressed reductions along projector sequences.

    `projector_steps[k]` maps subsystem -> projector at step k; the
    sequences should increase to the identity. For each step and each m
    in `m_grid`, the compressed state is reduced to the first m
    subsystems and solved with the finest partition; each row carries its
    solve's `status` and `iters`. Steps whose compression annihilates the
    state are skipped with a note.
    """
    n = rho.sig.nsys
    if m_grid is None:
        m_grid = [n]
    rows = []
    prev: dict[int, float] = {}
    for k, projs in enumerate(projector_steps):
        rho_k, c = compress(rho, projs)
        if rho_k is None:
            rows.append({"k": k, "skipped": True, "note": "truncation annihilates state"})
            continue
        for m in m_grid:
            reduced = partial_trace(rho_k, list(range(m))) if m < n else rho_k
            sol = relative_entropy_entanglement(reduced, Partition.finest(m), opts)
            key = m
            rel = None
            if key in prev and max(abs(sol.value), abs(prev[key])) > 0:
                rel = abs(sol.value - prev[key]) / max(abs(sol.value), 1e-12)
            prev[key] = sol.value
            rows.append(
                {
                    "k": k,
                    "m": m,
                    "c_k": c,
                    "value": sol.value,
                    "gap": sol.gap,
                    "iters": sol.iterations,
                    "status": sol.status,
                    "rel_change": rel,
                    "skipped": False,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Inequality verifiers
# ---------------------------------------------------------------------------


VERIFY_SLACK = 1e-6


def _marginal_entropy_sums(rho: DensityOp) -> float:
    """Smallest sum of n-1 marginal entropies (the tightest upper bound)."""
    n = rho.sig.nsys
    ents = [von_neumann_entropy(partial_trace(rho, [s])) for s in range(n)]
    return float(sum(ents) - max(ents))


def verify_er_inequalities(
    er_ub_samples: list[DensityOp] = (),
    mixing_samples: list[tuple[DensityOp, DensityOp, float]] = (),
    lb1_samples: list[DensityOp] = (),
    lb2_samples: list[DensityOp] = (),
    opts: SolverOpts | None = None,
) -> dict:
    """Check the solver against the exact inequalities the measure satisfies.

    Orientation is conservative: upper estimates sit on the small side,
    (value - gap) lower certificates on the large side, so a pass is
    meaningful despite the heuristic oracle. Every solve uses the finest
    partition. Violations beyond gap + VERIFY_SLACK are reported with
    margins.
    """
    opts = opts or SolverOpts()
    rows = []

    def solve(state: DensityOp) -> ERSolution:
        return relative_entropy_entanglement(state, None, opts)

    for i, rho in enumerate(er_ub_samples):
        sol = solve(rho)
        bound = _marginal_entropy_sums(rho)
        margin = bound + VERIFY_SLACK - sol.value
        rows.append({"check": "marginal-upper", "sample": i, "value": sol.value, "bound": bound, "margin": margin})

    for i, (rho, sig2, p) in enumerate(mixing_samples):
        sol_r, sol_s = solve(rho), solve(sig2)
        mix = DensityOp(rho.sig, p * rho.mat + (1 - p) * sig2.mat)
        sol_m = solve(mix)
        lhs = p * max(0.0, sol_r.value - sol_r.gap) + (1 - p) * max(0.0, sol_s.value - sol_s.gap)
        rhs = sol_m.value + binary_entropy(p)
        margin = rhs + VERIFY_SLACK - lhs
        rows.append({"check": "mixing", "sample": i, "lhs": lhs, "rhs": rhs, "margin": margin})

    for i, rho in enumerate(lb1_samples):
        if rho.sig.nsys != 2:
            raise ValueError("conditional-entropy lower bounds need bipartite samples")
        sol = solve(rho)
        for a in (0, 1):
            lower = -conditional_entropy(rho, part=a)
            margin = sol.value + VERIFY_SLACK - lower
            row = {
                "check": "neg-conditional-lower",
                "sample": i,
                "conditioned_on": 1 - a,
                "lower": lower,
                "value": sol.value,
                "margin": margin,
            }
            rows.append(row)

    for i, rho in enumerate(lb2_samples):
        if rho.sig.nsys != 3:
            raise ValueError("pure-state monogamy checks need tripartite samples")
        purity = float(np.real(np.trace(rho.mat @ rho.mat)))
        if purity < 1.0 - 1e-8:
            raise ValueError("pure-state monogamy checks need pure samples")
        sol_full = solve(rho)
        lhs = max(0.0, sol_full.value - sol_full.gap)
        for i_, j_ in ((0, 1), (1, 2), (2, 0)):
            red = partial_trace(rho, [i_, j_])
            sol_ij = solve(red)
            rhs = sol_ij.value + von_neumann_entropy(red)
            margin = lhs + VERIFY_SLACK - rhs
            row = {
                "check": "pure-monogamy",
                "sample": i,
                "pair": (i_, j_),
                "lhs_cert": lhs,
                "rhs": rhs,
                "margin": margin,
            }
            rows.append(row)

    violations = [r for r in rows if r["margin"] < 0]
    return {"rows": rows, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# Convergence demonstration along a state sequence
# ---------------------------------------------------------------------------


def sequence_convergence_demo(
    states: list[DensityOp],
    rho0: DensityOp,
    partition: Partition | None = None,
    opts: SolverOpts | None = None,
) -> list[dict]:
    """Tabulate distances, mutual information and measure estimates along a sequence.

    A desk-scale illustration that the estimates track the limit state
    whenever the mutual-information column does. Each row carries its
    solve's `status` and `iters`.
    """
    if partition is None:
        partition = Partition.finest(rho0.sig.nsys)
    rows = []
    for k, state in enumerate(list(states) + [rho0]):
        label = k if k < len(states) else "limit"
        sol = relative_entropy_entanglement(state, partition, opts)
        rows.append(
            {
                "k": label,
                "trace_distance": trace_distance(state, rho0),
                "qmi": mutual_information(state),
                "value": sol.value,
                "gap": sol.gap,
                "iters": sol.iterations,
                "status": sol.status,
            }
        )
    return rows
