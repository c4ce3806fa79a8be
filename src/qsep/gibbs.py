"""Gibbs states, maximum-entropy ceilings, and the continuity-bound evaluator.

All solvers work on truncated diagonal level sequences. For symbolic
Hamiltonians the truncation dimension is chosen adaptively so that the
dropped partition-function terms are negligible at the solved inverse
temperature (term criterion 1e-14 of the partial sum, floor 64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .entropy import _eta_sum, binary_entropy, g_entropy, von_neumann_entropy
from .qmat import DensityOp, DimSig, partial_trace

ENERGY_TOL = 1e-10
DIM_FLOOR = 64
DIM_CAP = 1 << 21
TERM_CRIT = 1e-14
MEMBERSHIP_SLACK = 1e-8


def _is_source(h) -> bool:
    """Whether h is a level source (a HamiltonianSpec or a witness, with
    `level`, `values` and `finite_dim`) rather than a raw level array."""
    return hasattr(h, "level")


def _levels_of(h, dim: int | None, memo: dict | None = None) -> tuple[np.ndarray, bool]:
    """Levels 1..dim of h, and whether they may grow.

    A level source yields values(dim); without a dim it yields its whole
    finite length, or DIM_FLOOR levels that may grow by doubling when it
    is infinite (taken from `memo` as in _grown). A raw level array is
    taken whole.
    """
    if _is_source(h):
        if dim is None and h.finite_dim is None:
            return _grown(h, DIM_FLOOR, {} if memo is None else memo), True
        return h.values(dim if dim is not None else h.finite_dim), False
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("level sequence must be a nonempty 1-D array")
    return arr, False


def _grown(h, n: int, memo: dict) -> np.ndarray:
    """Levels 1..n of a growable level source.

    `memo` maps each source to the longest levels evaluated so far; only
    the indices it lacks are evaluated, and it keeps the result. Levels
    are elementwise, so the result is bit-identical to values(n).
    """
    have = memo.get(h)
    if have is None or have.size < n:
        start = 0 if have is None else have.size
        new = h.level(np.arange(start + 1, n + 1, dtype=float))
        have = memo[h] = new if have is None else np.concatenate([have, new])
    return have[:n]


def _stable_weights(levels: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (levels - levels[0]))
    return w / w.sum()


@dataclass(frozen=True)
class GibbsSolution:
    """Result of a mean-energy-constrained entropy maximization on a truncation.

    `clamped` is set when the adaptive truncation of a symbolic Hamiltonian
    or witness stopped at DIM_CAP before its dropped tail was negligible;
    the entropy is then a truncation value below the true ceiling.
    """

    beta: float
    levels: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    mean_energy: float
    entropy: float
    clamped: bool = False

    @property
    def dim(self) -> int:
        return int(self.levels.size)

    @property
    def state(self) -> DensityOp:
        """Diagonal density operator; materialize only at desk dimensions."""
        if self.dim > 4096:
            raise ValueError(f"refusing to materialize a {self.dim}-dimensional dense state")
        return DensityOp(DimSig((self.dim,)), np.diag(self.weights).astype(complex))


def _weights_at(levels: np.ndarray, beta: float) -> np.ndarray:
    """Gibbs weights; at beta = inf, uniform on the degenerate ground levels."""
    if not math.isinf(beta):
        return _stable_weights(levels, beta)
    w = np.zeros(levels.size)
    degenerate = np.abs(levels - levels[0]) <= 1e-12 * max(1.0, abs(levels[0]))
    w[degenerate] = 1.0 / degenerate.sum()
    return w


def _common_beta(levels_list: list, e_target: float) -> float:
    """Find beta >= 0 with summed mean energy e_target; clamp to 0 when unconstrained.

    The summed mean m(beta) falls with slope minus the summed variance.
    An upper bracket is doubled from beta = 1, then safeguarded Newton
    steps run from its last point: a step that leaves the bracket bisects
    it instead, and a step shorter than half the bracket tolerance is
    lengthened to it, so that near the root the next point lands across
    it. The search stops when |m - e_target| <= ENERGY_TOL or the bracket
    is narrower than 1e-14 max(1, beta_hi) (at most 200 steps). A level
    array listed more than once (the same object) is evaluated once. At
    the summed ground energy beta is infinite.
    """
    counts: dict[int, list] = {}
    for lv in levels_list:
        counts.setdefault(id(lv), [lv, 0])[1] += 1
    distinct = list(counts.values())
    ground = sum(float(lv[0]) for lv in levels_list)
    if e_target < ground - 1e-12:
        raise ValueError(f"infeasible energy {e_target} below ground level {ground}")
    if e_target >= sum(n * float(lv.mean()) for lv, n in distinct):
        return 0.0
    if e_target <= ground + 1e-14 * max(1.0, abs(ground)):
        return math.inf
    shifted = [(lv - lv[0], n) for lv, n in distinct]

    def moments(beta: float) -> tuple[float, float]:
        """Summed mean and variance at beta."""
        mean = var = 0.0
        for s, n in shifted:
            w = np.exp(-beta * s)
            z = float(w.sum())
            m1 = float(np.dot(w, s)) / z
            w *= s
            var += n * max(0.0, float(np.dot(w, s)) / z - m1 * m1)
            mean += n * m1
        return ground + mean, var

    beta_lo, beta_hi = 0.0, 1.0
    beta = beta_hi
    m, v = moments(beta)
    while m > e_target:
        beta_lo = beta_hi
        beta_hi *= 2.0
        if beta_hi > 1e12:
            break
        beta = beta_hi
        m, v = moments(beta)
    for _ in range(200):
        tol = 1e-14 * max(1.0, beta_hi)
        if abs(m - e_target) <= ENERGY_TOL or beta_hi - beta_lo < tol:
            break
        step = (m - e_target) / v if v > 0.0 else math.nan
        if abs(step) < 0.5 * tol:
            step = math.copysign(0.5 * tol, step)
        nxt = beta + step
        beta = nxt if beta_lo < nxt < beta_hi else 0.5 * (beta_lo + beta_hi)
        m, v = moments(beta)
        if m > e_target:
            beta_lo = beta
        else:
            beta_hi = beta
    return beta


def _tail_negligible(levels: np.ndarray, beta: float) -> bool:
    z_partial = float(np.exp(-beta * (levels - levels[0])).sum())
    return math.exp(-beta * (levels[-1] - levels[0])) < TERM_CRIT * z_partial


def _adequate_dim(h, e_target: float, dim: int | None, memo: dict | None = None) -> tuple[np.ndarray, bool]:
    """Grow the truncation until the last kept term is negligible at the solution.

    Returns the levels and whether they reached DIM_CAP without passing
    that test (only infinite level sources grow; a finite source, a raw
    array or a given `dim` is never flagged). After five doublings past
    the beta = 0 phase the levels are returned untested. A doubling takes
    the levels from `memo` (source -> longest levels so far), and
    evaluates only those it lacks.
    """
    memo = {} if memo is None else memo
    levels, growable = _levels_of(h, dim, memo)
    if not growable:
        return levels, False
    # cheap phase: make the beta = 0 mean reach the target (or hit the cap)
    while float(levels.mean()) < e_target and levels.size < DIM_CAP:
        levels = _grown(h, 2 * levels.size, memo)
    for _ in range(5):
        beta = _common_beta([levels], min(e_target, float(levels.mean())))
        at_cap = levels.size >= DIM_CAP
        if math.isinf(beta) or (beta == 0.0 and not at_cap):
            return levels, False
        adequate = beta > 0.0 and _tail_negligible(levels, beta)
        if adequate or at_cap:
            return levels, not adequate
        levels = _grown(h, 2 * levels.size, memo)
    return levels, levels.size >= DIM_CAP


def solve_beta(h, E: float, dim: int | None = None) -> GibbsSolution:
    """Gibbs solution with mean energy E on a (possibly adaptive) truncation.

    `h` may be a level source (a HamiltonianSpec or a witness) or a raw
    level array. If E is at or above the truncated-space mean at beta = 0
    the constraint is inactive and beta clamps to 0.
    """
    levels, clamped = _adequate_dim(h, E, dim)
    beta = _common_beta([levels], E)
    w = _weights_at(levels, beta)
    return GibbsSolution(
        beta=beta,
        levels=levels,
        weights=w,
        mean_energy=float((w * levels).sum()),
        entropy=_eta_sum(w),
        clamped=clamped,
    )


def max_entropy(h, E: float, dim: int | None = None) -> float:
    """Largest entropy among truncated states with mean energy at most E."""
    return solve_beta(h, E, dim).entropy


@dataclass(frozen=True)
class MultiGibbsSolution:
    """Common-beta product solution; `clamped` as in GibbsSolution, for any factor."""

    beta: float
    entropies: tuple[float, ...]
    means: tuple[float, ...]
    clamped: bool = False

    @property
    def entropy(self) -> float:
        return float(sum(self.entropies))

    @property
    def mean_energy(self) -> float:
        return float(sum(self.means))


def solve_beta_multi(hams: list, E: float, dims: list[int] | None = None) -> MultiGibbsSolution:
    """Common-beta product Gibbs solution with summed mean energy E.

    The entropy maximizer under a joint linear energy constraint is a
    product of Gibbs states sharing one inverse temperature, so a single
    scalar root-find on the summed mean-energy curve suffices. Equal
    level sources with equal dims, and a raw array listed more than once,
    are truncated once and share one level array, whose weights are
    computed once.
    """
    return _solve_beta_multi(hams, E, dims, {})


def _solve_beta_multi(hams: list, E: float, dims: list[int] | None, memo: dict) -> MultiGibbsSolution:
    """solve_beta_multi, growing levels through `memo` (see _grown)."""
    if dims is None:
        dims = [None] * len(hams)
    if len(dims) != len(hams):
        raise ValueError("dims must align with hams")
    grown: dict[tuple, tuple[np.ndarray, bool]] = {}
    levels_list = []
    for h, d in zip(hams, dims):
        # a raw array is keyed by identity: == on arrays compares elementwise
        key = (h if _is_source(h) else id(h), d)
        if key not in grown:
            grown[key] = _adequate_dim(h, E, d, memo)
        levels_list.append(grown[key][0])
    beta = _common_beta(levels_list, E)
    terms: dict[int, tuple[float, float]] = {}
    for lv in levels_list:
        if id(lv) not in terms:
            w = _weights_at(lv, beta)
            terms[id(lv)] = (_eta_sum(w), float((w * lv).sum()))
    ents, means = zip(*(terms[id(lv)] for lv in levels_list))
    return MultiGibbsSolution(
        beta=beta, entropies=ents, means=means, clamped=any(c for _, c in grown.values())
    )


def max_entropy_multi(hams: list, E: float, dims: list[int] | None = None) -> float:
    """Largest total entropy under a summed mean-energy budget E."""
    return solve_beta_multi(hams, E, dims).entropy


def check_asymptotic_condition(h, which: str, e_grid, dim: int | None = None) -> dict:
    """Report F(E)/E or F(E)/sqrt(E) along a grid with a monotone-trend verdict.

    This is a finite-truncation trend report; it makes no asymptotic claim.
    """
    if which not in ("o(E)", "o(sqrtE)"):
        raise ValueError(f"which must be 'o(E)' or 'o(sqrtE)', got {which!r}")
    e_grid = [float(e) for e in e_grid]
    if any(b <= a for a, b in zip(e_grid, e_grid[1:])):
        raise ValueError("energy grid must be strictly increasing")
    ratios = []
    for e in e_grid:
        f = max_entropy(h, e, dim)
        ratios.append(f / e if which == "o(E)" else f / math.sqrt(e))
    diffs = np.diff(ratios)
    if (diffs <= 1e-12).all():
        verdict = "decreasing"
    elif (diffs >= -1e-12).all():
        verdict = "increasing"
    else:
        verdict = "mixed"
    return {"energies": e_grid, "ratios": ratios, "verdict": verdict}


def squared_hamiltonian_check(h, e_grid, dim: int | None = None) -> list[dict]:
    """Compare the ceilings of H^2 at E with those of H at sqrt(E) per grid point.

    The truncated ceilings satisfy F_{H^2}(E) <= F_H(sqrt(E)) exactly, so
    rows carry the margin for callers to assert.
    """
    rows = []
    for e in e_grid:
        e = float(e)
        lv, _ = _adequate_dim(h, math.sqrt(e), dim)
        f_sq = solve_beta(lv**2, e).entropy
        f_lin = solve_beta(lv, math.sqrt(e)).entropy
        rows.append(
            {
                "E": e,
                "F_squared": f_sq,
                "F_at_sqrt": f_lin,
                "margin": f_lin - f_sq,
                "ok": f_sq <= f_lin + 1e-8,
            }
        )
    return rows


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the common continuity bound: coefficients, arity, energy, Hamiltonians.

    The object also keeps the witness levels that fcb_bound grows, so a
    sequence of bounds on one BoundParams evaluates each level once; the
    values equal those of fresh params bit for bit.
    """

    C: float
    D: float
    m: int
    E: float
    hams: tuple
    trunc_dim: int | None = None
    # levels grown for fcb_bound, per source (see _grown); they live as long
    # as this object, so every bound on it grows each witness level once
    _levels: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.C < 0 or self.D < 0:
            raise ValueError("bound coefficients must be nonnegative")
        if self.m < 1 or len(self.hams) != self.m:
            raise ValueError(f"need m >= 1 Hamiltonians, got m={self.m}, {len(self.hams)} hams")
        grounds = sum(float(_levels_of(h, 1)[0][0]) for h in self.hams)
        if self.m * self.E < grounds - 1e-12:
            raise ValueError(
                f"total energy {self.m * self.E} below summed ground energy {grounds}"
            )


class BoundValue(float):
    """A continuity-bound value; `clamped` says its ceiling F was cut at DIM_CAP.

    A clamped F is a truncation value below the true ceiling, so the bound
    is then not the bound it claims to be.
    """

    def __new__(cls, value: float, clamped: bool = False):
        out = super().__new__(cls, value)
        out.clamped = clamped
        return out


def fcb_bound(p: BoundParams, eps: float) -> BoundValue:
    """Continuity-bound value C sqrt(e(2-e)) F[2mE/(e(2-e))] + D g(sqrt(e(2-e))).

    Defined as 0 at eps = 0 (the faithfulness limit); errors outside [0, 1].
    The ceiling F grows its truncations through the levels kept on `p`, so
    repeated calls on one BoundParams evaluate each level once.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if eps == 0.0:
        return BoundValue(0.0)
    x = eps * (2.0 - eps)
    rx = math.sqrt(x)
    term = 0.0
    clamped = False
    if p.C > 0:
        arg = 2.0 * p.m * p.E / x
        dims = None if p.trunc_dim is None else [p.trunc_dim] * p.m
        ceiling = _solve_beta_multi(list(p.hams), arg, dims, p._levels)
        term = p.C * rx * ceiling.entropy
        clamped = ceiling.clamped
    return BoundValue(term + p.D * g_entropy(rx), clamped)


@dataclass(frozen=True)
class SandwichReport:
    """Evidence report for the two function-class sandwich conditions."""

    checked: int
    bound_violations: list
    mixing_violations: list

    @property
    def ok(self) -> bool:
        return not self.bound_violations and not self.mixing_violations


def class_membership_check(
    f,
    c_minus: float,
    c_plus: float,
    d_minus: float,
    d_plus: float,
    m: int,
    samples: list,
) -> SandwichReport:
    """Check the entropy-sandwich and mixing-sandwich conditions on samples.

    Each sample is a (rho, sigma, p) triple; both sandwiches allow
    MEMBERSHIP_SLACK. Sampling is one-sided evidence: an empty violation
    list never claims class membership.
    """
    bound_viol, mixing_viol = [], []
    for idx, (rho, sigma, pr) in enumerate(samples):
        if not 0.0 < pr < 1.0:
            raise ValueError(f"sample {idx}: mixing weight must lie in (0, 1), got {pr}")
        for tag, state in (("rho", rho), ("sigma", sigma)):
            cm = sum(von_neumann_entropy(partial_trace(state, [s])) for s in range(m))
            val = f(state)
            if not (-c_minus * cm - MEMBERSHIP_SLACK <= val <= c_plus * cm + MEMBERSHIP_SLACK):
                bound_viol.append(
                    {"sample": idx, "state": tag, "value": val, "C_m": cm}
                )
        mix = DensityOp(rho.sig, pr * rho.mat + (1.0 - pr) * sigma.mat)
        delta = f(mix) - pr * f(rho) - (1.0 - pr) * f(sigma)
        h2 = binary_entropy(pr)
        if not (-d_minus * h2 - MEMBERSHIP_SLACK <= delta <= d_plus * h2 + MEMBERSHIP_SLACK):
            mixing_viol.append({"sample": idx, "delta": delta, "h2": h2})
    return SandwichReport(
        checked=len(samples), bound_violations=bound_viol, mixing_violations=mixing_viol
    )
