"""Gibbs states, maximum-entropy ceilings, and the continuity-bound evaluator.

Finite level sequences (raw arrays, finite sources, or any source truncated
to a given dim) are solved on their arrays. An infinite level source, a
symbolic Hamiltonian or a witness, is solved on its Gibbs moments: ln Z,
the mean and the variance as functions of beta, each an exact head sum
plus integral tails (`gibbs_moments`), so no truncation is chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .entropy import _eta_sum, binary_entropy, g_entropy, von_neumann_entropy
from .qmat import DensityOp, DimSig, partial_trace

ENERGY_TOL = 1e-10
MEMBERSHIP_SLACK = 1e-8


def _is_source(h) -> bool:
    """Whether h is a level source (a HamiltonianSpec or a witness, with
    `level`, `values` and `finite_dim`) rather than a raw level array."""
    return hasattr(h, "level")


def _levels_of(h, dim: int | None) -> np.ndarray:
    """Levels 1..dim of h as an array.

    A level source yields values(dim), or its whole finite length without
    a dim; an infinite one needs a dim. A raw level array is taken whole
    and must be nondecreasing.
    """
    if _is_source(h):
        n = dim if dim is not None else h.finite_dim
        if n is None:
            raise ValueError("an infinite level source needs a truncation dim")
        return h.values(n)
    arr = np.asarray(h, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("level sequence must be a nonempty 1-D array")
    if (np.diff(arr) < 0).any():
        raise ValueError("raw level array must be nondecreasing")
    return arr


class _Source(NamedTuple):
    """A level sequence as the solvers see it.

    `moments(beta)` gives ln Z, the mean and the variance of the
    ground-shifted levels at beta > 0; `top` is the unshifted mean at
    beta = 0 (inf for an infinite source); `levels` is None for an
    infinite source.
    """

    ground: float
    top: float
    moments: Callable[[float], tuple[float, float, float]]
    levels: np.ndarray | None


def _source(h, dim: int | None) -> _Source:
    """h's Gibbs moments: its own for an infinite source without a dim,
    else those of the level array."""
    if _is_source(h) and dim is None and h.finite_dim is None:
        return _Source(float(h.values(1)[0]), math.inf, h.gibbs_moments, None)
    lv = _levels_of(h, dim)
    s = lv - lv[0]

    def moments(beta: float) -> tuple[float, float, float]:
        w = np.exp(-beta * s)
        z = float(w.sum())
        m1 = float(np.dot(w, s)) / z
        w *= s
        return math.log(z), m1, max(0.0, float(np.dot(w, s)) / z - m1 * m1)

    return _Source(float(lv[0]), float(lv.mean()), moments, lv)


@dataclass(frozen=True)
class GibbsSolution:
    """Result of a mean-energy-constrained entropy maximization.

    `levels` and `weights` hold the finite truncation that was solved; for
    an infinite source solved without a dim they are None and there is no
    `state`.
    """

    beta: float
    levels: np.ndarray | None = field(repr=False)
    weights: np.ndarray | None = field(repr=False)
    mean_energy: float
    entropy: float

    @property
    def dim(self) -> int | None:
        return None if self.levels is None else int(self.levels.size)

    @property
    def state(self) -> DensityOp:
        """Diagonal density operator; materialize only at desk dimensions."""
        if self.levels is None:
            raise ValueError("an infinite level source solved without dim has no finite state")
        if self.dim > 4096:
            raise ValueError(f"refusing to materialize a {self.dim}-dimensional dense state")
        return DensityOp(DimSig((self.dim,)), np.diag(self.weights).astype(complex))


def _gibbs_at(src: _Source, beta: float) -> tuple[np.ndarray | None, float, float]:
    """Weights (None for an infinite source), entropy and mean energy at beta.

    At beta = inf the weights are uniform on the degenerate ground levels.
    An infinite source has entropy beta mean + ln Z on its ground-shifted
    levels; its ground level is nondegenerate, and at beta = 0 (no Gibbs
    state) its entropy and mean are +inf.
    """
    lv = src.levels
    if lv is not None:
        if math.isinf(beta):
            w = (np.abs(lv - lv[0]) <= 1e-12 * max(1.0, abs(lv[0]))).astype(float)
        else:
            w = np.exp(-beta * (lv - lv[0]))
        w /= w.sum()
        return w, _eta_sum(w), float((w * lv).sum())
    if math.isinf(beta):
        return None, 0.0, src.ground
    if beta == 0.0:
        return None, math.inf, math.inf
    log_z, mean, _ = src.moments(beta)
    return None, beta * mean + log_z, src.ground + mean


def _common_beta(sources: list, e_target: float) -> float:
    """Find beta >= 0 with summed mean energy e_target; clamp to 0 when unconstrained.

    The summed mean m(beta) falls with slope minus the summed variance; a
    divergent Z reads as mean +inf. An upper bracket is doubled from
    beta = 1, then safeguarded Newton steps run from its last point. After
    the first Newton step that leaves the bracket, a step from below the
    root, or one that would leave, is taken on ln(m - ground) against
    ln beta instead, which reaches a small root in a few steps where the
    bracket would be halved again and again. A step that still leaves the
    bracket bisects it instead, and a step shorter than half the bracket
    tolerance is lengthened to it, so that near the root the next point
    lands across it. The search stops when
    |m - e_target| <= ENERGY_TOL or the bracket is narrower than
    1e-14 beta_hi (at most 200 steps). A source listed more than once
    (the same object) is evaluated once. At the summed ground energy beta
    is infinite; when Z diverges at every beta there is no Gibbs state,
    and beta is 0.
    """
    counts: dict[int, list] = {}
    for src in sources:
        counts.setdefault(id(src), [src, 0])[1] += 1
    distinct = list(counts.values())
    ground = sum(src.ground for src in sources)
    if e_target < ground - 1e-12:
        raise ValueError(f"infeasible energy {e_target} below ground level {ground}")
    if e_target >= sum(n * src.top for src, n in distinct):
        return 0.0
    if e_target <= ground + 1e-14 * max(1.0, abs(ground)):
        return math.inf

    def moments(beta: float) -> tuple[float, float]:
        """Summed mean and variance at beta."""
        mean = var = 0.0
        for src, n in distinct:
            _, m1, v = src.moments(beta)
            mean += n * m1
            var += n * v
        return ground + mean, var

    beta_lo, beta_hi = 0.0, 1.0
    beta = beta_hi
    m, v = moments(beta)
    while m > e_target:
        beta_lo = beta_hi
        beta_hi *= 2.0
        if beta_hi > 1e12:
            if math.isinf(m):
                return 0.0
            break
        beta = beta_hi
        m, v = moments(beta)
    log_steps = False
    for _ in range(200):
        tol = 1e-14 * beta_hi
        if abs(m - e_target) <= ENERGY_TOL or beta_hi - beta_lo < tol:
            break
        step = (m - e_target) / v if v > 0.0 else math.nan
        inside = beta_lo < beta + step < beta_hi
        # once a Newton step leaves the bracket, the root lies where the mean
        # above the ground grows like a power of 1/beta: steps from below the
        # root, and steps that would leave, are then Newton steps on the log
        # of that excess against ln beta
        log_steps = log_steps or not inside
        excess = m - ground
        if log_steps and v > 0.0 and excess > 0.0 and (m > e_target or not inside):
            slope = beta * v / excess
            step = beta * math.expm1(min(math.log(excess / (e_target - ground)) / slope, 700.0))
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


def solve_beta(h, E: float, dim: int | None = None) -> GibbsSolution:
    """Gibbs solution with mean energy E.

    `h` may be a level source (a HamiltonianSpec or a witness) or a
    nondecreasing raw level array. An infinite source without a dim is
    solved on its Gibbs moments, with no truncation. If E is at or above
    a finite truncation's mean at beta = 0 the constraint is inactive and
    beta clamps to 0.
    """
    src = _source(h, dim)
    beta = _common_beta([src], E)
    w, entropy, mean = _gibbs_at(src, beta)
    return GibbsSolution(beta=beta, levels=src.levels, weights=w, mean_energy=mean, entropy=entropy)


def max_entropy(h, E: float, dim: int | None = None) -> float:
    """Largest entropy among states with mean energy at most E (truncated to dim if given)."""
    return solve_beta(h, E, dim).entropy


@dataclass(frozen=True)
class MultiGibbsSolution:
    """Common-beta product solution."""

    beta: float
    entropies: tuple[float, ...]
    means: tuple[float, ...]

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
    share one set of moments, evaluated once per beta.
    """
    if dims is None:
        dims = [None] * len(hams)
    if len(dims) != len(hams):
        raise ValueError("dims must align with hams")
    seen: dict[tuple, _Source] = {}
    sources = []
    for h, d in zip(hams, dims):
        # a raw array is keyed by identity: == on arrays compares elementwise
        key = (h if _is_source(h) else id(h), d)
        if key not in seen:
            seen[key] = _source(h, d)
        sources.append(seen[key])
    beta = _common_beta(sources, E)
    terms: dict[int, tuple[float, float]] = {}
    for src in sources:
        if id(src) not in terms:
            terms[id(src)] = _gibbs_at(src, beta)[1:]
    ents, means = zip(*(terms[id(src)] for src in sources))
    return MultiGibbsSolution(beta=beta, entropies=ents, means=means)


def max_entropy_multi(hams: list, E: float, dims: list[int] | None = None) -> float:
    """Largest total entropy under a summed mean-energy budget E."""
    return solve_beta_multi(hams, E, dims).entropy


def check_asymptotic_condition(h, which: str, e_grid, dim: int | None = None) -> dict:
    """Report F(E)/E or F(E)/sqrt(E) along a grid with a monotone-trend verdict.

    This is a trend report on a grid; it makes no asymptotic claim.
    """
    if which not in ("o(E)", "o(sqrtE)"):
        raise ValueError(f"which must be 'o(E)' or 'o(sqrtE)', got {which!r}")
    e_grid = [float(e) for e in e_grid]
    if any(b <= a for a, b in zip(e_grid, e_grid[1:])):
        raise ValueError("energy grid must be strictly increasing")
    if e_grid and e_grid[0] <= 0.0:
        raise ValueError(f"energy grid must be positive, got {e_grid}")
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

    (Tr H rho)^2 <= Tr H^2 rho for any Hermitian H, so on one truncation
    F_{H^2}(E) <= F_H(sqrt(E)) exactly, and rows carry the margin for
    callers to assert. An infinite source needs a truncation dim.
    """
    lv = _levels_of(h, dim)
    sq = np.sort(lv**2)
    rows = []
    for e in e_grid:
        e = float(e)
        f_sq = solve_beta(sq, e).entropy
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
    """Inputs of the common continuity bound: coefficients, arity, energy, Hamiltonians."""

    C: float
    D: float
    m: int
    E: float
    hams: tuple
    trunc_dim: int | None = None

    def __post_init__(self):
        if self.C < 0 or self.D < 0:
            raise ValueError("bound coefficients must be nonnegative")
        if self.m < 1 or len(self.hams) != self.m:
            raise ValueError(f"need m >= 1 Hamiltonians, got m={self.m}, {len(self.hams)} hams")
        grounds = sum(float(_levels_of(h, 1)[0]) for h in self.hams)
        if self.m * self.E < grounds - 1e-12:
            raise ValueError(
                f"total energy {self.m * self.E} below summed ground energy {grounds}"
            )


def fcb_bound(p: BoundParams, eps: float) -> float:
    """Continuity-bound value C sqrt(e(2-e)) F[2mE/(e(2-e))] + D g(sqrt(e(2-e))).

    Defined as 0 at eps = 0 (the faithfulness limit); errors outside [0, 1].
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if eps == 0.0:
        return 0.0
    x = eps * (2.0 - eps)
    rx = math.sqrt(x)
    term = 0.0
    if p.C > 0:
        dims = None if p.trunc_dim is None else [p.trunc_dim] * p.m
        term = p.C * rx * max_entropy_multi(list(p.hams), 2.0 * p.m * p.E / x, dims)
    return term + p.D * g_entropy(rx)


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
