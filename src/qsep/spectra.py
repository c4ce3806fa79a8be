"""Symbolic spectrum and Hamiltonian families with analytic tail handling.

A :class:`SpectrumFamily` is a normalized nonincreasing eigenvalue
sequence of an idealized infinite-dimensional state, given either as an
explicit list or as a closed form (geometric decay, inverse power-log
laws, or a Gibbs weighting of a Hamiltonian). Closed-form kinds carry
enough structure to classify the convergence of log-weighted sums,
evaluate partition functions with integral tail corrections, and build
approximability witnesses.

Summation convention: partial sums are exact up to a head cutoff and are
completed with a midpoint integral of the closed form, which keeps the
relative tail error around 1/N^2. Tails follow the same convention: every
tail, weighted or not, is read from :meth:`SpectrumFamily.weighted_tail_from`,
which sums exactly up to the head cutoff and adds the integral beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qmat import DensityOp, DimSig

HEAD_N = 50_000
DEFAULT_BETAS = (0.2, 0.1, 0.05, 0.02, 0.01)
T_CEIL = 700.0
CHECK_N = 100_000
WITNESS_HEAD_N = 20_000  # levels summed directly in the Gibbs moments of an infinite H
HEAD_CUT = 100.0  # Gibbs terms below e^{-HEAD_CUT} of the first excited term are dropped
SIMPSON_N = 4001

CONVERGES = "converges"
DIVERGES = "diverges"
INCONCLUSIVE = "inconclusive"


def _simpson(a: float, b: float, n: int = SIMPSON_N) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the composite Simpson rule on [a, b] with an
    odd number n of nodes: w @ f(x) approximates the integral of f."""
    w = np.tile([2.0, 4.0], n // 2 + 1)[:n]
    w[0] = w[-1] = 1.0
    return np.linspace(a, b, n), w * ((b - a) / (3.0 * (n - 1)))


def _block_quadrature(beta: float, ta: float, tb: float, c: float, p: float):
    """Simpson rule for the integral of e^{t - beta c t^p} over t in [ta, tb).

    Returns (ref, t, e), where ref is the exponent's maximum on the block
    and e @ f(t) is the integral of e^{t - beta c t^p - ref} f(t). The nodes
    span the part where the exponent lies within 60 of ref, an interval as
    the exponent is concave for p >= 1. The integral must converge.
    """
    bc = beta * c
    peak = min(max((bc * p) ** (1.0 / (1.0 - p)), ta), tb) if p > 1.0 else ta
    ref = peak - bc * peak**p

    def edge(sign: float, bound: float) -> float:
        d = 1.0
        while True:
            t = peak + sign * d
            if sign * (t - bound) >= 0.0:
                return bound
            if t - bc * t**p < ref - 60.0:
                return t
            d *= 2.0

    t, w = _simpson(edge(-1.0, ta), edge(1.0, tb))
    return ref, t, np.exp(t - bc * t**p - ref) * w


def _gibbs_moments(head: np.ndarray, blocks, beta: float) -> tuple[float, float, float]:
    """ln Z, mean and variance of the Gibbs weights e^{-beta h_i} at beta > 0.

    `head` holds the N levels h_1 = 0 < h_2 <= ... of the first indices,
    summed exactly up to the first level with beta (h_i - h_2) > HEAD_CUT.
    The h_2 term bounds each moment from below, so the dropped terms, even
    weighted by h_i^2, sum to at most N (h_N / h_2)^2 e^{-HEAD_CUT} of it.
    Each block (t_a, t_b, c, p) carries the levels c t^p, t = ln i, on
    [t_a, t_b) past the head; it adds the quadrature of e^{t - beta c t^p}
    times 1, c t^p and c^2 t^2p. Every block must converge. The blocks
    are skipped when the head is cut: their levels exceed h_N, so their
    integrand starts below e^{ln N - HEAD_CUT} of the h_2 term and falls
    at a rate above HEAD_CUT / ln N - 1. The parts are summed on a common
    scale, so a Z beyond float range stays representable through ln Z.
    """
    cut = int(np.searchsorted(head, head[1] + HEAD_CUT / beta, side="right"))
    s = head[:cut]
    w = np.exp(-beta * s)
    parts = [(0.0, float(w.sum()), float(w @ s), float((w * s) @ s))]
    t_head = math.log(head.size + 0.5)
    for ta, tb, c, p in blocks if cut == head.size else ():
        ta = max(ta, t_head)
        if tb > ta:
            ref, t, e = _block_quadrature(beta, ta, tb, c, p)
            lv = c * t**p
            parts.append((ref, float(e.sum()), float(e @ lv), float((e * lv) @ lv)))
    scale = max(r for r, *_ in parts)
    z = m1 = m2 = 0.0
    for r, a, b, q in parts:
        f = math.exp(r - scale)
        z, m1, m2 = z + f * a, m1 + f * b, m2 + f * q
    mean = m1 / z
    return scale + math.log(z), mean, max(0.0, m2 / z - mean * mean)


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianSpec:
    """Nondecreasing eigenvalue sequence h_i of a diagonal positive operator.

    Kinds: ``explicit`` (finite list), ``logpow`` with h_i = a ln^p i,
    ``linear`` with h_i = w (i - 1). An additive ``offset`` shifts every
    level.
    """

    kind: str
    a: float = 0.0
    p: float = 0.0
    w: float = 0.0
    offset: float = 0.0
    levels: tuple[float, ...] = ()

    @staticmethod
    def explicit(levels, offset: float = 0.0) -> "HamiltonianSpec":
        lv = tuple(float(x) for x in levels)
        if not lv:
            raise ValueError("explicit Hamiltonian needs at least one level")
        if any(b < a for a, b in zip(lv, lv[1:])):
            raise ValueError("explicit Hamiltonian levels must be nondecreasing")
        if lv[0] + offset < 0:
            raise ValueError("Hamiltonian levels must be nonnegative")
        return HamiltonianSpec(kind="explicit", levels=lv, offset=float(offset))

    @staticmethod
    def logpow(a: float, p: float, offset: float = 0.0) -> "HamiltonianSpec":
        if a <= 0 or p <= 0:
            raise ValueError("logpow Hamiltonian needs a > 0 and p > 0")
        return HamiltonianSpec(kind="logpow", a=float(a), p=float(p), offset=float(offset))

    @staticmethod
    def linear(w: float, offset: float = 0.0) -> "HamiltonianSpec":
        if w <= 0:
            raise ValueError("linear Hamiltonian needs w > 0")
        return HamiltonianSpec(kind="linear", w=float(w), offset=float(offset))

    @property
    def finite_dim(self) -> int | None:
        return len(self.levels) if self.kind == "explicit" else None

    def level(self, i: np.ndarray) -> np.ndarray:
        """Levels h_i at a float array of indices i >= 1 (at most the list
        length for an explicit H)."""
        if self.kind == "explicit":
            return np.asarray(self.levels, dtype=float)[i.astype(int) - 1] + self.offset
        if self.kind == "logpow":
            return self.a * np.log(i) ** self.p + self.offset
        if self.kind == "linear":
            return self.w * (i - 1) + self.offset
        raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")

    def values(self, dim: int) -> np.ndarray:
        """Levels h(1..dim) as a float array."""
        if self.kind == "explicit" and dim > len(self.levels):
            raise ValueError(f"explicit Hamiltonian has {len(self.levels)} levels, requested {dim}")
        return self.level(np.arange(1, dim + 1, dtype=float))

    def diverges_at(self, beta: float) -> bool:
        """Whether Tr e^{-beta H} diverges: only for a logpow H with p < 1,
        or p = 1 and a beta <= 1 (a sum of i^{-a beta})."""
        return self.kind == "logpow" and (self.p < 1.0 or (self.p == 1.0 and self.a * beta <= 1.0))

    def ground(self) -> float:
        return float(self.values(1)[0])

    @cached_property
    def _head(self) -> np.ndarray:
        """Levels a ln^p i of a logpow H, offset dropped, over its exact head."""
        return self.a * np.log(np.arange(1, WITNESS_HEAD_N + 1, dtype=float)) ** self.p

    def gibbs_moments(self, beta: float) -> tuple[float, float, float]:
        """ln Z, mean and variance of the weights e^{-beta (h_i - h_1)} of an
        infinite H at beta > 0: the closed geometric series for linear, an
        exact head plus one integral block for logpow (all inf when divergent)."""
        if self.kind == "linear":
            mean = self.w / math.expm1(beta * self.w)
            return -math.log(-math.expm1(-beta * self.w)), mean, mean * (mean + self.w)
        if self.kind != "logpow":
            raise ValueError(f"gibbs_moments needs an infinite Hamiltonian, got kind {self.kind!r}")
        if self.diverges_at(beta):
            return math.inf, math.inf, math.inf
        return _gibbs_moments(self._head, [(0.0, math.inf, self.a, self.p)], beta)

    def log_partition_value(self, beta: float) -> float:
        """ln Tr e^{-beta H} with integral tail correction; inf when divergent."""
        if beta <= 0:
            raise ValueError("partition function needs beta > 0")
        if self.kind == "explicit":
            base = np.asarray(self.levels, dtype=float)
            return -beta * self.offset + math.log(float(np.exp(-beta * base).sum()))
        return -beta * self.offset + self.gibbs_moments(beta)[0]

    def partition_value(self, beta: float) -> float:
        """Tr e^{-beta H}; inf when divergent or beyond float range."""
        lv = self.log_partition_value(beta)
        return math.exp(lv) if lv < 700.0 else math.inf


# ---------------------------------------------------------------------------
# Spectrum families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumFamily:
    """Normalized nonincreasing spectrum, symbolic or explicit.

    Kinds and raw shapes (before the normalization constant):

    - ``explicit``: a finite list, normalized to unit sum;
    - ``geometric``: q^(i-1);
    - ``powlog``: 1 / (i ln^q i) for i >= i0, constant below i0;
    - ``loglog``: 1 / (i ln^q i (ln ln i)^p) for i >= i0, constant below;
    - ``gibbs``: exp(-beta h_i) for a HamiltonianSpec h.
    """

    kind: str
    q: float = 0.0
    p: float = 0.0
    i0: int = 2
    beta: float = 0.0
    ham: HamiltonianSpec | None = None
    values_list: tuple[float, ...] = ()
    norm: float = field(default=0.0, compare=False)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- constructors -------------------------------------------------

    @staticmethod
    def geometric(q: float) -> "SpectrumFamily":
        if not 0.0 < q < 1.0:
            raise ValueError(f"geometric ratio must lie in (0, 1), got {q}")
        fam = SpectrumFamily(kind="geometric", q=float(q))
        return fam._with_norm(1.0 - q)

    @staticmethod
    def powlog(q: float, i0: int = 2) -> "SpectrumFamily":
        if q <= 1.0:
            raise ValueError(f"powlog needs q > 1 for a normalizable spectrum, got q={q}")
        if i0 < 2:
            raise ValueError("powlog needs i0 >= 2")
        fam = SpectrumFamily(kind="powlog", q=float(q), i0=int(i0))
        return fam._normalize()

    @staticmethod
    def loglog(q: float, p: float, i0: int = 16) -> "SpectrumFamily":
        if q < 1.0 or (q == 1.0 and p <= 1.0):
            raise ValueError(f"loglog with q={q}, p={p} is not normalizable")
        if i0 < 3:
            raise ValueError("loglog needs i0 >= 3")
        fam = SpectrumFamily(kind="loglog", q=float(q), p=float(p), i0=int(i0))
        return fam._normalize()

    @staticmethod
    def explicit(values) -> "SpectrumFamily":
        vals = np.asarray(list(values), dtype=float)
        if vals.size == 0 or (vals < 0).any():
            raise ValueError("explicit spectrum must be nonempty and nonnegative")
        if (np.diff(vals) > 1e-12).any():
            raise ValueError("explicit spectrum must be nonincreasing")
        s = vals.sum()
        if s <= 0:
            raise ValueError("explicit spectrum must have positive mass")
        fam = SpectrumFamily(kind="explicit", values_list=tuple(vals / s))
        return fam._with_norm(1.0)

    @staticmethod
    def gibbs_of(ham: HamiltonianSpec, beta: float) -> "SpectrumFamily":
        if beta <= 0:
            raise ValueError("gibbs spectrum needs beta > 0")
        z = ham.partition_value(beta)
        if math.isinf(z):
            raise ValueError("partition function diverges; no Gibbs spectrum at this beta")
        fam = SpectrumFamily(kind="gibbs", beta=float(beta), ham=ham)
        return fam._with_norm(1.0 / z)

    # -- normalization ------------------------------------------------

    def _with_norm(self, c: float) -> "SpectrumFamily":
        object.__setattr__(self, "norm", float(c))
        return self

    def _normalize(self) -> "SpectrumFamily":
        raw = self._raw_partial(HEAD_N) + self._raw_tail_integral(HEAD_N)
        return self._with_norm(1.0 / raw)

    # -- raw (unnormalized) machinery ----------------------------------

    @property
    def finite_dim(self) -> int | None:
        """Length of a finite kind (an explicit list, or Gibbs of a finite H), else None."""
        if self.kind == "explicit":
            return len(self.values_list)
        return self.ham.finite_dim if self.kind == "gibbs" else None

    def _raw_terms(self, lo: int, hi: int) -> np.ndarray:
        """Raw terms for indices lo..hi inclusive; 0 past a finite kind's length."""
        i = np.arange(lo, hi + 1, dtype=float)
        if self.kind == "geometric":
            return self.q ** (i - 1.0)
        dim = self.finite_dim
        if dim is not None:
            out = np.zeros_like(i)
            head = i[: max(0, min(hi, dim) - lo + 1)]
            if self.kind == "explicit":
                out[: head.size] = np.asarray(self.values_list)[head.astype(int) - 1]
            else:
                out[: head.size] = np.exp(-self.beta * self.ham.level(head))
            return out
        if self.kind == "gibbs":
            return np.exp(-self.beta * self.ham.level(i))
        j = np.maximum(i, float(self.i0))
        if self.kind == "powlog":
            return 1.0 / (j * np.log(j) ** self.q)
        if self.kind == "loglog":
            lj = np.log(j)
            return 1.0 / (j * lj**self.q * np.log(lj) ** self.p)
        raise ValueError(f"unknown spectrum kind {self.kind!r}")

    def _cum(self, k: float) -> np.ndarray:
        """Cached cumulative sums of raw_term(i) ln^k i over the head range."""
        key = ("cum", float(k))
        if key not in self._cache:
            i = np.arange(1, HEAD_N + 1, dtype=float)
            w = np.log(i) ** k if k else np.ones_like(i)
            self._cache[key] = np.cumsum(self._raw_terms(1, HEAD_N) * w)
        return self._cache[key]

    def _raw_partial(self, n: int, k: float = 0.0) -> float:
        """Sum of raw_term(i) ln^k i over i <= n, n clamped at a finite length."""
        dim = self.finite_dim
        if dim is not None:
            n = min(n, dim)
        if n <= 0:
            return 0.0
        if self.kind == "geometric" and k == 0.0:
            return (1.0 - self.q**n) / (1.0 - self.q)
        if self.kind == "explicit":
            w = np.log(np.arange(1, n + 1, dtype=float)) ** k if k else 1.0
            return float((np.asarray(self.values_list[:n]) * w).sum())
        if n <= HEAD_N:
            return float(self._cum(k)[n - 1])
        total = float(self._cum(k)[-1])
        lo = HEAD_N + 1
        while lo <= n:
            hi = min(lo + 200_000 - 1, n)
            i = np.arange(lo, hi + 1, dtype=float)
            w = np.log(i) ** k if k else 1.0
            total += float((self._raw_terms(lo, hi) * w).sum())
            lo = hi + 1
        return total

    def _scalar_tail_sum(self, n, k: float, ratio_hint: float) -> float:
        """Direct summation for geometrically decaying tails."""
        total = 0.0
        i = n + 1
        steps = 0
        while True:
            t = ratio_hint ** (float(i) - 1.0)
            if t > 0 and k:
                t *= math.log(i) ** k
            total += t
            steps += 1
            if t <= 1e-18 * max(total, 1e-300) or steps > 400_000:
                return total
            i += 1

    def _raw_tail_integral(self, n, k: float = 0.0) -> float:
        """Sum of raw_term(i) ln^k i over i > n: the remaining terms of a
        finite kind, else a midpoint integral (inf if divergent)."""
        dim = self.finite_dim
        if dim is not None:
            return self._raw_partial(dim, k) - self._raw_partial(int(n), k)
        t0 = math.log(float(n) + 0.5)
        if self.kind == "geometric":
            return self._scalar_tail_sum(n, k, self.q)
        if self.kind == "gibbs":
            if self.ham.kind == "linear":
                return self._scalar_tail_sum(n, k, math.exp(-self.beta * self.ham.w)) * math.exp(
                    -self.beta * self.ham.offset
                )
            if self.ham.diverges_at(self.beta):
                return math.inf
            ref, t, e = _block_quadrature(self.beta, t0, math.inf, self.ham.a, self.ham.p)
            return math.exp(ref - self.beta * self.ham.offset) * float(e @ t**k)
        # powlog / loglog: integral of u^{k-q} (ln u)^{-p} du over (t0, inf)
        q = self.q
        p = self.p if self.kind == "loglog" else 0.0
        s = q - k
        if s > 1.0:
            if p == 0.0:
                return t0 ** (1.0 - s) / (s - 1.0)
            # substitution u = t0 / v maps the range onto v in (0, 1]
            def fn(v):
                v = np.clip(v, 1e-14, 1.0)
                u = t0 / v
                return t0 * u ** (-s) / (v * v) / np.log(u) ** p

            v, w = _simpson(0.0, 1.0, 8001)
            return float(fn(v) @ w)
        if s == 1.0 and p > 1.0:
            return math.log(t0) ** (1.0 - p) / (p - 1.0)
        return math.inf

    # -- public accessors ---------------------------------------------

    def lam(self, i) -> np.ndarray:
        """Eigenvalue accessor, vectorized over integer indices >= 1."""
        i = np.atleast_1d(np.asarray(i, dtype=float))
        if (i < 1).any():
            raise ValueError("spectrum indices start at 1")
        lo, hi = int(i.min()), int(i.max())
        terms = self._raw_terms(lo, hi)
        return self.norm * terms[(i - lo).astype(int)]

    def partial_weight(self, n: int) -> float:
        """Sum of the first n eigenvalues."""
        return self.norm * self._raw_partial(n)

    def tail_weight(self, n: int) -> float:
        """Weight beyond index n (the truncation weight)."""
        return self.weighted_tail_from(0.0, n)

    def weighted_partial(self, k: float, n: int) -> float:
        """Sum_{i<=n} lambda_i ln^k i."""
        return self.norm * self._raw_partial(int(n), float(k))

    def weighted_tail_from(self, k: float, n) -> float:
        """Sum_{i>n} lambda_i ln^k i (inf if divergent). The geometric mass is
        q^n; below HEAD_N the exact head up to HEAD_N plus the analytic tail
        beyond it, cached per k; from HEAD_N on the analytic tail alone."""
        k = float(k)
        if self.kind == "geometric" and k == 0.0:
            return self.q**n
        if n >= HEAD_N:
            return self.norm * self._raw_tail_integral(n, k)
        key = ("tail", k)
        if key not in self._cache:
            # norm P(HEAD_N) - norm P(n) + norm T(HEAD_N), in this order, for n < HEAD_N
            part = self.norm * np.concatenate(([0.0], self._cum(k)))
            self._cache[key] = part[-1] - part[:-1] + self.norm * self._raw_tail_integral(HEAD_N, k)
        return float(self._cache[key][max(int(n), 0)])

    def classify_weighted(self, k: float) -> str:
        """Convergence verdict for sum lambda_i ln^k i by integral comparison."""
        if self.finite_dim is not None:
            return INCONCLUSIVE
        if self.kind == "geometric":
            return CONVERGES
        if self.kind == "gibbs":
            return DIVERGES if self.ham.diverges_at(self.beta) else CONVERGES
        s = self.q - k
        p = self.p if self.kind == "loglog" else 0.0
        if s > 1.0:
            return CONVERGES
        if s == 1.0:
            return CONVERGES if p > 1.0 else DIVERGES
        return DIVERGES


# ---------------------------------------------------------------------------
# Family literal parsing ("geometric:0.5", "powlog:q=4,i0=2", ...)
# ---------------------------------------------------------------------------


def parse_family(text: str) -> SpectrumFamily | HamiltonianSpec:
    """Parse the CLI literal syntax for spectrum and Hamiltonian families."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"bad family literal {text!r}: expected 'kind:params'")
    kind, rest = text.split(":", 1)
    kind = kind.strip().lower()
    if kind == "geometric":
        return SpectrumFamily.geometric(float(rest))
    if kind == "explicit":
        body = rest.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"explicit family needs a bracketed list, got {rest!r}")
        vals = [float(x) for x in body[1:-1].split(",") if x.strip()]
        return SpectrumFamily.explicit(vals)
    kv: dict[str, float] = {}
    for part in rest.split(","):
        if not part.strip():
            continue
        key, _, val = part.partition("=")
        if not val:
            raise ValueError(f"bad parameter {part!r} in family literal {text!r}")
        kv[key.strip()] = float(val)
    if kind == "powlog":
        return SpectrumFamily.powlog(kv["q"], int(kv.get("i0", 2)))
    if kind == "loglog":
        return SpectrumFamily.loglog(kv["q"], kv["p"], int(kv.get("i0", 16)))
    if kind == "hamlogp":
        return HamiltonianSpec.logpow(kv["a"], kv["p"], kv.get("offset", 0.0))
    if kind == "hamlinear":
        return HamiltonianSpec.linear(kv["w"], kv.get("offset", 0.0))
    raise ValueError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# Convergence checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    verdict: str
    partial: float
    probe_q: float | None = None
    probe_verdict: str | None = None
    probe_partial: float | None = None


def check_entropy_criterion(s: SpectrumFamily) -> CheckResult:
    """Classify sum lambda_i ln i (finite-entropy criterion) and report a partial sum."""
    return CheckResult(verdict=s.classify_weighted(1.0), partial=s.weighted_partial(1.0, CHECK_N))


def check_fa_sufficient(s: SpectrumFamily, probe_q: float | None = None) -> CheckResult:
    """Classify sum lambda_i ln^2 i, optionally probing ln^q for a caller q > 2.

    The ln^2 verdict is the sufficient approximability condition; the
    probe reproduces the older power-law test that it strengthens.
    Partial sums run over the first CHECK_N terms.
    """
    verdict = s.classify_weighted(2.0)
    partial = s.weighted_partial(2.0, CHECK_N)
    if probe_q is None:
        return CheckResult(verdict=verdict, partial=partial)
    if probe_q <= 2.0:
        raise ValueError(f"probe exponent must exceed 2, got {probe_q}")
    return CheckResult(
        verdict=verdict,
        partial=partial,
        probe_q=probe_q,
        probe_verdict=s.classify_weighted(probe_q),
        probe_partial=s.weighted_partial(probe_q, CHECK_N),
    )


# ---------------------------------------------------------------------------
# Zeta limit evaluator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaResult:
    betas: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated: float


def _extrapolate(betas: np.ndarray, values: np.ndarray) -> float:
    """Fit value = L + a b + c b ln b on the three smallest betas; return L."""
    b = betas[-3:]
    v = values[-3:]
    a_mat = np.vstack([np.ones_like(b), b, b * np.log(b)]).T
    sol = np.linalg.solve(a_mat, v)
    return float(sol[0])


def zeta_limit(h, betas=None) -> ZetaResult:
    """Evaluate [Tr e^{-beta H}]^beta along a beta grid and extrapolate to 0+.

    Accepts a HamiltonianSpec or any object exposing log_partition_value
    (witnesses qualify). Divergent partition sums yield inf values and an
    inf extrapolation; that is a recorded outcome, not an error.
    """
    if betas is None:
        betas = DEFAULT_BETAS
    betas = tuple(float(b) for b in betas)
    if len(betas) < 3:
        raise ValueError("need at least three betas for extrapolation")
    if any(b <= 0 for b in betas) or any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be positive and strictly decreasing")
    values = []
    for b in betas:
        lz = h.log_partition_value(b)
        values.append(math.inf if math.isinf(lz) else math.exp(b * lz))
    if any(math.isinf(v) for v in values):
        return ZetaResult(betas, tuple(values), math.inf)
    ex = _extrapolate(np.asarray(betas), np.asarray(values))
    return ZetaResult(betas, tuple(values), ex)


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FAWitness:
    """Weight sequence g_i = c_i ln^2 i with c_i stepping up on tail-halving blocks.

    g_1 = 0, the mean of g under the source spectrum is finite, and the
    partition values [sum_i e^{-beta g_i}]^beta extrapolate toward 1.
    Block boundaries are stored as ln(index) so they may exceed any
    representable index. A witness is an infinite Hamiltonian and speaks
    the level interface of :class:`HamiltonianSpec`: ``level(i)``,
    ``values(dim)`` and ``finite_dim``.
    """

    family: SpectrumFamily
    block_bounds_t: tuple[float, ...]
    energy: float

    finite_dim = None

    def level(self, i) -> np.ndarray:
        """Witness values g_i, vectorized over indices >= 1."""
        i = np.atleast_1d(np.asarray(i, dtype=float))
        if (i < 1).any():
            raise ValueError("witness indices start at 1")
        t = np.log(i)
        return (1.0 + np.searchsorted(np.asarray(self.block_bounds_t), t, side="right")) * t**2

    def values(self, dim: int) -> np.ndarray:
        """Witness values g(1..dim) as a float array."""
        return self.level(np.arange(1, dim + 1))

    @cached_property
    def _head(self) -> np.ndarray:
        return self.values(WITNESS_HEAD_N)

    @cached_property
    def _blocks(self) -> list:
        """(t_a, t_b, c, 2) of each block, on which c_i = c."""
        bounds = (0.0,) + self.block_bounds_t + (math.inf,)
        return [(ta, tb, float(k), 2.0) for k, (ta, tb) in enumerate(zip(bounds, bounds[1:]), start=1)]

    def gibbs_moments(self, beta: float) -> tuple[float, float, float]:
        """ln Z, mean and variance of the weights e^{-beta g_i} at beta > 0: an
        exact head plus one integral block in ln-space per witness block."""
        return _gibbs_moments(self._head, self._blocks, beta)

    def log_partition_value(self, beta: float) -> float:
        """ln sum_i e^{-beta g_i}: exact head plus per-block integrals in ln-space."""
        if beta <= 0:
            raise ValueError("partition value needs beta > 0")
        return self.gibbs_moments(beta)[0]


def build_fa_witness(s: SpectrumFamily) -> FAWitness:
    """Adaptive witness for a spectrum passing the ln^2 sufficiency check.

    Block k ends where the remaining tail of sum lambda_i ln^2 i has
    shrunk by the halving factor k times; c_i = k on block k, so the
    witness mean telescopes to a finite value. The factor is 2, or 1.05
    for families whose tail-halving indices grow doubly exponentially,
    where unit-step c_i would grow too slowly for the partition values to
    approach 1 at any feasible inverse temperature. Raises when the
    sufficient condition is not established for the family.
    """
    if s.classify_weighted(2.0) != CONVERGES:
        raise ValueError("no witness: the ln^2-weighted sum is not known to converge")

    def tail_ln2(t: float) -> float:
        return s.weighted_tail_from(2.0, math.floor(math.exp(min(t, T_CEIL))))

    total = tail_ln2(0.0)
    if not math.isfinite(total) or total <= 0:
        raise ValueError("no witness: ln^2-weighted sum is not finite and positive")

    def above(n: int, target: float) -> bool:
        # tested at the index midpoint, so block membership is exact for integers
        return tail_ln2(math.log(n + 0.5)) > target

    def index_boundary(target: float, t_lo: float) -> int | None:
        """The smallest index n >= floor(e^t_lo) not above the target, or None
        when it is not below 1e15: gallop, then bisect on integers."""
        cap = 10**15 - 1
        lo = math.floor(math.exp(t_lo))
        if lo >= cap:
            return None
        if not above(lo, target):
            return lo
        step, hi = 1, lo + 1
        while above(hi, target):
            if hi == cap:
                return None
            lo, step = hi, 2 * step
            hi = min(lo + step, cap)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid, target):
                lo = mid
            else:
                hi = mid
        return hi

    def boundary_for(target: float, t_lo: float) -> float:
        n = index_boundary(target, t_lo)
        if n is not None:
            return math.log(n + 0.5)
        lo, hi = t_lo, T_CEIL
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if tail_ln2(mid) > target:
                lo = mid
            else:
                hi = mid
        return hi

    # families whose tail-halving boundaries explode doubly exponentially
    # need gentler blocks so c_i reaches useful sizes at feasible betas
    halving = 1.05 if boundary_for(total * 0.125, 0.0) > 100.0 else 2.0

    bounds: list[float] = []
    tails: list[float] = [total]
    t_lo = 0.0
    for k in range(1, 201):
        target = total * halving**-k
        if target < total * 1e-16 or t_lo >= T_CEIL:
            break
        if tail_ln2(T_CEIL) > target:
            bounds.append(T_CEIL)
            tails.append(tail_ln2(T_CEIL))
            break
        hi = boundary_for(target, t_lo)
        bounds.append(hi)
        tails.append(tail_ln2(hi))
        t_lo = hi
    # the witness mean telescopes over blocks; c stays constant past the last bound
    energy = 0.0
    for k in range(1, len(tails)):
        energy += k * (tails[k - 1] - tails[k])
    energy += len(tails) * tails[-1]
    return FAWitness(family=s, block_bounds_t=tuple(bounds), energy=float(energy))


# ---------------------------------------------------------------------------
# Truncation to finite states
# ---------------------------------------------------------------------------


def truncate_to_density(s: SpectrumFamily, d: int) -> DensityOp:
    """Diagonal state from the first d eigenvalues, renormalized."""
    if d < 1:
        raise ValueError("truncation dimension must be >= 1")
    lam = s.lam(np.arange(1, d + 1))
    total = lam.sum()
    if total <= 0:
        raise ValueError("truncation annihilates the spectrum")
    return DensityOp(DimSig((d,)), np.diag(lam / total).astype(complex))
