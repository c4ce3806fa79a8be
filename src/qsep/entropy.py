"""Entropic functionals on density operators.

Values are in nats (natural logarithm throughout). Divergent quantities
are returned as ``math.inf`` so they survive comparisons and CSV
serialization unambiguously.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import DensityOp, _is_diagonal, _reduce, eigh, partial_trace

SUPPORT_TOL = 1e-9
LOG_FLOOR = 1e-14


def eta(x: float) -> float:
    """-x ln x for x > 0, and 0 at x = 0."""
    if x <= 0:
        return 0.0
    return -x * math.log(x)


def _eta_sum(w: np.ndarray) -> float:
    """Shannon sum -sum w ln w over the positive entries of a spectrum."""
    w = w[w > 0]
    return float(-(w * np.log(w)).sum()) if w.size else 0.0


def _spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix.

    An exactly diagonal matrix (every off-diagonal entry is zero) takes its
    spectrum from the sorted real diagonal, with no eigensolver. This is
    exact, not an approximation: LAPACK's Hermitian eigensolver reduces a
    diagonal matrix to a tridiagonal one with zero off-diagonal, so
    np.linalg.eigvalsh returns the same ascending diagonal bit for bit.
    Any other matrix goes through eigvalsh.
    """
    return np.sort(m.diagonal().real) if _is_diagonal(m) else np.linalg.eigvalsh(m)


def von_neumann_entropy(rho: DensityOp) -> float:
    """Entropy of a state: sum of eta over its eigenvalues (`_spectrum`)."""
    return _eta_sum(_spectrum(rho.mat))


def binary_entropy(p: float) -> float:
    """eta(p) + eta(1 - p) on [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p}")
    return eta(p) + eta(1.0 - p)


def g_entropy(x: float) -> float:
    """(x+1) ln(x+1) - x ln x for x > 0, with value 0 at x = 0.

    Equals (x+1) h2(x/(x+1)); the additive term of the continuity bounds.
    Evaluated as ln(1+x) + x ln(1+1/x), which does not cancel at large x.
    """
    if x < 0:
        raise ValueError(f"g_entropy needs x >= 0, got {x}")
    if x == 0:
        return 0.0
    return math.log1p(x) + x * math.log1p(1.0 / x)


def relative_entropy(rho: DensityOp, sigma: DensityOp) -> float:
    """Tr rho (ln rho - ln sigma), or inf when supp rho leaves supp sigma.

    The finite branch is evaluated in sigma's eigenbasis. The support test
    declares divergence when some rho-eigenvector with eigenvalue above
    SUPPORT_TOL has squared projection onto sigma's null space of at
    least SUPPORT_TOL.
    """
    if rho.sig.dims != sigma.sig.dims:
        raise ValueError(f"signature mismatch: {rho.sig.dims} vs {sigma.sig.dims}")
    dec_r = eigh(rho.mat)
    dec_s = eigh(sigma.mat)
    ws, vs = dec_s.eigenvalues, dec_s.eigenvectors
    null = vs[:, ws <= SUPPORT_TOL]
    if null.shape[1]:
        big = dec_r.eigenvectors[:, dec_r.eigenvalues > SUPPORT_TOL]
        if big.shape[1]:
            leak = (np.abs(null.conj().T @ big) ** 2).sum(axis=0)
            if leak.max() >= SUPPORT_TOL:
                return math.inf
    tr_rho_ln_rho = -_eta_sum(dec_r.eigenvalues)
    keep = ws > SUPPORT_TOL
    weights = np.real(np.einsum("ij,jk,ki->i", vs.conj().T, rho.mat, vs))
    tr_rho_ln_sigma = float((weights[keep] * np.log(np.clip(ws[keep], LOG_FLOOR, None))).sum())
    return tr_rho_ln_rho - tr_rho_ln_sigma


def conditional_entropy(rho: DensityOp, part: int = 0) -> float:
    """Conditional entropy S(A|B) = S(rho) - S(rho_B) of a bipartite state.

    `part` selects which subsystem plays A (0 or 1). At finite dimension
    this equals the extended form S(rho_A) - D(rho || rho_A x rho_B).
    """
    if rho.sig.nsys != 2:
        raise ValueError(f"conditional entropy needs a bipartite signature, got {rho.sig.dims}")
    if part not in (0, 1):
        raise ValueError(f"part must be 0 or 1, got {part}")
    return von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, [1 - part]))


def _check_groups(groups: list[list[int]], nsys: int) -> list[list[int]]:
    """Validate disjoint nonempty groups that cover subsystems 0..nsys-1."""
    if not groups:
        raise ValueError("no groups given")
    seen: set[int] = set()
    out = []
    for g in groups:
        g = [int(s) for s in g]
        if not g:
            raise ValueError("empty group in partition")
        if any(s < 0 or s >= nsys for s in g):
            raise ValueError(f"group {g} out of range for {nsys} subsystems")
        if seen & set(g):
            raise ValueError(f"group {g} overlaps another group")
        seen |= set(g)
        out.append(g)
    if seen != set(range(nsys)):
        raise ValueError(f"groups {groups} do not cover all {nsys} subsystems")
    return out


def _support(m: np.ndarray, w: np.ndarray) -> np.ndarray | None:
    """Eigenvectors of the d x d marginal m, of spectrum w, for its k
    eigenvalues above d eps lambda_max (numpy's matrix_rank tolerance), or
    None when none is at or below it."""
    d = len(w)
    k = int((w > d * np.finfo(float).eps * w.max()).sum())
    return None if k == d else eigh(m).eigenvectors[:, :k]


def entropy_terms(rho: DensityOp) -> tuple[float, list[float]]:
    """S(rho) on the product of its marginals' supports, and the entropy of
    each one-subsystem marginal.

    rho's support lies in the product of its marginals' supports. A
    marginal eigenvalue at or below d_s eps lambda_max(rho_s) counts as zero;
    when some marginal has such eigenvalues and rho is not exactly diagonal,
    rho is reduced to W^dagger rho W, W the product of the kept marginal
    eigenvectors V_s (the identity on full-rank subsystems), and only that
    core is eigensolved. Otherwise S(rho) is von_neumann_entropy(rho), bit
    for bit.

    Error bound: with P = W W^dagger and delta the dropped marginal mass,
    Tr (1 - P) rho <= sum_s Tr (1 - P_s) rho_s = delta. By Cauchy interlacing
    the core's eigenvalues, padded with zeros, lie below rho's one by one,
    and the D differences sum to at most delta, so |Delta S| <= delta (1 +
    ln(D / delta)). At 10x10x10, where delta is at most 27 eigenvalues of
    10 eps each, that is about 2.5e-12.
    """
    dims = rho.sig.dims
    margs = [partial_trace(rho, [s]).mat for s in range(len(dims))]
    spectra = [_spectrum(m) for m in margs]
    joint = rho.mat
    # the exact-diagonal shortcut of _spectrum, tested once
    if _is_diagonal(joint):
        w = np.sort(joint.diagonal().real)
    else:
        vs = [_support(m, spec) for m, spec in zip(margs, spectra)]
        if any(v is not None for v in vs):
            joint = _reduce(joint, vs, dims)
        w = np.linalg.eigvalsh(joint)
    return _eta_sum(w), [_eta_sum(spec) for spec in spectra]


def mutual_information(
    rho: DensityOp, groups: list[list[int]] | None = None, terms: tuple[float, list[float]] | None = None
) -> float:
    """Multipartite mutual information sum_g S(rho_g) - S(rho).

    Groups default to one group per subsystem; a coarser grouping treats
    each group as a merged subsystem. S(rho) and the one-subsystem
    entropies are `entropy_terms(rho)`, taken once, or `terms` when a
    caller already holds them.
    """
    if groups is None:
        groups = [[s] for s in range(rho.sig.nsys)]
    groups = _check_groups(groups, rho.sig.nsys)
    if len(groups) == 1:
        return 0.0
    joint, singles = entropy_terms(rho) if terms is None else terms
    total = -joint
    for g in groups:
        total += singles[g[0]] if len(g) == 1 else von_neumann_entropy(partial_trace(rho, g))
    return total
