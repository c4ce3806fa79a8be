"""Entropic functionals on density operators.

Values are in nats (natural logarithm throughout). Divergent quantities
are returned as ``math.inf`` so they survive comparisons and CSV
serialization unambiguously.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import DensityOp, eigh, partial_trace

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


def von_neumann_entropy(rho: DensityOp) -> float:
    """Entropy of a state: sum of eta over its eigenvalues.

    An exactly diagonal matrix (every off-diagonal entry is zero) takes its
    spectrum from the sorted real diagonal, with no eigensolver. This is
    exact, not an approximation: LAPACK's Hermitian eigensolver reduces a
    diagonal matrix to a tridiagonal one with zero off-diagonal, so
    np.linalg.eigvalsh returns the same ascending diagonal bit for bit.
    Any other matrix goes through eigvalsh.
    """
    m = rho.mat
    d = m.shape[0]
    # row k of the (d-1) x (d+1) view runs from just after diagonal entry k
    # to diagonal entry k+1; without its last column it holds exactly the
    # off-diagonal entries, read in place
    if not np.any(m.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :-1]):
        return _eta_sum(np.sort(m.diagonal().real))
    return _eta_sum(np.linalg.eigvalsh(m))


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


def mutual_information(rho: DensityOp, groups: list[list[int]] | None = None) -> float:
    """Multipartite mutual information sum_s S(rho_{group s}) - S(rho).

    Groups default to one group per subsystem; a coarser grouping treats
    each group as a merged subsystem.
    """
    if groups is None:
        groups = [[s] for s in range(rho.sig.nsys)]
    groups = _check_groups(groups, rho.sig.nsys)
    if len(groups) == 1:
        return 0.0
    total = -von_neumann_entropy(rho)
    for g in groups:
        total += von_neumann_entropy(partial_trace(rho, g))
    return total
