"""Dense complex-Hermitian linear algebra for multipartite states.

Everything here works on explicit numpy matrices at desk scale (total
dimension up to a few thousand). States carry a dimension signature so
that tensor products, partial traces and per-subsystem spectral
projectors agree on how the big matrix factors into subsystems.
Subsystems are indexed from 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

HERM_TOL = 1e-8
EIG_FLOOR = -1e-10
TRACE_TOL = 1e-10
CLIP_TOL = 1e-12
HERM_TILE = 128


@dataclass(frozen=True)
class DimSig:
    """Ordered local dimensions (d_1, ..., d_n) of a multipartite space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    @property
    def nsys(self) -> int:
        return len(self.dims)


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, DensityOp):
        return a.mat
    return np.asarray(a, dtype=complex)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 of a matrix, or of each matrix of a stack (..., D, D).

    A single matrix larger than HERM_TILE is summed one tile pair at a
    time, so that its transposed read stays in cache, and halved once; the
    result is byte-identical to the plain expression, which smaller
    matrices (where it is faster) and stacks keep.
    """
    n = m.shape[-1]
    if m.ndim != 2 or n <= HERM_TILE:
        return (m + m.conj().swapaxes(-1, -2)) / 2
    out = np.empty(m.shape, np.result_type(m, 0.5))
    for i in range(0, n, HERM_TILE):
        for j in range(i, n, HERM_TILE):
            a, b = slice(i, i + HERM_TILE), slice(j, j + HERM_TILE)
            np.add(m[a, b], m[b, a].conj().T, out=out[a, b])
            if i != j:
                np.add(m[b, a], m[a, b].conj().T, out=out[b, a])
    out /= 2
    return out


def herm_residual(m: np.ndarray) -> float:
    """Operator-norm distance from m to its Hermitian part."""
    d = m - m.conj().T
    return float(np.linalg.norm(d, 2)) / 2


def _herm_violation(m: np.ndarray) -> float:
    """herm_residual(m), or 0.0 when the Frobenius norm, which bounds it,
    is within HERM_TOL: the SVD runs only when that cheap test fails."""
    if np.linalg.norm(m - m.conj().T) / 2 <= HERM_TOL:
        return 0.0
    return herm_residual(m)


@dataclass(frozen=True)
class DensityOp:
    """Hermitian PSD unit-trace matrix with a multipartite signature."""

    sig: DimSig
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (self.sig.total, self.sig.total):
            raise ValueError(
                f"matrix shape {m.shape} does not match signature total {self.sig.total}"
            )
        object.__setattr__(self, "mat", m)
        m.setflags(write=False)

    @staticmethod
    def create(sig: DimSig | list[int] | tuple[int, ...], mat, validate: bool = True) -> "DensityOp":
        """Build a DensityOp, optionally checking the state invariants.

        A validated state stores the Hermitian part of `mat`, so its matrix
        is exactly Hermitian (and equal to `mat` in value when `mat` already
        is); with validate=False the matrix is stored as given.
        """
        if not isinstance(sig, DimSig):
            sig = DimSig(tuple(sig))
        m = np.asarray(mat, dtype=complex)
        if validate:
            res = _herm_violation(m)
            if res > HERM_TOL:
                raise ValueError(f"state rejected: Hermiticity residual {res:.3e} exceeds {HERM_TOL}")
            tr = complex(np.trace(m))
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"state rejected: trace {tr:.12g} deviates from 1 beyond {TRACE_TOL}")
            m = hermitian_part(m)
            wmin = float(np.linalg.eigvalsh(m).min())
            if wmin < EIG_FLOOR:
                raise ValueError(f"state rejected: minimal eigenvalue {wmin:.3e} below {EIG_FLOOR}")
        return DensityOp(sig, m)

    def clean(self) -> "DensityOp":
        """Numerical hygiene: re-symmetrize, clip tiny negative eigenvalues, renormalize.

        Meant for matrices wrapped with `create(..., validate=False)`; the
        library does not call it, as the states it builds are PSD by construction.
        """
        m = hermitian_part(self.mat)
        w, v = np.linalg.eigh(m)
        if w.min() < -CLIP_TOL or abs(w.sum() - 1.0) > TRACE_TOL:
            w = np.clip(w, 0.0, None)
            s = w.sum()
            if s <= 0:
                raise ValueError("state annihilated by cleanup")
            w = w / s
            m = (v * w) @ v.conj().T
            m = hermitian_part(m)
        return DensityOp(self.sig, m)

    @property
    def dim(self) -> int:
        return self.sig.total


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues in descending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def eigh(m) -> SpectralDecomp:
    """Spectral decomposition of a Hermitian matrix, eigenvalues descending.

    Exact eigenvalue ties are ordered by the basis index of each
    eigenvector's largest-magnitude component (ascending), so degenerate
    diagonal matrices resolve to the lowest-index basis vector first.
    """
    m = _as_matrix(m)
    res = _herm_violation(m)
    if res > HERM_TOL:
        raise ValueError(f"eigh requires a Hermitian input: residual {res:.3e}")
    w, v = np.linalg.eigh(hermitian_part(m))
    anchors = np.argmax(np.abs(v), axis=0)
    order = np.lexsort((anchors, -w))
    return SpectralDecomp(w[order].copy(), v[:, order].copy())


def kron_density(a: DensityOp, b: DensityOp) -> DensityOp:
    """Tensor product state with concatenated dimension signature."""
    return DensityOp(DimSig(a.sig.dims + b.sig.dims), np.kron(a.mat, b.mat))


def partial_trace(rho: DensityOp, keep) -> DensityOp:
    """Reduce to the subsystems in `keep` (0-based indices), tracing out the rest."""
    keep = sorted(set(int(k) for k in keep))
    dims = rho.sig.dims
    n = len(dims)
    if not keep:
        raise ValueError("no subsystem kept")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = rho.mat.reshape(dims + dims)
    traced = [s for s in range(n) if s not in keep]
    for s in sorted(traced, reverse=True):
        t = np.trace(t, axis1=s, axis2=s + (t.ndim // 2))
    d = int(np.prod([dims[k] for k in keep]))
    out = t.reshape(d, d)
    return DensityOp(DimSig(tuple(dims[k] for k in keep)), hermitian_part(out))


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    m = hermitian_part(_as_matrix(m))
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def trace_distance(rho: DensityOp, sigma: DensityOp) -> float:
    """Half the trace norm of rho - sigma; lies in [0, 1] for states."""
    if rho.sig.dims != sigma.sig.dims:
        raise ValueError(f"signature mismatch: {rho.sig.dims} vs {sigma.sig.dims}")
    return 0.5 * trace_norm(rho.mat - sigma.mat)


def top_projector(rho_marginal: DensityOp, r: int) -> np.ndarray:
    """Rank-r orthogonal projector onto the eigenvectors of the r largest eigenvalues.

    Ties are broken by the deterministic ordering of :func:`eigh`.
    """
    d = rho_marginal.dim
    if not 1 <= r <= d:
        raise ValueError(f"rank r={r} out of range [1, {d}]")
    return column_projector(eigh(rho_marginal.mat).eigenvectors[:, :r])


def column_projector(v: np.ndarray) -> np.ndarray:
    """The projector V V^dagger onto orthonormal columns V, symmetrized once."""
    return hermitian_part(v @ v.conj().T)


def random_density(sig, rank: int, seed: int) -> DensityOp:
    """Deterministic random state of given rank (Ginibre construction)."""
    if not isinstance(sig, DimSig):
        sig = DimSig(tuple(sig))
    d = sig.total
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range [1, {d}]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = hermitian_part(m / np.trace(m).real)
    return DensityOp(sig, m)


def random_pure(sig, seed: int) -> DensityOp:
    """Deterministic Haar-like random pure state as a density operator."""
    return random_density(sig, 1, seed)


def product_operator(ops: dict[int, np.ndarray], sig: DimSig) -> np.ndarray:
    """Dense tensor product with given per-subsystem operators, identity on the rest.

    The library applies local operators by reshape (see the local maps of
    :mod:`qsep.approx`); this D x D product is the reference they are
    tested against.
    """
    mats = [
        np.asarray(ops[s], dtype=complex) if s in ops else np.eye(d, dtype=complex)
        for s, d in enumerate(sig.dims)
    ]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def matrix_to_json(rho: DensityOp) -> dict:
    """JSON matrix format: {"dims": [...], "re": [[...]], "im": [[...]]}, row-major."""
    return {
        "dims": list(rho.sig.dims),
        "re": rho.mat.real.tolist(),
        "im": rho.mat.imag.tolist(),
    }


def matrix_from_json(doc: dict) -> DensityOp:
    """Parse and validate the JSON matrix format, rejecting invariant violations."""
    try:
        dims = tuple(int(d) for d in doc["dims"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state document: {exc}") from exc
    sig = DimSig(dims)
    if re.shape != (sig.total, sig.total) or im.shape != re.shape:
        raise ValueError(
            f"matrix shape {re.shape}/{im.shape} does not match dims product {sig.total}"
        )
    return DensityOp.create(sig, re + 1j * im, validate=True)


def save_state(rho: DensityOp, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(rho), fh)


def load_state(path: str) -> DensityOp:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
