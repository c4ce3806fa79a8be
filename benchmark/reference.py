"""Reference values computed with numpy alone, never through qsep.

Closed forms:
  * E_R of a pure bipartite state is the entropy of either marginal, and
    E_R of a Bell-diagonal state with top weight F >= 1/2 is ln 2 - h(F)
    (Vedral & Plenio, PRA 57, 1619 (1998)).
  * E_R of the d x d isotropic state with singlet fraction F >= 1/d is
    ln d + F ln F + (1 - F) ln((1 - F)/(d - 1)), and 0 below 1/d
    (Rains, PRA 60, 179 (1999)).
  * Rank-r compression of the correlated geometric state keeps mass
    c_r = (1 - q^r)/(1 - q^d) on every marginal.
Everything is in nats.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def entropy_of(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def vn_entropy(mat: np.ndarray) -> float:
    return entropy_of(np.linalg.eigvalsh((mat + mat.conj().T) / 2))


def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    keep = sorted(keep)
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = [letters[i] for i in range(n)]
    col = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    t = np.einsum("".join(row) + "".join(col) + "->" + out, mat.reshape(tuple(dims) * 2))
    d = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d, d)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray, support_tol: float = 1e-9) -> float:
    """D(rho || sigma) from the eigendecompositions of both matrices."""
    ws, vs = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    weights = np.real(np.einsum("ji,jk,ki->i", vs.conj(), rho, vs))
    null = ws <= support_tol
    if weights[null].sum() > support_tol:
        return math.inf
    return -vn_entropy(rho) - float((weights[~null] * np.log(ws[~null])).sum())


def cut_lower_bound(mat: np.ndarray, dims) -> float:
    """max over bipartite cuts X of S(rho_X) - S(rho); E_R across the finest
    partition is at least E_R across any coarser cut, which is at least this."""
    n = len(dims)
    s_all = vn_entropy(mat)
    best = -math.inf
    for size in range(1, n):
        for cut in itertools.combinations(range(n), size):
            best = max(best, vn_entropy(partial_trace(mat, dims, cut)) - s_all)
    return best


def atom_mixture(atoms) -> tuple[np.ndarray, list[np.ndarray]]:
    """sigma = sum_a w_a |a><a| for product atoms over the finest partition,
    with the list of full-space atom vectors."""
    vecs = []
    for _, atom in atoms:
        v = np.ones(1, dtype=complex)
        for f in atom.factors:
            v = np.kron(v, np.asarray(f, dtype=complex))
        vecs.append(v)
    w = np.asarray([w for w, _ in atoms], dtype=float)
    arr = np.stack(vecs)
    return (arr.T * w) @ arr.conj(), vecs


def pure_er(vec: np.ndarray, dims) -> float:
    """E_R of a pure bipartite state: entropy of the squared Schmidt coefficients."""
    s = np.linalg.svd(vec.reshape(dims[0], dims[1]), compute_uv=False)
    return entropy_of(s**2)


def isotropic_state(d: int, fidelity: float) -> np.ndarray:
    phi = np.zeros(d * d, dtype=complex)
    phi[[i * d + i for i in range(d)]] = 1.0 / math.sqrt(d)
    p = np.outer(phi, phi.conj())
    return fidelity * p + (1.0 - fidelity) / (d * d - 1) * (np.eye(d * d) - p)


def isotropic_er(d: int, fidelity: float) -> float:
    if fidelity <= 1.0 / d:
        return 0.0
    tail = (1.0 - fidelity) * math.log((1.0 - fidelity) / (d - 1)) if fidelity < 1.0 else 0.0
    return math.log(d) + fidelity * math.log(fidelity) + tail


def bell_diagonal_er(weights) -> float:
    top = max(weights)
    if top <= 0.5:
        return 0.0
    return math.log(2.0) - entropy_of([top, 1.0 - top])


def geometric_probs(q: float, d: int) -> np.ndarray:
    p = q ** np.arange(d)
    return p / p.sum()


def compression_closed_forms(q: float, d: int, parties: int, r: int) -> dict:
    """c_r, eps_r and the gentle bound of the correlated geometric state."""
    c = (1.0 - q**r) / (1.0 - q**d)
    return {
        "c_r": c,
        "eps_r": math.sqrt(parties * (1.0 - c)),
        "gentle_bound": 2.0 * math.sqrt(1.0 - c),
    }


def classical_qmi(joint: np.ndarray) -> float:
    """sum of the single-party entropies minus the joint entropy."""
    n = joint.ndim
    marg = sum(entropy_of(joint.sum(axis=tuple(a for a in range(n) if a != s))) for s in range(n))
    return marg - entropy_of(joint)


def correlated_joint(q: float, d: int, parties: int, r: int | None = None) -> np.ndarray:
    """p_i on the diagonal i...i, optionally cut to i < r and renormalized."""
    p = geometric_probs(q, d)
    if r is not None:
        p = np.where(np.arange(d) < r, p, 0.0)
        p = p / p.sum()
    joint = np.zeros((d,) * parties)
    for i in range(d):
        joint[(i,) * parties] = p[i]
    return joint


def apply_classical_channels(joint: np.ndarray, channels) -> np.ndarray:
    """Action of local depolarizing/dephasing/identity channels on a diagonal state."""
    out = joint
    for axis, spec in enumerate(channels):
        if spec == "identity" or spec[0] == "dephasing":
            continue
        name, p = spec
        if name != "depolarizing":
            raise ValueError(f"no classical action for channel {name!r}")
        d = out.shape[axis]
        out = (1.0 - p) * out + (p / d) * out.sum(axis=axis, keepdims=True)
    return out


def self_test() -> list[str]:
    """Cheap consistency checks of the formulas above; returns failure messages."""
    fails = []

    def expect(label, got, want, tol=1e-12):
        if not abs(got - want) <= tol:
            fails.append(f"reference self-test {label}: {got!r} != {want!r}")

    for d in (2, 3, 4):
        expect(f"isotropic d={d} at F=1/d", isotropic_er(d, 1.0 / d), 0.0)
        expect(f"isotropic d={d} at F=1", isotropic_er(d, 1.0), math.log(d))
        expect(f"isotropic d={d} trace", float(np.trace(isotropic_state(d, 0.7)).real), 1.0)
    expect("isotropic d=2 is Bell-diagonal", isotropic_er(2, 0.8), bell_diagonal_er([0.8, 0.2 / 3, 0.2 / 3, 0.2 / 3]))
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    expect("Bell Schmidt entropy", pure_er(bell, (2, 2)), math.log(2))
    expect("product Schmidt entropy", pure_er(np.kron([1, 0], [0.6, 0.8]).astype(complex), (2, 2)), 0.0)
    expect("Bell cut bound", cut_lower_bound(np.outer(bell, bell.conj()), (2, 2)), math.log(2))
    mixed = np.eye(4) / 4
    expect("D(rho||rho)", relative_entropy(mixed, mixed), 0.0)
    expect("classical QMI of a product", classical_qmi(np.einsum("i,j->ij", [0.3, 0.7], [0.5, 0.5])), 0.0)
    expect("correlated QMI", classical_qmi(correlated_joint(0.5, 2, 2)), entropy_of(geometric_probs(0.5, 2)))
    expect("c_r at r=d", compression_closed_forms(0.02, 10, 3, 10)["c_r"], 1.0)
    return fails
