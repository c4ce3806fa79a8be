"""Named, versioned reference states used by the CLI and the acceptance suite."""

from __future__ import annotations

import numpy as np

from .qmat import DensityOp, DimSig, hermitian_part
from .spectra import SpectrumFamily, truncate_to_density

FIXTURE_VERSION = 1


def pure_state(vec, dims) -> DensityOp:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return DensityOp(DimSig(tuple(dims)), np.outer(v, v.conj()))


def bell_state() -> DensityOp:
    v = np.zeros(4)
    v[0] = v[3] = 1.0
    return pure_state(v, (2, 2))


def ghz_state() -> DensityOp:
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return pure_state(v, (2, 2, 2))


def ghz_mixture() -> DensityOp:
    """Even classical mixture of the two GHZ branches |000> and |111>."""
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = m[7, 7] = 0.5
    return DensityOp(DimSig((2, 2, 2)), m)


def w_state() -> DensityOp:
    v = np.zeros(8)
    v[1] = v[2] = v[4] = 1.0
    return pure_state(v, (2, 2, 2))


def maximally_mixed(dims) -> DensityOp:
    sig = DimSig(tuple(dims))
    return DensityOp(sig, np.eye(sig.total, dtype=complex) / sig.total)


def geometric_gibbs_product(q: float, d: int, parties: int) -> DensityOp:
    """Product of identical truncated geometric (Gibbs-like) marginals."""
    one = truncate_to_density(SpectrumFamily.geometric(q), d)
    mat = one.mat
    for _ in range(parties - 1):
        mat = np.kron(mat, one.mat)
    return DensityOp(DimSig((d,) * parties), mat)


def correlated_geometric_state(q: float, d: int, parties: int) -> DensityOp:
    """Classically correlated diagonal state whose marginals are all the
    truncated geometric spectrum: sum_i p_i |i...i><i...i|."""
    probs = np.diag(truncate_to_density(SpectrumFamily.geometric(q), d).mat).real
    total = d**parties
    mat = np.zeros((total, total), dtype=complex)
    stride = sum(d**e for e in range(parties))
    for i, p in enumerate(probs):
        mat[i * stride, i * stride] = p
    return DensityOp(DimSig((d,) * parties), mat)


def gibbs_marginal_pair(x: float = 0.002, mix: float = 0.2) -> DensityOp:
    """Entangled 3x3 mixture whose marginals are exactly the (1, x, x^2) Gibbs weights.

    Blends the purification-style correlated vector with the product of
    its marginals, so both components share the same marginals.
    """
    w = np.array([1.0, x, x * x])
    w = w / w.sum()
    vec = np.zeros(9)
    for i in range(3):
        vec[4 * i] = np.sqrt(w[i])
    psi = np.outer(vec, vec)
    gamma = np.diag(w).astype(complex)
    prod = np.kron(gamma, gamma)
    mat = (1.0 - mix) * psi + mix * prod
    return DensityOp(DimSig((3, 3)), hermitian_part(mat.astype(complex)))


def maximally_correlated(a) -> DensityOp:
    """The d x d maximally correlated state sum_ij a_ij |ii><jj| of a d x d
    density matrix a. Its relative entropy of entanglement is
    S(diag a) - S(a), attained by the dephased sum_i a_ii |ii><ii|
    (Plenio, Virmani & Papadopoulos, J. Phys. A 33, L193 (2000))."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    diag = np.arange(d) * (d + 1)  # |ii> in the d^2 product basis
    mat = np.zeros((d * d, d * d), dtype=complex)
    mat[np.ix_(diag, diag)] = a
    return DensityOp(DimSig((d, d)), hermitian_part(mat))


def geometric_correlation(q: float, p: float, d: int) -> np.ndarray:
    """a_ij = (1 - p) sqrt(l_i l_j) + p l_i delta_ij, l the truncated
    geometric(q) spectrum: with `maximally_correlated`, a two-mode squeezed
    vacuum truncated to d levels and dephased with weight p."""
    lam = np.diag(truncate_to_density(SpectrumFamily.geometric(q), d).mat).real
    root = np.sqrt(lam)
    return (1.0 - p) * np.outer(root, root) + p * np.diag(lam)


def _cayley(k) -> np.ndarray:
    """The unitary (1 + iK)^-1 (1 - iK) of a Hermitian K."""
    k = np.asarray(k, dtype=complex)
    one = np.eye(k.shape[0])
    return np.linalg.solve(one + 1j * k, one - 1j * k)


# generators K of the fixed local unitaries of the rotated maximally
# correlated fixture: no axis of either marginal eigenbasis lies along the
# computational basis
_MAXCORR_GENERATORS = (
    [[0.3, 0.8 - 0.5j, 0.2j], [0.8 + 0.5j, -0.4, 0.6], [-0.2j, 0.6, 0.1]],
    [[-0.2, 0.4 + 0.7j, 0.5 - 0.3j], [0.4 - 0.7j, 0.5, -0.9j], [0.5 + 0.3j, 0.9j, 0.0]],
)


def rotated_maximally_correlated() -> DensityOp:
    """`maximally_correlated(geometric_correlation(0.5, 0.3, 3))` turned by
    fixed local unitaries; E_R = S(diag a) - S(a) = 0.39901 nats."""
    rho = maximally_correlated(geometric_correlation(0.5, 0.3, 3))
    u = np.kron(*(_cayley(k) for k in _MAXCORR_GENERATORS))
    return DensityOp(rho.sig, hermitian_part(u @ rho.mat @ u.conj().T))


FIXTURES = {
    "bell": bell_state,
    "ghz3": ghz_state,
    "ghz3-mixture": ghz_mixture,
    "w3": w_state,
    "mixed-qubit-pair": lambda: maximally_mixed((2, 2)),
    "geomgibbs-pair": lambda: geometric_gibbs_product(0.5, 4, 2),
    "geomgibbs-triple": lambda: geometric_gibbs_product(0.5, 4, 3),
    "correlated-geometric": lambda: correlated_geometric_state(0.02, 10, 3),
    "gibbs-marginal-3x3": gibbs_marginal_pair,
    "maxcorr-3x3": rotated_maximally_correlated,
}


def get_fixture(name: str) -> DensityOp:
    if name not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise ValueError(f"unknown fixture {name!r}; known fixtures: {known}")
    return FIXTURES[name]()
