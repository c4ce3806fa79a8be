import numpy as np
import pytest

from qsep.qmat import (
    DensityOp,
    DimSig,
    eigh,
    kron_density,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_density,
    random_pure,
    top_projector,
    trace_distance,
)


def dop(dims, mat):
    return DensityOp(DimSig(tuple(dims)), np.asarray(mat, dtype=complex))


def bell():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return dop((2, 2), np.outer(v, v))


def manual_partial_trace(mat, dims, keep):
    """Index-summation oracle, independent of the reshape-based implementation."""
    n = len(dims)
    traced = [s for s in range(n) if s not in keep]
    kd = int(np.prod([dims[k] for k in keep]))
    out = np.zeros((kd, kd), dtype=complex)
    idx = [np.unravel_index(i, dims) for i in range(int(np.prod(dims)))]
    kept_pos = {}
    for i, multi in enumerate(idx):
        key = tuple(multi[k] for k in keep)
        kept_pos.setdefault(key, []).append((i, tuple(multi[t] for t in traced)))
    keys = sorted(kept_pos)
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            tot = 0.0
            for i, ti in kept_pos[ka]:
                for j, tj in kept_pos[kb]:
                    if ti == tj:
                        tot += mat[i, j]
            out[a, b] = tot
    return out


class TestKron:
    def test_trace_multiplicative(self):
        rho = random_density((2,), 2, seed=1)
        sig = random_density((3,), 3, seed=2)
        out = kron_density(rho, sig)
        assert out.sig.dims == (2, 3)
        # direct multiplication oracle
        assert abs(np.trace(out.mat) - np.trace(rho.mat) * np.trace(sig.mat)) < 1e-12
        assert abs(np.trace(out.mat) - 1.0) < 1e-12


class TestPartialTrace:
    def test_product_case(self):
        a = random_density((2,), 2, seed=3)
        b = random_density((3,), 3, seed=4)
        red = partial_trace(kron_density(a, b), [0])
        assert np.allclose(red.mat, a.mat, atol=1e-12)

    def test_bell_marginal(self):
        red = partial_trace(bell(), [0])
        assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)

    def test_against_summation_oracle(self):
        rho = random_density((2, 3), 5, seed=5)
        for keep in ([0], [1]):
            got = partial_trace(rho, keep)
            want = manual_partial_trace(rho.mat, (2, 3), keep)
            assert np.allclose(got.mat, want, atol=1e-12)
            assert abs(np.trace(got.mat) - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="no subsystem kept"):
            partial_trace(bell(), [])

    def test_reduction_commutes(self):
        rho = random_density((2, 2, 2), 8, seed=6)
        direct = partial_trace(rho, [0])
        staged = partial_trace(partial_trace(rho, [0, 1]), [0])
        assert np.allclose(direct.mat, staged.mat, atol=1e-10)


class TestEigh:
    def test_diagonal(self):
        dec = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [3.0, 2.0, 1.0])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        dec = eigh(x)
        assert np.allclose(dec.eigenvalues, [1.0, -1.0])
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(dec.eigenvectors[:, 0], plus)) - 1.0) < 1e-12

    def test_reconstruction_and_gram(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = (m + m.conj().T) / 2
            dec = eigh(m)
            assert np.linalg.norm(m - dec.reconstruct(), 2) < 1e-8
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.linalg.norm(gram - np.eye(6)) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceDistance:
    def test_identity_case(self):
        rho = random_density((2, 2), 4, seed=8)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = dop((2,), np.diag([1.0, 0.0]))
        b = dop((2,), np.diag([0.0, 1.0]))
        assert abs(trace_distance(a, b) - 1.0) < 1e-12

    def test_half(self):
        # eigenvalues of the difference are +-1/2, so the oracle value is 1/2
        a = dop((2,), np.diag([0.75, 0.25]))
        b = dop((2,), np.diag([0.25, 0.75]))
        assert abs(trace_distance(a, b) - 0.5) < 1e-12

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="signature"):
            trace_distance(random_density((4,), 4, 0), random_density((2, 2), 4, 0))

    def test_triangle_inequality_sampled(self):
        for s in range(10):
            a = random_density((2, 2), 4, seed=3 * s)
            b = random_density((2, 2), 4, seed=3 * s + 1)
            c = random_density((2, 2), 4, seed=3 * s + 2)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


class TestTopProjector:
    def test_full_rank_identity(self):
        rho = random_density((3,), 3, seed=9)
        assert np.allclose(top_projector(rho, 3), np.eye(3), atol=1e-10)

    def test_diagonal_ordering(self):
        rho = dop((3,), np.diag([0.5, 0.3, 0.2]))
        p = top_projector(rho, 2)
        assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_degenerate_tie_picks_lowest_index(self):
        rho = dop((3,), np.diag([0.4, 0.4, 0.2]))
        p = top_projector(rho, 1)
        assert np.allclose(p, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_out_of_range(self):
        rho = random_density((3,), 3, seed=10)
        with pytest.raises(ValueError, match="out of range"):
            top_projector(rho, 4)
        with pytest.raises(ValueError, match="out of range"):
            top_projector(rho, 0)

    def test_compressed_trace_equals_top_eigenvalue_sum(self):
        for s in range(5):
            rho = random_density((4,), 4, seed=20 + s)
            w = np.sort(np.linalg.eigvalsh(rho.mat))[::-1]
            for r in (1, 2, 3, 4):
                p = top_projector(rho, r)
                tr = np.real(np.trace(p @ rho.mat @ p))
                assert abs(tr - w[:r].sum()) < 1e-10


class TestRandomStates:
    def test_pure_purity(self):
        rho = random_pure((2, 2), seed=11)
        assert abs(np.real(np.trace(rho.mat @ rho.mat)) - 1.0) < 1e-10

    def test_determinism(self):
        a = random_density((2, 3), 4, seed=12)
        b = random_density((2, 3), 4, seed=12)
        assert np.array_equal(a.mat, b.mat)

    def test_full_rank_positive(self):
        rho = random_density((2, 2), 4, seed=13)
        assert np.linalg.eigvalsh(rho.mat).min() > 0


class TestValidationAndJson:
    def test_create_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOp.create((2,), np.diag([0.6, 0.6]))

    def test_create_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOp.create((2,), np.diag([1.2, -0.2]))

    def test_json_round_trip(self):
        rho = random_density((2, 2), 3, seed=14)
        doc = matrix_to_json(rho)
        back = matrix_from_json(doc)
        assert np.allclose(back.mat, rho.mat, atol=1e-15)
        assert back.sig.dims == rho.sig.dims

    def test_json_rejects_non_hermitian_naming_residual(self):
        doc = {"dims": [2], "re": [[0.5, 1.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
        with pytest.raises(ValueError, match="Hermiticity residual"):
            matrix_from_json(doc)

    def test_json_rejects_dims_mismatch(self):
        doc = {"dims": [2, 2], "re": [[1.0]], "im": [[0.0]]}
        with pytest.raises(ValueError, match="does not match dims"):
            matrix_from_json(doc)
