import numpy as np
import pytest

from qsep.qmat import (
    EIG_FLOOR,
    HERM_TOL,
    DensityOp,
    DimSig,
    eigh,
    herm_residual,
    hermitian_part,
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


def plain_hermitian_part(m):
    return (m + m.conj().swapaxes(-1, -2)) / 2


class TestHermitianPart:
    # sizes at, below and above one tile, several tiles and a ragged edge;
    # signed zeros make the bytes of the halving depend on the operand order
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 256, 1000])
    def test_bytes_equal_plain_expression(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m[0, 0] = complex(-0.0, 0.0)
        m[n // 2, n - 1] = complex(-0.0, -0.0)
        m[n - 1, n // 2] = complex(-0.0, 0.0)
        # a complex matrix with real values has +0 imaginary parts, whose
        # conjugates are -0
        for mat in (m, m.real + 0j):
            out = hermitian_part(mat)
            want = plain_hermitian_part(mat)
            assert out.dtype == want.dtype and out.tobytes() == want.tobytes()

    def test_stack_and_real_matrix(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((3, 200, 200)) + 1j * rng.standard_normal((3, 200, 200))
        assert hermitian_part(stack).tobytes() == plain_hermitian_part(stack).tobytes()
        real = rng.standard_normal((300, 300))
        out = hermitian_part(real)
        assert out.dtype == np.float64 and out.tobytes() == plain_hermitian_part(real).tobytes()


def traceless_skew(n, c):
    """i c diag(1, -1, 1, ...): anti-Hermitian with operator norm c and Frobenius norm c sqrt(n)."""
    return 1j * c * np.diag([(-1.0) ** k for k in range(n)])


class TestHermiticityCheck:
    # the Frobenius test decides alone only when it accepts; the residual in
    # a rejection is still the operator norm
    def test_frobenius_above_tolerance_operator_norm_below_accepted(self):
        m = np.eye(16) / 16 + traceless_skew(16, 0.5 * HERM_TOL)
        assert np.linalg.norm(m - m.conj().T) / 2 > HERM_TOL >= herm_residual(m)
        DensityOp.create((4, 4), m)
        eigh(m)

    def test_operator_norm_above_tolerance_rejected_with_unchanged_message(self):
        m = np.eye(16) / 16 + traceless_skew(16, 2 * HERM_TOL)
        res = herm_residual(m)
        assert res > HERM_TOL
        with pytest.raises(ValueError) as err:
            DensityOp.create((4, 4), m)
        assert str(err.value) == f"state rejected: Hermiticity residual {res:.3e} exceeds {HERM_TOL}"
        with pytest.raises(ValueError) as err:
            eigh(m)
        assert str(err.value) == f"eigh requires a Hermitian input: residual {res:.3e}"


class TestValidationAndJson:
    def test_create_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOp.create((2,), np.diag([0.6, 0.6]))

    def test_create_rejects_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOp.create((2,), np.diag([1.2, -0.2]))

    def test_create_stores_hermitian_part(self):
        rho = random_density((2, 2), 3, seed=15)
        assert DensityOp.create((2, 2), rho.mat).mat.tobytes() == rho.mat.tobytes()
        skew = 1e-10j * np.diag([1.0, -1.0, 0.0, 0.0])
        got = DensityOp.create((2, 2), rho.mat + skew).mat
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - rho.mat).max() < 1e-15
        assert DensityOp.create((2, 2), rho.mat + skew, validate=False).mat[0, 0].imag == 1e-10

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

    @pytest.mark.parametrize(
        "diag",
        [
            [0.25, 0.25, 0.5, 0.0],
            [0.5, 0.5 + 1e-9, -1e-9, 0.0],
            [0.5, 0.5 + 1e-11, -1e-11, 0.0],
            [0.5, 0.5 + 1e-10, -1e-10, 0.0],
            [0.5 + 1e-12j, 0.5 - 1e-12j, 0.0, 0.0],
            [1.2, -0.2, 0.0, 0.0],
        ],
        ids=["psd", "minus-1e-9", "minus-1e-11", "at-floor", "imaginary-diagonal", "negative"],
    )
    def test_diagonal_state_validated_without_eigensolver(self, monkeypatch, diag):
        # the decision must be eigvalsh's, with eigvalsh never called
        m = np.diag(np.asarray(diag, dtype=complex))
        want = np.linalg.eigvalsh(hermitian_part(m)).min() >= EIG_FLOOR
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        doc = matrix_to_json(DensityOp(DimSig((2, 2)), m.copy()))
        for build in (lambda: DensityOp.create((2, 2), m), lambda: matrix_from_json(doc)):
            if want:
                assert build().mat.tobytes() == hermitian_part(m).tobytes()
            else:
                with pytest.raises(ValueError, match="minimal eigenvalue"):
                    build()
        assert calls == []
        # a coherence, however small, sends the matrix through eigvalsh
        m[0, 1] = m[1, 0] = 1e-300
        try:
            DensityOp.create((2, 2), m)
        except ValueError:
            pass
        assert len(calls) == 1
