import math

import numpy as np
import pytest

from qsep.entropy import (
    _eta_sum,
    binary_entropy,
    conditional_entropy,
    g_entropy,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from qsep.fixtures import bell_state, get_fixture, ghz_mixture
from qsep.qmat import DensityOp, DimSig, kron_density, partial_trace, random_density


def dop(dims, mat):
    return DensityOp(DimSig(tuple(dims)), np.asarray(mat, dtype=complex))


def test_entropy_pure():
    rho = dop((2,), np.diag([1.0, 0.0]))
    assert von_neumann_entropy(rho) == 0.0


@pytest.mark.parametrize("d", [2, 3, 5, 16, 64])
def test_entropy_maximally_mixed(d):
    rho = dop((d,), np.eye(d) / d)
    assert abs(von_neumann_entropy(rho) - math.log(d)) < 1e-10


def test_entropy_scalar_sum_oracle():
    probs = [0.5, 0.25, 0.25]
    want = -sum(p * math.log(p) for p in probs)
    assert abs(want - 1.5 * math.log(2)) < 1e-15
    assert abs(von_neumann_entropy(dop((3,), np.diag(probs))) - want) < 1e-12


_RNG = np.random.default_rng(20261018)
_W9 = _RNG.random(9)
_W64 = _RNG.random(64)


@pytest.mark.parametrize(
    "diag",
    [
        pytest.param(_W9 / _W9.sum(), id="random-unsorted"),
        pytest.param([0.25, 0.125, 0.25, 0.125, 0.25], id="repeated"),
        pytest.param([0.0, 0.5, 0.0, 0.3, 0.2, 0.0], id="zeros"),
        pytest.param([1.0], id="d1"),
        pytest.param(_W64 / _W64.sum(), id="d64"),
    ],
)
def test_entropy_of_diagonal_equals_eigensolver_bits(diag):
    mat = np.diag(np.asarray(diag, dtype=complex))
    assert von_neumann_entropy(dop((mat.shape[0],), mat)) == _eta_sum(np.linalg.eigvalsh(mat))


@pytest.mark.parametrize("i, j", [(0, 1), (0, 5), (4, 5)])
def test_entropy_single_off_diagonal_pair_uses_eigensolver(i, j):
    # a rank-one |+><+|-type block on (i, j): spectrum {0.5, 0}, not the diagonal {0.25, 0.25}
    mat = np.diag(np.full(6, 0.125)).astype(complex)
    mat[i, i] = mat[j, j] = 0.25
    mat[i, j], mat[j, i] = 0.25j, -0.25j
    got = von_neumann_entropy(dop((6,), mat))
    assert got == _eta_sum(np.linalg.eigvalsh(mat))
    assert abs(got - _eta_sum(np.sort(mat.diagonal().real))) > 0.1


def test_binary_entropy_symmetric_point():
    assert abs(binary_entropy(0.5) - math.log(2)) < 1e-15
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_g_values():
    assert g_entropy(0.0) == 0.0
    # direct evaluation of (x+1)ln(x+1) - x ln x at x = 1
    assert abs(g_entropy(1.0) - 2 * math.log(2)) < 1e-15
    with pytest.raises(ValueError):
        g_entropy(-0.1)


class TestRelativeEntropy:
    def test_self(self):
        rho = random_density((2, 2), 4, seed=0)
        assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_support_violation_infinite(self):
        a = dop((2,), np.diag([1.0, 0.0]))
        b = dop((2,), np.diag([0.0, 1.0]))
        assert math.isinf(relative_entropy(a, b))

    def test_scalar_evaluation_oracle(self):
        p = [0.5, 0.5]
        q = [0.75, 0.25]
        want = sum(pi * (math.log(pi) - math.log(qi)) for pi, qi in zip(p, q))
        got = relative_entropy(dop((2,), np.diag(p)), dop((2,), np.diag(q)))
        assert abs(got - want) < 1e-12
        assert abs(want - 0.1438) < 1e-4

    def test_signature_mismatch(self):
        with pytest.raises(ValueError, match="signature"):
            relative_entropy(random_density((4,), 4, 0), random_density((2, 2), 4, 0))

    def test_joint_convexity_sampled(self):
        for s in range(10):
            r1 = random_density((2, 2), 4, seed=4 * s)
            r2 = random_density((2, 2), 4, seed=4 * s + 1)
            s1 = random_density((2, 2), 4, seed=4 * s + 2)
            s2 = random_density((2, 2), 4, seed=4 * s + 3)
            p = 0.3
            mix_r = dop((2, 2), p * r1.mat + (1 - p) * r2.mat)
            mix_s = dop((2, 2), p * s1.mat + (1 - p) * s2.mat)
            lhs = relative_entropy(mix_r, mix_s)
            rhs = p * relative_entropy(r1, s1) + (1 - p) * relative_entropy(r2, s2)
            assert lhs <= rhs + 1e-8


class TestConditionalEntropy:
    def test_product_case(self):
        a = random_density((2,), 2, seed=1)
        b = random_density((3,), 3, seed=2)
        rho = kron_density(a, b)
        assert abs(conditional_entropy(rho, 0) - von_neumann_entropy(a)) < 1e-8

    def test_bell_negative(self):
        # oracle: S(rho) - S(rho_B) = 0 - ln 2
        assert abs(conditional_entropy(bell_state(), 0) + math.log(2)) < 1e-8

    def test_classically_correlated_zero(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[3, 3] = 0.5
        assert abs(conditional_entropy(dop((2, 2), m), 0)) < 1e-10

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError, match="bipartite"):
            conditional_entropy(random_density((2, 2, 2), 8, 0))

    def test_matches_entropy_difference(self):
        for s in range(10):
            rho = random_density((2, 3), 6, seed=50 + s)
            direct = von_neumann_entropy(rho) - von_neumann_entropy(partial_trace(rho, [1]))
            assert abs(conditional_entropy(rho, 0) - direct) < 1e-8


    @pytest.mark.parametrize("part", [0, 1])
    def test_near_singular_inputs_stay_finite(self, part):
        # the product rho_A x rho_B is nearly singular on both states, and
        # the value is still the entropy difference, not -inf
        rho = get_fixture("gibbs-marginal-3x3")
        m = rho.mat.reshape(3, 3, 3, 3)
        other = np.einsum("ajak->jk", m) if part == 0 else np.einsum("jaka->jk", m)
        oracle = _eta_sum(np.linalg.eigvalsh(rho.mat)) - _eta_sum(np.linalg.eigvalsh(other))
        assert abs(conditional_entropy(rho, part) - oracle) < 1e-10
        assert abs(conditional_entropy(rho, part) + 0.0045042) < 1e-7
        eps = 1e-5
        assert abs(conditional_entropy(dop((2, 2), np.diag([1 - eps, 0.0, 0.0, eps])), part)) < 1e-12


class TestMutualInformation:
    def test_product_zero(self):
        rho = kron_density(random_density((2,), 2, seed=3), random_density((2,), 2, seed=4))
        assert abs(mutual_information(rho)) < 1e-10

    def test_bell(self):
        assert abs(mutual_information(bell_state()) - 2 * math.log(2)) < 1e-10

    def test_ghz_mixture_entropy_sum_oracle(self):
        rho = ghz_mixture()
        marg = sum(von_neumann_entropy(partial_trace(rho, [s])) for s in range(3))
        want = marg - von_neumann_entropy(rho)
        assert abs(want - 2 * math.log(2)) < 1e-12
        assert abs(mutual_information(rho) - want) < 1e-12

    def test_invalid_groupings(self):
        rho = random_density((2, 2), 4, seed=5)
        with pytest.raises(ValueError):
            mutual_information(rho, [[0], [0, 1]])
        with pytest.raises(ValueError):
            mutual_information(rho, [[0]])
        with pytest.raises(ValueError):
            mutual_information(rho, [[0], []])

    def test_chain_rule(self):
        # I(A:B:C) = I(B:C) + I(A:BC)
        for s in range(10):
            rho = random_density((2, 2, 2), 8, seed=70 + s)
            total = mutual_information(rho)
            bc = mutual_information(partial_trace(rho, [1, 2]))
            a_bc = mutual_information(rho, [[0], [1, 2]])
            assert abs(total - (bc + a_bc)) < 1e-8


def test_mixing_concavity_bound_sampled():
    for s in range(20):
        a = random_density((2, 2), 4, seed=90 + s)
        b = random_density((2, 2), 4, seed=190 + s)
        p = 0.05 + 0.9 * (s / 19.0)
        mix = dop((2, 2), p * a.mat + (1 - p) * b.mat)
        lhs = von_neumann_entropy(mix)
        rhs = p * von_neumann_entropy(a) + (1 - p) * von_neumann_entropy(b) + binary_entropy(p)
        assert lhs <= rhs + 1e-8


def test_qmi_marginal_upper_bound_all_choices():
    for s in range(10):
        rho = random_density((2, 2, 2), 8, seed=300 + s)
        total = mutual_information(rho)
        ents = [von_neumann_entropy(partial_trace(rho, [k])) for k in range(3)]
        for drop in range(3):
            bound = 2 * sum(e for k, e in enumerate(ents) if k != drop)
            assert total <= bound + 1e-8
