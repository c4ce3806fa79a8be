import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsep.entropy import mutual_information, von_neumann_entropy
from qsep.gibbs import (
    DIM_CAP,
    ENERGY_TOL,
    BoundParams,
    _adequate_dim,
    _common_beta,
    check_asymptotic_condition,
    class_membership_check,
    fcb_bound,
    max_entropy,
    max_entropy_multi,
    solve_beta,
    solve_beta_multi,
    squared_hamiltonian_check,
)
from qsep.qmat import DensityOp, DimSig, random_density
from qsep.spectra import FAWitness, HamiltonianSpec, build_fa_witness, parse_family

QUBIT = HamiltonianSpec.explicit([0.0, 1.0])
LINEAR = HamiltonianSpec.linear(1.0)


def scalar_root_oracle(target):
    """Bisection on e^-b/(1+e^-b) = target, independent of the solver."""
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if math.exp(-mid) / (1 + math.exp(-mid)) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestSolveBeta:
    def test_qubit_quarter_energy(self):
        sol = solve_beta(QUBIT, 0.25)
        assert abs(sol.beta - scalar_root_oracle(0.25)) < 1e-8
        assert abs(sol.beta - math.log(3)) < 1e-8
        assert abs(sol.mean_energy - 0.25) < 1e-8

    def test_qubit_clamps_at_half(self):
        sol = solve_beta(QUBIT, 0.5)
        assert sol.beta == 0.0
        assert np.allclose(sol.weights, [0.5, 0.5])
        assert np.allclose(np.diag(sol.state.mat).real, [0.5, 0.5])

    def test_linear_geometric_series_oracle(self):
        # mean x/(1-x) = 1 at x = 1/2, i.e. beta = ln 2
        sol = solve_beta(LINEAR, 1.0)
        assert abs(sol.beta - math.log(2)) < 1e-8

    def test_infeasible_energy(self):
        with pytest.raises(ValueError, match="infeasible"):
            solve_beta(QUBIT, -0.2)

    def test_clamped_state_is_maximally_mixed_on_truncation(self):
        sol = solve_beta(LINEAR, 1e9, dim=128)
        assert sol.beta == 0.0
        assert np.allclose(sol.weights, np.full(128, 1 / 128))
        # a user-set truncation is what was asked for, not a cut ceiling
        assert not sol.clamped

    def test_cap_flag_only_for_growth_cut_at_cap(self):
        # the qubit's beta = 0 clamp is the inactive constraint, not a cut
        assert not solve_beta(QUBIT, 0.7).clamped
        w = build_fa_witness(parse_family("geometric:0.02"))
        assert not solve_beta(w, 100.0).clamped
        cut = solve_beta(w, 1e5)
        assert cut.clamped and cut.dim == DIM_CAP and cut.beta == 0.0
        assert not solve_beta(w, 1e5, dim=4096).clamped
        assert solve_beta_multi([QUBIT, w], 1e5).clamped
        p = BoundParams(C=1.0, D=1.0, m=1, E=1.0, hams=(QUBIT,))
        assert not fcb_bound(p, 0.5).clamped


def summed_mean(levels_list, beta):
    """Summed Gibbs mean energy, evaluated level array by level array."""
    total = 0.0
    for lv in levels_list:
        w = np.exp(-beta * (lv - lv[0]))
        total += float((w * lv).sum() / w.sum())
    return total


def summed_variance(levels_list, beta):
    total = 0.0
    for lv in levels_list:
        w = np.exp(-beta * (lv - lv[0]))
        w /= w.sum()
        m = float((w * lv).sum())
        total += float((w * (lv - m) ** 2).sum())
    return total


def bisection_oracle(levels_list, target):
    """Plain bisection on the summed mean curve, independent of the solver."""
    lo, hi = 0.0, 1.0
    while summed_mean(levels_list, hi) > target:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if summed_mean(levels_list, mid) > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@st.composite
def level_problems(draw):
    """1-3 nondecreasing level arrays, some listed twice (the same object),
    and a target strictly between the ground energy and the beta = 0 mean."""
    distinct = [
        draw(st.floats(0.0, 3.0))
        + np.cumsum([0.0] + draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=3))
    levels_list = [distinct[i] for i in picks]
    ground = sum(float(lv[0]) for lv in levels_list)
    top = sum(float(lv.mean()) for lv in levels_list)
    assume(top - ground > 0.1)
    return levels_list, ground + draw(st.floats(0.05, 0.95)) * (top - ground)


class TestCommonBeta:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(problem=level_problems())
    def test_matches_independent_bisection(self, problem):
        levels_list, target = problem
        beta = _common_beta(levels_list, target)
        ref = bisection_oracle(levels_list, target)
        # the stop rule |m - E| <= ENERGY_TOL fixes beta only to within
        # ENERGY_TOL / variance; keep draws where that is below 1e-9 beta
        assume(ENERGY_TOL / summed_variance(levels_list, ref) < 1e-9 * ref)
        met = abs(summed_mean(levels_list, beta) - target) <= ENERGY_TOL + 1e-13
        collapsed = abs(beta - ref) <= 1e-13 * max(1.0, ref)
        assert met or collapsed
        assert abs(beta - ref) <= 1e-8 * ref

    def test_repeated_array_counts_once_per_listing(self):
        lv = np.array([0.0, 1.0, 2.5, 4.0])
        twice = _common_beta([lv, lv], 1.2)
        assert abs(twice - _common_beta([lv], 0.6)) <= 1e-12
        assert abs(twice - bisection_oracle([lv, lv.copy()], 1.2)) <= 1e-8 * twice


class TestTruncationGrowth:
    # growth of the README witness that stops on a passing tail test, after
    # five tested doublings (three cases) and at the cap with the beta = 0
    # mean still below the target; only a stop at DIM_CAP is flagged
    @pytest.mark.parametrize(
        "energy, size",
        [(1.0, 64), (100.0, 2048), (3446.0, 262144), (5000.0, DIM_CAP), (1e4, DIM_CAP)],
        ids=["tail-test", "five-doublings-from-64", "five-doublings-from-8192", "five-doublings-to-cap", "mean-below-cap"],
    )
    def test_doubling_matches_direct_levels(self, energy, size):
        w = build_fa_witness(parse_family("geometric:0.02"))
        out, clamped = _adequate_dim(w, energy, None)
        assert out.size == size
        assert np.array_equal(out, w.values(out.size))
        assert clamped == (size == DIM_CAP)

    # a symbolic Hamiltonian grows by its new half like a witness
    @pytest.mark.parametrize(
        "ham, energy, size",
        [(HamiltonianSpec.logpow(4, 2), 100.0, 16384), (HamiltonianSpec.logpow(4, 2), 1000.0, DIM_CAP), (LINEAR, 1000.0, 32768)],
        ids=["logpow", "logpow-to-cap", "linear"],
    )
    def test_spec_doubling_matches_direct_levels(self, ham, energy, size):
        out, clamped = _adequate_dim(ham, energy, None)
        assert out.size == size
        assert np.array_equal(out, ham.values(out.size))
        assert clamped == (size == DIM_CAP)

    def test_equal_witnesses_grow_once(self, monkeypatch):
        w = build_fa_witness(parse_family("geometric:0.02"))
        w_copy = build_fa_witness(parse_family("geometric:0.02"))
        assert w_copy == w and w_copy is not w
        seen = []
        level = FAWitness.level
        monkeypatch.setattr(FAWitness, "level", lambda self, i: seen.append(id(self)) or level(self, i))
        both = max_entropy_multi([w, w_copy], 200.0)
        assert set(seen) == {id(w)}
        assert abs(both - 2 * max_entropy(w, 100.0)) < 1e-8


class TestMaxEntropy:
    def test_qubit_saturates(self):
        assert abs(max_entropy(QUBIT, 0.7) - math.log(2)) < 1e-12

    def test_linear_unit_energy(self):
        # Gibbs weights 2^-i; entropy oracle sum 2^-i * i * ln 2 = 2 ln 2
        oracle = sum(2.0**-i * i * math.log(2) for i in range(1, 200))
        assert abs(oracle - 2 * math.log(2)) < 1e-12
        assert abs(max_entropy(LINEAR, 1.0) - oracle) < 1e-8

    def test_ground_energy_zero_entropy(self):
        assert abs(max_entropy(QUBIT, 0.0)) < 1e-12

    @pytest.mark.parametrize(
        "ham,dim",
        [(QUBIT, None), (LINEAR, 256), (HamiltonianSpec.logpow(4, 2), 256)],
    )
    def test_monotone_and_concave_on_grid(self, ham, dim):
        ground = ham.ground()
        grid = np.linspace(ground + 0.05, ground + 3.0, 12)
        vals = [max_entropy(ham, float(e), dim) for e in grid]
        diffs = np.diff(vals)
        assert (diffs >= -1e-8).all()
        assert (np.diff(diffs) <= 1e-8).all()


class TestMaxEntropyMulti:
    def test_single_reduces(self):
        assert abs(max_entropy_multi([LINEAR], 1.0) - max_entropy(LINEAR, 1.0)) < 1e-10

    def test_two_qubits_split_evenly(self):
        assert abs(max_entropy_multi([QUBIT, QUBIT], 1.0) - 2 * math.log(2)) < 1e-10

    def test_both_ground(self):
        assert abs(max_entropy_multi([QUBIT, QUBIT], 0.0)) < 1e-12

    def test_additivity_with_identical_hamiltonians(self):
        for e in (0.1, 0.3, 0.45):
            lhs = max_entropy_multi([QUBIT, QUBIT, QUBIT], 3 * e)
            assert abs(lhs - 3 * max_entropy(QUBIT, e)) < 1e-8

    def test_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            max_entropy_multi([QUBIT, QUBIT], -0.5)

    @pytest.mark.parametrize("order", [1, -1], ids=["array-first", "spec-first"])
    def test_raw_array_beside_equal_spec(self, order):
        # a raw array is never compared with == against a level source; the
        # two truncations stay separate and beta is the one pinned before
        # witnesses spoke the Hamiltonian level interface
        hams = [np.array([0.0, 1.0]), HamiltonianSpec.explicit([0, 1])][::order]
        sol = solve_beta_multi(hams, 0.6)
        assert sol.beta == float.fromhex("0x1.b1d106709d7ecp-1")
        assert abs(sol.beta - math.log(7.0 / 3.0)) < 1e-9


class TestAsymptoticTrends:
    def test_linear_sublinear_ceiling(self):
        res = check_asymptotic_condition(LINEAR, "o(E)", [1, 10, 100], dim=2048)
        assert res["verdict"] == "decreasing"

    def test_ln_separates_the_two_conditions(self):
        h = HamiltonianSpec.logpow(1, 1)
        res_e = check_asymptotic_condition(h, "o(E)", [1, 2, 4, 6], dim=4096)
        res_s = check_asymptotic_condition(h, "o(sqrtE)", [1, 2, 4, 6], dim=4096)
        assert res_e["verdict"] == "decreasing"
        assert res_s["verdict"] == "increasing"

    def test_4ln2_sqrt_ceiling(self):
        res = check_asymptotic_condition(
            HamiltonianSpec.logpow(4, 2), "o(sqrtE)", [1, 4, 16, 64], dim=4096
        )
        assert res["verdict"] == "decreasing"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            check_asymptotic_condition(LINEAR, "o(E^2)", [1, 2])
        with pytest.raises(ValueError):
            check_asymptotic_condition(LINEAR, "o(E)", [2, 1])


class TestSquaredHamiltonian:
    def test_projector_hamiltonian_equality(self):
        rows = squared_hamiltonian_check(QUBIT, [0.5, 1.0, 4.0])
        for row in rows:
            assert abs(row["F_squared"] - row["F_at_sqrt"]) < 1e-10

    def test_log_and_linear_families(self):
        rows = squared_hamiltonian_check(HamiltonianSpec.logpow(1, 1), [4.0], dim=2048)
        assert rows[0]["ok"]
        rows = squared_hamiltonian_check(LINEAR, [9.0], dim=1024)
        assert rows[0]["ok"]

    def test_grid_sweep_no_violations(self):
        for ham, dim in ((QUBIT, None), (LINEAR, 512), (HamiltonianSpec.logpow(1, 1), 1024)):
            e0 = ham.ground()
            grid = np.linspace(e0 * e0 + 0.3, e0 * e0 + 6.0, 10)
            rows = squared_hamiltonian_check(ham, grid, dim=dim)
            assert all(r["ok"] for r in rows)


class TestContinuityBound:
    def test_pure_g_term(self):
        p = BoundParams(C=0.0, D=1.0, m=1, E=1.0, hams=(QUBIT,))
        assert abs(fcb_bound(p, 1.0) - 2 * math.log(2)) < 1e-12

    def test_qubit_ceiling_saturation(self):
        p = BoundParams(C=1.0, D=0.0, m=1, E=1.0, hams=(QUBIT,))
        for eps in (0.2, 0.5, 0.9):
            x = eps * (2 - eps)
            assert 2 * p.E / x >= 0.5
            assert abs(fcb_bound(p, eps) - math.sqrt(x) * math.log(2)) < 1e-12

    def test_faithfulness_limit(self):
        p = BoundParams(C=1.0, D=1.0, m=1, E=2.0, hams=(HamiltonianSpec.logpow(4, 2),))
        assert fcb_bound(p, 0.0) == 0.0
        grid = [1.0, 0.5, 0.1, 0.01, 1e-3, 1e-5]
        vals = [fcb_bound(p, e) for e in grid]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_domain_errors(self):
        p = BoundParams(C=1.0, D=1.0, m=1, E=1.0, hams=(QUBIT,))
        with pytest.raises(ValueError):
            fcb_bound(p, -0.1)
        with pytest.raises(ValueError):
            fcb_bound(p, 1.1)

    def test_bound_params_validation(self):
        with pytest.raises(ValueError):
            BoundParams(C=1.0, D=1.0, m=2, E=1.0, hams=(QUBIT,))
        with pytest.raises(ValueError):
            BoundParams(C=-1.0, D=1.0, m=1, E=1.0, hams=(QUBIT,))

    def test_shared_params_grow_each_level_once(self, monkeypatch):
        # the README approx envelope: two equal geometric:0.02 witnesses and
        # eps_r = sqrt(3 * 0.02^r), whose ceilings reach DIM_CAP at r = 7..9
        w = build_fa_witness(parse_family("geometric:0.02"))
        w_copy = build_fa_witness(parse_family("geometric:0.02"))
        eps = [math.sqrt(3 * 0.02**r) for r in range(1, 10)]

        def params():
            return BoundParams(C=2.0, D=3.0, m=2, E=2 * w.energy, hams=(w, w_copy))

        fresh = [fcb_bound(params(), e) for e in eps]
        shared = params()
        seen = []
        level = FAWitness.level
        monkeypatch.setattr(FAWitness, "level", lambda self, i: seen.append(np.array(i)) or level(self, i))
        values = [fcb_bound(shared, e) for e in eps]
        assert [v.hex() for v in values] == [v.hex() for v in fresh]
        assert [v.clamped for v in values] == [v.clamped for v in fresh] == [False] * 6 + [True] * 3
        indices = np.sort(np.concatenate(seen))
        assert np.array_equal(indices, np.arange(1, DIM_CAP + 1))
        # a params object compares and hashes on its fields alone
        assert shared == params() and hash(shared) == hash(params())
        assert "_levels" not in repr(shared)


class TestSandwichChecks:
    def _samples(self, count=15):
        rng = np.random.default_rng(17)
        out = []
        for i in range(count):
            out.append(
                (
                    random_density((2, 2), 4, seed=400 + i),
                    random_density((2, 2), 4, seed=500 + i),
                    float(rng.uniform(0.15, 0.85)),
                )
            )
        return out

    def test_entropy_on_first_marginal(self):
        f = lambda rho: von_neumann_entropy(rho)
        samples = [
            (random_density((2,), 2, seed=i), random_density((2,), 2, seed=50 + i), 0.4)
            for i in range(10)
        ]
        rep = class_membership_check(f, 0, 1, 0, 1, m=1, samples=samples)
        assert rep.ok

    def test_negated_entropy_mirror(self):
        f = lambda rho: -von_neumann_entropy(rho)
        samples = [
            (random_density((2,), 2, seed=i), random_density((2,), 2, seed=90 + i), 0.6)
            for i in range(10)
        ]
        rep = class_membership_check(f, 1, 0, 1, 0, m=1, samples=samples)
        assert rep.ok

    def test_qmi_with_valid_split(self):
        # the list pins only the sums (C, D) = (2, n); the split (0,2,1,n-1)
        # follows from the chain identity and holds on samples
        rep = class_membership_check(
            mutual_information, 0, 2, 1, 1, m=1, samples=self._samples()
        )
        assert rep.ok

    def test_checker_reports_real_violations(self):
        # mixing the two Bell states halves the mutual information, so a
        # zero lower mixing coefficient must be flagged
        v1 = np.zeros(4)
        v1[0] = v1[3] = 1 / np.sqrt(2)
        v2 = np.zeros(4)
        v2[0], v2[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        phip = DensityOp(DimSig((2, 2)), np.outer(v1, v1))
        phim = DensityOp(DimSig((2, 2)), np.outer(v2, v2))
        rep = class_membership_check(
            mutual_information, 0, 2, 0, 2, m=1, samples=[(phip, phim, 0.5)]
        )
        assert len(rep.mixing_violations) == 1
