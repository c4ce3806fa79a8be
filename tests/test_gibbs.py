import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsep.entropy import g_entropy, mutual_information, von_neumann_entropy
from qsep.gibbs import (
    ENERGY_TOL,
    BoundParams,
    _common_beta,
    _source,
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
from qsep.spectra import (
    WITNESS_HEAD_N,
    FAWitness,
    HamiltonianSpec,
    SpectrumFamily,
    build_fa_witness,
    parse_family,
    truncate_to_density,
)

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

    def test_unsorted_raw_levels_rejected(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            solve_beta(np.array([1.0, 0.0]), 0.25)

    def test_infinite_source_has_no_finite_state(self):
        sol = solve_beta(LINEAR, 1.0)
        assert sol.levels is None and sol.weights is None and sol.dim is None
        with pytest.raises(ValueError, match="no finite state"):
            sol.state
        assert solve_beta(LINEAR, 1.0, dim=64).state.sig.dims == (64,)

    @pytest.mark.parametrize("energy", [1.0, 10.0, 1e3, 1e5, 1e7])
    def test_linear_ceiling_is_closed_form(self, energy):
        # F = g(E) for H = w (i - 1) (Winter 2016); the geometric series is
        # summed in closed form, so no truncation caps the large energies
        assert max_entropy(LINEAR, energy) == pytest.approx(g_entropy(energy), rel=1e-10)

    def test_logpow_below_one_has_infinite_ceiling(self):
        # Tr e^{-beta a ln^p i} diverges at every beta for p < 1
        sol = solve_beta(HamiltonianSpec.logpow(1.0, 0.5), 3.0)
        assert sol.beta == 0.0 and math.isinf(sol.entropy)


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
        sources = {id(lv): _source(lv, None) for lv in levels_list}
        beta = _common_beta([sources[id(lv)] for lv in levels_list], target)
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
        src = _source(lv, None)
        twice = _common_beta([src, src], 1.2)
        assert abs(twice - _common_beta([src], 0.6)) <= 1e-12
        assert abs(twice - bisection_oracle([lv, lv.copy()], 1.2)) <= 1e-8 * twice


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

    @pytest.mark.parametrize("energy", [0.01, 1.0, 100.0])
    def test_linear_ceiling_in_legendre_form(self, energy):
        # F = g(E) for H = i - 1. The Gibbs state's entropy at the root read
        # -3.9e-11 relative at E = 0.01 and +1.9e-11 at E = 1; the Legendre
        # value beta (E - ground) + ln Z errs only to second order in beta
        g = g_entropy(energy)
        assert abs(max_entropy(LINEAR, energy) - g) <= 1e-15 * g
        assert abs(max_entropy_multi([LINEAR, LINEAR], 2.0 * energy) - 2.0 * g) <= 2e-15 * g

    @pytest.mark.parametrize("energy", [100.0, 0.0])
    def test_clamped_beta_found_once(self, monkeypatch, energy):
        # beta = 0 (energy above the truncation's mean) or inf (the ground):
        # the entropy is the Gibbs state's, summed without a second root-find
        import qsep.gibbs as gibbs_mod

        want = solve_beta(LINEAR, energy, 4).entropy
        calls = []
        common = gibbs_mod._common_beta
        monkeypatch.setattr(gibbs_mod, "_common_beta", lambda *a: calls.append(a) or common(*a))
        got = max_entropy(LINEAR, energy, 4)
        assert len(calls) == 1 and calls[0][1] == energy
        assert got == want

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

    def test_equal_witnesses_evaluated_once(self, monkeypatch):
        w = build_fa_witness(parse_family("geometric:0.02"))
        w_copy = build_fa_witness(parse_family("geometric:0.02"))
        assert w_copy == w and w_copy is not w
        seen = []
        level = FAWitness.level
        monkeypatch.setattr(FAWitness, "level", lambda self, i: seen.append(id(self)) or level(self, i))
        both = max_entropy_multi([w, w_copy], 200.0)
        assert set(seen) == {id(w)}
        assert abs(both - 2 * max_entropy(w, 100.0)) < 1e-8

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

    def test_nonpositive_grid_energy_rejected(self):
        with pytest.raises(ValueError, match="energy grid"):
            check_asymptotic_condition(LINEAR, "o(E)", [0.0, 1.0, 2.0], dim=64)


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

    def test_indefinite_levels_square_to_sorted_levels(self):
        # (Tr H rho)^2 <= Tr H^2 rho holds for any Hermitian H
        rows = squared_hamiltonian_check(np.array([-1.0, 0.5, 2.0]), [0.5])
        assert rows[0]["ok"] and rows[0]["margin"] > 0

    def test_infinite_source_needs_dim(self):
        with pytest.raises(ValueError, match="dim"):
            squared_hamiltonian_check(LINEAR, [4.0])

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
        # H = 4 ln^2 i breaks F_H(E) = o(sqrt E): sqrt(x) F(2mE/x) falls to
        # sqrt(2mE/a) = 1, not to 0, as eps -> 0
        h = HamiltonianSpec.logpow(4, 2)
        p = BoundParams(C=1.0, D=1.0, m=1, E=2.0, hams=(h,))
        assert fcb_bound(p, 0.0) == 0.0
        grid = [1.0, 0.5, 0.1, 0.01, 1e-3, 1e-5, 1e-9, 1e-13]
        vals = [fcb_bound(p, e) for e in grid]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))
        xs = [e * (2 - e) for e in grid]
        terms = [math.sqrt(x) * max_entropy(h, 2 * p.m * p.E / x) for x in xs]
        assert all(1.0 < b < a for a, b in zip(terms, terms[1:]))
        assert terms[-1] < 1.0 + 1e-5
        assert abs(vals[-1] - 1.0) < 2e-5

    def test_vanishing_limit_for_linear_hamiltonian(self):
        # F_H = g for H = i - 1, so the bound is C sqrt(x) g(2mE/x) + D g(sqrt x)
        p = BoundParams(C=1.0, D=1.0, m=1, E=2.0, hams=(LINEAR,))
        grid = [1.0, 0.5, 0.1, 0.01, 1e-3, 1e-5, 1e-7]
        vals = [fcb_bound(p, e) for e in grid]
        for e, val in zip(grid, vals):
            x = e * (2 - e)
            closed = math.sqrt(x) * g_entropy(2 * p.m * p.E / x) + g_entropy(math.sqrt(x))
            assert val == pytest.approx(closed, rel=1e-9)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.02

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


def readme_envelope():
    """Bound params and eps_r of the README approx config, from its marginal:
    two equal geometric:0.02 witnesses, E_S = sum_s Tr G rho_s and
    eps_r = sqrt(summed marginal tails) over three subsystems."""
    fam = parse_family("geometric:0.02")
    w, w_copy = build_fa_witness(fam), build_fa_witness(fam)
    marg = np.diag(truncate_to_density(SpectrumFamily.geometric(0.02), 10).mat).real
    e_s = 2 * float(marg @ w.values(10))
    params = BoundParams(C=2.0, D=3.0, m=2, E=e_s, hams=(w, w_copy))
    return params, [math.sqrt(3 * float(marg[r:].sum())) for r in range(1, 10)]


def ceiling_target(params, eps):
    """Summed energy 2mE/x at which fcb_bound takes its ceiling."""
    return 2 * params.m * params.E / (eps * (2 - eps))


class TestReadmeEnvelope:
    def test_ceilings_read_only_the_witness_head(self, monkeypatch):
        seen = []
        level = FAWitness.level
        monkeypatch.setattr(FAWitness, "level", lambda self, i: seen.append(np.max(i)) or level(self, i))
        params, eps = readme_envelope()
        values = [fcb_bound(params, e) for e in eps]
        assert all(math.isfinite(v) for v in values)
        assert max(seen) <= WITNESS_HEAD_N

    def test_ranks_1_to_4_match_level_arrays(self):
        # there a 4096-level truncation leaves a tail below 1e-20 of Z
        params, eps = readme_envelope()
        for e in eps[:4]:
            target = ceiling_target(params, e)
            arrays = max_entropy_multi(list(params.hams), target, dims=[4096, 4096])
            assert max_entropy_multi(list(params.hams), target) == pytest.approx(arrays, rel=1e-9, abs=0)

    def test_rank_5_matches_chunked_direct_sum(self):
        params, eps = readme_envelope()
        w = params.hams[0]
        sol = solve_beta_multi(list(params.hams), ceiling_target(params, eps[4]))
        z = m1 = 0.0
        chunk = 1 << 20
        for lo in range(1, (1 << 22) + 1, chunk):
            g = w.level(np.arange(lo, lo + chunk, dtype=float))
            terms = np.exp(-sol.beta * g)
            z += float(terms.sum())
            m1 += float(terms @ g)
        # the last chunk's terms are below 1e-18 of Z
        assert terms[-1] < 1e-18 * z
        assert sol.entropies[0] == pytest.approx(sol.beta * m1 / z + math.log(z), rel=1e-10)
        assert sol.means[0] == pytest.approx(m1 / z, rel=1e-10)


    def test_small_roots_take_few_moment_evaluations(self, monkeypatch):
        # the roots of ranks 4-9 lie far below beta = 1 (8.7e-5 at rank 9);
        # steps on ln(m - ground) against ln beta reach each within 11
        # moment evaluations, where halving the bracket took up to 23
        import qsep.spectra as spectra_mod

        calls = []
        moments = spectra_mod._gibbs_moments
        monkeypatch.setattr(spectra_mod, "_gibbs_moments", lambda *a: calls.append(a[-1]) or moments(*a))
        params, eps = readme_envelope()
        for e in eps:
            calls.clear()
            target = ceiling_target(params, e)
            sol = solve_beta_multi(list(params.hams), target)
            # at rank 9 (target 1.2e6) the bracket width stops the search
            assert abs(sol.mean_energy - target) <= max(ENERGY_TOL, 1e-13 * target)
            assert len(calls) <= 11
        assert sol.beta < 1e-4


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
