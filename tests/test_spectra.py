import math

import numpy as np
import pytest

from qsep.spectra import (
    CONVERGES,
    DIVERGES,
    HEAD_N,
    INCONCLUSIVE,
    T_CEIL,
    HamiltonianSpec,
    SpectrumFamily,
    build_fa_witness,
    check_entropy_criterion,
    check_fa_sufficient,
    parse_family,
    truncate_to_density,
    zeta_limit,
)


def laplace_oracle_4ln2_limit():
    """Quadrature oracle for [integral_0^inf e^{-4 b t^2 + t} dt]^b as b -> 0+.

    The exponent maximum is 1/(16 b), so the limit is e^(1/16); evaluating
    the quadrature at a tiny beta confirms the constant numerically.
    """
    b = 1e-4
    t = np.linspace(0.0, 1.0 / (8 * b) + 60.0 / math.sqrt(8 * b), 400001)
    ex = -4 * b * t**2 + t
    mx = ex.max()
    integral_log = math.log(np.trapezoid(np.exp(ex - mx), t)) + mx
    return math.exp(b * integral_log)


class TestClassification:
    def test_geometric_converges(self):
        fam = SpectrumFamily.geometric(0.5)
        assert check_entropy_criterion(fam).verdict == CONVERGES
        assert check_fa_sufficient(fam).verdict == CONVERGES

    def test_powlog2_entropy_criterion_diverges(self):
        # integral comparison: sum 1/(i ln i) behaves like ln ln x
        fam = SpectrumFamily.powlog(2)
        assert check_entropy_criterion(fam).verdict == DIVERGES
        assert check_fa_sufficient(fam).verdict == DIVERGES

    def test_powlog3_entropy_criterion_converges(self):
        # integral comparison: sum 1/(i ln^2 i) is finite
        assert check_entropy_criterion(SpectrumFamily.powlog(3)).verdict == CONVERGES

    def test_powlog4_fa_holds_probe3_diverges(self):
        res = check_fa_sufficient(SpectrumFamily.powlog(4), probe_q=3)
        assert res.verdict == CONVERGES
        assert res.probe_verdict == DIVERGES

    @pytest.mark.parametrize("q_probe", [2.5, 3.0])
    def test_slow_family_separates_conditions(self, q_probe):
        fam = SpectrumFamily.loglog(q=3, p=2)
        res = check_fa_sufficient(fam, probe_q=q_probe)
        assert res.verdict == CONVERGES
        assert res.probe_verdict == DIVERGES

    def test_explicit_inconclusive_with_partial(self):
        fam = SpectrumFamily.explicit([0.5, 0.3, 0.2])
        res = check_entropy_criterion(fam)
        assert res.verdict == INCONCLUSIVE
        want = 0.3 * math.log(2) + 0.2 * math.log(3)
        assert abs(res.partial - want) < 1e-12

    def test_probe_must_exceed_two(self):
        with pytest.raises(ValueError):
            check_fa_sufficient(SpectrumFamily.geometric(0.5), probe_q=2.0)

    def test_implication_chain_on_shipped_families(self):
        families = [
            SpectrumFamily.geometric(0.5),
            SpectrumFamily.geometric(0.02),
            SpectrumFamily.powlog(4),
            SpectrumFamily.powlog(3.5),
            SpectrumFamily.loglog(3, 2),
            SpectrumFamily.gibbs_of(HamiltonianSpec.linear(1.0), 0.5),
        ]
        for fam in families:
            if check_fa_sufficient(fam).verdict == CONVERGES:
                assert check_entropy_criterion(fam).verdict == CONVERGES


class TestNormalization:
    @pytest.mark.parametrize(
        "fam",
        [
            SpectrumFamily.geometric(0.5),
            SpectrumFamily.powlog(4),
            SpectrumFamily.loglog(3, 2),
            SpectrumFamily.gibbs_of(HamiltonianSpec.logpow(4, 2), 0.5),
        ],
    )
    def test_unit_mass_with_tail(self, fam):
        assert abs(fam.partial_weight(200_000) + fam.tail_weight(200_000) - 1.0) < 1e-6

    def test_geometric_tail_closed_form(self):
        fam = SpectrumFamily.geometric(0.5)
        for n in (1, 3, 10, 40):
            assert abs(fam.tail_weight(n) - 0.5**n) < 1e-15

    def test_non_normalizable_rejected(self):
        with pytest.raises(ValueError):
            SpectrumFamily.powlog(1.0)
        with pytest.raises(ValueError):
            SpectrumFamily.loglog(1.0, 1.0)


TAIL_FAMILIES = {
    "geometric": lambda: SpectrumFamily.geometric(0.5),
    "powlog": lambda: SpectrumFamily.powlog(4),
    "loglog": lambda: SpectrumFamily.loglog(3, 2),
    "explicit-3": lambda: SpectrumFamily.explicit([0.5, 0.3, 0.2]),
    "explicit-60000": lambda: SpectrumFamily.explicit(np.linspace(2.0, 1.0, 60_000)),
    "gibbs-explicit": lambda: SpectrumFamily.gibbs_of(HamiltonianSpec.explicit(np.linspace(0.0, 10.0, 60_000)), 1.0),
    "gibbs-linear": lambda: SpectrumFamily.gibbs_of(HamiltonianSpec.linear(1.0), 0.5),
    "gibbs-logpow": lambda: SpectrumFamily.gibbs_of(HamiltonianSpec.logpow(4, 2), 0.5),
}
TAIL_NS = (0, 1, 3, HEAD_N - 1, HEAD_N, 2 * HEAD_N)


class TestTails:
    @pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("name", list(TAIL_FAMILIES))
    def test_one_tail_rule(self, name, k):
        fam = TAIL_FAMILIES[name]()
        total = fam.weighted_tail_from(k, 0)
        tails = [fam.weighted_tail_from(k, n) for n in TAIL_NS]
        for n, tail in zip(TAIL_NS, tails):
            assert fam.weighted_partial(k, n) + tail == pytest.approx(total, rel=1e-6, abs=1e-300)
            assert fam.tail_weight(n) == fam.weighted_tail_from(0.0, n)
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_explicit_weighted_tail(self):
        fam = SpectrumFamily.explicit([0.5, 0.3, 0.2])
        assert fam.weighted_tail_from(1.0, 1) == pytest.approx(0.3 * math.log(2) + 0.2 * math.log(3), rel=1e-12)

    def test_finite_gibbs_tail_beyond_head(self):
        fam = SpectrumFamily.gibbs_of(HamiltonianSpec.explicit(np.zeros(60_000)), 1.0)
        assert fam.tail_weight(55_000) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_finite_gibbs_partial_clamps_at_length(self, monkeypatch):
        fam = SpectrumFamily.gibbs_of(HamiltonianSpec.explicit([0, 1]), 1.0)
        assert fam.finite_dim == 2
        spans = []
        raw_terms = SpectrumFamily._raw_terms
        monkeypatch.setattr(SpectrumFamily, "_raw_terms", lambda self, lo, hi: spans.append(hi) or raw_terms(self, lo, hi))
        assert fam.partial_weight(2 * 10**7) == fam.partial_weight(2)
        assert max(spans) <= HEAD_N  # no zeros summed past the last level
        assert fam.classify_weighted(2.0) == INCONCLUSIVE

    def test_gibbs_tail_weight_matches_weighted_tail(self):
        fam = SpectrumFamily.gibbs_of(HamiltonianSpec.logpow(4, 2), 0.5)
        assert fam.weighted_tail_from(0.0, 3) == fam.tail_weight(3)
        assert fam.tail_weight(3) == pytest.approx(1.0 - fam.partial_weight(3), rel=1e-9)


def test_logpow_divergence_rule_is_shared():
    h = HamiltonianSpec.logpow(1, 1)
    assert math.isinf(h.log_partition_value(1.0))
    with pytest.raises(ValueError, match="diverges"):
        SpectrumFamily.gibbs_of(h, 1.0)
    beta = 1.0 + 1e-13
    assert math.isfinite(h.log_partition_value(beta))
    assert SpectrumFamily.gibbs_of(h, beta).classify_weighted(0.0) == CONVERGES


class TestZetaLimit:
    def test_lncube_extrapolates_to_one(self):
        res = zeta_limit(HamiltonianSpec.logpow(1, 3))
        assert abs(res.extrapolated - 1.0) < 0.02

    def test_4ln2_extrapolates_to_laplace_constant(self):
        target = laplace_oracle_4ln2_limit()
        assert abs(target - math.exp(1 / 16)) < 5e-4
        res = zeta_limit(HamiltonianSpec.logpow(4, 2))
        assert abs(res.extrapolated - math.exp(1 / 16)) < 0.01

    def test_ln_diverges(self):
        res = zeta_limit(HamiltonianSpec.logpow(1, 1))
        assert math.isinf(res.extrapolated)
        assert all(math.isinf(v) for v in res.values)

    def test_scaling_monotonicity(self):
        # doubling the Hamiltonian shrinks the partition sum at fixed beta
        h1 = HamiltonianSpec.logpow(2, 2)
        h2 = HamiltonianSpec.logpow(4, 2)
        for beta in (0.2, 0.05):
            assert h1.partition_value(beta) > h2.partition_value(beta)

    def test_beta_grid_validation(self):
        with pytest.raises(ValueError):
            zeta_limit(HamiltonianSpec.linear(1.0), betas=(0.1, 0.2, 0.05))
        with pytest.raises(ValueError):
            zeta_limit(HamiltonianSpec.linear(1.0), betas=(0.1, 0.05))


class TestWitness:
    def test_geometric_witness(self):
        fam = SpectrumFamily.geometric(0.5)
        w = build_fa_witness(fam)
        assert w.level(np.array([1]))[0] == 0.0
        assert math.isfinite(w.energy)
        g = w.level(np.arange(1, 50))
        assert (np.diff(g) >= -1e-12).all()
        # energy telescoping agrees with the direct sum (tail is negligible here)
        idx = np.arange(1, 200_001)
        direct = float((fam.lam(idx) * w.level(idx)).sum())
        assert abs(direct - w.energy) < 1e-9

    def test_powlog4_witness_energy_bounded(self):
        fam = SpectrumFamily.powlog(4)
        w = build_fa_witness(fam)
        assert math.isfinite(w.energy)
        # the direct partial sum is monotone in N and stays below the reported total
        idx = np.arange(1, 200_001)
        direct = float((fam.lam(idx) * w.level(idx)).sum())
        assert 0 < direct <= w.energy + 1e-9

    @pytest.mark.parametrize(
        "fam",
        [SpectrumFamily.geometric(0.5), SpectrumFamily.powlog(4), SpectrumFamily.loglog(3, 2)],
    )
    def test_witness_zeta_extrapolates_to_one(self, fam):
        w = build_fa_witness(fam)
        res = zeta_limit(w)
        assert abs(res.extrapolated - 1.0) < 0.05

    @pytest.mark.parametrize(
        "fam",
        [
            SpectrumFamily.geometric(0.02),
            SpectrumFamily.geometric(0.5),
            SpectrumFamily.geometric(0.9),
            SpectrumFamily.loglog(3, 3),
        ],
        ids=["geometric-0.02", "geometric-0.5", "geometric-0.9", "loglog-3-3"],
    )
    def test_boundaries_match_float_bisection(self, fam):
        # the integer search must return the index midpoints that 80 float
        # bisection steps in t = ln n, snapped up to the first index past the
        # target, return: same bounds and energy, bit for bit
        def tail_ln2(t):
            return fam.weighted_tail_from(2.0, math.floor(math.exp(min(t, T_CEIL))))

        def boundary_for(target, t_lo):
            lo, hi = t_lo, T_CEIL
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if tail_ln2(mid) > target:
                    lo = mid
                else:
                    hi = mid
            if hi < math.log(1e15):
                n = math.floor(math.exp(hi))
                while tail_ln2(math.log(n + 0.5)) > target:
                    n += 1
                return math.log(n + 0.5)
            return hi

        total = tail_ln2(0.0)
        halving = 1.05 if boundary_for(total * 0.125, 0.0) > 100.0 else 2.0
        bounds, tails, t_lo = [], [total], 0.0
        for k in range(1, 201):
            target = total * halving**-k
            if target < total * 1e-16 or t_lo >= T_CEIL:
                break
            if tail_ln2(T_CEIL) > target:
                bounds.append(T_CEIL)
                tails.append(tail_ln2(T_CEIL))
                break
            t_lo = boundary_for(target, t_lo)
            bounds.append(t_lo)
            tails.append(tail_ln2(t_lo))
        energy = sum(k * (tails[k - 1] - tails[k]) for k in range(1, len(tails))) + len(tails) * tails[-1]
        w = build_fa_witness(fam)
        assert w.block_bounds_t == tuple(bounds)
        assert w.energy == energy

    def test_no_witness_for_failing_family(self):
        with pytest.raises(ValueError, match="no witness"):
            build_fa_witness(SpectrumFamily.powlog(2))

    def test_no_witness_for_explicit(self):
        with pytest.raises(ValueError, match="no witness"):
            build_fa_witness(SpectrumFamily.explicit([0.6, 0.4]))


class TestTruncate:
    def test_geometric_renormalization_oracle(self):
        rho = truncate_to_density(SpectrumFamily.geometric(0.5), 2)
        # raw weights (1/2, 1/4) renormalize to (2/3, 1/3)
        assert np.allclose(np.diag(rho.mat).real, [2 / 3, 1 / 3], atol=1e-12)

    def test_explicit_unchanged(self):
        fam = SpectrumFamily.explicit([0.5, 0.3, 0.2])
        rho = truncate_to_density(fam, 3)
        assert np.allclose(np.diag(rho.mat).real, [0.5, 0.3, 0.2], atol=1e-12)

    def test_rank_one(self):
        rho = truncate_to_density(SpectrumFamily.powlog(4), 1)
        assert np.allclose(rho.mat, [[1.0]])

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            truncate_to_density(SpectrumFamily.geometric(0.5), 0)


class TestParseFamily:
    def test_literals(self):
        assert parse_family("geometric:0.5").q == 0.5
        fam = parse_family("powlog:q=4,i0=2")
        assert fam.kind == "powlog" and fam.q == 4.0 and fam.i0 == 2
        fam = parse_family("loglog:q=3,p=2,i0=16")
        assert fam.kind == "loglog" and fam.p == 2.0
        fam = parse_family("explicit:[0.5, 0.3, 0.2]")
        assert fam.kind == "explicit"
        ham = parse_family("hamlogp:a=4,p=2")
        assert isinstance(ham, HamiltonianSpec) and ham.a == 4.0
        ham = parse_family("hamlinear:w=1")
        assert ham.kind == "linear" and ham.w == 1.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_family("nosuch:1")
        with pytest.raises(ValueError):
            parse_family("geometric")
        with pytest.raises(ValueError):
            parse_family("powlog:q")


def test_hamiltonian_values_and_ground():
    h = HamiltonianSpec.linear(2.0, offset=1.0)
    assert np.allclose(h.values(3), [1.0, 3.0, 5.0])
    assert h.ground() == 1.0
    h2 = HamiltonianSpec.explicit([0.0, 1.0, 1.0])
    assert h2.finite_dim == 3
    with pytest.raises(ValueError):
        HamiltonianSpec.explicit([1.0, 0.5])
