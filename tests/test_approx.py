import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsep.qmat as qmat_mod
from qsep.approx import (
    BoundTemplate,
    TruncationPlan,
    _bound_params,
    _envelope_value,
    apply_local_channels,
    apply_plan,
    channel_depolarizing,
    channel_dephasing,
    compress,
    envelope_from_families,
    energy_growth_check,
    gentle_bound_check,
    make_channel_product,
    make_plan,
    projection_mass_check,
    qmi_function,
    truncation_channels,
    truncation_experiment,
    truncation_map,
    witness_operator,
)
from qsep.entropy import _eta_sum, entropy_terms, mutual_information
from qsep.fixtures import bell_state, correlated_geometric_state, geometric_gibbs_product, get_fixture, ghz_state
from qsep.qmat import (
    DensityOp,
    DimSig,
    _coordinate_index,
    eigh,
    partial_trace,
    product_operator,
    random_density,
    top_projector,
)
from qsep.relent import truncation_limit_experiment
from qsep.spectra import FAWitness, SpectrumFamily, build_fa_witness


def dop(dims, mat):
    return DensityOp(DimSig(tuple(dims)), np.asarray(mat, dtype=complex))


def sample_states(count=12):
    out = []
    dims_cycle = [(2, 2), (2, 3), (2, 2, 2), (3, 3)]
    for i in range(count):
        dims = dims_cycle[i % len(dims_cycle)]
        total = int(np.prod(dims))
        out.append(random_density(dims, max(2, total - i % 3), seed=1000 + i))
    return out


class TestTruncationMap:
    def test_full_rank_identity(self):
        rho = random_density((2, 2), 4, seed=1)
        out, plan = truncation_map(rho, [0, 1], 2)
        assert abs(plan.c_r - 1.0) < 1e-10
        assert np.allclose(out.mat, rho.mat, atol=1e-9)

    def test_bell_rank_one_projection_oracle(self):
        # marginal I/2 ties resolve to |0>, so the direct oracle is
        # (|0><0| x I) rho (|0><0| x I) renormalized = |00><00|
        rho = bell_state()
        p0 = np.diag([1.0, 0.0]).astype(complex)
        q = np.kron(p0, np.eye(2))
        oracle = q @ rho.mat @ q
        oracle = oracle / np.trace(oracle).real
        out, plan = truncation_map(rho, [0], 1)
        assert abs(plan.c_r - 0.5) < 1e-12
        assert np.allclose(out.mat, oracle, atol=1e-10)
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.allclose(out.mat, want, atol=1e-10)

    def test_diagonal_block_restriction_oracle(self):
        lam = np.array([0.5, 0.25, 0.25])
        rho = dop((3,), np.diag(lam))
        out, plan = truncation_map(rho, [0], 2)
        kept = np.array([0.5, 0.25])
        assert np.allclose(np.diag(out.mat).real, np.append(kept / kept.sum(), 0.0), atol=1e-12)

    def test_idempotent_with_same_plan(self):
        rho = random_density((2, 2, 2), 6, seed=2)
        plan = make_plan(rho, [0, 1], 1)
        once = apply_plan(rho, plan)
        twice = apply_plan(once, plan)
        assert np.allclose(once.mat, twice.mat, atol=1e-10)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 3, 2), (3, 2, 4)])
    def test_compression_matches_dense_product(self, dims):
        # random non-diagonal projectors on every subsystem, so the local
        # maps meet an empty prefix, an empty suffix and both nonempty;
        # checked against the dense Q rho Q / Tr Q rho
        rng = np.random.default_rng(len(dims) * 10 + dims[-1])
        rho = random_density(dims, int(np.prod(dims)), seed=int(rng.integers(1 << 30)))
        projs = {}
        for s in range(len(dims)):
            d = dims[s]
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = np.linalg.qr(g)[0][:, : int(rng.integers(1, d))]
            projs[s] = v @ v.conj().T
        q = product_operator(projs, rho.sig)
        dense = q @ rho.mat @ q
        out, c = compress(rho, projs)
        assert abs(c - np.trace(dense).real) < 1e-12
        assert np.abs(out.mat - dense / np.trace(dense).real).max() < 1e-12
        DensityOp.create(out.sig, out.mat, validate=True)
        plan = make_plan(rho, list(range(len(dims))), 1)
        q = product_operator({s: v @ v.conj().T for s, v in plan.isometries.items()}, rho.sig)
        dense = q @ rho.mat @ q
        assert abs(plan.c_r - np.trace(dense).real) < 1e-12
        got = apply_plan(rho, plan)
        assert np.abs(got.mat - dense / np.trace(dense).real).max() < 1e-12
        # truncation_map compresses once; state and c_r match the two-step path bit for bit
        once, plan_once = truncation_map(rho, list(range(len(dims))), 1)
        assert np.array_equal(once.mat, got.mat)
        assert plan_once.c_r == plan.c_r

    # D = 300 is above one hermitian_part tile
    @pytest.mark.parametrize("subset", [(0, 2), (0, 1, 2)])
    @pytest.mark.parametrize("rank", ["one", "d-1"])
    def test_compression_above_one_tile_matches_dense_product(self, subset, rank):
        dims = (10, 10, 3)
        rng = np.random.default_rng([len(subset), len(rank)])
        rho = random_density(dims, 300, seed=int(rng.integers(1 << 30)))
        projs = {}
        for s in subset:
            d = dims[s]
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = np.linalg.qr(g)[0][:, : 1 if rank == "one" else d - 1]
            projs[s] = v @ v.conj().T
        q = product_operator(projs, rho.sig)
        dense = q @ rho.mat @ q
        out, c = compress(rho, projs)
        assert abs(c - np.trace(dense).real) < 1e-12
        assert np.abs(out.mat - dense / np.trace(dense).real).max() < 1e-12
        assert np.array_equal(out.mat, out.mat.conj().T)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.diag([1.0, 0.5, 0.0]), "residual 0.000e\\+00, eigenvalues 5.000e-01 away"),  # Hermitian, not idempotent
            (np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), "residual 5.000e-01, eigenvalues 0.000e\\+00 away"),  # idempotent, oblique
        ],
        ids=["non-idempotent", "non-hermitian"],
    )
    def test_non_projector_rejected_naming_subsystem(self, bad, match):
        rho = random_density((2, 3), 6, seed=23)
        good = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match=f"subsystem 1 is not an orthogonal projector: .*{match}"):
            compress(rho, {0: good, 1: bad})
        with pytest.raises(ValueError, match="subsystem 1 has columns .* away from orthonormal"):
            TruncationPlan(subset=(0, 1), r=2, isometries={0: np.eye(2), 1: bad[:, :2]}, c_r=1.0, tail=0.0, qbar=0.0)
        with pytest.raises(ValueError, match="subsystem 1 is not an orthogonal projector"):
            truncation_limit_experiment(rho, [{1: bad}])

    @pytest.mark.parametrize("key", [5, -1, "0"], ids=["past-last", "negative", "string"])
    def test_projector_key_naming_no_subsystem_rejected(self, key):
        # skipping such a key would leave rho untruncated with c = 1
        rho = random_density((2, 2), 4, seed=26)
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match=f"subsystem {key!r} is not one of the 2 subsystems"):
            compress(rho, {key: p})
        with pytest.raises(ValueError, match="subsystem 7 is not one of the 2 subsystems"):
            truncation_limit_experiment(rho, [{7: p}])

    def test_plan_isometries_checked_on_construction(self):
        v = np.eye(3)[:, :2]
        masses = dict(c_r=1.0, tail=0.0, qbar=0.0)
        TruncationPlan(subset=(0, 1), r=2, isometries={0: v, 1: v}, **masses)
        skew = v.copy()
        skew[2, 1] = 1e-3
        with pytest.raises(ValueError, match="subsystem 1 has columns 1.000e-06 away from orthonormal"):
            TruncationPlan(subset=(0, 1), r=2, isometries={0: v, 1: skew}, **masses)
        with pytest.raises(ValueError, match=r"subsystem 1 has shape \(3, 1\), expected 2 columns"):
            TruncationPlan(subset=(0, 1), r=2, isometries={0: v, 1: v[:, :1]}, **masses)
        with pytest.raises(ValueError, match="subsystem 1 is in only one of the subset"):
            TruncationPlan(subset=(0, 1), r=2, isometries={0: v}, **masses)
        with pytest.raises(ValueError, match="subsystem 2 is in only one of the subset"):
            TruncationPlan(subset=(0, 1), r=2, isometries={0: v, 1: v, 2: v}, **masses)

    def test_plan_on_other_local_dimensions_rejected(self):
        plan = make_plan(random_density((2, 3), 6, seed=27), [0, 1], 1)
        with pytest.raises(ValueError, match="subsystem 1 has 3 rows, not the state's dimension 2"):
            apply_plan(random_density((2, 2), 4, seed=28), plan)
        with pytest.raises(ValueError, match="subsystem 1 is not one of the 1 subsystems"):
            apply_plan(random_density((2,), 2, seed=29), plan)

    def test_projector_of_wrong_shape_rejected(self):
        rho = random_density((2, 3), 6, seed=24)
        with pytest.raises(ValueError, match=r"subsystem 1 has shape \(2, 2\), expected \(3, 3\)"):
            compress(rho, {1: np.diag([1.0, 0.0])})

    def test_plan_applied_to_another_state(self):
        rho = random_density((2, 3), 6, seed=21)
        other = random_density((2, 3), 6, seed=22)
        plan = make_plan(rho, [0, 1], 1)
        out = apply_plan(other, plan)
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12
        # a state the plan's projectors annihilate is rejected, whatever c_r is
        diag = dop((2,), np.diag([0.75, 0.25]))
        assert make_plan(diag, [0], 1).c_r == 0.75
        with pytest.raises(ValueError, match="annihilates"):
            apply_plan(dop((2,), np.diag([0.0, 1.0])), make_plan(diag, [0], 1))

    def test_annihilation_rejected(self):
        # both marginals are maximally mixed, ties select |0> on each side,
        # and the state has no weight on |00>
        rho = dop((2, 2), np.diag([0.0, 0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="annihilates"):
            truncation_map(rho, [0, 1], 1)

    def test_zero_projector_annihilates(self):
        rho = random_density((2, 3), 6, seed=25)
        assert compress(rho, {0: np.zeros((2, 2))}) == (None, 0.0)
        assert compress(rho, {0: np.eye(2), 1: np.zeros((3, 3))}) == (None, 0.0)

    def test_rank_validation(self):
        rho = random_density((2, 3), 4, seed=3)
        with pytest.raises(ValueError, match="exceeds"):
            truncation_map(rho, [0, 1], 3)


class TestTruncationChannels:
    def test_full_rank_identity(self):
        rho = random_density((2, 2), 4, seed=4)
        out = truncation_channels(rho, [0, 1], 2)
        assert np.allclose(out.mat, rho.mat, atol=1e-9)

    def test_pure_product_fixed_point(self):
        a = np.array([0.6, 0.8])
        b = np.array([1.0, 0.0])
        v = np.kron(a, b)
        rho = dop((2, 2), np.outer(v, v))
        out = truncation_channels(rho, [0, 1], 1)
        assert np.allclose(out.mat, rho.mat, atol=1e-9)

    def test_bell_explicit_kraus_oracle(self):
        rho = bell_state()
        # ties pick |0> on both sides, so P = tau = |0><0| per side
        p = np.diag([1.0, 0.0]).astype(complex)
        comp = np.eye(2) - p
        tau = np.diag([1.0, 0.0]).astype(complex)
        kraus_local = [p] + [np.outer(tau[:, 0], e) @ comp for e in np.eye(2)]
        out = rho.mat
        for side in (0, 1):
            acc = np.zeros((4, 4), dtype=complex)
            for k in kraus_local:
                kf = np.kron(k, np.eye(2)) if side == 0 else np.kron(np.eye(2), k)
                acc += kf @ out @ kf.conj().T
            out = acc
        got = truncation_channels(rho, [0, 1], 1)
        assert abs(np.trace(got.mat).real - 1.0) < 1e-10
        assert np.allclose(got.mat, out, atol=1e-10)

    def test_trace_preserved_on_samples(self):
        for rho in sample_states(6):
            r_max = min(rho.sig.dims)
            out = truncation_channels(rho, list(range(rho.sig.nsys)), max(1, r_max - 1))
            assert abs(np.trace(out.mat).real - 1.0) < 1e-10
            DensityOp.create(out.sig, out.mat, validate=True)


def local_kraus_oracle(rho, s, kraus):
    """Dense sum of K X K^dagger with each local Kraus operator embedded at s."""
    dims = rho.sig.dims
    a, b = int(np.prod(dims[:s])), int(np.prod(dims[s + 1 :]))
    out = np.zeros_like(rho.mat)
    for k in kraus:
        kf = np.kron(np.kron(np.eye(a), k), np.eye(b))
        out += kf @ rho.mat @ kf.conj().T
    return out


LOCAL_DIMS = [(2, 3, 2), (3, 2, 4)]


class TestLocalChannels:
    @pytest.mark.parametrize("dims", LOCAL_DIMS)
    def test_channels_match_dense_kraus_at_every_position(self, dims):
        rho = random_density(dims, int(np.prod(dims)), seed=31 + dims[-1])
        p = 0.3
        for s, d in enumerate(dims):
            basis = np.eye(d)
            depol = [math.sqrt(1 - p) * basis] + [
                math.sqrt(p / d) * np.outer(basis[i], basis[j]) for i in range(d) for j in range(d)
            ]
            dephase = [math.sqrt(1 - p) * basis] + [math.sqrt(p) * np.outer(e, e) for e in basis]
            for chan, kraus in ((channel_depolarizing(p), depol), (channel_dephasing(p), dephase)):
                maps = [None] * len(dims)
                maps[s] = chan
                got = apply_local_channels(rho, maps)
                assert np.abs(got.mat - local_kraus_oracle(rho, s, kraus)).max() < 1e-14

    @pytest.mark.parametrize("dims", LOCAL_DIMS)
    def test_truncation_channels_match_dense_kraus_at_every_position(self, dims):
        rho = random_density(dims, int(np.prod(dims)), seed=41 + dims[-1])
        for s, d in enumerate(dims):
            marg = partial_trace(rho, [s])
            proj = top_projector(marg, 1)
            tau = eigh(marg.mat).eigenvectors[:, 0]
            kraus = [proj] + [np.outer(tau, e) @ (np.eye(d) - proj) for e in np.eye(d)]
            got = truncation_channels(rho, [s], 1)
            assert np.abs(got.mat - local_kraus_oracle(rho, s, kraus)).max() < 1e-14

    # apply_local_channels does not symmetrize: depolarizing and dephasing
    # must keep an exactly Hermitian input exactly Hermitian, and
    # truncation_channels symmetrizes after its project-or-reroute channels
    @pytest.mark.parametrize("dims", LOCAL_DIMS + [(4, 40)])
    def test_exactly_hermitian_input_stays_exactly_hermitian(self, dims):
        rho = random_density(dims, int(np.prod(dims)), seed=51 + dims[-1])
        assert np.array_equal(rho.mat, rho.mat.conj().T)
        for s, d in enumerate(dims):
            for chan in (channel_depolarizing(0.3), channel_dephasing(0.3)):
                maps = [None] * len(dims)
                maps[s] = chan
                out = apply_local_channels(rho, maps).mat
                assert np.array_equal(out, out.conj().T)
        out = truncation_channels(rho, range(len(dims)), 1).mat
        assert np.array_equal(out, out.conj().T)

    # a validated state stores its Hermitian part, so a matrix accepted with
    # an anti-Hermitian error of 1e-10 still gives an exactly Hermitian output
    def test_nearly_hermitian_validated_input_gives_hermitian_output(self):
        m = random_density((2, 3), 6, seed=52).mat + 1e-10j * np.diag([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        rho = DensityOp.create((2, 3), m)
        for chans in ([channel_depolarizing(0.3), channel_dephasing(0.2)], [None, channel_dephasing(0.4)]):
            out = apply_local_channels(rho, chans).mat
            assert np.array_equal(out, out.conj().T)

    def test_depolarizing_trace_and_fixed_point(self):
        rho = random_density((2, 3), 5, seed=5)
        out = apply_local_channels(rho, [channel_depolarizing(1.0), None])
        marg = partial_trace(out, [0])
        assert np.allclose(marg.mat, np.eye(2) / 2, atol=1e-10)

    def test_dephasing_kills_coherence(self):
        rho = bell_state()
        out = apply_local_channels(rho, [channel_dephasing(1.0), None])
        assert abs(out.mat[0, 3]) < 1e-12

    @pytest.mark.parametrize("spec", [None, "identity", ("identity",)])
    def test_identity_specs_leave_state_unchanged(self, spec):
        rho = random_density((2, 3), 6, seed=7)
        out = make_channel_product([spec, spec])(rho)
        assert np.array_equal(out.mat, rho.mat)

    def test_qmi_monotone_under_local_channels(self):
        f = qmi_function(channel_specs=[("depolarizing", 0.3), ("dephasing", 0.2)])
        for rho in sample_states(8):
            if rho.sig.nsys != 2:
                continue
            assert f(rho) <= mutual_information(rho) + 1e-8


class TestProofInequalities:
    def test_single_subsystem_equality(self):
        rho = random_density((2, 3), 5, seed=6)
        plan = make_plan(rho, [0], 1)
        lhs, rhs = projection_mass_check(plan, rho)
        assert abs(lhs - rhs) < 1e-10

    def test_bell_values(self):
        plan = make_plan(bell_state(), [0, 1], 1)
        lhs, rhs = projection_mass_check(plan, bell_state())
        assert abs(lhs - 0.5) < 1e-12
        assert abs(rhs - 0.0) < 1e-12

    def test_gentle_bound_identity(self):
        rho = random_density((2, 2), 4, seed=7)
        res = gentle_bound_check(rho, [0, 1], 2)
        assert res["distance"] < 1e-8
        assert res["ok"]

    def test_gentle_bound_bell_eigenvalue_oracle(self):
        rho = bell_state()
        out, _ = truncation_map(rho, [0], 1)
        oracle = float(np.abs(np.linalg.eigvalsh(rho.mat - out.mat)).sum())
        res = gentle_bound_check(rho, [0], 1)
        assert abs(res["distance"] - oracle) < 1e-10
        assert res["distance"] <= 2 * math.sqrt(0.5) + 1e-12

    def test_all_inequalities_on_samples(self):
        for rho in sample_states(10):
            n = rho.sig.nsys
            for r in range(1, min(rho.sig.dims) + 1):
                plan = make_plan(rho, list(range(n)), r)
                lhs, rhs = projection_mass_check(plan, rho)
                assert lhs >= rhs - 1e-10
                res = gentle_bound_check(rho, list(range(n)), r)
                assert res["ok"]

    def test_energy_growth(self):
        rho = bell_state()
        g = np.diag([0.0, 1.0]).astype(complex)
        plan = make_plan(rho, [0], 1)
        lhs, rhs = energy_growth_check(rho, plan, {0: g, 1: g})
        assert lhs <= rhs + 1e-8
        # full rank keeps both sides equal
        plan2 = make_plan(rho, [0], 2)
        lhs2, rhs2 = energy_growth_check(rho, plan2, {0: g, 1: g})
        assert abs(lhs2 - rhs2) < 1e-10

    def test_energy_growth_with_witness_operators(self):
        fam = SpectrumFamily.geometric(0.5)
        w = build_fa_witness(fam)
        for rho in sample_states(6):
            gops = {s: witness_operator(rho, s, w.values(rho.sig.dims[s])) for s in range(2)}
            plan = make_plan(rho, [0], 1)
            lhs, rhs = energy_growth_check(rho, plan, gops)
            assert lhs <= rhs + 1e-8

    def test_one_eigh_per_marginal(self, monkeypatch):
        # the plan and the channels read every isometry, tail and reroute
        # state from one decomposition per marginal of the subset, and a
        # plan is applied with its own isometries: no eigh, no 2-norm
        rho = random_density((3, 3, 3), 27, seed=11)
        plan = make_plan(rho, [0, 1, 2], 2)
        g = np.diag([0.0, 1.0, 2.0]).astype(complex)
        calls, ords = [], []
        eigh_np, norm_np = np.linalg.eigh, np.linalg.norm
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh_np(m))
        monkeypatch.setattr(np.linalg, "norm", lambda x, ord=None, *a, **k: ords.append(ord) or norm_np(x, ord, *a, **k))
        apply_plan(rho, plan)
        assert calls == [] and 2 not in ords
        for run, count in [
            (lambda: make_plan(rho, [0, 1, 2], 2), 3),
            (lambda: truncation_map(rho, [0, 1, 2], 2), 3),
            (lambda: gentle_bound_check(rho, [0, 1, 2], 2), 3),
            (lambda: energy_growth_check(rho, plan, {0: g, 2: g}), 0),
            (lambda: truncation_channels(rho, [0, 1, 2], 2), 3),
            (lambda: truncation_experiment(rho, lambda x: 0.0, [0, 1, 2], [1, 2]), 3),
        ]:
            calls.clear()
            run()
            assert calls == [(3, 3)] * count

    @pytest.mark.parametrize("r", [1, 5, 9])
    def test_masses_meet_geometric_closed_forms(self, r):
        # the README approx state: qbar_r = q^r (1 - q^(10-r)) / (1 - q^10)
        # and three equal marginal tails of that size; 1 - c_r cancels
        q, d = 0.02, 10
        rho = get_fixture("correlated-geometric")
        qbar = q**r * (1.0 - q ** (d - r)) / (1.0 - q**d)
        res = gentle_bound_check(rho, [0, 1, 2], r)
        assert abs(res["qbar_mass"] / qbar - 1.0) < 1e-12
        assert abs(res["tail_mass"] / (3.0 * qbar) - 1.0) < 1e-12
        assert abs(res["bound_q"] / (2.0 * math.sqrt(qbar)) - 1.0) < 1e-12
        lhs, rhs = projection_mass_check(make_plan(rho, [0, 1, 2], r), rho)
        assert abs(lhs - (1.0 - q**r) / (1.0 - q**d)) < 1e-15
        assert abs(rhs - (1.0 - 3.0 * qbar)) < 1e-15

    def test_eps_monotone_c_monotone(self):
        rho = random_density((3, 3), 7, seed=8)
        plans = [make_plan(rho, [0, 1], r) for r in (1, 2, 3)]
        eps = [math.sqrt(p.tail) for p in plans]
        cs = [p.c_r for p in plans]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))


class TestEnvelope:
    def test_geometric_tail_parameter_exact(self):
        fam = SpectrumFamily.geometric(0.5)
        w = build_fa_witness(fam)
        rows = envelope_from_families([fam], [w], BoundTemplate(C=1.0, D=1.0), range(1, 11))
        for row in rows:
            assert abs(row["eps_r"] - math.sqrt(0.5 ** row["r"])) < 1e-10

    def test_exhausted_spectrum_gives_zero(self):
        fam = SpectrumFamily.explicit([0.7, 0.3])
        w = build_fa_witness(SpectrumFamily.geometric(0.5))
        rows = envelope_from_families([fam], [w], BoundTemplate(C=1.0, D=1.0), [1, 2])
        assert rows[1]["eps_r"] == 0.0
        assert rows[1]["Y_r"] == 0.0

    def test_undefined_beyond_unit_tail(self):
        fams = [SpectrumFamily.geometric(0.5)] * 5
        w = build_fa_witness(SpectrumFamily.geometric(0.5))
        rows = envelope_from_families(fams, [w], BoundTemplate(C=1.0, D=1.0), [1])
        assert rows[0]["eps_r"] > 1.0
        assert rows[0]["Y_r"] is None

    def test_strictly_decreasing_on_geometric_with_powlog_witness(self):
        fam = SpectrumFamily.geometric(0.5)
        w = build_fa_witness(SpectrumFamily.powlog(4))
        rows = envelope_from_families([fam], [w], BoundTemplate(C=2.0, D=2.0), range(1, 12))
        ys = [r["Y_r"] for r in rows]
        assert all(y is not None for y in ys)
        assert all(b < a for a, b in zip(ys, ys[1:]))

    def test_infinite_witness_energy_rejected(self):
        fam = SpectrumFamily.geometric(0.5)
        bad = FAWitness(family=fam, block_bounds_t=(1.0,), energy=math.inf)
        with pytest.raises(ValueError, match="finite"):
            envelope_from_families([fam], [bad], BoundTemplate(C=1.0, D=1.0), [1])


class TestExperimentHarness:
    def test_constant_function(self):
        rho = random_density((2, 2), 4, seed=9)
        rep = truncation_experiment(rho, lambda r: 1.25, [0, 1], [1, 2])
        assert all(row["diff"] == 0.0 for row in rep.rows)

    def test_product_gibbs_identity_channels(self):
        rho = geometric_gibbs_product(0.5, 4, 2)
        f = qmi_function()
        rep = truncation_experiment(rho, f, [0, 1], [1, 2, 3, 4])
        # the compression of a product state stays product, so the
        # mutual-information difference vanishes at every rank
        assert all(row["diff"] < 1e-9 for row in rep.rows)

    def test_envelope_rows_bound_diff(self):
        rho = DensityOp(
            DimSig((4, 4, 4)),
            np.diag(
                np.kron(
                    np.kron([0.625, 0.3125, 0.046875, 0.015625], [1, 0, 0, 0]), [1, 0, 0, 0]
                )
            ).astype(complex),
        )
        # correlated diagonal mixture with geometric(0.5)-truncated marginals
        rho = correlated_geometric_state(0.5, 4, 3)
        fam = SpectrumFamily.geometric(0.5)
        witnesses = [build_fa_witness(fam), build_fa_witness(fam)]
        f = qmi_function(channel_specs=[("depolarizing", 0.1), "identity", "identity"])
        rep = truncation_experiment(
            rho,
            f,
            [0, 1, 2],
            [2, 3, 4],
            witnesses=witnesses,
            witness_subsystems=[0, 1],
            template=BoundTemplate(C=2.0, D=3.0),
        )
        for row in rep.rows:
            if row["Y_r"] is not None:
                assert row["diff"] <= row["Y_r"] + 1e-8
        assert rep.worst_envelope_margin() >= -1e-8

    @pytest.mark.parametrize(
        "subsystems, count",
        [([0], 2), ([0, 0], 2), ([0, 3], 2), (None, 4)],
        ids=["shorter", "repeated", "out-of-range", "more-witnesses-than-parties"],
    )
    def test_witness_subsystems_checked(self, subsystems, count):
        witness = build_fa_witness(SpectrumFamily.geometric(0.5))
        with pytest.raises(ValueError, match="witness"):
            truncation_experiment(
                ghz_state(),
                qmi_function(),
                [0],
                [1],
                witnesses=[witness] * count,
                witness_subsystems=subsystems,
                template=BoundTemplate(C=2.0, D=3.0),
            )

    def test_qmi_bits_match_eigensolver(self, monkeypatch):
        # the README approx channels on a D=64 correlated state: every state
        # met is exactly diagonal, so the entropy shortcut must reproduce the
        # eigvalsh-based QMI bit for bit (the CSV bytes depend on it)
        import qsep.entropy as entropy_mod

        rho = correlated_geometric_state(0.02, 4, 3)
        states = [rho] + [truncation_map(rho, [0, 1, 2], r)[0] for r in (1, 2, 3)]
        specs = [("depolarizing", 0.05), ("dephasing", 0.1), "identity"]
        f = qmi_function(channel_specs=specs)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        fast = [f(x) for x in states]
        assert calls == []
        # the dense QMI, summed in mutual_information's order
        for x, got in zip(states, fast):
            y = make_channel_product(specs)(x)
            dense = -_eta_sum(eigvalsh(y.mat))
            for s in range(3):
                dense += _eta_sum(eigvalsh(partial_trace(y, [s]).mat))
            assert got == dense
        # with no matrix taken as diagonal, every spectrum comes from eigvalsh
        # and the joint one from the core on the marginal supports (the
        # truncated states' marginals have rank r < 4); the bits must not move
        monkeypatch.setattr(entropy_mod, "_is_diagonal", lambda m: False)
        assert fast == [f(x) for x in states]
        # marginals and the rank-1 core (4), the rank-2 and -3 cores, rho
        assert {m.shape[0] for m in calls} == {4, 16, 36, 64}

    def test_rank_deficient_marginal_shrinks_the_joint_eigensolve(self, monkeypatch):
        # a locally rotated correlated state, truncated to rank 2: the two
        # depolarized marginals regain full rank, the untouched third keeps
        # rank 2, so the joint spectrum is taken on 6 * 6 * 2 = 72 dimensions
        rng = np.random.default_rng(2406)
        rho = correlated_geometric_state(0.3, 6, 3)
        u = [np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0] for _ in range(3)]
        w = product_operator(dict(enumerate(u)), rho.sig)
        rho = DensityOp(rho.sig, w @ rho.mat @ w.conj().T)
        out = truncation_map(rho, [0, 1, 2], 2)[0]
        f = qmi_function(channel_specs=[("depolarizing", 0.05), ("depolarizing", 0.1), "identity"])
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(m.shape[0]) or eigvalsh(m))
        got = f(out)
        assert sizes == [6, 6, 6, 72]
        monkeypatch.undo()
        chan = make_channel_product([("depolarizing", 0.05), ("depolarizing", 0.1), "identity"])(out)
        dense = sum(_eta_sum(eigvalsh(partial_trace(chan, [s]).mat)) for s in range(3)) - _eta_sum(eigvalsh(chan.mat))
        assert abs(got - dense) < 1e-12


class TestOnePassExperiment:
    """The experiment takes one marginal eigendecomposition per subsystem and
    one reduction; every row must still be the per-rank compression."""

    @pytest.mark.parametrize(
        "dims, subset, witness_subsystems, r_grid",
        [((3, 3, 3), [0, 2], [1, 0], [2, 1, 3, 2]), ((2, 4, 3), [2, 1], [0, 1], [2, 1, 3, 1])],
    )
    def test_rows_match_per_rank_truncation_map(self, dims, subset, witness_subsystems, r_grid):
        rho = random_density(dims, 12, seed=sum(dims))
        assert np.abs(rho.mat - np.diag(np.diag(rho.mat))).max() > 1e-3
        f = qmi_function(channel_specs=[("depolarizing", 0.1), "identity", ("dephasing", 0.2)])
        witness = build_fa_witness(SpectrumFamily.geometric(0.5))
        template = BoundTemplate(C=2.0, D=3.0)
        rep = truncation_experiment(
            rho, f, subset, r_grid, witnesses=[witness, witness],
            witness_subsystems=witness_subsystems, template=template,
        )
        assert [row["r"] for row in rep.rows] == r_grid
        f_exact = f(rho)
        # the envelope's energy through the dense witness operators
        e_s = sum(
            float(np.real(np.trace(witness_operator(rho, s, witness.values(dims[s])) @ partial_trace(rho, [s]).mat)))
            for s in witness_subsystems
        )
        params = _bound_params(template, [witness, witness], e_s)
        for row in rep.rows:
            out, plan = truncation_map(rho, subset, row["r"])
            f_trunc = f(out)
            assert abs(row["c_r"] - plan.c_r) < 1e-12
            assert abs(row["f_trunc"] - f_trunc) < 1e-12
            assert abs(row["diff"] - abs(f_trunc - f_exact)) < 1e-12
            assert row["f_exact"] == f_exact
            assert abs(row["eps_r"] ** 2 - plan.tail) < 1e-12
            want = _envelope_value(params, row["eps_r"])
            if want:
                assert abs(row["Y_r"] / want - 1.0) < 1e-12
            else:  # None past eps = 1, 0 once the tails vanish
                assert row["Y_r"] == want
        # a duplicated rank gives equal rows that are distinct dicts
        dup = [i for i, r in enumerate(r_grid) if r_grid.index(r) != i][0]
        first = rep.rows[r_grid.index(r_grid[dup])]
        assert rep.rows[dup] == first and rep.rows[dup] is not first

    def test_errors_keep_their_messages(self):
        rho = dop((2, 2), np.diag([0.0, 0.5, 0.5, 0.0]))
        f = qmi_function()
        with pytest.raises(ValueError, match="truncation annihilates state: Tr Q rho is numerically zero"):
            truncation_experiment(rho, f, [0, 1], [2, 1])
        with pytest.raises(ValueError, match="rank r must be >= 1"):
            truncation_experiment(rho, f, [0, 1], [1, 0])
        with pytest.raises(ValueError, match=r"rank r=3 exceeds a local dimension on subset \(0, 1\)"):
            truncation_experiment(rho, f, [1, 0], [1, 3])
        with pytest.raises(ValueError, match="subset must name at least one subsystem"):
            truncation_experiment(rho, f, [], [1])
        with pytest.raises(ValueError, match=r"subset \(0, 2\) out of range for 2 subsystems"):
            truncation_experiment(rho, f, [0, 2], [1])

    def test_readme_tails_are_exact_geometric_tails(self):
        # the README approx state: three parties with d = 10 geometric(0.02)
        # marginals, whose tail past r is (q^r - q^10) / (1 - q^10) per party;
        # 1 - Tr P_r rho_s loses it to cancellation from r = 7 on, and
        # 2 sqrt(1 - c_r) loses the gentle bound the same way
        q, d = 0.02, 10
        rho = get_fixture("correlated-geometric")
        rep = truncation_experiment(rho, lambda x: 0.0, [0, 1, 2], range(1, d))
        for row in rep.rows:
            r = row["r"]
            qbar = q**r * (1.0 - q ** (d - r)) / (1.0 - q**d)
            assert abs(row["eps_r"] ** 2 / (3.0 * qbar) - 1.0) < 1e-12, r
            assert abs(row["gentle_bound"] / (2.0 * math.sqrt(qbar)) - 1.0) < 1e-12, r
            assert abs(row["c_r"] - (1.0 - q**r) / (1.0 - q**d)) < 1e-15, r


def _diagonal_marginal_state(dims, kind, seed):
    """A state whose marginals are exactly diagonal: classical (a diagonal
    joint) or GHZ-type (coherences only between the states |i...i>, plus a
    classical part). Small integer weights make degenerate marginals."""
    rng = np.random.default_rng(seed)
    total = math.prod(dims)
    weights = rng.integers(0, 4, total).astype(float)
    weights[rng.integers(total)] += 1.0
    m = np.diag(weights).astype(complex)
    if kind == "ghz":
        k = min(dims)
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        ghz = [sum(i * math.prod(dims[s + 1 :]) for s in range(len(dims))) for i in range(k)]
        m[np.ix_(ghz, ghz)] += g @ g.conj().T
    return DensityOp.create(dims, m / np.trace(m).real)


def _both_paths(fn):
    """fn() with the coordinate rule, then with every W on the matmul path;
    a ValueError counts as its message."""

    def call():
        try:
            return fn()
        except ValueError as exc:
            return str(exc)

    fast = call()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qmat_mod, "_coordinate_index", lambda vs, dims: None)
        slow = call()
    return fast, slow


def _compressed_bits(rho, projs):
    out, c = compress(rho, projs)
    return None if out is None else out.mat.tobytes(), c


class TestCoordinateRule:
    """Isometries that select identity columns reduce and expand by index;
    the result must be the matmul path's, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.sampled_from([(2, 3), (3, 3), (4, 2), (2, 2, 2), (3, 2, 4), (2, 3, 2, 2)]),
        kind=st.sampled_from(["classical", "ghz"]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_index_path_matches_matmul_path(self, dims, kind, seed, data):
        rho = _diagonal_marginal_state(dims, kind, seed)
        n = len(dims)
        subset = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        f = qmi_function(channel_specs=[("depolarizing", 0.05)] + ["identity"] * (n - 1))
        fast, slow = _both_paths(lambda: entropy_terms(rho))
        assert fast == slow
        ranks = list(range(1, min(dims[s] for s in subset) + 1))
        for r in ranks:
            plan = make_plan(rho, subset, r)
            vs = [plan.isometries.get(s) for s in range(n)]
            assert _coordinate_index(vs, dims) is not None
            projs = {s: v @ v.conj().T for s, v in plan.isometries.items()}
            for fn in (
                lambda: _compressed_bits(rho, projs),
                lambda: apply_plan(rho, plan).mat.tobytes(),
                lambda: truncation_map(rho, subset, r)[0].mat.tobytes(),
                lambda: entropy_terms(truncation_map(rho, subset, r)[0]),
            ):
                fast, slow = _both_paths(fn)
                assert fast == slow
        fast, slow = _both_paths(lambda: truncation_experiment(rho, f, subset, ranks[::-1]).rows)
        assert fast == slow

    def test_expansion_of_a_non_hermitian_core_keeps_the_bits(self):
        rng = np.random.default_rng(25)
        core = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        vs = [np.eye(3)[:, [2, 0]], None]
        fast, slow = _both_paths(lambda: qmat_mod._expand(core, vs, (3, 3)).tobytes())
        assert fast == slow

    @pytest.mark.parametrize(
        "v",
        [
            np.eye(3)[:, [0, 2]] * np.array([1.0, -1.0]),
            np.eye(3)[:, [0, 2]] * np.array([1.0, 1j]),
            np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0][:, :2],
        ],
        ids=["minus-one", "complex-phase", "haar"],
    )
    def test_rule_does_not_fire_off_identity_columns(self, v):
        assert _coordinate_index([np.eye(3)[:, [1, 0]], None], (3, 2)) is not None
        assert _coordinate_index([np.eye(3)[:, [1, 0]], v], (3, 3)) is None
