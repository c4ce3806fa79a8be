"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite is sized for a laptop-scale budget.
"""

import contextlib
import math

import numpy as np

from qsep.approx import (
    BoundTemplate,
    envelope_from_families,
    energy_growth_check,
    gentle_bound_check,
    make_plan,
    projection_mass_check,
    qmi_function,
    truncation_experiment,
    truncation_map,
    witness_operator,
)
from qsep.cli import run as cli_run
from qsep.entropy import (
    binary_entropy,
    mutual_information,
    relative_entropy,
    von_neumann_entropy,
)
from qsep.fixtures import bell_state, gibbs_marginal_pair, get_fixture
from qsep.gibbs import max_entropy, solve_beta, squared_hamiltonian_check
from qsep.qmat import (
    DensityOp,
    DimSig,
    partial_trace,
    random_density,
    random_pure,
    top_projector,
)
from qsep.relent import (
    Partition,
    SolverOpts,
    energy_sweep,
    regularized_estimates,
    relative_entropy_entanglement,
    truncation_limit_experiment,
)
from qsep.spectra import (
    CONVERGES,
    DIVERGES,
    HamiltonianSpec,
    SpectrumFamily,
    build_fa_witness,
    check_fa_sufficient,
    zeta_limit,
)

LN2 = math.log(2)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def dop(dims, mat):
    return DensityOp(DimSig(tuple(dims)), np.asarray(mat, dtype=complex))


def test_criterion_1_entropy_core():
    with criterion(1, "entropy core: maximal mixing, self-divergence, chain rule, bounds"):
        for d in (2, 3, 4, 7, 16, 33, 64):
            rho = dop((d,), np.eye(d) / d)
            assert abs(von_neumann_entropy(rho) - math.log(d)) < 1e-10
        for s in range(5):
            rho = random_density((2, 2), 4, seed=900 + s)
            assert abs(relative_entropy(rho, rho)) < 1e-10
        for s in range(100):
            rho = random_density((2, 2, 2), 8, seed=1000 + s)
            total = mutual_information(rho)
            chained = mutual_information(partial_trace(rho, [1, 2])) + mutual_information(
                rho, [[0], [1, 2]]
            )
            assert abs(total - chained) < 1e-8
        rng = np.random.default_rng(7)
        violations = 0
        for s in range(500):
            a = random_density((2, 2, 2), 8, seed=2000 + s)
            b = random_density((2, 2, 2), 8, seed=6000 + s)
            p = float(rng.uniform(0.05, 0.95))
            mix = dop((2, 2, 2), p * a.mat + (1 - p) * b.mat)
            concave_rhs = (
                p * von_neumann_entropy(a)
                + (1 - p) * von_neumann_entropy(b)
                + binary_entropy(p)
            )
            if von_neumann_entropy(mix) > concave_rhs + 1e-8:
                violations += 1
            total = mutual_information(a)
            ents = [von_neumann_entropy(partial_trace(a, [k])) for k in range(3)]
            for drop in range(3):
                if total > 2 * sum(e for k, e in enumerate(ents) if k != drop) + 1e-8:
                    violations += 1
        assert violations == 0


def test_criterion_2_gibbs():
    with criterion(2, "Gibbs: qubit beta, ceiling shape, squared-Hamiltonian comparison"):
        qubit = HamiltonianSpec.explicit([0.0, 1.0])
        assert abs(solve_beta(qubit, 0.25).beta - math.log(3)) < 1e-8
        for ham, dim in (
            (qubit, None),
            (HamiltonianSpec.linear(1.0), 256),
            (HamiltonianSpec.logpow(4, 2), 256),
        ):
            grid = np.linspace(ham.ground() + 0.05, ham.ground() + 3.0, 12)
            vals = [max_entropy(ham, float(e), dim) for e in grid]
            assert (np.diff(vals) >= -1e-8).all()
            assert (np.diff(np.diff(vals)) <= 1e-8).all()
        families = [
            (qubit, None),
            (HamiltonianSpec.linear(1.0), 512),
            (HamiltonianSpec.logpow(1, 1), 1024),
        ]
        for ham, dim in families:
            e0 = ham.ground()
            grid = np.linspace(e0 * e0 + 0.3, e0 * e0 + 6.0, 10)
            rows = squared_hamiltonian_check(ham, grid, dim=dim)
            assert sum(not r["ok"] for r in rows) == 0


def test_criterion_3_zeta_limits():
    with criterion(3, "zeta limits: ln^3 -> 1, 4 ln^2 -> e^(1/16), ln -> divergent"):
        # Laplace-integral oracle pins the 4 ln^2 target before asserting
        b = 1e-4
        t = np.linspace(0.0, 1.0 / (8 * b) + 60.0 / math.sqrt(8 * b), 400001)
        ex = -4 * b * t**2 + t
        mx = ex.max()
        oracle = math.exp(b * (math.log(np.trapezoid(np.exp(ex - mx), t)) + mx))
        target = math.exp(1 / 16)
        assert abs(oracle - target) < 5e-4
        assert abs(zeta_limit(HamiltonianSpec.logpow(1, 3)).extrapolated - 1.0) < 0.02
        assert abs(zeta_limit(HamiltonianSpec.logpow(4, 2)).extrapolated - target) < 0.01
        assert math.isinf(zeta_limit(HamiltonianSpec.logpow(1, 1)).extrapolated)


def test_criterion_4_fa_analyzers():
    with criterion(4, "approximability analyzers and witnesses"):
        slow = SpectrumFamily.loglog(q=3, p=2)
        for q in (2.5, 3.0):
            res = check_fa_sufficient(slow, probe_q=q)
            assert res.verdict == CONVERGES
            assert res.probe_verdict == DIVERGES
        assert check_fa_sufficient(SpectrumFamily.powlog(4)).verdict == CONVERGES
        assert check_fa_sufficient(SpectrumFamily.powlog(2)).verdict == DIVERGES
        for fam in (SpectrumFamily.powlog(4), slow, SpectrumFamily.geometric(0.5)):
            w = build_fa_witness(fam)
            assert math.isfinite(w.energy) and w.energy > 0
            assert abs(zeta_limit(w).extrapolated - 1.0) < 0.05


def test_criterion_5_truncation_machinery():
    with criterion(5, "projection mass, gentle bound, energy growth on 200 states"):
        geo_witness = build_fa_witness(SpectrumFamily.geometric(0.5))
        dims_cycle = [(2, 2), (2, 3), (2, 2, 2), (3, 3)]
        checked = 0
        for i in range(200):
            dims = dims_cycle[i % 4]
            total = int(np.prod(dims))
            rank = 2 + (i % (total - 1))
            rho = random_density(dims, rank, seed=3000 + i)
            subset = list(range(len(dims)))
            gops = {
                s: witness_operator(rho, s, geo_witness.values(dims[s])) for s in subset
            }
            for r in range(1, min(dims) + 1):
                plan = make_plan(rho, subset, r)
                lhs, rhs = projection_mass_check(plan, rho)
                assert lhs >= rhs - 1e-8
                res = gentle_bound_check(rho, subset, r)
                assert res["distance"] <= res["bound_q"] + 1e-8
                assert res["qbar_mass"] <= res["tail_mass"] + 1e-8
                le, re_ = energy_growth_check(rho, plan, gops)
                assert le <= re_ + 1e-8
                checked += 1
        assert checked >= 400
        # identity at full rank
        rho = random_density((3, 3), 9, seed=4000)
        out, plan = truncation_map(rho, [0, 1], 3)
        assert abs(plan.c_r - 1.0) < 1e-10
        assert np.allclose(out.mat, rho.mat, atol=1e-9)
        # exact tail parameter for the ideal geometric marginal
        fam = SpectrumFamily.geometric(0.5)
        rows = envelope_from_families(
            [fam], [geo_witness], BoundTemplate(C=1.0, D=1.0), range(1, 13)
        )
        for row in rows:
            assert abs(row["eps_r"] - math.sqrt(0.5 ** row["r"])) < 1e-10


def test_criterion_6_truncation_envelope_experiment():
    with criterion(6, "3-party geometric state: |f(compressed) - f| under the envelope"):
        rho = get_fixture("correlated-geometric")
        fam = SpectrumFamily.geometric(0.02)
        witnesses = [build_fa_witness(fam), build_fa_witness(fam)]
        f = qmi_function(
            channel_specs=[("depolarizing", 0.05), ("dephasing", 0.1), "identity"]
        )
        rep = truncation_experiment(
            rho,
            f,
            subset=[0, 1, 2],
            r_grid=range(1, 10),
            witnesses=witnesses,
            witness_subsystems=[0, 1],
            template=BoundTemplate(C=2.0, D=3.0),
        )
        defined = [row for row in rep.rows if row["Y_r"] is not None]
        assert defined
        for row in defined:
            assert row["diff"] <= row["Y_r"] + 1e-8
        ys = [row["Y_r"] for row in defined]
        assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))
        assert rep.rows[-1]["diff"] < 0.05
        # the rank-9 ceiling needs ~1e6 per witness, far past any level array;
        # eps_9 is the exact tail sqrt(3 (q^9 - q^10) / (1 - q^10)) = 3.8798e-8
        assert abs(rep.rows[-1]["Y_r"] / 0.130257 - 1.0) < 1e-4


def _random_separable(dims, n_atoms, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(dims))
    mat = np.zeros((total, total), dtype=complex)
    w = rng.random(n_atoms)
    w /= w.sum()
    for k in range(n_atoms):
        vec = np.ones(1, dtype=complex)
        for d in dims:
            f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            vec = np.kron(vec, f / np.linalg.norm(f))
        mat += w[k] * np.outer(vec, vec.conj())
    return dop(dims, mat)


def test_criterion_7_entanglement_solver():
    with criterion(7, "solver: Bell sandwich, zero detection, marginal bound, monogamy"):
        bell = bell_state()
        sol = relative_entropy_entanglement(bell, opts=SolverOpts(max_iters=120))
        upper = min(
            von_neumann_entropy(partial_trace(bell, [s])) for s in range(2)
        )
        lower = LN2  # -S(A|B) for the maximally entangled pair
        assert lower - 1e-3 <= sol.value <= upper + 1e-9
        assert abs(sol.value - LN2) < 1e-3

        v = np.kron([1.0, 0.0], [0.6, 0.8])
        pp = dop((2, 2), np.outer(v, v))
        assert relative_entropy_entanglement(pp, opts=SolverOpts(max_iters=80)).value <= 1e-5
        for seed in (21, 22, 23):
            sep = _random_separable((2, 2), 4, seed)
            sol = relative_entropy_entanglement(sep, opts=SolverOpts(max_iters=250))
            assert sol.value <= 1e-5

        bulk = SolverOpts(max_iters=80, restarts=6)
        for s in range(50):
            rho = random_density((3, 3), 9, seed=5000 + s)
            got = relative_entropy_entanglement(rho, opts=bulk)
            bound = min(
                von_neumann_entropy(partial_trace(rho, [0])),
                von_neumann_entropy(partial_trace(rho, [1])),
            )
            assert got.value <= bound + 1e-6

        # nearly tight samples escalate to a deeper budget before judging
        budgets = (
            (SolverOpts(max_iters=150), SolverOpts(max_iters=150)),
            (SolverOpts(max_iters=800), SolverOpts(max_iters=300)),
        )
        for s in range(25):
            rho = random_pure((2, 2, 2), seed=7000 + s)
            ok = False
            for full_opts, red_opts in budgets:
                full = relative_entropy_entanglement(rho, Partition.finest(3), full_opts)
                lhs = max(0.0, full.value - max(full.gap, 0.0))
                worst = math.inf
                for pair in ((0, 1), (1, 2), (2, 0)):
                    red = partial_trace(rho, list(pair))
                    part = relative_entropy_entanglement(red, Partition.finest(2), red_opts)
                    rhs = part.value + von_neumann_entropy(red)
                    worst = min(worst, lhs + 1e-6 - rhs)
                if worst >= 0:
                    ok = True
                    break
            assert ok, f"monogamy margin stayed negative for seed {7000 + s}: {worst}"


def test_criterion_8_regularization():
    with criterion(8, "regularization: two-copy estimates are subadditive; Bell stays put"):
        opts = SolverOpts(max_iters=60)
        for s in range(20):
            rho = random_density((2, 2), 4, seed=8000 + s)
            rows = regularized_estimates(rho, k_max=2, opts=opts)
            assert rows[1]["value"] <= rows[0]["value"] + 1e-6
        rows = regularized_estimates(bell_state(), k_max=2, opts=SolverOpts(max_iters=120))
        assert abs(rows[0]["value"] - LN2) < 2e-3
        assert abs(rows[1]["value"] - LN2) < 2e-3


def test_criterion_9_energy_sweeps():
    with criterion(9, "energy-constrained sweeps are nonincreasing; Bell terminal at ln 2"):
        qubit = HamiltonianSpec.explicit([0.0, 1.0])
        opts = SolverOpts(max_iters=120)
        cc = np.zeros((4, 4))
        cc[0, 0] = cc[3, 3] = 0.5
        fixtures = {
            "bell": (bell_state(), (qubit, qubit)),
            "classical": (dop((2, 2), cc), (qubit, qubit)),
            "w3": (get_fixture("w3"), (qubit, qubit, qubit)),
        }
        for name, (rho, hams) in fixtures.items():
            rows = energy_sweep(rho, None, hams, [0.5, 1.0, 2.0, 4.0], opts)
            vals = [r["value"] for r in rows]
            assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:])), name
            if name == "bell":
                assert abs(vals[-1] - LN2) < 1e-3


def test_criterion_10_projective_truncation_limit():
    with criterion(10, "Gibbs-marginal 3x3 fixture: sub-1% last-step change"):
        rho = gibbs_marginal_pair()
        steps = [
            {s: top_projector(partial_trace(rho, [s]), r) for s in range(2)} for r in (1, 2, 3)
        ]
        rows = truncation_limit_experiment(rho, steps, [2], opts=SolverOpts(max_iters=200))
        assert not any(r.get("skipped") for r in rows)
        assert rows[-1]["rel_change"] is not None
        assert rows[-1]["rel_change"] < 0.01


def test_criterion_11_reproducible_csv(tmp_path):
    with criterion(11, "identical config and seed produce byte-identical CSV"):
        config = {
            "command": "er-reg",
            "state": "fixture:bell",
            "seed": 5,
            "k_max": 2,
            "opts": {"max_iters": 40},
        }
        cli_run(dict(config), out_dir=tmp_path / "run1")
        cli_run(dict(config), out_dir=tmp_path / "run2")
        a = (tmp_path / "run1" / "er-reg.csv").read_bytes()
        b = (tmp_path / "run2" / "er-reg.csv").read_bytes()
        assert a == b
        config2 = {"command": "zeta", "family": "hamlinear:w=1"}
        cli_run(dict(config2), out_dir=tmp_path / "z1")
        cli_run(dict(config2), out_dir=tmp_path / "z2")
        assert (tmp_path / "z1" / "zeta.csv").read_bytes() == (tmp_path / "z2" / "zeta.csv").read_bytes()
