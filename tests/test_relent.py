import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsep.entropy import LOG_FLOOR, conditional_entropy, relative_entropy, von_neumann_entropy
from qsep.fixtures import bell_state, geometric_correlation, get_fixture, gibbs_marginal_pair, maximally_correlated
from qsep.qmat import DensityOp, DimSig, hermitian_part, partial_trace, random_density, random_pure, top_projector
from qsep.relent import (
    LINE_ITERS,
    LMO_SEARCH_SWEEPS,
    LMO_SWEEPS,
    EnergyConstraint,
    Partition,
    SepAtom,
    SolverOpts,
    _caratheodory,
    _corrective_pass,
    _interior_point,
    _lift_atoms_to_power,
    _line_search,
    _lowest_atom,
    _mixture,
    _obj_and_grad,
    _product_vectors,
    _refine,
    atom_vector,
    energy_sweep,
    product_lmo,
    regularized_estimates,
    relative_entropy_entanglement,
    sequence_convergence_demo,
    tensor_power_regrouped,
    truncation_limit_experiment,
    verify_er_inequalities,
)
from qsep.spectra import HamiltonianSpec

QUBIT_H = HamiltonianSpec.explicit([0.0, 1.0])
FAST = SolverOpts(max_iters=120)


def dop(dims, mat):
    return DensityOp(DimSig(tuple(dims)), np.asarray(mat, dtype=complex))


def random_separable(dims, n_atoms, seed):
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


class TestPartitionAndAtoms:
    def test_finest(self):
        p = Partition.finest(3)
        assert p.groups == ((0,), (1,), (2,))

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(((0,), (0, 1)))
        with pytest.raises(ValueError):
            Partition(((0,), (2,)))
        with pytest.raises(ValueError):
            Partition(((0,), ()))

    def test_atom_vector_orders_subsystems(self):
        # partition {0,2},{1} on dims (2,3,2): the group-major product has to
        # land back in subsystem order
        sig = DimSig((2, 3, 2))
        part = Partition(((0, 2), (1,)))
        f02 = np.zeros(4)
        f02[1] = 1.0  # |0>_0 |1>_2
        f1 = np.zeros(3)
        f1[2] = 1.0  # |2>_1
        vec = atom_vector(SepAtom((f02, f1)), sig, part)
        want = np.zeros(12)
        want[np.ravel_multi_index((0, 2, 1), (2, 3, 2))] = 1.0
        assert np.allclose(vec, want)

    def test_atom_norm_validation(self):
        with pytest.raises(ValueError):
            SepAtom((np.array([1.0, 1.0]),))


def unit(rng, d):
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return f / np.linalg.norm(f)


def _objective(rho_mat: np.ndarray, sigma_mat: np.ndarray, tr_rho_ln_rho: float):
    """Reference D(rho || sigma), with sigma's eigenvalues clipped at LOG_FLOOR."""
    ws, vs = np.linalg.eigh(hermitian_part(sigma_mat))
    ws = np.maximum(ws, LOG_FLOOR)
    weights = np.real((vs.conj() * (rho_mat @ vs)).sum(axis=0))
    return tr_rho_ln_rho - (weights * np.log(ws)).sum()


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(h, lo: float, hi: float) -> float:
    """Reference golden-section minimizer of a convex scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = h(c), h(d)
    for _ in range(LINE_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = h(d)
    return 0.5 * (a + b)


def segment_slopes(rho, sigma, vecs):
    """h'(0) = <v|G|v> - Tr G sigma of each row v of vecs."""
    _, g_mat = _obj_and_grad(rho.mat, sigma, -von_neumann_entropy(rho))
    return np.real(((vecs.conj() @ g_mat) * vecs).sum(axis=1)) - np.real(np.trace(g_mat @ sigma))


def sigma_energy(sol, constraint, sig):
    """Tr H sigma of a solution."""
    return float(constraint.diagonal(sig) @ np.real(np.diag(sol.sigma.mat)))


def atom_mixture(atoms, sig, partition):
    """sum_a w_a |a><a| over (weight, atom) pairs."""
    vecs = np.stack([atom_vector(a, sig, partition) for _, a in atoms])
    w = np.asarray([wt for wt, _ in atoms])
    return (vecs.T * w) @ vecs.conj()


class TestProductLmo:
    def test_diagonal_aligned(self):
        g = np.diag([3.0, 1.0, 2.0, 5.0]).astype(complex)
        res = product_lmo(g[None], DimSig((2, 2)), Partition.finest(2), rng=0)
        assert abs(res.values[0] - 1.0) < 1e-12

    def test_projector_complement_dense_grid_oracle(self):
        bell = bell_state()
        g = np.eye(4, dtype=complex) - bell.mat
        # grid oracle: max overlap of a product state with the maximally
        # entangled vector over Bloch angles
        best = 0.0
        angles = np.linspace(0, math.pi, 25)
        phases = np.linspace(0, 2 * math.pi, 25, endpoint=False)
        bvec = np.zeros(4)
        bvec[0] = bvec[3] = 1 / math.sqrt(2)
        for ta in angles:
            for pa in phases:
                a = np.array([math.cos(ta / 2), math.sin(ta / 2) * np.exp(1j * pa)])
                for tb in angles:
                    v = np.kron(a, np.array([math.cos(tb / 2), math.sin(tb / 2)]))
                    best = max(best, abs(np.vdot(bvec, v)) ** 2)
        assert abs(best - 0.5) < 5e-3
        res = product_lmo(g[None], bell.sig, Partition.finest(2), rng=1)
        assert abs(res.values[0] - 0.5) < 1e-9

    def test_single_group_global_minimum(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (m + m.conj().T) / 2
        res = product_lmo(m[None], DimSig((2, 2)), Partition(((0, 1),)), rng=2)
        assert abs(res.values[0] - np.linalg.eigvalsh(m)[0]) < 1e-10

    @pytest.mark.parametrize(
        "dims, groups",
        [((2, 2), None), ((2, 3), None), ((2, 2, 2), None), ((2, 3, 2), ((0, 2), (1,)))],
        ids=["2x2", "2x3", "2x2x2", "2x3x2-grouped"],
    )
    def test_stack_equals_sequential_calls(self, dims, groups, monkeypatch):
        sig = DimSig(dims)
        part = Partition(groups) if groups else Partition.finest(len(dims))
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, sig.total, sig.total)) + 1j * rng.standard_normal((3, sig.total, sig.total))
        stack = (m + m.conj().transpose(0, 2, 1)) / 2
        # a diagonal block stalls after two sweeps, long before the others
        diag = np.diag(rng.random(sig.total)).astype(complex)
        stack = np.concatenate([stack[:1], diag[None], stack[1:]])
        lanes = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            lanes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rng_stack, rng_seq = np.random.default_rng(3), np.random.default_rng(3)
        stacked = product_lmo(stack, sig, part, rng=rng_stack)
        monkeypatch.undo()
        sequential = [product_lmo(g[None], sig, part, rng=rng_seq) for g in stack]
        # blocks left the live set at different sweeps
        assert lanes[0] == 4 * 8 and lanes[-1] < lanes[0]
        assert len(stacked.values) == len(sequential) == 4
        for b, want in enumerate(sequential):
            assert float(stacked.values[b]).hex() == float(want.values[0]).hex()
            assert float(stacked.spreads[b]).hex() == float(want.spreads[0]).hex()
            assert stacked.vectors[b].tobytes() == want.vectors[0].tobytes()
            assert all(a[b].tobytes() == f[0].tobytes() for a, f in zip(stacked.factors, want.factors))
        assert rng_stack.bit_generator.state == rng_seq.bit_generator.state


    @pytest.mark.parametrize(
        "dims, groups",
        [((2, 2), None), ((2, 2, 2), None), ((2, 3, 2), ((0, 2), (1,))), ((2, 2), ((0, 1),))],
        ids=["2x2", "2x2x2", "2x3x2-grouped", "single-group"],
    )
    def test_rows_are_atom_vectors_and_quadratic_forms(self, dims, groups):
        sig = DimSig(dims)
        part = Partition(groups) if groups else Partition.finest(len(dims))
        rng = np.random.default_rng(13)
        m = rng.standard_normal((3, sig.total, sig.total)) + 1j * rng.standard_normal((3, sig.total, sig.total))
        stack = (m + m.conj().transpose(0, 2, 1)) / 2
        res = product_lmo(stack, sig, part, rng=4)
        assert res.vectors.shape == (3, sig.total) and res.values.shape == res.spreads.shape == (3,)
        for b, g in enumerate(stack):
            vec = atom_vector(SepAtom(tuple(f[b] for f in res.factors)), sig, part)
            assert res.vectors[b].tobytes() == vec.tobytes()
            assert float(res.values[b]).hex() == float(np.real(vec.conj() @ g @ vec)).hex()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 2, 2)]),
        extra=st.integers(0, 8),
        restarts=st.integers(1, 8),
        sweeps=st.sampled_from([1, LMO_SEARCH_SWEEPS, LMO_SWEEPS]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_seeded_oracle_never_exceeds_mixture_value(self, dims, extra, restarts, sweeps, seed):
        # Tr G sigma = sum_a w_a <a|G|a> is at least the value of sigma's
        # lowest atom, where lane 0 starts; alternating updates only descend
        rng = np.random.default_rng(seed)
        sig, part = DimSig(dims), Partition.finest(len(dims))
        rho = random_density(dims, sig.total, seed=int(rng.integers(2**32)))
        n_atoms = sig.total + extra
        factors = [np.stack([unit(rng, d) for _ in range(n_atoms)]) for d in dims]
        vecs = _product_vectors(factors, dims, part.groups)
        sigma = _mixture(rng.dirichlet(np.ones(n_atoms)), vecs)
        _, g_mat = _obj_and_grad(rho.mat, sigma, -von_neumann_entropy(rho))
        seeds = _lowest_atom(g_mat, vecs, factors)
        res = product_lmo(g_mat[None], sig, part, restarts, rng, sweeps=sweeps, seeds=seeds)
        assert res.values[0] <= np.real(np.trace(g_mat @ sigma)) + 1e-15
        # the interior certificate point mixes in 1/D, which the computational
        # product basis makes up; its seed bounds Tr G sigma_d the same way
        _, g_d, sigma_d, seeds_d = _interior_point(rho.mat, sigma, vecs, factors, sig, part, -von_neumann_entropy(rho))
        res = product_lmo(g_d[None], sig, part, restarts, rng, sweeps=sweeps, seeds=seeds_d)
        assert res.values[0] <= np.real(np.trace(g_d @ sigma_d)) + 1e-15


class TestLineSearch:
    def test_each_candidate_matches_its_own_search(self):
        # candidates on clipped segments, each against its one-row search
        sig = DimSig((2, 3))
        rho = random_density((2, 3), 6, seed=4)
        sigma = 0.5 * random_separable((2, 3), 5, seed=6).mat + 0.5 * np.eye(6) / 6
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        rng = np.random.default_rng(12)
        vecs = np.stack(
            [atom_vector(SepAtom((unit(rng, 2), unit(rng, 3))), sig, Partition.finest(2)) for _ in range(5)]
        )
        t_max = np.array([1.0, 0.3, 0.05, 1.0, 0.7])
        slopes = segment_slopes(rho, sigma, vecs)
        t_stars, vals = _line_search(rho.mat, sigma, vecs, t_max, tr_rho_ln_rho, slopes)
        for k in range(len(vecs)):
            t_one, val_one = _line_search(
                rho.mat, sigma, vecs[k : k + 1], t_max[k : k + 1], tr_rho_ln_rho, slopes[k : k + 1]
            )
            assert (float(t_one[0]).hex(), float(val_one[0]).hex()) == (float(t_stars[k]).hex(), float(vals[k]).hex())

    def test_repeated_row_copies_its_search(self, monkeypatch):
        import qsep.relent as relent_mod

        sig = DimSig((2, 2))
        rho = random_density((2, 2), 4, seed=8)
        sigma = random_separable((2, 2), 6, seed=9).mat
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        rng = np.random.default_rng(10)
        v0, v1 = (atom_vector(SepAtom((unit(rng, 2), unit(rng, 2))), sig, Partition.finest(2)) for _ in range(2))
        # row 2 repeats row 0 and its t_max; row 3 repeats the vector on a shorter segment
        vecs, t_max = np.stack([v0, v1, v0, v0]), np.array([0.8, 1.0, 0.8, 0.3])
        slopes = segment_slopes(rho, sigma, vecs)
        want = [
            _line_search(rho.mat, sigma, vecs[k : k + 1], t_max[k : k + 1], tr_rho_ln_rho, slopes[k : k + 1])
            for k in range(4)
        ]
        searches = []
        secant = relent_mod._secant
        monkeypatch.setattr(relent_mod, "_secant", lambda *args: searches.append(args[4]) or secant(*args))
        t_stars, vals = _line_search(rho.mat, sigma, vecs, t_max, tr_rho_ln_rho, slopes)
        assert searches == [0.8, 1.0, 0.3]
        assert t_stars.tobytes() == np.concatenate([t for t, _ in want]).tobytes()
        assert vals.tobytes() == np.concatenate([v for _, v in want]).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
        seed=st.integers(0, 2**32 - 1),
        t_max=st.floats(1e-6, 1.0),
    )
    def test_no_descent_without_negative_slope(self, dims, seed, t_max):
        # along sigma -> (1 - t) sigma + t |v><v| the objective is convex with
        # slope <v|G|v> - Tr G sigma at t = 0; the top eigenvector of G makes
        # it nonnegative, so no step may report a value below D(rho || sigma)
        rng = np.random.default_rng(seed)
        total = int(np.prod(dims))
        rho = random_density(dims, total, seed=int(rng.integers(2**32)))
        sigma = random_separable(dims, 2 * total, seed=int(rng.integers(2**32))).mat
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        obj, g_mat = _obj_and_grad(rho.mat, sigma, tr_rho_ln_rho)
        v = np.linalg.eigh(g_mat)[1][:, -1]
        assert np.real(v.conj() @ g_mat @ v) >= np.real(np.trace(g_mat @ sigma))
        # one candidate or two, each takes the same scalar search
        for vecs, t_maxs in ((v[None], [t_max]), (np.stack([v, v]), [t_max, 1.0])):
            slopes = np.full(len(vecs), np.real(v.conj() @ g_mat @ v) - np.real(np.trace(g_mat @ sigma)))
            _, vals = _line_search(rho.mat, sigma, vecs, np.array(t_maxs), tr_rho_ln_rho, slopes)
            assert vals.min() >= obj - 1e-15

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]), seed=st.integers(0, 2**32 - 1))
    def test_uncapped_search_finds_the_slope_root(self, dims, seed):
        # the uncapped search stops where h'(t) = <v|G_t|v> - Tr G_t sigma
        # vanishes, below h(0), and no worse than the golden-section search
        rng = np.random.default_rng(seed)
        sig = DimSig(dims)
        rho = random_density(dims, sig.total, seed=int(rng.integers(2**32)))
        sigma = random_separable(dims, 2 * sig.total, seed=int(rng.integers(2**32))).mat
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        obj, g_mat = _obj_and_grad(rho.mat, sigma, tr_rho_ln_rho)
        base = float(np.real(np.trace(g_mat @ sigma)))
        vec = product_lmo(g_mat[None], sig, Partition.finest(len(dims)), rng=rng).vectors[0]
        slope0 = float(np.real(vec.conj() @ g_mat @ vec)) - base
        assert slope0 < 0.0
        t_stars, vals = _line_search(rho.mat, sigma, vec[None], np.ones(1), tr_rho_ln_rho, np.array([slope0]))
        t_star, val = float(t_stars[0]), float(vals[0])
        assert 0.0 < t_star < 1.0 and val < obj
        sigma_t = (1.0 - t_star) * sigma + t_star * np.outer(vec, vec.conj())
        assert abs(val - _objective(rho.mat, sigma_t, tr_rho_ln_rho)) <= 1e-14
        _, g_t = _obj_and_grad(rho.mat, sigma_t, tr_rho_ln_rho)
        slope = float(np.real(vec.conj() @ g_t @ vec - np.trace(g_t @ sigma)))
        assert abs(slope) <= 1e-6 * abs(slope0)
        direction = np.outer(vec, vec.conj())

        def h(t):
            return _objective(rho.mat, (1.0 - t) * sigma + t * direction, tr_rho_ln_rho)

        assert val <= h(_golden(h, 0.0, 1.0)) + 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (2, 2, 2)]),
        seed=st.integers(0, 2**32 - 1),
        t_max=st.floats(1e-6, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_clipped_search_stops_at_root_or_segment_end(self, dims, seed, t_max):
        # on [0, t_max] the convex h is least at its slope root clipped to t_max
        rng = np.random.default_rng(seed)
        sig = DimSig(dims)
        rho = random_density(dims, sig.total, seed=int(rng.integers(2**32)))
        sigma = random_separable(dims, 2 * sig.total, seed=int(rng.integers(2**32))).mat
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        obj, g_mat = _obj_and_grad(rho.mat, sigma, tr_rho_ln_rho)
        base = float(np.real(np.trace(g_mat @ sigma)))
        vec = product_lmo(g_mat[None], sig, Partition.finest(len(dims)), rng=rng).vectors[0]
        slope0 = float(np.real(vec.conj() @ g_mat @ vec)) - base
        assert slope0 < 0.0
        t_stars, vals = _line_search(rho.mat, sigma, vec[None], np.array([t_max]), tr_rho_ln_rho, np.array([slope0]))
        t_star, val = float(t_stars[0]), float(vals[0])
        direction = np.outer(vec, vec.conj())

        def h(t):
            return _objective(rho.mat, (1.0 - t) * sigma + t * direction, tr_rho_ln_rho)

        def slope(t):
            _, g_t = _obj_and_grad(rho.mat, (1.0 - t) * sigma + t * direction, tr_rho_ln_rho)
            return float(np.real(vec.conj() @ g_t @ vec - np.trace(g_t @ sigma)))

        if slope(t_max) < 0.0:  # h still descends at the end of the segment
            assert t_star.hex() == t_max.hex()
            end_obj, _ = _obj_and_grad(rho.mat, (1.0 - t_max) * sigma + t_max * direction, tr_rho_ln_rho)
            assert val.hex() == float(end_obj).hex()
        else:
            assert 0.0 < t_star < t_max and val < obj
            assert abs(slope(t_star)) <= 1e-6 * abs(slope0)
            assert val <= h(_golden(h, 0.0, t_max)) + 1e-14

    def test_uncapped_search_reaches_the_endpoint(self):
        # rho = |v><v| is a product state: h descends all the way to sigma = rho
        sig = DimSig((2, 3))
        rng = np.random.default_rng(14)
        vec = atom_vector(SepAtom((unit(rng, 2), unit(rng, 3))), sig, Partition.finest(2))
        rho = dop((2, 3), np.outer(vec, vec.conj()))
        sigma = random_separable((2, 3), 12, seed=15).mat
        obj, g_mat = _obj_and_grad(rho.mat, sigma, 0.0)
        slope0 = float(np.real(vec.conj() @ g_mat @ vec - np.trace(g_mat @ sigma)))
        t_stars, vals = _line_search(rho.mat, sigma, vec[None], np.ones(1), 0.0, np.array([slope0]))
        assert slope0 < 0.0 and obj > 0.1
        assert t_stars[0] >= 1.0 - 1e-12 and abs(vals[0]) <= 1e-12

    def test_repeated_row_copies_its_uncapped_search(self, monkeypatch):
        import qsep.relent as relent_mod

        sig = DimSig((2, 2))
        rho = random_density((2, 2), 4, seed=8)
        sigma = random_separable((2, 2), 6, seed=9).mat
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        _, g_mat = _obj_and_grad(rho.mat, sigma, tr_rho_ln_rho)
        vecs = product_lmo(np.stack([g_mat, g_mat + np.diag([0.0, 1.0, 1.0, 2.0])]), sig, Partition.finest(2)).vectors
        vecs = np.stack([vecs[0], vecs[1], vecs[0]])
        slopes = np.real(((vecs.conj() @ g_mat) * vecs).sum(axis=1)) - np.real(np.trace(g_mat @ sigma))
        want = [_line_search(rho.mat, sigma, vecs[k : k + 1], np.ones(1), tr_rho_ln_rho, slopes[k : k + 1]) for k in range(3)]
        searches = []
        secant = relent_mod._secant
        monkeypatch.setattr(relent_mod, "_secant", lambda *args: searches.append(args[3]) or secant(*args))
        t_stars, vals = _line_search(rho.mat, sigma, vecs, np.ones(3), tr_rho_ln_rho, slopes)
        assert searches == [slopes[0], slopes[1]]
        assert t_stars.tobytes() == np.concatenate([t for t, _ in want]).tobytes()
        assert vals.tobytes() == np.concatenate([v for _, v in want]).tobytes()


class TestCorrectivePass:
    """The weight pass on a fixed atom set. The pass is deterministic, so the
    run with an evaluation budget of n stops where the run with budget n + 1
    stood after n evaluations: the runs with budgets 0..POLISH_ITERS trace
    every accepted point."""

    @staticmethod
    def accepted_points(monkeypatch, rho, vecs, w0, atom_energies, e_cap):
        import qsep.relent as relent_mod

        tr_rho_ln_rho = -von_neumann_entropy(rho)
        budget = relent_mod.POLISH_ITERS
        points = []
        for n in range(budget + 1):
            monkeypatch.setattr(relent_mod, "POLISH_ITERS", n)
            w = _corrective_pass(rho.mat, vecs, w0, atom_energies, e_cap, tr_rho_ln_rho, 1e-13)
            points.append((w, _objective(rho.mat, _mixture(w, vecs), tr_rho_ln_rho)))
        return points

    @staticmethod
    def atom_set(seed):
        rng = np.random.default_rng(seed)
        vecs = np.stack([np.kron(unit(rng, 2), unit(rng, 2)) for _ in range(10)] + list(np.eye(4, dtype=complex)))
        return vecs, rng.dirichlet(np.ones(len(vecs)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_descends_on_the_simplex(self, monkeypatch, seed):
        rho = random_density((2, 2), 4, seed=seed + 10)
        vecs, w0 = self.atom_set(seed)
        points = self.accepted_points(monkeypatch, rho, vecs, w0, np.zeros(len(vecs)), math.inf)
        objs = [obj for _, obj in points]
        assert all(b <= a + 1e-13 for a, b in zip(objs, objs[1:]))
        assert objs[-1] < objs[0] - 0.1
        for w, _ in points:
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("headroom", [0.1, 0.2, 0.3])
    def test_accepted_points_keep_energy_cap(self, monkeypatch, headroom):
        # rho sits higher in energy than the start, so the uncapped pass
        # climbs past the cap; with more headroom the extrapolation, not the
        # EM step, is the first to overshoot
        base = random_density((2, 2), 4, seed=11)
        rho = dop((2, 2), 0.5 * base.mat + 0.5 * np.diag([0.0, 0.0, 0.0, 1.0]))
        vecs, w0 = self.atom_set(5)
        h_diag = EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=0.0).diagonal(rho.sig)
        energies = (np.abs(vecs) ** 2 * h_diag).sum(axis=1)
        cap = float(w0 @ energies) + headroom
        free = self.accepted_points(monkeypatch, rho, vecs, w0, energies, math.inf)
        assert free[-1][0] @ energies > cap + 0.01
        capped = self.accepted_points(monkeypatch, rho, vecs, w0, energies, cap)
        for w, _ in capped:
            assert w @ energies <= cap + 1e-12
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12
        assert capped[-1][0] @ energies > cap - 1e-9
        objs = [obj for _, obj in capped]
        assert all(b <= a + 1e-13 for a, b in zip(objs, objs[1:]))

    def test_bell_optimum_stops_at_first_gap_test(self, monkeypatch):
        # sigma = (|00><00| + |11><11|) / 2 is the closest separable state:
        # the start's KKT gap is zero, so only the start is evaluated
        import qsep.relent as relent_mod

        calls = []
        spectral = relent_mod._spectral_terms

        def counted(*args):
            calls.append(1)
            return spectral(*args)

        monkeypatch.setattr(relent_mod, "_spectral_terms", counted)
        bell = bell_state()
        w0 = np.array([0.5, 0.0, 0.0, 0.5])
        w = _corrective_pass(bell.mat, np.eye(4, dtype=complex), w0, np.zeros(4), math.inf, 0.0, 1e-13)
        assert len(calls) == 1
        assert np.array_equal(w, w0)


class TestRefinement:
    @pytest.mark.parametrize("dims, groups", [((2, 2), None), ((2, 3, 2), ((0, 2), (1,)))], ids=["2x2", "2x3x2-grouped"])
    def test_descends_with_unit_factors_and_fixed_weights(self, dims, groups):
        sig = DimSig(dims)
        part = Partition(groups) if groups else Partition.finest(len(dims))
        rng = np.random.default_rng(17)
        rho = random_density(dims, sig.total, seed=18)
        tr_rho_ln_rho = -von_neumann_entropy(rho)
        gdims = [int(np.prod([dims[s] for s in g])) for g in part.groups]
        factors = [np.stack([unit(rng, d) for _ in range(2 * sig.total)]) for d in gdims]
        w = rng.dirichlet(np.ones(2 * sig.total))
        obj, g_mat = _obj_and_grad(rho.mat, _mixture(w, _product_vectors(factors, dims, part.groups)), tr_rho_ln_rho)
        new_factors, vecs, sigma, new_obj, new_grad = _refine(rho.mat, w, factors, dims, part.groups, obj, g_mat, tr_rho_ln_rho)
        assert new_obj < obj - 1e-6
        for f in new_factors:
            assert np.abs(np.linalg.norm(f, axis=1) - 1.0).max() < 1e-14
        assert np.array_equal(vecs, _product_vectors(new_factors, dims, part.groups))
        assert np.array_equal(sigma, _mixture(w, vecs))
        ref_obj, ref_grad = _obj_and_grad(rho.mat, sigma, tr_rho_ln_rho)
        assert new_obj == ref_obj and np.array_equal(new_grad, ref_grad)

    def test_stationary_atoms_are_left_alone(self):
        # (|00><00| + |11><11|) / 2 is Bell's closest separable state: every
        # factor's Riemannian gradient vanishes, so no step descends
        bell = bell_state()
        e = np.eye(2, dtype=complex)
        factors = [e.copy(), e.copy()]
        w = np.array([0.5, 0.5])
        obj, g_mat = _obj_and_grad(bell.mat, _mixture(w, _product_vectors(factors, (2, 2), ((0,), (1,)))), 0.0)
        assert abs(obj - math.log(2)) < 1e-15
        assert _refine(bell.mat, w, factors, (2, 2), ((0,), (1,)), obj, g_mat, 0.0) is None


class TestSolverCore:
    def test_pure_product_zero(self):
        v = np.kron([1.0, 0.0], [0.6, 0.8])
        rho = dop((2, 2), np.outer(v, v))
        sol = relative_entropy_entanglement(rho, opts=FAST)
        assert sol.value <= 1e-6

    def test_classically_correlated_zero(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[3, 3] = 0.5
        sol = relative_entropy_entanglement(dop((2, 2), m), opts=FAST)
        assert sol.value <= 1e-6

    def test_bell_sandwich(self):
        bell = bell_state()
        sol = relative_entropy_entanglement(bell, opts=FAST)
        upper = min(
            von_neumann_entropy(partial_trace(bell, [0])),
            von_neumann_entropy(partial_trace(bell, [1])),
        )
        lower = -conditional_entropy(bell, 0)
        assert abs(upper - math.log(2)) < 1e-12 and abs(lower - math.log(2)) < 1e-12
        assert lower - 1e-3 <= sol.value <= upper + 1e-9
        assert abs(sol.value - math.log(2)) < 1e-3

    def test_value_matches_returned_sigma(self):
        for seed in (1, 2):
            rho = random_density((2, 2), 4, seed=seed)
            sol = relative_entropy_entanglement(rho, opts=FAST)
            assert abs(sol.value - relative_entropy(rho, sol.sigma)) < 1e-8
            DensityOp.create(sol.sigma.sig, sol.sigma.mat, validate=True)

    def test_weights_form_distribution(self):
        sol = relative_entropy_entanglement(bell_state(), opts=FAST)
        w = sol.weights()
        assert (w > 0).all()
        assert abs(w.sum() - 1.0) < 1e-9
        assert sol.gap >= -1e-8

    def test_zero_detection_on_random_atom_mixtures(self):
        for seed in (11, 12, 13):
            rho = random_separable((2, 2), 4, seed)
            sol = relative_entropy_entanglement(rho, opts=SolverOpts(max_iters=250))
            assert sol.value <= 1e-5

    @staticmethod
    def start_atom_count(sol, rho, part):
        """Returned atoms that are start atoms: products of eigenvectors of
        the group marginals (here rho_02 and rho_1)."""
        eigvecs = [np.linalg.eigh(partial_trace(rho, g).mat)[1] for g in part.groups]
        return sum(
            all((np.abs(u.conj().T @ f) ** 2).max() > 1.0 - 1e-12 for u, f in zip(eigvecs, atom.factors))
            for _, atom in sol.atoms
        )

    def test_returned_atoms_rebuild_sigma_grouped(self):
        # few iterations, so the start's atoms survive, every one moved by
        # refinement; on the group {0, 2} their factors index a
        # non-contiguous pair of subsystems
        rho = random_density((2, 3, 2), 12, seed=8)
        part = Partition(((0, 2), (1,)))
        sol = relative_entropy_entanglement(rho, part, SolverOpts(max_iters=2))
        assert len(sol.atoms) >= rho.sig.total and self.start_atom_count(sol, rho, part) == 0
        rebuilt = atom_mixture(sol.atoms, rho.sig, part)
        assert np.abs(rebuilt - sol.sigma.mat).max() < 1e-12

    def test_returned_atoms_rebuild_sigma_after_pruning(self):
        # after 40 iterations pruning has dropped start atoms, so the returned
        # factors must follow the weights through every prune and append
        rho = random_density((2, 3, 2), 12, seed=8)
        part = Partition(((0, 2), (1,)))
        sol = relative_entropy_entanglement(rho, part, SolverOpts(max_iters=40))
        assert self.start_atom_count(sol, rho, part) < rho.sig.total
        rebuilt = atom_mixture(sol.atoms, rho.sig, part)
        assert np.abs(rebuilt - sol.sigma.mat).max() < 1e-12

    def test_partition_mismatch(self):
        with pytest.raises(ValueError, match="partition"):
            relative_entropy_entanglement(bell_state(), Partition.finest(3))

    def test_w3_reaches_closed_form(self):
        # E_R(W3) = ln(9/4) for the finest partition
        sol = relative_entropy_entanglement(get_fixture("w3"), opts=SolverOpts(max_iters=150))
        assert abs(sol.value - math.log(9 / 4)) <= 1e-9

    def test_w3_vacuous_cap_sweep_point_reaches_closed_form(self):
        # no sigma of three qubits under diag(0, 1) has energy above 3, so
        # E = 4 is solved uncapped, warm-started from the E = 0.5 atoms
        rows = energy_sweep(get_fixture("w3"), None, (QUBIT_H,) * 3, [0.5, 4.0], SolverOpts(max_iters=150))
        assert abs(rows[1]["value"] - math.log(9 / 4)) <= 1e-9

    def test_partition_monotonicity(self):
        rho = random_pure((2, 2, 2), seed=31)
        fine = relative_entropy_entanglement(rho, Partition.finest(3), FAST)
        coarse = relative_entropy_entanglement(rho, Partition(((0, 1), (2,))), FAST)
        assert fine.value >= coarse.value - 2 * (fine.gap + coarse.gap) - 1e-9

    def test_initial_atoms_with_surplus_factor_rejected(self):
        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        atoms = [(0.5, SepAtom((e0, e0))), (0.5, SepAtom((e0, e1, e1)))]
        with pytest.raises(ValueError, match=r"initial atom 1 has 3 factors for groups \(\(0,\), \(1,\)\)"):
            relative_entropy_entanglement(bell_state(), None, SolverOpts(max_iters=5), initial_atoms=atoms)

    def test_initial_atoms_with_wrong_factor_length_rejected(self):
        e0 = np.array([1.0, 0.0])
        atoms = [(1.0, SepAtom((e0, np.array([0.0, 0.6, 0.8]))))]
        with pytest.raises(ValueError, match=r"initial atom 0: group 1 factor has shape \(3,\), expected \(2,\)"):
            relative_entropy_entanglement(bell_state(), None, SolverOpts(max_iters=5), initial_atoms=atoms)


def isotropic(d, fidelity):
    """F |phi><phi| + (1 - F) (1 - |phi><phi|) / (d^2 - 1), phi maximally entangled."""
    phi = np.eye(d).reshape(-1) / math.sqrt(d)
    p = np.outer(phi, phi)
    return dop((d, d), fidelity * p + (1.0 - fidelity) / (d * d - 1) * (np.eye(d * d) - p))


def isotropic_er(d, fidelity) -> float:
    """Rains, PRA 60, 179 (1999): ln d + F ln F + (1 - F) ln((1 - F) / (d - 1)) for F > 1/d."""
    return math.log(d) + fidelity * math.log(fidelity) + (1.0 - fidelity) * math.log((1.0 - fidelity) / (d - 1))


class TestStopStatus:
    """Why a solve stopped. Capped values are pinned to the last bit where
    the stop at the first unchanged sigma ends the solve before the
    20-iteration stall test did: both stops leave the same sigma."""

    @staticmethod
    def check_pure_state(seed):
        # E_R of a pure state is S(rho_A); the optimum has rank 3 of 9
        rho = random_pure((3, 3), seed=seed)
        sol = relative_entropy_entanglement(rho)
        assert (sol.status, sol.converged) == ("gap-tol", True)
        assert abs(sol.value - von_neumann_entropy(partial_trace(rho, [0]))) <= 1e-12

    def test_pure_state_ends_at_gap_tol(self):
        self.check_pure_state(0)

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_pure_states_end_at_gap_tol_with_exact_value(self, seed):
        # seeds 1 and 6 stopped `stalled` on false gaps of 8.6e-3 and 8.5e-2
        self.check_pure_state(seed)

    def test_iteration_budget_ends_at_max_iters(self):
        sol = relative_entropy_entanglement(random_density((2, 2), 4, seed=1), None, SolverOpts(max_iters=5))
        assert (sol.status, sol.iterations, sol.converged) == ("max-iters", 5, False)

    def test_bell_stalls_at_first_unchanged_sigma(self, monkeypatch):
        # iteration 1 steps to ln 2 and refines (whose steps take their
        # gradient from `_gradient`); iteration 2 rebuilds the same sigma,
        # which is not evaluated again; the last evaluation is the final
        # certificate's interior point
        import qsep.relent as relent_mod

        sigmas = []
        obj_and_grad = relent_mod._obj_and_grad

        def record_sigma(rho_mat, sigma, tr_rho_ln_rho):
            sigmas.append(sigma)
            return obj_and_grad(rho_mat, sigma, tr_rho_ln_rho)

        monkeypatch.setattr(relent_mod, "_obj_and_grad", record_sigma)
        sol = relative_entropy_entanglement(bell_state())
        assert (sol.status, sol.iterations) == ("stalled", 2)
        assert abs(sol.value - math.log(2)) <= 1e-12
        assert len(sigmas) == 3 and not np.array_equal(sigmas[0], sigmas[1])
        interior = (1.0 - relent_mod.CERT_MIX) * sol.sigma.mat + (relent_mod.CERT_MIX / 4) * np.eye(4)
        assert np.array_equal(sigmas[2], interior)
        assert sol.gap <= 1e-7 and sol.converged

    @pytest.mark.parametrize(
        "name, value, iterations",
        [("bell", "0x1.338891710fba3p+0", 2), ("w3", "0x1.1a742cc407529p+0", 8)],
        ids=["bell", "w3"],
    )
    def test_capped_stall_keeps_value(self, name, value, iterations):
        rho = get_fixture(name)
        cap = EnergyConstraint(hams=(QUBIT_H,) * rho.sig.nsys, E=0.5)
        sol = relative_entropy_entanglement(rho, None, SolverOpts(max_iters=150), constraint=cap)
        assert (sol.status, sol.iterations, sol.converged) == ("stalled", iterations, False)
        assert sol.value == float.fromhex(value)

    def test_descending_solve_keeps_value_and_iterations(self):
        # the benchmark's isotropic 2x2 F = 0.8 anchor never repeats a sigma
        sol = relative_entropy_entanglement(isotropic(2, 0.8), None, SolverOpts(max_iters=150))
        assert sol.status == "gap-tol" and sol.iterations < 150
        assert abs(sol.value - isotropic_er(2, 0.8)) <= 1e-12

    @pytest.mark.parametrize("d, fidelity", [(2, 0.8), (3, 0.7)])
    def test_isotropic_certificate_stays_below_closed_form(self, d, fidelity):
        # the benchmark's isotropic anchors: with the seeded oracle no gap
        # is negative, so value - gap never rises above E_R
        closed = isotropic_er(d, fidelity)
        sol = relative_entropy_entanglement(isotropic(d, fidelity), None, SolverOpts(max_iters=150))
        assert closed - 1e-12 <= sol.value <= closed + 1e-9
        assert sol.value - sol.gap <= closed + 1e-9


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def maximally_correlated_er(a) -> float:
    """E_R of sum_ij a_ij |ii><jj| in closed form: S(diag a) - S(a)."""
    return shannon(np.real(np.diag(a))) - shannon(np.linalg.eigvalsh(a))


class TestLocalCovariance:
    """Closed forms that hold in every local basis. The start's uniform atoms
    are products of the marginal eigenvectors, which for pure and maximally
    correlated states hold the optimal sigma's atoms."""

    def test_maximally_correlated_fixture(self):
        a = geometric_correlation(0.5, 0.3, 3)
        closed = maximally_correlated_er(a)
        rho = get_fixture("maxcorr-3x3")
        # the fixture is rotated: neither marginal is diagonal
        for s in (0, 1):
            marginal = partial_trace(rho, [s]).mat
            assert np.abs(marginal - np.diag(np.diag(marginal))).max() > 0.05
        assert np.allclose(np.linalg.eigvalsh(rho.mat)[-3:], np.linalg.eigvalsh(a), atol=1e-14)
        sol = relative_entropy_entanglement(rho, opts=SolverOpts(max_iters=5))
        assert closed - 1e-12 <= sol.value <= closed + 1e-9
        assert sol.value - sol.gap <= closed + 1e-9

    def test_maximally_correlated_builder(self):
        a = geometric_correlation(0.5, 0.3, 3)
        rho = maximally_correlated(a)
        assert np.array_equal(rho.mat[np.ix_([0, 4, 8], [0, 4, 8])], a.astype(complex))
        assert np.count_nonzero(rho.mat) == 9
        # the dephased sigma = sum_i a_ii |ii><ii| attains the closed form
        dephased = dop((3, 3), np.diag(np.diag(rho.mat)))
        assert abs(relative_entropy(rho, dephased) - maximally_correlated_er(a)) < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
        kind=st.sampled_from(["pure", "maximally-correlated"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_under_local_unitaries(self, dims, kind, seed):
        rng = np.random.default_rng(seed)
        d_a, d_b = dims
        d = min(dims)
        if kind == "pure":
            vec = unit(rng, d_a * d_b)
            closed = shannon(np.linalg.svd(vec.reshape(d_a, d_b), compute_uv=False) ** 2)
            mat = np.outer(vec, vec.conj())
        else:
            # distinct diagonal weights, so each marginal eigenbasis is unique
            diag = rng.permutation(np.arange(1, d + 1) + 0.5 * rng.random(d))
            diag /= diag.sum()
            rows = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            a = np.sqrt(np.outer(diag, diag)) * (rows @ rows.conj().T)
            closed = maximally_correlated_er(a)
            mat = maximally_correlated(a).mat
        # Haar local unitaries; a d x d state enters d_a x d_b through their
        # first d columns
        u_a, u_b = haar_unitary(rng, d_a), haar_unitary(rng, d_b)
        local = np.kron(u_a, u_b) if kind == "pure" else np.kron(u_a[:, :d], u_b[:, :d])
        rho = dop(dims, local @ mat @ local.conj().T)
        sol = relative_entropy_entanglement(rho, opts=SolverOpts(max_iters=5))
        assert abs(sol.value - closed) <= 1e-9


class TestEnergyConstrained:
    def test_inactive_constraint_matches(self):
        bell = bell_state()
        free = relative_entropy_entanglement(bell, opts=FAST)
        constrained = relative_entropy_entanglement(
            bell, None, FAST, constraint=EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=10.0)
        )
        assert abs(free.value - constrained.value) < 1e-6

    def test_ground_state_at_ground_energy(self):
        v = np.kron([1.0, 0.0], [1.0, 0.0])
        rho = dop((2, 2), np.outer(v, v))
        sol = relative_entropy_entanglement(
            rho, None, FAST, constraint=EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=0.0)
        )
        assert sol.value <= 1e-9

    @pytest.mark.parametrize("dims", [(2, 3, 2), (3, 3), (2, 2, 2), (4,), (2, 5, 3, 2)])
    def test_diagonal_matches_kronecker_sum(self, dims):
        # sum_s 1 x ... x h_s x ... x 1, added subsystem by subsystem in the
        # same order, so the broadcast sum must equal it byte for byte
        rng = np.random.default_rng(len(dims))
        # odd subsystems get unsorted raw arrays, even ones explicit specs
        hams = [
            rng.standard_normal(d) * 3.0 if s % 2 else HamiltonianSpec.explicit(np.sort(rng.random(d)), 0.25)
            for s, d in enumerate(dims)
        ]
        want = np.zeros(int(np.prod(dims)))
        for s, h in enumerate(hams):
            vals = h.values(dims[s]) if isinstance(h, HamiltonianSpec) else h
            want += np.kron(np.kron(np.ones(int(np.prod(dims[:s]))), vals), np.ones(int(np.prod(dims[s + 1 :]))))
        got = EnergyConstraint(hams=tuple(hams), E=1.0).diagonal(DimSig(dims))
        assert got.tobytes() == want.tobytes()

    def test_infeasible_energy(self):
        with pytest.raises(ValueError, match="infeasible"):
            relative_entropy_entanglement(
                bell_state(), None, FAST, constraint=EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=-0.5)
            )

    def test_nan_cap_is_refused(self):
        # a NaN cap compares false against every energy, so it bounds nothing;
        # a sweep refuses it before its first solve
        with pytest.raises(ValueError, match="NaN"):
            relative_entropy_entanglement(
                bell_state(), None, FAST, constraint=EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=math.nan)
            )
        with pytest.raises(ValueError, match="NaN"):
            energy_sweep(bell_state(), None, (QUBIT_H, QUBIT_H), [0.5, math.nan], FAST)

    @pytest.mark.parametrize(
        "hams, match",
        [((QUBIT_H,), "one local Hamiltonian per subsystem"), ((QUBIT_H, [0.0, 1.0, 2.0]), "has 3 levels")],
    )
    def test_malformed_hamiltonians_raise_under_vacuous_cap(self, hams, match):
        with pytest.raises(ValueError, match=match):
            relative_entropy_entanglement(bell_state(), None, FAST, constraint=EnergyConstraint(hams=hams, E=1e9))

    @pytest.mark.parametrize("E", [2.0, 3.5, math.inf])
    @pytest.mark.parametrize("warm", [False, True])
    def test_vacuous_cap_is_the_uncapped_solve(self, monkeypatch, E, warm):
        # the largest product energy of two qubits under diag(0, 1) is 2:
        # no sigma can break a cap at or above it, so the capped solve must
        # be the uncapped one, oracle draws and all
        import qsep.relent as relent_mod

        rho = random_density((2, 2), 4, seed=21)
        opts = SolverOpts(max_iters=25)
        atoms = relative_entropy_entanglement(rho, None, SolverOpts(max_iters=5, seed=3)).atoms if warm else None
        free = relative_entropy_entanglement(rho, None, opts, initial_atoms=atoms)
        stacks = []
        oracle = relent_mod.product_lmo

        def counted(g_mats, *args, **kwargs):
            stacks.append(len(g_mats))
            return oracle(g_mats, *args, **kwargs)

        monkeypatch.setattr(relent_mod, "product_lmo", counted)
        constraint = EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=E)
        capped = relative_entropy_entanglement(rho, None, opts, initial_atoms=atoms, constraint=constraint)
        assert set(stacks) == {1}
        assert (capped.value.hex(), capped.gap.hex()) == (free.value.hex(), free.gap.hex())
        assert (capped.iterations, capped.converged) == (free.iterations, free.converged)
        assert capped.lmo_spread == free.lmo_spread
        assert np.array_equal(capped.weights(), free.weights())
        assert np.array_equal(capped.sigma.mat, free.sigma.mat)
        for (_, a), (_, b) in zip(capped.atoms, free.atoms, strict=True):
            assert all(np.array_equal(fa, fb) for fa, fb in zip(a.factors, b.factors, strict=True))

    def test_cap_just_below_largest_energy_binds(self):
        # rho sits near |11>, the top product energy 2; the uncapped sigma
        # breaks a cap just below it, which the capped solve must keep
        rho = dop((2, 2), 0.99 * np.diag([0.0, 0.0, 0.0, 1.0]) + 0.01 * bell_state().mat)
        constraint = EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=1.98)
        free = relative_entropy_entanglement(rho, None, FAST)
        assert sigma_energy(free, constraint, rho.sig) > constraint.E
        capped = relative_entropy_entanglement(rho, None, FAST, constraint=constraint)
        assert sigma_energy(capped, constraint, rho.sig) <= constraint.E + 1e-9

    def test_bell_sweep(self, monkeypatch):
        import qsep.relent as relent_mod

        solved = []

        def record(*args, **kwargs):
            solved.append((kwargs["constraint"], relative_entropy_entanglement(*args, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(relent_mod, "relative_entropy_entanglement", record)
        bell = bell_state()
        rows = energy_sweep(bell, None, (QUBIT_H, QUBIT_H), [0.5, 1.0, 2.0, 4.0], FAST)
        vals = [r["value"] for r in rows]
        assert all(b <= a + 1e-6 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - math.log(2)) < 1e-3
        # the final solution's sigma satisfies the energy bound at each grid point
        assert len(solved) == len(rows)
        for row, (constraint, sol) in zip(rows, solved):
            assert row["value"] >= -1e-9
            assert constraint.E == row["E"]
            assert row["status"] == sol.status
            assert sigma_energy(sol, constraint, bell.sig) <= row["E"] + 1e-9

    def test_lagrangian_gap_bounds_capped_optimum(self):
        # sigma = 3/4 |00><00| + 1/4 |11><11| is separable with Tr H sigma = 0.5,
        # so the capped optimum is at most D(rho || sigma); value - gap must
        # be a lower bound on that optimum
        bell = bell_state()
        constraint = EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=0.5)
        sol = relative_entropy_entanglement(bell, None, FAST, constraint=constraint)
        feasible = relative_entropy(bell, dop((2, 2), np.diag([0.75, 0.0, 0.0, 0.25])))
        assert abs(feasible - 0.8370) < 1e-4
        assert 0 < sol.value - sol.gap <= feasible

    @pytest.mark.parametrize("cap", [0.3, 0.6])
    def test_eigenbasis_start_keeps_cap(self, monkeypatch, cap):
        # rho's marginals are not diagonal, so the start's uniform atoms are
        # products of rotated marginal eigenvectors, which H = diag(0, 1) per
        # qubit does not share; the start and every iterate must keep the cap
        import qsep.relent as relent_mod

        rho = random_density((2, 2), 4, seed=21)
        constraint = EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=cap)
        h_diag = constraint.diagonal(rho.sig)
        free = relative_entropy_entanglement(rho, None, FAST)
        assert sigma_energy(free, constraint, rho.sig) > cap + 0.05
        mixtures, sigmas = [], []
        mixture, obj_and_grad = relent_mod._mixture, relent_mod._obj_and_grad

        def record_mixture(w, vecs):
            mixtures.append((w, vecs))
            return mixture(w, vecs)

        def record_sigma(rho_mat, sigma, tr_rho_ln_rho):
            sigmas.append(sigma)
            return obj_and_grad(rho_mat, sigma, tr_rho_ln_rho)

        monkeypatch.setattr(relent_mod, "_mixture", record_mixture)
        monkeypatch.setattr(relent_mod, "_obj_and_grad", record_sigma)
        sol = relative_entropy_entanglement(rho, None, FAST, constraint=constraint)
        w0, vecs0 = mixtures[0]
        eigvecs = [np.linalg.eigh(partial_trace(rho, [s]).mat)[1] for s in (0, 1)]
        basis = np.stack([np.kron(eigvecs[0][:, i], eigvecs[1][:, j]) for i in range(2) for j in range(2)])
        assert np.abs(np.abs(vecs0[1:].conj() @ basis.T) ** 2 - np.eye(4)).max() < 1e-12
        assert (np.abs(basis) ** 2).max() < 0.99  # no start atom is one-hot
        assert w0 @ (np.abs(vecs0) ** 2 @ h_diag) <= cap + 1e-9
        # distinct iterates, not gradient calls: the cap-0.6 solve stops at
        # its first unchanged sigma
        assert len({sigma.tobytes() for sigma in sigmas}) == {0.3: 3, 0.6: 2}[cap]
        for sigma in sigmas:
            assert float(h_diag @ np.real(np.diag(sigma))) <= cap + 1e-9
        assert sigma_energy(sol, constraint, rho.sig) <= cap + 1e-9

    @pytest.mark.parametrize("cap", [0.51, 0.52, 0.54])
    def test_start_respects_cap_above_ground_anchor(self, cap):
        # the anchor atom |+0> has energy 0.5, above the ground energy 0, so
        # a start mixed for a ground-state anchor would break the cap
        plus0 = np.kron([1.0, 1.0], [1.0, 0.0]) / math.sqrt(2)
        rho = dop((2, 2), 0.9 * np.outer(plus0, plus0) + 0.025 * np.eye(4))
        constraint = EnergyConstraint(hams=(QUBIT_H, QUBIT_H), E=cap)
        sol = relative_entropy_entanglement(rho, None, FAST, constraint=constraint)
        assert sigma_energy(sol, constraint, rho.sig) <= cap + 1e-9


class TestRegularized:
    def test_product_all_zero(self):
        v = np.kron([1.0, 0.0], [0.0, 1.0])
        rho = dop((2, 2), np.outer(v, v))
        rows = regularized_estimates(rho, k_max=2, opts=FAST)
        assert all(r["value"] <= 1e-6 for r in rows)

    def test_bell_both_copies(self):
        rows = regularized_estimates(bell_state(), k_max=2, opts=FAST)
        assert abs(rows[0]["value"] - math.log(2)) < 2e-3
        assert abs(rows[1]["value"] - math.log(2)) < 2e-3

    def test_subadditivity_by_descent(self):
        for seed in (3, 4):
            rho = random_density((2, 2), 4, seed=seed)
            rows = regularized_estimates(rho, k_max=2, opts=SolverOpts(max_iters=60))
            assert rows[1]["value"] <= rows[0]["value"] + 1e-6

    def test_subadditivity_on_many_atom_state(self, monkeypatch):
        # a full-rank 2x2 Ginibre state whose one-copy solution has far more
        # than D^2 = 16 atoms: reduced to at most 16, all of their pairs fit
        # LIFT_CAP, so the two-copy start is sigma x sigma itself
        import qsep.relent as relent_mod

        solved = []

        def record(*args, **kwargs):
            solved.append(relative_entropy_entanglement(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(relent_mod, "relative_entropy_entanglement", record)
        rng = np.random.default_rng([25, 2])
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        m = m / np.trace(m).real
        rho = dop((2, 2), (m + m.conj().T) / 2)
        rows = regularized_estimates(rho, k_max=2, opts=SolverOpts(max_iters=150))
        assert rows[1]["value"] <= rows[0]["value"] + 1e-8
        one = solved[0]
        assert len(one.atoms) > 16
        part = Partition.finest(2)
        reduced = _caratheodory(one.atoms, rho.sig, part)
        lifted = _lift_atoms_to_power(reduced, rho.sig, part)
        assert rows[1]["lift_pairs"] == len(lifted) == len(reduced) ** 2
        assert rows[1]["lift_exact"]
        square = tensor_power_regrouped(one.sigma, 2)
        assert np.abs(atom_mixture(lifted, square.sig, part) - square.mat).max() < 1e-12

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from([((2, 2), None), ((2, 3), None), ((3, 3), None), ((2, 3, 2), (((0, 2), (1,))))]),
        extra=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_caratheodory_keeps_sigma(self, case, extra, seed):
        dims, groups = case
        sig = DimSig(dims)
        part = Partition.finest(len(dims)) if groups is None else Partition(groups)
        gdims = [int(np.prod([dims[s] for s in g])) for g in part.groups]
        atoms = self.random_atoms(np.random.default_rng(seed), sig.total**2 + extra, gdims)
        reduced = _caratheodory(atoms, sig, part)
        assert len(reduced) <= sig.total**2
        w = np.asarray([wt for wt, _ in reduced])
        assert (w >= 0).all() and abs(w.sum() - 1.0) < 1e-12
        inputs = {id(a) for _, a in atoms}
        assert all(id(a) in inputs for _, a in reduced)
        moved = atom_mixture(reduced, sig, part) - atom_mixture(atoms, sig, part)
        assert np.abs(moved).max() <= 1e-13

    def test_short_mixture_is_not_reduced(self):
        atoms = self.random_atoms(np.random.default_rng(11), 16, (2, 2))
        assert _caratheodory(atoms, DimSig((2, 2)), Partition.finest(2)) is atoms

    @pytest.mark.parametrize("q, p, d", [(0.5, 0.3, 2), (0.3, 0.0, 2), (0.5, 0.3, 3)])
    def test_two_copy_maximally_correlated_anchor(self, q, p, d):
        # E_R is additive on maximally correlated states, so the per-copy
        # two-copy value is the closed form; the warm start's 1e-8 uniform
        # mix lifts it by a few 1e-9
        a = geometric_correlation(q, p, d)
        closed = maximally_correlated_er(a)
        rows = regularized_estimates(maximally_correlated(a), k_max=2, opts=SolverOpts(max_iters=150))
        assert closed - 1e-12 <= rows[1]["value"] <= closed + 1e-8
        assert rows[1]["lift_exact"]

    def test_rows_are_per_copy(self, monkeypatch):
        import qsep.relent as relent_mod

        solved = []

        def record(*args, **kwargs):
            solved.append(relative_entropy_entanglement(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(relent_mod, "relative_entropy_entanglement", record)
        rows = regularized_estimates(bell_state(), k_max=2, opts=SolverOpts(max_iters=20))
        assert len(rows) == len(solved) == 2
        for k, (row, sol) in enumerate(zip(rows, solved), start=1):
            assert row["value"] == sol.value / k
            assert row["gap"] == sol.gap / k
            assert row["raw_value"] == sol.value
            assert row["status"] == sol.status

    @staticmethod
    def random_atoms(rng, n_atoms, gdims):
        atoms = []
        for w in rng.dirichlet(np.ones(n_atoms)):
            factors = []
            for dg in gdims:
                f = rng.standard_normal(dg) + 1j * rng.standard_normal(dg)
                factors.append(f / np.linalg.norm(f))
            atoms.append((w, SepAtom(tuple(factors))))
        return atoms

    def test_lifted_pairs_rebuild_tensor_square(self, monkeypatch):
        import qsep.relent as relent_mod

        # at most 20 atoms, so all K^2 <= LIFT_CAP pairs are kept
        sig = DimSig((2, 3, 2))
        part = Partition(((0, 2), (1,)))
        atoms = self.random_atoms(np.random.default_rng(9), 7, (4, 3))
        sigma = DensityOp(sig, atom_mixture(atoms, sig, part))
        lifted = _lift_atoms_to_power(atoms, sig, part)
        assert len(lifted) == 49
        square = tensor_power_regrouped(sigma, 2)
        rebuilt = atom_mixture(lifted, square.sig, part)
        assert np.abs(rebuilt - square.mat).max() < 1e-12
        monkeypatch.setattr(relent_mod, "LIFT_CAP", 5)
        capped = _lift_atoms_to_power(atoms, sig, part)
        kept = [w for w, _ in capped]
        assert len(kept) == 5 and kept == sorted(kept, reverse=True)
        assert abs(sum(kept) - 1.0) < 1e-12

    def test_lift_keeps_heaviest_pairs_when_cap_binds(self):
        # 25 atoms give 625 pairs, more than LIFT_CAP; the group {0, 2}
        # (d_g = 4) joins a non-contiguous pair of subsystems
        import qsep.relent as relent_mod

        sig = DimSig((2, 3, 2))
        part = Partition(((0, 2), (1,)))
        atoms = self.random_atoms(np.random.default_rng(10), 25, (4, 3))
        assert len(atoms) ** 2 > relent_mod.LIFT_CAP
        lifted = _lift_atoms_to_power(atoms, sig, part)
        w = np.asarray([wt for wt, _ in atoms])
        pair_w = np.outer(w, w).ravel()
        heaviest = sorted(range(len(pair_w)), key=lambda j: -pair_w[j])[: relent_mod.LIFT_CAP]
        total = sum(pair_w[heaviest])
        assert [wt for wt, _ in lifted] == [pair_w[j] / total for j in heaviest]
        assert abs(sum(wt for wt, _ in lifted) - 1.0) < 1e-12
        for j, (_, atom) in zip(heaviest, lifted):
            a, b = atoms[j // len(atoms)][1], atoms[j % len(atoms)][1]
            # per-pair reference: a's axes then b's, interleaved per subsystem
            fa, fb = a.factors[0].reshape(2, 2), b.factors[0].reshape(2, 2)
            ref4 = np.transpose(np.tensordot(fa, fb, axes=0), (0, 2, 1, 3)).reshape(-1)
            ref3 = np.tensordot(a.factors[1], b.factors[1], axes=0).reshape(-1)
            assert np.abs(atom.factors[0] - ref4).max() <= 1e-15
            assert np.array_equal(atom.factors[1], ref3)

    def test_dimension_overflow_names_kmax(self):
        rho = random_density((8, 8), 8, seed=5)
        with pytest.raises(ValueError, match="admissible k_max=2"):
            regularized_estimates(rho, k_max=3, opts=FAST)

    def test_unsupported_kmax_rejected_before_solving(self):
        # 4^3 = 64 passes the dimension check; the warm start covers two copies only
        with pytest.raises(ValueError, match="k_max"):
            regularized_estimates(bell_state(), k_max=3)

    def test_regrouped_power_structure(self):
        rho = random_density((2, 3), 5, seed=6)
        r2 = tensor_power_regrouped(rho, 2)
        assert r2.sig.dims == (4, 9)
        # party-major regrouping keeps each party's marginal a tensor square
        marg = partial_trace(r2, [0])
        single = partial_trace(rho, [0])
        assert np.allclose(marg.mat, np.kron(single.mat, single.mat), atol=1e-10)


class TestTruncationLimit:
    def test_identity_projectors_constant(self):
        rho = random_density((2, 2), 4, seed=7)
        steps = [{0: np.eye(2, dtype=complex), 1: np.eye(2, dtype=complex)} for _ in range(2)]
        rows = truncation_limit_experiment(rho, steps, [2], opts=FAST)
        vals = [r["value"] for r in rows]
        assert abs(vals[0] - vals[1]) < 1e-5

    def test_rows_say_why_each_solve_stopped(self):
        rho = random_density((2, 2), 4, seed=7)
        steps = [{0: np.eye(2, dtype=complex), 1: np.eye(2, dtype=complex)}]
        row = truncation_limit_experiment(rho, steps, [2], opts=SolverOpts(max_iters=5))[0]
        sol = relative_entropy_entanglement(rho, None, SolverOpts(max_iters=5))
        assert (row["status"], row["iters"], row["value"]) == (sol.status, sol.iterations, sol.value)

    def test_bell_embedded_in_qutrits_exact_at_rank_two(self):
        mat = np.zeros((9, 9), dtype=complex)
        v = np.zeros(9)
        v[0] = v[4] = 1 / math.sqrt(2)  # |00> + |11> inside 3x3
        mat = np.outer(v, v)
        rho = dop((3, 3), mat)
        projs = {s: top_projector(partial_trace(rho, [s]), 2) for s in range(2)}
        rows = truncation_limit_experiment(rho, [projs], [2], opts=FAST)
        assert abs(rows[0]["value"] - math.log(2)) < 1e-3

    def test_gibbs_marginal_fixture_trend(self):
        rho = gibbs_marginal_pair()
        steps = []
        for r in (1, 2, 3):
            steps.append({s: top_projector(partial_trace(rho, [s]), r) for s in range(2)})
        rows = truncation_limit_experiment(rho, steps, [2], opts=SolverOpts(max_iters=200))
        vals = [r["value"] for r in rows]
        assert vals[0] <= vals[1] <= vals[2] + 1e-6
        assert rows[-1]["rel_change"] < 0.01

    def test_annihilating_step_skipped_with_note(self):
        rho = dop((2, 2), np.diag([0.0, 0.5, 0.5, 0.0]))
        p0 = np.diag([1.0, 0.0]).astype(complex)
        rows = truncation_limit_experiment(rho, [{0: p0, 1: p0}], [2], opts=FAST)
        assert rows[0]["skipped"]
        assert "annihilates" in rows[0]["note"]

    def test_rank_zero_step_skipped(self):
        rho = dop((2, 2), np.diag([0.4, 0.1, 0.1, 0.4]))
        rows = truncation_limit_experiment(rho, [{0: np.zeros((2, 2))}, {0: np.eye(2)}], [2], opts=FAST)
        assert rows[0] == {"k": 0, "skipped": True, "note": "truncation annihilates state"}
        assert not rows[1]["skipped"] and rows[1]["c_k"] == 1.0


class TestInequalityVerifier:
    def test_bell_lb1_binds(self):
        report = verify_er_inequalities(lb1_samples=[bell_state()], opts=FAST)
        assert report["ok"]
        lows = [r["lower"] for r in report["rows"] if r["check"] == "neg-conditional-lower"]
        assert abs(max(lows) - math.log(2)) < 1e-9

    def test_lb1_near_singular_marginal_product(self):
        # rho_A x rho_B has eigenvalues down to 1.6e-11 on this fixture; the
        # lower bound is -S(A|B) = 0.0045042, not +inf
        report = verify_er_inequalities(lb1_samples=[gibbs_marginal_pair()], opts=FAST)
        assert report["ok"], report["violations"]
        lows = [r["lower"] for r in report["rows"]]
        assert all(abs(low - 0.0045042405) < 1e-9 for low in lows) and len(lows) == 2

    def test_mixed_bag(self):
        report = verify_er_inequalities(
            er_ub_samples=[random_density((3, 3), 9, seed=41)],
            mixing_samples=[
                (random_density((2, 2), 4, seed=42), random_density((2, 2), 4, seed=43), 0.3)
            ],
            lb2_samples=[random_pure((2, 2, 2), seed=44)],
            opts=SolverOpts(max_iters=150),
        )
        assert report["ok"], report["violations"]

    def test_type_guards(self):
        with pytest.raises(ValueError, match="bipartite"):
            verify_er_inequalities(lb1_samples=[random_density((2, 2, 2), 8, 0)], opts=FAST)
        with pytest.raises(ValueError, match="pure"):
            verify_er_inequalities(lb2_samples=[random_density((2, 2, 2), 8, 0)], opts=FAST)


class TestConvergenceDemo:
    def test_constant_sequence(self):
        bell = bell_state()
        rows = sequence_convergence_demo([bell, bell], bell, opts=FAST)
        vals = [r["value"] for r in rows]
        assert max(vals) - min(vals) < 1e-6
        assert all(r["trace_distance"] < 1e-12 for r in rows)

    def test_rows_say_why_each_solve_stopped(self):
        rho = random_density((2, 2), 4, seed=7)
        rows = sequence_convergence_demo([rho], bell_state(), opts=SolverOpts(max_iters=5))
        for row, state in zip(rows, (rho, bell_state())):
            sol = relative_entropy_entanglement(state, None, SolverOpts(max_iters=5))
            assert (row["status"], row["iters"], row["value"]) == (sol.status, sol.iterations, sol.value)

    def test_bell_interpolation_tracks_limit(self):
        bell = bell_state()
        mixed = np.eye(4, dtype=complex) / 4
        ks = [2, 8, 64]
        states = [dop((2, 2), (1 - 1 / k) * bell.mat + (1 / k) * mixed) for k in ks]
        rows = sequence_convergence_demo(states, bell, opts=FAST)
        qmis = [r["qmi"] for r in rows]
        vals = [r["value"] for r in rows]
        dists = [r["trace_distance"] for r in rows[:-1]]
        # as the sequence closes in on the limit state, the mutual
        # information and the measure estimates climb toward its values
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(qmis, qmis[1:]))
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - math.log(2)) < 1e-3
