import json
import math

import numpy as np
import pytest

import qsep.qmat as qmat_mod
from qsep.cli import COMMANDS, ConfigError, main, run
from qsep.entropy import g_entropy, von_neumann_entropy
from qsep.fixtures import FIXTURES, geometric_correlation, get_fixture
from qsep.qmat import DensityOp, DimSig, load_state, save_state


def test_list_fixtures_and_version(capsys):
    assert main(["--list-fixtures"]) == 0
    out = capsys.readouterr().out
    for name in FIXTURES:
        assert name in out
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_zeta_run(tmp_path):
    record = run({"command": "zeta", "family": "hamlogp:a=4,p=2"}, out_dir=tmp_path)
    assert abs(record["extra"]["extrapolated"] - math.exp(1 / 16)) < 0.01
    csv = (tmp_path / "zeta.csv").read_text().splitlines()
    assert csv[0] == "beta,value"
    assert len(csv) == 6


def test_er_on_bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(get_fixture("bell"), str(path))
    rt = load_state(str(path))
    assert np.array_equal(rt.mat, get_fixture("bell").mat)
    record = run(
        {"command": "er", "state": str(path), "seed": 0, "opts": {"max_iters": 60}},
        out_dir=tmp_path / "out",
    )
    sol = record["extra"]["solution"]
    assert abs(sol["value"] - math.log(2)) < 1e-3
    assert sol["atoms"]
    assert {"value", "gap", "iterations", "converged"} <= set(sol)
    # iteration 2 rebuilds the sigma of iteration 1; the CSV has no status column
    on_disk = json.loads((tmp_path / "out" / "record.json").read_text())["extra"]["solution"]
    assert sol["status"] == on_disk["status"] == "stalled"
    assert (tmp_path / "out" / "er.csv").read_text().splitlines()[0] == "value,gap,iters,converged"


def test_reproducible_csv_bytes(tmp_path):
    config = {
        "command": "er-reg",
        "state": "fixture:bell",
        "seed": 3,
        "k_max": 2,
        "opts": {"max_iters": 40},
    }
    run(dict(config), out_dir=tmp_path / "a")
    run(dict(config), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "er-reg.csv").read_bytes() == (tmp_path / "b" / "er-reg.csv").read_bytes()


def test_er_reg_record_names_two_copy_start(tmp_path):
    record = run(
        {"command": "er-reg", "state": "fixture:bell", "seed": 0, "opts": {"max_iters": 20}},
        out_dir=tmp_path,
    )
    extra = record["extra"]
    assert extra["lift_exact"] is True and extra["lift_pairs"] >= 1
    assert (tmp_path / "er-reg.csv").read_text().splitlines()[0] == "k,value,gap,iters"


def test_gibbs_csv_bytes_reproducible(tmp_path):
    config = {"command": "gibbs", "hamiltonian": "hamlinear:w=1", "E_grid": [0.5, 1.0, 2.0]}
    run(dict(config), out_dir=tmp_path / "a")
    run(dict(config), out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "gibbs.csv").read_bytes() == (tmp_path / "b" / "gibbs.csv").read_bytes()


def test_gibbs_writes_the_entropy_ceiling(tmp_path):
    # unit-spaced levels have the ceiling g(E) = (E+1) ln(E+1) - E ln E
    run({"command": "gibbs", "hamiltonian": "hamlinear:w=1", "E_grid": [0.01, 1.0]}, out_dir=tmp_path)
    lines = (tmp_path / "gibbs.csv").read_text().splitlines()
    assert lines[0] == "E,beta,F_H,ratio"
    for line in lines[1:]:
        e, _, ceiling, ratio = (float(x) for x in line.split(","))
        assert abs(ceiling / g_entropy(e) - 1.0) < 1e-15, e
        assert ratio == ceiling / e


VERIFY_SAMPLES = {
    "er_ub": {"dims": [2, 2], "rank": 4, "count": 1},
    "mixing": {"count": 1},
    "lb1": {"count": 1},
    "lb2": {"count": 1},
}
VERIFY_GRID = [
    ("marginal-upper", 0, None, None),
    ("mixing", 0, "rho", None),
    ("mixing", 0, "sigma", None),
    ("mixing", 0, "mixture", None),
    ("neg-conditional-lower", 0, None, None),
    ("pure-monogamy", 0, None, None),
    ("pure-monogamy", 0, None, [0, 1]),
    ("pure-monogamy", 0, None, [1, 2]),
    ("pure-monogamy", 0, None, [2, 0]),
]


@pytest.mark.parametrize(
    "config, keys, grid, stop",
    [
        ({"command": "er-reg", "k_max": 2}, ("k",), [(1,), (2,)], (0, "stalled")),
        (
            {"command": "er-energy", "hams": [[0.0, 1.0], [0.0, 1.0]], "E_grid": [0.5, 1.0]},
            ("E",), [(0.5,), (1.0,)], (0, "stalled"),
        ),
        ({"command": "fda", "rank_grid": [1, 2]}, ("k", "m"), [(0, 2), (1, 2)], (1, "stalled")),
        ({"command": "theorem2", "ks": [2, 8]}, ("k",), [(0,), (1,), ("limit",)], (2, "stalled")),
        (
            {"command": "verify", "samples": VERIFY_SAMPLES},
            ("check", "sample", "term", "pair"), VERIFY_GRID, (3, "gap-tol"),
        ),
    ],
    ids=["er-reg", "er-energy", "fda", "theorem2", "verify"],
)
def test_solver_records_say_why_each_solve_stopped(tmp_path, config, keys, grid, stop):
    config = dict(config, state="fixture:bell", seed=0, opts={"max_iters": 20})
    record = run(config, out_dir=tmp_path)
    solves = json.loads((tmp_path / "record.json").read_text())["extra"]["solves"]
    assert solves == record["extra"]["solves"]
    assert [tuple(s.get(key) for key in keys) for s in solves] == grid
    header = record["csv"]["header"]
    for s, want in zip(solves, grid):
        # a key the grid gives as None (verify's term and pair) is absent
        assert set(s) == {*(k for k, v in zip(keys, want) if v is not None), "status", "iters", "gap"}
        assert s["status"] in ("gap-tol", "stalled", "max-iters")
    # verify's CSV rows are checks, not solves, and carry no gap or iters
    if "gap" in header:
        for s, row in zip(solves, record["csv"]["rows"]):
            assert s["gap"] == row[header.index("gap")]
            if "iters" in header:
                assert s["iters"] == row[header.index("iters")]
    # Bell's uncapped solves and its E = 0.5 solve stop on an unchanged
    # sigma; verify's mixture solve reaches its gap tolerance
    assert solves[stop[0]]["status"] == stop[1]


def test_verify_zero_samples_vacuous_pass(tmp_path):
    record = run({"command": "verify", "seed": 1, "samples": {}}, out_dir=tmp_path)
    assert record["violations"] == []
    assert record["cells"] == 0


def test_missing_field_names_it():
    with pytest.raises(ConfigError, match="'hamiltonian'"):
        run({"command": "gibbs", "E_grid": [1.0]})
    with pytest.raises(ConfigError, match="'seed'"):
        run({"command": "er", "state": "fixture:bell"})
    with pytest.raises(ConfigError, match="'command'"):
        run({"command": "nosuch"})


def test_unknown_solver_opt_rejected():
    with pytest.raises(ConfigError, match="'opts'"):
        run({"command": "er", "state": "fixture:bell", "seed": 0, "opts": {"line_iters": 10}})


def test_state_rejection_reports_invariant(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [2], "re": [[0.5, 1.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}))
    with pytest.raises(ValueError, match="Hermiticity residual"):
        run({"command": "er", "state": str(bad), "seed": 0})


def test_main_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "entropy", "state": "fixture:ghz3-mixture"}))
    code = main(["entropy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "entropy.csv").read_text().splitlines()
    got = dict(line.split(",") for line in rows[1:])
    assert abs(float(got["QMI"]) - 2 * math.log(2)) < 1e-10


def test_main_nonzero_exit_on_violations(tmp_path, monkeypatch):
    import qsep.cli as cli_mod

    def fake(config):
        return ["x"], [[1.0]], {}, [{"kind": "synthetic"}]

    monkeypatch.setitem(cli_mod._HANDLERS, "entropy", fake)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "entropy", "state": "fixture:bell"}))
    assert main(["entropy", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_command_mismatch_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "zeta", "family": "hamlinear:w=1"}))
    with pytest.raises(SystemExit):
        main(["gibbs", "--config", str(cfg)])


def test_approx_command(tmp_path):
    rec = run(
        {
            "command": "approx",
            "state": "fixture:geomgibbs-pair",
            "subset": [0, 1],
            "r_grid": [1, 2, 3, 4],
            "witness_families": ["geometric:0.5", "geometric:0.5"],
            "bound": {"C": 2.0, "D": 2.0},
        },
        out_dir=tmp_path,
    )
    assert rec["violations"] == []
    header = rec["csv"]["header"]
    assert header == ["r", "c_r", "eps_r", "gentle_bound", "Y_r", "f_exact", "f_trunc", "diff"]
    assert len(rec["csv"]["rows"]) == 4


def test_approx_witness_count_error_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "approx",
                "state": "fixture:ghz3",
                "subset": [0],
                "r_grid": [1],
                "witness_families": ["geometric:0.5"] * 4,
            }
        )
    )
    assert main(["approx", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_theorem2_command(tmp_path):
    rec = run(
        {
            "command": "theorem2",
            "state": "fixture:bell",
            "seed": 0,
            "ks": [2, 8],
            "opts": {"max_iters": 50},
        },
        out_dir=tmp_path,
    )
    rows = rec["csv"]["rows"]
    assert len(rows) == 3  # two sequence members plus the limit row
    assert rows[-1][0] == "limit"


def test_er_energy_and_fda_commands(tmp_path):
    rec = run(
        {
            "command": "er-energy",
            "state": "fixture:bell",
            "seed": 0,
            "hams": [[0.0, 1.0], [0.0, 1.0]],
            "E_grid": [1.0, 2.0],
            "opts": {"max_iters": 60},
        },
        out_dir=tmp_path / "e",
    )
    assert rec["violations"] == []
    vals = [row[1] for row in rec["csv"]["rows"]]
    assert vals[1] <= vals[0] + 1e-6
    rec = run(
        {
            "command": "fda",
            "state": "fixture:gibbs-marginal-3x3",
            "seed": 0,
            "rank_grid": [2, 3],
            "opts": {"max_iters": 80},
        },
        out_dir=tmp_path / "f",
    )
    assert rec["cells"] == 2


def test_fda_rows_meet_maximally_correlated_closed_forms(tmp_path):
    # the top-r marginal compression of maxcorr-3x3 is maximally correlated
    # with the leading r x r block a_r of its matrix, renormalized, so row k
    # (rank k + 1) has E_R = S(diag a_r) - S(a_r)
    rec = run(
        {"command": "fda", "state": "fixture:maxcorr-3x3", "seed": 0, "rank_grid": [1, 2, 3], "opts": {"max_iters": 50}},
        out_dir=tmp_path,
    )
    a = geometric_correlation(0.5, 0.3, 3)
    rows = rec["csv"]["rows"]
    assert [row[0] for row in rows] == [0, 1, 2]
    for r, (_, _, _, value, gap, _) in enumerate(rows, start=1):
        a_r = a[:r, :r] / np.trace(a[:r, :r]).real
        eta = [-x * math.log(x) for x in np.diag(a_r).real]
        closed = sum(eta) - von_neumann_entropy(DensityOp(DimSig((r,)), a_r))
        assert abs(value - closed) <= 1e-12
        assert value - gap <= closed + 1e-9
@pytest.mark.parametrize(
    "config, field",
    [
        ({"opts": {"max_iters": "10"}}, "'opts'"),
        ({"opts": {"max_iters": -5}}, "'opts'"),
        ({"opts": {"restarts": 2.5}}, "'opts'"),
        ({"opts": {"tol": float("nan")}}, "'opts'"),
        ({"opts": {"max_iters": True}}, "'opts'"),
        ({"opts": {"seed": -1}}, "'opts'"),
        ({"seed": "abc"}, "'seed'"),
    ],
    ids=[
        "max-iters-str",
        "max-iters-negative",
        "restarts-float",
        "tol-nan",
        "max-iters-bool",
        "opts-seed-negative",
        "seed-str",
    ],
)
def test_invalid_solver_opts_name_field(config, field):
    base = {"command": "er", "state": "fixture:bell", "seed": 0}
    with pytest.raises(ConfigError, match=field):
        run({**base, **config})


@pytest.mark.parametrize("trunc_dim", ["x", 2.5, 0])
def test_invalid_trunc_dim_names_bound(tmp_path, capsys, trunc_dim):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "approx",
                "state": "fixture:geomgibbs-pair",
                "subset": [0, 1],
                "r_grid": [1],
                "witness_families": ["geometric:0.5", "geometric:0.5"],
                "bound": {"C": 2.0, "D": 2.0, "trunc_dim": trunc_dim},
            }
        )
    )
    with pytest.raises(SystemExit) as exc:
        main(["approx", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "'bound'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, field",
    [
        ({"command": "gibbs", "hamiltonian": "hamlinear:w=1", "E_grid": [1.0], "dim": 0}, "'dim'"),
        ({"command": "gibbs", "hamiltonian": "hamlinear:w=1", "E_grid": [1.0], "dim": 2.5}, "'dim'"),
        ({"command": "gibbs", "hamiltonian": "hamlinear:w=1", "E_grid": [1.0], "dim": True}, "'dim'"),
        ({"command": "er-reg", "state": "fixture:bell", "seed": 0, "k_max": 2.7}, "'k_max'"),
        (
            {
                "command": "approx",
                "state": "fixture:geomgibbs-pair",
                "subset": [0, 1],
                "r_grid": [1],
                "witness_families": ["geometric:0.5", "geometric:0.5"],
                "bound": {"trunc_dim": 2.5},
            },
            "'trunc_dim' in 'bound'",
        ),
    ],
    ids=["dim-zero", "dim-float", "dim-bool", "k-max-float", "trunc-dim-float"],
)
def test_invalid_integer_field_names_it(config, field):
    with pytest.raises(ConfigError, match=field):
        run(config)


@pytest.mark.parametrize("ks", [[0], [-1], [2, 1.5], [True], "1", [None]])
def test_theorem2_ks_must_be_counts(ks):
    # k = 0 divides by zero, and k = -1 mixes to 2 rho - 1/4, which is not a state
    with pytest.raises(ConfigError, match="'ks'"):
        run({"command": "theorem2", "state": "fixture:bell", "seed": 0, "ks": ks})


@pytest.mark.parametrize("e_grid", [[math.nan], [0.5, True], ["1.0"], [None], "1.0"])
def test_er_energy_grid_must_be_real(e_grid):
    # a NaN cap compares false against every energy, so it bounds nothing
    config = {"command": "er-energy", "state": "fixture:bell", "seed": 0, "hams": [[0.0, 1.0], [0.0, 1.0]]}
    with pytest.raises(ConfigError, match="'E_grid'"):
        run(dict(config, E_grid=e_grid))


def test_er_energy_config_file_refuses_nan(tmp_path, capsys):
    # the json loader reads the NaN literal as a float
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"state": "fixture:bell", "seed": 0, "hams": [[0.0, 1.0], [0.0, 1.0]], "E_grid": [0.5, NaN]}')
    with pytest.raises(SystemExit) as exc:
        main(["er-energy", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "'E_grid'" in capsys.readouterr().err


def test_er_energy_infinite_cap_is_uncapped():
    # the largest product energy of two qubits under diag(0, 1) is 2, so
    # both caps bind nothing and solve uncapped
    config = {"command": "er-energy", "state": "fixture:bell", "seed": 0, "hams": [[0.0, 1.0], [0.0, 1.0]]}
    opts = {"max_iters": 3}
    rows = run(dict(config, E_grid=[math.inf], opts=opts))["csv"]["rows"]
    want = run(dict(config, E_grid=[2.0], opts=opts))["csv"]["rows"]
    assert rows[0][0] == math.inf and rows[0][1:] == want[0][1:]


@pytest.mark.parametrize(
    "spec, name",
    [(["depolarizing"], "'depolarizing'"), (["dephasing", 0.1, 0.2], "'dephasing'"), (["identity", 0.5], "'identity'")],
    ids=["missing-weight", "extra-weight", "identity-with-weight"],
)
def test_channel_argument_count_names_channel(spec, name):
    config = {
        "command": "approx",
        "state": "fixture:geomgibbs-pair",
        "subset": [0, 1],
        "r_grid": [1],
        "channels": [spec, "identity"],
    }
    with pytest.raises(ValueError, match=name):
        run(config)


# a small config per command; the solver commands stop after 3 iterations
SMALL_CONFIGS = {
    "entropy": {"state": "fixture:bell"},
    "gibbs": {"hamiltonian": "hamlinear:w=1", "E_grid": [1.0]},
    "zeta": {"family": "hamlinear:w=1"},
    "approx": {"state": "fixture:ghz3", "subset": [0], "r_grid": [1]},
    "er": {"state": "fixture:bell"},
    "er-reg": {"state": "fixture:bell", "k_max": 1},
    "er-energy": {"state": "fixture:bell", "hams": [[0.0, 1.0], [0.0, 1.0]], "E_grid": [1.0]},
    "fda": {"state": "fixture:bell", "rank_grid": [1]},
    "verify": {"samples": {}},
    "theorem2": {"state": "fixture:bell", "ks": [2]},
}


def test_record_names_environment(tmp_path):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    assert set(SMALL_CONFIGS) == set(COMMANDS)
    for command, config in SMALL_CONFIGS.items():
        out = tmp_path / command
        run(dict(config, command=command, seed=0, opts={"max_iters": 3}), out_dir=out)
        env = json.loads((out / "record.json").read_text())["environment"]
        assert {"python", "numpy", "blas", "cpu_count", "threads"} <= set(env), command
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["blas"] == blas, command


def _rank_two_qutrit_pair() -> DensityOp:
    """(|00> + 2|11>)/sqrt 5 under a fixed non-diagonal local unitary: both
    marginals have rank 2 of 3, and the state is not diagonal."""
    psi = np.zeros(9, dtype=complex)
    psi[0], psi[4] = 1.0, 2.0
    k = np.arange(9.0).reshape(3, 3)
    u = np.linalg.qr(k + 1j * k.T + np.eye(3))[0]
    psi = np.kron(u, u.conj()) @ (psi / np.linalg.norm(psi))
    return DensityOp(DimSig((3, 3)), np.outer(psi, psi.conj()))


def test_entropy_takes_one_joint_eigensolve(tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_state(_rank_two_qutrit_pair(), str(path))
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(m.shape[0]) or eigvalsh(m))
    record = run({"command": "entropy", "state": str(path)}, out_dir=tmp_path)
    # the 9 validates the loaded state; then one spectrum per marginal and
    # one joint eigensolve on the 2 x 2 product of the marginal supports
    assert sizes == [9, 3, 3, 4]
    got = dict(record["csv"]["rows"])
    assert got["QMI"] == -got["S"] + got["S_marginal_0"] + got["S_marginal_1"]
    assert abs(got["S"]) < 1e-12
    assert abs(got["QMI"] - 2 * got["S_marginal_0"]) < 1e-12


@pytest.mark.parametrize(
    "config, field",
    [
        ({"command": "approx", "subset": [0, 1], "r_grid": [1.5, True]}, "'r_grid'"),
        ({"command": "approx", "subset": ["0", 1.9], "r_grid": [1]}, "'subset'"),
        ({"command": "approx", "subset": [False, 1], "r_grid": [1]}, "'subset'"),
        ({"command": "approx", "subset": 0, "r_grid": [1]}, "'subset'"),
        ({"command": "fda", "seed": 0, "rank_grid": [1.7]}, "'rank_grid'"),
        ({"command": "fda", "seed": 0, "rank_grid": [1], "m_grid": ["2"]}, "'m_grid'"),
        ({"command": "fda", "seed": 0, "rank_grid": [1], "m_grid": [0]}, "'m_grid'"),
    ],
    ids=["r-grid-float-bool", "subset-str-float", "subset-bool", "subset-not-list", "rank-float", "m-str", "m-zero"],
)
def test_grid_and_subset_entries_must_be_integers(config, field):
    # int() used to truncate these: r_grid [1.5, true] ran rank 1 twice
    with pytest.raises(ConfigError, match=field):
        run(dict(config, state="fixture:bell"))


README_APPROX = {
    "command": "approx",
    "state": "fixture:correlated-geometric",
    "subset": [0, 1, 2],
    "r_grid": [1, 2, 3, 4, 5, 6, 7, 8, 9],
    "channels": [["depolarizing", 0.05], ["dephasing", 0.1], "identity"],
    "witness_families": ["geometric:0.02", "geometric:0.02"],
    "bound": {"C": 2.0, "D": 3.0},
}


def test_readme_approx_compresses_by_index(tmp_path, monkeypatch):
    # correlated-geometric is diagonal, so every marginal eigenvector is a
    # basis vector: the reduction and each rank's expansion gather and
    # scatter, and no matmul pass runs; forced onto the matmul path, the one
    # reduction and nine expansions take two passes each, with the same CSV
    calls = []
    rows = qmat_mod._rows
    monkeypatch.setattr(qmat_mod, "_rows", lambda *a: calls.append(a) or rows(*a))
    fast = run(README_APPROX, out_dir=tmp_path / "index")["csv"]
    assert calls == []
    monkeypatch.setattr(qmat_mod, "_coordinate_index", lambda vs, dims: None)
    slow = run(README_APPROX, out_dir=tmp_path / "matmul")["csv"]
    assert len(calls) == 20
    assert fast == slow
    assert (tmp_path / "index" / "approx.csv").read_bytes() == (tmp_path / "matmul" / "approx.csv").read_bytes()
