import json
import math

import numpy as np
import pytest

from qsep.cli import ConfigError, main, run
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


@pytest.mark.parametrize(
    "config, keys, grid, stalled",
    [
        ({"command": "er-reg", "k_max": 2}, ("k",), [(1,), (2,)], 0),
        ({"command": "er-energy", "hams": [[0.0, 1.0], [0.0, 1.0]], "E_grid": [0.5, 1.0]}, ("E",), [(0.5,), (1.0,)], 0),
        ({"command": "fda", "rank_grid": [1, 2]}, ("k", "m"), [(0, 2), (1, 2)], 1),
        ({"command": "theorem2", "ks": [2, 8]}, ("k",), [(0,), (1,), ("limit",)], 2),
    ],
    ids=["er-reg", "er-energy", "fda", "theorem2"],
)
def test_solver_records_say_why_each_solve_stopped(tmp_path, config, keys, grid, stalled):
    config = dict(config, state="fixture:bell", seed=0, opts={"max_iters": 20})
    record = run(config, out_dir=tmp_path)
    solves = json.loads((tmp_path / "record.json").read_text())["extra"]["solves"]
    assert solves == record["extra"]["solves"]
    assert [tuple(s[key] for key in keys) for s in solves] == grid
    header = record["csv"]["header"]
    for s, row in zip(solves, record["csv"]["rows"]):
        assert set(s) == {*keys, "status", "iters", "gap"}
        assert s["status"] in ("gap-tol", "stalled", "max-iters")
        assert s["gap"] == row[header.index("gap")]
        if "iters" in header:
            assert s["iters"] == row[header.index("iters")]
    # Bell's uncapped solves and its E = 0.5 solve stop on an unchanged sigma
    assert solves[stalled]["status"] == "stalled"


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


def test_record_names_environment(tmp_path):
    run({"command": "gibbs", "hamiltonian": "hamlinear:w=1", "E_grid": [1.0]}, out_dir=tmp_path)
    env = json.loads((tmp_path / "record.json").read_text())["environment"]
    assert {"python", "numpy", "cpu_count", "threads"} <= set(env)
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
