import json
import math

import numpy as np
import pytest

import pdsplit as ps
from pdsplit import engine, fileio
from pdsplit.cli import main

from conftest import (OVERFLOW_POINT, make_lasso_problem, make_overflow_problem,
                      make_scalar_problem, point)


@pytest.fixture
def workdir(tmp_path):
    prob = make_scalar_problem(ps.l1_norm(1), ps.affine_monotone([[1.0]]),
                               z_fixtures=[(0.0, 0.0)])
    fileio.write_problem(prob, tmp_path / "problem.json")
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=5000,
                          resid_tol=1e-6, start=point([[2.0]], [[0.0]]))
    fileio.write_config(cfg, tmp_path / "config.json")
    return tmp_path


def test_run_solved_exit_zero(workdir, capsys):
    code = main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--trace", str(workdir / "out.csv")])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "solved"
    assert (workdir / "out.csv").exists()


def test_run_max_iter_exit_two(workdir, tmp_path):
    cfg = ps.SolverConfig(mode="fejer", relaxation=1.9, max_iter=3,
                          resid_tol=1e-12, exact_tol=-1.0, start=point([[2.0]], [[0.0]]))
    fileio.write_config(cfg, tmp_path / "short.json")
    code = main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(tmp_path / "short.json"),
                 "--trace", str(tmp_path / "out.csv")])
    assert code == 2


def test_run_with_schedule_file(workdir):
    sched = ps.random_admissible(1, 1, M=3, D=5, horizon=64, seed=1)
    fileio.write_schedule(sched, workdir / "sched.json")
    code = main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--schedule", str(workdir / "sched.json"),
                 "--trace", str(workdir / "out.csv")])
    assert code == 0


def test_run_missing_file_exit_one(workdir, capsys):
    code = main(["run", "--problem", str(workdir / "absent.json"),
                 "--config", str(workdir / "config.json"),
                 "--trace", str(workdir / "out.csv")])
    assert code == 1


def test_run_schema_error_exit_one(workdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"signature\": 5}")
    code = main(["run", "--problem", str(bad),
                 "--config", str(workdir / "config.json"),
                 "--trace", str(tmp_path / "out.csv")])
    assert code == 1


def test_run_names_a_missing_required_field(workdir, capsys):
    data = json.loads((workdir / "problem.json").read_text())
    del data["coupling"][0]["matrix"]
    (workdir / "problem.json").write_text(json.dumps(data))
    code = main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--trace", str(workdir / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err == (f"error: {workdir / 'problem.json'}.coupling[0]: "
                   "missing required field 'matrix'\n")


def test_validate_schedule_ok(workdir, capsys):
    sched = ps.periodic(2, 2, group_size=1, horizon=16)
    fileio.write_schedule(sched, workdir / "s.json")
    code = main(["validate-schedule", "--schedule", str(workdir / "s.json"),
                 "--m", "2", "--p", "2"])
    assert code == 0
    assert "certified" in capsys.readouterr().out


def test_validate_schedule_violation(workdir, capsys):
    data = {"M": 1, "D": 0, "horizon": 2, "I_seq": [[0, 1], []],
            "K_seq": [[0, 1], [0]], "c": {}, "d": {}}
    (workdir / "bad.json").write_text(json.dumps(data))
    code = main(["validate-schedule", "--schedule", str(workdir / "bad.json"),
                 "--m", "2", "--p", "2"])
    assert code == 3
    out = capsys.readouterr().out
    assert "violation" in out and "n=1" in out


@pytest.mark.parametrize("flag, other", [("--m", "--p"), ("--p", "--m")])
@pytest.mark.parametrize("count", ["-3", "0"])
def test_validate_schedule_block_count_below_one_is_a_usage_error(workdir, capsys, flag, other,
                                                                  count):
    # it used to print an index-out-of-range violation and exit 3
    fileio.write_schedule(ps.periodic(2, 2, group_size=1, horizon=16), workdir / "s.json")
    code = main(["validate-schedule", "--schedule", str(workdir / "s.json"),
                 flag, count, other, "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {count}\n"


def test_check_kt(workdir, capsys):
    (workdir / "good.json").write_text(json.dumps(fileio.point_to_dict(point([[0.0]], [[0.0]]))))
    code = main(["check-kt", "--problem", str(workdir / "problem.json"),
                 "--point", str(workdir / "good.json"), "--tol", "1e-8"])
    assert code == 0
    (workdir / "bad.json").write_text(json.dumps(fileio.point_to_dict(point([[1.0]], [[0.0]]))))
    code = main(["check-kt", "--problem", str(workdir / "problem.json"),
                 "--point", str(workdir / "bad.json"), "--tol", "1e-8"])
    assert code == 3
    capsys.readouterr()
    for tol, point_file in (("nan", "good.json"), ("-1", "good.json"), ("inf", "bad.json")):
        code = main(["check-kt", "--problem", str(workdir / "problem.json"),
                     "--point", str(workdir / point_file), "--tol", tol])
        assert code == 1  # nan and -1 used to fail every point (exit 3), inf to pass any
        err = capsys.readouterr().err
        assert err.startswith("error: --tol") and "Traceback" not in err


def test_check_kt_rejects_a_nan_residual(tmp_path, capsys):
    # the max skipped the NaN: it printed "max: 0.000000e+00" and exited 0
    fileio.write_problem(make_overflow_problem(), tmp_path / "problem.json")
    (tmp_path / "point.json").write_text(json.dumps(fileio.point_to_dict(OVERFLOW_POINT)))
    code = main(["check-kt", "--problem", str(tmp_path / "problem.json"),
                 "--point", str(tmp_path / "point.json"), "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert code == 3
    assert "dual[0]: nan" in out and "max: nan (tol" in out


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--config", "config.json", "--trace", "out.csv"],
                 id="run-without-problem"),
    pytest.param(["gen-schedule", "--type", "periodic", "--m", "x", "--p", "1", "--out", "s.json"],
                 id="gen-schedule-m-not-an-integer"),
    pytest.param(["solve"], id="unknown-command"),
])
def test_usage_errors_exit_one(argv, capsys):
    # exit code 2 means "iteration budget exhausted"; argparse used to exit 2 here
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["gen-schedule", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: pdsplit" in capsys.readouterr().out


def test_compare_identical_and_divergent(workdir, capsys):
    from pdsplit.engine import IterationRecord
    recs = [IterationRecord(n, 0.1 * n, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
            for n in range(3)]
    fileio.write_trace(recs, workdir / "a.csv")
    fileio.write_trace(recs, workdir / "b.csv")
    assert main(["compare", "--trace-a", str(workdir / "a.csv"),
                 "--trace-b", str(workdir / "b.csv"), "--tol", "0"]) == 0
    changed = recs[:1] + [IterationRecord(1, 0.100001, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())] \
        + recs[2:]
    fileio.write_trace(changed, workdir / "c.csv")
    capsys.readouterr()
    assert main(["compare", "--trace-a", str(workdir / "a.csv"),
                 "--trace-b", str(workdir / "c.csv"), "--tol", "0"]) == 3
    assert "row 2" in capsys.readouterr().out  # header is row 0
    assert main(["compare", "--trace-a", str(workdir / "a.csv"),
                 "--trace-b", str(workdir / "c.csv"), "--tol", "1e-3"]) == 0


def test_compare_numeric_reports_column(workdir, capsys):
    from pdsplit.engine import IterationRecord
    a = [IterationRecord(0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())]
    b = [IterationRecord(0, 0.5, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())]
    fileio.write_trace(a, workdir / "a.csv")
    fileio.write_trace(b, workdir / "b.csv")
    assert main(["compare", "--trace-a", str(workdir / "a.csv"),
                 "--trace-b", str(workdir / "b.csv"), "--tol", "1e-6"]) == 3
    assert "tau" in capsys.readouterr().out


def test_compare_nan_cells_and_bad_tolerances(workdir, capsys):
    from pdsplit.engine import IterationRecord
    for name, theta in (("nan", math.nan), ("nan2", math.nan), ("five", 5.0)):
        fileio.write_trace([IterationRecord(0, theta, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())],
                           workdir / f"{name}.csv")

    def compare(a, b, tol):
        return main(["compare", "--trace-a", str(workdir / f"{a}.csv"),
                     "--trace-b", str(workdir / f"{b}.csv"), "--tol", tol])

    assert compare("nan", "five", "1e-9") == 3  # was "equal within 1e-09"
    assert "theta" in capsys.readouterr().out
    assert compare("nan", "nan2", "1e-9") == 0
    for tol in ("nan", "-1", "inf"):
        assert compare("nan", "nan2", tol) == 1  # nan used to pass any pair, -1 none
        err = capsys.readouterr().err
        assert err.startswith("error: --tol") and "Traceback" not in err


def test_run_fractional_schedule_field_exits_one(workdir, tmp_path, capsys):
    data = fileio.schedule_to_dict(ps.synchronous(1, 1))
    data["horizon"] = 2.7  # was truncated to 2
    (tmp_path / "sched.json").write_text(json.dumps(data))
    code = main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--schedule", str(tmp_path / "sched.json"), "--trace", str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    assert "horizon: expected an integer" in err
    assert not (tmp_path / "out.csv").exists()


def test_gen_schedule_then_validate(workdir, capsys):
    out = workdir / "gen.json"
    code = main(["gen-schedule", "--type", "random", "--m", "3", "--p", "2",
                 "--M", "2", "--D", "3", "--horizon", "32", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    assert main(["validate-schedule", "--schedule", str(out),
                 "--m", "3", "--p", "2"]) == 0
    code = main(["gen-schedule", "--type", "periodic", "--m", "4", "--p", "2",
                 "--group-size", "2", "--horizon", "16",
                 "--lag-pattern", "sawtooth", "--lag-value", "2",
                 "--out", str(out)])
    assert code == 0
    sched = fileio.parse_schedule(out)
    assert sched.M == 2 and sched.D == 2
    for bad in (["--type", "periodic", "--m", "-1", "--p", "1"],  # was an AssertionError
                ["--type", "periodic", "--m", "1", "--p", "1",
                 "--lag-pattern", "constant", "--lag-value", "-1"],  # was an AssertionError
                ["--type", "random", "--m", "0", "--p", "1"],
                ["--type", "random", "--m", "1", "--p", "1", "--seed", "-1"]):  # a ValueError
        capsys.readouterr()
        assert main(["gen-schedule", *bad, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_run_trace_reproducible_bytes(workdir, tmp_path):
    args = ["run", "--problem", str(workdir / "problem.json"),
            "--config", str(workdir / "config.json")]
    main(args + ["--trace", str(tmp_path / "t1.csv")])
    main(args + ["--trace", str(tmp_path / "t2.csv")])
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def _run_with(workdir, tmp_path, problem=None, config=None):
    """Run the CLI on the workdir files, with edited copies of the problem or config data."""
    paths = {}
    for name, edit in (("problem", problem), ("config", config)):
        paths[name] = workdir / f"{name}.json"
        if edit is not None:
            data = json.loads(paths[name].read_text())
            edit(data)
            paths[name] = tmp_path / f"edited_{name}.json"
            paths[name].write_text(json.dumps(data))
    return main(["run", "--problem", str(paths["problem"]), "--config", str(paths["config"]),
                 "--trace", str(tmp_path / "out.csv")])


def _set(path, value):
    def edit(data):
        *outer, last = path
        for key in outer:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("path, value", [
    (("max_iter",), "10"),                              # was an uncaught TypeError
    (("relaxation",), "fast"),                          # was an uncaught ValueError
    (("perturbation",), {"seed": "x", "scale": 0.1}),   # was an uncaught ValueError
    (("gamma",), [1.0, "x"]),
    (("start", "x"), [["a"]]),
    (("inexact",), {"beta": "1", "sigma": 0.1, "delta": 1.0, "zeta": 0.1}),
])
def test_run_malformed_config_is_a_schema_error(workdir, tmp_path, capsys, path, value):
    assert _run_with(workdir, tmp_path, config=_set(path, value)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert ".".join(path) in err  # the message names the field


def test_run_negative_perturbation_seed_is_a_config_error(workdir, tmp_path, capsys):
    # a JSON integer that the seeded generator rejects: was an uncaught numpy ValueError
    edit = _set(("perturbation",), {"seed": -1, "scale": 0.1})
    assert _run_with(workdir, tmp_path, config=edit) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "perturbation.seed" in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("path", [
    ("B_ops", 0, "M"),          # an operator parameter (was: runs, exit 4)
    ("A_ops", 0, "weight"),
    ("coupling", 0, "matrix"),
    ("z_star",),
    ("r",),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_rejects_non_finite_problem_data(workdir, tmp_path, capsys, path, bad):
    def edit(data):
        *outer, last = path
        for key in outer:
            data = data[key]
        data[last] = (np.asarray(data[last], dtype=float) * 0 + bad).tolist()
    assert _run_with(workdir, tmp_path, problem=edit) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


def _fields(**fields):
    def edit(data):
        data.update(fields)
    return edit


_TWO_PRIMAL = {"primal_dims": [1, 1], "dual_dims": [1]}


@pytest.mark.parametrize("problem, config, message", [
    pytest.param(_fields(subspace={"variant": "nullspace", "C": [[1.0]]}), None,
                 "nullspace matrix has 1 columns, expected 2", id="nullspace-columns"),
    pytest.param(_fields(signature=_TWO_PRIMAL, A_ops=[{"kind": "zero", "dim": 1}] * 2,
                         z_star=[[0.0], [0.0]], known_Z_points=[],
                         subspace={"variant": "linear_primal", "A1": [[1.0]]}), None,
                 "linear_primal subspace requires a single primal block", id="linear-two-blocks"),
    pytest.param(_fields(subspace={"variant": "linear_primal", "A1": [[1.0, 0.0], [0.0, 1.0]]}),
                 None, "A1 has shape (2, 2), expected (1, 1)", id="A1-shape"),
    pytest.param(_fields(A_ops=[{"kind": "quadratic", "Q": [[1.0]]}],
                         subspace={"variant": "linear_primal", "A1": [[2.0]]}), None,
                 "subspace matrix A1 does not match the primal operator", id="A1-mismatch"),
    pytest.param(_fields(A_ops=[{"kind": "l1_norm", "dim": 1}] * 2), None,
                 "2 primal operators for 1 blocks", id="operator-count"),
    pytest.param(_fields(z_star=[[0.0, 0.0]]), None, "z_star dims (2,) != (1,)", id="z_star-dims"),
    pytest.param(_fields(r=[[0.0], [0.0]]), None, "r dims (1, 1) != (1,)", id="r-dims"),
    pytest.param(_fields(A_ops=[{"kind": "zero", "dim": 1}],
                         B_ops=[{"kind": "normal_cone_box", "lo": [-1.0], "hi": [1.0]}],
                         known_Z_points=[{"x": [[0.5]], "v_star": [[0.0]]}],
                         subspace={"variant": "nullspace", "C": [[1.0, 0.0]]}), None,
                 "known_Z_points[0] lies off the subspace (residual 5.000e-01)",
                 id="fixture-off-subspace"),
    pytest.param(_fields(A_ops=[{"kind": "box_indicator", "lo": [0.0, 0.0], "hi": [1.0]}]), None,
                 "box_indicator hi has shape (1,), expected (2,)", id="box-bound-shape"),
    pytest.param(_fields(B_ops=[{"kind": "normal_cone_box", "lo": [1.0], "hi": [0.0]}]), None,
                 "box bounds must satisfy lo <= hi coordinatewise", id="box-lo-above-hi"),
    pytest.param(_fields(A_ops=[{"kind": "quadratic", "Q": [[1.0, 0.0]]}]), None,
                 "Q must be square, got (1, 2)", id="quadratic-not-square"),
    pytest.param(_fields(B_ops=[{"kind": "affine_monotone", "M": [[1.0, 0.0]]}]), None,
                 "M must be square, got (1, 2)", id="affine-not-square"),
    pytest.param(_fields(z_star=[]), None, "a block vector needs at least one block",
                 id="no-blocks"),
    pytest.param(None, _fields(perturbation={"seed": 1, "scale": 0.25}),
                 "perturbation injection requires an inexactness budget",
                 id="perturbation-without-budget"),
])
def test_run_rejects_invalid_problem_or_config_data(workdir, tmp_path, capsys, problem, config,
                                                    message):
    assert _run_with(workdir, tmp_path, problem, config) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f" {message}\n") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("path, bad", [
    (("start", "x"), [[math.nan]]),
    (("start", "v_star"), [[math.inf]]),
    (("epsilon",), math.nan),
    (("resid_tol",), math.inf),
    (("relaxation",), [1.0, -math.inf]),
    pytest.param(("gamma",), 10**400, id="gamma-huge-int"),  # was an OverflowError traceback
    pytest.param(("epsilon",), -10**400, id="epsilon-huge-int"),
])
def test_run_rejects_non_finite_config_data(workdir, tmp_path, capsys, path, bad):
    assert _run_with(workdir, tmp_path, config=_set(path, bad)) == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and ".".join(path) in err


@pytest.mark.parametrize("x", [pytest.param([[1.0, 0.0, 99.0]], id="extra-coordinate"),
                               pytest.param([[1.0], [0.0]], id="mis-split")])
def test_points_with_the_wrong_blocks_exit_one(tmp_path, capsys, x):
    # the lasso solution's x with a wrong block layout: check-kt passed it with max 0, and as a
    # fixture it loaded, then the run solved or died in a numpy broadcast traceback
    fileio.write_problem(make_lasso_problem(), tmp_path / "lasso.json")
    fileio.write_config(ps.SolverConfig(max_iter=10), tmp_path / "config.json")
    (tmp_path / "p.json").write_text(json.dumps({"x": x, "v_star": [[-1.0, -1.0]]}))
    code = main(["check-kt", "--problem", str(tmp_path / "lasso.json"),
                 "--point", str(tmp_path / "p.json"), "--tol", "1e-6"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "p.json has block dims" in err
    data = fileio.problem_to_dict(make_lasso_problem())
    data["known_Z_points"][0]["x"] = x
    (tmp_path / "fixture.json").write_text(json.dumps(data))
    code = main(["run", "--problem", str(tmp_path / "fixture.json"),
                 "--config", str(tmp_path / "config.json"), "--trace", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "Traceback" not in err
    assert "known_Z_points[0] has block dims" in err


def test_run_reports_the_residual_of_the_last_iteration(tmp_path, capsys):
    # with a trace stride the last traced row is not the last iteration; its residual sum
    # (2.66e-5 at n = 3000) was reported, above what the stopping test certified
    fileio.write_problem(make_lasso_problem(), tmp_path / "lasso.json")
    cfg = ps.SolverConfig(mode="haugazeau", max_iter=10000, resid_tol=3e-6, trace_stride=1000)
    fileio.write_config(cfg, tmp_path / "config.json")
    assert main(["run", "--problem", str(tmp_path / "lasso.json"), "--config",
                 str(tmp_path / "config.json"), "--trace", str(tmp_path / "t.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    _, rows = fileio.read_trace(tmp_path / "t.csv")
    assert summary["status"] == "solved" and rows[-1][0] < summary["iterations"] - 1
    final = np.concatenate(summary["final"]["x"] + summary["final"]["v_star"])
    assert summary["final_residual_sum"] <= cfg.resid_tol * (1.0 + np.linalg.norm(final))


def test_compare_undecodable_trace_is_a_schema_error(workdir, capsys):
    from pdsplit.engine import IterationRecord
    fileio.write_trace([IterationRecord(0, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())],
                       workdir / "good.csv")
    (workdir / "bad.csv").write_bytes(b"n,theta\n0,\xff\xfe\n")  # was a UnicodeDecodeError
    code = main(["compare", "--trace-a", str(workdir / "good.csv"),
                 "--trace-b", str(workdir / "bad.csv"), "--tol", "1e-6"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and "bad.csv" in err


def _compare(a, b, tol):
    return main(["compare", "--trace-a", str(a), "--trace-b", str(b), "--tol", tol])


def test_compare_reports_length_and_header_mismatches(workdir, capsys):
    from pdsplit.engine import IterationRecord
    recs = [IterationRecord(n, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, (0.25,)) for n in range(3)]
    fileio.write_trace(recs, workdir / "a.csv")
    text = (workdir / "a.csv").read_bytes()
    (workdir / "a_blank.csv").write_bytes(text + b"\n")  # one trailing empty line more
    head, _, rest = text.partition(b"\n")
    (workdir / "a_gap.csv").write_bytes(head + b"\n" + rest.replace(b"\n", b"\n\n", 1))
    fileio.write_trace(recs[:2], workdir / "short.csv")
    fileio.write_trace([IterationRecord(n, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, ())
                        for n in range(3)], workdir / "no_dist.csv")
    capsys.readouterr()
    assert _compare(workdir / "a.csv", workdir / "a_blank.csv", "0") == 3
    assert capsys.readouterr().out == "diverges at row 5: length mismatch\n"  # header, 3 rows, ""
    assert _compare(workdir / "a.csv", workdir / "a_blank.csv", "1e-9") == 3  # the same lines
    assert capsys.readouterr().out == "diverges at row 5: length mismatch\n"
    for tol in ("0", "1e-9"):  # an empty line between rows 1 and 2
        assert _compare(workdir / "a.csv", workdir / "a_gap.csv", tol) == 3
        assert capsys.readouterr().out == "diverges at row 2\n"
    assert _compare(workdir / "a.csv", workdir / "no_dist.csv", "1e-9") == 3
    assert capsys.readouterr().out == "diverges at row 0: header mismatch\n"
    assert _compare(workdir / "a.csv", workdir / "short.csv", "1e-9") == 3
    assert capsys.readouterr().out == "diverges at row 3: length mismatch\n"


@pytest.mark.parametrize("content, message", [
    pytest.param(b"", "empty trace file", id="empty"),
    pytest.param(b"n,theta\n0,0.5\n1\n", "row 2 has 1 cells, header has 2", id="ragged-row"),
    pytest.param(b"n,theta\n0,x\n", "row 1: could not convert string to float: 'x'",
                 id="non-number-cell"),
])
def test_compare_a_malformed_trace_exits_one_at_a_tolerance_and_three_at_zero(workdir, capsys,
                                                                             content, message):
    (workdir / "good.csv").write_bytes(b"n,theta\n0,0.5\n")
    (workdir / "bad.csv").write_bytes(content)
    assert _compare(workdir / "good.csv", workdir / "bad.csv", "1e-6") == 1
    err = capsys.readouterr().err
    assert err == f"error: {workdir / 'bad.csv'}: {message}\n"
    assert _compare(workdir / "good.csv", workdir / "bad.csv", "0") == 3  # any byte difference
    assert capsys.readouterr().out.startswith("diverges at row ")


# --- the streamed trace -------------------------------------------------------

def _inconsistent_problem():
    """A = 0, B = the constant 1, L = 1 on the line x + 2 v* = 0: no KT point there, and the
    anchored engine reports an empty outer approximation at iteration 4."""
    sig = ps.SpaceSignature((1,), (1,))
    return ps.ProblemSpec(sig, [ps.zero(1)], [ps.affine_monotone([[0.0]], [1.0])],
                          ps.CouplingMap(sig, {(0, 0): [[1.0]]}),
                          ps.BlockVector([[0.0]]), ps.BlockVector([[0.0]]),
                          ps.SubspaceSpec("nullspace", C=[[1.0, 2.0]]))


_LASSO = dict(mode="haugazeau", max_iter=10000, resid_tol=3e-6)
_STREAMED_RUNS = {
    "solved": (make_lasso_problem, _LASSO, None, 0),
    "stride-1000": (make_lasso_problem, dict(_LASSO, trace_stride=1000), None, 0),
    "max-iter-0": (make_lasso_problem, dict(_LASSO, max_iter=0), None, 2),
    "inconsistent": (_inconsistent_problem, dict(mode="haugazeau", max_iter=500), None, 4),
    "perturbed-random": (
        make_lasso_problem,
        dict(mode="fejer", max_iter=5000, resid_tol=1e-6,
             inexact=ps.InexactnessBudget(beta=1.0, sigma=0.3, delta=1.0, zeta=0.3),
             perturbation=ps.PerturbationRule(seed=3, scale=0.5)),
        lambda: ps.random_admissible(1, 1, M=3, D=5, horizon=512, seed=1), 0),
}


@pytest.mark.parametrize("name", list(_STREAMED_RUNS))
def test_the_streamed_trace_is_the_written_trace_of_the_run(tmp_path, capsys, name):
    make_problem, config, make_sched, code = _STREAMED_RUNS[name]
    fileio.write_problem(make_problem(), tmp_path / "problem.json")
    fileio.write_config(ps.SolverConfig(**config), tmp_path / "config.json")
    argv = ["run", "--problem", str(tmp_path / "problem.json"),
            "--config", str(tmp_path / "config.json"), "--trace", str(tmp_path / "cli.csv")]
    if make_sched is not None:
        fileio.write_schedule(make_sched(), tmp_path / "schedule.json")
        argv += ["--schedule", str(tmp_path / "schedule.json")]
    assert main(argv) == code
    problem = fileio.parse_problem(tmp_path / "problem.json")
    sched = fileio.parse_schedule(tmp_path / "schedule.json") if make_sched else None
    res = ps.run(problem, fileio.parse_config(tmp_path / "config.json"), sched)
    fileio.write_trace(res.trace, tmp_path / "ref.csv", len(problem.known_Z_points))
    assert json.loads(capsys.readouterr().out)["status"] == res.status
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_a_schedule_for_other_blocks_leaves_no_trace_file(workdir, tmp_path, capsys):
    # a schedule for two primal blocks, on a one-block problem
    fileio.write_schedule(ps.periodic(2, 1, group_size=1, horizon=8), tmp_path / "schedule.json")
    assert main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--schedule", str(tmp_path / "schedule.json"),
                 "--trace", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_a_block_index_far_out_of_range_is_a_certification_error(workdir, tmp_path, capsys):
    # the lag table is sized by the blocks of iteration 0, not by the largest index in the sets
    (tmp_path / "schedule.json").write_text(json.dumps(
        {"horizon": 2, "I_seq": [[0], [10**10]], "K_seq": [[0], [0]], "c": {"0": {"1": 0}},
         "M": 1, "D": 1}))
    assert main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--schedule", str(tmp_path / "schedule.json"),
                 "--trace", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == ("error: schedule not certified: primal index out of "
                                       "range in (10000000000,) (n=1)\n")


def _counting_advance(monkeypatch, stop_after=None):
    """Count engine.advance calls; after stop_after of them, interrupt the run."""
    calls, advance = [], engine.advance

    def counted(state):
        if len(calls) == stop_after:
            raise KeyboardInterrupt
        calls.append(state.n)
        return advance(state)
    monkeypatch.setattr(engine, "advance", counted)
    return calls


def test_an_unwritable_trace_path_fails_at_the_first_row(workdir, tmp_path, capsys, monkeypatch):
    # the trace used to be written after the whole solve, so the error came only then
    calls = _counting_advance(monkeypatch)
    code = main(["run", "--problem", str(workdir / "problem.json"),
                 "--config", str(workdir / "config.json"),
                 "--trace", str(tmp_path / "missing" / "t.csv")])
    assert code == 1 and len(calls) <= 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t.csv" in err
    assert not (tmp_path / "missing").exists()


def test_an_interrupted_run_keeps_the_rows_written_so_far(workdir, tmp_path, monkeypatch):
    _counting_advance(monkeypatch, stop_after=3)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--problem", str(workdir / "problem.json"),
              "--config", str(workdir / "config.json"), "--trace", str(tmp_path / "t.csv")])
    header, rows = fileio.read_trace(tmp_path / "t.csv")
    assert header[-1] == "dist_z0" and [row[0] for row in rows] == [0, 1, 2]


_BUDGET = {"beta": 1.0, "sigma": 0.3, "delta": 1.0, "zeta": 0.3}
_PERIODIC = {"type": "periodic", "m": 1, "p": 1, "group_size": 1, "horizon": 4}


def _spec(**fields):
    """An edit that replaces a schedule file's data with a generator spec."""
    def edit(data):
        data.clear()
        data.update(fields)
    return edit


# (file, edit of its data, the object's place after the file name, the stray field)
_STRAY_FIELDS = [
    ("problem", lambda d: d.update(subpsace=d.pop("subspace")), "", "subpsace"),
    ("problem", lambda d: d["signature"].update(primal_dimz=[1]), ".signature", "primal_dimz"),
    ("problem", lambda d: d["coupling"][0].update(scale=2.0), ".coupling[0]", "scale"),
    ("problem", lambda d: d["subspace"].update(CC=[[1.0, 0.0]]), ".subspace", "CC"),
    ("problem", lambda d: d["known_Z_points"][0].update(v=[[0.0]]), ".known_Z_points[0]", "v"),
    ("config", lambda d: d["start"].update(y=[[0.0]]), ".start", "y"),
    ("config", lambda d: d.update(inexact={**_BUDGET, "betta": 1.0}), ".inexact", "betta"),
    ("config", lambda d: d.update(inexact=_BUDGET,
                                  perturbation={"seed": 1, "scale": 0.1, "sead": 2}),
     ".perturbation", "sead"),
    ("schedule", lambda d: d.update(type_=None), "", "type_"),
    ("schedule", _spec(**_PERIODIC, laag={"pattern": "sawtooth", "max": 2}), "", "laag"),
    ("schedule", _spec(**_PERIODIC, lag={"pattern": "zero", "value": 2}), ".lag", "value"),
    ("schedule", _spec(**_PERIODIC, lag={"pattern": "constant", "value": 1, "max": 1}), ".lag",
     "max"),
    ("schedule", _spec(type="random", m=1, p=1, M=1, D=0, horizon=4, seed=0, sed=1), "", "sed"),
]


@pytest.mark.parametrize("name, edit, place, field", _STRAY_FIELDS,
                         ids=[f"{name}{place}-{field}" for name, _, place, field in _STRAY_FIELDS])
def test_run_rejects_an_unknown_field_in_every_object(workdir, tmp_path, capsys, name, edit, place,
                                                      field):
    # each loaded and ran: a misspelt subspace ran unconfined and a misspelt lag with lag 0
    fileio.write_schedule(ps.synchronous(1, 1), workdir / "schedule.json")
    paths = {key: workdir / f"{key}.json" for key in ("problem", "config", "schedule")}
    argv = ["run", *(arg for key, path in paths.items() for arg in (f"--{key}", str(path))),
            "--trace", str(tmp_path / "out.csv")]
    assert main(argv) == 0  # the files as written load and solve
    capsys.readouterr()
    (tmp_path / "out.csv").unlink()
    data = json.loads(paths[name].read_text())
    edit(data)
    paths[name].write_text(json.dumps(data))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {paths[name]}{place}: unknown fields [{field!r}]\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("name", ["point", "problem"])
def test_check_kt_rejects_an_unknown_field(workdir, capsys, name):
    files = {"problem": workdir / "problem.json", "point": workdir / "point.json"}
    files["point"].write_text(json.dumps(fileio.point_to_dict(point([[0.0]], [[0.0]]))))
    argv = ["check-kt", "--problem", str(files["problem"]), "--point", str(files["point"]),
            "--tol", "1e-8"]
    assert main(argv) == 0
    capsys.readouterr()
    files[name].write_text(json.dumps({**json.loads(files[name].read_text()), "extra": 0}))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {files[name]}: unknown fields ['extra']\n"


def test_the_messages_for_unknown_operator_and_config_fields_stay(workdir, tmp_path, capsys):
    assert _run_with(workdir, tmp_path, problem=_set(("A_ops", 0, "wieght"), 5.0)) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'edited_problem.json'}.A_ops[0]: "
                                       "unknown fields ['wieght'] for kind 'l1_norm'\n")
    assert _run_with(workdir, tmp_path, config=_set(("lambda",), 1.9)) == 1
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'edited_config.json'}: unknown config fields ['lambda']\n"


@pytest.mark.parametrize("pattern, lag_value, lag", [
    (("zero",), "5", {"pattern": "zero"}),  # the zero pattern ignores --lag-value
    (("constant", 2), "2", {"pattern": "constant", "value": 2}),
    (("sawtooth", 3), "3", {"pattern": "sawtooth", "max": 3}),
], ids=["zero", "constant", "sawtooth"])
def test_gen_schedule_and_spec_files_give_the_generated_schedule(tmp_path, pattern, lag_value,
                                                                 lag):
    # the CLI's --lag-pattern, a spec file's lag object and periodic read one pattern table
    expected = fileio.schedule_to_dict(ps.periodic(3, 2, 1, 12, pattern))
    assert main(["gen-schedule", "--type", "periodic", "--m", "3", "--p", "2", "--horizon", "12",
                 "--lag-pattern", pattern[0], "--lag-value", lag_value,
                 "--out", str(tmp_path / "s.json")]) == 0
    assert json.loads((tmp_path / "s.json").read_text()) == expected
    spec = {"type": "periodic", "m": 3, "p": 2, "group_size": 1, "horizon": 12, "lag": lag}
    assert fileio.schedule_to_dict(fileio.schedule_from_dict(spec)) == expected


@pytest.mark.parametrize("q", [-1e100, -1e150])
def test_a_huge_finite_offset_runs_to_the_iteration_budget(tmp_path, q):
    # squaring the separator level as a Python float raised OverflowError past |level| 1.3e154
    prob = make_scalar_problem(ps.l1_norm(1), ps.quadratic([[1.0]], [q]))
    cfg = ps.SolverConfig(max_iter=20)
    assert ps.run(prob, cfg).status == "max_iter"
    fileio.write_problem(prob, tmp_path / "problem.json")
    fileio.write_config(cfg, tmp_path / "config.json")
    assert main(["run", "--problem", str(tmp_path / "problem.json"),
                 "--config", str(tmp_path / "config.json"),
                 "--trace", str(tmp_path / "out.csv")]) == 2
