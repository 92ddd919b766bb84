import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdsplit as ps
from pdsplit import fileio
from pdsplit.cli import main
from pdsplit.engine import IterationRecord
from pdsplit.errors import ConfigError, SchemaError

from conftest import (make_lasso_problem, make_linear_primal_problem, make_scalar_problem,
                      random_problem)


def assert_problems_equal(a, b):
    assert a.signature == b.signature
    for x, y in zip(a.A_ops + a.B_ops, b.A_ops + b.B_ops):
        assert x.kind == y.kind and x.dim == y.dim
        assert set(x.params) == set(y.params)
        for key in x.params:
            assert np.array_equal(np.asarray(x.params[key]), np.asarray(y.params[key]))
    assert set(a.coupling.entries) == set(b.coupling.entries)
    for key in a.coupling.entries:
        assert np.array_equal(a.coupling.entries[key], b.coupling.entries[key])
    for u, v in zip((a.z_star, a.r), (b.z_star, b.r)):
        assert all(np.array_equal(p, q) for p, q in zip(u.blocks, v.blocks))
    assert a.subspace.variant == b.subspace.variant
    assert len(a.known_Z_points) == len(b.known_Z_points)
    for za, zb in zip(a.known_Z_points, b.known_Z_points):
        assert all(np.array_equal(p, q) for p, q in zip(za.x.blocks, zb.x.blocks))
        assert all(np.array_equal(p, q) for p, q in zip(za.v_star.blocks, zb.v_star.blocks))


@pytest.mark.parametrize("build", [make_lasso_problem,
                                   lambda: make_linear_primal_problem("linear_primal"),
                                   lambda: random_problem(3),
                                   lambda: random_problem(17)])
def test_problem_round_trip(tmp_path, build):
    spec = build()
    path = tmp_path / "prob.json"
    fileio.write_problem(spec, path)
    assert_problems_equal(spec, fileio.parse_problem(path))


def test_problem_rejects_non_psd(tmp_path):
    spec = make_lasso_problem()
    data = fileio.problem_to_dict(spec)
    data["B_ops"][0]["Q"] = [[-1.0, 0.0], [0.0, 1.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="PSD"):
        fileio.parse_problem(path)


def test_problem_rejects_bad_fixture(tmp_path):
    spec = make_lasso_problem()
    data = fileio.problem_to_dict(spec)
    data["known_Z_points"][0]["x"] = [[5.0, 5.0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="known_Z_points"):
        fileio.parse_problem(path)


def test_problem_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="line"):
        fileio.parse_problem(path)


def test_schedule_round_trip(tmp_path):
    sched = ps.random_admissible(3, 2, M=2, D=3, horizon=32, seed=5)
    path = tmp_path / "sched.json"
    fileio.write_schedule(sched, path)
    back = fileio.parse_schedule(path)
    assert back.I_seq == sched.I_seq and back.K_seq == sched.K_seq
    assert back.c == sched.c and back.d == sched.d
    assert back.M == sched.M and back.D == sched.D


def test_schedule_generator_spec(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"type": "random", "m": 2, "p": 2,
                                "M": 2, "D": 1, "horizon": 16, "seed": 4}))
    sched = fileio.parse_schedule(path)
    assert ps.validate(sched, 2, 2).certified
    path.write_text(json.dumps({"type": "periodic", "m": 4, "p": 1, "group_size": 2,
                                "horizon": 10, "lag": {"pattern": "constant", "value": 2}}))
    sched = fileio.parse_schedule(path)
    assert sched.M == 2 and sched.D == 2


def test_config_round_trip(tmp_path):
    cfg = ps.SolverConfig(mode="haugazeau", epsilon=0.1, relaxation=0.9,
                          gamma=1.5, mu=0.5, max_iter=777, resid_tol=1e-7,
                          start=ps.PrimalDualPoint(ps.BlockVector([[1.0]]),
                                                   ps.BlockVector([[2.0]])),
                          inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
                          perturbation=ps.PerturbationRule(seed=9, scale=0.25))
    path = tmp_path / "cfg.json"
    fileio.write_config(cfg, path)
    back = fileio.parse_config(path)
    assert back.mode == cfg.mode and back.epsilon == cfg.epsilon
    assert back.relaxation == cfg.relaxation
    assert back.max_iter == cfg.max_iter and back.resid_tol == cfg.resid_tol
    assert back.inexact == cfg.inexact
    assert back.perturbation.seed == 9 and back.perturbation.scale == 0.25
    assert back.start.x.blocks[0][0] == 1.0


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "fejer", "lambda": 1.9}))
    with pytest.raises(SchemaError, match="unknown config fields"):
        fileio.parse_config(path)


def _rec(n):
    return IterationRecord(n, 0.5, 4.0, 2.0, 1.0, 0.25, 0.125, 0.0625, (3.0,))


def test_trace_empty_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    fileio.write_trace([], path, fixture_count=1)
    lines = path.read_text().splitlines()
    assert lines == ["n,theta,tau,violation,res_primal,res_dualmap,"
                     "res_coupling,res_dual,dist_z0"]


def test_trace_single_record(tmp_path):
    path = tmp_path / "trace.csv"
    fileio.write_trace([_rec(0)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "0,0.5,4,2,1,0.25,0.125,0.0625,3"


def test_trace_round_trip_and_determinism(tmp_path):
    records = [_rec(n) for n in range(4)]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_trace(records, pa)
    fileio.write_trace(records, pb)
    assert pa.read_bytes() == pb.read_bytes()
    header, rows = fileio.read_trace(pa)
    assert header[-1] == "dist_z0"
    assert rows[2][0] == 2.0 and rows[2][1] == 0.5


def test_trace_17_digit_round_trip(tmp_path):
    value = 1.0 / 3.0
    rec = IterationRecord(0, value, value * 7, 0.0, 0.0, 0.0, 0.0, 0.0, ())
    path = tmp_path / "t.csv"
    fileio.write_trace([rec], path)
    _, rows = fileio.read_trace(path)
    assert rows[0][1] == value and rows[0][2] == value * 7


def test_trace_cells_are_17_digit_format_strings(tmp_path):
    # one format string per row writes each float cell as f"{v:.17g}"
    odd = (math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308)
    rec = IterationRecord(7, *odd, -math.inf, 1.0 / 3.0, odd)
    path = tmp_path / "t.csv"
    fileio.write_trace([rec], path)
    floats = (rec.theta, rec.tau, rec.violation, rec.res_primal, rec.res_dualmap,
              rec.res_coupling, rec.res_dual, *rec.dists)
    assert path.read_text().splitlines()[1].split(",") == ["7"] + [f"{v:.17g}" for v in floats]


def _appended(data: dict, key: str, text: str) -> str:
    """data as JSON text, with `key` and the JSON text `text` appended to its object."""
    return json.dumps(data)[:-1] + f", {json.dumps(key)}: {text}}}"


def test_duplicate_object_keys_are_schema_errors(tmp_path):
    # json.loads keeps the last of two equal keys: a schedule whose "c" gives block "0"
    # twice was certified with one lag table dropped
    data = fileio.schedule_to_dict(ps.random_admissible(1, 1, 2, 2, 6, seed=3))
    lags = json.dumps(data["c"]["0"])
    del data["c"]
    sched = tmp_path / "schedule.json"
    sched.write_text(_appended(data, "c", f'{{"0": {lags}, "0": {lags}}}'))
    with pytest.raises(SchemaError, match="duplicate object key '0'"):
        fileio.parse_schedule(sched)
    problem = tmp_path / "problem.json"
    problem.write_text(_appended(fileio.problem_to_dict(make_lasso_problem()), "z_star",
                                 "[[5.0, 5.0]]"))
    with pytest.raises(SchemaError, match="duplicate object key 'z_star'"):
        fileio.parse_problem(problem)
    config = tmp_path / "config.json"
    fileio.write_config(ps.SolverConfig(max_iter=5), config)
    assert main(["validate-schedule", "--schedule", str(sched), "--m", "1", "--p", "1"]) == 1
    assert main(["run", "--problem", str(problem), "--config", str(config),
                 "--trace", str(tmp_path / "trace.csv")]) == 1


@pytest.mark.parametrize("path, huge", [
    pytest.param(("B_ops", 0, "Q"), False, id="path0"),
    pytest.param(("B_ops", 0, "q"), False, id="path1"),
    pytest.param(("known_Z_points", 0, "x"), False, id="path2"),
    # an integer too large for a float used to be "int too large to convert to float"
    pytest.param(("A_ops", 0, "weight"), True, id="weight-huge-int"),
    pytest.param(("B_ops", 0, "q", 0), True, id="q-huge-int"),
    pytest.param(("coupling", 0, "matrix", 0, 0), True, id="matrix-huge-int"),
    pytest.param(("z_star", 0, 0), True, id="z_star-huge-int"),
    pytest.param(("known_Z_points", 0, "x", 0, 0), True, id="x-huge-int"),
])
def test_problem_rejects_non_finite(tmp_path, path, huge):
    data = fileio.problem_to_dict(make_lasso_problem())
    *outer, last = path
    target = data
    for key in outer:
        target = target[key]
    target[last] = 10**400 if huge else (np.asarray(target[last], dtype=float) * np.nan).tolist()
    (tmp_path / "bad.json").write_text(json.dumps(data))
    field = [key for key in path if isinstance(key, str)][-1]
    with pytest.raises(SchemaError, match=rf"\.{field}: non-finite value"):
        fileio.parse_problem(tmp_path / "bad.json")


def test_a_claimed_block_size_is_checked_before_anything_is_sized(tmp_path):
    # grouping the operators first built 16 bytes of coordinate tables per claimed coordinate
    dim = 10**6
    data = {"signature": {"primal_dims": [dim], "dual_dims": [1]},
            "A_ops": [{"kind": "zero", "dim": dim}], "B_ops": [{"kind": "zero", "dim": 1}],
            "coupling": [], "z_star": [[0.0]], "r": [[0.0]]}
    (tmp_path / "claim.json").write_text(json.dumps(data))
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=rf"z_star dims \(1,\) != \({dim},\)"):
            fileio.parse_problem(tmp_path / "claim.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_parse_errors_name_the_field():
    with pytest.raises(SchemaError, match=r"problem\.coupling\[0\]"):
        fileio.problem_from_dict({**fileio.problem_to_dict(make_lasso_problem()),
                                  "coupling": [{"k": "zero", "i": 0, "matrix": [[1.0]]}]})
    with pytest.raises(SchemaError, match=r"schedule\.horizon"):
        fileio.schedule_from_dict({"M": 1, "D": 0, "horizon": "many",
                                   "I_seq": [[0]], "K_seq": [[0]]})
    lasso = fileio.problem_to_dict(make_lasso_problem())
    for side, edit, name in (("A_ops", {"wieght": 5.0}, r"A_ops\[0\]: unknown fields \['wieght'\]"),
                             ("B_ops", {"dim": 7}, r"B_ops\[0\]\.dim: 7 differs")):
        with pytest.raises(SchemaError, match=r"problem\." + name):  # both used to load
            fileio.problem_from_dict({**lasso, side: [{**lasso[side][0], **edit}]})
    periodic = {"type": "periodic", "m": 1, "p": 1, "group_size": 1, "horizon": 4}
    for edit, name in (({"m": 0}, "m must be >= 1"),  # these two were ZeroDivisionErrors
                       ({"lag": {"pattern": "sawtooth", "max": -1}}, "lag pattern")):
        with pytest.raises(SchemaError, match=r"schedule: " + name):
            fileio.schedule_from_dict({**periodic, **edit})
    # config values are checked once, by SolverConfig.validate
    for data, name in (({"trace_stride": 1.5}, "trace_stride"), ({"gamma": []}, "gamma")):
        with pytest.raises(ConfigError, match=name):
            fileio.config_from_dict(data).validate(make_lasso_problem())


_LASSO_SOLUTION = ps.PrimalDualPoint(ps.BlockVector([[1.0, 0.0]]),
                                     ps.BlockVector([[-1.0, -1.0]]))

_BASES = {
    "periodic": lambda: {"type": "periodic", "m": 2, "p": 2, "group_size": 1, "horizon": 8,
                         "lag": {"pattern": "constant", "value": 1}},
    "sawtooth": lambda: {"type": "periodic", "m": 2, "p": 2, "group_size": 1, "horizon": 8,
                         "lag": {"pattern": "sawtooth", "max": 1}},
    "random": lambda: {"type": "random", "m": 2, "p": 2, "M": 2, "D": 1, "horizon": 16,
                       "seed": 4},
    "explicit": lambda: {"M": 1, "D": 1, "horizon": 2, "I_seq": [[0], [0]],
                         "K_seq": [[0], [0]], "c": {"0": {"1": 0}}, "d": {"0": {"1": 0}}},
    "lasso": lambda: fileio.problem_to_dict(make_lasso_problem()),
    "zero_op": lambda: fileio.problem_to_dict(
        make_scalar_problem(ps.zero(1), ps.normal_cone_box([-1.0], [1.0]))),
    "nullspace": lambda: {**fileio.problem_to_dict(make_lasso_problem()),
                          "subspace": {"variant": "nullspace", "C": [[0.0, 1.0, 0.0, 0.0]]}},
    "linear_primal": lambda: fileio.problem_to_dict(make_linear_primal_problem("linear_primal")),
    "config": lambda: fileio.config_to_dict(ps.SolverConfig(start=_LASSO_SOLUTION)),
    "budget": lambda: fileio.config_to_dict(ps.SolverConfig(
        inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
        perturbation=ps.PerturbationRule(seed=9, scale=0.25))),
    "point": lambda: fileio.point_to_dict(_LASSO_SOLUTION),
}

# (base data, path to an integer field, the field name the error must give)
_INTEGER_FIELDS = [
    *(("periodic", (key,), f"schedule.{key}") for key in ("m", "p", "group_size", "horizon")),
    ("periodic", ("lag", "value"), "schedule.lag.value"),
    ("sawtooth", ("lag", "max"), "schedule.lag.max"),
    *(("random", (key,), f"schedule.{key}") for key in ("m", "p", "M", "D", "horizon", "seed")),
    *(("explicit", (key,), f"schedule.{key}") for key in ("M", "D", "horizon")),
    ("explicit", ("I_seq", 1, 0), "schedule.I_seq[1][0]"),
    ("explicit", ("K_seq", 0, 0), "schedule.K_seq[0][0]"),
    ("explicit", ("c", "0", "1"), "schedule.c[0][1]"),
    ("explicit", ("d", "0", "1"), "schedule.d[0][1]"),
    ("lasso", ("coupling", 0, "k"), "problem.coupling[0].k"),
    ("lasso", ("coupling", 0, "i"), "problem.coupling[0].i"),
    ("lasso", ("signature", "primal_dims", 0), "problem.signature.primal_dims[0]"),
    ("lasso", ("signature", "dual_dims", 0), "problem.signature.dual_dims[0]"),
    ("lasso", ("A_ops", 0, "dim"), "problem.A_ops[0].dim"),
    ("zero_op", ("A_ops", 0, "dim"), "problem.A_ops[0].dim"),
]


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["fraction", "boolean", "string"])
@pytest.mark.parametrize("base, path, name", _INTEGER_FIELDS,
                         ids=[f"{base}-{name}" for base, _, name in _INTEGER_FIELDS])
def test_integer_fields_must_be_json_integers(base, path, name, bad):
    # each used to be truncated or coerced: horizon 2.7 -> 2, "m": true -> 1, K_seq 0.7 -> 0
    parse = fileio.schedule_from_dict if name.startswith("schedule") \
        else fileio.problem_from_dict
    data = _BASES[base]()
    parse(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(SchemaError, match=re.escape(name) + ": expected an integer"):
        parse(data)


# (base data, path to a number field, the field name the error must give)
_NUMBER_FIELDS = [
    ("lasso", ("A_ops", 0, "weight"), "problem.A_ops[0].weight"),
    ("lasso", ("B_ops", 0, "Q", 0, 1), "problem.B_ops[0].Q"),
    ("lasso", ("B_ops", 0, "q", 0), "problem.B_ops[0].q"),
    ("lasso", ("coupling", 0, "matrix", 1, 0), "problem.coupling[0].matrix"),
    ("lasso", ("z_star", 0, 0), "problem.z_star"),
    ("lasso", ("r",), "problem.r"),
    ("lasso", ("known_Z_points", 0, "x", 0, 1), "problem.known_Z_points[0].x"),
    ("nullspace", ("subspace", "C", 0, 1), "problem.subspace.C"),
    ("linear_primal", ("subspace", "A1", 1, 1), "problem.subspace.A1"),
    ("config", ("start", "v_star", 0, 0), "config.start.v_star"),
    ("point", ("x", 0, 1), "point.json.x"),
]


@pytest.mark.parametrize("bad", [True, "1", None], ids=["boolean", "string", "null"])
@pytest.mark.parametrize("base, path, name", _NUMBER_FIELDS,
                         ids=[f"{base}-{name}" for base, _, name in _NUMBER_FIELDS])
def test_number_fields_must_be_json_numbers(tmp_path, base, path, name, bad):
    # booleans used to load as 0.0 and 1.0: a point of booleans passed check-kt
    def parse(data):
        (tmp_path / "point.json").write_text(json.dumps(data))
        return {"problem": fileio.problem_from_dict, "config": fileio.config_from_dict,
                "point": lambda _: fileio.parse_point(tmp_path / "point.json")}[
                    name.split(".")[0]](data)
    data = _BASES[base]()
    parse(data)
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(SchemaError, match=re.escape(name) + ": expected a number"):
        parse(data)


# (base data, path to an object in it, a required field of that object)
_REQUIRED_FIELDS = [
    *(("lasso", (), key) for key in ("signature", "A_ops", "B_ops", "coupling", "z_star", "r")),
    *(("lasso", ("signature",), key) for key in ("primal_dims", "dual_dims")),
    *(("lasso", ("coupling", 0), key) for key in ("k", "i", "matrix")),
    *(("lasso", ("A_ops", 0), key) for key in ("kind", "dim")),
    *(("lasso", ("B_ops", 0), key) for key in ("kind", "Q")),
    *(("zero_op", ("B_ops", 0), key) for key in ("lo", "hi")),
    *(("lasso", ("known_Z_points", 0), key) for key in ("x", "v_star")),
    ("nullspace", ("subspace",), "variant"),
    *(("explicit", (), key) for key in ("horizon", "I_seq", "K_seq", "M", "D")),
    *(("periodic", (), key) for key in ("m", "p", "group_size", "horizon")),
    ("periodic", ("lag",), "pattern"), ("periodic", ("lag",), "value"),
    ("sawtooth", ("lag",), "max"),
    *(("random", (), key) for key in ("m", "p", "M", "D", "horizon", "seed")),
    *(("budget", ("inexact",), key) for key in ("beta", "sigma", "delta", "zeta")),
    *(("budget", ("perturbation",), key) for key in ("seed", "scale")),
    *(("config", ("start",), key) for key in ("x", "v_star")),
]


def _where(base: str, path: tuple) -> str:
    """The location a reader gives the object at path in the base's data."""
    root = "schedule" if base in ("periodic", "sawtooth", "random", "explicit") \
        else "config" if base in ("config", "budget") else "problem"
    return root + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


@pytest.mark.parametrize("base, path, key", _REQUIRED_FIELDS,
                         ids=[f"{_where(base, path)}.{key}" for base, path, key
                              in _REQUIRED_FIELDS])
def test_a_missing_required_field_is_named(base, path, key):
    where = _where(base, path)
    parse = {"problem": fileio.problem_from_dict, "schedule": fileio.schedule_from_dict,
             "config": fileio.config_from_dict}[where.split(".")[0]]
    data = _BASES[base]()
    parse(data)
    target = data
    for step in path:
        target = target[step]
    del target[key]
    with pytest.raises(SchemaError, match=f"^{re.escape(where)}: missing required field "
                                          f"{re.escape(repr(key))}$"):
        parse(data)


@pytest.mark.parametrize("key", ["00", "1_0", "-1", "+1", " 1", "\u0661", "1.0", ""])
def test_lag_table_keys_must_be_canonical_decimals(key):
    # "0" and "00" used to merge silently, and "1_0" was read as block 10
    data = _BASES["explicit"]()
    fileio.schedule_from_dict(data)
    for table in ({"c": {"0": {"1": 0}, key: {"1": 0}}}, {"d": {"0": {key: 0}}}):
        with pytest.raises(SchemaError, match=r"schedule\.[cd].*: key .* canonical non-negative decimal"):
            fileio.schedule_from_dict({**data, **table})


def _fuzz_bases():
    """Valid lasso problem, config and schedule data; the schedules are for m = p = 1."""
    config = ps.SolverConfig(relaxation=[1.5, 1.9], gamma=[1.0], mu=[0.5], max_iter=5,
                             start=ps.PrimalDualPoint(ps.BlockVector([[0.5, 0.0]]),
                                                      ps.BlockVector([[0.0, 0.0]])),
                             inexact=ps.InexactnessBudget(1.0, 0.3, 1.0, 0.3),
                             perturbation=ps.PerturbationRule(seed=9, scale=0.25))
    return {
        "problem": fileio.problem_to_dict(make_lasso_problem()),
        "config": fileio.config_to_dict(config),
        "periodic": {"type": "periodic", "m": 1, "p": 1, "group_size": 1, "horizon": 8,
                     "lag": {"pattern": "sawtooth", "max": 2}},
        "random": {"type": "random", "m": 1, "p": 1, "M": 2, "D": 1, "horizon": 8, "seed": 4},
        "explicit": fileio.schedule_to_dict(ps.random_admissible(1, 1, 2, 2, 6, seed=3)),
    }


def _leaves(data, path=()):
    """(path, value) of every number, string, boolean or null in nested JSON data."""
    if isinstance(data, (dict, list)):
        for key, value in (data.items() if isinstance(data, dict) else enumerate(data)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, data


_FUZZ_LEAVES = [(base, path, type(value) is float)
                for base, data in _fuzz_bases().items() for path, value in _leaves(data)]
_BAD = (-1, 0, 2.5, True, "1", None, [], {})  # small, so no mutation asks for a big allocation
_BAD_FLOATS = (float("nan"), float("inf"), float("-inf"), 10**400)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_LEAVES).flatmap(lambda leaf: st.tuples(
    st.just(leaf), st.sampled_from(_BAD + (_BAD_FLOATS if leaf[2] else ())))))
def test_readers_raise_only_package_errors(mutation):
    # one leaf of one valid input is replaced; reading the inputs and setting up a run
    # may fail, but only with a PdsplitError (a schema or config error), never another
    (base, path, _), bad = mutation
    data = _fuzz_bases()
    target = data[base]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    schedule = data[base if base in ("periodic", "random") else "explicit"]
    try:
        problem = fileio.problem_from_dict(data["problem"])
        config = fileio.config_from_dict(data["config"])
        sched = fileio.schedule_from_dict(schedule)
        ps.EngineState.initial(problem, config, sched)
    except ps.PdsplitError:
        pass
