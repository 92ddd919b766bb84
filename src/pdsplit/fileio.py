"""Canonical on-disk formats: problem, schedule and config JSON, trace CSV.

One format per artifact, no auto-detection; floats are written with full
round-trip precision so byte-identical reruns are achievable.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Union

import numpy as np

from . import operators as ops
from .blockspace import BlockVector, CouplingMap, PrimalDualPoint, SpaceSignature
from .engine import IterationRecord, PerturbationRule, SolverConfig
from .errors import PdsplitError, SchemaError
from .operators import InexactnessBudget, MonotoneOp
from .schedule import LAG_PATTERNS, ControlSchedule, lag_rows, periodic, random_admissible
from .separator import ProblemSpec, SubspaceSpec

PathLike = Union[str, Path]
_FLOAT_MAX = sys.float_info.max  # NaN, infinities and larger integers are non-finite


def _unique_keys(pairs: list) -> dict:
    if len(obj := dict(pairs)) < len(pairs):  # json alone keeps the last of two equal keys
        key = next(k for j, (k, _) in enumerate(pairs) if k in dict(pairs[:j]))
        raise ValueError(f"duplicate object key {key!r}")
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)  # json.loads would build one per call


def _load_json(path: PathLike) -> dict:
    try:
        with open(path, "rb") as fh:
            return _DECODER.decode(fh.read().decode("utf-8"))
    except ValueError as exc:  # invalid JSON, a key given twice, or bytes that are not UTF-8
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def _write_json(obj, path: PathLike) -> None:
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _object(obj, where: str, fields=None, label: str = "", note: str = "") -> dict:
    """obj once it is an object without a field outside `fields` (None: keys are data, as in a
    lag table).  Every object of an input file is read through here, so a misspelt field fails."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = () if fields is None else obj.keys() - fields
    if unknown:
        raise SchemaError(f"{where}: unknown {label}fields {sorted(unknown)}{note}")
    return obj


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        _object(obj, where)
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


class _parsing:
    """The parse boundary: a malformed value met inside becomes a SchemaError naming its field."""

    def __init__(self, where: str, key=None):
        self.where, self.key = where, key

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if exc is not None and not isinstance(exc, SchemaError) \
                and isinstance(exc, (PdsplitError, TypeError, ValueError, OverflowError)):
            where = self.where if self.key is None else f"{self.where}.{self.key}"
            raise SchemaError(f"{where}: {exc}") from exc


def _finite(value, where: str, key=None):
    """Return a number, or a list (of lists) of numbers, once all of it is finite.

    Booleans, strings and null are not numbers.  Plain sums keep this cheap:
    a finite sum proves every entry finite, and only a sum that overflowed
    needs the entrywise test.
    """
    name = where if key is None else f"{where}.{key}"
    rows = value if type(value) is list else [value]
    rows = rows if rows and type(rows[0]) is list else [rows]  # a list of rows of entries
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        raise SchemaError(f"{name}: expected a number")
    try:
        if math.isfinite(sum(map(sum, rows))):
            return value
    except OverflowError:  # an integer sum, or an integer added to a float, too large
        pass
    if all(abs(x) <= _FLOAT_MAX for row in rows for x in row):
        return value
    raise SchemaError(f"{name}: non-finite value")


def _integer(value, where: str, key):
    """A JSON integer; fractions, strings and booleans are rejected."""
    if type(value) is not int:
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _int_field(obj: dict, key: str, where: str) -> int:
    return _integer(_need(obj, key, where), where, key)


def _ints(values, where: str, key: str) -> tuple[int, ...]:
    """A list of JSON integers as a tuple; entry j that is not one is named key[j]."""
    return tuple(_integer(v, where, f"{key}[{j}]") for j, v in enumerate(values))


# ---------------------------------------------------------------- operators

def _op_to_dict(op: MonotoneOp) -> dict:
    out: dict = {"kind": op.kind, "dim": op.dim}
    for name, value in op.params.items():
        out[name] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


# kind: (constructor, required fields in call order, optional keyword fields)
_OP_KINDS = {"zero": (ops.zero, ("dim",), ()),
             "l1_norm": (ops.l1_norm, ("dim",), ("weight",)),
             "box_indicator": (ops.box_indicator, ("lo", "hi"), ()),
             "normal_cone_box": (ops.normal_cone_box, ("lo", "hi"), ()),
             "quadratic": (ops.quadratic, ("Q",), ("q",)),
             "affine_monotone": (ops.affine_monotone, ("M",), ("c",))}


def _op_from_dict(d: dict, where: str) -> MonotoneOp:
    kind = _need(d, "kind", where)
    if not isinstance(kind, str) or kind not in _OP_KINDS:
        raise SchemaError(f"{where}: unknown operator kind {kind!r}")
    make, required, optional = _OP_KINDS[kind]
    _object(d, where, ("kind", "dim", *required, *optional), note=f" for kind {kind!r}")
    with _parsing(where):
        if "dim" in d:
            _integer(d["dim"], where, "dim")
        op = make(*(_finite(_need(d, key, where), where, key) for key in required),
                  **{key: _finite(d[key], where, key) for key in optional if key in d})
    if d.get("dim", op.dim) != op.dim:
        raise SchemaError(f"{where}.dim: {d['dim']} differs from the operator's dimension {op.dim}")
    return op


# ------------------------------------------------------------------ problem

def _blocks_to_lists(v: BlockVector) -> list:
    return [b.tolist() for b in v.blocks]


def point_to_dict(z: PrimalDualPoint) -> dict:
    return {"x": _blocks_to_lists(z.x), "v_star": _blocks_to_lists(z.v_star)}


def _vector(data: dict, name: str, where: str) -> BlockVector:
    """The named field as a block vector, checked finite."""
    with _parsing(where, name):
        return BlockVector(_finite(_need(data, name, where), where, name))


def _point_from_dict(d: dict, where: str) -> PrimalDualPoint:
    _object(d, where, ("x", "v_star"))
    return PrimalDualPoint(_vector(d, "x", where), _vector(d, "v_star", where))


def problem_to_dict(spec: ProblemSpec) -> dict:
    sub = {"variant": spec.subspace.variant,
           **{name: getattr(spec.subspace, name).tolist() for name in ("C", "A1")
              if getattr(spec.subspace, name) is not None}}
    return {
        "signature": {"primal_dims": list(spec.signature.primal_dims),
                      "dual_dims": list(spec.signature.dual_dims)},
        "A_ops": [_op_to_dict(op) for op in spec.A_ops],
        "B_ops": [_op_to_dict(op) for op in spec.B_ops],
        "coupling": [{"k": k, "i": i, "matrix": mat.tolist()}
                     for (k, i), mat in sorted(spec.coupling.entries.items())],
        "z_star": _blocks_to_lists(spec.z_star),
        "r": _blocks_to_lists(spec.r),
        "subspace": sub,
        "known_Z_points": [point_to_dict(z) for z in spec.known_Z_points],
    }


def problem_from_dict(data: dict, where: str = "problem") -> ProblemSpec:
    _object(data, where, ("signature", "A_ops", "B_ops", "coupling", "z_star", "r", "subspace",
                          "known_Z_points"))
    loc, keys = f"{where}.signature", ("primal_dims", "dual_dims")
    sig_d = _object(_need(data, "signature", where), loc, keys)
    with _parsing(loc):
        signature = SpaceSignature(*(_ints(_need(sig_d, key, loc), loc, key) for key in keys))
    with _parsing(where):
        A_ops, B_ops = ([_op_from_dict(d, f"{where}.{side}[{j}]")
                         for j, d in enumerate(_need(data, side, where))]
                        for side in ("A_ops", "B_ops"))
        entries = {}
        for j, ent in enumerate(_need(data, "coupling", where)):
            loc = f"{where}.coupling[{j}]"
            with _parsing(loc):
                _object(ent, loc, ("k", "i", "matrix"))
                entries[(_int_field(ent, "k", loc), _int_field(ent, "i", loc))] = \
                    _finite(_need(ent, "matrix", loc), loc, "matrix")
        sub_d = _object(data.get("subspace", {"variant": "full"}), f"{where}.subspace",
                        ("variant", "C", "A1"))
        subspace = SubspaceSpec(_need(sub_d, "variant", f"{where}.subspace"),
                                **{key: _finite(sub_d[key], f"{where}.subspace", key)
                                   for key in ("C", "A1") if sub_d.get(key) is not None})
        fixtures = [_point_from_dict(d, f"{where}.known_Z_points[{j}]")
                    for j, d in enumerate(data.get("known_Z_points", []))]
        return ProblemSpec(signature, A_ops, B_ops, CouplingMap(signature, entries),
                           _vector(data, "z_star", where), _vector(data, "r", where),
                           subspace, fixtures)


def parse_problem(path: PathLike) -> ProblemSpec:
    return problem_from_dict(_load_json(path), where=str(path))


def write_problem(spec: ProblemSpec, path: PathLike) -> None:
    _write_json(problem_to_dict(spec), path)


def parse_point(path: PathLike) -> PrimalDualPoint:
    return _point_from_dict(_load_json(path), where=str(path))


# ----------------------------------------------------------------- schedule

def schedule_to_dict(s: ControlSchedule) -> dict:
    lags = {name: {str(idx): dict(zip(map(str, n), map(int, reads))) for idx, n, reads in
                   lag_rows(table)} for name, table in (("c", s.c), ("d", s.d))}
    return {"M": s.M, "D": s.D, "horizon": s.horizon,
            "I_seq": [list(t) for t in s.I_seq],
            "K_seq": [list(t) for t in s.K_seq], **lags}


def _lag_table(data: dict, key: str, where: str) -> dict[tuple[int, int], int]:
    """Lag table `key` of a schedule, {block: {iteration: read iteration}} with string keys."""
    loc = f"{where}.{key}"
    with _parsing(loc):
        return {(_index(idx, loc), _index(n, f"{loc}[{idx}]")):
                _integer(val, where, f"{key}[{idx}][{n}]")
                for idx, per_n in _object(data.get(key, {}), loc).items()
                for n, val in _object(per_n, f"{loc}[{idx!r}]").items()}


def _index(key: str, where: str) -> int:
    """A key written as a canonical non-negative decimal ("0", "17"; not "00", "1_0" or "-1")."""
    if not (key.isascii() and key.isdigit() and str(int(key)) == key):
        raise SchemaError(f"{where}: key {key!r} is not a canonical non-negative decimal")
    return int(key)


def schedule_from_dict(data: dict, where: str = "schedule") -> ControlSchedule:
    gen = _object(data, where).get("type")
    with _parsing(where):
        if gen == "periodic":
            keys = ("m", "p", "group_size", "horizon")
            _object(data, where, ("type", "lag", *keys))
            pattern, loc = data.get("lag", {"pattern": "zero"}), f"{where}.lag"
            name = _need(pattern, "pattern", loc)
            if name not in LAG_PATTERNS:
                raise SchemaError(f"{loc}: unknown pattern {name!r}")
            lag_key = LAG_PATTERNS[name][0]  # None for the zero pattern, and no field is None
            _object(pattern, loc, ("pattern", lag_key))
            lag = (name,) if lag_key is None else (name, _int_field(pattern, lag_key, loc))
            return periodic(*(_int_field(data, key, where) for key in keys), lag)
        if gen == "random":
            keys = ("m", "p", "M", "D", "horizon", "seed")
            _object(data, where, ("type", *keys))
            return random_admissible(*(_int_field(data, key, where) for key in keys))
        if gen is not None:
            raise SchemaError(f"{where}: unknown generator type {gen!r}")
        _object(data, where, ("horizon", "I_seq", "K_seq", "c", "d", "M", "D"))
        return ControlSchedule(
            horizon=_int_field(data, "horizon", where),
            **{key: [_ints(s, where, f"{key}[{n}]") for n, s in enumerate(_need(data, key, where))]
               for key in ("I_seq", "K_seq")},
            c=_lag_table(data, "c", where), d=_lag_table(data, "d", where),
            M=_int_field(data, "M", where), D=_int_field(data, "D", where))


def parse_schedule(path: PathLike) -> ControlSchedule:
    return schedule_from_dict(_load_json(path), where=str(path))


def write_schedule(s: ControlSchedule, path: PathLike) -> None:
    _write_json(schedule_to_dict(s), path)


# ------------------------------------------------------------------- config

_CONFIG_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


def config_from_dict(data: dict, where: str = "config") -> SolverConfig:
    """The config a file describes; its values are checked by SolverConfig.validate."""
    kwargs = dict(_object(data, where, _CONFIG_KEYS, label="config "))
    if data.get("start") is not None:
        kwargs["start"] = _point_from_dict(data["start"], f"{where}.start")
    for key, make in (("inexact", InexactnessBudget), ("perturbation", PerturbationRule)):
        if data.get(key) is not None:
            loc, names = f"{where}.{key}", [f.name for f in dataclasses.fields(make)]
            fields = _object(data[key], loc, names)
            with _parsing(loc):
                kwargs[key] = make(*(_need(fields, name, loc) for name in names))
    return SolverConfig(**kwargs)


def config_to_dict(config: SolverConfig) -> dict:
    values = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    if config.start is not None:
        values["start"] = point_to_dict(config.start)
    return {name: dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value
            for name, value in values.items() if value is not None}


def parse_config(path: PathLike) -> SolverConfig:
    return config_from_dict(_load_json(path), where=str(path))


def write_config(config: SolverConfig, path: PathLike) -> None:
    _write_json(config_to_dict(config), path)


# -------------------------------------------------------------------- trace

TRACE_COLUMNS = ("n", "theta", "tau", "violation",
                 "res_primal", "res_dualmap", "res_coupling", "res_dual")


class TraceWriter:
    """The iteration trace as deterministic CSV (17 significant digits), one row per append.

    A context manager, and a trace destination for `run`.  The file is
    opened at the first row, or on a clean exit when no row came, so a run
    that fails before its first row leaves no file; a run interrupted later
    leaves the rows written so far.  fixture_count sets the dist_z columns;
    None takes it from the first record (0 if there is none).
    """

    def __init__(self, path: PathLike, fixture_count: int = None):
        self.path, self.fixture_count = path, fixture_count
        self._file = None

    def __enter__(self) -> "TraceWriter":
        return self

    def _open(self, fixture_count: int) -> None:
        self._file = open(self.path, "w", encoding="utf-8", newline="\n")
        self._file.write(",".join(TRACE_COLUMNS + tuple(f"dist_z{j}"
                                                        for j in range(fixture_count))) + "\n")
        # %.17g is f"{v:.17g}"
        self._row = "%d" + ",%.17g" * (len(TRACE_COLUMNS) - 1 + fixture_count) + "\n"

    def append(self, rec: IterationRecord) -> None:
        if self._file is None:
            self._open(len(rec.dists) if self.fixture_count is None else self.fixture_count)
        self._file.write(self._row % (rec.n, rec.theta, rec.tau, rec.violation, rec.res_primal,
                                      rec.res_dualmap, rec.res_coupling, rec.res_dual, *rec.dists))

    def __exit__(self, kind, exc, traceback) -> None:
        if self._file is None and kind is None:
            self._open(self.fixture_count or 0)
        if self._file is not None:
            self._file.close()


def write_trace(records: list[IterationRecord], path: PathLike,
                fixture_count: int = None) -> None:
    """Write the iteration trace as deterministic CSV (17 significant digits)."""
    with TraceWriter(path, fixture_count) as trace:
        for rec in records:
            trace.append(rec)


def read_trace(path: PathLike) -> tuple[list[str], list[list[float]]]:
    """The header and rows of a trace, its lines split at each newline as `compare --tol 0`
    splits them: an empty line is a row without cells, and a last newline ends the last row."""
    try:
        lines = Path(path).read_bytes().decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a UTF-8 text file: {exc}") from exc
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise SchemaError(f"{path}: empty trace file")
    header = lines[0].split(",")
    rows = []
    for idx, ln in enumerate(lines[1:], start=1):
        cells = ln.split(",") if ln else []
        if cells and len(cells) != len(header):
            raise SchemaError(f"{path}: row {idx} has {len(cells)} cells, header has {len(header)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise SchemaError(f"{path}: row {idx}: {exc}") from exc
    return header, rows
