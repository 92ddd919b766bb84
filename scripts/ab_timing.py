#!/usr/bin/env python3
"""Paired in-process timing of this tree's pdsplit against another tree's, per benchmark workload.

Usage: python scripts/ab_timing.py BASE_SRC [--pairs N] [--workload NAME ...]

BASE_SRC is the `src` directory of the tree to compare against (say, a
`git archive` of the parent commit).  Both packages are imported into one
interpreter, the base one as `pdsplit_base` and this tree's as `pdsplit`,
and each gets its own copy of perfbench/problems.py and
perfbench/workloads.py bound to it, so both trees solve the benchmark's
three workloads (or the ones named by --workload, given once each) from the
same generated inputs, each through its own code.
Every pair of runs solves each workload once per tree, the tree that goes
first alternating from pair to pair, and asserts that both trees end with
the same status, iteration count and final point.  Per workload it prints
the median ratio of this tree's µs/iteration to the base tree's, the
quartiles of the ratios, and the number of pairs this tree won.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SEED = 1

# One BLAS thread, as perfbench/run.py sets it, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _load(name: str, path: Path, package: bool = False):
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _workloads(src: Path, name: str) -> dict:
    """perfbench's WORKLOADS, loaded against the pdsplit under src, imported as `name`."""
    _load(name, src / "pdsplit", package=True)
    importlib.import_module(f"{name}.cli")
    aliases = {mod: sys.modules[f"{name}{mod[len('pdsplit'):]}"] for mod in
               ("pdsplit", *(f"pdsplit.{sub}" for sub in ("blockspace", "cli", "engine",
                                                           "errors", "fileio", "operators",
                                                           "schedule", "separator")))}
    saved = {mod: sys.modules.get(mod) for mod in (*aliases, "problems")}
    sys.modules.update(aliases)  # the perfbench modules import `pdsplit` and `problems` by name
    try:
        sys.modules["problems"] = _load(f"problems_{name}", BENCH / "problems.py")
        wl = _load(f"workloads_{name}", BENCH / "workloads.py").WORKLOADS
    finally:
        for mod, was in saved.items():
            if was is None:
                sys.modules.pop(mod, None)
            else:
                sys.modules[mod] = was
    return wl


def _solve(workload, prep, workdir: Path) -> tuple:
    """(µs per iteration, outcome) of one solve."""
    start = time.perf_counter()
    out = workload.solve(prep, workdir)
    return (time.perf_counter() - start) * 1e6 / max(out.iters, 1), out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_src", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", dest="workloads", metavar="NAME",
                    help="time this workload only (repeatable; default: all three)")
    args = ap.parse_args(argv)
    if not (args.base_src / "pdsplit" / "__init__.py").is_file():
        print(f"error: no pdsplit sources under {args.base_src}", file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("error: --pairs must be >= 1", file=sys.stderr)
        return 2
    trees = {"base": _workloads(args.base_src, "pdsplit_base"),
             "new": _workloads(ROOT / "src", "pdsplit")}
    names = list(dict.fromkeys(args.workloads or trees["new"]))  # in the order first given
    if unknown := [name for name in names if name not in trees["new"]]:
        print(f"error: unknown workload {unknown[0]!r}; the workloads are "
              f"{', '.join(trees['new'])}", file=sys.stderr)
        return 2
    print(f"{'workload':<24}{'pairs':>6}{'median':>9}{'q1':>8}{'q3':>8}{'wins':>6}"
          f"{'base µs/it':>12}{'new µs/it':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        for wname in names:
            preps = {}
            for tree, wl in trees.items():
                workdir = Path(tmp) / tree / wname
                workdir.mkdir(parents=True)
                preps[tree] = (wl[wname], wl[wname].setup(wl[wname].make_inputs(SEED, workdir)),
                               workdir)
            times = {"base": [], "new": []}
            for pair in range(args.pairs):
                outs = {}
                for tree in (("base", "new"), ("new", "base"))[pair % 2]:
                    us, outs[tree] = _solve(*preps[tree])
                    times[tree].append(us)
                base, new = outs["base"], outs["new"]
                if (base.status, base.iters) != (new.status, new.iters) \
                        or base.final.data.tobytes() != new.final.data.tobytes():
                    print(f"error: {wname}: the trees end differently: {base.status} after "
                          f"{base.iters} iterations, {new.status} after {new.iters}, or their "
                          "final points differ", file=sys.stderr)
                    return 1
            ratios = [n / b for n, b in zip(times["new"], times["base"])]
            q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                              if len(ratios) > 1 else ratios * 3)
            print(f"{wname:<24}{args.pairs:>6}{median:>9.3f}{q1:>8.3f}{q3:>8.3f}"
                  f"{sum(r < 1.0 for r in ratios):>6}{statistics.median(times['base']):>12.1f}"
                  f"{statistics.median(times['new']):>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
