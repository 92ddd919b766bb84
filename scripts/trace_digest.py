#!/usr/bin/env python3
"""Print one digest line per reference run of the pdsplit package under SRC_DIR.

Usage: python scripts/trace_digest.py SRC_DIR

The runs are the three benchmark workloads at their benchmark configs and
perturbed lagged runs in both engine modes: of seeded random problems under
scattered activation sets (random_admissible), then of seeded block-sparse
problems under contiguous several-block sets (periodic chunks).  Their
inputs come from this tree's own generators (perfbench/workloads.py and
tests/conftest.py), so two source trees given to the same script solve the
same inputs, and a `diff` of the two outputs lists every run whose bits
changed.  Each line gives the run, its status, its iteration count, its
accepted/rejected perturbation counts and a SHA-256 of its trace CSV
followed by its final point.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 1
RANDOM_SEEDS = range(40)
PERIODIC_SEEDS = range(5)


def _line(name: str, status: str, iters: int, counts, trace: bytes, final) -> str:
    digest = hashlib.sha256(trace + final.data.tobytes()).hexdigest()
    perturb = "-" if counts is None else "{}/{}".format(*counts)
    return f"{name} {status} iters={iters} perturb={perturb} sha256={digest}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "pdsplit" / "__init__.py").is_file():
        print(f"error: no pdsplit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]

    import pdsplit as ps
    from pdsplit import fileio

    import workloads
    from conftest import random_blocksparse_problem, random_problem

    if not Path(ps.__file__).resolve().is_relative_to(src):
        print(f"error: pdsplit imported from {ps.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for wl in workloads.WORKLOADS.values():
            prep = wl.setup(wl.make_inputs(WORKLOAD_SEED, workdir))
            out = wl.solve(prep, workdir)
            print(_line(wl.name, out.status, out.iters, None,
                        workloads.trace_bytes(prep, out, workdir), out.final))
        families = (  # name, problem generator, seeds, schedule of (problem, seed)
            ("random", random_problem, RANDOM_SEEDS,
             lambda prob, seed: ps.random_admissible(prob.m, prob.p, M=3, D=4, horizon=64,
                                                     seed=seed)),
            ("periodic", random_blocksparse_problem, PERIODIC_SEEDS,
             lambda prob, seed: ps.periodic(prob.m, prob.p, 3, 64, ("sawtooth", 2))))
        for family, make_problem, seeds, make_schedule in families:
            for mode in ("fejer", "haugazeau"):
                for seed in seeds:
                    problem = make_problem(seed)
                    cfg = ps.SolverConfig(mode=mode, max_iter=40, resid_tol=0.0, exact_tol=-1.0,
                                          inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
                                          perturbation=ps.PerturbationRule(seed=seed, scale=0.6))
                    res = ps.run(problem, cfg, make_schedule(problem, seed))
                    fileio.write_trace(res.trace, workdir / "trace.csv",
                                       len(problem.known_Z_points))
                    counts = (res.metadata["perturb_accepted"], res.metadata["perturb_rejected"])
                    print(_line(f"{family}-{seed}-{mode}", res.status, res.iterations, counts,
                                (workdir / "trace.csv").read_bytes(), res.final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
