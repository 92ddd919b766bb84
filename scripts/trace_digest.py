#!/usr/bin/env python3
"""Print one digest line per reference run of the pdsplit package under SRC_DIR.

Usage: python scripts/trace_digest.py SRC_DIR

The runs are the three benchmark workloads at their benchmark configs and
perturbed lagged runs in both engine modes: of seeded random problems under
scattered activation sets (random_admissible), then of seeded block-sparse
problems under contiguous several-block sets (periodic chunks), at unit
steps, at a step per block on both sides, and at unit primal steps with a
step per dual block (sides that form their own resolvent parameters), and
last of random problems again under scattered sets over a horizon of 16, so
that 24 of their 40 iterations run in the schedule's tail window.  Their
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
STEP_SEEDS = range(3)
TAIL_SEEDS = range(5)


def _unit_steps(prob) -> dict:
    return {}


def _block_steps(prob) -> dict:
    """A step per block on both sides, those of the engine's multiblock reference test."""
    return dict(gamma=[0.5 + 0.25 * i for i in range(prob.m)],
                mu=[2.0 - 0.2 * k for k in range(prob.p)])


def _dual_steps(prob) -> dict:
    """Unit primal steps and a step per dual block."""
    return dict(mu=_block_steps(prob)["mu"])


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

        def chunks(prob, seed):  # contiguous several-block sets
            return ps.periodic(prob.m, prob.p, 3, 64, ("sawtooth", 2))

        families = (  # name, problem generator, seeds, schedule of (problem, seed), steps
            ("random", random_problem, RANDOM_SEEDS,
             lambda prob, seed: ps.random_admissible(prob.m, prob.p, M=3, D=4, horizon=64,
                                                     seed=seed), _unit_steps),
            ("periodic", random_blocksparse_problem, PERIODIC_SEEDS, chunks, _unit_steps),
            ("periodic-blocksteps", random_blocksparse_problem, STEP_SEEDS, chunks, _block_steps),
            ("periodic-dualsteps", random_blocksparse_problem, STEP_SEEDS, chunks, _dual_steps),
            ("random-tail", random_problem, TAIL_SEEDS,
             lambda prob, seed: ps.random_admissible(prob.m, prob.p, M=3, D=4, horizon=16,
                                                     seed=seed), _unit_steps))
        for family, make_problem, seeds, make_schedule, steps in families:
            for mode in ("fejer", "haugazeau"):
                for seed in seeds:
                    problem = make_problem(seed)
                    cfg = ps.SolverConfig(mode=mode, max_iter=40, resid_tol=0.0, exact_tol=-1.0,
                                          inexact=ps.InexactnessBudget(1.0, 0.2, 1.0, 0.2),
                                          perturbation=ps.PerturbationRule(seed=seed, scale=0.6),
                                          **steps(problem))
                    res = ps.run(problem, cfg, make_schedule(problem, seed))
                    fileio.write_trace(res.trace, workdir / "trace.csv",
                                       len(problem.known_Z_points))
                    counts = (res.metadata["perturb_accepted"], res.metadata["perturb_rejected"])
                    print(_line(f"{family}-{seed}-{mode}", res.status, res.iterations, counts,
                                (workdir / "trace.csv").read_bytes(), res.final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
