#!/usr/bin/env python3
"""Emit ready-to-run problem/config/schedule JSON files for the CLI.

Usage: python scripts/make_example_inputs.py [OUTDIR]   (default: example_data/)
"""

import sys
from pathlib import Path

import numpy as np

import pdsplit as ps
from pdsplit import fileio


def scalar_inclusion_problem():
    # A = d|.|, B = identity, L = 1: unique solution (0, 0)
    sig = ps.SpaceSignature((1,), (1,))
    return ps.ProblemSpec(
        sig, [ps.l1_norm(1)], [ps.affine_monotone([[1.0]])],
        ps.CouplingMap(sig, {(0, 0): [[1.0]]}),
        ps.BlockVector([[0.0]]), ps.BlockVector([[0.0]]),
        known_Z_points=[ps.PrimalDualPoint(ps.BlockVector([[0.0]]),
                                           ps.BlockVector([[0.0]]))])


def lasso_problem():
    # min ||x||_1 + 0.5*||x - (2,1)||^2: solution (1, 0)
    sig = ps.SpaceSignature((2,), (2,))
    zfix = ps.PrimalDualPoint(ps.BlockVector([[1.0, 0.0]]),
                              ps.BlockVector([[-1.0, -1.0]]))
    return ps.ProblemSpec(
        sig, [ps.l1_norm(2)], [ps.quadratic(np.eye(2), [-2.0, -1.0])],
        ps.CouplingMap(sig, {(0, 0): np.eye(2)}),
        ps.BlockVector([[0.0, 0.0]]), ps.BlockVector([[0.0, 0.0]]),
        known_Z_points=[zfix])


def main():
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "example_data")
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_problem(scalar_inclusion_problem(), out / "scalar_problem.json")
    fileio.write_problem(lasso_problem(), out / "lasso_problem.json")
    fileio.write_config(ps.SolverConfig(
        mode="fejer", relaxation=1.9, max_iter=5000, resid_tol=1e-6,
        start=ps.PrimalDualPoint(ps.BlockVector([[2.0]]), ps.BlockVector([[0.0]]))),
        out / "scalar_config.json")
    fileio.write_config(ps.SolverConfig(mode="haugazeau", max_iter=10000,
                                        resid_tol=3e-6),
                        out / "lasso_config.json")
    # inexact resolvents: the budget accepts most perturbed graph points and rejects some
    fileio.write_config(ps.SolverConfig(
        mode="fejer", max_iter=5000, resid_tol=1e-6,
        inexact=ps.InexactnessBudget(beta=1.0, sigma=0.3, delta=1.0, zeta=0.3),
        perturbation=ps.PerturbationRule(seed=3, scale=0.5)), out / "lasso_inexact_config.json")
    fileio.write_schedule(ps.random_admissible(1, 1, M=3, D=5, horizon=512, seed=1),
                          out / "scalar_async_schedule.json")
    print(f"wrote example inputs to {out}/")
    print("try: pdsplit run --problem", out / "scalar_problem.json",
          "--config", out / "scalar_config.json",
          "--schedule", out / "scalar_async_schedule.json",
          "--trace", out / "trace.csv")


if __name__ == "__main__":
    main()
