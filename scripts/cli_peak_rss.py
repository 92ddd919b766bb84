#!/usr/bin/env python3
"""Peak memory of `pdsplit run` on the lasso example, short run against long run.

Usage: python scripts/cli_peak_rss.py EXAMPLE_DIR

EXAMPLE_DIR holds the files scripts/make_example_inputs.py writes.  Two
child processes run the CLI on the lasso problem with a stride-1 trace:
one with lasso_config.json, which solves it; one with the same config at
max_iter 50,000 and resid_tol 0, which runs all 50,000 iterations.  Each
child reports its own peak resident set size (ru_maxrss, KiB on Linux).
Since the CLI writes trace rows as they are made, the two peaks should be
about equal.  Exits 1 if a child fails or the long run's peak exceeds the
short run's by more than MAX_GROWTH_MB.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

LONG = {"max_iter": 50_000, "resid_tol": 0.0}
MAX_GROWTH_MB = 5.0

_CHILD = """\
import contextlib, os, resource, sys
from pdsplit.cli import main
with open(os.devnull, "w") as out, contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_mb(problem: Path, config: Path, trace: Path) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one `pdsplit run` in a child process."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, "run", "--problem", str(problem),
                           "--config", str(config), "--trace", str(trace)],
                          capture_output=True, text=True, check=True)
    code, kib = proc.stdout.split()
    return int(code), int(kib) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("example_dir", type=Path)
    args = ap.parse_args()
    ex = args.example_dir
    long_config = json.loads((ex / "lasso_config.json").read_text())
    long_config.update(LONG)
    (ex / "lasso_long_config.json").write_text(json.dumps(long_config))
    runs = {}
    for name, config, expect in (("short", "lasso_config.json", 0),
                                 ("long", "lasso_long_config.json", 2)):
        code, mb = peak_mb(ex / "lasso_problem.json", ex / config, ex / f"rss_{name}.csv")
        rows = len((ex / f"rss_{name}.csv").read_text().splitlines()) - 1
        print(f"{name}: exit {code}, {rows} trace rows, peak RSS {mb:.1f} MB")
        if code != expect:
            print(f"{name}: expected exit {expect}")
            return 1
        runs[name] = mb
    growth = runs["long"] - runs["short"]
    print(f"growth {growth:+.1f} MB (bound {MAX_GROWTH_MB:g} MB)")
    return 0 if growth <= MAX_GROWTH_MB else 1


if __name__ == "__main__":
    sys.exit(main())
