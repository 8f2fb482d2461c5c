"""Capture the CLI's bytes on a fixed argv list, and diff two captures.

    python tools/cli_bytes.py capture SRC_DIR OUT.json
    python tools/cli_bytes.py diff OLD.json NEW.json

``capture`` imports ``scaled_poisson`` from SRC_DIR and runs ``cli.main`` in
process on every argv: the commands of ``perfbench/workloads.py`` (seed 7),
the README CLI commands and the edge argvs below.  It records each exit code,
stdout and stderr; an uncaught exception is exit 1 with its last line as
stderr.  ``diff`` prints every argv whose record changed, with its changed
lines.  Standard library only.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_HUGE = "1" + "0" * 160

_RATIONAL = ["--weights", "1/2,1/3", "--rates", "1,2"]

# Thresholds past the float range, sweeps over underflowed exact tails (an
# exact tail of 0 and a NaN rel_error) and below lam (NaN brackets), a y that
# csv quoting must keep in one cell, the sweeps whose tails sit at t <= lam + 1,
# class rates past 700, exhaustive checks at R = 3 and at and past the limit of
# R^2*M* = 800, rational weights on `moments` and on every command that reads a
# threshold, a negative seed, epsilons whose per-class budget is and is not 0,
# sampled checks at 1e8 samples on the benchmark model and at R = 3, rates
# whose sigma^2 is past the float range, a Stein table whose P(A >= y)
# underflows while D_low overflows, and Stein reports at lam 700 and 712,
# whose envelopes pass the float range, and at lam 720, which leaves it; and
# exact laws whose top class's blocks are adjacent (weights 1,49), overlap by
# one point (1,48), and lie apart with products that underflow to 0 (1,1000 at
# eps 1e-300); sampled and exhaustive checks whose W threshold
# ceil(m*y/n) = 34 lies past W's support, 18; and laws of W whose top class's
# blocks lie apart, within int64 indexing (weights 1,2**61) and past it (1,2**62);
# a dense law of S over 420,714 points, 85,694 of them nonzero, from class
# tables of about 100,000 entries, whose compensated sums run through 11-13
# blocks; a coupling check at weights 1,2**61, whose Stein table is past
# int64 indexing, so past the size budget; sampled and exhaustive checks at
# weights 1,100, where
# the leave-one-out law of the weight-1 class has its top class's blocks
# apart (201 points), which a lattice law would hold as its entries alone;
# and arrays past the size budget of 1 GiB (at each array's bytes a point):
# Stein tables within int64 indexing but past 2**24 points, from stein-check's
# --wmax and from coupling-check at weights 1,1048576, a Poisson class table
# (rate 1e8), capped binomial class tables (--mstar 1e8, on coupling-check
# and empirical-constant), the recurrence above a Stein table (lam 1e9 at
# --wmax 11), and a sweep's y grid of 1e16 points; and arrays past 2**24
# points but within the budget, which run: a Poisson table of 17,041,253
# points (rate 1.7e7), a dense law of 97,517,600 points (weights
# 1,2**20,2**21) and binomial tables of 2e7 + 1 points (--mstar 200000),
# each in 0.55-1.1 GB. A capture needs that much memory; run it under
# `ulimit -v 3000000` where a commit before the budget allocates GiBs on the
# refused argvs.
EDGE_ARGVS = [
    ["approx-tail", "--y", "1e400"],
    ["approx-tail", "--y", "1e400", "--mode", "continuous"],
    ["approx-tail", "--y", "1e-400", "--mode", "continuous"],
    ["bound", "--y", _HUGE],
    ["sweep-relerr", "--y-from", "1266", "--y-to", "1270"],
    ["sweep-relerr", "--y-from", "1", "--y-to", "60"],
    ["exact-tail", "--y", " 500\n", "--strict"],
    ["sweep-scaling", "--y", _HUGE, "--n-values", "1"],
    ["sweep-relerr", "--y-from", "401", "--y-to", "700", "--non-strict"],
    ["sweep-scaling", "--y", "600"],
    ["sweep-scaling", "--y", "600", "--n-values", "8,9,10,11"],
    ["exact-tail", "--y", "1300", "--strict", "--rates", "800,30"],
    ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "200", "--y", "5", "--exhaustive"],
    ["coupling-check", "--weights", "1,3,5", "--rates", "1,2,1", "--mstar", "2", "--y", "3", "--exhaustive"],
    ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "201", "--y", "5", "--exhaustive"],
    ["moments", "--weights", "1/2,3/2", "--rates", "1,1"],
    ["exact-tail", "--y", "1", "--strict", *_RATIONAL],
    ["approx-tail", "--y", "1", "--strict", *_RATIONAL],
    ["sweep-relerr", "--y-from", "1", "--y-to", "3", *_RATIONAL],
    ["sweep-scaling", "--y", "2", "--n-values", "1", *_RATIONAL],
    ["compare-normal", "--y-from", "1", "--y-to", "3", *_RATIONAL],
    ["bound", "--y", "4", *_RATIONAL],
    ["coupling-check", "--y", "2", "--mstar", "2", "--exhaustive", *_RATIONAL],
    ["empirical-constant", "--y-from", "2", "--y-to", "4", "--mstar", "2", *_RATIONAL],
    ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "6", "--y", "5",
     "--samples", "10000", "--seed", "-1"],
    ["exact-tail", "--y", "500", "--eps", "5e-324"],
    ["exact-tail", "--y", "500", "--eps", "1e-323"],
    ["coupling-check", "--mstar", "50", "--y", "60", "--samples", "100000000", "--seed", "7"],
    ["coupling-check", "--weights", "1,2,5", "--rates", "4,3,2", "--mstar", "40", "--y", "5",
     "--samples", "200000", "--seed", "7"],
    ["moments", "--weights", "1", "--rates", "1e400"],
    ["exact-tail", "--y", "5", "--weights", "1", "--rates", "1e400"],
    ["coupling-check", "--mstar", "2", "--y", "1000", "--samples", "10000"],
    ["stein-check", "--lambda-num", "700", "--m", "7", "--n", "1", "--y", "900", "--wmax", "6370"],
    ["stein-check", "--lambda-num", "712", "--m", "1", "--n", "1", "--y", "900", "--wmax", "1000"],
    ["stein-check", "--lambda-num", "720", "--m", "7", "--n", "1", "--y", "900", "--wmax", "6370"],
    ["sweep-relerr", "--y-from", "100", "--y-to", "400", "--weights", "1,49", "--rates", "5,3"],
    ["sweep-relerr", "--y-from", "100", "--y-to", "400", "--weights", "1,48", "--rates", "5,3"],
    ["sweep-relerr", "--y-from", "99990", "--y-to", "100300", "--weights", "1,1000", "--rates", "5,3",
     "--eps", "1e-300"],
    ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "6", "--y", "20",
     "--samples", "10000", "--seed", "7"],
    ["coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "6", "--y", "20", "--exhaustive"],
    ["empirical-constant", "--weights", "1,2305843009213693952", "--rates", "1,1", "--mstar", "2",
     "--y-from", "1", "--y-to", "2"],
    ["empirical-constant", "--weights", "1,4611686018427387904", "--rates", "1,1", "--mstar", "2",
     "--y-from", "1", "--y-to", "2"],
    ["exact-tail", "--y", "130000", "--strict", "--weights", "1,10", "--rates", "100000,30000"],
    ["coupling-check", "--weights", "1,2305843009213693952", "--rates", "1,1", "--mstar", "2",
     "--y", "2"],
    ["coupling-check", "--weights", "1,100", "--rates", "1,1", "--mstar", "2", "--y", "2",
     "--samples", "10000"],
    ["coupling-check", "--weights", "1,100", "--rates", "1,1", "--mstar", "2", "--y", "2",
     "--exhaustive"],
    ["stein-check", "--lambda-num", "1600", "--lambda-den", "31", "--m", "31", "--n", "4",
     "--y", "60", "--wmax", "100000000000"],
    ["coupling-check", "--weights", "1,1048576", "--rates", "1,1", "--mstar", "2", "--y", "2"],
    ["exact-tail", "--y", "5", "--weights", "1,2", "--rates", "100000000,1"],
    ["coupling-check", "--mstar", "100000000", "--y", "60", "--samples", "10"],
    ["empirical-constant", "--y-from", "52", "--y-to", "80", "--mstar", "100000000"],
    ["stein-check", "--lambda-num", "1000000000", "--m", "1", "--n", "1", "--y", "1", "--wmax", "11"],
    ["sweep-relerr", "--weights", "1,1125899906842624", "--rates", "1,1", "--y-from", "1",
     "--y-to", "10000000000000000"],
    ["exact-tail", "--y", "17000000", "--weights", "1", "--rates", "17000000"],
    ["exact-tail", "--y", "5", "--weights", "1,1048576,2097152", "--rates", "1,1,1"],
    ["empirical-constant", "--y-from", "52", "--y-to", "80", "--mstar", "200000"],
]


def argvs() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = [c.with_seed(7) for w in workloads.WORKLOADS.values() for c in w.commands]
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    out += [shlex.split(line)[1:] for line in re.findall(r"^scaled-poisson .*$", readme, re.M)]
    return out + EDGE_ARGVS


def capture(src: str, path: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    from scaled_poisson import cli

    records = {}
    for argv in argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as e:  # a traceback, recorded rather than raised
                code = 1
                print(f"{type(e).__name__}: {e}", file=err)
        records[shlex.join(argv)] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    Path(path).write_text(json.dumps(records, indent=1))


def diff(old_path: str, new_path: str) -> None:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    keys = dict.fromkeys([*old, *new])
    changed = [k for k in keys if old.get(k) != new.get(k)]
    for key in changed:
        a, b = old.get(key, {}), new.get(key, {})
        print(f"## {key}: exit {a.get('exit')} -> {b.get('exit')}")
        for field in ("stdout", "stderr"):
            lines = difflib.unified_diff(a.get(field, "").splitlines(), b.get(field, "").splitlines(), n=0)
            for line in lines:
                if line[:1] in "+-" and line[:3] not in ("+++", "---"):
                    print(f"{field} {line}")
    print(f"{len(changed)} of {len(keys)} argvs changed")


if __name__ == "__main__":
    cmd, *rest = sys.argv[1:]
    sys.exit({"capture": capture, "diff": diff}[cmd](*rest))
