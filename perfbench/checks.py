"""Output checks: every CSV a command writes is judged against reference.json.

Each check returns a list of problems; an empty list means the output is
correct.  Tolerances:

- exact brackets: the mpmath truth must lie in the bracket the command
  prints, widened only by RTOL for float rounding.  A sweep row prints the
  lower end only; its upper end is that plus the command's epsilon, the
  deficit bound the library certifies;
- tails and brackets computed in floating point: relative RTOL to the truth;
- the certificates the library states: Stein residual <= 10*tol, every
  property check passes, H-closure <= 1e-8, exhaustive |lhs-rhs| <= 1e-12,
  Monte Carlo |lhs-rhs| within 4 combined standard errors.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

RTOL = 1e-10
CLOSURE_TOL = 1e-8
EXHAUSTIVE_TOL = 1e-12
MC_SIGMAS = 4.0


def read_csv(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _bracket_misses(lo: float, hi: float, truth: float) -> bool:
    return not (lo * (1.0 - RTOL) <= truth <= hi * (1.0 + RTOL))


def _sweep(rows, ref) -> list[str]:
    want = ref["rows"]
    if [(int(r["y"]), int(r["scale_n"])) for r in rows] != [(w["y"], w["scale_n"]) for w in want]:
        return [f"rows (y, scale_n) differ from the {len(want)} expected"]
    out = []
    for r, w in zip(rows, want):
        at = f"y={w['y']} N={w['scale_n']}"
        lo, truth = float(r["exact_tail"]), float(w["exact"])
        if _bracket_misses(lo, lo + ref["epsilon"], truth):
            out.append(f"{at}: exact tail {lo!r} + eps misses truth {truth!r}")
        for col, key in (("scaled_tail", "scaled"), ("normal_tail", "normal")):
            if not _close(float(r[col]), float(w[key])):
                out.append(f"{at}: {col} {r[col]} vs truth {w[key]}")
        if w["bracket"] is None:
            if not math.isnan(float(r["bound_bracket"])):
                out.append(f"{at}: bound_bracket should be nan below lam")
        elif not _close(float(r["bound_bracket"]), float(w["bracket"])):
            out.append(f"{at}: bound_bracket {r['bound_bracket']} vs {w['bracket']}")
        if r["underflow"] != "0":
            out.append(f"{at}: flagged underflow")
    return out


def _moments(rows, ref) -> list[str]:
    (row,) = rows
    return [
        f"{key}: {row[key]} vs {ref[key]}"
        for key in ("mu", "sigma_sq", "k_num", "k_den", "lambda", "scale_B")
        if float(row[key]) != float(Fraction(ref[key]))
    ]


def _exact_tail(rows, ref) -> list[str]:
    (row,) = rows
    lo, hi, truth = float(row["tail_lo"]), float(row["tail_hi"]), float(ref["tail"])
    if _bracket_misses(lo, hi, truth):
        return [f"y={row['y']}: bracket [{lo!r}, {hi!r}] misses truth {truth!r}"]
    return []


def _approx_tail(rows, ref) -> list[str]:
    (row,) = rows
    if not _close(float(row["value"]), float(ref["value"])):
        return [f"value {row['value']} vs truth {ref['value']}"]
    return []


def _bound(rows, ref) -> list[str]:
    (row,) = rows
    out = []
    if not _close(float(row["bracket"]), float(ref["bracket"])):
        out.append(f"bracket {row['bracket']} vs {ref['bracket']}")
    for key in ("lambda", "correction_sum"):
        if float(row[key]) != float(Fraction(ref[key])):
            out.append(f"{key} {row[key]} vs {ref[key]}")
    for key in ("r_star", "deltas", "K"):
        if row[key] != str(ref[key]):
            out.append(f"{key} {row[key]} vs {ref[key]}")
    return out


def _stein(rows, ref) -> list[str]:
    if [r["property"] for r in rows] != ref["properties"]:
        return [f"properties {[r['property'] for r in rows]} vs {ref['properties']}"]
    out = [f"{r['property']} failed" for r in rows if r["passed"] != "1"]
    residual = float(rows[-1]["worst_margin"])
    if not residual <= 10.0 * ref["tol"]:
        out.append(f"residual {residual!r} above 10*tol")
    return out


def _coupling(rows, ref) -> list[str]:
    fields = {r["field"]: r["value"] for r in rows}
    out = []
    if int(fields["trials_per_class"]) != ref["trials"]:
        out.append(f"trials_per_class {fields['trials_per_class']} vs {ref['trials']}")
    h = [float(fields[f"H_{i}"]) for i in range(ref["classes"] + 1)]
    tail_diff = float(fields["tail_diff"])
    closure = abs(math.fsum(h) - tail_diff)
    if not (closure <= CLOSURE_TOL and float(fields["closure_error"]) <= CLOSURE_TOL):
        out.append(f"H-closure {closure!r} above {CLOSURE_TOL}")
    want = float(ref["tail_diff"])
    if not abs(tail_diff - want) <= RTOL * abs(want) + 1e-15:
        out.append(f"tail_diff {tail_diff!r} vs truth {want!r}")
    lhs, rhs = float(fields["sizebias_lhs"]), float(fields["sizebias_rhs"])
    if "sizebias_rhs" in ref:
        if not abs(lhs - rhs) <= EXHAUSTIVE_TOL:
            out.append(f"exhaustive |lhs-rhs| = {abs(lhs - rhs)!r}")
        if not _close(rhs, float(ref["sizebias_rhs"])):
            out.append(f"exhaustive rhs {rhs!r} vs truth {ref['sizebias_rhs']}")
    else:
        se = math.hypot(float(fields["sizebias_stderr_lhs"]), float(fields["sizebias_stderr_rhs"]))
        if not abs(lhs - rhs) <= MC_SIGMAS * se:
            out.append(f"Monte Carlo |lhs-rhs| = {abs(lhs - rhs)!r} above {MC_SIGMAS} stderr {se!r}")
    return out


def _empirical(rows, ref) -> list[str]:
    want = ref["rows"]
    if [int(r["y"]) for r in rows] != [w["y"] for w in want]:
        return ["y grid differs from the reference"]
    out = []
    for r, w in zip(rows, want):
        dev, bracket = float(r["deviation"]), float(r["bracket"])
        if not abs(dev - float(w["deviation"])) <= 1e-9 * float(w["deviation"]) + 1e-15:
            out.append(f"y={w['y']}: deviation {dev!r} vs truth {w['deviation']}")
        if not _close(bracket, float(w["bracket"])):
            out.append(f"y={w['y']}: bracket {bracket!r} vs {w['bracket']}")
        if not _close(float(r["ratio"]), dev / bracket):
            out.append(f"y={w['y']}: ratio is not deviation/bracket")
    return out


CHECKS = {
    "moments": _moments,
    "exact-tail": _exact_tail,
    "approx-tail": _approx_tail,
    "sweep-relerr": _sweep,
    "compare-normal": _sweep,
    "sweep-scaling": _sweep,
    "bound": _bound,
    "stein-check": _stein,
    "coupling-check": _coupling,
    "empirical-constant": _empirical,
}


def check(kind: str, rows: list[dict], ref: dict) -> list[str]:
    """Problems with one command's CSV rows; a malformed CSV is a problem too."""
    try:
        return CHECKS[kind](rows, ref)
    except (KeyError, ValueError, TypeError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
