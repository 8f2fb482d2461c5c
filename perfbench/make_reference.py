"""Write perfbench/reference.json: mpmath truths for every benchmark command.

The values come from algorithms independent of the library:

- the law of S = sum_r b_r A(nu_r) by the Panjer recursion
  s p(s) = sum_r nu_r b_r p(s - b_r), which has only positive terms;
- Poisson tails as regularized incomplete gamma functions;
- the law of W = sum_r b_r Binomial(M*, p_r) by direct convolution of
  binomial pmfs;
- bound brackets and moments from exact fractions.

All of it runs in 50-digit arithmetic.  The benchmark only reads the file, so
none of this runs inside timed code.  Rerun after changing workloads.py:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from workloads import WORKLOADS

mp.mp.dps = 50
HERE = Path(__file__).resolve().parent
FLAGS = {"--strict", "--exhaustive", "--non-strict"}
STEIN_PROPERTIES = [
    "tail_monotone",
    "tail_jump_positive_c_over_w",
    "g_m_envelope",
    "g_l_envelope",
    "g_l_lattice_increments",
    "stein_equation_residual",
]


def _s(x) -> str:
    return mp.nstr(x, 25)


def q(x):
    """Exact Fraction (or int) to a 50-digit mpf."""
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def parse(argv) -> tuple[str, dict]:
    opts = {"--weights": "1,10", "--rates": "100,30"}
    i = 1
    while i < len(argv):
        if argv[i] in FLAGS:
            opts[argv[i]] = True
            i += 1
        else:
            opts[argv[i]] = argv[i + 1]
            i += 2
    return argv[0], opts


class Model:
    def __init__(self, weights, rates):
        self.b = [int(w) for w in weights]
        self.nu = [Fraction(r) for r in rates]
        self.mu = sum(b * v for b, v in zip(self.b, self.nu))
        self.sigma_sq = sum(b * b * v for b, v in zip(self.b, self.nu))
        self.k = self.mu / self.sigma_sq
        self.lam = self.k * self.mu
        self._pmf: list = []

    @classmethod
    def from_opts(cls, opts, scale=1):
        return cls(opts["--weights"].split(","), [Fraction(r) * scale for r in opts["--rates"].split(",")])

    def pmf(self, s_max: int) -> list:
        """Panjer recursion for the compound Poisson law of S."""
        p = self._pmf
        if not p:
            p.append(mp.exp(-q(sum(self.nu))))
        jumps = [(b, q(v) * b) for b, v in zip(self.b, self.nu)]
        for s in range(len(p), s_max + 1):
            p.append(mp.fsum(c * p[s - b] for b, c in jumps if b <= s) / s)
        return p

    def exact_tail(self, y: int, strict: bool):
        """P(S > y) or P(S >= y) as 1 - cdf, exact to ~1e-45 absolute."""
        top = y if strict else y - 1
        return 1 - mp.fsum(self.pmf(top)[: top + 1]) if top >= 0 else mp.mpf(1)

    def scaled_tail(self, y, strict: bool):
        ky = self.k * Fraction(y)
        t = math.floor(ky) + 1 if strict else math.ceil(ky)
        return poisson_ge(self.lam, t)

    def normal_tail(self, y):
        return mp.erfc((mp.mpf(y) - q(self.mu)) / mp.sqrt(2 * q(self.sigma_sq))) / 2

    def bound_params(self):
        n, m = self.k.numerator, self.k.denominator
        deltas = [b * v / self.mu for b, v in zip(self.b, self.nu)]
        K = [-((-n * b) // m) for b in self.b]
        r_star = max([r for r, b in enumerate(self.b, start=1) if n * b <= m], default=0)
        corr = sum(((K[r] - 2) * deltas[r] for r in range(r_star, len(self.b))), Fraction(0))
        return deltas, K, r_star, corr

    def bracket(self, y: int):
        if Fraction(y) < self.lam:
            return None
        _, _, _, corr = self.bound_params()
        lam = q(self.lam)
        return (1 + (y - lam) ** 2 / (2 * lam)) * (1 + q(corr)) + lam * (1 + mp.log(y))

    def sweep_row(self, y: int, strict: bool = True, **extra) -> dict:
        br = self.bracket(y)
        return {
            "y": y,
            **extra,
            "exact": _s(self.exact_tail(y, strict)),
            "scaled": _s(self.scaled_tail(y, strict)),
            "normal": _s(self.normal_tail(y)),
            "bracket": None if br is None else _s(br),
        }


def poisson_ge(lam, t: int):
    """P(A_lam >= t) = P(t, lam), the lower regularized incomplete gamma."""
    if t <= 0:
        return mp.mpf(1)
    return mp.gammainc(t, 0, q(lam), regularized=True)


def w_pmf(model: Model, trials: int, w_max: int) -> list:
    """Law of W = sum_r b_r Binomial(M*, nu_r/M*) on 0..w_max by convolution."""
    acc = [mp.mpf(0)] * (w_max + 1)
    acc[0] = mp.mpf(1)
    for b, v in zip(model.b, model.nu):
        p = q(v / trials)
        top = min(trials, w_max // b)
        binom = [mp.binomial(trials, j) * p**j * (1 - p) ** (trials - j) for j in range(top + 1)]
        nxt = [mp.mpf(0)] * (w_max + 1)
        for j, pj in enumerate(binom):
            shift = b * j
            for w in range(w_max + 1 - shift):
                nxt[w + shift] += pj * acc[w]
        acc = nxt
    return acc


def trials_for(model: Model, mstar: int) -> int:
    return mstar * max(1, math.ceil(max(model.nu)))


def reference(argv) -> dict:
    kind, o = parse(argv)
    if kind == "stein-check":
        return {"properties": STEIN_PROPERTIES, "tol": 1e-10}
    model = Model.from_opts(o)
    strict = "--strict" in o
    if kind == "moments":
        return {
            "mu": str(model.mu), "sigma_sq": str(model.sigma_sq),
            "k_num": model.k.numerator, "k_den": model.k.denominator,
            "lambda": str(model.lam), "scale_B": 1,
        }
    if kind == "exact-tail":
        return {"tail": _s(model.exact_tail(int(o["--y"]), strict)), "epsilon": 1e-12}
    if kind == "approx-tail":
        y = Fraction(o["--y"])
        if o["--mode"] == "discrete":
            return {"value": _s(model.scaled_tail(y, strict))}
        return {"value": _s(mp.gammainc(q(model.k * y), 0, q(model.lam), regularized=True))}
    if kind in ("sweep-relerr", "compare-normal"):
        ys = range(int(o["--y-from"]), int(o["--y-to"]) + 1)
        return {"rows": [model.sweep_row(y, scale_n=1) for y in ys], "epsilon": 1e-12}
    if kind == "sweep-scaling":
        y = int(o["--y"])
        rows = []
        for n_scale in (int(v) for v in o.get("--n-values", "1,2,3,4,5,6,7").split(",")):
            scaled = Model.from_opts(o, scale=n_scale)
            if scaled.lam <= y:
                rows.append(scaled.sweep_row(y, scale_n=n_scale))
        return {"rows": rows, "epsilon": 1e-12}
    if kind == "bound":
        deltas, K, r_star, corr = model.bound_params()
        return {
            "bracket": _s(model.bracket(int(o["--y"]))), "lambda": str(model.lam),
            "r_star": r_star, "correction_sum": str(corr),
            "deltas": ";".join(str(d) for d in deltas), "K": ";".join(str(k) for k in K),
        }
    n, m = model.k.numerator, model.k.denominator
    if kind == "coupling-check":
        y = int(o["--y"])
        trials = trials_for(model, int(o["--mstar"]))
        w_thr = -((-m * y) // n)
        out = {"trials": trials, "classes": len(model.b)}
        if "--exhaustive" in o:
            support = trials * sum(model.b)
            law = w_pmf(model, trials, support)
            out["sizebias_rhs"] = _s(mp.fsum(pw * n * w * min(n * w, 10) for w, pw in enumerate(law)))
        else:
            law = w_pmf(model, trials, w_thr)
        out["tail_diff"] = _s(1 - mp.fsum(law[:w_thr]) - poisson_ge(model.lam, y))
        return out
    if kind == "empirical-constant":
        trials = trials_for(model, int(o["--mstar"]))
        ys = [y for y in range(int(o["--y-from"]), int(o["--y-to"]) + 1) if Fraction(y) >= model.lam]
        law = w_pmf(model, trials, -((-m * ys[-1]) // n))
        rows = []
        for y in ys:
            w_tail = 1 - mp.fsum(law[: -((-m * y) // n)])
            dev = abs(w_tail / poisson_ge(model.lam, y) - 1)
            rows.append({"y": y, "deviation": _s(dev), "bracket": _s(model.bracket(y))})
        return {"rows": rows}
    raise ValueError(f"no reference for command {kind!r}")


def main() -> None:
    out = {
        "generator": "python3 perfbench/make_reference.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "workloads": {
            name: [{"argv": list(c.argv), "ref": reference(c.argv)} for c in w.commands]
            for name, w in WORKLOADS.items()
        },
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
