"""The benchmark's workloads: README-style CLI command lists, one per workload.

A pass runs every command of a workload once, in order, through
``scaled_poisson.cli.main``.  Every pass uses the same inputs; the run seed
feeds only the Monte Carlo ``--seed`` of ``coupling-check``.
"""

from __future__ import annotations

from dataclasses import dataclass

BENCH_MODEL = ("--weights", "1,10", "--rates", "100,30")
WIDE_MODEL = ("--weights", "1,100,10000", "--rates", "5,3,1")

# Placeholder in an argv that is replaced by the run seed.
SEED = "{seed}"


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how its CSV output is judged.

    ``known_defect`` names a documented library defect that makes this
    command's output check fail today.  The check still runs and its failure
    is still counted in ``failed``; the note only keeps an expected failure
    from marking the whole run incorrect.
    """

    argv: tuple[str, ...]
    known_defect: str | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    def with_seed(self, seed: int) -> list[str]:
        return [str(seed) if a == SEED else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


# The edge query P(S > 1250) sits at the truncation edge of the exact law.
# The library reports the bracket [5.0e-45, 5.0e-45] against an mpmath
# (Panjer) truth of 4.2e-32 because its mass deficit rounds to 0.
_EDGE_DEFECT = "ROADMAP Direction 1: mass deficit rounds to 0, bracket misses the truth"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_tails",
            why=(
                "the paper's headline tail sweep: hundreds of cheap tail queries on a "
                "1271-entry law, so per-query Python in cli, experiments and weighted_sum dominates"
            ),
            commands=(
                Command(("moments",) + BENCH_MODEL),
                Command(("exact-tail", "--y", "500", "--strict") + BENCH_MODEL),
                Command(("exact-tail", "--y", "1250", "--strict") + BENCH_MODEL, _EDGE_DEFECT),
                Command(("approx-tail", "--y", "500", "--mode", "discrete", "--strict") + BENCH_MODEL),
                Command(("approx-tail", "--y", "500", "--mode", "continuous") + BENCH_MODEL),
                Command(("sweep-relerr", "--y-from", "401", "--y-to", "700") + BENCH_MODEL),
                Command(("sweep-scaling", "--y", "400") + BENCH_MODEL),
                Command(("compare-normal", "--y-from", "420", "--y-to", "650") + BENCH_MODEL),
                Command(("bound", "--y", "60") + BENCH_MODEL),
            ),
        ),
        Workload(
            name="wide_lattice",
            why=(
                "weights 1,100,10000 give a 314149-entry law, so stride convolution "
                "and O(support) tail sums dominate; build and query are separate commands"
            ),
            commands=(
                Command(("exact-tail", "--y", "20000", "--strict") + WIDE_MODEL),
                Command(("sweep-relerr", "--y-from", "20000", "--y-to", "20035") + WIDE_MODEL),
            ),
        ),
        Workload(
            name="stein_coupling",
            why=(
                "the only workload reaching stein_lattice, coupling and "
                "bernoulli_lattice: Stein table, H-closure, size-bias checks"
            ),
            commands=(
                Command(
                    ("stein-check", "--lambda-num", "1600", "--lambda-den", "31", "--m", "31",
                     "--n", "4", "--y", "60", "--wmax", "5000")
                ),
                Command(
                    ("coupling-check", "--mstar", "50", "--y", "60", "--samples", "200000",
                     "--seed", SEED) + BENCH_MODEL
                ),
                # M* = 6 (12 trials) rather than the README's 8, whose exact
                # Fraction enumeration would take 1.6 s and swamp the Stein work.
                Command(
                    ("coupling-check", "--weights", "1,2", "--rates", "1,1", "--mstar", "6",
                     "--y", "5", "--exhaustive")
                ),
                Command(("empirical-constant", "--y-from", "52", "--y-to", "80", "--mstar", "100")
                        + BENCH_MODEL),
            ),
        ),
    )
}
