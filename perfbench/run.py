"""Benchmark of the scaled-poisson CLI: README-style commands, run end to end.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tails --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

One process runs one workload as a closed loop with a single client.  A pass
runs each command of the workload (perfbench/workloads.py) in-process through
``scaled_poisson.cli.main`` with ``--out`` pointing at a scratch file; after
the pass every CSV is checked against mpmath truths (perfbench/checks.py,
perfbench/reference.json) outside the timed region.

``--trace 0`` reports the end-to-end metrics: set-up time (median of fresh
processes that import the library and build the inputs), pass time p50/p90,
CSV rows per second and peak RSS.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics from spans around every
public library function (perfbench/tracer.py), plus the tracing overhead;
the spans are written to .perfbench-out/ when the run ends.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  ``failed`` counts every command that exits non-zero,
raises or fails its output check.  A command listed as a known library defect
still counts in ``failed`` but does not make the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check, read_csv
from tracer import MODULES, ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
MIN_PASSES = 4

# The end-to-end metrics in BENCHMARK.json, each with a regression bound.
END_TO_END = {
    "setup_s": "s",
    "pass_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
# Printed beside them but not in BENCHMARK.json.  The host's CPU speed drifts
# by 15-20% over minutes and moves the share of fast passes, so over ten 35 s
# runs on a shared 2-CPU machine the median pass time spread by up to 0.25 of
# its median and rows/s by up to 0.19, while p90 spread by at most 0.13.
PRINTED_ONLY = {
    "pass_ms.p50": "ms",
    "rows_per_s": "1/s",
}

PER_LAYER_UNITS = {
    **{f"{m}.self_ms": "ms" for m in ("bench",) + MODULES},
    **{f"{m}.errors": "count" for m in MODULES},
    "cli.rows": "count",
    "experiments.rows": "count",
    "weighted_sum.exact_distribution.ms": "ms",
    "weighted_sum.exact_distribution.calls": "count",
    "weighted_sum.support_entries": "count",
    "weighted_sum.tail.us": "us",
    "weighted_sum.tail.calls": "count",
    "weighted_sum.queries_per_build": "ratio",
    "poisson_core.poisson_tail.us": "us",
    "poisson_core.poisson_tail.calls": "count",
    "poisson_core.regularized_gamma_q.us": "us",
    "stein_lattice.solve_stein.ms": "ms",
    "stein_lattice.solve_stein.calls": "count",
    "stein_lattice.points": "count",
    "stein_lattice.series_terms": "count",
    "stein_lattice.verify_f_properties.ms": "ms",
    "stein_lattice.checked_points": "count",
    "bernoulli_lattice.w_distribution.ms": "ms",
    "bernoulli_lattice.support_entries": "count",
    "coupling.h_decomposition.ms": "ms",
    "coupling.size_bias_sample.ms": "ms",
    "coupling.samples_per_s": "1/s",
    "coupling.size_bias_check_exact.ms": "ms",
    "coupling.peak_rss_mb": "MB",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}

# The ROADMAP's ad-hoc baselines, re-measured as the mean time of one span
# inside one command: (metric, workload, command index, span name).
BASELINES = (
    ("baseline.exact_distribution.ms", "paper_tails", 1, "weighted_sum.exact_distribution"),
    ("baseline.relative_error_sweep.ms", "paper_tails", 5, "experiments.relative_error_sweep"),
    ("baseline.scaling_sweep.ms", "paper_tails", 6, "experiments.scaling_sweep"),
    ("baseline.w_distribution_mstar50.ms", "stein_coupling", 1, "bernoulli_lattice.w_distribution"),
    ("baseline.h_decomposition.ms", "stein_coupling", 1, "coupling.h_decomposition"),
    ("baseline.size_bias_sample_2e5.ms", "stein_coupling", 1, "coupling.size_bias_sample"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark (library or reference missing)."""


def import_cli():
    """scaled_poisson.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "scaled_poisson" / "__init__.py").is_file():
        raise SetupError(f"no library source at {SRC / 'scaled_poisson'}")
    sys.path.insert(0, str(SRC))
    import scaled_poisson.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"imported scaled_poisson from {cli.__file__}, not from {SRC}")
    return cli


def load_references(workload) -> list[dict]:
    """The reference entry of every command, checked against the workload."""
    path = HERE / "reference.json"
    if not path.is_file():
        raise SetupError(f"missing {path}; run perfbench/make_reference.py")
    entries = json.loads(path.read_text())["workloads"].get(workload.name, [])
    if [tuple(e["argv"]) for e in entries] != [c.argv for c in workload.commands]:
        raise SetupError("reference.json is stale; run perfbench/make_reference.py")
    return [e["ref"] for e in entries]


def build_inputs(workload, seed: int, workdir: Path) -> list[tuple[Command, list[str], Path, dict]]:
    refs = load_references(workload)
    inputs = []
    for i, (cmd, ref) in enumerate(zip(workload.commands, refs)):
        out = workdir / f"{i}-{cmd.kind}.csv"
        inputs.append((cmd, cmd.with_seed(seed) + ["--out", str(out)], out, ref))
    return inputs


def setup_probe(workload, seed: int) -> int:
    """Child side of the set-up measurement: import, build inputs, report."""
    import_cli()
    build_inputs(workload, seed, OUT)
    print("ready", flush=True)
    return 0


def measure_setup(workload, seed: int) -> float:
    """Median wall time from spawning a fresh process until it is ready."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise SetupError(f"set-up probe exited with {code}")
        times.append(elapsed)
    return statistics.median(times)


def environment(seed: int, workload: str) -> dict:
    def git_sha() -> str:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                 capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return res.stdout.strip() if res.returncode == 0 else "unknown"

    def cpu_model() -> str:
        with contextlib.suppress(OSError):
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        return platform.processor() or "unknown"

    digest = hashlib.sha256()
    for path in sorted((SRC / "scaled_poisson").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


class Runner:
    """Runs passes of one workload and tallies attempts, failures and rows."""

    def __init__(self, cli, inputs, tracer=None):
        self.inputs = inputs
        self.tracer = tracer
        self.plain = (cli.main, self._commands)
        if tracer is not None:
            self.traced = (tracer.wrap(cli.main, "cli.main"), tracer.wrap(self._commands, ROOT_SPAN))
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}
        self.known: dict[str, str] = {}
        self.rows_per_pass = 0

    def _commands(self, main) -> list:
        results = []
        for i, (_, argv, _, _) in enumerate(self.inputs):
            if self.tracer is not None:
                self.tracer.command_index = i
            try:
                results.append(main(argv))
            except Exception as e:  # a crashing command is a failed operation
                results.append(e)
        return results

    def run_pass(self, traced: bool = False) -> tuple[float, list]:
        """Run every command once; returns (seconds, exit code or exception each)."""
        for _, _, out, _ in self.inputs:
            out.unlink(missing_ok=True)
        main, body = self.traced if traced else self.plain
        if traced:
            self.tracer.install()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                results = body(main)
                elapsed = perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.tracer.errors["cli"] += sum(1 for r in results if isinstance(r, int) and r != 0)
        return elapsed, results

    def check_pass(self, results) -> None:
        """Judge every output of the pass just run (outside the timed region)."""
        rows = 0
        for (cmd, _, out, ref), res in zip(self.inputs, results):
            self.attempted += 1
            if isinstance(res, Exception):
                problems = ["raised " + "".join(traceback.format_exception_only(res)).strip()]
            elif res != 0:
                problems = [f"exit code {res}"]
            else:
                csv_rows = read_csv(out)
                rows += len(csv_rows)
                problems = check(cmd.kind, csv_rows, ref)
            if problems:
                self.failed += 1
                label = " ".join(cmd.argv)
                target = self.known if cmd.known_defect else self.unexpected
                target.setdefault(label, f"{problems[0]} ({len(problems)} problem(s))")
        self.rows_per_pass = rows

    def loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Closed loop for ``seconds`` after one warm-up pass.

        Returns (untraced pass times, traced pass times); with a tracer, odd
        passes are traced and even ones are not.
        """
        self.check_pass(self.run_pass()[1])
        plain, traced = [], []
        deadline = perf_counter() + seconds
        while (
            perf_counter() < deadline
            or len(plain) < MIN_PASSES
            or (self.tracer is not None and len(traced) < MIN_PASSES)
        ):
            use_trace = self.tracer is not None and len(plain) > len(traced)
            elapsed, results = self.run_pass(use_trace)
            (traced if use_trace else plain).append(elapsed)
            self.check_pass(results)
        return plain, traced


def end_to_end_metrics(setup_s: float, times: list[float], rows_per_pass: int) -> dict:
    ms = np.asarray(times) * 1000.0
    return {
        "setup_s": setup_s,
        "pass_ms.p50": float(np.percentile(ms, 50)),
        "pass_ms.p90": float(np.percentile(ms, 90)),
        "rows_per_s": rows_per_pass * len(times) / float(np.sum(times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, summary, workload: str, plain, traced, rows_per_pass) -> dict:
    p = max(summary.passes, 1)

    def per_pass(x):
        return x / p

    def ms(name):
        return summary.mean_s(name) * 1e3

    ws_builds = summary.calls_of("weighted_sum.exact_distribution") + summary.calls_of(
        "bernoulli_lattice.w_distribution"
    )
    sampling_s = summary.total_of("coupling.size_bias_sample")
    c = tracer.counts
    out = {f"{m}.self_ms": per_pass(summary.module_self_s(m)) * 1e3 for m in ("bench",) + MODULES}
    out.update({f"{m}.errors": tracer.errors.get(m, 0) for m in MODULES})
    out.update({
        "cli.rows": rows_per_pass,
        "experiments.rows": per_pass(c["experiments.rows"]),
        "weighted_sum.exact_distribution.ms": ms("weighted_sum.exact_distribution"),
        "weighted_sum.exact_distribution.calls": per_pass(summary.calls_of("weighted_sum.exact_distribution")),
        "weighted_sum.support_entries": per_pass(c["weighted_sum.support_entries"]),
        "weighted_sum.tail.us": summary.mean_s("weighted_sum.tail") * 1e6,
        "weighted_sum.tail.calls": per_pass(summary.calls_of("weighted_sum.tail")),
        "weighted_sum.queries_per_build": summary.calls_of("weighted_sum.tail") / ws_builds if ws_builds else 0.0,
        "poisson_core.poisson_tail.us": summary.mean_s("poisson_core.poisson_tail") * 1e6,
        "poisson_core.poisson_tail.calls": per_pass(summary.calls_of("poisson_core.poisson_tail")),
        "poisson_core.regularized_gamma_q.us": summary.mean_s("poisson_core.regularized_gamma_q") * 1e6,
        "stein_lattice.solve_stein.ms": ms("stein_lattice.solve_stein"),
        "stein_lattice.solve_stein.calls": per_pass(summary.calls_of("stein_lattice.solve_stein")),
        "stein_lattice.points": per_pass(c["stein_lattice.points"]),
        "stein_lattice.series_terms": per_pass(c["stein_lattice.series_terms"]),
        "stein_lattice.verify_f_properties.ms": ms("stein_lattice.verify_f_properties"),
        "stein_lattice.checked_points": per_pass(c["stein_lattice.checked_points"]),
        "bernoulli_lattice.w_distribution.ms": ms("bernoulli_lattice.w_distribution"),
        "bernoulli_lattice.support_entries": per_pass(c["bernoulli_lattice.support_entries"]),
        "coupling.h_decomposition.ms": ms("coupling.h_decomposition"),
        "coupling.size_bias_sample.ms": ms("coupling.size_bias_sample"),
        "coupling.samples_per_s": c["coupling.samples"] / sampling_s if sampling_s else 0.0,
        "coupling.size_bias_check_exact.ms": ms("coupling.size_bias_check_exact"),
        "coupling.peak_rss_mb": tracer.coupling_peak_rss_mb,
        "trace.spans": per_pass(len(tracer.start)),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    })
    for metric, wl, index, name in BASELINES:
        out[metric] = summary.mean_s(name, command=index) * 1e3 if wl == workload else 0.0
    return out


PER_LAYER_UNITS.update({metric: "ms" for metric, *_ in BASELINES})


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    setup_s = measure_setup(workload, seed)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        tracer = Tracer() if trace else None
        runner = Runner(cli, build_inputs(workload, seed, workdir), tracer)
        plain, traced = runner.loop(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(seed, workload.name)
    print("env " + json.dumps(env))
    problems = [f"unexpected failure: {k}: {v}" for k, v in runner.unexpected.items()]
    if trace:
        summary = tracer.summary()
        metrics = per_layer_metrics(tracer, summary, workload.name, plain, traced, runner.rows_per_pass)
        # Self times partition the traced pass time when every span is
        # properly nested in its parent.
        if abs(summary.self_sum_s - summary.pass_s) > 1e-9 * summary.pass_s + 1e-9:
            problems.append(f"self times sum to {summary.self_sum_s} s, traced passes took {summary.pass_s} s")
        write_trace(tracer, env, metrics)
        print(f"traced {len(traced)} passes, untraced {len(plain)}; self times sum to "
              f"{summary.self_sum_s:.6f} s of {summary.pass_s:.6f} s traced pass time")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(setup_s, plain, runner.rows_per_pass)
        print(f"{len(plain)} timed passes after 1 warm-up, {len(workload.commands)} commands, "
              f"{runner.rows_per_pass} CSV rows each")
        units = END_TO_END
    for name, value in metrics.items():
        unit = units.get(name) or PRINTED_ONLY[name] + " (printed only)"
        print(f"metric {workload.name} {name} = {value:.6g} {unit}")
    print(f"metric {workload.name} failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} commands)")
    for label, problem in runner.known.items():
        cmd = next(c for c in workload.commands if " ".join(c.argv) == label)
        print(f"known defect, counted as failed: {label}: {problem} [{cmd.known_defect}]")
    for problem in problems:
        print(problem, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def write_trace(tracer, env: dict, metrics: dict) -> None:
    """The run's summary as JSON and all its spans as compressed columns.

    Span i has name ``names[name[i]]``, parent span ``parent[i]`` (-1 for a
    pass), command index ``command[i]`` and start/end in seconds from the
    first span.
    """
    stem = OUT / f"trace-{env['workload']}-seed{env['seed']}"
    t0 = tracer.start[0] if tracer.start else 0.0
    np.savez_compressed(
        stem.with_suffix(".npz"),
        name=np.asarray(tracer.span_name, dtype=np.int32),
        parent=np.asarray(tracer.parent, dtype=np.int32),
        command=np.asarray(tracer.command, dtype=np.int32),
        start=np.asarray(tracer.start) - t0,
        end=np.asarray(tracer.end) - t0,
    )
    stem.with_suffix(".json").write_text(
        json.dumps({"env": env, "metrics": metrics, "names": tracer.names}, indent=1)
    )
    print(f"trace written to {stem.relative_to(ROOT)}.json and .npz")


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        workload = WORKLOADS[args.workload]
        if args.setup_probe:
            return setup_probe(workload, args.seed)
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
