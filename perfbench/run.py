"""Cold-process benchmark of sbspec: one fresh interpreter per pass.

usage: python3 perfbench/run.py --workload {catalog6,lattice,suite12,all}
           [--seed N] [--seconds S] [--trace 0|1]

Each pass is a new Python process that imports sbspec from ./src, builds
the seeded inputs and runs the workload's body once; passes run one at a
time (closed loop, one client).  The library memoises lattices, spectra
and enumerations in unbounded lru caches, so any repeat inside one process
would time dictionary lookups, while a user pays the cold cost on every
sbspec invocation.

--trace 0 prints the end-to-end metrics:
  wall_ref     median over passes of the timed body's wall time divided by
               the time of a fixed reference loop run in the same process
               just before and after the body (child.py): the pass time in
               units of the machine's speed at that moment
  setup_s      median time from starting the process to inputs ready
               (interpreter start, import sbspec, building and validating
               the inputs), over set-up-only processes and the passes
  peak_rss_mb  median peak resident set of a pass
and, in the human-readable block, wall_s: the median wall time of the body
with its sample count and tail percentile.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see tracer.py), plus trace.overhead_s.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("catalog6", "lattice", "suite12")
EXPECTED_OPS = {"catalog6": 756, "lattice": 5, "suite12": 312}
SETUP_PROBES = 12
RUN_LIMIT_S = 170

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# The per-layer metrics printed by --trace 1, in BENCHMARK.json order.
PER_LAYER = (
    "groups.self_s",
    "groups.tables",
    "enumeration.self_s",
    "enumeration.classes",
    "braces.self_s",
    "braces.canonicalize_s",
    "braces.canonicalize_calls",
    "braces.validate_s",
    "braces.validate_calls",
    "ideals.self_s",
    "ideals.lattice_s",
    "ideals.lattice_builds",
    "ideals.members",
    "ideals.is_ideal_calls",
    "ideals.is_ideal_s",
    "ideals.add_closure_calls",
    "ideals.weight_s",
    "ideals.generated_calls",
    "ideals.generated_s",
    "ideals.lattice_cache_hit_ratio",
    "spectra.self_s",
    "spectra.spectrum_s",
    "spectra.is_prime_calls",
    "spectra.primes.star",
    "spectra.primes.ksv",
    "spectra.primes.huq",
    "spectra.primes.lattice",
    "topology.self_s",
    "topology.spec_topology_s",
    "topology.closed_axioms_s",
    "topology.galois_s",
    "topology.galois_pairs",
    "topology.reports_s",
    "morphisms.self_s",
    "morphisms.quotient_calls",
    "morphisms.homs",
    "suite.self_s",
    "suite.rows",
    "suite.fail_rows",
    "suite.vacuous_rows",
    "suite.evidence_ratio",
    "catalog.self_s",
    "catalog.build_record_s",
    "catalog.write_s",
    "catalog.read_s",
    "catalog.records",
    "serialize.self_s",
    "trace.wall_s",
    "trace.glue_s",
    "trace.overhead_s",
)


class SetupFailed(Exception):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Run:
    """The passes of one workload within one --seconds window."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, mode: str, trace: int = 0) -> tuple[float, dict | None]:
        """Start one process, wait for it; return (start time, report)."""
        cmd = [sys.executable, CHILD, ROOT, self.workload, str(self.seed), mode, str(trace)]
        limit = self.started + RUN_LIMIT_S - time.monotonic()
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=max(limit, 1), cwd=ROOT
            )
        except subprocess.TimeoutExpired:
            return t_spawn, None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return t_spawn, None
        return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_sample(self) -> float:
        t_spawn, report = self.child("setup")
        if report is None:
            raise SetupFailed(f"{self.workload}: set-up process failed")
        return report["t_ready"] - t_spawn

    def run_pass(self, trace: int = 0) -> dict | None:
        """One pass; a crashed or hung pass counts every op as failed."""
        t_spawn, report = self.child("pass", trace)
        if report is None:
            self.attempted += EXPECTED_OPS[self.workload]
            self.failed += EXPECTED_OPS[self.workload]
            self.problems.append(f"{self.workload}: pass process failed or timed out")
            return None
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.problems += report["problems"]
        report["setup_s"] = report["t_ready"] - t_spawn
        report["wall_s"] = report["t_end"] - report["t_body"]
        report["window_s"] = report["t_ready"] - report["t_inputs"] + report["wall_s"]
        report["elapsed_s"] = time.monotonic() - t_spawn
        return report

    def elapsed_share(self) -> float:
        return (time.monotonic() - self.started) / (self.deadline - self.started)

    def time_left_for(self, pass_s: float) -> bool:
        return time.monotonic() + pass_s <= self.deadline


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Untraced passes until the window closes; end-to-end metrics.

    Set-up-only processes are spread over the window, so that set-up is
    sampled under the same machine conditions as the passes.
    """
    run = Run(workload, seed, seconds)
    run.setup_sample()  # warm-up: fills the page cache and __pycache__
    setups, passes = [], []
    while True:
        while len(setups) < SETUP_PROBES * min(1.0, run.elapsed_share()):
            setups.append(run.setup_sample())
        report = run.run_pass()
        if report is None:
            break
        passes.append(report)
        if not run.time_left_for(statistics.median(p["elapsed_s"] for p in passes)):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(run.setup_sample())
    if not passes:
        return run, {}, {"passes": 0}
    walls = sorted(p["wall_s"] for p in passes)
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    info = {
        "wall_s": statistics.median(walls),
        "passes": len(passes),
        "setups": len(setups),
        "tail": tail_percentile(walls),
        "walls": [p["wall_s"] for p in passes],
        "refs": [p["ref_s"] for p in passes],
    }
    return run, metrics, info


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, values[(n * pct + 99) // 100 - 1]


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Pairs of untraced and traced passes; per-layer metrics of the traced."""
    run = Run(workload, seed, seconds)
    run.setup_sample()
    plain, traced = [], []
    while True:
        a = run.run_pass(trace=0)
        b = run.run_pass(trace=1)
        if a is None or b is None:
            break
        plain.append(a)
        traced.append(b)
        pair_s = statistics.median(x["elapsed_s"] + y["elapsed_s"] for x, y in zip(plain, traced))
        if not run.time_left_for(pair_s):
            break
    if not traced:
        return run, {}, {"passes": 0}
    layers = [t["layers"] for t in traced]
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [layer.get(name, 0) for layer in layers]
        if unit_of(name) == "s":
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                run.problems.append(f"{name} differs between traced passes: {values}")
                run.failed += 1
    metrics["trace.overhead_s"] = statistics.median(
        t["window_s"] for t in traced
    ) - statistics.median(p["window_s"] for p in plain)
    return run, metrics, {"passes": len(traced), "spans": layers[0]["trace.spans"]}


def summary(run: Run, metrics: dict, info: dict, traced: bool) -> list[str]:
    rate = run.failed / run.attempted if run.attempted else 1.0
    lines = [f"workload {run.workload} seed {run.seed}: {info['passes']} passes"]
    if not traced and metrics:
        tail = info["tail"]
        tail_text = f", p{tail[0]} {tail[1]:.4f} s" if tail else ""
        lines += [
            f"  wall_s       {info['wall_s']:.4f} s   median of {info['passes']}{tail_text}",
            f"  wall_ref     {metrics['wall_ref']:.3f} ref median of {info['passes']}",
            f"  setup_s      {metrics['setup_s']:.4f} s   median of {info['setups']}",
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB  median of {info['passes']}",
            "  wall_s per pass  " + " ".join(f"{w:.3f}" for w in info["walls"]),
            "  ref_s per pass   " + " ".join(f"{r:.3f}" for r in info["refs"]),
        ]
    elif metrics:
        lines.append(f"  {info['spans']} spans per traced pass")
        lines += [f"  {name:34} {metrics[name]:.6g} {unit_of(name)}" for name in PER_LAYER]
    lines.append(f"  error_rate   {rate:.4g}  ({run.failed} failed of {run.attempted} ops)")
    lines += [f"  problem: {p}" for p in run.problems[:10]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sbspec", "__init__.py")):
        print(f"no sbspec sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_build", "perfbench"), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out: dict[str, dict] = {}
    for name in names:
        how = measure_traced if args.trace else measure
        try:
            run, metrics, info = how(name, args.seed, args.seconds)
        except SetupFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        print("\n".join(summary(run, metrics, info, bool(args.trace))), flush=True)
        attempted += run.attempted
        failed += run.failed
        units = dict(END_TO_END)
        for key, value in metrics.items():
            label = key if len(names) == 1 else f"{name}.{key}"
            out[label] = {"value": value, "unit": units.get(key) or unit_of(key)}
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
