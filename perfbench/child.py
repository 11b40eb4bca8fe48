"""One cold pass of a workload in a fresh interpreter; run.py starts it.

usage: python3 perfbench/child.py ROOT WORKLOAD SEED MODE TRACE

  ROOT   checkout whose src/sbspec is measured
  MODE   "setup": import sbspec and build the inputs, then exit
         "pass":  also run the timed body once, then the correctness gate
  TRACE  "1" records spans around the library's public functions

Prints one JSON line.  Times are CLOCK_MONOTONIC readings, which the
parent compares with its own reading taken before it started this process.
An untraced pass also times a fixed reference loop right before and right
after the body, so that the parent can express the body's time in units
of the machine's current speed.
"""

import json
import os
import resource
import sys
import time


def reference_s() -> float:
    """Time of a fixed pure-Python loop that does not touch sbspec.

    Table lookups, bit masks and small loops, the instruction mix of the
    library.  On a machine whose speed drifts (shared cores, frequency
    changes) its time moves with the body's: on the machine where the
    benchmark was built, per-pass correlation was about 0.85.
    """
    n = 24
    table = [tuple((a * 7 + b * 5 + a * b) % n for b in range(n)) for a in range(n)]
    start = time.monotonic()
    acc = 0
    for _ in range(3000):
        for a in range(n):
            row = table[a]
            mask = 0
            for b in range(n):
                mask |= 1 << row[table[b][a]]
            acc ^= mask
    return time.monotonic() - start


def main(argv: list[str]) -> int:
    root, workload, seed, mode, trace = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import sbspec

    if not os.path.abspath(sbspec.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported sbspec from {sbspec.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(root, ".bench_build", "perfbench")
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
    t_inputs = time.monotonic()
    inputs = workloads.INPUTS[workload](int(seed), workdir)
    t_ready = time.monotonic()
    report = {"t_inputs": t_inputs, "t_ready": t_ready}
    if mode == "pass":
        ref_before = reference_s() if tracer is None else 0.0
        report["t_body"] = time.monotonic()
        outputs = workloads.BODIES[workload](inputs)
        report["t_end"] = time.monotonic()
        if tracer is not None:
            tracer.stop()
        else:
            report["ref_s"] = (ref_before + reference_s()) / 2
        report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verdict = workloads.CHECKS[workload](inputs, outputs)
        report.update(
            attempted=verdict.attempted, failed=verdict.failed, problems=verdict.problems[:5]
        )
        if tracer is not None:
            report["layers"] = tracer.metrics()
            tracer.write_spans(os.path.join(workdir, f"spans-{workload}.tsv"))
        if workload == "catalog6":
            os.remove(inputs)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
