"""cplstab benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload preset-maps --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory, with the
environment as found: the benchmark records ``CPLSTAB_WORKERS`` and
``OPENBLAS_NUM_THREADS`` but sets neither.  Whole passes of the workload run
until the next pass would overrun ``--seconds``; each call into the program
is timed from outside and every output goes through the workload's gates.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  A host
probe runs before every timed call, and the call times are scaled to the
host speed at which the probe takes its reference time (see
``hostprobe.py``).  ``--trace 1`` alternates untraced passes with passes in
which every layer function is wrapped by the span recorder, and reports the
per-layer metrics of the traced passes, per traced pass.  The last stdout line is the JSON result; a fuller
report (machine block, samples, and in traced runs the spans and self-time
table) goes to ``.bench_out/``.
The exit code is 0 only when every gate passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small pass per workload, for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone; the run times it in child processes too")
    return parser.parse_args(argv)


def git_commit():
    """Commit of the checkout, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_block():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CPLSTAB_WORKERS": os.environ.get("CPLSTAB_WORKERS"),
        "commit": git_commit(),
    }


class Measurement:
    """Timed calls of whole passes, with the gate verdicts of each pass."""

    def __init__(self):
        self.samples = []  # (label, items, seconds, probe seconds or None)
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.passes = 0
        self.wall = 0.0

    @property
    def busy(self):
        return sum(sample[2] for sample in self.samples)

    @property
    def items(self):
        return sum(sample[1] for sample in self.samples)

    def scaled_seconds(self, reference_s):
        """Seconds of every timed call at the reference host speed."""
        from hostprobe import host_factors

        factors = host_factors([sample[3] for sample in self.samples], reference_s)
        return [sample[2] / f for sample, f in zip(self.samples, factors)]

    def item_ms(self, seconds):
        """ms per item of every timed call that did items, from `seconds` per call."""
        return [1000.0 * s / sample[1] for sample, s in zip(self.samples, seconds) if sample[1]]

    def merge_verdicts(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages


def run_pass(job, measurement, tracer=None, probe=None):
    """Time every call of one pass from outside, then put its outputs through the gates.

    A `probe` runs just before each call, untimed, and its seconds are kept
    with the call's.
    """
    start = time.perf_counter()
    calls = job.calls()
    outputs = []
    crashed = False
    for call in calls:
        probe_s = probe() if probe else None
        span = (tracer.span("bench." + job.item, len(measurement.samples))
                if tracer else contextlib.nullcontext())
        try:
            with span:
                t0 = time.perf_counter()
                output = call.run()
                elapsed = time.perf_counter() - t0
        except Exception:  # a failed operation counts as a miss; the run goes on
            measurement.attempted += 1
            measurement.failed += 1
            measurement.messages.append(f"{call.label}: {traceback.format_exc()}")
            crashed = True
            continue
        measurement.samples.append((call.label, call.items, elapsed, probe_s))
        outputs.append(output)
    if not crashed:
        measurement.merge_verdicts(job.check(calls, outputs))
    measurement.passes += 1
    measurement.wall += time.perf_counter() - start


def within_budget(start, rounds, seconds):
    """Whether one more round of the same length still fits in `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= seconds


def timed_run(job, seconds, probe):
    """Untraced, probed passes until the next one would overrun the budget."""
    measurement = Measurement()
    start = time.perf_counter()
    run_pass(job, measurement, probe=probe)
    while within_budget(start, measurement.passes, seconds):
        run_pass(job, measurement, probe=probe)
    return measurement


def traced_run(job, tracer, seconds):
    """Alternate untraced and traced passes, so that drift in machine speed
    hits both alike; returns (untraced, traced, job counters of traced passes)."""
    untraced, traced = Measurement(), Measurement()
    counters = Counter()
    tracer.phase = "measure"
    tracer.counters.clear()  # set-up ran traced; only the traced passes count
    start = time.perf_counter()
    while True:
        run_pass(job, untraced)
        before = job.counters.copy()
        with tracer.installed():
            run_pass(job, traced, tracer)
        counters.update(job.counters - before)
        if not within_budget(start, traced.passes, seconds):
            return untraced, traced, counters


def percentile(item_ms, pct):
    """The pct-th percentile of the per-call ms per item."""
    import numpy

    return float(numpy.percentile(item_ms, pct))


def setup_in_child(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def per_layer_values(tracer, counters, untraced, traced):
    """Per-layer quantities of the traced passes, per traced pass, by metric name.

    Counts, self times and bytes are divided by the number of traced passes,
    so they do not grow when a faster program fits more passes in the run.
    """
    passes = traced.passes
    measured = tracer.self_times(phase="measure")
    values = {name: count / passes for name, count in tracer.counters.items()}
    for name, (_, _, self_s) in measured.items():
        values[name + ".self_s"] = self_s / passes
    values["normalmode.unconfirmed_warnings"] = counters["unconfirmed_warnings"] / passes
    if counters["evaluated"]:
        values["crosscheck.kept_ratio"] = counters["kept"] / counters["evaluated"]
    values["trace.overhead_frac"] = traced.busy / untraced.busy - 1.0
    values["trace.accounted_frac"] = sum(row[2] for row in measured.values()) / traced.wall
    return values


def format_self_table(table, job_wall):
    lines = [f"{'span':34s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"{name:34s} {calls:8d} {total:10.4f} {self_s:10.4f} "
                     f"{100.0 * self_s / job_wall:6.2f}%")
    accounted = sum(row[2] for row in table.values())
    lines.append(f"{'sum of self times':34s} {'':8s} {'':10s} {accounted:10.4f} "
                 f"{100.0 * accounted / job_wall:6.2f}% of the {job_wall:.4f} s traced job")
    return "\n".join(lines)


def main(argv=None):
    start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cplstab", "__init__.py")):
        print(f"error: no cplstab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cplstab
    import hostprobe
    import workloads
    from spans import Tracer

    if not os.path.abspath(cplstab.__file__).startswith(SRC + os.sep):
        print(f"error: cplstab imported from {cplstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    job = workloads.WORKLOADS[args.workload](args.seed, OUT, tiny=args.tiny)
    modules = {name: getattr(cplstab, name)
               for name in ("assembly", "cli", "normalmode", "spectral", "stepper", "sweep")}
    tracer = Tracer(modules) if args.trace else None
    if tracer:
        with tracer.installed():
            job.setup()
    else:
        job.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    machine = machine_block()
    if machine["CPLSTAB_WORKERS"] is not None:
        print(f"warning: CPLSTAB_WORKERS={machine['CPLSTAB_WORKERS']} is set; "
              "the serial default is not what is measured", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "machine": machine}
    if args.trace:
        untraced, measurement, counters = traced_run(job, tracer, args.seconds)
        measurement.merge_verdicts(untraced)
        if not (untraced.samples and measurement.samples):
            print("\n".join(measurement.messages), file=sys.stderr)
            return 1
        wanted = declared["per_layer"]
        # a layer the workload never calls reads 0
        values = dict.fromkeys((m["name"] for m in wanted), 0.0)
        values.update(per_layer_values(tracer, counters, untraced, measurement))
        measured = tracer.self_times(phase="measure")
        table = format_self_table(measured, measurement.wall)
        report.update(self_times=measured, spans=tracer.span_records())
    else:
        # five set-ups, the median reported: this process, and two fresh
        # processes each before and after the passes, so they see the host at
        # different times.  Set-up is mostly imports and is not scaled: it does
        # not slow down with the host as the probe does.
        setup_samples = [setup_s] + [setup_in_child(args) for _ in range(2)]
        probe, reference_s = hostprobe.PROBES[job.probe]
        probe()
        measurement = timed_run(job, args.seconds, probe)
        setup_samples += [setup_in_child(args) for _ in range(2)]
        scaled = measurement.scaled_seconds(reference_s)
        item_ms = measurement.item_ms(scaled)
        if not item_ms:
            print("\n".join(measurement.messages), file=sys.stderr)
            return 1
        raw_ms = measurement.item_ms([sample[2] for sample in measurement.samples])
        values = {
            "setup_s": statistics.median(setup_samples),
            "items_per_s": measurement.items / sum(scaled),
            "item_ms_p50": percentile(item_ms, 50.0),
            "item_ms_tail": percentile(item_ms, job.tail_percentile),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = {
            "items_per_s": measurement.items / measurement.busy,
            "item_ms_p50": percentile(raw_ms, 50.0),
            "item_ms_tail": percentile(raw_ms, job.tail_percentile),
        }
        probes = [sample[3] for sample in measurement.samples]
        wanted = declared["end_to_end"]
        table = "\n".join(
            [f"item = {job.item}; {measurement.items} items in {measurement.passes} passes, "
             f"{measurement.busy:.3f} s busy",
             f"item_ms_tail is p{job.tail_percentile:g} of {len(item_ms)} samples; "
             f"setup_s is the median of {len(setup_samples)} set-ups",
             f"host probe {job.probe}: median {1000 * statistics.median(probes):.3f} ms over "
             f"{len(probes)} calls, reference {1000 * reference_s:.3f} ms; "
             "times below are scaled to the reference"]
            + [f"{args.workload} {name} unscaled = {value:.6g}" for name, value in raw.items()])
        report.update(setup_samples=setup_samples, tail_percentile=job.tail_percentile,
                      item_ms_samples=len(item_ms), unscaled=raw,
                      probe=job.probe, probe_reference_s=reference_s)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    fail_frac = measurement.failed / max(measurement.attempted, 1)
    result = {"correct": measurement.failed == 0 and measurement.attempted > 0,
              "attempted": measurement.attempted, "failed": measurement.failed,
              "metrics": metrics}
    report.update(result=result, fail_frac=fail_frac, counters=dict(job.counters),
                  passes=measurement.passes, samples=measurement.samples,
                  failures=measurement.messages)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh)

    print("machine: " + json.dumps(machine))
    for message in measurement.messages:
        print("FAIL " + message)
    print(table)
    for metric, entry in metrics.items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} "
          f"({measurement.failed} of {measurement.attempted} outputs)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
