"""Run one dlhecke benchmark workload and print its metrics.

    python3 perfbench/run.py --workload affine-whittaker --seed 1 \\
        --seconds 35 --trace 0

Run it from the root of a checkout; the library is imported from ./src.
Workloads (see perfbench/README.md): affine-whittaker, finite-cs,
verify-all.  A pass runs every case of the workload once.  Set-up
timing, an untimed warm-up pass and timed passes fill --seconds; timed
passes repeat until the next one would overrun it.  Every output is
digested and compared with perfbench/reference.json outside the timed
region.

--trace 0 reports the end-to-end metrics with tracing off: wall_s (median
pass time), setup_s (median time from spawning a child interpreter to it
having imported dlhecke and parsed the workload's specs) and peak_rss_mb
(after the warm-up pass).
Both times are scaled to the reference speed of perfbench/calibrate.py,
which keeps the shared host's drifting speed out of them; the times as
measured are printed too.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/tracing.py plus trace_overhead_frac.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
human-readable record of the environment and the samples.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
from calibrate import Clock
clock = Clock()
clock.start()
import dlhecke.cli
from dlhecke import rootdata
for text in sys.argv[3:]:
    rootdata.build_cartan(rootdata.RootSystemSpec.parse(text))
print("ready", *clock.stop(), flush=True)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": git_sha(ROOT),
            "loadavg": os.getloadavg()}


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    k = n - 10  # samples at or below the percentile
    return round(100 * k / n), sorted(samples)[k - 1]


def describe(name, samples, unit="s"):
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} {unit}" if tail
                 else "no tail percentile (needs >= 20 samples)")
    listed = ", ".join(f"{x:.4f}" for x in samples)
    return (f"{name}: median {med:.4f} {unit}, n={len(samples)}, {tail_text}"
            f" [{listed}]")


def measure_setup(specs):
    """Seconds from spawning a child interpreter to its "ready" line, as
    measured and at the reference speed.  The child clocks its imports
    with a calibrate.Clock; the ratio of reference to measured time it
    reports is applied to the whole spawn."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                 *specs],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        word, *times = line.split()
        if word != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up child did not report ready")
        child_wall, child_scaled = map(float, times)
        raw.append(elapsed)
        scaled.append(elapsed * child_scaled / child_wall)
    return raw, scaled


class Tally:
    """Cases attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def fail(self, case_name, why):
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(f"{case_name}: {why}")


@dataclass
class Pass:
    wall: float  # seconds in library calls
    scaled: float  # the same at the reference speed; 0 when not calibrated
    cpu: float
    walls: dict  # case name -> seconds
    outputs: dict  # case name -> output, for the cases that were correct


def run_pass(cases, reference, tally, calibrated=False):
    """Run every case once.  Only the library calls are timed, with the
    calibration kernel interleaved when calibrated=True; digests are taken
    between them."""
    p = Pass(0.0, 0.0, 0.0, {}, {})
    clock = Clock() if calibrated else None
    gc.collect()
    for case in cases:
        tally.attempted += 1
        if clock:
            clock.start()
        c0, t0 = time.process_time(), time.perf_counter()
        raised = None
        try:
            out = case.run()
        except Exception as exc:  # a raising case is one failed case
            raised = exc
        p.cpu += time.process_time() - c0
        if clock:
            wall, scaled = clock.stop()
            p.scaled += scaled
        else:
            wall = time.perf_counter() - t0
        p.wall += wall
        p.walls[case.name] = wall
        if raised is not None:
            tally.fail(case.name, f"raised {raised!r}")
        elif case.digest(out) == reference[case.name]:
            p.outputs[case.name] = out
        else:
            tally.fail(case.name, "output differs from the reference")
    return p


def check_outputs(cases, outputs, tally):
    """Each case's extra correctness check, outside the timed region."""
    for case in cases:
        if case.check is not None and case.name in outputs:
            if not case.check(outputs[case.name]):
                tally.fail(case.name, "extra correctness check failed")


def repeat(seconds, step):
    """Call step() until another call would overrun the time budget."""
    start, longest = time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def end_to_end(cases, specs, reference, seconds, tally):
    start = time.perf_counter()
    setup_raw, setup = measure_setup(specs)
    # An untimed warm-up pass without the calibration kernel, whose timer
    # ticks would move the library's allocations about and make the peak
    # memory vary; every later pass repeats the same work.
    warm = run_pass(cases, reference, tally)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    check_outputs(cases, warm.outputs, tally)
    passes = []
    repeat(seconds - (time.perf_counter() - start),
           lambda: passes.append(
               run_pass(cases, reference, tally, calibrated=True)))
    print(describe("setup_s", setup))
    print(describe("wall_s", [p.scaled for p in passes]))
    print("as measured, before scaling to the reference speed:")
    print(describe("  setup", setup_raw))
    print(describe("  wall", [p.wall for p in passes]))
    for case in cases:
        print(describe(f"    case {case.name}",
                       [p.walls[case.name] for p in passes]))
    print(describe("  cpu", [p.cpu for p in passes]))
    print("warm-up pass, as measured and without the kernel:",
          ", ".join(f"{name} {t:.4f} s" for name, t in warm.walls.items()))
    return {"wall_s": statistics.median(p.scaled for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kb / 1024}


def per_layer(cases, reference, seconds, tally):
    from tracing import Tracer
    untraced, traced, snapshots, top = [], [], [], []

    def step():
        p = run_pass(cases, reference, tally)
        if not untraced:
            check_outputs(cases, p.outputs, tally)
        untraced.append(p.wall)
        with Tracer() as tracer:
            traced.append(run_pass(cases, reference, tally).wall)
        snapshots.append(tracer.metrics())
        if not top:
            top.extend(tracer.self_s.most_common(8))

    repeat(seconds, step)
    metrics = {}
    for name in snapshots[0]:
        values = [s[name] for s in snapshots]
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                tally.fail(name, f"count differs between traced passes: "
                                 f"{values}")
    metrics["trace_overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1)
    print(describe("wall_s untraced", untraced))
    print(describe("wall_s traced", traced))
    print(f"top self time (first traced pass of {traced[0]:.4f} s):")
    for key, s in top:
        print(f"  {key}: {s:.4f} s ({s / traced[0]:.1%})")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dlhecke" / "__init__.py").is_file():
        print(f"error: no dlhecke sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    cases = workloads.build_cases(args.workload, args.seed)
    env = environment()
    print("env:", json.dumps(env))
    tally = Tally()
    if args.trace:
        from tracing import METRICS
        units = dict(METRICS, trace_overhead_frac="ratio")
        values = per_layer(cases, reference[args.workload], args.seconds,
                           tally)
    else:
        units = END_TO_END
        values = end_to_end(cases, workloads.WORKLOAD_SPECS[args.workload],
                            reference[args.workload], args.seconds, tally)
    print("loadavg after:", os.getloadavg())
    for note in tally.notes:
        print("FAILED", note)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
