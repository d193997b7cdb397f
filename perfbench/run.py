"""girthforge benchmark: one workload per call, checked, with named metrics.

    python3 perfbench/run.py --workload verify-claims --seed 1 --seconds 60 --trace 0

Run from any directory; the program is imported from ``src/`` beside this
directory. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run. ``--workload all`` runs every workload in turn, each in
a fresh process. Scratch files go to ``.perfbench/`` at the checkout root.
See README.md beside this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
NAMES = ("verify-claims", "ext-roundtrip")

# Fresh interpreter start-ups per run; set-up time is their median. They
# run in batches between body repetitions, so the median samples the
# machine's speed across the run rather than in one moment.
SETUP_STARTS = 16
SETUP_BATCH = 4
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from girthforge import make_field
for spec in sys.argv[2:]:
    make_field(*map(int, spec.split(",")))
print(time.perf_counter() - t0)
"""

UNITS = {"_s": "s", "_calls": "count", "_mb": "MB", "_ns": "ns", "_bytes": "bytes", "_ratio": "ratio", "_rate": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def use_sources() -> None:
    """Put ``src/`` first on the import path; exit with an error without it."""
    if not (SRC / "girthforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no girthforge sources under {SRC}")
    sys.path.insert(0, str(SRC))


def startups(fields: tuple[tuple[int, int], ...], n: int) -> list[float]:
    """Seconds for import plus make_field, each in a fresh interpreter."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)]
    argv += [f"{p},{m}" for p, m in fields]
    times = []
    for _ in range(n):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def mul_ns(f, seed: int) -> float:
    """Untraced ns per Field.mul over a seeded batch of element pairs."""
    rng = random.Random(f"{seed}/mul")
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(20000)]
    mul = f.mul
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            mul(a, b)
        per_call.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(per_call)


def repeat(seconds: float, once) -> list:
    """Call `once` until the next call would pass `seconds`; at least once."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def run_untraced(workload, run, seconds: float) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics, and each repetition's wall times for the log.

    Each repetition's time is scaled to the probe's reference host speed
    by the probe samples taken during it (speed.py). Set-up runs in child
    processes the probe does not see, so it stays wall time.
    """
    startups(workload.fields, 1)  # may compile bytecode; not counted
    setup: list[float] = []
    probe = speed.Probe()

    def once():
        if len(setup) < SETUP_STARTS:
            setup.extend(startups(workload.fields, SETUP_BATCH))
        since = len(probe.samples)
        steps = run.repetition(workload)
        return steps, probe.factor(since)

    with probe.sampling():
        iterations = repeat(seconds, once)
        setup += startups(workload.fields, max(0, SETUP_STARTS - len(setup)))
    peak = tracer.maxrss_mb()
    bodies = [sum(steps.values()) for steps, _ in iterations]
    factors = [factor for _, factor in iterations]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(b / f for b, f in zip(bodies, factors)),
        "peak_rss_mb": peak,
    }
    log = {
        "wall_run_s": statistics.median(bodies),
        "body_s": " ".join(f"{t:.4f}" for t in bodies),
        "speed_factor": " ".join(f"{f:.4f}" for f in factors),
    }
    for step in workload.steps:
        times = [steps[step] for steps, _ in iterations]
        log[step] = f"{statistics.median(times)} (each {' '.join(f'{t:.4f}' for t in times)})"
    return metrics, log


def run_traced(workload, run, seconds: float, trace_file: Path) -> dict[str, float]:
    """Per-layer metrics from traced repetitions.

    Traced and untraced repetitions alternate, so a drift in machine
    speed reaches both sides of the tracing overhead alike. Step times
    (``step.<name>``) come from the untraced repetitions; steps of other
    workloads read 0.
    """
    from girthforge import gf
    from workloads import WORKLOADS

    def pair():
        rec = tracer.Recorder()
        run.around = lambda: tracer.tracing(rec)
        traced = sum(run.repetition(workload).values())
        run.around = contextlib.nullcontext
        return rec, traced, run.repetition(workload)

    pairs = repeat(seconds, pair)
    per_it = [tracer.layer_metrics(rec) for rec, _, _ in pairs]
    metrics = {}
    for key, value in per_it[0].items():
        if isinstance(value, int) or key.endswith("_mb") or key.endswith("_ratio"):
            # Counts repeat exactly; a peak rises only in the first repetition.
            metrics[key] = value
        else:
            metrics[key] = statistics.median(m[key] for m in per_it)
    metrics["trace.overhead_ratio"] = statistics.median(t / sum(u.values()) for _, t, u in pairs)
    for step in dict.fromkeys(s for w in WORKLOADS.values() for s in w.steps):
        metrics[f"step.{step}"] = statistics.median(u.get(step, 0.0) for _, _, u in pairs)
    metrics["graph.export_bytes"] = int(run.notes.get("graph.export_bytes", 0))
    metrics["gf.mul_ns"] = mul_ns(gf.make_field(*workload.probe_field), run.seed)
    trace_file.write_text(json.dumps([rec.as_json() for rec, _, _ in pairs]) + "\n")
    return metrics


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    use_sources()
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(seed, workdir)
        if trace:
            trace_file = SCRATCH / f"trace-{name}-seed{seed}.json"
            metrics = run_traced(workload, run, seconds, trace_file)
            log = {"trace_file": str(trace_file.relative_to(ROOT))}
        else:
            metrics, log = run_untraced(workload, run, seconds)
        t0 = time.perf_counter()
        try:
            workload.oracle(run)
        except Exception as exc:  # the program failed under the oracle
            run.oracle_check(f"oracle phase raised {exc!r}", False)
        if trace:
            metrics["oracle.check_s"] = time.perf_counter() - t0
            metrics["oracle.checks"] = run.oracle_checks
            metrics["oracle.disagreements"] = run.oracle_disagreements
            metrics["error_rate"] = run.failed / run.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for what in run.failures:
        print(f"FAILED {what}", file=sys.stderr)
    print(f"workload={name} seed={seed} trace={int(trace)} error_rate={run.failed / run.attempted}")
    for key, value in log.items():
        print(f"  {key} {value}")
    for key, value in sorted(metrics.items()):
        print(f"  {key} {value} {unit_of(key)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    use_sources()
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if subprocess.run(cmd, timeout=900).returncode != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
