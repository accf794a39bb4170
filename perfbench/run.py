"""pi1lab benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --diff A B

Run from anywhere; the package is imported from ``src/`` next to this
directory, in this process, with one client sending the next request only
after the previous one has completed.

``--trace 0`` measures for about S seconds (it stops between units, see
workloads.py) after timing set-up in fresh interpreters, and prints the
end-to-end metrics, scaled to a reference CPU speed (see ``yardstick``). ``--trace 1`` runs a fixed list of requests chosen by
the seed, once untraced and once traced, and prints the per-layer metrics;
its counts repeat exactly for the same seed. Both check every answer and
print, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A wrong answer makes ``correct`` false and the
exit code 1.

``--diff A B`` compares the counts of two saved ``--trace 1`` outputs and
exits 1 if any count differs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

from tracer import Tracer
from workloads import FAILED, WORKLOADS, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# Median times on the reference machine (2-vCPU VM, Python 3.11.7) of
# yardstick() and of a bare `python3 -c pass`.
YARDSTICK_REFERENCE_S = 0.015
BARE_START_REFERENCE_S = 0.060
YARDSTICK_EVERY_S = 1.0
# yardstick() calls per speed sample, of which the median is taken
YARDSTICK_REPEATS = 3


def yardstick():
    """Seconds taken by a fixed CPU-bound job that does not use pi1lab.

    The speed of a vCPU on a shared host drifts by up to 2x over minutes,
    which no run length averages out. The run times this job between
    requests and reports each request's time at the speed the job had on
    the reference machine, so that runs made at different host loads compare.
    It mixes the costs pi1lab pays: small Fractions and ~1000-digit ints.
    """
    t0 = time.perf_counter()
    a = Fraction(1, 3)
    for i in range(400):
        a = (a * Fraction(i + 2, i + 1) + Fraction(1, 7)) / Fraction(9, 8)
        a = Fraction(a.numerator % 10**30 + 1, a.denominator % 10**30 + 1)
    x, y, m = 3**2000, 7**1100, 10**1000 + 9
    for _ in range(300):
        x = (x * y + 1) % m
    return time.perf_counter() - t0


def _env_info():
    import pi1lab.kernels

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "backend": pi1lab.kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": nproc,
    }


def _setup_seconds(code):
    """Median wall times of fresh interpreters that import pi1lab and build a
    handle, and of bare ones that run ``pass``, alternating.

    Process start and imports do not track the yardstick, so set-up is
    scaled by the bare start instead.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = {code: [], "pass": []}
    for _ in range(SETUP_REPEATS):
        for c in times:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", c], env=env, check=True)
            times[c].append(time.perf_counter() - t0)
    return statistics.median(times[code]), statistics.median(times["pass"])


def _speed_sample():
    return statistics.median(yardstick() for _ in range(YARDSTICK_REPEATS))


def closed_loop(units, seconds=None, tracer=None, speed=None):
    """Run units back to back until ``seconds`` have passed or ``units`` ends.

    With a ``speed`` list, the yardstick is sampled before the first request,
    before each request that starts at least YARDSTICK_EVERY_S after the
    previous sample, and after the last request. For each request, ``speed``
    receives the mean of the samples just before and just after it: the
    host's speed drifts within seconds, so a request is scaled by the speed
    around it rather than by the run's median speed.
    """
    latencies, failures = [], []
    samples, before = [], []
    start = time.perf_counter()
    sampled = None
    for unit in units:
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
        for call, check in unit:
            if speed is not None and (sampled is None or time.perf_counter() - sampled >= YARDSTICK_EVERY_S):
                samples.append(_speed_sample())
                sampled = time.perf_counter()
            before.append(len(samples) - 1)
            if tracer is not None:
                tracer.request += 1
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a request that raises is a failed request
                latencies.append(time.perf_counter() - t0)
                failures.append((FAILED, f"{type(exc).__name__}: {exc}"))
                continue
            latencies.append(time.perf_counter() - t0)
            verdict = check(result)
            if verdict is not None:
                failures.append(verdict)
    if speed is not None and latencies:
        samples.append(_speed_sample())
        speed.extend((samples[k] + samples[k + 1]) / 2 for k in before)
    return latencies, failures


def _scaled(latencies, speed):
    """Request times at the reference machine's speed."""
    return [t * YARDSTICK_REFERENCE_S / ys for t, ys in zip(latencies, speed)]


def _summary(latencies, failures):
    wrong = [why for kind, why in failures if kind == WRONG]
    for why in wrong[:5]:
        print(f"WRONG ANSWER: {why}", file=sys.stderr)
    if failures:
        print(f"info {len(failures)} failed, the first: {failures[0][1]}")
    return {"correct": not wrong, "attempted": len(latencies), "failed": len(failures)}


def run_probe(workload, seed, workdir):
    """Run the workload's probe, if any, and report how many of its requests
    failed. Returns False if one gave a wrong answer."""
    if workload.probe is None:
        return True
    latencies, failures = closed_loop([workload.probe(seed, workdir)])
    wrong = [why for kind, why in failures if kind == WRONG]
    for why in wrong[:5]:
        print(f"WRONG ANSWER in the probe: {why}", file=sys.stderr)
    first = f", the first: {failures[0][1]}" if failures else ""
    print(f"info probe (untimed, not in attempted or failed): {len(failures)} of {len(latencies)} failed{first}")
    return not wrong


def run_timed(workload, seed, seconds, workdir):
    setup, bare = _setup_seconds(workload.setup_code)
    speed = []
    latencies, failures = closed_loop(workload.units(random.Random(seed), workdir), seconds, speed=speed)
    head = _summary(latencies, failures)
    head["correct"] &= run_probe(workload, seed, workdir)
    n, ok = head["attempted"], head["attempted"] - head["failed"]
    lat = sorted(_scaled(latencies, speed))
    # > 1 when the host ran slower than the reference machine
    slowdown = sum(latencies) / sum(lat)
    print(f"info requests = {n}, failed = {head['failed']}, failed_frac = {head['failed'] / n:.4f}")
    print(
        f"info slowdown = {slowdown:.4f} over the requests, "
        f"bare interpreter start = {bare:.4f} s; unscaled: setup_s = {setup:.4f} s, "
        f"latency_p50_ms = {statistics.median(latencies) * 1000:.3f} ms, "
        f"throughput_rps = {ok / sum(latencies):.4f} 1/s"
    )
    if n >= 100:
        p90 = lat[math.ceil(0.9 * n) - 1]  # nearest rank
        print(f"info latency_p90_ms = {p90 * 1000:.3f} ms over {n} requests (scaled)")
    metrics = {
        "setup_s": (setup * BARE_START_REFERENCE_S / bare, "s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "throughput_rps": (ok / sum(lat), "1/s"),
        "success_frac": (ok / n, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return head, metrics


def run_traced(workload, seed, workdir):
    def units():
        return islice(workload.units(random.Random(seed), workdir), workload.trace_units)

    probe_correct = run_probe(workload, seed, workdir)
    plain_speed, speed = [], []
    plain, plain_failures = closed_loop(units(), speed=plain_speed)
    tracer = Tracer()
    tracer.install()
    latencies, failures = closed_loop(units(), tracer=tracer, speed=speed)
    for name in tracer.missing:
        print(f"info trace hook not found: {name}")
    head = _summary(latencies, failures)
    if any(kind == WRONG for kind, _ in plain_failures):
        print("WRONG ANSWER in the untraced pass", file=sys.stderr)
        head["correct"] = False
    head["correct"] &= probe_correct
    metrics = tracer.per_layer()
    # both passes scaled by their own yardstick samples, which tracing does not slow
    traced_s = sum(_scaled(latencies, speed))
    metrics["trace.overhead_ratio"] = (traced_s / sum(_scaled(plain, plain_speed)), "ratio")
    print("counters: " + json.dumps(tracer.counters(), sort_keys=True))
    return head, metrics


def _emit(head, metrics):
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    head["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(head))


def _load(path):
    run = counters = result = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("run: "):
                run = json.loads(line[len("run: ") :])
            elif line.startswith("counters: "):
                counters = json.loads(line[len("counters: ") :])
            elif line.startswith("{"):
                result = json.loads(line)
    if run is None or counters is None or result is None:
        raise ValueError(f"{path} is not the saved output of a --trace 1 run")
    return run, counters, result


def diff(path_a, path_b):
    """Print every count that differs between two traced outputs; 1 if any does."""
    try:
        (run_a, cnt_a, res_a), (run_b, cnt_b, res_b) = _load(path_a), _load(path_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key in ("workload", "seed", "backend", "python", "nproc"):
        if run_a.get(key) != run_b.get(key):
            print(f"warning: {key} differs: {run_a.get(key)} vs {run_b.get(key)}")
    rows = []
    for name in sorted(set(cnt_a) | set(cnt_b)):
        a, b = cnt_a.get(name, {}), cnt_b.get(name, {})
        if name == "derived":
            for key in sorted(set(a) | set(b)):
                rows.append((f"derived.{key}", a.get(key, 0), b.get(key, 0)))
        else:
            rows.append((f"{name}.calls", a.get("calls", 0), b.get("calls", 0)))
    for name in sorted(res_a["metrics"]):
        ma, mb = res_a["metrics"][name], res_b["metrics"].get(name)
        if mb is not None and ma["unit"] in ("count", "bits", "ratio") and name != "trace.overhead_ratio":
            rows.append((name, ma["value"], mb["value"]))
    changed = [(name, a, b) for name, a, b in rows if a != b]
    for name, a, b in changed:
        print(f"{name}: {a} -> {b}")
    print(f"{len(changed)} of {len(rows)} counts differ")
    return 1 if changed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two saved --trace 1 outputs")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if not (SRC / "pi1lab" / "__init__.py").is_file():
        print(f"error: no pi1lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("PI1LAB_DIGITS", None)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    run.update(_env_info())
    print("run: " + json.dumps(run))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            head, metrics = run_traced(workload, args.seed, workdir)
        else:
            head, metrics = run_timed(workload, args.seed, args.seconds, workdir)
    _emit(head, metrics)
    return 0 if head["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
