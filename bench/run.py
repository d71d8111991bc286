"""Benchmark of the htbif toolkit: seeded closed-loop workloads timed from
outside the library.

    python3 bench/run.py --workload branch_scan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run over a fixed number of operations.
``--workload all`` runs every workload in turn, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import env

env.pin_threads()

import hostspeed  # noqa: E402  (imports numpy, after the thread pins)

WORKLOAD_NAMES = ("branch_scan", "timemap_scan", "eps_continuation")
IMPORT_REPEATS = 5   # fresh-interpreter imports timed for setup_s
SETUP_REPEATS = 3    # in-process input generations timed for setup_s
REF_SHARE = 0.1      # reference seconds run after each operation, per operation second
SPEED_WINDOW = 2     # neighbours on each side pooled into an operation's host speed


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import htbif (with
    numpy and scipy), in reference seconds."""
    probe = [sys.executable, "-c", "import htbif"]
    env_vars = dict(os.environ, PYTHONPATH=str(env.SRC))
    times = [
        hostspeed.scaled_call(lambda: subprocess.run(probe, check=True, env=env_vars))[1]
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_op(wl, item, rec=None) -> tuple[float, str | None]:
    """One timed operation, then its checks after the clock stops (untraced).

    Returns (seconds, failure reason or None).
    """
    t0 = perf_counter()
    try:
        out = wl.op(item)
    except Exception as exc:
        return perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if rec is not None:
        rec.on = False
    try:
        return elapsed, wl.check(item, out)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


class Tally:
    """Latencies in reference seconds, with every failure and its reason."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed_samples = 0
        self.attempted = 0

    def add(self, seconds: float, reason: str | None) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if reason is not None:
            self.failures.append(reason)
            self.failed_samples += 1

    def count(self, other: "Tally") -> None:
        """Count another pass's operations and failures, not its latencies."""
        self.attempted += other.attempted
        self.failures.extend(other.failures)

    def ops_per_s(self) -> float:
        """Operations that passed their checks, per reference second spent in operations."""
        return (len(self.latencies) - self.failed_samples) / sum(self.latencies)


def run_ops(wl, items, seconds: float = float("inf"), rec=None) -> Tally:
    """Closed loop over ``items``: the next operation starts when the previous
    one and its checks have finished.  Stops when ``items`` ends or the
    operations took ``seconds``.

    Each operation is followed by reference units for REF_SHARE of its time.
    Its latency is scaled by the host speed those units measured, pooled over
    the operation and SPEED_WINDOW neighbours on each side, so a slow phase
    of the host scales the operations it covered.  The garbage collector is
    paused while operations run, as timeit does.
    """
    rows = []  # (seconds, failure reason, reference units, reference seconds)
    spent = 0.0
    gc.collect()
    gc.disable()
    try:
        for item in items:
            if rec is not None:
                rec.on = True
            try:
                elapsed, reason = run_op(wl, item, rec)
            finally:
                if rec is not None:
                    rec.on = False
            speed = hostspeed.Speed()
            speed.sample(REF_SHARE * elapsed)
            rows.append((elapsed, reason, speed.units, speed.seconds))
            spent += elapsed
            if spent >= seconds:
                break
    finally:
        gc.enable()
    tally = Tally()
    for i, (elapsed, reason, _, _) in enumerate(rows):
        near = rows[max(i - SPEED_WINDOW, 0): i + SPEED_WINDOW + 1]
        factor = hostspeed.REF_SECONDS * sum(r[2] for r in near) / sum(r[3] for r in near)
        tally.add(elapsed * factor, reason)
    return tally


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    import workloads

    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        wl, seconds_ref = hostspeed.scaled_call(lambda: workloads.make(name, seed))
        setups.append(seconds_ref)
    items = wl.items()
    warm = Tally()
    for _ in range(wl.warmup):
        warm.add(*run_op(wl, next(items)))
    tally = run_ops(wl, items, seconds)
    tally.count(warm)
    value, pct = tail(tally.latencies)
    fail_frac = len(tally.failures) / tally.attempted
    metrics = {
        "ops_per_s": metric(tally.ops_per_s(), "1/s"),
        "op_p50_ms": metric(1e3 * statistics.median(tally.latencies), "ms"),
        "op_tail_ms": metric(1e3 * value, "ms"),
        "ok_frac": metric(1.0 - fail_frac, "frac"),
        "setup_s": metric(import_s + statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "fail_frac": fail_frac,
        "inputs": len(tally.latencies),
        "op_tail_percentile": pct,
        "warmup_ops": warm.attempted,
        "import_s": import_s,
        "generation_s": setups,
    }
    return metrics, tally, info


def traced(name: str, seed: int) -> tuple[dict, Tally, dict]:
    """Trace one set-up and a fixed batch of operations; time the same batch
    untraced first, so the two throughputs give the tracing overhead."""
    import layertrace
    import workloads

    rec = layertrace.Recorder()
    rec.install()
    rec.on = True
    try:
        wl = workloads.make(name, seed)
    finally:
        rec.on = False
        rec.uninstall()
    items = wl.items()
    for _ in range(wl.warmup):
        run_op(wl, next(items))
    batch = [next(items) for _ in range(wl.trace_ops)]
    plain = run_ops(wl, batch)
    rec.install()
    try:
        spans = run_ops(wl, batch, rec=rec)
    finally:
        rec.uninstall()
    if rec.stack:
        raise RuntimeError(f"unbalanced span stack after tracing: {rec.stack!r}")
    metrics = {k: metric(v, unit) for k, (v, unit) in layertrace.per_layer_metrics(rec).items()}
    metrics["trace.untraced_ops_per_s"] = metric(plain.ops_per_s(), "1/s")
    metrics["trace.traced_ops_per_s"] = metric(spans.ops_per_s(), "1/s")
    metrics["trace.overhead"] = metric(plain.ops_per_s() / spans.ops_per_s() - 1.0, "frac")
    spans.count(plain)
    return metrics, spans, {"trace_ops": wl.trace_ops}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    env.import_htbif()
    if args.trace:
        metrics, tally, info = traced(args.workload, args.seed)
    else:
        metrics, tally, info = end_to_end(args.workload, args.seed, args.seconds)
    failed = len(tally.failures)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=env.fingerprint())
    for reason in tally.failures[:5]:
        print(f"# failed: {reason}")
    print("# info " + json.dumps(info, sort_keys=True))
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
