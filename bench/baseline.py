"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/baseline.py --seeds 1-10 --seconds 20 --trace 0 --out summary.json

Runs ``run.py`` once per (workload, seed), one process at a time, and
reports per metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``).  With ``--trace 1`` it also runs
the first seed a second time and fails unless every ``.calls`` count,
``perturbed.newton_iters`` and the failure counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = (".calls", ".failures", "perturbed.newton_iters")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="branch_scan,timemap_scan,eps_continuation")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    env.pin_threads()
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seeds,
              "machine": env.fingerprint(), "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            | {"unit": results[0]["metrics"][name]["unit"]}
            for name in results[0]["metrics"]
        }
        entry = {"attempted": attempted, "failed": failed, "metrics": metrics}
        if args.trace:
            again = run_once(workload, seeds[0], args.seconds, 1)["metrics"]
            drift = sorted(
                name for name, m in results[0]["metrics"].items()
                if name.endswith(EXACT) and m["value"] != again[name]["value"]
            )
            entry["counts_repeat"] = not drift
            if drift:
                status = 1
                print(f"{workload}: counts differ between two runs of seed {seeds[0]}: {drift}")
        report["workloads"][workload] = entry
        for name, m in metrics.items():
            print(f"{workload:17s} {name:36s} median {m['median']:<12.6g} spread {m['spread']:.4f} {m['unit']}")
        print(f"{workload:17s} failed {failed} of {attempted} attempted", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
