"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py
    python3 perfbench/spread.py --write-baseline "seed commit"

It runs every workload on ten seeds (101-110).  For every workload and
end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  With --write-baseline it also
makes one traced run per workload at the default seed and writes
everything to perfbench/baseline.json under the given label.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUNS = 10
FIRST_SEED = 101


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write-baseline", metavar="LABEL")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    out = {}
    for workload in workloads.WORKLOADS:
        runs = [bench(workload, FIRST_SEED + i, 0, seconds) for i in range(RUNS)]
        out[workload] = {"seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1],
                         "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            out[workload]["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound
                                                         else "OVER BOUND")
            print(f"{workload:8s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                  f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}  bound {bound}  {flag}",
                  flush=True)
    if args.write_baseline:
        for workload in workloads.WORKLOADS:
            traced = bench(workload, workloads.DEFAULT_SEED, 1, seconds)
            out[workload]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        data = {"label": args.write_baseline, "python": sys.version.split()[0],
                "run_seconds": seconds, "workloads": out}
        (HERE / "baseline.json").write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
