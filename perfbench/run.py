"""qweyl benchmark: time to verdict on the fiber, reduce and algebra workloads.

    python3 perfbench/run.py --workload fiber --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py      # fiber, reduce and algebra in turn

Generates the workload's configs from --seed, then starts fresh Python
processes (worker.py) that import qweyl from ./src: a few that only time
set-up, and one that runs the configs through `qweyl report` for --seconds.
Once that process has ended, every report it left is checked.  The last
line of output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones (setup_s,
wall_s, headline_s, peak_rss_mb); with --trace 1 they are the per-layer
ones.  See perfbench/README.md.

    python3 perfbench/run.py --write-reference

records the sha256 of every report at the default seed in reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 8   # measured set-up-only processes per run
TIME_LIMIT_S = 170  # a run must end within 180 s
# traced cli.main time, read outside the calls, may differ from the tracer's
# self times plus overhead by this share of it (the wrapper's entry and exit)
ACCOUNTING_TOLERANCE = 0.01


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed config)."""


def _worker(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QWEYL_SEED"}
    env.pop("PYTHONPATH", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def _config_name(index: int, case: workloads.Case) -> str:
    return f"{index:02d}-{case.name}.json"


def write_configs(cases: list[workloads.Case], run_dir: Path) -> None:
    (run_dir / "configs").mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(cases):
        (run_dir / "configs" / _config_name(i, case)).write_bytes(case.config_bytes())


def reports(cases: list[workloads.Case], res: dict, run_dir: Path):
    """(case, report bytes or None, error or None) for every call the worker made."""
    tags = ("", "t") if res["traced_times"] else ("",)
    for batch in range(len(res["times"])):
        for tag in tags:
            for i, case in enumerate(cases):
                name = f"{batch:03d}{tag}-{_config_name(i, case)}"
                if name in res["errors"]:
                    yield case, None, res["errors"][name]
                else:
                    yield case, (run_dir / "reports" / name).read_bytes(), None


def check(cases: list[workloads.Case], res: dict, run_dir: Path, reference) -> None:
    """Add attempted, failed and problems to res."""
    res["attempted"] = res["failed"] = 0
    res["problems"] = []
    for case, data, error in reports(cases, res, run_dir):
        if error is None:
            expected = None if reference is None else reference.get(case.name, "missing")
            problems = workloads.check_report(case, data, expected)
        else:
            problems = [f"{case.name}: {error}"]
        res["attempted"] += 1
        if problems:
            res["failed"] += 1
            res["problems"].extend(problems)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    run_dir = OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    cases = workloads.generate(workload, seed)
    reference = None
    if seed == workloads.DEFAULT_SEED:
        ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = ref["workloads"].get(workload, {})
    try:
        write_configs(cases, run_dir)

        def setup_probes(count):
            return [_worker(["setup", str(run_dir)], deadline)["setup_s"] for _ in range(count)]

        setup_probes(1)  # unmeasured: lets Python compile src/qweyl
        # half the probes run before the measuring process and half after, so
        # that their median covers the same stretch of time as the run
        setups = setup_probes(SETUP_PROBES // 2)
        res = _worker(["run", str(run_dir), str(seconds), str(int(trace))], deadline)
        setups += setup_probes(SETUP_PROBES - SETUP_PROBES // 2)
        check(cases, res, run_dir, reference)
        if trace:
            os.replace(run_dir / "trace.json", OUT_DIR / f"trace-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    res["setup_samples"] = setups + [res["setup_s"]]
    head = next(i for i, c in enumerate(cases) if c.headline)
    res["wall_s"] = [sum(batch) for batch in res["times"]]
    res["headline_s"] = [batch[head] for batch in res["times"]]
    res["case_s"] = {c.name: statistics.median(b[i] for b in res["times"])
                     for i, c in enumerate(cases)}
    return res


def end_to_end(res: dict) -> dict:
    return {
        "setup_s": {"value": statistics.median(res["setup_samples"]), "unit": "s"},
        "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
        "headline_s": {"value": statistics.median(res["headline_s"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


LAYER_UNITS = {"calls": "count", "entries": "count", "term_pairs": "count"}


def per_layer(res: dict) -> dict:
    out = {}
    for name, value in res["layers"].items():
        last = name.rsplit(".", 1)[1]
        unit = "ratio" if last.endswith("ratio") else LAYER_UNITS.get(last, "s")
        out[name] = {"value": value, "unit": unit}
    return out


def write_reference() -> int:
    """Run every workload once at the default seed and pin its report digests."""
    digests = {}
    for workload in workloads.WORKLOADS:
        deadline = time.monotonic() + 600
        run_dir = OUT_DIR / f"reference-{workload}-{os.getpid()}"
        cases = workloads.generate(workload, workloads.DEFAULT_SEED)
        try:
            write_configs(cases, run_dir)
            res = _worker(["run", str(run_dir), "0", "0"], deadline)
            check(cases, res, run_dir, None)
            digests[workload] = {case.name: hashlib.sha256(data).hexdigest()
                                 for case, data, _ in reports(cases, res, run_dir) if data}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if res["failed"]:
            print("\n".join(res["problems"]), file=sys.stderr)
            return 1
    data = {"seed": workloads.DEFAULT_SEED, "workloads": digests}
    (HERE / "reference.json").write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


def report(workload: str, seed: int, seconds: float, trace: bool) -> None:
    """Run one workload and print its case times, summary line and JSON result."""
    res = run(workload, seed, seconds, trace)
    correct = res["failed"] == 0
    if trace:
        gap = res["traced_s"] - res["tracked_s"]
        if abs(gap) > ACCOUNTING_TOLERANCE * res["traced_s"]:
            correct = False
            print(f"trace: traced cli.main calls took {res['traced_s']:.6g} s, but the "
                  f"tracer accounts for {res['tracked_s']:.6g} s", file=sys.stderr)
        metrics = per_layer(res)
    else:
        metrics = end_to_end(res)
    for problem in res["problems"][:50]:
        print(problem, file=sys.stderr)
    for name, secs in res["case_s"].items():
        print(f"  {name}: {secs:.4g} s (median over untraced batches)")
    shown = end_to_end(res) if not trace else {
        k: metrics[k] for k in ("cli.run_suite.s", "trace.overhead_ratio")}
    summary = "; ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in shown.items())
    print(f"{workload} seed {seed} trace {int(trace)}: {len(res['times'])} batch(es); "
          f"{summary}; error_ratio {res['failed'] / res['attempted']:.4g} "
          f"({res['failed']}/{res['attempted']})")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="the workload to run (default: each in turn)")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qweyl" / "cli.py").is_file():
        print(f"error: no qweyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    try:
        for workload in [args.workload] if args.workload else workloads.WORKLOADS:
            report(workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
