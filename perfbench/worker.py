"""One measured workload run, in a process of its own (run.py starts it).

    python3 perfbench/worker.py setup DIR
    python3 perfbench/worker.py run DIR SECONDS TRACE

DIR/configs holds the workload's configs, named so that sorted order is
run order.
`setup` times `import qweyl` plus `cli.load_config` on every config and
prints that time.  `run` does the same set-up, then runs the configs through
`qweyl.cli.main(["report", ...])` one after the other, in batches, until
SECONDS have passed (at least one batch), and prints one JSON line with the
raw times.  Every report is left in DIR/reports, where run.py checks it.

With TRACE 1 each config runs twice in a row, untraced and then traced, so
that each traced time has an untraced partner taken moments before it; the
spans and counts go to DIR/trace.json and the line also carries the
per-layer figures.

Nothing but os and sys, which the interpreter has loaded at start-up, and
time is imported before the set-up clock starts, so set-up covers every
module that qweyl itself imports, the standard library's included.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def set_up(run_dir):
    """Import qweyl and load every config; return (cli, config paths, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from qweyl import cli
    config_dir = os.path.join(run_dir, "configs")
    paths = [os.path.join(config_dir, name) for name in sorted(os.listdir(config_dir))]
    for path in paths:
        cli.load_config(path)
    return cli, paths, time.perf_counter() - start


def run_config(cli, path, out):
    """(seconds, error or None) of one `qweyl report` call."""
    start = time.perf_counter()
    try:
        code = cli.main(["report", "--config", path, "--out", out])
    except Exception as err:  # a crash fails this config, not the benchmark
        code = f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    return seconds, None if code == 0 else f"qweyl report failed ({code})"


def main(argv):
    mode, run_dir = argv[0], argv[1]
    cli, paths, setup_s = set_up(run_dir)
    import json
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds, trace = float(argv[2]), argv[3] == "1"
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    report_dir = os.path.join(run_dir, "reports")
    os.makedirs(report_dir, exist_ok=True)
    times, traced_times, errors = [], [], {}

    def run_one(path, tag):
        name = f"{len(times):03d}{tag}-{os.path.basename(path)}"
        took, error = run_config(cli, path, os.path.join(report_dir, name))
        if error is not None:
            errors[name] = error
        return took

    began = time.perf_counter()
    while True:
        batch, traced_batch = [], []
        for path in paths:
            batch.append(run_one(path, ""))
            if tracer is not None:
                tracer.install()
                try:
                    traced_batch.append(run_one(path, "t"))
                finally:
                    tracer.uninstall()
                tracer.end_config()
        times.append(batch)
        if tracer is not None:
            traced_times.append(traced_batch)
        if time.perf_counter() - began >= seconds:
            break

    import resource
    result = {"setup_s": setup_s, "times": times, "traced_times": traced_times,
              "errors": errors,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        import statistics
        from tracer import layer_metrics
        ratio = statistics.median(sum(t) / sum(u) for t, u in zip(traced_times, times))
        result["layers"] = layer_metrics(tracer, len(traced_times), ratio)
        result["traced_s"] = sum(map(sum, traced_times))
        result["tracked_s"] = sum(tracer.self_s.values()) + tracer.overhead_s
        tracer.dump(os.path.join(run_dir, "trace.json"), len(traced_times))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
