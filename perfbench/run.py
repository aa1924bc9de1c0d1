"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cartan --seed 1 --seconds 40 --trace 0

Every op is a `qwebs.cli.main(argv)` call in this process, one at a time
(a closed loop with one client), from cold caches; its stdout is checked by
perfbench.checks.  With --trace 0 the op list is repeated in passes for
about --seconds and the end-to-end metrics are printed; with --trace 1 one
untraced and one traced pass give the per-layer metrics.  The last stdout
line is the JSON result; a fuller record goes to bench_out/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:  # run as a script: make the perfbench package importable
    sys.path.insert(0, ROOT)

from perfbench import checks  # noqa: E402
from perfbench.gen import WORKLOADS, op_list  # noqa: E402
from perfbench.measure import SpeedProbe, beyond, percentile, run_op, setup_times  # noqa: E402
from perfbench.tracer import Tracer, layer_metrics  # noqa: E402

MIN_PASSES = 2
SETUP_STARTS_PER_PASS = 3
DEFAULT_SEED = 1
P90 = 0.9
END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _load_program():
    """Import qwebs from the checkout's src/, or exit 2 when it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qwebs", "cli.py")):
        print(f"error: no qwebs sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import qwebs.cli

    return qwebs.cli


def module_caches() -> dict[str, object]:
    """Every functools cache on a loaded qwebs module, by qualified name."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith("qwebs."):
            continue
        for attr, value in vars(mod).items():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                if getattr(value, "__module__", None) == mod_name:
                    out[f"{mod_name}.{attr}"] = value
    return out


def load_digests() -> dict:
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as fh:
        return json.load(fh)


class Run:
    """One workload run: op results, failures and the items they produced."""

    def __init__(self, workload: str, main, caches, digests: dict, lt_block=None):
        self.workload = workload
        self.main = main
        self.caches = caches
        self.digests = digests.get(workload, {})
        self.lt_block = lt_block
        self.attempted = 0
        self.failures: list[str] = []
        self.output_bytes = 0
        self.lt_block_hits = self.lt_block_calls = 0

    def op(self, argv, tracer=None) -> tuple[tuple[float, float], int]:
        """Run and check one op; returns its (start, end) and its item count."""
        t0, t1, rc, text, error = run_op(self.main, argv, self.caches, tracer)
        if self.lt_block is not None:  # read before the next op clears it
            info = self.lt_block.cache_info()
            self.lt_block_hits += info.hits
            self.lt_block_calls += info.hits + info.misses
        self.attempted += 1
        self.output_bytes += len(text.encode())
        key = " ".join(argv)
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}: {error[-300:]}")
        else:
            try:
                problems += checks.CHECKS[self.workload](text)
                n_items = checks.items(self.workload, text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            want = self.digests.get(key)
            if want is not None and checks.digest(text) != want:
                problems.append("stdout differs from the recorded digest")
        if problems:
            self.failures.append(f"{key}: {problems[0]}")
            return (t0, t1), 0
        return (t0, t1), n_items

    def one_pass(self, ops, probe=None, tracer=None) -> tuple[list, int]:
        """Run the op list once; returns each op's (start, end) and the items."""
        intervals, items = [], 0
        for i, argv in enumerate(ops):
            if probe is not None:
                probe.mark()
            if tracer is not None:
                tracer.op = i
            interval, n = self.op(argv, tracer)
            intervals.append(interval)
            items += n
        if probe is not None:
            probe.mark()
        return intervals, items


def end_to_end(run: Run, ops, seconds: float) -> tuple[dict, dict]:
    probe = SpeedProbe()
    # Set-up is timed between passes, so that it samples the same stretch of
    # host speed as the ops; one untimed start first compiles the bytecode.
    *_, problems = setup_times(ROOT, 1)
    run.failures += problems
    pass_intervals, setups, raw_setups, items = [], [], [], 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        with probe:
            intervals, items = run.one_pass(ops, probe)
        times, raw, problems = setup_times(ROOT, SETUP_STARTS_PER_PASS)
        pass_intervals.append(intervals)
        setups += times
        raw_setups += raw
        run.failures += problems
        longest = max(longest, time.perf_counter() - pass_start)
        if len(pass_intervals) >= MIN_PASSES and time.perf_counter() - start + longest > seconds:
            break
    probe.mark()
    run.attempted += 1 + SETUP_STARTS_PER_PASS * len(pass_intervals)
    passes = [[probe.seconds(a, b) for a, b in p] for p in pass_intervals]
    raw_passes = [[b - a for a, b in p] for p in pass_intervals]
    walls = [sum(t) for t in passes]
    latencies = [x for t in passes for x in t]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "items_per_s": items / wall,
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * percentile(latencies, P90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    extra = {
        "passes": len(passes),
        "pass_walls_s": walls,
        "pass_latencies_s": passes,
        "raw_pass_latencies_s": raw_passes,
        "items_per_pass": items,
        "latency_samples": len(latencies),
        "samples_beyond_p90": beyond(len(latencies), P90),
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "speed_samples": len(probe.durations),
        "measured_s": time.perf_counter() - start,
    }
    return metrics, extra


def traced(run: Run, ops) -> tuple[dict, dict]:
    """One untraced and one traced pass; times here are raw seconds."""
    untraced, _ = run.one_pass(ops)
    tracer = Tracer()
    bytes_before = run.output_bytes
    hits_before, calls_before = run.lt_block_hits, run.lt_block_calls
    tracer.install()
    try:
        traced_intervals, _ = run.one_pass(ops, tracer=tracer)
    finally:
        tracer.uninstall()
    untraced_s = sum(b - a for a, b in untraced)
    traced_s = sum(b - a for a, b in traced_intervals)
    hits, calls = run.lt_block_hits - hits_before, run.lt_block_calls - calls_before
    counts = tracer.counts
    counts["cli.output_bytes"] = run.output_bytes - bytes_before
    counts["bases.lt_block_calls"] = calls
    counts["bases.lt_block_hit_ratio"] = hits / calls if calls else 0.0
    counts["trace.overhead_s"] = traced_s - untraced_s
    extra = {
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": write_spans(run.workload, tracer.spans),
    }
    return layer_metrics(tracer.spans, counts), extra


def write_spans(workload: str, spans) -> str:
    out_dir = os.path.join(ROOT, "bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}.jsonl.gz")
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qwebs benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("QWEBS_WORKERS", None)
    cli = _load_program()
    caches = module_caches()
    run = Run(args.workload, cli.main, list(caches.values()), load_digests(),
              sys.modules["qwebs.bases"].lt_block)
    ops = op_list(args.workload, args.seed)
    if args.trace:
        metrics, extra = traced(run, ops)
    else:
        metrics, extra = end_to_end(run, ops, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "QWEBS_WORKERS": "unset",
        "caches_cleared_before_each_op": sorted(caches),
        "ops_per_pass": len(ops),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failed_ratio": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        **extra,
        "metrics": metrics,
    }
    out_dir = os.path.join(ROOT, "bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in run.failures[:5]:
        print(f"FAILED {line}")
    # the per-sample lists stay in the file
    print("record " + json.dumps({k: v for k, v in record.items()
                                  if not isinstance(v, (list, dict))}, sort_keys=True))
    for metric, m in metrics.items():
        print(f"{metric} {m['value']} {m['unit']}")
    print(f"failed_ratio {record['failed_ratio']} ratio")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
