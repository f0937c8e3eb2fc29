"""ffell benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload orth --seed 1 --seconds 20 --trace 0

Runs whole passes of the workload (at least one) until --seconds have
passed, checks every op's output against perfbench/golden.json and prints,
as the last line of stdout, {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A table of the same numbers goes to stderr and the details (per-pass data,
latency percentiles, counters, provenance) to perfbench/out/.

Exit codes: 0 all outputs correct, 1 an output or counter was wrong,
2 the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import common
import tracing
from workloads import WORKLOADS

SETUP_REPEATS = 3
TAIL_BEYOND = 10          # samples beyond the reported tail percentile

# (name, unit, better) of the end-to-end metrics, reported with --trace 0
END_TO_END = [("wall_s", "s", "lower"), ("ops_per_s", "1/s", "higher"),
              ("op_p50_s", "s", "lower"), ("op_tail_s", "s", "lower"),
              ("cpu_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"),
              ("setup_s", "s", "lower")]


def cpu_seconds() -> float:
    """CPU time of this process (nanosecond clock) and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_pass(wl, tracer=None) -> dict:
    """One pass over the workload's ops; only the op itself is timed.

    An op's latency is the CPU time it took (the process's and its
    children's).  The ops are single-threaded and never wait on I/O, so on an
    idle machine this is their wall time; on a shared one it leaves out the
    time the process waited for a CPU, which other processes decide."""
    latencies, errors = {}, []
    attempted = failed = 0
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for op in wl.ops():
        scope = tracer.op_span() if tracer else contextlib.nullcontext()
        c0 = cpu_seconds()
        try:
            with scope:
                value = wl.run(op)
        except Exception as exc:        # a raising op is a failed op
            value, outcome = None, (op.units, f"{op.key}: raised {exc!r}")
        c1 = cpu_seconds()
        if value is not None:
            outcome = wl.check(op, value)
        if op.sample:
            latencies[op.key] = c1 - c0
        attempted += op.units
        failed += outcome[0]
        if outcome[1]:
            errors.append(outcome[1])
    return {"wall_s": time.perf_counter() - start,
            "cpu_s": cpu_seconds() - cpu0, "attempted": attempted,
            "failed": failed, "errors": errors, "latencies": latencies}


def run_passes(wl, seconds, tracer=None):
    """Whole passes for `seconds`: at least one, and no pass that would end
    after the deadline at the speed of the last one.  With a tracer, also
    the per-layer metrics of each pass."""
    passes, layers = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer:
            tracer.begin_pass()
        passes.append(run_pass(wl, tracer))
        if tracer:
            layers.append(tracer.end_pass())
        elif getattr(wl, "trace_path", None):
            layers.append(common.load_json(wl.trace_path)["layers"])
        if time.perf_counter() + passes[-1]["wall_s"] > deadline:
            return passes, layers


def op_latencies(passes) -> list:
    """Each op's latency: its median over the run's passes."""
    runs = {}
    for p in passes:
        for key, t in p["latencies"].items():
            runs.setdefault(key, []).append(t)
    return [statistics.median(ts) for ts in runs.values()]


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it (the
    maximum when there are fewer ops), and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(wl, passes, setup):
    walls = [p["wall_s"] for p in passes]
    units = passes[0]["attempted"]
    latencies = op_latencies(passes)
    tail_s, pct = tail(latencies)
    if hasattr(wl, "child_rss_kb"):
        rss_kb = wl.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"wall_s": statistics.median(walls),
              "ops_per_s": statistics.median(units / w for w in walls),
              "op_p50_s": statistics.median(latencies),
              "op_tail_s": tail_s,
              "cpu_s": statistics.median(p["cpu_s"] for p in passes),
              "peak_rss_mb": rss_kb / 1024,
              "setup_s": statistics.median(setup)}
    detail = {"timed_ops": len(latencies), "tail_percentile": pct}
    return values, detail


def per_layer(layers, import_s, traced_wall, untraced_wall):
    out = {}
    for name, unit, _ in tracing.PER_LAYER:
        vals = [m.get(name, 0) for m in layers]
        out[name] = (statistics.median(vals) if unit == "s"
                     else statistics.median_low(vals))
    out["cli.import_s"] = import_s
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((common.SRC / "ffell").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counters(layers, tag) -> list:
    """The exact counters must repeat in every pass and in every run of the
    same program source; returns the mismatches."""
    seen = [{k: m.get(k, 0) for k in tracing.EXACT} for m in layers]
    errors = [f"counters of pass {i} differ from pass 0"
              for i, c in enumerate(seen) if c != seen[0]]
    path = common.OUT / f"counters-{tag}-{src_hash()}.json"
    if path.exists():
        before = common.load_json(path)
        errors += [f"counter {k}: {v} here, {before.get(k)} in an earlier "
                   f"run" for k, v in seen[0].items() if v != before.get(k)]
    else:
        path.write_text(json.dumps(seen[0], indent=1, sort_keys=True))
    return errors


def setup_sample(argv) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__] + argv + ["--setup-only"],
                          cwd=common.ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise common.SetupError(f"set-up failed: {proc.stderr.strip()}")
    return elapsed


def import_seconds() -> float:
    """Median time of a bare `import ffell.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import ffell.cli; "
            "print(time.perf_counter() - t)")
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=common.ROOT,
                              env=common.child_env(), capture_output=True,
                              text=True, check=True)
        runs.append(float(proc.stdout))
    return statistics.median(runs)


def provenance() -> dict:
    import numpy
    from importlib.metadata import version
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(common.ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                                env=env, capture_output=True, text=True
                                ).stdout.strip() or None
    except OSError:
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "click": version("click"),
            "commit": commit, "src_sha256_16": src_hash(),
            "machine": platform.machine()}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run a tiny slice of the workload (self-tests)")
    ap.add_argument("--golden", default=str(common.GOLDEN),
                    help="golden file to check against")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    golden = common.load_json(args.golden)
    wl = WORKLOADS[args.workload](golden, args.seed, args.smoke)
    if args.setup_only:
        wl.close()
        return 0
    child_argv = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", "0", "--golden", args.golden] \
        + (["--smoke"] if args.smoke else [])
    setup = ([] if args.trace else
             [setup_sample(child_argv) for _ in range(SETUP_REPEATS)])
    # the inputs and golden data live for the whole run: keep them out of
    # the collector's way, as a program holding only its own data would be
    gc.collect()
    gc.freeze()
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}"
    common.OUT.mkdir(exist_ok=True)
    stem = common.OUT / f"{tag}-seed{args.seed}-trace{args.trace}"

    errors = []
    try:
        if args.trace:
            # one untraced pass first: the baseline for the overhead
            untraced = run_pass(wl)
            tracer = None
            if getattr(wl, "traced_in_child", False):
                wl.trace_path = stem.with_suffix(".layers.json")
            else:
                tracer = tracing.Tracer()
                tracer.install()
                wl.tracer = tracer
            passes, layers = run_passes(wl, args.seconds, tracer)
            if tracer:
                tracer.dump(stem.with_suffix(".spans.json.gz"))
            passes.insert(0, untraced)
            traced_wall = statistics.median(p["wall_s"] for p in passes[1:])
            metrics = per_layer(layers, import_seconds(), traced_wall,
                                untraced["wall_s"])
            errors += check_counters(layers, tag)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            detail = {"layers_per_pass": layers}
        else:
            passes, _ = run_passes(wl, args.seconds)
            metrics, detail = end_to_end(wl, passes, setup)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        wl.close()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors += [e for p in passes for e in p["errors"]]
    fail_frac = failed / attempted
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "setup_samples_s": setup,
              "passes": [{k: v for k, v in p.items() if k != "latencies"}
                         for p in passes],
              "fail_frac": fail_frac, "metrics": metrics, **detail,
              "errors": errors[:50], "provenance": provenance()}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(report, fh, indent=1)

    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:42s} {value:>16.6g} "
              f"{units[name]}", file=sys.stderr)
    print(f"{args.workload:12s} {'fail_frac':42s} {fail_frac:>16.6g} "
          f"fraction", file=sys.stderr)
    if "tail_percentile" in detail:
        print(f"{args.workload:12s} op_tail_s is "
              f"p{detail['tail_percentile']:.2f} of "
              f"{detail['timed_ops']} op latencies", file=sys.stderr)
    for e in errors[:20]:
        print(f"{args.workload:12s} ERROR {e}", file=sys.stderr)

    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
