"""Run workloads over several seeds and report each end-to-end metric's
median and run-to-run spread against the bounds in BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--workload NAME ...]

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median.  Each run is `perfbench/run.py --trace 0` with the run_seconds of
BENCHMARK.json; runs are sequential.  Exits 1 when a run fails or a spread
(setup_s aside) exceeds a third of its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


def main() -> int:
    bench = common.load_json(common.ROOT / "BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()

    ok = True
    for workload in args.workload or names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            fail_frac = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g} {v['unit']}"
                for k, v in result["metrics"].items())
                + f" fail_frac={fail_frac:.3g}", flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = m["name"] == "setup_s" or spread < m["bound"] / 3
            ok = ok and steady
            print(f"{workload:12s} {m['name']:12s} median {med:12.6g} "
                  f"{m['unit']:4s} spread {spread:7.2%}  "
                  f"bound {m['bound']:.0%}{'' if steady else '  NOT STEADY'}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
