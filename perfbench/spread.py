"""Run-to-run spread of the end-to-end metrics, as BENCHMARK.json bounds are judged.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]

Runs the benchmark once per (workload, seed), sequentially, with the
BENCHMARK.json command and run length and tracing off.  For each metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound.  Results are appended to
perfbench/out/spread.jsonl.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(prog="perfbench/spread.py")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = ROOT / "perfbench" / "out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for wl in args.workloads.split(","):
        values = {}
        for seed in _seeds(args.seeds):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, "took_s": took} | res) + "\n")
            print(f"{wl} seed {seed}: {took:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()),
                  flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vals in values.items():
            med = statistics.median(vals)
            if len(vals) < 2 or med == 0:
                print(f"  {wl} {k}: median {med:.5g}")
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / abs(med)
            worst = max(worst, share / bounds[k] if bounds.get(k) else 0.0)
            print(f"  {wl} {k}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {share:.4f}  bound {bounds.get(k)}")
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
