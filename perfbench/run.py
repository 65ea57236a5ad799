"""hartreelab benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): mc_moments, picard_dense, scatter, linearized.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      median over 8 fresh processes (4 before the rounds, 4 after) of
               the time from process start to the first solver call of the
               workload's first CLI invocation
  wall_s       median time of one round, the workload's whole task
  peak_rss_mb  largest ru_maxrss of the run's child processes
  items_per_s  median throughput per round: MC draws (mc_moments), accepted
               LWP draws (picard_dense) or time frames (scatter, linearized)
  Rounds repeat while the next one still fits in --seconds (at least one).
  Every round is a fresh process (one_round.py), as a user runs one CLI
  command per process, so no cache of the package carries over between rounds.

--trace 1 runs a round under the tracer between two untraced rounds, checks
that it wrote outputs bit-identical to the untraced round before it, and
reports the per-layer metrics of the traced round plus the tracing overhead
(its wall minus the mean of the untraced walls).

Each process uses one BLAS thread, starts no thread pool of its own, and
the run waits for it before it starts the next.  The
last stdout line is a JSON object {correct, attempted, failed, metrics};
a task is one CLI invocation or one LWP draw, and failed / attempted is the
failure fraction.  The lines above it print every metric with its unit and
the environment fingerprint; perfbench/out/ keeps a full result record
(and the spans of a traced run).
"""

import os
import sys
import time

# Fixed before numpy loads: one BLAS thread, so a run never uses more threads
# than cores and timings do not depend on the BLAS thread heuristics.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPEATS = 4  # probes before the rounds, and again after them
PROBE_TIMEOUT_S = 60
ROUND_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, read through its own API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"threads": int(fn()), "source": f"{os.path.basename(lib)}:{sym}"}
    return {"threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "source": "environment"}


def fingerprint() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def measure_setup(wl) -> list:
    """Wall time of fresh processes that stop at the first solver call."""
    samples = []
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + wl.first_argv()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-500:]}")
    return samples


def run_round(wl, trace: bool = False) -> tuple:
    """One round in a fresh process (one_round.py); returns (Round, trace info).

    A round process that fails without a result is one failed task.
    """
    from workloads import Round

    out = wl.work / f"round-trace{int(trace)}.pkl"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "one_round.py"), wl.name, str(wl.seed), str(wl.work),
           str(int(wl.small)), str(int(trace)), str(out)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
        error = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        ok = proc.returncode == 0 and out.exists()
    except subprocess.TimeoutExpired:
        error, ok = f"no result within {ROUND_TIMEOUT_S} s", False
    if not ok:
        return Round(time.perf_counter() - t0, 0, 0.0, {"round process": [error]}), {}
    with out.open("rb") as fh:
        got = pickle.load(fh)
    return got["round"], got["trace"]


def timed_rounds(wl, seconds: float) -> list:
    """Rounds back to back while the next one (as long as the last) still fits."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        rounds.append(run_round(wl)[0])
        if time.perf_counter() - t0 + (time.perf_counter() - t1) > seconds:
            return rounds


def end_to_end(rounds, setup_samples) -> dict:
    rates = [r.items / r.item_time for r in rounds if r.item_time > 0]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
        "items_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
    }


def traced_rounds(wl):
    """A traced round between two untraced ones; per-layer metrics of the traced one.

    The tracing overhead is the traced wall minus the mean of the untraced
    walls around it.  Every output of the traced round must be bit-identical
    to the untraced round before it, and the tracer must have restored every
    binding it touched.
    """
    before = run_round(wl)[0]
    traced, info = run_round(wl, trace=True)
    after = run_round(wl)[0]
    if not info:
        return [before, traced, after], {}, info
    for key in sorted(set(before.outputs) | set(traced.outputs)):
        if before.outputs.get(key) != traced.outputs.get(key):
            task = key.split("/")[0]
            traced.problems.setdefault(task, []).append(f"traced {key} differs from untraced")
    if not info["restored"]:
        traced.problems.setdefault("tracer", []).append("tracer left bindings rebound")
    metrics = info["metrics"]
    golden = wl.golden_rows_differ(traced.parsed) if hasattr(wl, "golden_rows_differ") else 0
    metrics["cli.golden_rows_differ"] = (golden, "count")
    metrics["trace.overhead_s"] = (traced.wall - (before.wall + after.wall) / 2, "s")
    return [before, traced, after], metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hartreelab").is_dir():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = fingerprint()
    work = OUT / "work" / args.workload
    wl = WORKLOADS[args.workload](work, args.seed)
    info = {}
    if args.trace:
        rounds, metrics, info = traced_rounds(wl)
        setup_samples = []
    else:
        setup_samples = measure_setup(wl)
        rounds = timed_rounds(wl, args.seconds)
        setup_samples += measure_setup(wl)
        metrics = end_to_end(rounds, setup_samples)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = {f"round{i}/{task}": p for i, r in enumerate(rounds)
                for task, p in r.problems.items() if p}
    emitted = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds], "setup_samples_s": setup_samples,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "problems": problems, "metrics": emitted,
        "unwrapped": info.get("missing", []),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if info:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["task", "name", "start", "end", "parent", "self_s"],
             "spans": info["spans"]}) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s), "
          f"{attempted} task(s)")
    for name, (value, unit) in metrics.items():
        alias = f"  ({wl.item_name})" if name == "items_per_s" else ""
        print(f"  {name} = {value:.6g} {unit}{alias}")
    print(f"  fail_frac = {failed / attempted:.6g}")
    for key, found in problems.items():
        print(f"  FAILED {key}: {'; '.join(found)}")
    for point in info.get("missing", []):
        print(f"  NOT TRACED {point}: its layer metrics read 0")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
