"""Self-test of the benchmark itself, at reduced problem sizes (about a minute).

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload it runs the set-up probe, one untraced round and one
traced round at reduced size, and asserts that:

* every task passes its output checks;
* every metric named in BENCHMARK.json is emitted, with the unit declared there;
* each output check rejects each wrong answer in workloads.PERTURBATIONS,
  so a wrong result is counted as a failed task;
* the tracer restores every attribute it rebound, finds every entry point
  (and the L1 kernel cache it counts builds with), and the traced outputs
  are bit-identical to the untraced ones;
* the bypass predictions hold as exact counts (no dense free conjugation
  or direct L1 on linearized, no dense kernel or L1 stack on mc_moments),
  and the L1 stack is built on linearized and scatter.

Finally it runs the full command once (linearized, --seconds 1) and checks
the shape of the last output line.  Exits 0 when every assertion holds.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS threads and puts the package on sys.path
from workloads import PERTURBATIONS, WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BYPASS = {
    "linearized": ("hartree.free_conj_calls", "hartree.l1_direct_calls"),
    "mc_moments": ("hartree.free_conj_calls", "hartree.l1_stack_builds"),
}
BUILDS_L1 = ("linearized", "scatter")


def _expect(declared: list, emitted: dict, what: str):
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: unit for k, (_v, unit) in emitted.items()}
    assert got == want, f"{what}: emitted {got}, declared {want}"


def check_workload(name: str, work: Path):
    wl = WORKLOADS[name](work / name, seed=7, small=True)
    setup = run.measure_setup(wl)
    rnd, _ = run.run_round(wl)
    assert rnd.failed == 0, f"{name}: {rnd.problems}"
    assert rnd.items > 0 and rnd.item_time > 0, f"{name}: no throughput items"
    _expect(SPEC["end_to_end"], run.end_to_end([rnd], setup), f"{name} end-to-end")

    assert not any(wl.check(copy.deepcopy(rnd.parsed)).values())
    for desc, edit in PERTURBATIONS[name]:
        parsed = copy.deepcopy(rnd.parsed)
        edit(parsed)
        assert any(wl.check(parsed).values()), f"{name}: check accepted '{desc}'"

    rounds, metrics, info = run.traced_rounds(wl)
    assert info, f"{name}: traced round failed: {rounds[1].problems}"
    assert info["restored"], f"{name}: tracer left attributes rebound"
    assert not info["missing"], f"{name}: not found: {info['missing']}"
    assert all(r.failed == 0 for r in rounds), f"{name}: {[r.problems for r in rounds]}"
    _expect(SPEC["per_layer"], metrics, f"{name} per-layer")
    for key in BYPASS.get(name, ()):
        assert metrics[key][0] == 0, f"{name}: {key} = {metrics[key][0]}, predicted 0"
    if name in BUILDS_L1:
        builds = metrics["hartree.l1_stack_builds"][0]
        assert builds > 0, f"{name}: hartree.l1_stack_builds = {builds}, predicted > 0"
    print(f"selftest {name}: ok ({len(PERTURBATIONS[name])} wrong answers rejected)", flush=True)


def check_command():
    cmd = SPEC["command"] + ["--workload", "linearized", "--seed", "3",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    emitted = {k: (v["value"], v["unit"]) for k, v in last["metrics"].items()}
    _expect(SPEC["end_to_end"], emitted, "command")
    assert all(v > 0 for v, _u in emitted.values()), emitted
    print("selftest command: ok", flush=True)


def main() -> int:
    work = run.OUT / "selftest"
    for name in WORKLOADS:
        check_workload(name, work)
    check_command()
    return 0


if __name__ == "__main__":
    sys.exit(main())
