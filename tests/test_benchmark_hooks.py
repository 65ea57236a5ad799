"""The benchmark's tracer (perfbench/tracing.py) still finds what it rebinds.

The tracer wraps named entry points of the package and counts L1 kernel
builds through hartree's kernel cache.  A renamed or moved name would leave
its layer untraced, so each one is resolved here the way the tracer does it,
and small traced rounds check that every Picard sweep and the one L1 stack
build are counted.
"""

import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_package():
    tracing = _load_tracing()
    missing = [f"{owner}.{attr}" for owner, attr, _span in tracing.LAYER_POINTS
               if tracing._resolve(owner, attr) is None]
    assert missing == []
    owner, attr = tracing.L1_CACHE.rsplit(".", 1)
    found = tracing._resolve(owner, attr)
    assert found is not None and isinstance(found[2], dict)


def _one_round(tmp_path, monkeypatch, workload: str, trace: str):
    """One reduced round at seed 3 in its own process, as the benchmark runs it."""
    out = tmp_path / f"{workload}-{trace}.pkl"
    res = subprocess.run(
        [sys.executable, str(PERFBENCH / "one_round.py"), workload, "3",
         str(tmp_path / f"work-{trace}"), "1", trace, str(out)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert res.returncode == 0, res.stderr
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the pickled round is a workloads.Round
    with open(out, "rb") as fh:
        result = pickle.load(fh)
    assert result["round"].failed == 0, result["round"].problems
    return result["round"], result["trace"]


def test_a_traced_round_counts_every_picard_sweep(tmp_path, monkeypatch):
    # the sweeps counted at picard_solve are those the CLI solve and the LWP draws report
    rnd, trace = _one_round(tmp_path, monkeypatch, "picard_dense", "1")
    draws = [rec for task, rec in rnd.parsed.items() if task.startswith("lwp")]
    assert draws
    sweeps = rnd.parsed["picard"]["record"]["meta"]["sweeps"] + sum(r["sweeps"] for r in draws)
    assert trace["metrics"]["hartree.picard_sweeps"][0] == sweeps
    assert trace["missing"] == []
    assert trace["restored"] is True


def test_a_traced_linearized_round_is_unchanged(tmp_path, monkeypatch):
    # the linearized stages run on worker threads, which call no traced function: the
    # stack is counted once, every binding comes back, and the density keeps its bytes
    traced, trace = _one_round(tmp_path, monkeypatch, "linearized", "1")
    plain, _ = _one_round(tmp_path, monkeypatch, "linearized", "0")
    assert trace["metrics"]["hartree.l1_stack_builds"][0] == 1
    assert trace["missing"] == []
    assert trace["restored"] is True
    density = "linearized/density.csv"
    assert traced.outputs[density] == plain.outputs[density]
