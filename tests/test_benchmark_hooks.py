"""The benchmark's tracer (perfbench/tracing.py) still finds what it rebinds.

The tracer wraps named entry points of the package and counts L1 kernel
builds through hartree's kernel cache.  A renamed or moved name would leave
its layer untraced, so each one is resolved here the way the tracer does it,
and one small traced round checks that every Picard sweep is counted.
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


def test_a_traced_round_counts_every_picard_sweep(tmp_path, monkeypatch):
    # one reduced picard_dense round under the tracer, in its own process as the
    # benchmark runs it: the sweeps counted at picard_solve are those the CLI solve
    # and the LWP draws report
    out = tmp_path / "round.pkl"
    res = subprocess.run(
        [sys.executable, str(PERFBENCH / "one_round.py"), "picard_dense", "3",
         str(tmp_path / "work"), "1", "1", str(out)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert res.returncode == 0, res.stderr
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the pickled round is a workloads.Round
    with open(out, "rb") as fh:
        result = pickle.load(fh)
    rnd, trace = result["round"], result["trace"]
    assert rnd.failed == 0, rnd.problems
    draws = [rec for task, rec in rnd.parsed.items() if task.startswith("lwp")]
    assert draws
    sweeps = rnd.parsed["picard"]["record"]["meta"]["sweeps"] + sum(r["sweeps"] for r in draws)
    assert trace["metrics"]["hartree.picard_sweeps"][0] == sweeps
    assert trace["missing"] == []
    assert trace["restored"] is True
