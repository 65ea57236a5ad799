"""The benchmark's tracer (perfbench/tracing.py) still finds what it rebinds.

The tracer wraps named entry points of the package and counts L1 kernel
builds through hartree's kernel cache.  A renamed or moved name would leave
its layer untraced, so each one is resolved here the way the tracer does it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
