"""One round of one workload in a fresh process; the result is pickled for the caller.

Usage: python3 perfbench/one_round.py <workload> <seed> <work dir> <small 0|1> <trace 0|1> <out.pkl>

Every round of a run is its own process, as a user runs one CLI command per
process: no module-level cache or memo of the package carries over from an
earlier round.  With trace 1 the round runs under the tracer, which must
restore every binding it touched; the pickle then also holds the per-layer
metrics, the spans and whether the restore was complete.
"""

import os
import pickle
import sys
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Tracer, bindings  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    name, seed, work, small, trace, out = argv
    wl = WORKLOADS[name](Path(work), int(seed), small=small == "1")
    info = {}
    if trace == "1":
        before = bindings()
        with Tracer() as tracer:
            with tracer.task_span(name):
                rnd = wl.run_round()
        info = {"metrics": tracer.layer_metrics(), "spans": tracer.spans,
                "missing": tracer.missing, "restored": bindings() == before}
    else:
        rnd = wl.run_round()
    with open(out, "wb") as fh:
        pickle.dump({"round": rnd, "trace": info}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
