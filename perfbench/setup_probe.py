"""Set-up probe: run one CLI invocation up to its first solver call, then exit.

Usage: python3 perfbench/setup_probe.py <cli argument>...

The parent process times this whole process, so the figure covers
interpreter start, imports, config parsing and building the grid,
background and initial operator.  Exit code 0 means the solver was
reached; anything else means set-up failed.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hartreelab import cli  # noqa: E402

from tracing import rebind  # noqa: E402

SOLVERS = (
    ("hartreelab.hartree", "dense_rk4_oracle"),
    ("hartreelab.hartree", "picard_solve"),
    ("hartreelab.hartree", "linearized_solve"),
    ("hartreelab.hartree", "scattering_diagnostic"),
    ("hartreelab.hartree", "calibrate_l1_constant"),
    ("hartreelab.montecarlo", "singular_moment_experiment"),
    ("hartreelab.montecarlo", "full_moment_experiment"),
    ("hartreelab.montecarlo", "function_moment_experiment"),
)


class SolverReached(Exception):
    """Raised at the first solver call; the CLI does not catch it."""


def _stop(fn):
    def reached(*args, **kwargs):
        raise SolverReached(fn.__name__)
    return reached


def main(argv) -> int:
    for owner, attr in SOLVERS:
        rebind(owner, attr, _stop)
    try:
        code = cli.run(argv)
    except SolverReached:
        return 0
    print(f"set-up probe: CLI returned {code} before any solver call", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
