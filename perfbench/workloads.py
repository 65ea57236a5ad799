"""The four benchmark workloads: inputs from a seed, one round of work, output checks.

A round is one pass of a workload's whole task, made of tasks: one task is
one CLI invocation (through ``hartreelab.cli.run``) or one randomized
local-well-posedness (LWP) draw (through ``randomized_lwp_pipeline``, which
has no CLI command).  Each task's parsed outputs go through the workload's
``check``; a task fails on a nonzero exit code, an exception, a status other
than "ok", or a failed check.  The checks test invariants with the
tolerances the test suite uses, so they hold for every seed, not only for
outputs stored for one seed.

``PERTURBATIONS`` lists, per workload, edits of a parsed round that each
check must reject; ``selftest.py`` applies them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hartreelab import cli, hartree
from hartreelab.grid import make_grid
from hartreelab.linop import LowRankOperator, random_low_rank
from hartreelab.randomize import SubgaussianFamily

from tracing import rebind

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


@dataclass
class Round:
    """Timings, task verdicts and parsed outputs of one pass of a workload."""

    wall: float  # whole round, s
    items: int  # throughput units completed (draws or time frames)
    item_time: float  # seconds spent in the tasks that produce the items
    problems: dict  # task name -> list of failed checks ([] means the task passed)
    parsed: dict = field(default_factory=dict)  # task name -> parsed outputs
    outputs: dict = field(default_factory=dict)  # output name -> bytes, for bit-identity

    @property
    def attempted(self) -> int:
        return len(self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def derive_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one input stream of a workload."""
    return random.Random(f"{seed}/{label}").randrange(1, 2**31)


def _write_config(path: Path, sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in items.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


def _cli(argv: list) -> tuple:
    """Run one CLI invocation in-process; returns (exit code, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run(argv)
    except Exception as e:  # a traceback is a failed task, not a crashed benchmark
        return -1, f"{type(e).__name__}: {e}"
    return code, sink.getvalue().strip()[-300:]


def _read_outputs(out_dir: Path) -> tuple:
    """record.json (without its wall time) plus every CSV it lists, as bytes."""
    rec = json.loads((out_dir / "record.json").read_text())
    files = {}
    for path in rec["outputs"]:
        files[Path(path).name] = Path(path).read_bytes()
    stable = {k: v for k, v in rec.items() if k != "wall_time_s"}
    files["record.json"] = json.dumps(stable, sort_keys=True).encode()
    return rec, files


def _csv_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


class Workload:
    name = ""
    item_name = ""  # the throughput metric's name in the printed summary

    def __init__(self, work: Path, seed: int, small: bool = False):
        self.work = work
        self.seed = seed
        self.small = small
        work.mkdir(parents=True, exist_ok=True)

    def first_argv(self) -> list:
        """The CLI invocation whose first solver call ends set-up."""
        raise NotImplementedError

    def run_round(self) -> Round:
        """One pass of the whole task, in the calling process (see one_round.py)."""
        raise NotImplementedError

    def check(self, parsed: dict) -> dict:
        """Task name -> list of failed checks, for the parsed outputs of one round."""
        raise NotImplementedError

    def items_of(self, task: str) -> int:
        """Throughput items a task contributes when it passes."""
        raise NotImplementedError

    def _cli_task(self, task: str, argv_tail: list, parsed: dict, outputs: dict,
                  problems: dict) -> float:
        out = self.work / task
        t0 = time.perf_counter()
        code, err = _cli(argv_tail + ["--out", str(out)])
        elapsed = time.perf_counter() - t0
        if code != 0:
            problems[task] = [f"exit code {code}: {err}"]
            return elapsed
        rec, files = _read_outputs(out)
        parsed[task] = {"record": rec, "files": files}
        outputs.update({f"{task}/{k}": v for k, v in files.items()})
        return elapsed

    def _finish(self, wall: float, item_time: float, parsed: dict, outputs: dict,
                problems: dict) -> Round:
        for task, found in self.check(parsed).items():
            problems.setdefault(task, []).extend(found)
        items = sum(self.items_of(task) for task, found in problems.items() if not found)
        return Round(wall, items, item_time, problems, parsed, outputs)


# ---------------------------------------------------------------------------
# mc_moments: the three randomized Strichartz moment experiments


class McMoments(Workload):
    """strichartz singular / full / function at d=2, n=32."""

    name = "mc_moments"
    item_name = "mc_draws_per_s"
    SLOPE_LIMIT = {"singular": 0.65, "full": 1.65}
    FUNCTION_CI_LIMIT = 0.65

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        m_sing, m_other = (400, 60) if small else (8000, 1000)
        grid = {"d": 2, "n": 32, "L": 12.0}
        fam = lambda label: {"kind": "gaussian", "seed": derive_seed(seed, label)}
        self.M = {"singular": m_sing, "full": m_other, "function": m_other}
        self.configs = {
            "singular": _write_config(work / "singular.config", {
                "grid": grid,
                "experiment": {"rank": 8, "sigma": 2.0 / 3.0, "p": 3, "q": 3, "m": m_sing,
                               "orders": "2 4 8 16 32 64",
                               "op_seed": derive_seed(seed, "singular-op")},
                "randomization": fam("singular"),
            }),
            "full": _write_config(work / "full.config", {
                "grid": grid,
                "experiment": {"rank": 8, "p": 2, "q": 2, "q_hat": 4, "m": m_other,
                               "orders": "4 8 16 32", "op_seed": derive_seed(seed, "full-op")},
                "randomization_g": fam("full-g"),
                "randomization_ell": fam("full-ell"),
            }),
            "function": _write_config(work / "function.config", {
                "grid": grid,
                "experiment": {"p": 4, "q": 4, "q_hat": 4, "m": m_other,
                               "orders": "4 8 16 32"},
                "randomization": fam("function"),
            }),
        }

    def first_argv(self):
        return ["strichartz", "singular", "--config", self.configs["singular"],
                "--out", str(self.work / "singular")]

    def run_round(self):
        parsed, outputs, problems = {}, {}, {}
        t0 = time.perf_counter()
        for kind in ("singular", "full", "function"):
            problems[kind] = []
            self._cli_task(kind, ["strichartz", kind, "--config", self.configs[kind]],
                           parsed, outputs, problems)
        wall = time.perf_counter() - t0
        return self._finish(wall, wall, parsed, outputs, problems)

    def items_of(self, task):
        return self.M[task]

    def check(self, parsed):
        found = {}
        for kind in ("singular", "full", "function"):
            p = found[kind] = []
            if kind not in parsed:
                p.append("no output")
                continue
            rec = parsed[kind]["record"]
            rows = _csv_rows(parsed[kind]["files"]["moments.csv"])
            if rec.get("status") != "ok":
                p.append(f"status {rec.get('status')!r}")
            values = [float(r["value"]) for r in rows]
            if not rows or not all(math.isfinite(v) and v > 0 for v in values):
                p.append("moment values missing, non-finite or non-positive")
            if any(int(r["M"]) != self.M[kind] for r in rows):
                p.append("ensemble size in moments.csv differs from the config")
            slope = rec.get("slope")
            if not _finite(slope):
                p.append(f"slope {slope!r} is not finite")
            elif kind in self.SLOPE_LIMIT and slope > self.SLOPE_LIMIT[kind]:
                p.append(f"slope {slope:.4f} > {self.SLOPE_LIMIT[kind]}")
            elif kind == "function" and not rec["slope_ci"][1] < self.FUNCTION_CI_LIMIT:
                p.append(f"slope CI upper end {rec['slope_ci'][1]:.4f} >= "
                         f"{self.FUNCTION_CI_LIMIT}")
        return found


# ---------------------------------------------------------------------------
# picard_dense: committed reference solves plus randomized LWP draws


class PicardDense(Workload):
    """hartree solve on both committed configs, then randomized LWP draws at d=2 and d=3."""

    name = "picard_dense"
    item_name = "lwp_draws_per_s"
    GOLDEN_TOL = 1e-10
    ORACLE_TOL = 1e-4
    MAX_RATIO = 0.9
    # (d, n, L, scheme, T, dt, draws): criterion 14's d=2 and d=3 pipelines
    LWP = ((2, 16, 16.0, "d2", 0.05, 1e-3, 3), (3, 8, 12.0, "d3", 0.04, 2e-3, 2))
    LWP_SMALL = ((2, 8, 16.0, "d2", 0.01, 1e-3, 1), (3, 8, 12.0, "d3", 0.008, 2e-3, 1))

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        self.golden = (DATA / "golden_trajectory.csv").read_bytes()
        self.rk4_config = str(DATA / "reference_d1.config")
        self.picard_config = str(DATA / "reference_d1_picard.config")
        self.lwp = self.LWP_SMALL if small else self.LWP

    def first_argv(self):
        return ["hartree", "solve", "--config", self.rk4_config, "--out", str(self.work / "rk4")]

    def _lwp_inputs(self, d, n, L):
        g = make_grid(d, n, L)
        bg = hartree.make_background(g, "gaussian", "delta")
        rng = np.random.default_rng(derive_seed(self.seed, f"lwp-op-d{d}"))
        A = random_low_rank(g, 3, rng, hermitian=True)
        Q0 = LowRankOperator(g, 0.05 * A.coeffs, A.left, A.right)
        fam = SubgaussianFamily("gaussian", derive_seed(self.seed, f"lwp-draws-d{d}"))
        return Q0, bg, fam

    def run_round(self):
        parsed, outputs, problems = {}, {}, {}
        t0 = time.perf_counter()
        for task, cfg in (("rk4", self.rk4_config), ("picard", self.picard_config)):
            problems[task] = []
            self._cli_task(task, ["hartree", "solve", "--config", cfg], parsed, outputs, problems)
        lwp_time = 0.0
        for d, n, L, scheme, T, dt, draws in self.lwp:
            Q0, bg, fam = self._lwp_inputs(d, n, L)
            names = [f"lwp_d{d}_{m}" for m in range(draws)]
            for name in names:
                problems[name] = []
            t1 = time.perf_counter()
            try:
                recs = hartree.randomized_lwp_pipeline(Q0, "singular", bg, scheme, 0.5, fam,
                                                       T, dt, n_draws=draws)
            except Exception as e:  # the whole pipeline call failed: every draw counts
                for name in names:
                    problems[name].append(f"{type(e).__name__}: {e}")
                recs = []
            lwp_time += time.perf_counter() - t1
            for name, rec in zip(names, recs):
                parsed[name] = rec
                outputs[name] = json.dumps(rec, sort_keys=True).encode()
        wall = time.perf_counter() - t0
        return self._finish(wall, lwp_time, parsed, outputs, problems)

    def items_of(self, task):
        return 1 if task.startswith("lwp") else 0

    def golden_rows_differ(self, parsed) -> int:
        """Data rows of the oracle trajectory that differ byte-wise from the golden file."""
        if "rk4" not in parsed:
            return -1
        got = parsed["rk4"]["files"]["trajectory.csv"].decode().splitlines()[1:]
        want = self.golden.decode().splitlines()[1:]
        return sum(1 for a, b in zip(got, want) if a != b) + abs(len(got) - len(want))

    def check(self, parsed):
        found = {"rk4": [], "picard": []}
        want = _csv_rows(self.golden)
        if "rk4" in parsed:
            rk4 = _csv_rows(parsed["rk4"]["files"]["trajectory.csv"])
            found["rk4"] += self._status(parsed["rk4"]["record"])
            if len(rk4) != len(want) or (rk4 and list(rk4[0]) != list(want[0])):
                found["rk4"].append("oracle trajectory shape differs from the golden file")
            else:
                worst = _sup_diff(rk4, want, ("t", "q_s2", "rho_l2"))
                if not worst <= self.GOLDEN_TOL:
                    found["rk4"].append(f"oracle vs golden {worst:.3e} > {self.GOLDEN_TOL}")
        else:
            found["rk4"].append("no output")
            rk4 = None
        if "picard" in parsed:
            rec = parsed["picard"]["record"]
            found["picard"] += self._status(rec)
            pic = _csv_rows(parsed["picard"]["files"]["trajectory.csv"])
            if not (_finite(rec.get("achieved_T")) and abs(rec["achieved_T"] - 0.1) <= 1e-12):
                found["picard"].append(f"achieved T {rec.get('achieved_T')!r} != 0.1")
            if rk4 is None or len(pic) != len(rk4):
                found["picard"].append("no oracle trajectory of matching length to compare")
            else:
                worst = _sup_diff(pic, rk4, ("q_s2", "rho_l2"))
                if not worst <= self.ORACLE_TOL:
                    found["picard"].append(f"Picard vs oracle {worst:.3e} > {self.ORACLE_TOL}")
        else:
            found["picard"].append("no output")
        for d, *_, draws in self.lwp:
            for m in range(draws):
                name = f"lwp_d{d}_{m}"
                rec = parsed.get(name)
                p = found[name] = []
                if rec is None:
                    p.append("no record")
                    continue
                p += self._status(rec)
                if not _finite(rec.get("data_norm")):
                    p.append(f"data norm {rec.get('data_norm')!r} is not finite")
                if not (_finite(rec.get("achieved_T")) and rec["achieved_T"] > 0):
                    p.append(f"achieved T {rec.get('achieved_T')!r} is not positive")
                if not (_finite(rec.get("max_ratio")) and rec["max_ratio"] <= self.MAX_RATIO):
                    p.append(f"max contraction ratio {rec.get('max_ratio')!r} > {self.MAX_RATIO}")
        return found

    @staticmethod
    def _status(rec):
        return [] if rec.get("status") == "ok" else [f"status {rec.get('status')!r}"]


def _sup_diff(rows_a, rows_b, cols) -> float:
    worst = 0.0
    for a, b in zip(rows_a, rows_b):
        for c in cols:
            worst = max(worst, abs(float(a[c]) - float(b[c])))
    return worst


# ---------------------------------------------------------------------------
# scatter: the dyadic-ladder scattering diagnostic with the implicit calibration


class Scatter(Workload):
    """hartree scatter at criterion 13's physics, d=2, n=32, T=4, c0 unset."""

    name = "scatter"
    item_name = "frames_per_s"
    C0 = 2.0
    C0_TOL = 1e-6
    CAL_RESIDUAL = 1e-6

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        n, L = (16, 16.0) if small else (32, 32.0)
        T, self.dt = 4.0, 1.0 / 16
        self.frames = int(round(T / self.dt)) + 1
        self.config = _write_config(work / "scatter.config", {
            "grid": {"d": 2, "n": n, "L": L},
            "background": {"f": "gaussian", "w": "delta", "f_scale": 0.1, "w_scale": 1.0},
            "initial": {"kind": "localized", "rank": 3, "width": 1.0,
                        "seed": derive_seed(seed, "scatter-initial")},
            "run": {"t": T, "dt": self.dt},
        })

    def first_argv(self):
        return ["hartree", "scatter", "--config", self.config, "--out", str(self.work / "scatter")]

    def run_round(self):
        parsed, outputs, problems = {}, {}, {"scatter": []}
        calibrations = []

        def tap(fn):
            def calibrate(*args, **kwargs):
                result = fn(*args, **kwargs)
                calibrations.append({"c0": result.c0, "residual": result.residual})
                return result
            return calibrate

        # The CLI record omits the implicit calibration, so read it where it returns.
        undo = rebind(hartree, "calibrate_l1_constant", tap)
        try:
            wall = self._cli_task("scatter", ["hartree", "scatter", "--config", self.config],
                                  parsed, outputs, problems)
        finally:
            undo()
        if "scatter" in parsed:
            parsed["scatter"]["calibrations"] = calibrations
        return self._finish(wall, wall, parsed, outputs, problems)

    def items_of(self, task):
        return self.frames

    def check(self, parsed):
        p = []
        if "scatter" not in parsed:
            return {"scatter": ["no output"]}
        rec = parsed["scatter"]["record"]
        if rec.get("status") != "ok":
            p.append(f"status {rec.get('status')!r}")
        if rec.get("verdict") != "Cauchy-consistent" or rec.get("cauchy_consistent") is not True:
            p.append(f"verdict {rec.get('verdict')!r}")
        rows = _csv_rows(parsed["scatter"]["files"]["ladder.csv"])
        dists = [float(r["distance"]) for r in rows]
        if len(dists) != 3 or not all(math.isfinite(x) and x > 0 for x in dists):
            p.append(f"ladder distances {dists} are not 3 positive numbers")
        # c0 is unset, so scattering_diagnostic calibrates exactly once.
        cals = parsed["scatter"]["calibrations"]
        if len(cals) != 1:
            p.append(f"{len(cals)} implicit c0 calibrations, want 1")
        for cal in cals:
            if not abs(cal["c0"] - self.C0) <= self.C0_TOL:
                p.append(f"calibrated c0 {cal['c0']!r} is not within {self.C0_TOL} of 2")
            if not cal["residual"] <= self.CAL_RESIDUAL:
                p.append(f"calibration residual {cal['residual']!r} > {self.CAL_RESIDUAL}")
        return {"scatter": p}


# ---------------------------------------------------------------------------
# linearized: the frequency-domain linear-response solve above the dense guard


class Linearized(Workload):
    """hartree linearized at d=2, n=64 (N=4096), T=16, dt=1/16, c0 = 2."""

    name = "linearized"
    item_name = "frames_per_s"
    RESIDUAL = 1e-8

    def __init__(self, work, seed, small=False):
        super().__init__(work, seed, small)
        n, T = (16, 2.0) if small else (64, 16.0)
        dt = 1.0 / 16
        self.frames = int(round(T / dt)) + 1
        self.config = _write_config(work / "linearized.config", {
            "grid": {"d": 2, "n": n, "L": 32.0},
            "background": {"f": "gaussian", "w": "delta", "f_scale": 0.1, "w_scale": 1.0},
            "initial": {"kind": "localized", "rank": 3, "width": 1.0,
                        "seed": derive_seed(seed, "linearized-initial")},
            "run": {"t": T, "dt": dt, "c0": 2.0},
        })

    def first_argv(self):
        return ["hartree", "linearized", "--config", self.config,
                "--out", str(self.work / "linearized")]

    def run_round(self):
        parsed, outputs, problems = {}, {}, {"linearized": []}
        wall = self._cli_task("linearized", ["hartree", "linearized", "--config", self.config],
                              parsed, outputs, problems)
        return self._finish(wall, wall, parsed, outputs, problems)

    def items_of(self, task):
        return self.frames

    def check(self, parsed):
        if "linearized" not in parsed:
            return {"linearized": ["no output"]}
        p = []
        rec = parsed["linearized"]["record"]
        if rec.get("status") != "ok":
            p.append(f"status {rec.get('status')!r}")
        if not (_finite(rec.get("residual")) and rec["residual"] <= self.RESIDUAL):
            p.append(f"residual {rec.get('residual')!r} > {self.RESIDUAL}")
        if rec.get("c0") != 2.0:
            p.append(f"c0 {rec.get('c0')!r} != 2.0 from the config")
        rows = _csv_rows(parsed["linearized"]["files"]["density.csv"])
        rho = [float(r["rho_l2"]) for r in rows]
        if len(rho) != self.frames or not all(math.isfinite(x) for x in rho):
            p.append(f"density.csv has {len(rho)} finite-checked rows, want {self.frames}")
        return {"linearized": p}


WORKLOADS = {w.name: w for w in (McMoments, PicardDense, Scatter, Linearized)}


# ---------------------------------------------------------------------------
# wrong answers each check must reject (used by selftest.py)


def _set_record(task, key, value):
    def edit(parsed):
        parsed[task]["record"][key] = value
    return edit


def _edit_csv(task, name, column, fn):
    def edit(parsed):
        files = parsed[task]["files"]
        rows = _csv_rows(files[name])
        rows[-1][column] = repr(fn(float(rows[-1][column])))
        buf = io.StringIO()
        wr = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
        wr.writeheader()
        wr.writerows(rows)
        files[name] = buf.getvalue().encode()
    return edit


def _set_lwp(key, value):
    def edit(parsed):
        parsed["lwp_d2_0"][key] = value
    return edit


def _set_calibration(key, value):
    def edit(parsed):
        parsed["scatter"]["calibrations"][0][key] = value
    return edit


def _drop_calibration(parsed):
    parsed["scatter"]["calibrations"].clear()


PERTURBATIONS = {
    "mc_moments": [
        ("singular slope above 0.65", _set_record("singular", "slope", 0.66)),
        ("full slope above 1.65", _set_record("full", "slope", 1.7)),
        ("function slope CI reaches 0.65", _set_record("function", "slope_ci", [0.1, 0.65])),
        ("non-ok status", _set_record("full", "status", "failed")),
        ("negative moment", _edit_csv("function", "moments.csv", "value", lambda v: -v)),
    ],
    "picard_dense": [
        ("oracle off golden by 1e-9",
         _edit_csv("rk4", "trajectory.csv", "q_s2", lambda v: v + 1e-9)),
        ("Picard off oracle by 2e-4",
         _edit_csv("picard", "trajectory.csv", "rho_l2", lambda v: v + 2e-4)),
        ("Picard window halved", _set_record("picard", "achieved_T", 0.05)),
        ("LWP draw not ok", _set_lwp("status", "infinite data norm")),
        ("LWP contraction ratio above 0.9", _set_lwp("max_ratio", 0.95)),
    ],
    "scatter": [
        ("verdict not Cauchy-consistent", _set_record("scatter", "verdict",
                                                      "no scattering at this horizon")),
        ("calibrated c0 off by 2e-6", _set_calibration("c0", 2.0 + 2e-6)),
        ("calibration residual above 1e-6", _set_calibration("residual", 2e-6)),
        ("implicit calibration not run", _drop_calibration),
    ],
    "linearized": [
        ("residual above 1e-8", _set_record("linearized", "residual", 2e-8)),
        ("c0 not taken from the config", _set_record("linearized", "c0", 2.000001)),
        ("non-finite density", _edit_csv("linearized", "density.csv", "rho_l2",
                                         lambda v: float("nan"))),
    ],
}
