import configparser
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreelab.cli import (
    _CONFIG_KEYS,
    _grid_from_config,
    _initial_operator,
    _load_config,
    _openblas_core,
    run,
)
from hartreelab.norms import density_trajectory, lebesgue_norm

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

SINGULAR_CONFIG = """\
[grid]
d = 1
n = 32
L = 16.0

[experiment]
rank = 4
sigma = 0.5
p = 8
q = 4
m = 50
orders = 2 4 8 16
t = 0.25
n_frames = 9

[randomization]
kind = gaussian
seed = 424242
"""


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_check_subcommands_exit_zero(capsys):
    assert run(["check", "region", "--d", "2", "--sigma", "1/4", "--p", "4", "--q", "1.6"]) == 0
    assert run(["check", "exponents", "--d", "1", "--sigma", "0.5", "--p", "8", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 2" in out and "r = 8" in out
    assert run(["check", "full", "--d", "2", "--p", "2", "--q", "2", "--q-hat", "4", "--r", "4"]) == 0
    capsys.readouterr()
    assert run(["check", "sobolev", "--d", "2", "--p", "8/3", "--q", "8/3",
                "--alpha", "16/9", "--s", "1/4"]) == 0
    assert "admissible=True" in capsys.readouterr().out


def test_check_validation_failures():
    # scaling violation -> exit 1
    assert run(["check", "exponents", "--d", "1", "--sigma", "0.5", "--p", "8", "--q", "5"]) == 1
    # unknown flag -> exit 1
    assert run(["check", "region", "--d", "2", "--bogus", "1"]) == 1
    # missing subcommand -> exit 1
    assert run(["frobnicate"]) == 1


# (check arguments, text the error line must contain)
_BAD_CHECKS = [
    ("region --d 2", "check region needs --p, --q; --p is missing"),
    ("exponents --d 2 --p 4", "check exponents needs --p, --q; --q is missing"),
    ("full --d 2 --p 2 --q 2", "check full needs --p, --q, --q-hat, --r; --q-hat is missing"),
    ("sobolev --d 2 --p 4 --q 4 --alpha 2", "check sobolev needs --p, --q, --alpha, --s; --s is missing"),
    ("region --d 2 --p 0 --q 2", "--p must be finite and positive, got 0.0"),
    ("exponents --d 1 --p 8 --q=-4", "--q must be finite and positive, got -4.0"),
    ("full --d 2 --p 2 --q 2 --q-hat 4 --r inf", "--r must be finite and positive, got inf"),
    ("region --d 0 --p 2 --q 2", "--d must be 1, 2 or 3, got 0"),
    ("exponents --d 4 --p 4 --q 4", "--d must be 1, 2 or 3, got 4"),
]


@pytest.mark.parametrize("argv, named", _BAD_CHECKS, ids=[a for a, _ in _BAD_CHECKS])
def test_bad_check_is_a_validation_error(argv, named):
    res = _cli("check", *argv.split())
    assert res.returncode == 1
    assert "Traceback" not in res.stdout + res.stderr
    assert res.stderr.startswith("error:") and named in res.stderr


def test_strichartz_deterministic_byte_identical(tmp_path):
    cfg = _write(tmp_path / "exp.config", SINGULAR_CONFIG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run(["strichartz", "singular", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["strichartz", "singular", "--config", cfg, "--out", str(out2)]) == 0
    a = (out1 / "moments.csv").read_bytes()
    b = (out2 / "moments.csv").read_bytes()
    assert a == b
    with open(out1 / "moments.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["r"] for r in rows] == ["2.0", "4.0", "8.0", "16.0"]
    assert all(int(r["M"]) == 50 and int(r["seed"]) == 424242 for r in rows)
    rec = json.loads((out1 / "record.json").read_text())
    assert rec["status"] == "ok" and rec["master_seed"] == 424242
    assert str(out1 / "moments.csv") in rec["outputs"]


def test_strichartz_rejects_empty_ensemble(tmp_path):
    cfg = _write(tmp_path / "bad.config", SINGULAR_CONFIG.replace("m = 50", "m = 0"))
    assert run(["strichartz", "singular", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert run(["strichartz", "singular", "--config", "/nonexistent.config",
                "--out", str(tmp_path / "o2")]) == 1


def test_hartree_solve_reproduces_golden_trajectory(tmp_path):
    out = tmp_path / "golden"
    assert run(["hartree", "solve", "--config", str(DATA / "reference_d1.config"),
                "--out", str(out)]) == 0
    got = (out / "trajectory.csv").read_text().splitlines()
    want = (DATA / "golden_trajectory.csv").read_text().splitlines()
    assert got[0] == want[0]
    for lg, lw in zip(got[1:], want[1:]):
        for a, b in zip(lg.split(",")[:3], lw.split(",")[:3]):
            assert abs(float(a) - float(b)) <= 1e-10


# OpenBLAS kernels the golden solve is pinned under, by the name OpenBLAS reports,
# with the CPU flags each needs
_CORE_FLAGS = {
    "SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"sse4_2"},
    "Katmai": {"sse"},
}


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


@pytest.mark.parametrize("core", sorted(_CORE_FLAGS))
def test_golden_solve_is_the_same_bits_under_every_blas_kernel(tmp_path, core):
    # the golden path forms its factors and its dense kernel without BLAS, so each
    # OpenBLAS kernel the CPU can run writes the committed bytes
    if _openblas_core() is None:
        pytest.skip("no DYNAMIC_ARCH OpenBLAS is loaded, so its kernel cannot be chosen")
    if not _CORE_FLAGS[core] <= _cpu_flags():
        pytest.skip(f"this CPU cannot run the {core} kernel")
    out = tmp_path / core
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_CORETYPE=core)
    res = subprocess.run([sys.executable, "-m", "hartreelab.cli", "hartree", "solve",
                          "--config", str(DATA / "reference_d1.config"), "--out", str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads((out / "record.json").read_text())["env"]["blas"]["core"] == core
    assert (out / "trajectory.csv").read_bytes() == (DATA / "golden_trajectory.csv").read_bytes()


def test_record_carries_environment_fingerprint(tmp_path):
    out = tmp_path / "env"
    assert run(["hartree", "solve", "--config", str(DATA / "reference_d1.config"),
                "--out", str(out)]) == 0
    env = json.loads((out / "record.json").read_text())["env"]
    assert env["numpy"] == np.__version__ and env["cores"] == os.cpu_count()
    assert env["usable_cores"] == len(os.sched_getaffinity(0))
    assert set(env["blas"]) == {"name", "version", "openblas configuration", "core"}
    assert env["blas"]["core"] is None or isinstance(env["blas"]["core"], str)


def test_record_counts_the_cores_this_process_may_use(tmp_path, monkeypatch):
    # under a restricted affinity the host's core count and the usable cores differ
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    out = tmp_path / "env"
    assert run(["hartree", "solve", "--config", str(DATA / "reference_d1.config"),
                "--out", str(out)]) == 0
    env = json.loads((out / "record.json").read_text())["env"]
    assert env["usable_cores"] == 1 and env["cores"] == os.cpu_count()


@pytest.mark.parametrize("action, written", [("linearized", "density.csv"),
                                             ("scatter", "ladder.csv")])
def test_linearized_and_scatter_records_name_their_workers(tmp_path, monkeypatch, action,
                                                           written):
    # the frequency stages run on every usable core, and write the same bytes on any
    cfg = _write(tmp_path / "h.config", HARTREE_CONFIG.format(n=16, t=0.5, dt=1 / 32)
                 + "\n[background]\nf_scale = 0.1\n")
    got = {}
    for W in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(W)), raising=False)
        out = tmp_path / f"{action}{W}"
        assert run(["hartree", action, "--config", cfg, "--out", str(out)]) == 0
        rec = json.loads((out / "record.json").read_text())
        assert rec["meta"] == {"workers": W} and rec["env"]["usable_cores"] == W
        got[W] = (out / written).read_bytes()
    assert got[2] == got[1] and got[3] == got[1]


_COUNT_THREADS = """\
import json, sys, threading
from hartreelab import cli, grid

started = []


class Recorded(threading.Thread):
    def start(self):
        started.append(self.name)
        super().start()


threading.Thread = Recorded
grid._usable_cores = lambda: 2  # two usable cores, on any host
threads = []
for argv in sys.argv[1:]:
    assert cli.run(json.loads(argv)) == 0, argv
    threads.append(len(started))
    del started[:]
print(json.dumps({"threads": threads, "pool": "concurrent.futures" in sys.modules}))
"""


def test_two_workers_run_on_the_package_threads_alone(tmp_path):
    # the ensembles and the linearized stages start their workers with no thread pool
    full = _write(tmp_path / "full.config", _ENSEMBLE_CONFIGS["full"])
    lin = _write(tmp_path / "lin.config", HARTREE_CONFIG.format(n=16, t=0.5, dt=1 / 32)
                 + "\n[background]\nf_scale = 0.1\n")
    argv = [["strichartz", "full", "--config", full, "--out", str(tmp_path / "full")],
            ["hartree", "linearized", "--config", lin, "--out", str(tmp_path / "lin")]]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", _COUNT_THREADS, *map(json.dumps, argv)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout.splitlines()[-1])
    assert all(n >= 2 for n in got["threads"]) and got["pool"] is False


def test_hartree_picard_matches_golden_at_tolerance(tmp_path):
    out = tmp_path / "picard"
    assert run(["hartree", "solve", "--config", str(DATA / "reference_d1_picard.config"),
                "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        got = {float(r["t"]): (float(r["q_s2"]), float(r["rho_l2"])) for r in csv.DictReader(fh)}
    with open(DATA / "golden_trajectory.csv") as fh:
        want = {float(r["t"]): (float(r["q_s2"]), float(r["rho_l2"])) for r in csv.DictReader(fh)}
    assert set(got) == set(want)
    worst = max(max(abs(a - c), abs(b - d)) for (a, b), (c, d) in
                ((got[t], want[t]) for t in got))
    assert worst <= 1e-4
    rec = json.loads((out / "record.json").read_text())
    assert rec["achieved_T"] == pytest.approx(0.1)


def test_solve_record_names_the_integrator(tmp_path, capsys):
    oracle, picard = tmp_path / "oracle", tmp_path / "picard"
    assert run(["hartree", "solve", "--config", str(DATA / "reference_d1.config"),
                "--out", str(oracle)]) == 0
    said = capsys.readouterr().out
    assert "with the rk4 integrator" in said and "sweeps" not in said
    rec = json.loads((oracle / "record.json").read_text())
    assert rec["meta"] == {"integrator": "rk4"} and rec["scheme"] == "rk4"
    assert "R" not in rec and "data_norm" not in rec
    assert rec["outputs"] == [str(oracle / "trajectory.csv")]
    assert not (oracle / "contraction.csv").exists()
    assert (oracle / "trajectory.csv").read_bytes() == (DATA / "golden_trajectory.csv").read_bytes()

    assert run(["hartree", "solve", "--config", str(DATA / "reference_d1_picard.config"),
                "--out", str(picard)]) == 0
    rec = json.loads((picard / "record.json").read_text())
    with open(picard / "contraction.csv") as fh:
        sweeps = len(list(csv.DictReader(fh)))
    assert sweeps > 0 and rec["meta"] == {"halvings": 0, "sweeps": sweeps, "workers": 1}
    assert f"after {sweeps} sweeps" in capsys.readouterr().out
    assert rec["R"] > 0 and rec["data_norm"] > 0
    assert rec["outputs"] == [str(picard / "trajectory.csv"), str(picard / "contraction.csv")]


def test_hartree_numeric_failure_exits_two(tmp_path):
    # strong coupling plus a step so coarse there is no room to halve the window
    cfg = (DATA / "reference_d1_picard.config").read_text().replace(
        "w_scale = 1.0", "w_scale = 4000.0").replace(
        "t = 0.1", "t = 0.064").replace("dt = 0.001", "dt = 0.016")
    path = _write(tmp_path / "blowup.config", cfg)
    assert run(["hartree", "solve", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_hartree_linearized_and_calibrate(tmp_path):
    out = tmp_path / "lin"
    assert run(["hartree", "linearized", "--config", str(DATA / "reference_d1_picard.config"),
                "--out", str(out)]) == 0
    rec = json.loads((out / "record.json").read_text())
    assert rec["residual"] <= 1e-8
    assert rec["c0"] == pytest.approx(2.0, abs=1e-9)
    with open(out / "density.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) == {"t", "rho_l2", "grid", "dt", "T", "seed"}
    out2 = tmp_path / "cal"
    assert run(["calibrate-l1", "--config", str(DATA / "reference_d1_picard.config"),
                "--out", str(out2)]) == 0
    rec2 = json.loads((out2 / "record.json").read_text())
    assert rec2["c0"] == pytest.approx(2.0, abs=1e-9)
    assert rec2["residual"] <= 1e-6


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the probes overflow on purpose
@pytest.mark.parametrize("command", ["calibrate-l1", "hartree linearized", "hartree scatter"])
@pytest.mark.parametrize("key", ["f_scale", "w_scale"])
def test_a_nan_calibration_exits_two_by_its_residual(tmp_path, capsys, command, key):
    # at 1e308 the fit's residual is NaN, which is no fit: the run names the residual
    cfg = _write(tmp_path / "nan.config", HARTREE_CONFIG.format(n=16, t=0.8, dt=0.1)
                 + f"\n[background]\n{key} = 1e308\n")
    assert run([*command.split(), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: L1 calibration residual nan exceeds 1.0e-06")


def test_report_recomputes_slopes_consistently(tmp_path):
    cfg = _write(tmp_path / "exp.config", SINGULAR_CONFIG)
    out = tmp_path / "mc"
    assert run(["strichartz", "singular", "--config", cfg, "--out", str(out)]) == 0
    summary = tmp_path / "summary.csv"
    assert run(["report", str(out / "record.json"), "--out", str(summary)]) == 0
    with open(summary) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert abs(float(rows[0]["slope"]) - float(rows[0]["slope_recomputed"])) < 1e-12
    assert run(["report", str(tmp_path / "missing.json")]) == 1


def test_report_reads_each_output_next_to_its_record(tmp_path, capsys, monkeypatch):
    # a record names its outputs from the writer's directory; report runs from another
    cfg = _write(tmp_path / "exp.config", SINGULAR_CONFIG)
    (tmp_path / "writer").mkdir()
    (tmp_path / "reader").mkdir()
    monkeypatch.chdir(tmp_path / "writer")
    assert run(["strichartz", "singular", "--config", cfg, "--out", "mc"]) == 0
    assert json.loads(Path("mc/record.json").read_text())["outputs"] == ["mc/moments.csv"]
    monkeypatch.chdir(tmp_path / "reader")
    record = os.path.join("..", "writer", "mc", "record.json")
    capsys.readouterr()
    assert run(["report", record]) == 0
    assert "slope_recomputed=" in capsys.readouterr().out
    os.remove(os.path.join("..", "writer", "mc", "moments.csv"))
    assert run(["report", record]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unreadable output ../writer/mc/moments.csv")


HARTREE_CONFIG = """\
[grid]
d = 2
n = {n}
L = 8.0

[initial]
kind = random
rank = 2
seed = 0

[run]
t = {t}
dt = {dt}
"""


def _cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "hartreelab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("zero", ["f", "w"])
def test_linearized_without_response_runs_the_free_flow(tmp_path, zero):
    # L1 vanishes with f or w, so the default c0 is 0 and rho is the free density
    cfg = _write(tmp_path / "free.config", HARTREE_CONFIG.format(n=8, t=0.4, dt=0.05)
                 + f"\n[background]\n{zero} = zero\n")
    out = tmp_path / "lin"
    assert run(["hartree", "linearized", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "record.json").read_text())["c0"] == 0.0
    cp = _load_config(cfg)
    Q0 = _initial_operator(cp, _grid_from_config(cp))
    with open(out / "density.csv") as fh:
        rows = list(csv.DictReader(fh))
    free = density_trajectory(Q0, 0.05 * np.arange(9))
    assert len(rows) == len(free.frames)
    for row, rho in zip(rows, free.frames):
        assert float(row["rho_l2"]) == pytest.approx(lebesgue_norm(rho, 2), rel=1e-12, abs=0)


@pytest.mark.parametrize("action", ["solve", "linearized", "scatter"])
@pytest.mark.parametrize("key, value", [("t", "inf"), ("t", "nan"), ("dt", "0"),
                                        ("dt", "-1e-3"), ("dt", "nan")])
def test_bad_time_grid_is_a_validation_error(tmp_path, action, key, value):
    grid = {"n": 8, "t": 0.1, "dt": 0.01}
    grid[key] = value
    cfg = _write(tmp_path / "bad.config", HARTREE_CONFIG.format(**grid))
    res = _cli("hartree", action, "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "Traceback" not in res.stdout + res.stderr
    assert res.stderr.startswith("error:") and f"got {float(value)}" in res.stderr


@pytest.mark.parametrize("action, extra", [("solve", ""), ("solve", "oracle = yes\n"),
                                           ("linearized", ""), ("scatter", "")])
def test_an_overflowing_step_count_is_a_validation_error(tmp_path, capsys, action, extra):
    # t / dt overflows to inf: refused by name, not an OverflowError from int()
    cfg = _write(tmp_path / "huge.config", HARTREE_CONFIG.format(n=8, t=1e308, dt=0.01) + extra)
    assert run(["hartree", action, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t / dt" in err and "t = 1e+308, dt = 0.01" in err


@pytest.mark.parametrize("action, extra, what", [
    ("solve", "", "picard_solve"), ("solve", "oracle = yes\n", "dense_rk4_oracle"),
    ("linearized", "", "linearized_solve"), ("scatter", "", "scattering_diagnostic")])
def test_a_huge_step_count_is_refused_before_it_allocates(tmp_path, capsys, action, extra, what):
    # t / dt = 1e10 is finite, but its times alone take 80 GB: the memory rule refuses
    # the run (exit 1) before the times are formed, so no MemoryError (exit 2) is reached
    cfg = _write(tmp_path / "huge.config", HARTREE_CONFIG.format(n=8, t=1e10, dt=1) + extra)
    assert run(["hartree", action, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} would hold about") and "of physical memory" in err


def test_an_allocation_that_fails_exits_two(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000001,)")

    monkeypatch.setattr("hartreelab.cli.singular_moment_experiment", exhausted)
    cfg = _write(tmp_path / "exp.config", SINGULAR_CONFIG)
    assert run(["strichartz", "singular", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory:") and "74.5 GiB" in err


def test_picard_refuses_a_solve_larger_than_memory(tmp_path):
    # 10001 frames of 1024^2 complex entries: Picard counts 1 stack plus 7 working
    # kernels (6 and its per-frame densities; 10008 kernels), the RK4 oracle 1 stack
    # plus 10 working kernels (10011)
    base = HARTREE_CONFIG.format(n=32, t=10.0, dt=1e-3)
    for extra, estimate in (("", "167.9 GB"), ("oracle = yes\n", "168.0 GB")):
        cfg = _write(tmp_path / "huge.config", base + extra)
        res = _cli("hartree", "solve", "--config", cfg, "--out", str(tmp_path / "o"))
        assert res.returncode == 1
        assert "Traceback" not in res.stdout + res.stderr
        assert res.stderr.startswith("error:") and estimate in res.stderr


def test_picard_halving_off_the_step_grid_exits_two(tmp_path):
    # strong coupling halves T = 0.1 down to 0.0125, which is 12.5 steps of dt = 0.001
    cfg = (DATA / "reference_d1_picard.config").read_text().replace(
        "w_scale = 1.0", "w_scale = 4000.0")
    path = _write(tmp_path / "halving.config", cfg)
    res = _cli("hartree", "solve", "--config", path, "--out", str(tmp_path / "o"))
    assert res.returncode == 2
    assert "Traceback" not in res.stdout + res.stderr
    assert "no contraction at this resolution" in res.stderr


def _with(base: str, overrides: dict) -> str:
    """Config text ``base`` with each ``(section, key): value`` of ``overrides`` set."""
    cp = configparser.ConfigParser()
    cp.read_string(base)
    for (section, key), value in overrides.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


_SMALL_HARTREE = HARTREE_CONFIG.format(n=8, t=0.1, dt=0.01)

# (command, config overrides, text the error line must contain)
_BAD_INPUTS = [
    ("hartree linearized", {("run", "c0"): "nan"}, "c0 must be finite, got nan"),
    ("hartree linearized", {("run", "c0"): "inf"}, "c0 must be finite, got inf"),
    ("hartree scatter", {("run", "c0"): "nan"}, "c0 must be finite, got nan"),
    # 100001 frames at N = 262144: 6 frequency stacks of 419 GB each
    ("hartree linearized", {("grid", "n"): "512", ("run", "t"): "100", ("run", "dt"): "1e-3"},
     "linearized_solve would hold about 2516.6 GB"),
    ("hartree scatter", {("grid", "d"): "1"}, "the scattering exponent 2d/(d-1) needs d >= 2, got d = 1"),
    ("hartree scatter", {("run", "n_rungs"): "-1"}, "n_rungs must be >= 3, got -1"),
    ("hartree scatter", {("run", "n_rungs"): "0"}, "n_rungs must be >= 3, got 0"),
    ("hartree scatter", {("run", "n_rungs"): "1"}, "n_rungs must be >= 3, got 1"),
    ("hartree scatter", {("run", "n_rungs"): "2"}, "n_rungs must be >= 3, got 2"),
    ("hartree scatter", {("run", "n_rungs"): "2000"}, "n_rungs = 2000 puts the first rung"),
    ("strichartz singular", {("experiment", "t"): "nan"}, "T must be finite and positive, got nan"),
    ("strichartz singular", {("experiment", "t"): "-1"}, "T must be finite and positive, got -1.0"),
    ("strichartz singular", {("experiment", "t"): "0"}, "T must be finite and positive, got 0.0"),
    ("strichartz singular", {("experiment", "orders"): ""}, "moment orders must be non-empty"),
    ("strichartz singular", {("experiment", "p"): "inf"}, "p must be finite, got inf"),
    ("strichartz singular", {("experiment", "q"): "inf"}, "q must be finite, got inf"),
    ("strichartz singular", {("experiment", "sigma"): "inf"}, "sigma must be finite, got inf"),
    ("strichartz singular", {("experiment", "sigma"): "nan"}, "sigma must be finite, got nan"),
    ("calibrate-l1", {("run", "n_frames"): "1"}, "n_frames must be >= 2, got 1"),
    ("calibrate-l1", {("run", "dt"): "0"}, "dt must be finite and positive, got 0.0"),
    ("calibrate-l1", {("run", "dt"): "nan"}, "dt must be finite and positive, got nan"),
    ("calibrate-l1", {("run", "n_probes"): "0"}, "n_probes must be >= 1, got 0"),
    ("hartree linearized", {("initial", "rank"): "0"}, "rank must be between 1 and 64, got 0"),
    ("hartree linearized", {("initial", "rank"): "100"}, "rank must be between 1 and 64, got 100"),
    ("hartree linearized", {("initial", "kind"): "localized", ("initial", "rank"): "100"},
     "rank must be between 1 and 64, got 100"),
    ("hartree solve", {("run", "tol"): "nan"}, "tol must be finite and positive, got nan"),
    ("hartree solve", {("run", "tol"): "0"}, "tol must be finite and positive, got 0.0"),
    ("hartree solve", {("run", "tol"): "-1e-9"}, "tol must be finite and positive, got -1e-09"),
    ("hartree solve", {("background", "f_scale"): "nan"}, "f_scale must be finite, got nan"),
    ("hartree solve", {("background", "w_scale"): "nan"}, "w_scale must be finite, got nan"),
    ("hartree solve", {("background", "w_scale"): "inf"}, "w_scale must be finite, got inf"),
    ("hartree linearized", {("background", "f_scale"): "nan"}, "f_scale must be finite, got nan"),
    ("hartree linearized", {("background", "w_scale"): "nan"}, "w_scale must be finite, got nan"),
    ("strichartz singular", {("experiment", "sigm"): "0.5"}, "unknown config key [experiment] sigm"),
    ("strichartz singular", {("randomisation", "seed"): "1"},
     "unknown config key [randomisation] seed"),
    ("hartree solve", {("run", "tolerance"): "1e-9"}, "unknown config key [run] tolerance"),
    ("hartree scatter", {("run", "n_rung"): "4"}, "unknown config key [run] n_rung"),
    ("calibrate-l1", {("background", "fscale"): "0.5"}, "unknown config key [background] fscale"),
]


@pytest.mark.parametrize(
    "command, overrides, named", _BAD_INPUTS,
    ids=[f"{c}-{','.join(f'{k}={v}' for (_, k), v in o.items())}" for c, o, _ in _BAD_INPUTS])
def test_bad_input_is_a_validation_error(tmp_path, command, overrides, named):
    base = SINGULAR_CONFIG if command.startswith("strichartz") else _SMALL_HARTREE
    cfg = _write(tmp_path / "bad.config", _with(base, overrides))
    res = _cli(*command.split(), "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "Traceback" not in res.stdout + res.stderr
    assert res.stderr.startswith("error:") and named in res.stderr



_ENSEMBLE_CONFIGS = {
    "singular": SINGULAR_CONFIG,
    "full": "[grid]\nd = 2\nn = 8\nL = 8.0\n\n[experiment]\nrank = 2\np = 2\nq = 2\n"
            "q_hat = 4\nm = 5\norders = 4 8\nt = 0.25\nn_frames = 5\n\n"
            "[randomization_g]\nseed = 1\n\n[randomization_ell]\nseed = 2\n",
    "function": "[grid]\nd = 1\nn = 32\nL = 16.0\n\n[experiment]\np = 6\nq = 6\n"
                "q_hat = 6\nm = 5\norders = 8 16\nt = 0.25\nn_frames = 5\n\n"
                "[randomization]\nseed = 1\n",
}

# (kind, [experiment] key, value, text the error line must contain)
_BAD_ENSEMBLES = [
    ("singular", "p", "0", "p must be >= 1, got 0.0"),
    ("singular", "p", "1e-300", "p must be >= 1, got 1e-300"),
    ("singular", "q", "0", "q must be >= 1, got 0.0"),
    ("singular", "q", "1e-300", "q must be >= 1, got 1e-300"),
    ("singular", "orders", "2 inf", "moment orders must be finite, got [2.0, inf]"),
    ("singular", "n_frames", "1", "n_frames must be >= 2, got 1"),
    ("full", "p", "0", "p must be >= 1, got 0.0"),
    ("full", "q", "1e-300", "q must be >= 1, got 1e-300"),
    ("full", "q_hat", "0", "q_hat must be >= 1, got 0.0"),
    ("full", "q_hat", "inf", "q_hat must be finite, got inf"),
    ("full", "orders", "inf", "moment orders must be finite, got [inf]"),
    ("full", "orders", "4 -inf", "moment orders must be finite, got [4.0, -inf]"),
    ("full", "n_frames", "0", "n_frames must be >= 2, got 0"),
    ("function", "p", "1e-300", "p must be >= 1, got 1e-300"),
    ("function", "q", "0", "q must be >= 1, got 0.0"),
    ("function", "q_hat", "nan", "q_hat must be finite, got nan"),
    ("function", "orders", "8 inf", "moment orders must be finite, got [8.0, inf]"),
    ("function", "n_frames", "0", "n_frames must be >= 2, got 0"),
]


@pytest.mark.parametrize("kind, key, value, named", _BAD_ENSEMBLES,
                         ids=[f"{k}-{key}={v}" for k, key, v, _ in _BAD_ENSEMBLES])
def test_bad_ensemble_config_exits_one_by_name(tmp_path, capsys, kind, key, value, named):
    # checked in-process: an exception that escapes run() fails the test
    cfg = _write(tmp_path / "bad.config", _with(_ENSEMBLE_CONFIGS[kind], {("experiment", key): value}))
    assert run(["strichartz", kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("kind, section", [("singular", "randomization"),
                                           ("full", "randomization_g"),
                                           ("function", "randomization")])
def test_a_huge_family_parameter_exits_by_name(tmp_path, capsys, kind, section):
    # param = inf is refused by name (exit 1); param = 1e308 overflows the moments,
    # which moments.csv refuses by file, column and row (exit 2) and is not written
    for value, code, named in (("inf", 1, "error: family parameter must be finite and positive"),
                               ("1e308", 2, "numeric failure: ")):
        out = tmp_path / value
        text = _with(_ENSEMBLE_CONFIGS[kind], {(section, "param"): value})
        cfg = _write(tmp_path / "c.config", text)
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["strichartz", kind, "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(named)
        if code == 2:
            assert "moments.csv: column 'value' of row 1 is inf, not finite" in err
            assert not (out / "moments.csv").exists()


_LOCALIZED = {("initial", "kind"): "localized"}
_L_RULE = "L^(2d) and (L/n)^(2d) and their inverses must be finite and nonzero"
_WIDTH_RULE = "width^2 and its inverse must be finite and nonzero"

# (command, config overrides, text the error line must contain)
_BAD_SIZES = [
    ("hartree linearized", {("grid", "L"): "1e308"}, f"[grid] L = 1e+308: {_L_RULE}"),
    ("hartree scatter", {("grid", "L"): "1e308"}, f"[grid] L = 1e+308: {_L_RULE}"),
    ("hartree solve", {("grid", "L"): "1e308"}, f"[grid] L = 1e+308: {_L_RULE}"),
    ("hartree linearized", {("grid", "L"): "inf"}, f"[grid] L = inf: {_L_RULE}"),
    ("hartree linearized", {("grid", "L"): "1e-300"}, f"[grid] L = 1e-300: {_L_RULE}"),
    ("calibrate-l1", {("grid", "L"): "1e308"}, f"[grid] L = 1e+308: {_L_RULE}"),
    ("strichartz singular", {("grid", "L"): "1e308"}, f"[grid] L = 1e+308: {_L_RULE}"),
    ("hartree linearized", {**_LOCALIZED, ("initial", "width"): "1e308"},
     f"[initial] width = 1e+308: {_WIDTH_RULE}"),
    ("hartree scatter", {**_LOCALIZED, ("initial", "width"): "1e308"},
     f"[initial] width = 1e+308: {_WIDTH_RULE}"),
    ("hartree linearized", {**_LOCALIZED, ("initial", "width"): "0"},
     f"[initial] width = 0.0: {_WIDTH_RULE}"),
    ("hartree linearized", {**_LOCALIZED, ("initial", "width"): "nan"},
     f"[initial] width = nan: {_WIDTH_RULE}"),
]


@pytest.mark.parametrize(
    "command, overrides, named", _BAD_SIZES,
    ids=[f"{c}-{','.join(f'{k}={v}' for (_, k), v in o.items())}" for c, o, _ in _BAD_SIZES])
def test_an_out_of_range_size_exits_one_by_name(tmp_path, capsys, command, overrides, named):
    # checked in-process: an OverflowError that escapes run() fails the test
    base = SINGULAR_CONFIG if command.startswith("strichartz") else _SMALL_HARTREE
    cfg = _write(tmp_path / "bad.config", _with(base, overrides))
    assert run([*command.split(), "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad config value") and named in err


def test_malformed_config_is_a_validation_error(tmp_path):
    cfg = _write(tmp_path / "bad.config", "d = 1\n[grid]\nn = 8\n")
    res = _cli("hartree", "solve", "--config", cfg, "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "Traceback" not in res.stdout + res.stderr
    assert res.stderr.startswith("error: malformed config")


_HARTREE_SECTIONS = ("grid", "background", "initial", "run")
_ENSEMBLE_SECTIONS = ("grid", "experiment", "randomization")
# (argv, base config, sections the command reads): tiny configs, every count small
_PROPERTY_BASES = [
    (["hartree", "solve"], _SMALL_HARTREE, _HARTREE_SECTIONS),
    (["hartree", "solve"], _with(_SMALL_HARTREE, {("run", "oracle"): "yes"}), _HARTREE_SECTIONS),
    (["hartree", "linearized"], _SMALL_HARTREE, _HARTREE_SECTIONS),
    (["hartree", "scatter"], _with(_SMALL_HARTREE, {("run", "t"): "0.16"}), _HARTREE_SECTIONS),
    (["calibrate-l1"], _SMALL_HARTREE, ("grid", "background", "run")),
    (["strichartz", "singular"], SINGULAR_CONFIG, _ENSEMBLE_SECTIONS),
    (["strichartz", "full"], _ENSEMBLE_CONFIGS["full"],
     ("grid", "experiment", "randomization_g", "randomization_ell")),
    (["strichartz", "function"], _ENSEMBLE_CONFIGS["function"], _ENSEMBLE_SECTIONS),
]
_PROPERTY_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308", "abc", "", "2.5", "1e-300", "3"]
# 2 MB of physical memory, about what the largest base (the oracle's 21 kernels of
# 64 x 64) needs, so a mutation that grows a dense problem is refused, not allocated
_PROPERTY_MEMORY = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 512}


def _run_in_memory(argv, text):
    """The exit code of one in-process run and the numbers of every CSV it wrote."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sysconf", _PROPERTY_MEMORY.get)
        cfg = _write(Path(tmp) / "c.config", text)
        code = run([*argv, "--config", cfg, "--out", str(Path(tmp) / "o")])
        numbers = []
        for path in sorted((Path(tmp) / "o").glob("*.csv")):
            with open(path, newline="") as fh:
                for row in list(csv.reader(fh))[1:]:
                    numbers += [float(cell) for cell in row if _is_number(cell)]
        return code, numbers


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


_PROPERTY_IDS = [" ".join(a) + (" oracle" if "oracle" in b else "") for a, b, _ in _PROPERTY_BASES]


@pytest.mark.parametrize("argv, base, sections", _PROPERTY_BASES, ids=_PROPERTY_IDS)
def test_each_property_base_config_runs(argv, base, sections):
    code, numbers = _run_in_memory(argv, base)
    assert code == 0 and all(np.isfinite(numbers))


@pytest.mark.parametrize("argv, base, sections", _PROPERTY_BASES, ids=_PROPERTY_IDS)
def test_every_experiment_writes_its_tables_then_one_record(tmp_path, capsys, argv, base,
                                                            sections):
    out = tmp_path / "o"
    assert run([*argv, "--config", _write(tmp_path / "c.config", base), "--out", str(out)]) == 0
    rec = json.loads((out / "record.json").read_text())
    assert sorted(rec["outputs"]) == sorted(str(path) for path in out.glob("*.csv"))
    assert sorted(path.name for path in out.iterdir() if path.suffix != ".csv") == ["record.json"]
    wrote = capsys.readouterr().out.splitlines()[-1]
    assert wrote == f"wrote {', '.join(rec['outputs'] + [str(out / 'record.json')])}"


_EXPERIMENT_BASES = {" ".join(a): b for a, b, _ in _PROPERTY_BASES}
# (command, --out relative to the test directory): the config file itself, a path under
# it, and for report a table under a file or in a missing directory
_UNWRITABLE = ([(c, out) for c in _EXPERIMENT_BASES for out in ("s.config", "s.config/o")]
               + [("report", "s.config/summary.csv"), ("report", "missing/summary.csv")])


@pytest.mark.parametrize("command, out", _UNWRITABLE, ids=[f"{c}-{o}" for c, o in _UNWRITABLE])
def test_an_output_that_cannot_be_written_exits_one_by_path(tmp_path, capsys, command, out):
    cfg = _write(tmp_path / "s.config", _EXPERIMENT_BASES.get(command, SINGULAR_CONFIG))
    out = str(tmp_path / out)
    if command == "report":
        record = _write(tmp_path / "record.json", json.dumps({"command": "calibrate-l1"}))
        argv = ["report", record, "--out", out]
    else:
        argv = [*command.split(), "--config", cfg, "--out", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and out in err


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=st.sampled_from(_PROPERTY_BASES), data=st.data())
def test_a_single_bad_config_value_exits_zero_one_or_two(case, data):
    # in-process: an exception that escapes run() fails the test
    argv, base, sections = case
    section = data.draw(st.sampled_from(sections))
    key = data.draw(st.sampled_from(_CONFIG_KEYS[section]))
    value = data.draw(st.sampled_from(_PROPERTY_VALUES))
    code, numbers = _run_in_memory(argv, _with(base, {(section, key): value}))
    assert code in (0, 1, 2)
    # an exit 0 wrote only finite numbers
    assert code != 0 or all(np.isfinite(numbers))
