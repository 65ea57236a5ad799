"""Command-line harness: experiments, run records, and reproducibility.

Subcommands
-----------
check        exponent-region and admissibility arithmetic (no grid work)
strichartz   moment-growth Monte Carlo (singular / full / function)
hartree      solve / linearized / scatter on a configured background
calibrate-l1 fit the response-kernel constant and report the residual
report       aggregate run records into one summary table

Every experiment (strichartz, hartree, calibrate-l1) runs one flow,
``_experiment``: it reads a flat key = value config with sections, writes its
CSV tables into --out and then exactly one JSON run record, record.json, and
ends with the line ``wrote <table>, ..., <record>``.  Replaying the record's
command with the same seed reproduces the tables byte for byte.  ``report``
reads each output next to its record.  Exit codes: 0 success, 1 validation
error or an output that cannot be written, 2 numeric failure or out of memory.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import functools
import json
import math
import os
import platform
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .exponents import (
    ExponentRegion,
    deterministic_sharp_alpha,
    full_estimate_check,
    region_membership,
    singular_estimate_exponents,
    sobolev_admissible,
)
from .grid import _usable_cores, make_grid
from .hartree import (
    calibrate_l1_constant,
    dense_rk4_oracle,
    linearized_solve,
    make_background,
    picard_solve,
    scattering_diagnostic,
)
from .linop import localized_low_rank, random_low_rank
from .montecarlo import (
    _loglog_slope,
    fit_moment_slope,
    full_moment_experiment,
    function_moment_experiment,
    singular_moment_experiment,
)
from .norms import _write_csv, lebesgue_norm
from .randomize import SubgaussianFamily

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# config plumbing


_FAMILY_KEYS = ("kind", "seed", "param")

# Every [section] key that some command reads through _get, lower case as
# configparser stores it.  The table is shared by all commands, so one config
# serves several of them (the Picard config's scheme is unread by linearized).
_CONFIG_KEYS = {
    "grid": ("d", "n", "l"),
    "experiment": ("m", "orders", "t", "n_frames", "p", "q", "q_hat", "rank", "sigma", "op_seed"),
    "randomization": _FAMILY_KEYS,
    "randomization_g": _FAMILY_KEYS,
    "randomization_ell": _FAMILY_KEYS,
    "background": ("f", "w", "f_scale", "w_scale"),
    "initial": ("kind", "rank", "seed", "width"),
    "run": ("t", "dt", "scheme", "tol", "oracle", "c0", "n_rungs", "n_frames", "n_probes",
            "seed"),
}


def _load_config(path: str) -> configparser.ConfigParser:
    """Parse a config; a key that no command reads (a typo) is a validation error."""
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as e:
        raise ValidationError(f"malformed config {path}: {e}") from e
    unknown = [f"[{s}] {k}" for s in cp.sections() for k in cp.options(s)
               if k not in _CONFIG_KEYS.get(s, ())]
    if unknown:
        raise ValidationError(f"unknown config key {', '.join(unknown)}: no command reads it")
    return cp


def _cfg_dict(cp: configparser.ConfigParser) -> dict:
    return {s: dict(cp.items(s)) for s in cp.sections()}


def _get(cp, section, key, cast, default=None, required=False):
    if key.lower() not in _CONFIG_KEYS[section]:
        raise KeyError(f"[{section}] {key} is read but missing from _CONFIG_KEYS")
    if not cp.has_option(section, key):
        if required:
            raise ValidationError(f"missing config key [{section}] {key}")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as e:
        raise ValidationError(f"bad config value [{section}] {key} = {raw!r}: {e}") from e


def _float_or_inf(s: str) -> float:
    return float("inf") if s.strip().lower() in ("inf", "infinity") else float(s)


def _exponent(s: str):
    """An exact fraction ('8/3', '1.6'); 'inf' and 'nan' stay floats for the range check."""
    try:
        return Fraction(s)
    except ValueError:
        return float(s)


def _orders(s: str) -> list:
    return [float(x) for x in s.replace(",", " ").split()]


def _in_range(x: float, p: int) -> bool:
    """x > 0 with x^p and x^-p finite and nonzero, so no power of it that is formed
    over- or underflows."""
    try:
        return math.isfinite(x) and x > 0 and 0 < x**p < math.inf and 0 < x**-p < math.inf
    except (OverflowError, ZeroDivisionError):
        return False


def _grid_from_config(cp):
    d = _get(cp, "grid", "d", int, required=True)
    n = _get(cp, "grid", "n", int, required=True)
    L = _get(cp, "grid", "L", float, required=True)
    # volumes, weights and |xi|^2 are powers of L and h = L / n up to the 2d-th; this rule
    # runs before make_grid, whose own check of L names no rule (a bad d or n is left to it)
    if d in (1, 2, 3) and n > 0 and not (_in_range(L, 2 * d) and _in_range(L / n, 2 * d)):
        raise ValidationError(f"bad config value [grid] L = {L!r}: L^(2d) and (L/n)^(2d) and "
                              "their inverses must be finite and nonzero")
    return make_grid(d, n, L)


def _family_from_config(cp, section: str) -> SubgaussianFamily:
    kind = _get(cp, section, "kind", str, default="gaussian")
    seed = _get(cp, section, "seed", int, required=True)
    param = _get(cp, section, "param", float, default=1.0)
    return SubgaussianFamily(kind, seed=seed, param=param)


def _background_from_config(cp):
    grid = _grid_from_config(cp)
    f = _get(cp, "background", "f", str, default="gaussian")
    w = _get(cp, "background", "w", str, default="delta")
    f_scale = _get(cp, "background", "f_scale", float, default=1.0)
    w_scale = _get(cp, "background", "w_scale", float, default=1.0)
    return make_background(grid, f, w, f_scale=f_scale, w_scale=w_scale)


def _initial_operator(cp, grid):
    kind = _get(cp, "initial", "kind", str, default="random")
    rank = _get(cp, "initial", "rank", int, default=4)
    seed = _get(cp, "initial", "seed", int, default=0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0x1D,)))
    if kind == "random":
        return random_low_rank(grid, rank, rng, hermitian=True)
    if kind == "localized":
        width = _get(cp, "initial", "width", float, default=1.5)
        if not _in_range(width, 2):
            raise ValidationError(f"bad config value [initial] width = {width!r}: width^2 and "
                                  "its inverse must be finite and nonzero")
        return localized_low_rank(grid, rank, rng, width=width)
    raise ValidationError(f"unknown initial data kind {kind!r}")


# ---------------------------------------------------------------------------
# output plumbing


def _openblas_core():
    """The kernel the loaded OpenBLAS runs (e.g. "SkylakeX"), or None without one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for handle in map(ctypes.CDLL, libs):
            for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                        "openblas_get_corename"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    return fn().decode()
    except OSError:  # no /proc/self/maps (not Linux), or a library that does not load
        pass
    return None


def _env_fingerprint() -> dict:
    """Interpreter, numpy and BLAS build, BLAS kernel and core counts of the running host.

    ``cores`` counts the host's cores, ``usable_cores`` those this process may run
    on (its affinity set), which bound the threads of every threaded path.

    The last bit of a BLAS reduction depends on the kernel the BLAS picks for
    the CPU (``blas.core``, not the build string), so a byte mismatch between
    two hosts' outputs is traced from here.
    """
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas") or {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
        | {"core": _openblas_core()},
        "cores": os.cpu_count(),
        "usable_cores": _usable_cores(),
    }


def _write_record(out_dir: str, command: str, config: dict, seed, outputs: list,
                  t0: float, extra: dict) -> str:
    rec = {
        "command": command,
        "config": config,
        "env": _env_fingerprint(),
        "master_seed": seed,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 6),
        "outputs": outputs,
        "status": "ok",
    } | extra
    # Strict JSON, serialised before the file is opened: a NaN that got past validation
    # fails the run (exit 1) and leaves no half-written record.
    text = json.dumps(rec, indent=2, sort_keys=True, allow_nan=False)
    path = os.path.join(out_dir, "record.json")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _table(header: list, rows: list, grid, dt, T, seed):
    """write(path) of one hartree table; every row ends with the run's provenance."""
    prov = [f"d{grid.d}n{grid.n}L{grid.L:g}", repr(float(dt)), repr(float(T)), seed]
    return lambda path: _write_csv(path, header + ["grid", "dt", "T", "seed"],
                                   [row + prov for row in rows])


# ---------------------------------------------------------------------------
# subcommands


# the flags each check needs; every one but --s (a fraction) is a positive exponent
_CHECK_FLAGS = {
    "region": ("p", "q"),
    "exponents": ("p", "q"),
    "full": ("p", "q", "q_hat", "r"),
    "sobolev": ("p", "q", "alpha", "s"),
}


def _cmd_check(args) -> int:
    if args.d not in (1, 2, 3):
        raise ValidationError(f"--d must be 1, 2 or 3, got {args.d}")
    needed = _CHECK_FLAGS[args.what]
    flags = [f"--{name.replace('_', '-')}" for name in needed]
    for name, flag in zip(needed, flags):
        value = getattr(args, name)
        if value is None:
            raise ValidationError(f"check {args.what} needs {', '.join(flags)}; {flag} is missing")
        if name != "s" and not (0 < value < math.inf):
            raise ValidationError(f"{flag} must be finite and positive, got {float(value)}")
    if args.what == "region":
        sigma = Fraction(args.sigma).limit_denominator(10**12)
        region = ExponentRegion(args.d, sigma)
        pt = (Fraction(1, 1) / Fraction(args.q).limit_denominator(10**12),
              Fraction(1, 1) / Fraction(args.p).limit_denominator(10**12))
        verdict = region_membership(pt, region)
        print(f"region d={args.d} sigma={sigma}: (1/q, 1/p) = ({pt[0]}, {pt[1]}) -> {verdict}")
        return EXIT_OK  # every verdict, "outside" included, is an answer
    if args.what == "exponents":
        sigma = Fraction(args.sigma).limit_denominator(10**12)
        alpha, r_min = singular_estimate_exponents(args.p, args.q, sigma, args.d)
        beta = None
        try:
            beta = deterministic_sharp_alpha(args.q, args.d)
        except ValueError:
            pass
        print(f"alpha = {alpha} (= {float(alpha):g}), minimal moment order r = {r_min}")
        if beta is not None:
            print(f"deterministic sharp exponent 2q/(q+1) = {beta} (= {float(beta):g})")
        return EXIT_OK
    if args.what == "full":
        full_estimate_check(args.p, args.q, args.q_hat, args.r, args.d)
        print("full-randomization exponents admissible")
        return EXIT_OK
    rep = sobolev_admissible(args.p, args.q, args.alpha, args.s, args.d)
    print(f"scaling_ok={rep.scaling_ok} trace_condition_ok={rep.trace_condition_ok} "
          f"strict_alpha_ok={rep.strict_alpha_ok} admissible={rep.admissible}")
    return EXIT_OK


def _experiment(args, body) -> int:
    """The one flow of every experiment command: a config in, CSV tables and one record out.

    ``body(cp, args)`` reads its keys and calls the library.  It returns the
    command name, the master seed, its tables as ``(file name, write)`` pairs
    (``write(path)`` writes one table), the record's own fields and the summary
    line.  The tables are written in order into ``--out``, then the record.
    """
    t0 = time.time()
    cp = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    command, seed, tables, extra, summary = body(cp, args)
    outputs = []
    for name, write in tables:
        outputs.append(os.path.join(args.out, name))
        write(outputs[-1])
    rec = _write_record(args.out, command, _cfg_dict(cp), seed, outputs, t0, extra)
    print(summary)
    print(f"wrote {', '.join(outputs + [rec])}")
    return EXIT_OK


def _strichartz(cp, args):
    grid = _grid_from_config(cp)
    common = dict(d=grid.d, n=grid.n, L=grid.L,
                  M=_get(cp, "experiment", "m", int, required=True),
                  orders=_get(cp, "experiment", "orders", _orders, required=True),
                  T=_get(cp, "experiment", "t", float, default=0.5),
                  n_frames=_get(cp, "experiment", "n_frames", int, default=17),
                  p=_get(cp, "experiment", "p", _float_or_inf, required=True),
                  q=_get(cp, "experiment", "q", _float_or_inf, required=True))
    if args.kind == "singular":
        family = _family_from_config(cp, "randomization")
        table = singular_moment_experiment(
            rank=_get(cp, "experiment", "rank", int, required=True),
            sigma=_get(cp, "experiment", "sigma", float, default=0.0), family=family,
            op_seed=_get(cp, "experiment", "op_seed", int, default=2024), **common)
    elif args.kind == "full":
        family = _family_from_config(cp, "randomization_g")
        table = full_moment_experiment(
            family_g=family, family_ell=_family_from_config(cp, "randomization_ell"),
            rank=_get(cp, "experiment", "rank", int, required=True),
            q_hat=_get(cp, "experiment", "q_hat", _float_or_inf, required=True),
            op_seed=_get(cp, "experiment", "op_seed", int, default=2024), **common)
    else:
        family = _family_from_config(cp, "randomization")
        table = function_moment_experiment(
            q_hat=_get(cp, "experiment", "q_hat", _float_or_inf, required=True),
            family=family, **common)
    fit = fit_moment_slope(table)
    return (f"strichartz {args.kind}", family.seed, [("moments.csv", table.to_csv)],
            {"slope": fit.slope, "slope_ci": [fit.ci_low, fit.ci_high], "meta": table.meta},
            f"slope = {fit.slope:.4f}  95% CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}]")


def _hartree(cp, args):
    bg = _background_from_config(cp)
    grid = bg.grid
    Q0 = _initial_operator(cp, grid)
    seed = _get(cp, "initial", "seed", int, default=0)
    T = _get(cp, "run", "t", float, required=True)
    dt = _get(cp, "run", "dt", float, required=True)

    if args.action == "solve":
        scheme = _get(cp, "run", "scheme", str, default=f"d{grid.d}")
        tol = _get(cp, "run", "tol", float, default=1e-9)
        use_oracle = _get(cp, "run", "oracle", str, default="no") == "yes"
        run = (dense_rk4_oracle(Q0, bg, T, dt) if use_oracle
               else picard_solve(Q0, bg, T, dt, tol=tol, scheme=scheme))
        prov = (run.grid, run.dt, run.T, seed)
        rows = [[repr(float(t)), repr(float(s2)), repr(float(lebesgue_norm(r, 2)))]
                for t, s2, r in zip(run.times, run.s2_norms(), run.rho_frames)]
        tables = [("trajectory.csv", _table(["t", "q_s2", "rho_l2"], rows, *prov))]
        extra = {"achieved_T": run.T, "scheme": run.scheme, "meta": run.meta}
        if use_oracle:
            # the oracle integrates directly: no sweeps, no ball radius, no data norm
            summary = f"with the {run.meta['integrator']} integrator"
        else:
            rows = [[i, repr(float(dlt))] for i, dlt in enumerate(run.contraction_history)]
            tables.append(("contraction.csv", _table(["sweep", "delta"], rows, *prov)))
            extra.update(R=run.R, data_norm=run.data_norm)
            summary = f"after {len(run.contraction_history)} sweeps"
        return "hartree solve", seed, tables, extra, f"achieved T = {run.T:g} {summary}"

    c0 = _get(cp, "run", "c0", float, default=None)
    if args.action == "linearized":
        lin = linearized_solve(Q0, bg, T, dt, c0=c0)
        rows = [[repr(float(t)), repr(float(lebesgue_norm(r, 2)))]
                for t, r in zip(lin.times, lin.rho_frames)]
        return ("hartree linearized", seed,
                [("density.csv", _table(["t", "rho_l2"], rows, grid, dt, T, seed))],
                {"residual": lin.residual, "c0": lin.c0, "meta": {"workers": lin.workers}},
                f"residual = {lin.residual:.3e}, c0 = {lin.c0:.12g}")

    # scatter
    rep = scattering_diagnostic(Q0, bg, T, dt, c0=c0,
                                n_rungs=_get(cp, "run", "n_rungs", int, default=4))
    rows = [[repr(float(t)), repr(float(dist))]
            for t, dist in zip(rep.checkpoint_times[1:], rep.distances)]
    return ("hartree scatter", seed,
            [("ladder.csv", _table(["t", "distance"], rows, grid, dt, T, seed))],
            {"alpha": rep.alpha, "verdict": rep.verdict,
             "cauchy_consistent": rep.cauchy_consistent, "meta": {"workers": rep.workers}},
            f"{rep.verdict}; distances: {[float(x) for x in rep.distances]}")


def _calibrate(cp, args):
    bg = _background_from_config(cp)
    keys = dict(n_frames=_get(cp, "run", "n_frames", int, default=9),
                dt=_get(cp, "run", "dt", float, default=0.05),
                n_probes=_get(cp, "run", "n_probes", int, default=4),
                seed=_get(cp, "run", "seed", int, default=3))
    cal = calibrate_l1_constant(bg, **keys)
    return ("calibrate-l1", keys["seed"], [],
            {"c0": cal.c0, "residual": cal.residual, "imag": cal.imag},
            f"c0 = {cal.c0:.12g}  residual = {cal.residual:.3e}  imag = {cal.imag:.3e}")


def _cmd_report(args) -> int:
    rows = []
    for path in args.records:
        try:
            with open(path) as fh:
                rec = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ValidationError(f"malformed record {path}: {e}") from e
        cmd = rec.get("command", "?")
        row = {"record": path, "command": cmd, "status": rec.get("status", "?"),
               "wall_time_s": rec.get("wall_time_s", "")}
        if cmd.startswith("strichartz"):
            row["slope"] = rec.get("slope", "")
            # recompute from the raw table for consistency; a record names its outputs
            # from the writer's directory, and they sit next to it
            for out in rec.get("outputs", []):
                if out.endswith("moments.csv"):
                    table = os.path.join(os.path.dirname(path), os.path.basename(out))
                    try:
                        with open(table) as fh:
                            pts = [(float(r["r"]), float(r["value"])) for r in csv.DictReader(fh)]
                    except (OSError, KeyError, ValueError) as e:
                        raise ValidationError(f"unreadable output {table}: {e!r}") from e
                    row["slope_recomputed"] = _loglog_slope(*zip(*pts))[0]
        elif cmd.startswith("hartree solve"):
            row["achieved_T"] = rec.get("achieved_T", "")
            row["R"] = rec.get("R", "")
        elif cmd.startswith("hartree linearized") or cmd == "calibrate-l1":
            row["residual"] = rec.get("residual", "")
            row["c0"] = rec.get("c0", "")
        elif cmd.startswith("hartree scatter"):
            row["verdict"] = rec.get("verdict", "")
        rows.append(row)
    keys = ["record", "command", "status", "wall_time_s", "slope", "slope_recomputed",
            "achieved_T", "R", "residual", "c0", "verdict"]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=keys)
            wr.writeheader()
            wr.writerows(rows)
        print(f"wrote {args.out}")
    for row in rows:
        print("  ".join(f"{k}={row[k]}" for k in keys if row.get(k, "") != ""))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hartreelab")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    chk = sub.add_parser("check", help="exponent arithmetic")
    chk.add_argument("what", choices=["region", "exponents", "full", "sobolev"])
    chk.add_argument("--d", type=int, required=True)
    chk.add_argument("--sigma", type=str, default="0")
    chk.add_argument("--p", type=_exponent, default=None)
    chk.add_argument("--q", type=_exponent, default=None)
    chk.add_argument("--q-hat", dest="q_hat", type=_exponent, default=None)
    chk.add_argument("--r", type=_exponent, default=None)
    chk.add_argument("--alpha", type=_exponent, default=None)
    chk.add_argument("--s", type=str, default=None)
    chk.set_defaults(command=_cmd_check)

    st = sub.add_parser("strichartz", help="moment-growth Monte Carlo")
    st.add_argument("kind", choices=["singular", "full", "function"])
    ha = sub.add_parser("hartree", help="Hartree solver experiments")
    ha.add_argument("action", choices=["solve", "linearized", "scatter"])
    cal = sub.add_parser("calibrate-l1", help="fit the response-kernel constant")
    for exp, body in ((st, _strichartz), (ha, _hartree), (cal, _calibrate)):
        exp.add_argument("--config", required=True)
        exp.add_argument("--out", required=True)
        exp.set_defaults(command=functools.partial(_experiment, body=body))

    rep = sub.add_parser("report", help="aggregate run records")
    rep.add_argument("records", nargs="+")
    rep.add_argument("--out", default=None)
    rep.set_defaults(command=_cmd_report)
    return ap


def run(argv=None) -> int:
    """Parse and execute; returns the exit code (0 ok, 1 validation, 2 numeric)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        return args.command(args)
    except (ValidationError, ValueError, OSError) as e:  # OSError: an unwritable output
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except RuntimeError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:  # past the size rule, e.g. under an address-space limit
        print(f"out of memory: {e}", file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
