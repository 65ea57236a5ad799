"""Span tracing of the package's layers, wrapped from outside the package.

The tracer rebinds the attributes that callers resolve at call time: a
function imported by name into several modules (``recompress`` lives in
``linop`` and is imported into ``hartree``, ``montecarlo`` and
``randomize``) is rebound in every ``hartreelab`` module that holds it, and
``numpy.fft.fftn`` / ``ifftn`` are rebound on ``numpy.fft``, which the
package looks up on every call.  Each call records a span (name, start,
end, parent, task) in memory; a layer's self time is its duration minus
the time its child spans cover.  ``Tracer.restore`` puts every original
back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _package_modules() -> list:
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "hartreelab" or k.startswith("hartreelab."))]


def _resolve(owner: str, attr: str):
    """(holder, name, original) for 'module' + 'attr' or 'Class.attr', or None."""
    holder = importlib.import_module(owner)
    *path, name = attr.split(".")
    for part in path:
        holder = getattr(holder, part)
    raw = vars(holder).get(name) if path else getattr(holder, name, None)
    return None if raw is None else (holder, name, raw)


def rebind(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` wherever the package binds it; returns an undo function.

    ``owner`` is a module (or module name); the wrapper sees the original
    function.  Module functions are rebound in every ``hartreelab`` module
    that holds the same object, and on ``owner`` itself.
    """
    owner_name = owner if isinstance(owner, str) else owner.__name__
    found = _resolve(owner_name, attr)
    if found is None:
        raise AttributeError(f"{owner_name}.{attr} not found")
    holder, name, original = found
    undo = []
    if isinstance(original, classmethod):
        setattr(holder, name, classmethod(make_wrapper(original.__func__)))
        undo.append((holder, name, original))
    elif "." in attr:  # a method on a class
        setattr(holder, name, make_wrapper(original))
        undo.append((holder, name, original))
    else:
        wrapper = make_wrapper(original)
        targets = {id(holder): holder}
        targets.update({id(m): m for m in _package_modules()})
        for mod in targets.values():
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))

    def restore():
        for mod, key, value in reversed(undo):
            setattr(mod, key, value)
    return restore


def bindings() -> dict:
    """Identity of every binding the tracer may touch, to check that it restored them."""
    out = {(mod.__name__, key): id(value)
           for mod in _package_modules() for key, value in vars(mod).items()}
    for owner, attr, _name in LAYER_POINTS:
        found = _resolve(owner, attr)
        if found is not None:
            out[(owner, attr)] = id(found[2])
    return out


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


L1_CACHE = "hartreelab.hartree._L1_CACHE"  # counts hartree.l1_stack_builds

# (module, attribute, span name). Several attributes may share one span name.
LAYER_POINTS = (
    ("numpy.fft", "fftn", "grid.fft"),
    ("numpy.fft", "ifftn", "grid.fft"),
    ("hartreelab.hartree", "_kernel_free_conj", "hartree.free_conj"),
    ("hartreelab.hartree", "picard_solve", "hartree.solver"),
    ("hartreelab.hartree", "scattering_diagnostic", "hartree.solver"),
    ("hartreelab.hartree", "linearized_solve", "hartree.solver"),
    ("hartreelab.hartree", "_potential_field", "hartree.potential"),
    ("hartreelab.hartree", "calibrate_l1_constant", "hartree.calibrate"),
    ("hartreelab.hartree", "l1_apply_direct", "hartree.l1_direct"),
    ("hartreelab.hartree", "_l1_kernel_stack", "hartree.l1_stack"),
    ("hartreelab.hartree", "_march_density", "hartree.march"),
    ("hartreelab.hartree", "_l1_convolve", "hartree.convolve"),
    ("hartreelab.hartree", "l1_apply_fourier", "hartree.convolve"),
    ("hartreelab.linop", "schatten_norm", "linop.schatten"),
    ("hartreelab.linop", "recompress", "linop.recompress"),
    ("hartreelab.linop", "_apply_multiplier_stack", "linop.multiplier_stack"),
    ("hartreelab.linop", "to_dense", "linop.to_dense"),
    ("hartreelab.randomize", "sample_coefficients", "randomize.sample"),
    ("hartreelab.randomize", "sobolev_conjugated_randomize", "randomize.randomize"),
    ("hartreelab.norms", "density_trajectory", "norms.density_trajectory"),
    ("hartreelab.norms", "mixed_norm", "norms.mixed_norm"),
    ("hartreelab.norms", "MomentTable.from_samples", "norms.moment_table"),
    ("hartreelab.montecarlo", "_mixed_norm_batch", "montecarlo.mixed_norm_batch"),
    ("hartreelab.montecarlo", "fit_moment_slope", "montecarlo.fit"),
    ("hartreelab.montecarlo", "singular_moment_experiment", "montecarlo.experiment"),
    ("hartreelab.montecarlo", "full_moment_experiment", "montecarlo.experiment"),
    ("hartreelab.montecarlo", "function_moment_experiment", "montecarlo.experiment"),
    ("hartreelab.cli", "_load_config", "cli.config"),
    ("hartreelab.cli", "_write_csv", "cli.output"),
    ("hartreelab.cli", "_write_record", "cli.output"),
    ("hartreelab.norms", "MomentTable.to_csv", "cli.output"),
)


class Tracer:
    """Records spans at the layer entry points while installed."""

    def __init__(self):
        self.spans = []  # [task, name, start, end, parent index, self time]
        self.counts = defaultdict(int)
        self.missing = []  # entry points (or the L1 cache) absent from the package
        self.task = 0
        self._stack = []  # open span indices
        self._child = []  # time covered by children, per span index
        self._undo = []

    def _hooks(self) -> dict:
        """Counters per entry point: hook(args, kwargs) runs before the call and
        returns None or a function that receives the call's result."""
        c = self.counts

        def fft(args, kwargs):
            c["grid.fft_points"] += int(getattr(args[0] if args else kwargs["a"], "size", 0))

        def picard(args, kwargs):
            def count(run):
                meta = getattr(run, "meta", None) or {}
                c["hartree.picard_sweeps"] += int(meta.get("sweeps", 0))
                c["hartree.picard_halvings"] += int(meta.get("halvings", 0))
            return count

        def l1_stack(args, kwargs):
            # A build is counted when the module-level kernel cache grows.  Without
            # that cache the count cannot be made: report it missing, not as 0 builds.
            cache = getattr(sys.modules["hartreelab.hartree"], "_L1_CACHE", None)
            if not isinstance(cache, dict):
                if L1_CACHE not in self.missing:
                    self.missing.append(L1_CACHE)
                return None
            size = len(cache)

            def count(result):
                c["hartree.l1_stack_builds" if len(cache) > size
                  else "hartree.l1_stack_hits"] += 1
            return count

        def written(path):
            def count(result):
                c["cli.output_bytes"] += _file_size(result if path is None else path)
            return count

        return {
            "fftn": fft, "ifftn": fft, "picard_solve": picard, "_l1_kernel_stack": l1_stack,
            "_write_csv": lambda args, kwargs: written(args[0]),
            "_write_record": lambda args, kwargs: written(None),  # returns the path
            "MomentTable.to_csv": lambda args, kwargs: written(args[1]),
        }

    def _make(self, name, hook):
        def make_wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                after = hook(args, kwargs) if hook else None
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if after:
                    after(result)
                return result
            return traced
        return make_wrapper

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.task, name, time.perf_counter(), 0.0, parent, 0.0])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[3] = end
        dur = end - span[2]
        span[5] = dur - self._child[idx]
        self._stack.pop()
        if span[4] >= 0:
            self._child[span[4]] += dur

    def install(self):
        hooks = self._hooks()
        for owner, attr, name in LAYER_POINTS:
            try:
                undo = rebind(owner, attr, self._make(name, hooks.get(attr)))
            except AttributeError:
                self.missing.append(f"{owner}.{attr}")
                continue
            self._undo.append(undo)

    def restore(self):
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextlib.contextmanager
    def task_span(self, label: str):
        """Groups the spans of one round under a root span with a new task id."""
        self.task += 1
        idx = self._open(f"round:{label}")
        try:
            yield
        finally:
            self._close(idx)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for _task, name, start, end, _parent, self_s in self.spans:
            t = out[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += self_s
        return dict(out)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, as (value, unit) pairs."""
        tot = self.totals()
        c = self.counts

        def calls(n):
            return (tot.get(n, {}).get("calls", 0), "count")

        def secs(n, key="s"):
            return (tot.get(n, {}).get(key, 0.0), "s")

        stack_calls = c["hartree.l1_stack_builds"] + c["hartree.l1_stack_hits"]
        return {
            "grid.fft_calls": calls("grid.fft"),
            "grid.fft_points": (c["grid.fft_points"], "count"),
            "grid.fft_s": secs("grid.fft"),
            "hartree.free_conj_calls": calls("hartree.free_conj"),
            "hartree.free_conj_s": secs("hartree.free_conj"),
            "hartree.picard_sweeps": (c["hartree.picard_sweeps"], "count"),
            "hartree.picard_halvings": (c["hartree.picard_halvings"], "count"),
            "hartree.potential_s": secs("hartree.potential"),
            "hartree.calibrate_s": secs("hartree.calibrate"),
            "hartree.l1_direct_calls": calls("hartree.l1_direct"),
            "hartree.l1_stack_s": secs("hartree.l1_stack"),
            "hartree.l1_stack_builds": (c["hartree.l1_stack_builds"], "count"),
            "hartree.l1_stack_hit_ratio": (
                c["hartree.l1_stack_hits"] / stack_calls if stack_calls else 0.0, "ratio"),
            "hartree.march_s": secs("hartree.march"),
            "hartree.convolve_s": secs("hartree.convolve"),
            "hartree.solver_self_s": secs("hartree.solver", "self_s"),
            "linop.schatten_s": secs("linop.schatten"),
            "linop.recompress_calls": calls("linop.recompress"),
            "linop.recompress_s": secs("linop.recompress"),
            "linop.multiplier_stack_s": secs("linop.multiplier_stack"),
            "linop.to_dense_s": secs("linop.to_dense"),
            "randomize.draws": calls("randomize.sample"),
            "randomize.sample_s": secs("randomize.sample"),
            "randomize.randomize_s": secs("randomize.randomize"),
            "norms.density_trajectory_s": secs("norms.density_trajectory"),
            "norms.mixed_norm_s": secs("norms.mixed_norm"),
            "norms.moment_table_s": secs("norms.moment_table"),
            "montecarlo.mixed_norm_batch_s": secs("montecarlo.mixed_norm_batch"),
            "montecarlo.fit_s": secs("montecarlo.fit"),
            "montecarlo.experiment_self_s": secs("montecarlo.experiment", "self_s"),
            "cli.config_s": secs("cli.config"),
            "cli.output_s": secs("cli.output"),
            "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        }
