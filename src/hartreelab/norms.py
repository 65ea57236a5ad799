"""Space-time mixed norms, trajectories, and ensemble moment estimation.

Time integrals use trapezoidal quadrature on a uniform step throughout,
matching the O(dt^2) tolerances used by the experiments.  L^infinity norms
are exact maxima over grid points / frames.  Ensemble reductions rely on
numpy's pairwise summation, so results are independent of worker count.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Grid
from .linop import LowRankOperator, _free_frames, conjugate_free, density

__all__ = [
    "Trajectory",
    "MomentTable",
    "lebesgue_norm",
    "mixed_norm",
    "density_trajectory",
    "empirical_moment",
    "trapezoid_weights",
]


def lebesgue_norm(u: Field, q: float) -> float:
    """Discrete L^q norm (h^d sum |u|^q)^{1/q}; max for q = infinity."""
    if q < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {q}")
    a = np.abs(u.values)
    if np.isinf(q):
        return float(np.max(a))
    g = u.grid
    return float((g.h**g.d * np.sum(a**q)) ** (1.0 / q))


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two time nodes")
    dt = times[1] - times[0]
    w = np.full(len(times), dt)
    w[0] = w[-1] = dt / 2
    return w


@dataclass
class Trajectory:
    """Uniformly-sampled time sequence of fields or operators."""

    times: np.ndarray
    frames: list

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.frames):
            raise ValueError("times and frames must have equal length")
        if len(self.times) >= 3:
            steps = np.diff(self.times)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("time step must be uniform")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])

    def quadrature(self) -> np.ndarray:
        return trapezoid_weights(self.times)


def mixed_norm(tr: Trajectory, p: float, q: float) -> float:
    """L^p in time of the L^q space norm, trapezoidal in time."""
    if p < 1 or q < 1:
        raise ValueError("mixed-norm exponents must be >= 1")
    if len(tr.frames) < 3:
        raise ValueError("need at least 3 frames for a mixed norm")
    vals = np.array([lebesgue_norm(u, q) for u in tr.frames])
    if np.isinf(p):
        return float(np.max(vals))
    w = tr.quadrature()
    return float(np.sum(w * vals**p) ** (1.0 / p))


def density_trajectory(A, times) -> Trajectory:
    """Frames rho(U(t) A U(-t)), equal bit for bit to density(conjugate_free(A, t)).

    A low-rank operator of rank > 0 propagates its factors only, through the
    batched free flow _free_frames (one forward transform, one batched inverse
    per chunk of frames); dense and rank-0 operators go frame by frame.
    """
    times = np.asarray(times, dtype=float)
    if not isinstance(A, LowRankOperator) or A.rank == 0:
        return Trajectory(times, [density(conjugate_free(A, t)) for t in times])
    frames = [density(LowRankOperator(A.grid, A.coeffs, lt, rt))
              for left, right in _free_frames(A, times) for lt, rt in zip(left, right)]
    return Trajectory(times, frames)


def _check_finite_rows(path, header: list, rows: list):
    """Refuse, before path is written, a CSV row holding a non-finite number.

    A cell is a number if float() reads it (labels are not); the RuntimeError
    names the file, the column and the 1-based data row.
    """
    for i, row in enumerate(rows, start=1):
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(value):
                raise RuntimeError(f"{path}: column {name!r} of row {i} is {value!r}, not finite")


# resamples of every bootstrap: moment standard errors and slope intervals
_BOOTSTRAP_DRAWS = 200


def empirical_moment(samples: np.ndarray, r: float,
                     rng: np.random.Generator | None = None) -> tuple:
    """((1/M) sum X^r)^{1/r} with a bootstrap standard error."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("empty sample set")
    if not np.isfinite(r) or r < 1:
        raise ValueError("moment order must be finite and >= 1")
    value = float(np.mean(samples**r) ** (1.0 / r))
    if rng is None:
        rng = np.random.default_rng(0)
    M = len(samples)
    idx = rng.integers(0, M, size=(_BOOTSTRAP_DRAWS, M))
    boot = np.mean(samples[idx] ** r, axis=1) ** (1.0 / r)
    return value, float(np.std(boot))


@dataclass
class MomentTable:
    """Empirical L^r moment curve of an ensemble of nonnegative statistics."""

    orders: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    n_samples: int
    seed: int
    samples: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_samples(cls, samples, orders, seed: int, meta=None):
        samples = np.asarray(samples, dtype=float)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB00,)))
        vals, errs = [], []
        for r in orders:
            v, e = empirical_moment(samples, r, rng=rng)
            vals.append(v)
            errs.append(e)
        return cls(
            orders=np.asarray(orders, dtype=float),
            values=np.array(vals),
            stderrs=np.array(errs),
            n_samples=len(samples),
            seed=seed,
            samples=samples,
            meta=dict(meta or {}),
        )

    def check_monotone(self, slack: float = 2.0) -> bool:
        """L^r monotonicity in r, up to slack * stderr."""
        v, e = self.values, self.stderrs
        return bool(np.all(v[1:] >= v[:-1] - slack * (e[1:] + e[:-1])))

    def to_csv(self, path):
        header = ["r", "value", "stderr", "M", "seed"]
        rows = [[repr(float(r)), repr(float(v)), repr(float(e)), self.n_samples, self.seed]
                for r, v, e in zip(self.orders, self.values, self.stderrs)]
        _check_finite_rows(path, header, rows)
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(header)
            wr.writerows(rows)
