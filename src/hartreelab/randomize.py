"""Subgaussian coefficient samplers and randomizations of fields and operators.

Three randomizations are provided:

* singular-value randomization: multiply each singular value of a compact
  operator by an independent mean-zero subgaussian draw;
* Wiener randomization: multiply each unit-scale frequency block of a
  function by an independent subgaussian draw;
* full randomization: Wiener-randomize the singular vectors (one shared
  frequency-weight draw conjugating the operator) and randomize the
  singular values simultaneously.

The unit-cell partition is fixed by the grid; PartitionOfUnity.weight, the one
sum over its cells, forms sum_k l_k chi_k axis by axis from one hat matrix.

Draws are counter-based: sample streams are derived from a 64-bit master
seed and an integer stream id, so ensembles parallelize with no ordering
dependence and replay bit-identically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .grid import Field, FourierMultiplier, Grid, apply_multiplier, bessel_multiplier
from .linop import LowRankOperator, _conjugate_multiplier, recompress

__all__ = [
    "SubgaussianFamily",
    "PartitionOfUnity",
    "sample_coefficients",
    "unit_projection",
    "wiener_weight",
    "wiener_randomize",
    "singular_value_randomize",
    "full_randomize",
    "sobolev_conjugated_randomize",
]

_KINDS = ("gaussian", "rademacher", "uniform", "degenerate")


@dataclass(frozen=True)
class SubgaussianFamily:
    """Family of independent mean-zero real draws with a subgaussian mgf bound.

    kind='gaussian' with variance param, 'rademacher' (+-1), 'uniform' on
    [-param, param], or 'degenerate' (constant 1; no randomness, used for
    collapse checks).  The moment-generating bound E e^{zeta X} <= e^{C zeta^2}
    holds with C = subgaussian_constant.  param must be finite and positive for
    every kind, since every record carries it.
    """

    kind: str
    seed: int
    param: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not (math.isfinite(self.param) and self.param > 0):
            raise ValueError(f"family parameter must be finite and positive, got {self.param}")

    @property
    def subgaussian_constant(self) -> float:
        if self.kind == "gaussian":
            return self.param / 2.0  # param is the variance
        if self.kind == "rademacher":
            return 0.5
        if self.kind == "uniform":
            return self.param**2 / 2.0
        return 0.0

    def to_record(self) -> dict:
        """Serialization for result records (replayability)."""
        return {"kind": self.kind, "seed": self.seed, "param": self.param}


def _stream_rng(seed: int, stream_id: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


def sample_coefficients(family: SubgaussianFamily, count: int, stream_id: int = 0) -> np.ndarray:
    """Reproducible draws for (family.seed, stream_id); independent across streams."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = _stream_rng(family.seed, stream_id)
    if family.kind == "gaussian":
        return np.sqrt(family.param) * rng.standard_normal(count)
    if family.kind == "rademacher":
        return 2.0 * rng.integers(0, 2, size=count) - 1.0
    if family.kind == "uniform":
        return rng.uniform(-family.param, family.param, size=count)
    return np.ones(count)


def _hat(s: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, 1.0 - np.abs(s))


@dataclass
class PartitionOfUnity:
    """Unit-scale partition of frequency space by translated hat bumps.

    chi_k(xi) = prod_axis hat(xi_axis - k_axis) with hat the piecewise-linear
    bump supported on [-1, 1]; sum_k chi_k == 1 exactly at every frequency.
    cells lists the integer offsets whose bump meets the grid's frequency
    lattice, row-major over the per-axis offsets whose bumps are the rows of hats.
    """

    grid: Grid
    cells: list = field(init=False)
    hats: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.grid.L < 2 * np.pi:
            raise ValueError("grid too coarse for unit cells: need L >= 2*pi")
        xi = self.grid.xi_axis
        lo, hi = int(np.floor(xi.min())), int(np.ceil(xi.max()))
        axis_ks = [k for k in range(lo - 1, hi + 2) if np.any(_hat(xi - k) > 0)]
        self.cells = sorted(itertools.product(axis_ks, repeat=self.grid.d))
        self.hats = np.array([_hat(xi - k) for k in axis_ks])

    def cell_symbol(self, k: tuple) -> np.ndarray:
        """chi_k on the frequency mesh: the outer product of its per-axis hats."""
        return reduce(np.multiply.outer, [_hat(self.grid.xi_axis - ka) for ka in k])

    def weight(self, ells: np.ndarray) -> np.ndarray:
        """sum_k ells[..., k] chi_k for ells of shape (..., cells), contracted axis by axis."""
        lead = ells.ndim - 1
        w = ells.reshape(ells.shape[:-1] + (len(self.hats),) * self.grid.d)
        for _ in range(self.grid.d):
            w = np.tensordot(w, self.hats, axes=(lead, 0))
        return w


def unit_projection(u: Field, k: tuple) -> Field:
    """Frequency-block projection Pi_k u."""
    pou = PartitionOfUnity(u.grid)
    k = tuple(int(x) for x in np.atleast_1d(k))
    if len(k) != u.grid.d:
        raise ValueError("cell offset dimension mismatch")
    return apply_multiplier(FourierMultiplier(u.grid, pou.cell_symbol(k)), u)


def wiener_weight(family: SubgaussianFamily, grid: Grid, stream_id: int = 0) -> FourierMultiplier:
    """The random frequency weight R(xi) = sum_k l_k chi_k(xi), one draw per cell."""
    pou = PartitionOfUnity(grid)
    ells = sample_coefficients(family, len(pou.cells), stream_id)
    return FourierMultiplier(grid, pou.weight(ells))


def wiener_randomize(u: Field, family: SubgaussianFamily, stream_id: int = 0) -> Field:
    """sum_k l_k Pi_k u, applied as the single multiplier wiener_weight."""
    return apply_multiplier(wiener_weight(family, u.grid, stream_id), u)


def _ensure_svd_form(A: LowRankOperator) -> LowRankOperator:
    """Pass through if already in singular-value form, else recompute it."""
    g = A.grid
    if A.rank == 0:
        return A
    c_ok = np.all(np.isreal(A.coeffs)) and np.all(A.coeffs.real >= 0)
    if c_ok:
        hd = g.h**g.d
        Lm = A.left.reshape(A.rank, -1)
        Rm = A.right.reshape(A.rank, -1)
        gl = hd * (np.conj(Lm) @ Lm.T)
        gr = hd * (np.conj(Rm) @ Rm.T)
        eye = np.eye(A.rank)
        if np.max(np.abs(gl - eye)) < 1e-8 and np.max(np.abs(gr - eye)) < 1e-8:
            return A
    return recompress(A, tol=0.0)


def singular_value_randomize(
    A: LowRankOperator, family: SubgaussianFamily, stream_id: int = 0
) -> LowRankOperator:
    """Multiply each singular value by an independent subgaussian draw."""
    A = _ensure_svd_form(A)
    g = sample_coefficients(family, A.rank, stream_id)
    return LowRankOperator(A.grid, A.coeffs * g, A.left, A.right)


def full_randomize(
    A: LowRankOperator,
    family_g: SubgaussianFamily,
    family_ell: SubgaussianFamily,
    stream_g: int = 0,
    stream_ell: int = 0,
) -> LowRankOperator:
    """R A^omega R with one shared frequency-weight draw on both factor sides."""
    A = singular_value_randomize(A, family_g, stream_g)
    if A.rank == 0:
        return A
    return _conjugate_multiplier(A, wiener_weight(family_ell, A.grid, stream_ell))


def sobolev_conjugated_randomize(
    A: LowRankOperator,
    sigma: float,
    which: str = "singular",
    family_g: SubgaussianFamily | None = None,
    family_ell: SubgaussianFamily | None = None,
    stream_g: int = 0,
    stream_ell: int = 0,
) -> LowRankOperator:
    """Weight by <grad>^sigma, randomize, then undo the weight.

    sigma = 0 reduces exactly to the unweighted randomization.
    """
    if which not in ("singular", "full"):
        raise ValueError("which must be 'singular' or 'full'")
    needed = {"family_g": family_g} | ({"family_ell": family_ell} if which == "full" else {})
    missing = [name for name, value in needed.items() if value is None]
    if missing:
        raise ValueError(f"which = {which!r} needs {' and '.join(missing)}")
    g = A.grid
    if sigma != 0:
        A = _conjugate_multiplier(A, bessel_multiplier(g, sigma))
    if which == "singular":
        out = singular_value_randomize(A, family_g, stream_g)
    else:
        out = full_randomize(A, family_g, family_ell, stream_g, stream_ell)
    if sigma != 0:
        out = _conjugate_multiplier(out, bessel_multiplier(g, -sigma))
    return out
