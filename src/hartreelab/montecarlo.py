"""Monte Carlo moment-growth experiments for randomized space-time densities.

Each experiment draws an ensemble of randomized initial data, evolves it
freely, measures a mixed space-time norm per draw, and returns a MomentTable
whose log-log slope in the moment order r is the observed growth rate.  The
theory gives upper bounds (r^{1/2} for coefficient randomization, r^{3/2}
for the full randomization), so acceptance checks the slope from above only.

Draw m uses sample stream m, and no matrix product takes a single draw
(unless at most two draws fit in memory at once), so sample m has the same
bits in any ensemble of two or more draws.  The time window [0, T] is short
enough that wavepackets stay well inside the periodic box.

Each ensemble runs on one thread per usable core (grid._workers),
with no option to set: numpy's FFT, matmul, einsum and reductions release
the GIL, so the threads overlap.  One core runs inline, with no thread.
The full experiment's W <= n_frames workers take draws i, i + W, ..., each
draw in chunks of frames whose sizes add up to n_frames; the singular and
function experiments' workers take blocks of draws in turn, whose sizes do
not depend on W.  A draw's statistic is the same computation on any worker,
so the tables are identical for any number of workers.  All workers
together hold one draw's transforms (full) or at most one block of draws
of the single-threaded rule (singular, function).

The singular experiment propagates its factors through the batched free
flow (linop._free_frames).  Its mode densities l_n conj(r_n) are real for
Hermitian data, and then each block of draws is one real matrix product (a
non-Hermitian operator keeps the complex product).  The full and function
experiments form their phased transforms once and inverse-transform each
draw's product in place, in buffers they reuse; the full experiment's density
of symmetric factors is a real sum of squares.  The mixed norm takes
integer powers up to 4 by repeated multiplication, over chunks of draws small
enough to stay in cache.  Moments agree with the all-complex evaluation to
rounding (about 1e-15 relative), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .exponents import full_estimate_check, singular_estimate_exponents
from .grid import (
    Field, _check_memory, _in_threads, _workers, bessel_multiplier, free_propagator, make_grid,
)
from .linop import (
    LowRankOperator,
    _CHUNK_ENTRIES,
    _apply_multiplier_stack,
    _conjugate_multiplier,
    _free_frames,
    add,
    conjugate_free,
    random_low_rank,
    recompress,
    schatten_norm,
)
from .norms import _BOOTSTRAP_DRAWS, MomentTable, Trajectory, mixed_norm, trapezoid_weights
from .randomize import PartitionOfUnity, SubgaussianFamily, sample_coefficients

__all__ = [
    "SlopeFit",
    "KeyEstimateResult",
    "fit_moment_slope",
    "singular_moment_experiment",
    "full_moment_experiment",
    "function_moment_experiment",
    "key_estimate_probe",
    "analytic_abs_normal_moment",
    "strichartz_admissible",
]


@dataclass
class SlopeFit:
    """Least-squares slope of log(moment) vs log(r) with a bootstrap 95% CI."""

    slope: float
    intercept: float
    ci_low: float
    ci_high: float


def _loglog_slope(orders: np.ndarray, values: np.ndarray) -> tuple:
    x = np.log(orders)
    y = np.log(values)
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1])


def fit_moment_slope(table: MomentTable) -> SlopeFit:
    """Slope of the moment curve; CI by resampling the raw ensemble.

    Flat (draw-independent) ensembles get slope 0 with a zero-width
    interval, so degenerate analytic cases pass trivially.
    """
    orders = np.asarray(table.orders, dtype=float)
    values = np.asarray(table.values, dtype=float)
    if np.allclose(values, values[0], rtol=1e-12, atol=0.0):
        return SlopeFit(0.0, float(np.log(values[0])) if values[0] > 0 else 0.0, 0.0, 0.0)
    if np.any(values <= 0):
        raise ValueError("moment curve has non-positive entries; slope undefined")
    slope, intercept = _loglog_slope(orders, values)
    if table.samples is None:
        return SlopeFit(slope, intercept, slope, slope)
    samples = np.asarray(table.samples, dtype=float)
    M = len(samples)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=table.seed, spawn_key=(0x510,)))
    boot = np.empty(_BOOTSTRAP_DRAWS)
    for b in range(_BOOTSTRAP_DRAWS):
        s = samples[rng.integers(0, M, size=M)]
        vals = np.array([np.mean(s**r) ** (1.0 / r) for r in orders])
        boot[b], _ = _loglog_slope(orders, vals)
    lo, hi = np.percentile(boot, [2.5, 97.5])
    return SlopeFit(slope, intercept, float(lo), float(hi))


def _space_norms(fields: np.ndarray, hd: float, q, workers: int = 1) -> np.ndarray:
    """L^q_x per draw and frame, shape (M, K), for fields of shape (M, K, *spatial).

    q in {1, 2, 3, 4} takes |a|^q by repeated multiplication in place, which
    is several times cheaper than the general power; other q use a**q.  Draws
    go in chunks of about _CHUNK_ENTRIES / workers entries, so that workers
    running at once hold one chunk together.  Each (draw, frame) sum is its
    own reduction, so any split of the draws or frames gives the same bits.
    """
    M, K = fields.shape[:2]
    fields = fields.reshape(M, K, -1)
    s = np.empty((M, K))
    step = max(1, _CHUNK_ENTRIES // (workers * fields[0].size))
    for i in range(0, M, step):
        rows = slice(i, i + step)
        a = np.abs(fields[rows])
        if np.isinf(q):
            s[rows] = a.max(axis=2)
        elif q in (1, 2, 3, 4):
            aq = a if q == 1 else a * a
            for _ in range(int(q) - 2):
                aq *= a
            s[rows] = np.sum(aq, axis=2)
        else:
            s[rows] = np.sum(a**q, axis=2)
    if not np.isinf(q):
        s = (hd * s) ** (1.0 / q)
    return s


def _time_norms(s: np.ndarray, weights: np.ndarray, p) -> np.ndarray:
    """L^p_t per draw of the (M, K) spatial norms s, with trapezoid weights."""
    if np.isinf(p):
        return s.max(axis=1)
    return np.sum(weights[None, :] * s**p, axis=1) ** (1.0 / p)


def _mixed_norm_batch(fields: np.ndarray, weights: np.ndarray, hd: float, p, q,
                      workers: int = 1) -> np.ndarray:
    """L^p_t L^q_x per draw for fields of shape (M, K, *spatial)."""
    return _time_norms(_space_norms(fields, hd, q, workers), weights, p)


def _check_ensemble(M: int, T: float, orders, n_frames: int, sigma: float = 0.0, **exponents):
    """Input checks shared by the three moment experiments.

    ``exponents`` names the Lebesgue exponents (p, q, q_hat): the exact
    exponent arithmetic (fractions) needs them finite, and a norm needs them
    >= 1.  sigma and the moment orders must be finite too.
    """
    for name, value in dict(exponents, sigma=sigma).items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in exponents.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if M < 1:
        raise ValueError("ensemble size M must be >= 1")
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"time window T must be finite and positive, got {T}")
    if len(orders) == 0:
        raise ValueError("moment orders must be non-empty, got []")
    if not all(math.isfinite(r) for r in orders):
        raise ValueError(f"moment orders must be finite, got {list(orders)}")
    if n_frames < 2:
        raise ValueError(f"n_frames must be >= 2, got {n_frames}")


# a block of draws is split in this many parts, which workers take in turn
_BLOCK_PARTS = 8


def _draw_blocks(M: int, block: int) -> tuple:
    """(W, rows, bounds) for an ensemble that may hold block draws at once: W
    workers take the blocks bounds[j]:bounds[j + 1] of at most rows draws in
    turn, and together hold at most min(block, M) draws.

    A one-row BLAS product (gemv) may give other bits than the same row of a
    multi-row one (gemm), so no block has one draw, unless at most two draws
    fit: blocks have b >= 2 draws and a lone last draw joins the block before.
    The blocks do not depend on W, so the tables are the same for any W.
    """
    held = min(block, M)
    if held < 3:  # no room for a block of b + 1 >= 3 draws
        bounds = list(range(0, M, held)) + [M]
    else:
        bounds = list(range(0, M - 1, max(2, held // _BLOCK_PARTS))) + [M]
    rows = max(b - a for a, b in zip(bounds, bounds[1:]))
    return _workers(held // rows), rows, bounds


def singular_moment_experiment(
    d: int,
    n: int,
    L: float,
    rank: int,
    sigma: float,
    p: float,
    q: float,
    family: SubgaussianFamily,
    M: int,
    orders,
    T: float = 0.5,
    n_frames: int = 17,
    op_seed: int = 2024,
    operator: LowRankOperator | None = None,
) -> MomentTable:
    """Moments of ||<grad>^sigma rho(U(t) A^{omega;sigma} U(-t))||_{L^p_t L^q_x}.

    A^{omega;sigma} is the Sobolev-conjugated coefficient randomization: the
    singular values of <grad>^sigma A <grad>^sigma get independent draws.
    The draw-independent mode densities are precomputed once, so each draw
    costs one small tensor contraction; when the mode densities are real
    (Hermitian data), each block of draws is one real matrix product.
    """
    _check_ensemble(M, T, orders, n_frames, sigma=sigma, p=p, q=q)
    singular_estimate_exponents(p, q, Fraction(sigma).limit_denominator(10**6), d)
    grid = make_grid(d, n, L)
    R = rank if operator is None else operator.rank
    # (n_frames, N) complex stacks: the mode stack, its real copy and the free-flow
    # and draw blocks; tracemalloc peak at most 5.0 and 7.9 stacks at R = 2 and 4 on
    # 1, 2, 3 or 8 workers (d=2, N = 65536, 3 or 10 draws)
    _check_memory(grid, "singular_moment_experiment", stacks=2 * R + 4, frames=n_frames)
    if operator is None:
        op_rng = np.random.default_rng(np.random.SeedSequence(entropy=op_seed, spawn_key=(0xA0,)))
        operator = random_low_rank(grid, rank, op_rng, hermitian=True)
    A = operator
    if sigma != 0:
        A = _conjugate_multiplier(A, bessel_multiplier(grid, sigma))
    A = recompress(A, tol=0.0)
    # the draws rescale A's singular values; the weight is undone on its factors
    B = _conjugate_multiplier(A, bessel_multiplier(grid, -sigma)) if sigma != 0 else A

    times = np.linspace(0.0, T, n_frames)
    modes = np.empty((A.rank, n_frames) + grid.shape, dtype=complex)
    k = 0
    for left, right in _free_frames(B, times):
        # np.multiply, not *: numpy would elide a large conj temporary by multiplying
        # into it in the other operand order, which moves the last bit
        e = np.multiply(left, np.conj(right))
        if sigma != 0:
            e = _apply_multiplier_stack(bessel_multiplier(grid, sigma),
                                        e.reshape((-1,) + grid.shape), grid).reshape(e.shape)
        modes[:, k:k + len(e)] = e.swapaxes(0, 1)
        k += len(e)

    # e_n = l_n conj(r_n) is real to rounding for Hermitian data (imag/real about
    # 1e-15); a non-Hermitian operator keeps its imaginary half
    if np.abs(modes.imag).max(initial=0.0) <= 1e-13 * np.abs(modes.real).max(initial=0.0):
        modes = np.ascontiguousarray(modes.real)
    modes = modes.reshape(A.rank, n_frames * grid.npoints)
    coeffs = A.coeffs.real  # singular values: recompress leaves no imaginary part

    w = trapezoid_weights(times)
    hd = grid.h**grid.d
    samples = np.empty(M)
    W, rows, bounds = _draw_blocks(M, max(1, int(4e6 // (n_frames * grid.npoints))))
    bufs = np.empty((W, rows, modes.shape[1]), dtype=modes.dtype)

    def work(i, halt):  # blocks i, i + W, ...
        for start, stop in zip(bounds[i:-1:W], bounds[i + 1::W]):
            if halt.is_set():
                return
            C = np.array([coeffs * sample_coefficients(family, A.rank, m)
                          for m in range(start, stop)])
            fields = np.matmul(C, modes, out=bufs[i, :stop - start])
            samples[start:stop] = _mixed_norm_batch(
                fields.reshape((stop - start, n_frames) + grid.shape), w, hd, p, q, W)

    _in_threads(W, work)
    meta = {
        "experiment": "singular",
        "d": d, "n": n, "L": L, "rank": A.rank, "sigma": sigma,
        "p": p, "q": q, "T": T, "n_frames": n_frames,
        "family": family.to_record(), "workers": W,
    }
    return MomentTable.from_samples(samples, orders, seed=family.seed, meta=meta)


def full_moment_experiment(
    d: int,
    n: int,
    L: float,
    rank: int,
    p: float,
    q: float,
    q_hat: float,
    family_g: SubgaussianFamily,
    family_ell: SubgaussianFamily,
    M: int,
    orders,
    T: float = 0.5,
    n_frames: int = 17,
    op_seed: int = 2024,
    operator: LowRankOperator | None = None,
) -> MomentTable:
    """Moments of ||rho(U(t) A^omega U(-t))||_{L^p_t L^{q_hat}_x}, full randomization.

    Each draw reweights both factor sides by one shared random frequency
    multiplier and the singular values by independent coefficient draws.
    The phased factor transforms are formed once; each draw multiplies them
    by its multiplier and inverse-transforms in place, one chunk of frames at
    a time, in its worker's buffers.
    For symmetric factors the density sum_n c_n g_n |l_n|^2 is formed in real
    arithmetic; other factors keep the complex product.
    """
    _check_ensemble(M, T, orders, n_frames, p=p, q=q, q_hat=q_hat)
    full_estimate_check(p, q, q_hat, min(float(r) for r in orders), d)
    grid = make_grid(d, n, L)
    pou = PartitionOfUnity(grid)
    R = rank if operator is None else operator.rank
    W = _workers(min(M, n_frames))
    # (n_frames, N) complex stacks: a phased side and its transform per rank (both sides
    # for a given operator), phases, density, norm chunk; plus N-vectors (factors, their
    # transforms, the operator draw) and up to 4 per worker (its frequency weight and
    # density). tracemalloc peak at d=2, N = 4096, R = 2 / 4, 5 frames: 1 worker drawn
    # 9.8 / 15.8 stacks, given 12.9 / 22.5; 5 workers drawn 11.3 / 18.1, given 15.8 / 25.2
    # (at most 3.7 N-vectors more per worker; 9 and 17 frames add less)
    _check_memory(grid, "full_moment_experiment", frames=n_frames,
                  stacks=(2 if operator is None else 4) * R + 4 + (6 * R + 24 + 4 * W) / n_frames)
    if operator is None:
        op_rng = np.random.default_rng(np.random.SeedSequence(entropy=op_seed, spawn_key=(0xA1,)))
        operator = random_low_rank(grid, rank, op_rng, hermitian=True)
    A = recompress(operator, tol=0.0)

    times = np.linspace(0.0, T, n_frames)
    axes = tuple(range(1, d + 1))
    lhat = np.fft.fftn(A.left, axes=axes)
    rhat = np.fft.fftn(A.right, axes=axes)
    symmetric = np.allclose(A.left, A.right)
    phases = np.stack([free_propagator(grid, t).symbol for t in times])
    lph = lhat[:, None] * phases[None]
    rph = None if symmetric else rhat[:, None] * phases[None]
    spatial = tuple(range(2, d + 2))

    # worker i takes draws i, i + W, ..., each in chunks of c_i frames; the c_i add
    # up to n_frames, so all workers' transforms together span one draw's frames
    chunks = [len(range(i, n_frames, W)) for i in range(W)]
    bufs = [np.empty((1 if symmetric else 2, A.rank * c * grid.npoints), dtype=complex)
            for c in chunks]
    s = np.empty((M, n_frames))  # L^q_hat_x per draw and frame
    hd = grid.h**grid.d

    def work(i, halt):
        c = chunks[i]
        for m in range(i, M, W):
            if halt.is_set():
                return
            g = sample_coefficients(family_g, A.rank, m)
            ell = sample_coefficients(family_ell, len(pou.cells), m)
            R = pou.weight(ell)
            for a in range(0, n_frames, c):
                k = slice(a, a + c)
                shape = (A.rank, min(c, n_frames - a)) + grid.shape
                lt = bufs[i][0, :math.prod(shape)].reshape(shape)
                np.fft.ifftn(np.multiply(lph[:, k], R, out=lt), axes=spatial, out=lt)
                if symmetric:
                    # rho = sum_n c_n g_n |l_n|^2 is real: the singular values and draws are
                    flat = lt.reshape(A.rank, -1).view(float)  # interleaved (re, im) of lt
                    sq = np.einsum("n,nm,nm->m", A.coeffs.real * g, flat, flat)
                    rho = sq[0::2] + sq[1::2]
                else:
                    rt = bufs[i][1, :lt.size].reshape(shape)
                    np.fft.ifftn(np.multiply(rph[:, k], R, out=rt), axes=spatial, out=rt)
                    rho = np.einsum("n,nk...,nk...->k...", A.coeffs * g, lt,
                                    np.conjugate(rt, out=rt))
                s[m, k] = _space_norms(rho.reshape(1, shape[1], -1), hd, q_hat)[0]

    _in_threads(W, work)
    samples = _time_norms(s, trapezoid_weights(times), p)
    meta = {
        "experiment": "full",
        "d": d, "n": n, "L": L, "rank": A.rank,
        "p": p, "q": q, "q_hat": q_hat, "T": T, "n_frames": n_frames,
        "family_g": family_g.to_record(), "family_ell": family_ell.to_record(),
        "workers": W,
    }
    return MomentTable.from_samples(samples, orders, seed=family_g.seed, meta=meta)


def strichartz_admissible(p: float, q: float, d: int) -> bool:
    """Standard L^2 admissibility: p >= 2, 2/p + d/q = d/2, (2,inf,2) excluded."""
    if p < 2:
        return False
    if d == 2 and p == 2 and np.isinf(q):
        return False
    lhs = 2.0 / p + (0.0 if np.isinf(q) else d / q)
    return bool(abs(lhs - d / 2.0) < 1e-12)


def function_moment_experiment(
    d: int,
    n: int,
    L: float,
    p: float,
    q: float,
    q_hat: float,
    family: SubgaussianFamily,
    M: int,
    orders,
    T: float = 0.5,
    n_frames: int = 17,
    f: Field | None = None,
) -> MomentTable:
    """Moments of ||U(t) f^omega||_{L^p_t L^{q_hat}_x} under Wiener randomization.

    The phased transform of f is formed once; each block of draws multiplies
    it by the draws' multipliers and inverse-transforms in place, in its
    worker's buffer.
    """
    _check_ensemble(M, T, orders, n_frames, p=p, q=q, q_hat=q_hat)
    if not strichartz_admissible(p, q, d):
        raise ValueError("(p, q) is not a Strichartz-admissible pair")
    if q_hat < q:
        raise ValueError("q_hat must be >= q")
    if min(float(r) for r in orders) < max(p, q_hat):
        raise ValueError("moment orders must be >= max(p, q_hat)")
    grid = make_grid(d, n, L)
    pou = PartitionOfUnity(grid)
    block = max(1, int(4e6 // (n_frames * grid.npoints)))  # draws held by all workers
    # (n_frames, N) complex stacks: the phases, the phased transform, a block of draws
    # and the norm's chunk of them; tracemalloc peak at most 8.8 / 8.4 / 8.2 stacks at
    # 5 / 9 / 17 frames (d=2, N = 4096, 3 draws: one block); with 100 draws 27.7 / 24.4 /
    # 13.8 on 1 worker, 111.4 / 106.4 / 64.5 on 8 (one block of 100 is 203 / 203 / 117)
    _check_memory(grid, "function_moment_experiment", frames=n_frames,
                  stacks=3 + 2 * min(block, M))
    if f is None:
        x2 = sum(x**2 for x in grid.x_mesh())
        f = Field(grid, np.exp(-x2 / 2.0))
    times = np.linspace(0.0, T, n_frames)
    phases = np.stack([free_propagator(grid, t).symbol for t in times])
    fph = np.fft.fftn(f.values) * phases

    w = trapezoid_weights(times)
    hd = grid.h**grid.d
    samples = np.empty(M)
    W, rows, bounds = _draw_blocks(M, block)
    bufs = np.empty((W, rows, n_frames) + grid.shape, dtype=complex)

    def work(i, halt):  # blocks i, i + W, ...
        for start, stop in zip(bounds[i:-1:W], bounds[i + 1::W]):
            if halt.is_set():
                return
            ells = np.array(
                [sample_coefficients(family, len(pou.cells), m) for m in range(start, stop)]
            )
            R = pou.weight(ells)
            frames = np.multiply(fph, R[:, None], out=bufs[i, : stop - start])
            np.fft.ifftn(frames, axes=tuple(range(2, d + 2)), out=frames)
            samples[start:stop] = _mixed_norm_batch(frames, w, hd, p, q_hat, W)

    _in_threads(W, work)
    meta = {
        "experiment": "function",
        "d": d, "n": n, "L": L, "p": p, "q": q, "q_hat": q_hat,
        "T": T, "n_frames": n_frames, "family": family.to_record(), "workers": W,
    }
    return MomentTable.from_samples(samples, orders, seed=family.seed, meta=meta)


def analytic_abs_normal_moment(m: float) -> float:
    """E|N(0,1)|^m = 2^{m/2} Gamma((m+1)/2) / sqrt(pi)."""
    return 2.0 ** (m / 2.0) * math.gamma((m + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass
class KeyEstimateResult:
    """Ratios ||int U(-tau) V Q U(tau) dtau||_{S^alpha} / (||V|| ||Q||)."""

    ratios: np.ndarray
    dt: float
    mu: float
    nu: float
    alpha: float

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))


def _validate_key_mu(mu: float, d: int):
    if mu < 1:
        raise ValueError("mu must be >= 1")
    if d == 1 and mu > 4.0 / 3.0:
        raise ValueError("d=1 requires mu <= 4/3")
    if d == 2 and mu >= 2.0:
        raise ValueError("d=2 requires mu < 2")
    if d >= 3 and mu > 2.0:
        raise ValueError("d>=3 requires mu <= 2")


def key_estimate_probe(
    d: int,
    n: int,
    L: float,
    rank: int,
    mu: float,
    nu: float,
    alpha: float,
    T: float,
    n_steps: int,
    n_instances: int,
    seed: int = 7,
) -> KeyEstimateResult:
    """Empirical boundedness of the Schatten bound for the twisted integral.

    For each instance a smooth random potential V(t, x) (a few spatial
    modes times trigonometric time envelopes) and a modulated low-rank
    Q(t) = psi(t) Q0 are built analytically, so the same instance can be
    re-evaluated on refined time grids.  The reported ratio compares the
    S^alpha norm of the trapezoidal integral of U(-t) V(t) Q(t) U(t) with
    ||V||_{L^mu_t L^nu_x} ||Q||_{C_t S^alpha}.
    """
    _validate_key_mu(mu, d)
    if alpha not in (2, float("inf")):
        raise ValueError("alpha must be 2 or inf")
    grid = make_grid(d, n, L)
    times = np.linspace(0.0, T, n_steps + 1)
    w = trapezoid_weights(times)
    xmesh = grid.x_mesh()
    ratios = np.empty(n_instances)
    for inst in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xE5, inst)))
        Q0 = random_low_rank(grid, rank, rng, hermitian=True)
        n_modes = 3
        freqs = rng.integers(-3, 4, size=(n_modes, d)) * (2 * np.pi / L)
        amps = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        omegas = rng.uniform(0.0, 2.0, size=n_modes)
        phis = rng.uniform(0.0, 2 * np.pi, size=n_modes)
        om_q, th_q = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * np.pi)

        def v_field(t):
            vals = np.zeros(grid.shape)
            for j in range(n_modes):
                phase = sum(freqs[j, a] * xmesh[a] for a in range(d))
                vals = vals + np.cos(omegas[j] * t + phis[j]) * np.real(
                    amps[j] * np.exp(1j * phase)
                )
            return Field(grid, vals)

        V = Trajectory(times, [v_field(t) for t in times])
        psi = np.cos(om_q * times + th_q)
        # V Q0 keeps the rank: the potential multiplies the left factors.
        I = reduce(add, (
            conjugate_free(LowRankOperator(grid, w[k] * psi[k] * Q0.coeffs,
                                           V.frames[k].values[None] * Q0.left, Q0.right), -t)
            for k, t in enumerate(times)))
        lhs = schatten_norm(I, alpha).value
        q_sup = float(np.max(np.abs(psi))) * schatten_norm(Q0, alpha).value
        denom = mixed_norm(V, mu, nu) * q_sup
        ratios[inst] = 0.0 if denom == 0 else lhs / denom
    return KeyEstimateResult(ratios=ratios, dt=float(times[1] - times[0]), mu=mu, nu=nu, alpha=alpha)
