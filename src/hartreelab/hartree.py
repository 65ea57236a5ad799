"""Infinite-particle Hartree dynamics around a translation-invariant state.

The background gamma_f = f(-i grad) is a stationary state of the Hartree
flow; the solver tracks the perturbation Q(t) = gamma(t) - gamma_f through
its Duhamel (integral-equation) form and constructs local solutions by
Picard iteration.  The linearized flow is solved globally by inverting
(1 + L1) with causal time-marching, where L1 is the linear response
operator, diagonal in the spatial frequency of the density.

Both halves rest on one object, the interaction-picture Duhamel integral
D_V[A](t) = -i int_0^t U(t-tau) [V(tau), A(tau)] U(tau-t) dtau.  Every
evaluation of it goes through the one accumulator _duhamel_accumulate: the
Picard map, duhamel_series, the wave operator W(t) = U(-t) Q(t) U(t) of
scattering_diagnostic, and the direct response L1[g] = -rho(D_{w*g}[gamma_f])
of l1_apply_direct.  The frequency-domain L1 is a causal trapezoid sum in time
against the real kernel stack of _l1_kernel_stack, taken two ways on purpose:
_march_density solves with it as a direct sum over contiguous views of the
history, and _l1_convolve (behind l1_apply_fourier and the solve's residual)
applies it as one zero-padded FFT convolution along time, so the residual is
an independent check of the march; linearized_solve fetches the stack once for
both.  Both are diagonal in the frequency and run on one thread per usable core
(grid._workers, through grid._in_threads), with no option: each thread takes one
block of columns (_column_edges), the march through every step, the convolution
in pieces narrowed so that all threads together hold one thread's working set.
Each column runs the same operations in the same order on any thread, so the bits
do not depend on the thread count; one usable core runs inline.  scattering_diagnostic
runs on the density of linearized_solve, which holds the one c0 default
(calibrated, or 0 when f or w vanishes).

The accumulator works in the momentum basis.  With F the unitary DFT on
the flattened grid (numpy's norm="ortho"), a dense kernel K is carried as
its momentum kernel K̂ = F K F^* (_to_mom, inverse _to_x).  In this basis
the free conjugation U(t) K U(-t) is the Hadamard phase
e^{-it|xi|^2} K̂(xi, eta) e^{+it|eta|^2}, and the commutator with the
background is the gather F [V, gamma_f] F^* = V̂(xi - eta) (f(eta) - f(xi)) / h^d
with V̂ = fftn(v) / N and the difference xi - eta wrapped per axis, so
neither needs a kernel-sized FFT.  Schatten norms are unitarily invariant and
are read from K̂ directly.  A density is the diagonal of an x-space kernel; a
caller that keeps only the density reads it from the momentum kernel
(_momentum_density): the diagonal of U(t) K U(-t) is the inverse FFT of the
phased sums of K̂ along its wrapped diagonals xi - eta = zeta, folded one axis
pair at a time, again with no kernel-sized FFT.  The RK4 oracle stays in
x-space as the independent reference.

The Picard sweep holds frame k of its iterate as Y_k = F^* Q̂_k = Q_k F^*: x in
the row index, momentum in the column index.  A = Q + gamma_f is Hermitian and
v = w * rho is real, so [v, A] = v A - (v A)^*: its momentum kernel is X - X^*
with X = F (v (Y_k + F^* D)), D = diag(f) / h^d the momentum kernel of gamma_f
(_frame_commutator).  A new frame is F^* applied to the phased momentum kernel
K̂0 + W_k (_y_frame), and its density is rho(x) = sum_eta Y[x, eta] F[eta, x]
(_y_density), a row-wise dot with the symmetric DFT matrix.  So a frame of a
sweep costs one FFT pass over the row index each way, where an x-space frame
needs two full basis changes; a kept frame becomes the x-space kernel Y F by
one pass over the column index when it is first read (_KernelFrames), and a
caller that reads only the contraction record pays for none.

The accumulator owns its buffers: each commutator is phased in place and the
running integral is one array updated in place, so a frame allocates only its
commutator gather, and a caller that keeps an integral copies it.  The basis
changes write into a kernel the caller owns (out=, which may be the input):
a fresh commutator kernel becomes its own momentum kernel, and the direct L1,
which keeps only densities, reads each from the running integral with no
scratch kernel.  The bits are those of the allocating forms.  The Picard sweep
owns its buffers the same way: it holds one trajectory of Y frames and a ring of
three commutator buffers, and holds no F^* D: each commutator forms it in its own
buffer and adds Y_k.  Commutator k goes to buffer k % 3; the new frame k goes to
buffer (k - 1) % 3, which the accumulator has just released, and trades places
with the old frame once the old one has been read; a halved window's free flow is
written over the same frames.  The third buffer lets a helper stage form
commutator k + 1 while the sweep takes frame k (phase, trapezoid step, new frame,
its deltas and density): the commutators read only the old iterate.  With two
usable cores and a large enough grid the stage is one helper thread per solve,
which also takes half of each window's free-flow frames; otherwise it runs
inline.  Either way each frame runs the same operations in the same order, so
the bits do not depend on the thread count.  The scattering ladder keeps no
rung: each distance ||W(t_{i+1}) - W(t_i)|| is the integral over [t_i, t_{i+1}]
alone, one accumulator pass from zero at absolute times, and each S^4 distance
is taken in the Gram form ||A||_4^4 = ||A^* A||_F^2 (linop._kernel_schatten),
not by an SVD.

Each dense path (the nonlinear solver, the oracle, the direct L1, scattering)
first counts the N x N kernels it will hold, and the linear-response march the
(frames, N) frequency stacks it will hold, and refuses a problem whose
estimate exceeds physical memory (grid._check_memory).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Field,
    FourierMultiplier,
    Grid,
    _Helper,
    _apply_multiplier_stack,
    _check_memory,
    _check_same_grid,
    _in_threads,
    _workers,
    bessel_multiplier,
    convolve_potential,
    free_propagator,
    make_grid,
)
from .linop import (
    DenseOperator,
    LowRankOperator,
    _commutator_kernel,
    _difference_index,
    _displacement_kernel,
    _freq_reflect,
    _kernel_schatten,
    schatten_norm,
    spectrum_hermitian,
    to_dense,
)
from .norms import Trajectory, lebesgue_norm, mixed_norm, density_trajectory, trapezoid_weights

__all__ = [
    "BackgroundState",
    "HartreeRun",
    "LinearizedRun",
    "CalibrationResult",
    "ScatteringReport",
    "make_background",
    "background_density",
    "gamma_f_kernel",
    "stationarity_residual",
    "duhamel_series",
    "picard_solve",
    "dense_rk4_oracle",
    "spectrum_drift",
    "l1_apply_direct",
    "l1_apply_fourier",
    "calibrate_l1_constant",
    "linearized_solve",
    "scattering_diagnostic",
    "randomized_lwp_pipeline",
]


@dataclass
class BackgroundState:
    """Stationary pair (f, w): momentum distribution and interaction.

    f is the real bounded symbol of gamma_f = f(-i grad); w_hat is the
    transform of the (real) interaction, so w_hat(-xi) = conj(w_hat(xi)).
    """

    grid: Grid
    f: FourierMultiplier
    w_hat: FourierMultiplier
    name: str = ""

    def __post_init__(self):
        _check_same_grid(self.grid, self.f.grid)
        _check_same_grid(self.grid, self.w_hat.grid)
        if np.max(np.abs(self.f.symbol.imag)) > 1e-12:
            raise ValueError("momentum distribution f must be real")
        w = self.w_hat.symbol
        if np.max(np.abs(_freq_reflect(w) - np.conj(w))) > 1e-12 * (1 + np.max(np.abs(w))):
            raise ValueError("w_hat must satisfy w_hat(-xi) = conj(w_hat(xi))")

    @property
    def f_is_even(self) -> bool:
        s = self.f.symbol.real
        return bool(np.max(np.abs(_freq_reflect(s) - s)) <= 1e-12 * (1 + np.max(np.abs(s))))


_F_CHOICES = ("gaussian", "fermi-sea", "zero")
_W_CHOICES = ("delta", "gaussian", "zero")


def make_background(
    grid: Grid, f: str = "gaussian", w: str = "delta", f_scale: float = 1.0, w_scale: float = 1.0
) -> BackgroundState:
    """Shipped backgrounds: gaussian / Fermi-sea f, delta / gaussian w."""
    if f not in _F_CHOICES:
        raise ValueError(f"f must be one of {_F_CHOICES}")
    if w not in _W_CHOICES:
        raise ValueError(f"w must be one of {_W_CHOICES}")
    for name, value in (("f_scale", f_scale), ("w_scale", w_scale)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    xi2 = grid.xi_squared()
    if f == "gaussian":
        fs = f_scale * np.exp(-xi2)
    elif f == "fermi-sea":
        fs = f_scale * (xi2 <= 1.0).astype(float)
    else:
        fs = np.zeros(grid.shape)
    if w == "delta":
        ws = w_scale * np.ones(grid.shape)
    elif w == "gaussian":
        ws = w_scale * np.exp(-xi2)
    else:
        ws = np.zeros(grid.shape)
    return BackgroundState(grid, FourierMultiplier(grid, fs), FourierMultiplier(grid, ws),
                           name=f"{f}+{w}")


def background_density(bg: BackgroundState) -> float:
    """rho_{gamma_f} is the constant (1/L^d) sum_xi f(xi) on the torus."""
    g = bg.grid
    return float(np.sum(bg.f.symbol.real) / g.L**g.d)


def gamma_f_kernel(bg: BackgroundState) -> np.ndarray:
    """Dense kernel k_f(x - y) of gamma_f (refused if it exceeds physical memory)."""
    _check_memory(bg.grid, "gamma_f_kernel", kernels=2)
    return _displacement_kernel(bg.f)


def stationarity_residual(bg: BackgroundState, n_probes: int = 6, seed: int = 0) -> float:
    """Relative size of [-Delta + w * rho_{gamma_f}, gamma_f] on probe modes.

    The density of gamma_f is constant, so the potential is a constant and
    the commutator vanishes identically; the returned number is pure
    floating-point noise.
    """
    g = bg.grid
    rho0 = background_density(bg)
    v0 = float(np.real(bg.w_hat.symbol.reshape(-1)[0])) * rho0
    xi2 = g.xi_squared()
    fsym = bg.f.symbol.real
    scale = (np.max(np.abs(fsym)) + 1e-300) * (np.max(xi2) + abs(v0) + 1.0)
    rng = np.random.default_rng(seed)
    env = bessel_multiplier(g, -2.0)
    hm = FourierMultiplier(g, xi2 + v0)
    fm = FourierMultiplier(g, fsym)
    worst = 0.0
    for _ in range(n_probes):
        z = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        u = _apply_multiplier_stack(env, z, g)
        hu = _apply_multiplier_stack(hm, u, g)
        fu = _apply_multiplier_stack(fm, u, g)
        c = _apply_multiplier_stack(fm, hu, g) - _apply_multiplier_stack(hm, fu, g)
        worst = max(worst, float(np.linalg.norm(c) / (np.linalg.norm(u) * scale)))
    return worst


# ---------------------------------------------------------------------------
# dense-kernel helpers (raw arrays, flattened row-major grid)


# N x N kernels a _duhamel_accumulate pass holds besides its caller's frames
# (integral, integrands, commutator gather and weights, basis change).
_ACCUMULATOR_KERNELS = 7


# N x N kernels picard_solve holds besides its one trajectory: K0hat, F^*, three
# commutator buffers (one takes each new frame) and the running integral, 6 in all,
# plus a few N-vectors per frame (densities, their deltas).  tracemalloc peak with
# the helper thread: frames + 6.64 at d=2, N = 256 (51 frames; 6.37 on a window
# halved from 17), frames + 6.16 at d=3, N = 512 (21 frames)
_PICARD_KERNELS = 7


# (frames, N) complex stacks the frequency-domain march holds: source_hat,
# rho_hat, the real kernel stack G (half a stack), its reversed interleaved copy
# and the weighted history.  tracemalloc peak of linearized_solve with c0 given,
# 257 frames, on one or two workers: 4.5 stacks at d=2, N = 4096 (4.55 on two);
# 5.65 at N = 1024, where the free flow's fixed 4 MB chunk is one more stack.  The
# threaded stages allocate their block buffers before their threads start.
_MARCH_STACKS = 6


# (n_frames, N) complex stacks calibrate_l1_constant holds besides the pair (direct,
# Fourier) of every probe, which the residual reads after the fit: the probe's input,
# its two outputs as frames and as stacks, the convolution's input and output and G.
# tracemalloc peak over the call at 1000 frames on 1, 2 or 4 probes, in stacks: 2 per
# probe + 7.5 at d=1, N = 32, + 7.0 at d=2, N = 64 and + 6.7 at d=2, N = 256
_CALIBRATION_STACKS = 8


def _dft_half(K: np.ndarray, grid: Grid, transform, leading: bool, out=None) -> np.ndarray:
    """The unitary ``transform`` (np.fft.fftn or np.fft.ifftn) over one index of a kernel.

    leading takes the row index (the first d axes of K viewed as grid.shape * 2),
    otherwise the column index.  With F the unitary DFT, which is symmetric,
    fftn gives F K or K F and ifftn gives F^* K or K F^*.  The result goes to
    ``out`` (a C-contiguous complex N x N array, which may be K) or to a new array.
    """
    d, N = grid.d, grid.npoints
    axes = tuple(range(d)) if leading else tuple(range(d, 2 * d))
    A = transform(K.reshape(grid.shape * 2), axes=axes, norm="ortho",
                  out=None if out is None else out.reshape(grid.shape * 2))
    return A.reshape(N, N)


def _to_mom(K: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """Momentum kernel F K F^* of an x-space kernel, F the unitary DFT.

    Both passes write into ``out`` (a C-contiguous complex N x N array, which
    may be K itself) or into one new array; the bits are the same either way.
    """
    A = _dft_half(K, grid, np.fft.fftn, True, out=out)
    return _dft_half(A, grid, np.fft.ifftn, False, out=A)


def _to_x(K: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """x-space kernel F^* K F of a momentum kernel, the inverse of _to_mom (same ``out``)."""
    A = _dft_half(K, grid, np.fft.ifftn, True, out=out)
    return _dft_half(A, grid, np.fft.fftn, False, out=A)


def _kernel_free_conj(K: np.ndarray, grid: Grid, t: float, out=None) -> np.ndarray:
    """U(t) K U(-t) on a momentum kernel: a(xi) K(xi, eta) conj(a(eta)), a = e^{-it|xi|^2}.

    The result goes to ``out`` (which may be K itself) or to a new array.
    """
    a = free_propagator(grid, t).symbol.reshape(-1)
    # a times K in this operand order: K *= a[:, None] rounds differently
    out = np.multiply(a[:, None], K, out=out)
    out *= np.conj(a)[None, :]
    return out


def _y_frame(Khat: np.ndarray, grid: Grid, t: float, out=None) -> np.ndarray:
    """Y = F^* U(t) Khat U(-t) for a momentum kernel Khat: x in the row index, momentum
    in the column index, so that Y F is the x-space kernel.

    Both steps write into ``out`` (which may be Khat itself) or into one new array.
    """
    P = _kernel_free_conj(Khat, grid, t, out=out)
    return _dft_half(P, grid, np.fft.ifftn, True, out=P)


def _dft_conj_matrix(grid: Grid) -> np.ndarray:
    """F^* on the flattened grid, F the unitary DFT: the Kronecker power of the
    one-axis matrix e^{2 pi i (j k mod n) / n} / sqrt(n), exactly symmetric."""
    n = grid.n
    j = np.arange(n)
    one = np.exp(2j * np.pi * ((j[:, None] * j[None, :]) % n) / n) / math.sqrt(n)
    out = one
    for _ in range(grid.d - 1):
        out = np.kron(out, one)
    return out


def _y_density(Y: np.ndarray, Fc: np.ndarray) -> np.ndarray:
    """Flattened density rho(x) = sum_eta Y[x, eta] F[eta, x] of a frame Y = Q F^*.

    Fc is _dft_conj_matrix: F is symmetric, so rho(x) = Re sum_eta Y[x, eta]
    conj(Fc[x, eta]), one real dot per row of the interleaved (re, im) views.
    """
    return np.vecdot(Y.view(float), Fc.view(float))


# rows and columns per block of _anti_hermitian_part: a pair of blocks stays in cache
_AH_BLOCK = 64


def _anti_hermitian_part(X: np.ndarray) -> np.ndarray:
    """X - X^* in place, one pair of mirrored blocks at a time (no scratch kernel).

    The lower block is minus the conjugate transpose of the upper one, which is
    X - X^* bit for bit, so the result is exactly anti-Hermitian.
    """
    n, b = X.shape[0], _AH_BLOCK
    for i in range(0, n, b):
        diag = X[i:i + b, i:i + b]
        diag -= diag.conj().T
        for j in range(i + b, n, b):
            upper = X[i:i + b, j:j + b]
            upper -= X[j:j + b, i:i + b].conj().T
            np.negative(upper.conj().T, out=X[j:j + b, i:i + b])
    return X


def _frame_commutator(Y: np.ndarray, Fc: np.ndarray, fD: np.ndarray, v: np.ndarray,
                      grid: Grid, out=None) -> np.ndarray:
    """Momentum kernel of [v, A] for a Hermitian A = Q + gamma_f and a real potential v.

    Y = Q F^*, Fc = F^* (_dft_conj_matrix) and D = diag(fD), fD = f / h^d, the
    momentum kernel of gamma_f, so A F^* = Y + F^* D.  Since (v A)^* = A v, the
    commutator is X - X^* with X = F (v (Y + F^* D)): v acts on the rows, and one
    row-index FFT forms X.  F^* D is formed in the result, which goes to ``out``
    (not Y) or to a new array, and Y is added to it: IEEE addition commutes, so
    the bits are those of Y + F^* D.
    """
    X = np.multiply(Fc, fD, out=out)
    X += Y
    X *= v[:, None]
    return _anti_hermitian_part(_dft_half(X, grid, np.fft.fftn, True, out=X))


class _KernelFrames(Sequence):
    """Frames held as Y = Q F^*, read as x-space kernels: frame k becomes Q = Y F in
    place, by one pass over its column index, the first time it is read."""

    def __init__(self, frames: list, grid: Grid):
        self._frames, self._grid = frames, grid
        self._pending = set(range(len(frames)))

    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, k: int) -> np.ndarray:
        K = self._frames[k]
        k %= len(self)
        if k in self._pending:
            _dft_half(K, self._grid, np.fft.fftn, False, out=K)
            self._pending.discard(k)
        return K


def _pairwise_sum(terms):
    """Sum of 2^m arrays added as a balanced binary tree, in place into the earlier
    operand; it holds at most m + 1 partial sums at a time."""
    partial = []  # (level, sum of 2^level consecutive terms)
    for x in terms:
        level = 0
        while partial and partial[-1][0] == level:
            left = partial.pop()[1]
            left += x
            x, level = left, level + 1
        partial.append((level, x))
    (_, total), = partial
    return total


def _phased_slices(A: np.ndarray, p: np.ndarray):
    """Per eta_a = e: the slice A[:, zeta_a + e, :, e, :] times p[zeta_a, e], zeta_a wrapped.

    A has axes (folded zeta, xi_a, xi rest, eta_a, eta rest); each slice is a new
    array of axes (folded zeta, zeta_a, xi rest, eta rest).
    """
    P, n, R = A.shape[:3]
    for e in range(n):
        part = np.empty((P, n, R, R), dtype=complex)
        np.multiply(A[:, e:, :, e], p[:n - e, e, None, None], out=part[:, :n - e])
        np.multiply(A[:, :e, :, e], p[n - e:, e, None, None], out=part[:, n - e:])
        yield part


def _momentum_density(Khat: np.ndarray, grid: Grid, t: float) -> np.ndarray:
    """x-space diagonal of U(t) Khat U(-t) for a momentum kernel Khat, on the grid.

    The diagonal is rho = ifftn(S), S(zeta) = sum_eta a(eta+zeta) conj(a(eta))
    Khat(eta+zeta, eta) with a = e^{-it|xi|^2} and eta + zeta wrapped per axis.
    The phase and the wrap both factor over the axes, so the sum is folded one
    (xi_a, eta_a) axis pair at a time with one n x n table
    p[zeta, eta] = a_1(eta+zeta) conj(a_1(eta)): each eta_a slice is phased and
    written shifted into its wrapped place, and the n slices are added as a
    pairwise tree.  Khat is read once; the fold holds arrays of N^2 / n
    entries, and no kernel-sized FFT, index array or scratch kernel.
    """
    n, d = grid.n, grid.d
    a = free_propagator(make_grid(1, n, grid.L), t).symbol
    j = np.arange(n)
    p = a[(j[:, None] + j[None, :]) % n] * np.conj(a)
    S = Khat
    for axis in range(d):
        R = n ** (d - axis - 1)
        S = _pairwise_sum(_phased_slices(S.reshape(n**axis, n, R, n, R), p))
    return np.fft.ifftn(S.reshape(grid.shape))


def _kernel_s2(K: np.ndarray, grid: Grid) -> float:
    """Hilbert-Schmidt norm h^d ||K||_F through the BLAS reduction.

    Fast, but its last bit depends on the summation order of the BLAS dot
    kernel, which OpenBLAS picks per CPU. Used where the value steers the
    solver (convergence deltas, ball radius); the deltas written to
    contraction.csv are therefore byte-stable on one host only.
    """
    return float(grid.h**grid.d * np.linalg.norm(K))


# entries per block of rows that _kernel_s2_exact turns into Python floats at a time
_S2_BLOCK = 4096


def _kernel_s2_exact(K: np.ndarray, grid: Grid) -> float:
    """Hilbert-Schmidt norm h^d ||K||_F, independent of summation order.

    The squares of the real and imaginary parts come from plain ufuncs and
    are summed by ``math.fsum``, which rounds correctly, so the result is the
    same bits on any host and for any layout or ordering of the entries.
    It is one to two orders of magnitude slower than the BLAS norm, so it is
    kept for values that are written, not for the Picard convergence test.
    The squares reach fsum as Python floats one block of rows at a time, so
    the call holds one block's list, not the whole kernel's.
    """
    rows = max(1, _S2_BLOCK // K.shape[1])
    squares = (np.square(part[i:i + rows]).ravel().tolist()
               for part in (K.real, K.imag) for i in range(0, K.shape[0], rows))
    return float(grid.h**grid.d * math.sqrt(math.fsum(itertools.chain.from_iterable(squares))))


def _potential_field(bg: BackgroundState, rho_values: np.ndarray) -> Field:
    rho = Field(bg.grid, np.real(rho_values))
    return Field(bg.grid, np.real(convolve_potential(bg.w_hat, rho).values))


def _flat_potential(bg: BackgroundState, rho_values: np.ndarray) -> np.ndarray:
    """w * rho flattened like a dense kernel's indices, for the commutator kernel."""
    return _potential_field(bg, rho_values).values.reshape(-1).real


def _kernel_potential(bg: BackgroundState, K: np.ndarray) -> np.ndarray:
    """The flattened potential w * rho_K generated by a dense kernel's density."""
    return _flat_potential(bg, np.diagonal(K).reshape(bg.grid.shape))


def _background_commutator(bg: BackgroundState, potential):
    """commutator(k): the momentum kernel of [v_k, gamma_f], v_k = potential(k).

    potential(k) is a real potential flattened like a kernel index.  In the
    momentum basis the commutator is V̂_k(xi - eta) (f(eta) - f(xi)) / h^d
    with V̂_k = fftn(v_k) / N: one gather through the wrapped frequency
    differences, no kernel-sized FFT.
    """
    g = bg.grid
    idx = _difference_index(g)
    f = bg.f.symbol.real.reshape(-1)
    weight = (f[None, :] - f[:, None]) / g.h**g.d

    def commutator(k):
        vhat = np.fft.fftn(potential(k).reshape(g.shape)).reshape(-1) / g.npoints
        out = vhat[idx]
        out *= weight
        return out

    return commutator


# ---------------------------------------------------------------------------
# Duhamel term


def _duhamel_accumulate(grid: Grid, times: np.ndarray, steps, commutator):
    """Yield (k, t_k, W_k), W_k = -i int_0^{t_k} U(-tau) C(tau) U(tau) dtau.

    The one dense interaction-picture accumulator, in the momentum basis:
    C(t_k) = commutator(k) is a momentum kernel, and so is each W_k.  The
    integral is the trapezoid rule with step ``steps[k - 1]`` on
    [t_{k-1}, t_k] (an array, or one scalar for all steps).  Pass the step
    the caller's time grid was built with: for ``dt * arange`` grids that is
    ``dt``, whose last bit can differ from ``t_k - t_{k-1}``.  With
    C = [V, A], U(t_k) W_k U(-t_k) is the momentum kernel of the Duhamel term
    D_V[A](t_k).

    The accumulator owns its buffers: commutator(k) returns an array that is
    phased in place and kept until W_{k+1} is formed, so it must be a new array
    or one of two or more buffers used in turn; when W_k is yielded, the array of
    commutator(k - 1) is free.  commutator(k) runs before W_k is yielded.
    W_k is one array updated in place, so it is overwritten at the next step;
    a caller that keeps a W_k copies it.
    """
    steps = np.broadcast_to(steps, (len(times) - 1,))
    W = np.zeros((grid.npoints, grid.npoints), dtype=complex)
    Fprev = None
    for k, t in enumerate(times):
        C = commutator(k)
        Fk = _kernel_free_conj(C, grid, -t, out=C)
        if k > 0:
            Fprev += Fk  # Fprev is not used after this step, so it holds the increment
            Fprev *= -0.5j * steps[k - 1]
            W += Fprev
        Fprev = Fk
        yield k, t, W


def _times_index(times: np.ndarray, t: float) -> int:
    k = int(round((t - times[0]) / (times[1] - times[0])))
    if k < 0 or k >= len(times) or abs(times[k] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the trajectory grid")
    return k


def duhamel_series(V: Trajectory, A) -> list:
    """D_V[A](t_k) = -i int_0^{t_k} U(t-tau) [V(tau), A(tau)] U(tau-t) dtau.

    V is a trajectory of real potential fields.  A may be a single operator,
    a list of operators aligned with V.times, or a BackgroundState (meaning
    the fixed gamma_f); a low-rank operator is made dense.  The result is one
    DenseOperator per time, after _check_memory.
    """
    times = V.times
    grid = V.frames[0].grid
    frames = A if isinstance(A, (list, tuple)) else [A] * len(times)
    if len(frames) != len(times):
        raise ValueError(f"A has {len(frames)} operators but V has {len(times)} times")
    _check_memory(grid, "duhamel_series", kernels=len(times) + _ACCUMULATOR_KERNELS)

    def potential(k):
        return np.real(V.frames[k].values).reshape(-1)

    if isinstance(A, BackgroundState):
        commutator = _background_commutator(A, potential)
    else:
        def commutator(k):
            C = _commutator_kernel(potential(k), to_dense(frames[k]).kernel)
            return _to_mom(C, grid, out=C)

    out = []
    for k, t, W in _duhamel_accumulate(grid, times, np.diff(times), commutator):
        P = _kernel_free_conj(W, grid, t) if k else np.zeros_like(W)  # U(t) W U(-t), a new array
        out.append(DenseOperator(grid, _to_x(P, grid, out=P) if k else P))
    return out


# ---------------------------------------------------------------------------
# Picard solver and dense oracle


@dataclass
class HartreeRun:
    """One local-in-time solve: trajectories, contraction record, ball radius."""

    times: np.ndarray
    Q_frames: Sequence  # x-space kernels; picard_solve's are formed when first read
    rho_frames: list
    T: float
    dt: float
    contraction_history: list
    R: float
    data_norm: float
    scheme: str
    meta: dict = field(default_factory=dict)

    @property
    def grid(self) -> Grid:
        return self.rho_frames[0].grid

    def s2_norms(self) -> np.ndarray:
        """||Q(t)||_{S^2} per frame, with the order-independent reduction.

        These values are the written ``q_s2`` column, so they must not depend
        on the host's BLAS kernel (see ``_kernel_s2_exact``); the Picard sweep
        loop keeps the BLAS norm for its convergence test because of cost.
        """
        g = self.grid
        return np.array([_kernel_s2_exact(K, g) for K in self.Q_frames])

    def hermitian_drift(self) -> float:
        worst = 0.0
        for K in self.Q_frames:
            nrm = np.linalg.norm(K)
            if nrm > 0:
                worst = max(worst, float(np.linalg.norm(K - np.conj(K).T) / nrm))
        return worst


_SCHEMES = ("d1", "d2", "d3")


def _data_norm(bg: BackgroundState, rho_traj: Trajectory, scheme: str) -> float:
    """The trajectory norm whose finiteness the local theory requires."""
    if scheme == "d1":
        return mixed_norm(rho_traj, 4, 2)
    if scheme == "d2":
        return mixed_norm(rho_traj, 2, 2)
    # d3: || w * rho ||_{L^2_T (L^2 cap L^inf)}
    w = trapezoid_weights(rho_traj.times)
    vals = []
    for fr in rho_traj.frames:
        V = _potential_field(bg, fr.values)
        vals.append(max(lebesgue_norm(V, 2), lebesgue_norm(V, np.inf)))
    vals = np.array(vals)
    return float(np.sqrt(np.sum(w * vals**2)))


def _check_positive(name: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _uniform_times(T: float, dt: float, check=None) -> np.ndarray:
    """The K + 1 times of [0, T] at step dt.

    check(K + 1), the caller's memory rule for that many frames, runs before
    the times are formed, so a huge step count is refused, not allocated.
    """
    _check_positive("T", T)
    _check_positive("dt", dt)
    if not math.isfinite(T / dt):
        raise ValueError(f"t / dt must be a finite number of steps, got t = {T}, dt = {dt}")
    K = int(round(T / dt))
    if abs(K * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be an integer multiple of dt")
    if K < 4:
        raise ValueError("need at least 4 time steps")
    if check is not None:
        check(K + 1)
    return dt * np.arange(K + 1)


# Picard solves on fewer grid points run inline: below this, handing each commutator
# to a helper thread costs more than the overlap saves.  d=1 solves of 101 frames on
# 2 cores, inline -> threaded: N = 32 0.06 -> 0.14-0.18 s, N = 64 0.10 -> 0.19 s,
# N = 128 0.30-0.34 -> 0.28-0.33 s (even), N = 256 1.32 -> 0.92 s.
_PICARD_THREAD_POINTS = 256


def picard_solve(
    Q0,
    bg: BackgroundState,
    T_target: float,
    dt: float,
    tol: float = 1e-9,
    scheme: str = "d1",
    max_halvings: int = 8,
) -> HartreeRun:
    """Local solution of the perturbed Hartree flow by Picard iteration.

    Iterates Q <- U(t) Q0 U(-t) + D_V[Q] + D_V[gamma_f] with V = w * rho_Q
    regenerated each sweep; halves the window whenever the recorded deltas
    stop contracting (ratio >= 0.9) and reports the achieved T.  A halved
    window off the dt grid or under 4 steps means no contraction (RuntimeError).

    Frame k is held as Y_k = Q(t_k) F^* (see the module docstring): a sweep step
    costs one FFT pass over the row index for the commutator and one back for the
    new frame.  Q_frames turns each frame into its x-space kernel when it is first
    read.  The solve holds one trajectory plus _PICARD_KERNELS working kernels,
    which is what _check_memory counts: commutators rotate through three buffers,
    and a sweep writes each new frame into the one the accumulator has released
    and swaps it with the old frame once that frame's deltas are taken.  Q0's
    momentum kernel enters as its exact Hermitian part, which the commutator's
    X - X^* form assumes.

    With two usable cores (grid._workers) and at least _PICARD_THREAD_POINTS grid
    points, one helper thread forms commutator k + 1 while the sweep takes frame k,
    and takes half of each window's free-flow frames.  Every frame runs the same
    operations in the same order on either thread, so the run is the same bits
    inline or threaded; meta["workers"] says which.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"scheme must be one of {_SCHEMES}")
    _check_positive("tol", tol)
    g = bg.grid
    T = float(T_target)
    times = _uniform_times(T, dt, lambda frames: _check_memory(
        g, "picard_solve", kernels=frames + _PICARD_KERNELS))
    K0 = to_dense(Q0).kernel
    if np.linalg.norm(K0 - np.conj(K0).T) > 1e-8 * max(np.linalg.norm(K0), 1e-300):
        raise ValueError("initial data must be self-adjoint")
    q0_s2 = _kernel_s2(K0, g)
    K0hat = _to_mom(K0, g)
    del K0
    K0hat += K0hat.conj().T  # its exact Hermitian part, which the commutator X - X^* needs
    K0hat *= 0.5
    N = g.npoints
    Fc = _dft_conj_matrix(g)
    fD = bg.f.symbol.real.reshape(-1) / g.h**g.d  # D = diag(fD), the momentum kernel of gamma_f
    cbufs = [np.empty((N, N), dtype=complex) for _ in range(3)]
    workers = _workers(2) if N >= _PICARD_THREAD_POINTS else 1
    helper = _Helper("picard-helper") if workers > 1 else None

    def commutator_call(k):  # forms commutator k from frame k of the iterate, not yet replaced
        Yk, rk, out = Y[k], rho[k], cbufs[k % 3]
        return lambda: _frame_commutator(Yk, Fc, fD, _flat_potential(bg, rk.reshape(g.shape)),
                                         g, out=out)

    def commutator(k):  # [V, Q + gamma_f] on frame k, in ring buffer k % 3
        # When step k starts, buffer (k + 1) % 3 holds frame k - 1's difference, already
        # read, and step k - 1's integrand stays in buffer (k - 1) % 3 until W_k is formed.
        if helper is None:
            return commutator_call(k)()
        C = commutator_call(0)() if k == 0 else helper.result()
        if k + 1 < len(times):
            helper.submit(commutator_call(k + 1))  # formed while the sweep takes frame k
        return C

    def free_flow(ks):  # the free flow U(t) Q0 U(-t) on frames ks, over their old arrays
        for k in ks:
            Y[k] = _y_frame(K0hat, g, times[k], out=Y[k])
            rho[k] = _y_density(Y[k], Fc)

    def split_free_flow():  # the odd frames go to the helper
        ks = range(len(times))
        if helper is not None:
            helper.submit(lambda odd=ks[1::2]: free_flow(odd))
            ks = ks[::2]
        free_flow(ks)
        if helper is not None:
            helper.result()

    try:
        # the first iterate is the free flow U(t) Q0 U(-t).  Its frames are allocated on
        # this thread: a helper thread allocates from an allocator arena of its own, which
        # kept a freed trajectory resident (+4 MB peak RSS, d=3 LWP pipeline at N = 512).
        Y = [np.empty((N, N), dtype=complex) for _ in times]
        rho = [None] * len(times)
        split_free_flow()
        for halving in range(max_halvings + 1):
            data_norm = _data_norm(
                bg, Trajectory(times, [Field(g, r.reshape(g.shape)) for r in rho]), scheme)
            R = 2.0 * (q0_s2 + data_norm)

            history = []
            converged = False
            for _ in range(80):  # sweeps per window before it counts as not contracting
                s2_deltas, rho_delta = [], []
                for k, t, W in _duhamel_accumulate(g, times, dt, commutator):
                    # once W_k is formed, step k - 1's integrand buffer is free: the new
                    # frame goes there
                    free = cbufs[(k + 2) % 3]
                    new = _y_frame(np.add(K0hat, W, out=free), g, t, out=free)
                    # commutator(k) has read the old frame: it now holds the difference
                    old = np.subtract(new, Y[k], out=Y[k])
                    s2_deltas.append(_kernel_s2(old, g))
                    r = _y_density(new, Fc)
                    rho_delta.append(Field(g, (r - rho[k]).reshape(g.shape)))
                    Y[k], rho[k], cbufs[(k + 2) % 3] = new, r, old
                del W  # else it lives on beside the next sweep's integral
                delta = max(s2_deltas) + _data_norm(bg, Trajectory(times, rho_delta), scheme)
                history.append(delta)
                if not np.isfinite(delta):
                    break
                if delta <= tol * max(1.0, R):
                    converged = True
                    break
                if len(history) >= 2 and history[-1] >= 0.9 * history[-2]:
                    break
            if converged:
                return HartreeRun(
                    times=times, Q_frames=_KernelFrames(Y, g),
                    rho_frames=[Field(g, r.reshape(g.shape)) for r in rho], T=T, dt=dt,
                    contraction_history=history, R=R, data_norm=data_norm, scheme=scheme,
                    meta={"halvings": halving, "sweeps": len(history), "workers": workers},
                )
            T = T / 2.0
            try:
                times = _uniform_times(T, dt)
            except ValueError:  # the halved window is off the dt grid or under 4 steps
                raise RuntimeError("no contraction at this resolution") from None
            # the shorter window restarts from its free flow, written over the first frames
            del Y[len(times):], rho[len(times):]
            split_free_flow()
        raise RuntimeError("no contraction at this resolution")
    finally:
        if helper is not None:
            helper.close()


def dense_rk4_oracle(Q0, bg: BackgroundState, T: float, dt: float) -> HartreeRun:
    """Classical 4th-order time stepping on the dense kernel (reference path)."""
    g = bg.grid
    # every frame, plus gamma_f, the state, four stages and the rhs temporaries
    times = _uniform_times(T, dt, lambda frames: _check_memory(
        g, "dense_rk4_oracle", kernels=frames + 10))
    kf = gamma_f_kernel(bg)
    kin = FourierMultiplier(g, g.xi_squared())  # -Laplacian; even, so its own reflection

    def rhs(K):
        rows = _apply_multiplier_stack(kin, K.reshape(g.shape + (-1,)), g, leading=True)
        cols = _apply_multiplier_stack(kin, K.reshape((-1,) + g.shape), g)
        lap = rows.reshape(K.shape) - cols.reshape(K.shape)  # shapes differ at d >= 2
        return -1j * (lap + _commutator_kernel(_kernel_potential(bg, K), K + kf))

    K = to_dense(Q0).kernel  # a new array, rebound (never written) by each step
    frames = [K]
    for _ in range(len(times) - 1):
        k1 = rhs(K)
        k2 = rhs(K + dt / 2 * k1)
        k3 = rhs(K + dt / 2 * k2)
        k4 = rhs(K + dt * k3)
        K = K + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(K)):
            raise RuntimeError("oracle diverged")
        frames.append(K)
    rho_frames = [Field(g, np.real(np.diagonal(Kt).reshape(g.shape))) for Kt in frames]
    return HartreeRun(
        times=times, Q_frames=frames, rho_frames=rho_frames, T=T, dt=dt,
        contraction_history=[], R=0.0, data_norm=0.0, scheme="rk4",
        meta={"integrator": "rk4"},
    )


def spectrum_drift(run: HartreeRun, bg: BackgroundState) -> float:
    """Max eigenvalue drift of Q(t) + gamma_f-truncation along the run."""
    g = run.grid
    kf = gamma_f_kernel(bg)
    spectra = (spectrum_hermitian(DenseOperator(g, K + kf)) for K in run.Q_frames)
    ev0 = next(spectra)
    return max((float(np.max(np.abs(ev - ev0))) for ev in spectra), default=0.0)


# ---------------------------------------------------------------------------
# linear response operator L1


def l1_apply_direct(gtr: Trajectory, bg: BackgroundState) -> Trajectory:
    """L1[g](t) = rho( i int_0^t U(t-tau) [w*g(tau), gamma_f] U(tau-t) dtau )."""
    g = bg.grid
    _check_memory(g, "l1_apply_direct", kernels=_ACCUMULATOR_KERNELS)
    times = gtr.times
    commutator = _background_commutator(bg, lambda k: _flat_potential(bg, gtr.frames[k].values))

    # L1[g] = -rho(D_{w*g}[gamma_f]); each frame's density is read from its momentum kernel
    out = [Field(g, -_momentum_density(W, g, t) if k else np.zeros(g.shape))
           for k, t, W in _duhamel_accumulate(g, times, np.diff(times), commutator)]
    return Trajectory(times, out)


_L1_CACHE: dict = {}


def _modeprod(A: np.ndarray, T: np.ndarray, d: int) -> np.ndarray:
    """sum_eta T(eta) prod_a A[zeta_a, eta_a], one axis contraction at a time."""
    for _ in range(d):
        T = np.tensordot(A, T, axes=(1, d - 1))
    return T


def _l1_kernel_stack(bg: BackgroundState, n_frames: int, dt: float) -> np.ndarray:
    """Response kernel G[m](zeta) at lag theta = m dt, m = 0..n_frames-1.

    Up to torus wrap-around this is w_hat(zeta) sin(theta |zeta|^2)
    K_f(2 theta zeta) with K_f(y) = (1/L^d) sum_eta f(eta) e^{-i y.eta}; the
    exact discrete kernel sums f(eta) e^{-i theta (|zeta+eta|^2 - |eta|^2)}
    with the shifted frequency wrapped per axis, which keeps it consistent
    with the FFT-based direct path at every frequency.  Built by per-axis
    mode products, O(K n^{d+1}) total.  Requires even f (real kernel).
    """
    g = bg.grid
    key = (g, n_frames, round(dt, 15), bg.f.symbol.tobytes(), bg.w_hat.symbol.tobytes())
    hit = _L1_CACHE.get(key)
    if hit is not None:
        return hit
    if not bg.f_is_even:
        raise ValueError("the frequency-domain L1 path requires an even momentum distribution")
    xi = g.xi_axis
    n = g.n
    idx = np.arange(n)
    xi_plus = xi[(idx[:, None] + idx[None, :]) % n]  # wrapped zeta + eta per axis
    xi_minus = xi[(idx[None, :] - idx[:, None]) % n]  # wrapped eta - zeta per axis
    # the phase exponents per axis; lag theta's phases are e^{-i theta e}
    e1 = xi_plus**2 - xi[None, :] ** 2
    e2 = xi[None, :] ** 2 - xi_minus**2
    fsym = bg.f.symbol.real.astype(complex)
    wsym = bg.w_hat.symbol
    G = np.empty((n_frames,) + g.shape)
    G[0] = 0.0
    # one thread: with the lags' mode products (BLAS) on worker threads, the peak
    # RSS of a later dense scatter ladder rose by 14 MB in some process layouts
    for m in range(1, n_frames):
        theta = m * dt
        S1 = _modeprod(np.exp(-1j * theta * e1), fsym, g.d)
        S2 = _modeprod(np.exp(-1j * theta * e2), fsym, g.d)
        G[m] = np.real(wsym * 0.5j * (S1 - S2)) / g.L**g.d
    _L1_CACHE[key] = G
    return G


def l1_apply_fourier(gtr: Trajectory, bg: BackgroundState, c0: float) -> Trajectory:
    """Frequency-domain L1: diagonal in zeta, causal convolution in time."""
    ghat = np.stack([np.fft.fftn(fr.values) for fr in gtr.frames])
    dt = float(gtr.times[1] - gtr.times[0])
    out_hat = _l1_convolve(_l1_kernel_stack(bg, len(gtr.times), dt), dt, ghat, c0)
    return Trajectory(gtr.times, [Field(bg.grid, np.fft.ifftn(h)) for h in out_hat])


@dataclass
class CalibrationResult:
    c0: float
    residual: float
    imag: float


def calibrate_l1_constant(
    bg: BackgroundState,
    n_frames: int = 9,
    dt: float = 0.05,
    n_probes: int = 4,
    seed: int = 3,
) -> CalibrationResult:
    """Least-squares scalar fit of the frequency-domain L1 to the direct path.

    The fitted c0 is a single constant of the Fourier convention; the
    residual bounds the relative mismatch after the fit and the fit aborts
    if it exceeds 1e-6 (inconsistent conventions).
    """
    _check_positive("dt", dt)
    if n_frames < 2:
        raise ValueError(f"n_frames must be >= 2, got {n_frames}")
    if n_probes < 1:
        raise ValueError(f"n_probes must be >= 1, got {n_probes}")
    g = bg.grid
    _check_memory(g, "calibrate_l1_constant", kernels=_ACCUMULATOR_KERNELS,
                  stacks=2 * n_probes + _CALIBRATION_STACKS, frames=n_frames)
    times = dt * np.arange(n_frames)
    rng = np.random.default_rng(seed)
    env = bessel_multiplier(g, -3.0)
    num = 0.0 + 0.0j
    den = 0.0
    pairs = []
    for _ in range(n_probes):
        z = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        base = np.real(_apply_multiplier_stack(env, z, g))
        om, ph = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * np.pi)
        frames = [Field(g, base * np.cos(om * t + ph)) for t in times]
        gtr = Trajectory(times, frames)
        D = np.stack([f.values for f in l1_apply_direct(gtr, bg).frames])
        F1 = np.stack([f.values for f in l1_apply_fourier(gtr, bg, 1.0).frames])
        num += np.vdot(F1, D)
        den += float(np.vdot(F1, F1).real)
        pairs.append((D, F1))
    if den == 0:
        raise ValueError("degenerate background: L1 vanishes on all probes")
    c0c = num / den
    resid_num = 0.0
    resid_den = 0.0
    for D, F1 in pairs:
        resid_num += float(np.linalg.norm(c0c * F1 - D) ** 2)
        resid_den += float(np.linalg.norm(D) ** 2)
    residual = float(np.sqrt(resid_num / resid_den))
    imag = abs(c0c.imag) / max(abs(c0c), 1e-300)
    if not residual <= 1e-6:  # a NaN residual is no fit either
        raise RuntimeError(
            f"L1 calibration residual {residual:.3e} exceeds 1.0e-06; "
            "transform conventions are inconsistent"
        )
    return CalibrationResult(c0=float(c0c.real), residual=residual, imag=imag)


# ---------------------------------------------------------------------------
# linearized global solve and scattering


@dataclass
class LinearizedRun:
    times: np.ndarray
    rho_frames: list
    residual: float
    c0: float
    workers: int  # threads of the march and the convolution


# frequency columns per FFT pass of _l1_convolve, shared by all its workers: each
# worker walks its block _CONVOLVE_COLUMNS / workers columns at a time, so the
# pieces in flight stay below one (frames, N) complex stack on any number of workers
_CONVOLVE_COLUMNS = 512


# the threaded frequency stages split their columns into blocks that start and end
# on multiples of _BLOCK_COLUMNS (N = n^d, n >= 8, is one), so numpy's SIMD loops take
# every block in whole vectors: a column in a loop's scalar tail can round
# differently from one in a vector, and its bits would then depend on the split
_BLOCK_COLUMNS = 8


def _column_edges(N: int) -> list:
    """Edges of the threaded frequency stages' column blocks: one contiguous block
    per usable core, its edges on multiples of _BLOCK_COLUMNS."""
    parts = N // _BLOCK_COLUMNS
    W = _workers(parts)
    return [_BLOCK_COLUMNS * (parts * i // W) for i in range(W + 1)]


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms without Bluestein."""
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


def _march_density(G: np.ndarray, dt: float, source_hat: np.ndarray, c0: float) -> np.ndarray:
    """Causal solve of (1 + L1) rho = source in frequency against the kernel stack G
    of _l1_kernel_stack at step dt; returns rho_hat.

    A direct trapezoid sum, rho_hat[k] = source_hat[k] - c0 sum_{j<k} w_j
    G[k-j] rho_hat[j] with w_0 = dt/2 and w_j = dt; the j = k endpoint drops
    out because G[0] = 0, which makes the march explicit.  G is real, so the
    sum runs in real arithmetic over interleaved (re, im) columns: the kernel
    stack is reversed once, so that G[k-j], j < k, is the contiguous slice
    Gr[K-1-k:K-1], and the weighted history w_j rho_hat[j] is kept alongside
    rho_hat.  Each step is then one contraction with no copy of the history.

    Every frequency column is its own march.  Each worker takes one contiguous
    block of columns (_column_edges) through all K steps with no hand-off
    between steps, so a column runs the same operations whichever worker takes
    it.  A worker stops once its columns alone pass the divergence bound; the
    frames are then checked in order, as a single march checks them, so the
    error names the same step.
    """
    if not math.isfinite(c0):
        raise ValueError(f"c0 must be finite, got {c0}")
    K, N = len(G), G[0].size
    Gr = np.repeat(G[::-1].reshape(K, N), 2, axis=1)
    src = source_hat.reshape(K, N)
    rho_hat = np.empty_like(source_hat)
    rho = rho_hat.reshape(K, N)
    rho[0] = src[0]
    flat = rho.view(float)
    xw = np.empty((K, 2 * N))
    np.multiply(flat[0], dt / 2, out=xw[0])
    acc = np.empty(2 * N)
    src_scale = float(np.linalg.norm(source_hat))
    edges = _column_edges(N)
    passed = [K] * (len(edges) - 1)  # the first step at which worker i's columns pass

    def work(i, halt):  # columns edges[i]:edges[i + 1], through every step
        c = slice(edges[i], edges[i + 1])
        f = slice(2 * c.start, 2 * c.stop)  # the same columns, interleaved (re, im)
        for k in range(1, K):
            if halt.is_set() or k > min(passed):
                return
            np.einsum("jm,jm->m", Gr[K - 1 - k:K - 1, f], xw[:k, f], out=acc[f])
            rho[k, c] = src[k, c] - c0 * acc[f].view(complex)
            np.multiply(flat[k, f], dt, out=xw[k, f])
            if src_scale > 0 and np.linalg.norm(rho[k, c]) > 1e6 * src_scale:
                passed[i] = k

    _in_threads(len(passed), work)
    if src_scale > 0:
        # every column is marched at least to step min(passed), by which the whole
        # frame has passed the bound if any block has
        for k in range(1, K):
            if np.linalg.norm(rho_hat[k]) > 1e6 * src_scale:
                raise RuntimeError(
                    "linearized marching diverged: growth factor "
                    f"{np.linalg.norm(rho_hat[k]) / src_scale:.3e} (response not invertible)"
                )
    return rho_hat


def _l1_convolve(G: np.ndarray, dt: float, rho_hat: np.ndarray, c0: float) -> np.ndarray:
    """c0 L1 applied frame by frame in frequency to rho_hat, shape (K,) + grid.shape,
    with the kernel stack G of _l1_kernel_stack at step dt.

    The same trapezoid sum as _march_density, taken by another algorithm so
    that the residual of a march is an independent check: with the input
    fully known, the causal sum is one zero-padded linear convolution along
    time.  G is real, so the real and imaginary parts of the weighted input
    are convolved with real transforms, padded to a 5-smooth length >= 2K - 1.
    Each worker takes one block of columns (_column_edges), width at a time.
    """
    G = G.reshape(len(G), -1)
    K, N = G.shape
    L = _smooth_length(2 * K - 1)
    w = np.full((K, 1), dt)
    w[0] = dt / 2
    x = rho_hat.reshape(K, N)
    out = np.empty_like(rho_hat)
    res = out.reshape(K, N)
    edges = _column_edges(N)
    W = len(edges) - 1
    width = min(max(1, _CONVOLVE_COLUMNS // W // _BLOCK_COLUMNS) * _BLOCK_COLUMNS,
                max(np.diff(edges)))
    # each worker's buffers, one piece wide and no wider than the widest block, made
    # here: what a worker thread allocates stays resident in its own malloc arena
    H = L // 2 + 1
    bufs = [(np.empty((H, width), complex), np.empty((H, width), complex),
             np.empty((K, width), complex), np.empty((L, width))) for _ in range(W)]

    def work(i, halt):  # columns edges[i]:edges[i + 1], width at a time
        for a in range(edges[i], edges[i + 1], width):
            if halt.is_set():
                return
            cols = slice(a, min(a + width, edges[i + 1]))
            Gf, X, xc, y = (buf[:, :cols.stop - a] for buf in bufs[i])
            np.fft.rfft(G[:, cols], n=L, axis=0, out=Gf)
            np.multiply(w, x[:, cols], out=xc)
            for part, into in ((xc.real, res.real), (xc.imag, res.imag)):
                np.fft.rfft(part, n=L, axis=0, out=X)
                np.multiply(Gf, X, out=X)
                np.fft.irfft(X, n=L, axis=0, out=y)
                into[:, cols] = y[:K]
            res[:, cols] *= c0

    _in_threads(W, work)
    out[0] = 0.0  # G[0] = 0: no response at t = 0
    return out


def linearized_solve(
    Q0: LowRankOperator,
    bg: BackgroundState,
    T: float,
    dt: float,
    c0: float | None = None,
) -> LinearizedRun:
    """Global solve of the linearized flow via (1 + L1)^{-1} time-marching.

    Returns the density; Q(t_k) itself is conjugate_free(Q0, t_k) plus
    duhamel_series(Trajectory(times, w * rho), bg)[k].  c0 None is calibrated,
    or 0.0 where f or w_hat vanishes (L1 is zero there, and the calibration
    refuses it).
    """
    g = bg.grid
    times = _uniform_times(T, dt, lambda frames: _check_memory(
        g, "linearized_solve", stacks=_MARCH_STACKS, frames=frames))
    if c0 is None:
        vanishes = not (np.any(bg.f.symbol) and np.any(bg.w_hat.symbol))
        c0 = 0.0 if vanishes else calibrate_l1_constant(bg).c0
    source_hat = np.stack([np.fft.fftn(np.real(fr.values))
                           for fr in density_trajectory(Q0, times).frames])
    G = _l1_kernel_stack(bg, len(times), dt)  # one stack for the march and its check
    rho_hat = _march_density(G, dt, source_hat, c0)
    resid = _l1_convolve(G, dt, rho_hat, c0)
    resid += rho_hat
    resid -= source_hat
    src_scale = float(np.linalg.norm(source_hat))
    residual = float(np.linalg.norm(resid) / src_scale) if src_scale > 0 else 0.0
    rho_frames = [Field(g, np.real(np.fft.ifftn(rho_hat[k]))) for k in range(len(times))]
    return LinearizedRun(times=times, rho_frames=rho_frames, residual=residual, c0=float(c0),
                         workers=len(_column_edges(g.npoints)) - 1)


@dataclass
class ScatteringReport:
    """Dyadic-ladder Cauchy diagnostic for W(t) = U(-t) Q(t) U(t)."""

    checkpoint_times: np.ndarray
    distances: np.ndarray
    alpha: float
    cauchy_consistent: bool
    verdict: str
    workers: int  # threads of the linearized solve under the ladder


def scattering_diagnostic(
    Q0: LowRankOperator,
    bg: BackgroundState,
    T: float,
    dt: float,
    alpha_sc: float | None = None,
    n_rungs: int = 4,
    c0: float | None = None,
) -> ScatteringReport:
    """Cauchy consistency of the interaction-picture operator on a dyadic ladder.

    W(t) = Q0 - i int_0^t U(-tau) [w*rho(tau), gamma_f] U(tau) dtau along the
    linearized flow, rho = linearized_solve(Q0, bg, T, dt, c0).rho_frames;
    successive ladder distances ||W(t_{i+1}) - W(t_i)|| in S^alpha must each
    shrink by a factor 0.9 for a "scattering" verdict.  The n_rungs >= 3 rungs
    T / 2^(n_rungs - i) give at least two distances to compare.  Each distance
    is the integral over [t_i, t_{i+1}] alone, accumulated from zero, so no
    rung is kept and no frame before the first rung is taken; at alpha = 4 it
    is the Gram form of _kernel_schatten.
    """
    g = bg.grid
    if n_rungs < 3:
        raise ValueError(f"n_rungs must be >= 3, got {n_rungs}")
    if alpha_sc is None:
        if g.d == 1:
            raise ValueError("the scattering exponent 2d/(d-1) needs d >= 2, got d = 1")
        alpha_sc = 2.0 * g.d / (g.d - 1.0)
    if not (math.isfinite(alpha_sc) and alpha_sc >= 1):
        raise ValueError(f"alpha_sc must be finite and >= 1, got {alpha_sc}")
    # the accumulator (integral, two integrands, the gather's index and weights) and
    # the Gram blocks or the SVD's copies, no kept rung: tracemalloc peak over the call
    # is 4.1 kernels at d=2, N = 1024 (alpha = 4 or 3, c0 given or calibrated), 4.1 at
    # d=3, N = 512 (alpha = 3; 4.2 calibrated) and 4.25 at d=2, N = 256;
    # linearized_solve's march before the ladder holds the frequency stacks
    times = _uniform_times(T, dt, lambda frames: _check_memory(
        g, "scattering_diagnostic", kernels=_ACCUMULATOR_KERNELS, stacks=_MARCH_STACKS,
        frames=frames))
    if n_rungs - 1 > math.log2(len(times) - 1):
        raise ValueError(f"n_rungs = {n_rungs} puts the first rung T / 2^{n_rungs - 1} "
                         f"below dt = {dt}")
    lin = linearized_solve(Q0, bg, T, dt, c0=c0)
    rho_frames = lin.rho_frames

    ladder = np.array([T / 2 ** (n_rungs - i) for i in range(1, n_rungs + 1)])
    rungs = [_times_index(times, t) for t in ladder]

    # W(t_{i+1}) - W(t_i) is the integral over [t_i, t_{i+1}] alone: one accumulator
    # pass per rung, at absolute times.  It stays a momentum kernel: the S^alpha
    # distances are unitarily invariant.
    commutator = _background_commutator(bg, lambda k: _flat_potential(bg, rho_frames[k].values))
    dists = []
    for a, b in zip(rungs, rungs[1:]):
        for _, _, W in _duhamel_accumulate(g, times[a:b + 1], dt, lambda k: commutator(a + k)):
            pass
        dists.append(_kernel_schatten(W, g, alpha_sc))
        del W  # else it lives on beside the next rung's integral
    dists = np.array(dists)
    floor = 1e-14 * max(schatten_norm(Q0, 2).value, 1e-300)
    if np.all(dists <= floor):
        ok = True
        verdict = "trivial (free evolution)"
    else:
        ok = bool(np.all(dists[1:] <= 0.9 * dists[:-1]))
        verdict = "Cauchy-consistent" if ok else "no scattering at this horizon"
    return ScatteringReport(
        checkpoint_times=ladder, distances=dists, alpha=float(alpha_sc),
        cauchy_consistent=ok, verdict=verdict, workers=lin.workers,
    )


# ---------------------------------------------------------------------------
# randomized local well-posedness pipeline


def randomized_lwp_pipeline(
    Q0: LowRankOperator,
    which: str,
    bg: BackgroundState,
    scheme: str,
    sigma: float,
    family_g,
    T: float,
    dt: float,
    n_draws: int,
    family_ell=None,
    tol: float = 1e-8,
) -> list:
    """Randomize, record the data norm the local theory needs, then solve.

    Returns one record per draw: the drawn data norm, the achieved window T,
    and the contraction diagnostics of the accepted run.  which = "full"
    randomizes over the unit-cell partition of Q0's grid.
    """
    from .randomize import sobolev_conjugated_randomize

    g = bg.grid
    records = []
    # Picard's rule, before the probe times and any draw's densities are formed
    probe_times = _uniform_times(T, dt, lambda frames: _check_memory(
        g, "randomized_lwp_pipeline", kernels=frames + _PICARD_KERNELS))
    for m in range(n_draws):
        Qw = sobolev_conjugated_randomize(
            Q0, sigma, which=which, family_g=family_g, family_ell=family_ell,
            stream_g=m, stream_ell=m,
        )
        rho_traj = density_trajectory(Qw, probe_times)
        rho_traj = Trajectory(probe_times, [Field(g, np.real(f.values)) for f in rho_traj.frames])
        dn = _data_norm(bg, rho_traj, scheme)
        rec = {"draw": m, "which": which, "sigma": sigma, "data_norm": dn}
        if not np.isfinite(dn):
            rec.update({"status": "infinite data norm"})
            records.append(rec)
            continue
        run = picard_solve(Qw, bg, T, dt, tol=tol, scheme=scheme)
        ratios = [run.contraction_history[i + 1] / run.contraction_history[i]
                  for i in range(len(run.contraction_history) - 1)
                  if run.contraction_history[i] > 0]
        rec.update({
            "status": "ok",
            "achieved_T": run.T,
            "sweeps": len(run.contraction_history),
            "final_delta": run.contraction_history[-1] if run.contraction_history else 0.0,
            "max_ratio": max(ratios) if ratios else 0.0,
            "R": run.R,
        })
        del run  # no draw's trajectory stays alive while the next draw solves
        records.append(rec)
    return records
