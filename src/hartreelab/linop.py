"""Compact-operator representations and the Schatten-class calculus.

Two concrete representations are used throughout:

* LowRankOperator  A = sum_n c_n |u_n><v_n|  with fields u_n, v_n on a grid;
* DenseOperator    with integral kernel K(x, y), acting as
  (A f)(x) = h^d sum_y K(x, y) f(y).

Operator singular values are, by convention, those of the plain matrix
h^d * K; low-rank factors are orthonormalized in the h^d-weighted inner
product, so grid refinement converges to the continuum norms.  All
operations are pure; operators are treated as immutable values.

Multipliers act on both representations through the one pass
grid._apply_multiplier_stack (imported here under that name), and both
random factor draws end in one weighted orthonormalization (_orthonormal_factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    FourierMultiplier,
    Grid,
    _apply_multiplier_stack,
    _check_same_grid,
    bessel_multiplier,
    free_propagator,
)

__all__ = [
    "LowRankOperator",
    "DenseOperator",
    "SchattenReport",
    "density",
    "trace",
    "to_dense",
    "schatten_norm",
    "sobolev_schatten_norm",
    "conjugate_free",
    "multiplier_sandwich_schatten",
    "spectrum_hermitian",
    "add",
    "scale",
    "adjoint",
    "compose",
    "recompress",
    "random_low_rank",
    "localized_low_rank",
]


@dataclass
class LowRankOperator:
    """A = sum_n coeffs[n] |left[n]><right[n]|.

    left and right are stacked factor arrays of shape (R,) + grid.shape.
    """

    grid: Grid
    coeffs: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        self.coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        self.left = np.asarray(self.left, dtype=complex)
        self.right = np.asarray(self.right, dtype=complex)
        R = len(self.coeffs)
        want = (R,) + self.grid.shape
        if R and (self.left.shape != want or self.right.shape != want):
            raise ValueError("factor stacks must have shape (R,) + grid.shape")

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def apply(self, f: Field) -> Field:
        _check_same_grid(self.grid, f.grid)
        g = self.grid
        if self.rank == 0:
            return Field(g, np.zeros(g.shape))
        ip = g.h**g.d * np.tensordot(np.conj(self.right), f.values, axes=g.d)
        return Field(g, np.tensordot(self.coeffs * ip, self.left, axes=(0, 0)))


@dataclass
class DenseOperator:
    """Operator given by its integral kernel on the flattened (row-major) grid."""

    grid: Grid
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = np.asarray(self.kernel, dtype=complex)
        N = self.grid.npoints
        if self.kernel.shape != (N, N):
            raise ValueError(f"kernel must be {N}x{N}")

    def apply(self, f: Field) -> Field:
        _check_same_grid(self.grid, f.grid)
        g = self.grid
        out = g.h**g.d * (self.kernel @ f.values.reshape(-1))
        return Field(g, out.reshape(g.shape))


@dataclass
class SchattenReport:
    """Schatten norm evaluation: value = (sum s_j^alpha)^(1/alpha), descending s."""

    alpha: float
    value: float
    singular_values: np.ndarray


def density(A) -> Field:
    """Diagonal of the integral kernel, rho_A(x) = A(x, x)."""
    g = A.grid
    if isinstance(A, LowRankOperator):
        if A.rank == 0:
            return Field(g, np.zeros(g.shape))
        vals = np.einsum("n,n...,n...->...", A.coeffs, A.left, np.conj(A.right))
        return Field(g, vals)
    return Field(g, np.diagonal(A.kernel).reshape(g.shape))


def trace(A) -> complex:
    g = A.grid
    return complex(g.h**g.d * np.sum(density(A).values))


def to_dense(A) -> DenseOperator:
    if isinstance(A, DenseOperator):
        return DenseOperator(A.grid, A.kernel.copy())
    g = A.grid
    if A.rank == 0:
        return DenseOperator(g, np.zeros((g.npoints, g.npoints)))
    # a fixed-order sum of rank-one products, not a GEMM: the same bits under every BLAS kernel
    Lm = A.left.reshape(A.rank, -1) * A.coeffs[:, None]
    Rm = np.conj(A.right.reshape(A.rank, -1))
    K = np.multiply.outer(Lm[0], Rm[0])
    term = np.empty_like(K)
    for r in range(1, A.rank):
        K += np.multiply.outer(Lm[r], Rm[r], out=term)
    return DenseOperator(g, K)


def _core_singular_values(A: LowRankOperator, return_factors: bool = False):
    """Singular values via weighted QR of the factor stacks and an R x R core."""
    g = A.grid
    if A.rank == 0:
        if return_factors:
            return np.zeros(0), None, None, None, None
        return np.zeros(0)
    w = np.sqrt(g.h**g.d)
    Ql, Rl = np.linalg.qr(w * A.left.reshape(A.rank, -1).T)
    Qr, Rr = np.linalg.qr(w * A.right.reshape(A.rank, -1).T)
    core = (Rl * A.coeffs[None, :]) @ np.conj(Rr).T
    if return_factors:
        Uc, s, Vch = np.linalg.svd(core)
        return s, Ql, Qr, Uc, Vch
    return np.linalg.svd(core, compute_uv=False)


def singular_values(A) -> np.ndarray:
    """Descending singular values of A on the weighted L^2 space."""
    if isinstance(A, LowRankOperator):
        return _core_singular_values(A)
    g = A.grid
    return np.linalg.svd(g.h**g.d * A.kernel, compute_uv=False)


def _schatten_value(s: np.ndarray, alpha: float) -> float:
    if len(s) == 0:
        return 0.0
    if np.isinf(alpha):
        return float(np.max(s))
    return float(np.sum(s**alpha) ** (1.0 / alpha))


def schatten_norm(A, alpha: float) -> SchattenReport:
    if alpha < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {alpha}")
    s = singular_values(A)
    return SchattenReport(alpha=alpha, value=_schatten_value(s, alpha), singular_values=s)


# Rows of A^* A per matrix product in _kernel_schatten: 2 MB blocks at N = 1024.
_GRAM_BLOCK = 128


def _kernel_schatten(K: np.ndarray, grid: Grid, alpha: float) -> float:
    """S^alpha norm of the operator with dense kernel K, the value only.

    For alpha = 4 it uses ||A||_4^4 = ||A^* A||_F^2, which holds for any
    matrix: A^* A is formed one block of rows at a time, so no N x N Gram
    matrix is held, and since it is Hermitian only its upper block triangle
    is formed, each off-diagonal block counted twice.  That is one matrix
    product's work in place of an SVD.  Any other alpha takes the singular
    values through schatten_norm.
    """
    if alpha != 4:
        return schatten_norm(DenseOperator(grid, K), alpha).value
    total = 0.0
    for i in range(0, K.shape[1], _GRAM_BLOCK):
        G = np.conj(K[:, i:i + _GRAM_BLOCK]).T @ K[:, i:]
        diag, upper = G[:, :_GRAM_BLOCK], G[:, _GRAM_BLOCK:]
        total += np.vdot(diag, diag).real + 2.0 * np.vdot(upper, upper).real
    return float(grid.h**grid.d * total**0.25)


def _freq_reflect(a: np.ndarray) -> np.ndarray:
    """Value at -xi for an array in FFT frequency order."""
    out = a
    for ax in range(a.ndim):
        out = np.roll(np.flip(out, axis=ax), 1, axis=ax)
    return out


def _conjugate_multiplier(A, m: FourierMultiplier):
    """m A m^* in the matching representation (m applied to both factor sides)."""
    if isinstance(A, LowRankOperator):
        if A.rank == 0:
            return A
        return LowRankOperator(
            A.grid,
            A.coeffs.copy(),
            _apply_multiplier_stack(m, A.left, A.grid),
            _apply_multiplier_stack(m, A.right, A.grid),
        )
    g = A.grid
    k = _apply_multiplier_stack(m, A.kernel.reshape(g.shape + (-1,)), g, leading=True)
    # m^* acts on the kernel's second index, where its symbol enters reflected: conj(m(-eta))
    mstar = FourierMultiplier(g, _freq_reflect(np.conj(m.symbol)))
    k = _apply_multiplier_stack(mstar, k.reshape((-1,) + g.shape), g)
    return DenseOperator(g, k.reshape(A.kernel.shape))


def sobolev_schatten_norm(A, s: float, alpha: float) -> SchattenReport:
    """Schatten norm of <grad>^s A <grad>^s (both-sided Sobolev weight)."""
    if alpha < 1:
        raise ValueError(f"Schatten exponent must be >= 1, got {alpha}")
    if s == 0:
        return schatten_norm(A, alpha)
    J = bessel_multiplier(A.grid, s)
    # The Bessel symbol is real, so m = m^* and conjugation is J A J.
    return schatten_norm(_conjugate_multiplier(A, J), alpha)


def conjugate_free(A, t: float):
    """U(t) A U(t)^*, representation preserving.

    The one free flow for both representations: a low-rank operator has its
    factor stacks propagated, a dense one its kernel conjugated, so callers
    that evolve an operator freely do not transform its factors themselves.
    """
    return _conjugate_multiplier(A, free_propagator(A.grid, t))


# Stacked passes (the free frames here, the mixed norm in montecarlo) work in
# chunks of about 2^18 entries, which stay in cache; no result depends on it.
_CHUNK_ENTRIES = 2**18


def _free_frames(A: LowRankOperator, times):
    """Factor stacks of U(t) A U(t)^* for t in times, as (left, right) per chunk.

    The batched form of conjugate_free for a low-rank A of rank > 0: each
    factor stack is transformed forward once, and each chunk of frames is
    phased by e^{-it|xi|^2} and inverse-transformed in one batched ifftn.
    A chunk holds at most about _CHUNK_ENTRIES entries (at least one frame);
    its stacks have shape (frames, R) + grid.shape, and right is left when
    A.right is A.left, so symmetric factors cost one inverse transform per
    frame.  The stacks are those of conjugate_free(A, t), bit for bit.
    """
    g = A.grid
    axes = tuple(range(1, g.d + 1))
    spatial = tuple(range(2, g.d + 2))
    lhat = np.fft.fftn(A.left, axes=axes)
    rhat = lhat if A.right is A.left else np.fft.fftn(A.right, axes=axes)
    step = max(1, _CHUNK_ENTRIES // A.left.size)
    for i in range(0, len(times), step):
        phases = np.stack([free_propagator(g, t).symbol for t in times[i:i + step]])[:, None]
        left = np.fft.ifftn(phases * lhat, axes=spatial)
        right = left if rhat is lhat else np.fft.ifftn(phases * rhat, axes=spatial)
        yield left, right


def _commutator_kernel(v: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Kernel (v(x) - v(y)) K(x, y) of [v, K], for v flattened like the kernel's indices."""
    return (v[:, None] - v[None, :]) * K


def _difference_index(grid: Grid) -> np.ndarray:
    """N x N flat indices of i - j over the flattened grid, wrapped per axis.

    ``a.reshape(-1)[_difference_index(grid)]`` is the matrix a(i - j) of an
    array a on the grid: a displacement kernel in space, a convolution
    (circulant) matrix in frequency.
    """
    n = grid.n
    j = np.arange(n)
    D = (j[:, None] - j[None, :]) % n  # the wrapped difference along one axis
    idx = D
    for _ in range(grid.d - 1):
        # one more axis: row (I, i) and column (J, j) give n idx[I, J] + D[i, j]
        m = len(idx) * n
        idx = ((n * idx)[:, None, :, None] + D[None, :, None, :]).reshape(m, m)
    return idx


def _displacement_kernel(m: FourierMultiplier) -> np.ndarray:
    """N x N matrix k_m(x - y) from the multiplier's real-space kernel."""
    return m.real_space_kernel().reshape(-1)[_difference_index(m.grid)]


def multiplier_sandwich_schatten(f: Field, g_symbol: FourierMultiplier, alpha: float) -> float:
    """Schatten norm of the composition f(x) g(-i grad), alpha >= 2 only."""
    if alpha < 2:
        raise ValueError("composition Schatten bound requires alpha >= 2")
    _check_same_grid(f.grid, g_symbol.grid)
    km = _displacement_kernel(g_symbol)
    kernel = f.values.reshape(-1)[:, None] * km
    return schatten_norm(DenseOperator(f.grid, kernel), alpha).value


def spectrum_hermitian(A: DenseOperator, tol: float = 1e-8) -> np.ndarray:
    """Descending eigenvalues of the weighted matrix; rejects non-Hermitian input."""
    g = A.grid
    M = g.h**g.d * A.kernel
    scale = np.linalg.norm(M)
    if scale > 0 and np.linalg.norm(M - np.conj(M).T) > tol * scale:
        raise ValueError("operator is not Hermitian to tolerance")
    ev = np.linalg.eigvalsh((M + np.conj(M).T) / 2)
    return ev[::-1]


def add(A, B):
    _check_same_grid(A.grid, B.grid)
    if isinstance(A, LowRankOperator) and isinstance(B, LowRankOperator):
        if A.rank == 0:
            return B
        if B.rank == 0:
            return A
        return LowRankOperator(
            A.grid,
            np.concatenate([A.coeffs, B.coeffs]),
            np.concatenate([A.left, B.left]),
            np.concatenate([A.right, B.right]),
        )
    return DenseOperator(A.grid, to_dense(A).kernel + to_dense(B).kernel)


def scale(A, c):
    if isinstance(A, LowRankOperator):
        return LowRankOperator(A.grid, c * A.coeffs, A.left, A.right)
    return DenseOperator(A.grid, c * A.kernel)


def adjoint(A):
    if isinstance(A, LowRankOperator):
        return LowRankOperator(A.grid, np.conj(A.coeffs), A.right, A.left)
    return DenseOperator(A.grid, np.conj(A.kernel).T)


def compose(A, B):
    """Operator product A B."""
    _check_same_grid(A.grid, B.grid)
    g = A.grid
    hd = g.h**g.d
    if isinstance(A, LowRankOperator) and isinstance(B, LowRankOperator):
        if A.rank == 0 or B.rank == 0:
            return LowRankOperator(g, np.zeros(0), np.zeros((0,) + g.shape), np.zeros((0,) + g.shape))
        # <v_n, p_m> couplings give rank min(Ra, Rb) after folding into coeffs.
        G = hd * (np.conj(A.right.reshape(A.rank, -1)) @ B.left.reshape(B.rank, -1).T)
        M = (A.coeffs[:, None] * G) * B.coeffs[None, :]
        # Keep rank small: A B = sum_m (sum_n M_nm |u_n>) <q_m|.
        newleft = np.tensordot(M.T, A.left, axes=(1, 0))
        return LowRankOperator(g, np.ones(B.rank, dtype=complex), newleft, B.right)
    return DenseOperator(g, hd * (to_dense(A).kernel @ to_dense(B).kernel))


def recompress(A: LowRankOperator, tol: float) -> LowRankOperator:
    """Singular-value truncation of the small core.

    Returns an operator within Hilbert-Schmidt distance tol * ||A||_{S^2}
    of A, in singular-value form (nonnegative coefficients, factor families
    orthonormal in the weighted inner product).
    """
    g = A.grid
    if A.rank == 0:
        return A
    s, Ql, Qr, Uc, Vch = _core_singular_values(A, return_factors=True)
    s2 = float(np.sqrt(np.sum(s**2)))
    keep = len(s)
    if s2 > 0 and tol > 0:
        tail = np.sqrt(np.cumsum(s[::-1] ** 2))[::-1]  # tail[k] = ||s[k:]||_2
        ok = np.nonzero(tail <= tol * s2)[0]
        keep = int(ok[0]) if len(ok) else len(s)
    w = np.sqrt(g.h**g.d)
    newleft = (Ql @ Uc[:, :keep]).T.reshape((keep,) + g.shape) / w
    newright = (Qr @ np.conj(Vch[:keep, :]).T).T.reshape((keep,) + g.shape) / w
    return LowRankOperator(g, s[:keep].astype(complex), newleft, newright)


def hermitian_defect(A) -> float:
    """||A - A^*||_{S^2} / ||A||_{S^2} (0 for the zero operator)."""
    nrm = schatten_norm(A, 2).value
    if nrm == 0:
        return 0.0
    diff = add(A, scale(adjoint(A), -1.0))
    return schatten_norm(diff, 2).value / nrm


def _orthonormal_factors(grid: Grid, rank: int, draw, hermitian: bool,
                         coeffs: np.ndarray | None) -> LowRankOperator:
    """The random factor draws' one tail: rank check, then a weighted orthonormalization
    of each (rank,) + grid.shape draw() (one draw when hermitian), default coefficients 1/n.

    The factors are orthonormalized by two passes of modified Gram-Schmidt whose
    inner products are np.sum reductions, not a LAPACK QR, so they are the same
    bits under every BLAS kernel.
    """
    if not 1 <= rank <= grid.npoints:
        raise ValueError(f"rank must be between 1 and {grid.npoints}, got {rank}")
    w = np.sqrt(grid.h**grid.d)

    def orthonormal():
        V = w * draw().reshape(rank, -1)
        for _ in range(2):
            for i, v in enumerate(V):
                for u in V[:i]:
                    v -= np.sum(np.conj(u) * v) * u
                v /= np.sqrt(np.sum(np.square(v.real) + np.square(v.imag)))
        return V.reshape((rank,) + grid.shape) / w

    left = orthonormal()
    right = left if hermitian else orthonormal()
    if coeffs is None:
        coeffs = 1.0 / np.arange(1, rank + 1)
    return LowRankOperator(grid, np.asarray(coeffs, dtype=complex), left, right)


def random_low_rank(
    grid: Grid,
    rank: int,
    rng: np.random.Generator,
    hermitian: bool = False,
    coeffs: np.ndarray | None = None,
) -> LowRankOperator:
    """Random smooth low-rank operator in singular-value form.

    Factors are frequency-localized gaussian draws, smoothed by the envelope
    (1+|xi|^2)^{-1} so Sobolev conjugations stay well conditioned.
    """
    env = bessel_multiplier(grid, -2.0)

    def draw():
        z = rng.standard_normal((rank,) + grid.shape) + 1j * rng.standard_normal(
            (rank,) + grid.shape
        )
        return _apply_multiplier_stack(env, z, grid)

    return _orthonormal_factors(grid, rank, draw, hermitian, coeffs)


def localized_low_rank(
    grid: Grid,
    rank: int,
    rng: np.random.Generator,
    width: float = 1.0,
    hermitian: bool = True,
    coeffs: np.ndarray | None = None,
) -> LowRankOperator:
    """Low-rank operator built from wavepackets centered in the box.

    Factors are a gaussian envelope times random low-degree polynomials and
    a slow modulation (frequency uniform in [-1/2, 1/2] per axis), so free
    evolution genuinely disperses them (unlike the delocalized draws of
    random_low_rank).  Factor families are orthonormalized in the weighted
    inner product.
    """
    if not 0 < width < np.inf:
        raise ValueError(f"width must be finite and positive, got {width}")
    xm = grid.x_mesh()
    env = np.exp(-sum(x**2 for x in xm) / (2 * width**2))
    monomials = [np.ones(grid.shape)]
    monomials += [x / width for x in xm]
    monomials += [(x / width) ** 2 for x in xm]

    def draw():
        stack = np.empty((rank,) + grid.shape, dtype=complex)
        for j in range(rank):
            c = rng.standard_normal(len(monomials)) + 1j * rng.standard_normal(len(monomials))
            poly = sum(cj * mj for cj, mj in zip(c, monomials))
            xi0 = rng.uniform(-0.5, 0.5, size=grid.d)
            stack[j] = env * poly * np.exp(1j * sum(xi0[a] * xm[a] for a in range(grid.d)))
        return stack

    return _orthonormal_factors(grid, rank, draw, hermitian, coeffs)
