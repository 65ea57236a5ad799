"""Periodic spatial/frequency grid and translation-invariant operator calculus.

The computational domain is the torus [-L/2, L/2)^d sampled with n points per
axis.  The frequency lattice is xi_j = 2*pi*j/L for j in {-n/2, ..., n/2-1};
the Nyquist index sits on the negative side and symbols are evaluated there
as given.

Fourier convention: the forward transform carries the quadrature weight h^d
and the phase e^{-i xi.x}; the inverse carries the weight 1/L^d.  Diagonal
multiplier application is phase-free (the boundary-offset phases cancel), so
it reduces to plain FFTs: _apply_multiplier_stack is the package's one
F^{-1} m F pass, over the grid axes of a field, a factor stack or either
index of a dense kernel.  _check_memory is the one size rule for the paths
that hold dense kernels or (frames, N) stacks, _workers the one rule for
how many threads a path may run, _Helper the one worker thread and _in_threads
the one runner of those threads.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

try:
    import resource
except ImportError:  # not on every platform
    resource = None

__all__ = [
    "Grid",
    "Field",
    "FourierMultiplier",
    "make_grid",
    "fourier_forward",
    "fourier_inverse",
    "free_propagator",
    "free_propagate",
    "apply_multiplier",
    "convolve_potential",
    "bessel_multiplier",
    "identity_multiplier",
    "multiplier_from_function",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^d.

    Immutable after construction; safe to share between threads.
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"points per axis must be a power of two >= 8, got {self.n}")
        if not 0 < self.L < np.inf:
            raise ValueError(f"box side must be finite and positive, got {self.L}")

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def x_axis(self) -> np.ndarray:
        """Spatial samples along one axis, index order m=0..n-1."""
        return -self.L / 2 + self.h * np.arange(self.n)

    @property
    def xi_axis(self) -> np.ndarray:
        """Frequency lattice along one axis in FFT (wrapped) index order."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.L

    def x_mesh(self) -> list:
        """Spatial coordinate arrays, one per axis, each of shape self.shape."""
        return list(np.meshgrid(*([self.x_axis] * self.d), indexing="ij"))

    def xi_mesh(self) -> list:
        """Frequency coordinate arrays in FFT order, one per axis."""
        return list(np.meshgrid(*([self.xi_axis] * self.d), indexing="ij"))

    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the frequency mesh: built once per grid, read-only."""
        return self._xi_squared

    @cached_property
    def _xi_squared(self) -> np.ndarray:
        xi2 = sum(x**2 for x in self.xi_mesh())
        xi2.flags.writeable = False
        return xi2

    def _phase(self) -> np.ndarray:
        # e^{-i xi x0} per axis, x0 = -L/2; product over axes.
        p1 = np.exp(-1j * self.xi_axis * (-self.L / 2))
        return reduce(np.multiply.outer, [p1] * self.d) if self.d > 1 else p1


@dataclass
class Field:
    """Complex-valued function sampled on a grid.

    values has shape grid.shape.  The L^2 inner product carries the
    quadrature weight h^d.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )

    def inner(self, other: "Field") -> complex:
        _check_same_grid(self.grid, other.grid)
        return self.grid.h**self.grid.d * np.vdot(self.values, other.values)

    def norm_l2(self) -> float:
        return float(np.sqrt(self.grid.h**self.grid.d) * np.linalg.norm(self.values))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self.grid, other.grid)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c) -> "Field":
        return Field(self.grid, self.values * c)

    __rmul__ = __mul__


@dataclass
class FourierMultiplier:
    """Translation-invariant operator F^{-1} m(xi) F.

    symbol has shape grid.shape in FFT frequency order.
    """

    grid: Grid
    symbol: np.ndarray

    def __post_init__(self):
        self.symbol = np.asarray(self.symbol, dtype=complex)
        if self.symbol.shape != self.grid.shape:
            raise ValueError("symbol shape does not match grid")

    def __mul__(self, other: "FourierMultiplier") -> "FourierMultiplier":
        _check_same_grid(self.grid, other.grid)
        return FourierMultiplier(self.grid, self.symbol * other.symbol)

    def real_space_kernel(self) -> np.ndarray:
        """Values of the convolution kernel at displacements m*h (index m)."""
        return np.fft.ifftn(self.symbol) * (self.grid.n / self.grid.L) ** self.grid.d


def _check_same_grid(a: Grid, b: Grid):
    if a is not b and a != b:
        raise ValueError("grid mismatch")


def make_grid(d: int, n: int, L: float) -> Grid:
    return Grid(d=d, n=n, L=float(L))


def fourier_forward(u: Field) -> np.ndarray:
    """Weighted forward transform: u_hat(xi) = h^d sum_x e^{-i xi x} u(x)."""
    g = u.grid
    return g.h**g.d * g._phase() * np.fft.fftn(u.values)


def fourier_inverse(grid: Grid, u_hat: np.ndarray) -> Field:
    """Inverse of fourier_forward: u(x) = L^{-d} sum_xi e^{i xi x} u_hat(xi)."""
    vals = np.fft.ifftn(u_hat * np.conj(grid._phase())) * (grid.n / grid.L) ** grid.d
    return Field(grid, vals)


def identity_multiplier(grid: Grid) -> FourierMultiplier:
    return FourierMultiplier(grid, np.ones(grid.shape))


def multiplier_from_function(grid: Grid, fn) -> FourierMultiplier:
    """Build a multiplier by evaluating fn on the frequency mesh arrays."""
    return FourierMultiplier(grid, np.asarray(fn(*grid.xi_mesh()), dtype=complex))


def bessel_multiplier(grid: Grid, s: float) -> FourierMultiplier:
    """Sobolev weight <xi>^s = (1 + |xi|^2)^{s/2}."""
    return FourierMultiplier(grid, (1.0 + grid.xi_squared()) ** (s / 2.0))


def free_propagator(grid: Grid, t: float) -> FourierMultiplier:
    """Free Schroedinger group at time t; frequency symbol e^{-i t |xi|^2}."""
    return FourierMultiplier(grid, np.exp(-1j * t * grid.xi_squared()))


def _apply_multiplier_stack(m: FourierMultiplier, a: np.ndarray, grid: Grid,
                            leading: bool = False) -> np.ndarray:
    """F^{-1}(m . F a) over the last d axes of a (a field, a factor stack, a kernel
    viewed as (N,) + grid.shape), or with leading its first d (grid.shape + (N,)).
    """
    extra = a.ndim - grid.d  # axes before the grid axes, or after them with leading
    if leading:
        axes, sym = tuple(range(grid.d)), m.symbol.reshape(grid.shape + (1,) * extra)
    else:
        axes, sym = tuple(range(extra, a.ndim)), m.symbol
    return np.fft.ifftn(sym * np.fft.fftn(a, axes=axes), axes=axes)


def apply_multiplier(m: FourierMultiplier, u: Field) -> Field:
    """Apply F^{-1}(m . F u).  Phase factors cancel for diagonal symbols."""
    _check_same_grid(m.grid, u.grid)
    return Field(u.grid, _apply_multiplier_stack(m, u.values, u.grid))


def free_propagate(u: Field, t: float) -> Field:
    if not np.all(np.isfinite(u.values)):
        raise ValueError("field has non-finite values")
    return apply_multiplier(free_propagator(u.grid, t), u)


def convolve_potential(w_hat: FourierMultiplier, rho: Field) -> Field:
    """Torus convolution w * rho implemented as w_hat(xi) rho_hat(xi)."""
    _check_same_grid(w_hat.grid, rho.grid)
    out = apply_multiplier(w_hat, rho)
    return out


def _usable_cores() -> int:
    """Cores this process may run on: its affinity set, or the CPU count where the
    platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(parts: int) -> int:
    """Threads for parts independent pieces of work: one per usable core, at most parts.

    The one core rule: the ensembles, the Picard sweep and the linearized solve's
    frequency stages size their threads by it.
    """
    return max(1, min(_usable_cores(), parts))


class _Helper:
    """One helper thread that runs the calls it is given in order; the caller takes
    their results in the same order.

    A call's exception is raised again, itself, where its result is taken.  close()
    lets the running call finish, ends the thread and joins it, so nothing the
    calls reached outlives the caller.
    """

    def __init__(self, name: str):
        self._calls, self._results = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def _run(self):
        while (call := self._calls.get()) is not None:
            try:
                self._results.put((call(), None))
            except BaseException as e:  # handed to the caller, which raises it
                self._results.put((None, e))

    def submit(self, call):
        self._calls.put(call)

    def result(self):
        value, error = self._results.get()
        if error is not None:
            raise error
        return value

    def close(self):
        self._calls.put(None)
        self._thread.join()


def _in_threads(W: int, work) -> None:
    """Run work(0, stop), ..., work(W - 1, stop), each on a _Helper of its own; W = 1
    runs inline, with no thread.

    The one thread runner, of the ensembles and the linearized solve.  numpy's
    FFT, matmul, einsum and reductions release the GIL, so the workers overlap.
    Each work loop returns once the event stop is set, which a failing worker
    or an interrupted caller sets: the other workers end at their next piece of
    work, and the worker's exception is re-raised here, itself.
    """
    stop = threading.Event()
    if W == 1:
        work(0, stop)
        return

    def run(i):
        try:
            work(i, stop)
        except BaseException:
            stop.set()
            raise

    helpers = []
    try:
        for i in range(W):
            helpers.append(_Helper(f"worker-{i}"))
            helpers[i].submit(lambda i=i: run(i))
        for helper in helpers:
            helper.result()
    finally:
        stop.set()
        for helper in helpers:
            helper.close()


def _check_memory(grid: Grid, what: str, kernels: int = 0, stacks: float = 0, frames: int = 0):
    """Refuse, before it allocates, a path holding kernels dense N x N kernels
    and stacks (frames, N) stacks, all complex.

    The one size rule: a ValueError names the byte estimate when it exceeds
    physical memory or the process's soft address-space limit (RLIMIT_AS),
    where one is set.  A bound the host does not report is not checked.
    """
    N = grid.npoints
    need = (kernels * N + stacks * frames) * N * np.dtype(complex).itemsize
    bounds = []
    try:
        bounds.append((os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                       "of physical memory"))
    except (AttributeError, ValueError, OSError):
        pass
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            bounds.append((soft, "address-space limit of this process (RLIMIT_AS)"))
    have, limit = min(bounds, default=(float("inf"), ""))
    if need > have:
        held = [f"{kernels} dense {N}x{N} kernels"] if kernels else []
        held += [f"{stacks:g} ({frames}, {N}) frequency stacks"] if stacks else []
        raise ValueError(
            f"{what} would hold about {need / 1e9:.1f} GB ({' and '.join(held)}), more "
            f"than the {have / 1e9:.1f} GB {limit}; "
            "use a coarser grid or fewer time steps"
        )
