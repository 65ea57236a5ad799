import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hartreelab.grid import (
    Field, _workers, apply_multiplier, bessel_multiplier, free_propagate, make_grid,
)
from hartreelab.linop import (
    LowRankOperator,
    _apply_multiplier_stack,
    _conjugate_multiplier,
    conjugate_free,
    random_low_rank,
    recompress,
)
from hartreelab import montecarlo
from hartreelab.montecarlo import (
    _mixed_norm_batch,
    analytic_abs_normal_moment,
    fit_moment_slope,
    full_moment_experiment,
    function_moment_experiment,
    key_estimate_probe,
    singular_moment_experiment,
    strichartz_admissible,
)
from hartreelab.norms import MomentTable, Trajectory, density_trajectory, mixed_norm, trapezoid_weights
from hartreelab.randomize import (
    SubgaussianFamily,
    full_randomize,
    sample_coefficients,
    sobolev_conjugated_randomize,
    wiener_randomize,
)


def test_slope_fit_recovers_power_law():
    orders = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    values = 3.0 * orders**0.5
    table = MomentTable(orders, values, np.zeros_like(values), 100, 0)
    fit = fit_moment_slope(table)
    assert abs(fit.slope - 0.5) < 1e-10
    assert abs(fit.intercept - np.log(3.0)) < 1e-10
    # no raw samples: the interval collapses onto the point estimate
    assert fit.ci_low == fit.slope == fit.ci_high


def test_slope_fit_flat_ensemble_is_exactly_zero():
    orders = np.array([2.0, 4.0, 8.0])
    values = np.full(3, 1.7)
    table = MomentTable(orders, values, np.zeros(3), 50, 0)
    fit = fit_moment_slope(table)
    assert fit.slope == 0.0 and fit.ci_low == 0.0 and fit.ci_high == 0.0


def test_slope_fit_bootstrap_interval_brackets_estimate():
    rng = np.random.default_rng(0)
    samples = np.abs(rng.standard_normal(400))
    table = MomentTable.from_samples(samples, [2.0, 4.0, 8.0, 16.0], seed=5)
    fit = fit_moment_slope(table)
    assert fit.ci_low <= fit.slope <= fit.ci_high
    assert fit.ci_high - fit.ci_low < 0.2


def test_strichartz_admissible():
    assert strichartz_admissible(6.0, 6.0, 1)
    assert strichartz_admissible(8.0, 4.0, 1)
    assert strichartz_admissible(np.inf, 2.0, 2)
    assert strichartz_admissible(2.0, 6.0, 3)
    assert not strichartz_admissible(2.0, np.inf, 2)  # excluded endpoint
    assert not strichartz_admissible(1.5, 12.0, 1)
    assert not strichartz_admissible(4.0, 3.0, 1)


def test_analytic_abs_normal_moments():
    assert abs(analytic_abs_normal_moment(2) - 1.0) < 1e-14
    assert abs(analytic_abs_normal_moment(4) - 3.0) < 1e-14
    assert abs(analytic_abs_normal_moment(1) - np.sqrt(2 / np.pi)) < 1e-14


def test_singular_experiment_basic_run():
    fam = SubgaussianFamily("gaussian", 101)
    table = singular_moment_experiment(
        1, 32, 16.0, 4, 0.5, 8.0, 4.0, fam, M=200, orders=[2.0, 4.0, 8.0, 16.0], T=0.25, n_frames=9
    )
    assert table.n_samples == 200
    assert table.check_monotone()
    fit = fit_moment_slope(table)
    # coefficient randomization grows like r^{1/2} at most
    assert fit.ci_high < 0.65
    assert table.meta["experiment"] == "singular"


def test_singular_experiment_batching_independence():
    fam = SubgaussianFamily("rademacher", 55)
    kwargs = dict(T=0.25, n_frames=5, orders=[2.0, 4.0])
    a = singular_moment_experiment(1, 32, 16.0, 3, 0.5, 8.0, 4.0, fam, M=40, **kwargs)
    b = singular_moment_experiment(1, 32, 16.0, 3, 0.5, 8.0, 4.0, fam, M=60, **kwargs)
    assert np.array_equal(a.samples, b.samples[:40])
    # blocks of 2 draws at M = 10 and 17, of 5 at M = 41: no product takes one draw
    for M in (10, 17, 41):
        c = singular_moment_experiment(1, 32, 16.0, 3, 0.5, 8.0, 4.0, fam, M=M, **kwargs)
        assert np.array_equal(c.samples, b.samples[:M])


def _singular_reference(grid, operator, sigma, p, q, family, M, T, n_frames):
    """The singular ensemble's samples in complex arithmetic, with the general power."""
    A = recompress(_conjugate_multiplier(operator, bessel_multiplier(grid, sigma)), tol=0.0)
    B = _conjugate_multiplier(A, bessel_multiplier(grid, -sigma))
    times = np.linspace(0.0, T, n_frames)
    modes = np.empty((A.rank, n_frames) + grid.shape, dtype=complex)
    for k, t in enumerate(times):
        Bt = conjugate_free(B, t)
        modes[:, k] = _apply_multiplier_stack(bessel_multiplier(grid, sigma),
                                              Bt.left * np.conj(Bt.right), grid)
    C = np.array([A.coeffs * sample_coefficients(family, A.rank, m) for m in range(M)])
    fields = np.tensordot(C, modes, axes=(1, 0))
    space = tuple(range(2, fields.ndim))
    s = (grid.h**grid.d * np.sum(np.abs(fields) ** q, axis=space)) ** (1.0 / q)
    w = trapezoid_weights(times)
    return np.sum(w * s**p, axis=1) ** (1.0 / p), modes


@pytest.mark.parametrize("hermitian", [True, False])
def test_singular_real_path_matches_complex_reference(hermitian):
    # Hermitian data have real mode densities and take the real product; a
    # non-Hermitian operator keeps the imaginary half of its densities.
    grid = make_grid(2, 8, 8.0)
    op = random_low_rank(grid, 3, np.random.default_rng(5), hermitian=hermitian)
    fam = SubgaussianFamily("gaussian", 77)
    kwargs = dict(sigma=2.0 / 3.0, p=3.0, q=3.0, family=fam, M=30, T=0.25, n_frames=5)
    table = singular_moment_experiment(2, 8, 8.0, 3, orders=[4.0, 8.0], operator=op, **kwargs)
    want, modes = _singular_reference(grid, op, **kwargs)
    imag = np.max(np.abs(modes.imag)) / np.max(np.abs(modes.real))
    assert imag < 1e-13 if hermitian else imag > 0.1
    np.testing.assert_allclose(table.samples, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 4.0, 6.0, 2.5, np.inf])
@pytest.mark.parametrize("p", [2.0, np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_mixed_norm_batch_matches_the_general_power(q, p, dtype, monkeypatch):
    rng = np.random.default_rng(3)
    fields = rng.standard_normal((4, 5, 6, 7)).astype(dtype)
    if dtype is complex:
        fields += 1j * rng.standard_normal(fields.shape)
    w = trapezoid_weights(np.linspace(0.0, 1.0, 5))
    a = np.abs(fields)
    s = a.max(axis=(2, 3)) if np.isinf(q) else (0.3 * np.sum(a**q, axis=(2, 3))) ** (1.0 / q)
    want = s.max(axis=1) if np.isinf(p) else np.sum(w * s**p, axis=1) ** (1.0 / p)
    got = _mixed_norm_batch(fields, w, 0.3, p, q)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # draws are taken in chunks; a chunk of one draw gives the same bits
    monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 1)
    assert np.array_equal(_mixed_norm_batch(fields, w, 0.3, p, q), got)


def test_singular_experiment_validates_exponents():
    fam = SubgaussianFamily("gaussian", 1)
    with pytest.raises(ValueError):
        singular_moment_experiment(1, 32, 16.0, 3, 0.5, 8.0, 5.0, fam, M=5, orders=[2.0])
    with pytest.raises(ValueError):
        singular_moment_experiment(1, 32, 16.0, 3, 0.5, 8.0, 4.0, fam, M=0, orders=[2.0])


def test_singular_degenerate_family_is_flat():
    fam = SubgaussianFamily("degenerate", 0)
    table = singular_moment_experiment(
        1, 32, 16.0, 3, 0.5, 8.0, 4.0, fam, M=16, orders=[2.0, 4.0, 8.0], T=0.25, n_frames=5
    )
    assert np.allclose(table.values, table.values[0])
    assert fit_moment_slope(table).slope == 0.0


def test_full_experiment_single_cell_matches_analytic():
    # one integer frequency mode on a box of circumference 2*pi: the wiener
    # weight acts as a single scalar ell on the only occupied cell, the
    # density has constant modulus, and the sample is |g| ell^2 * const.
    L = 2 * np.pi
    g = make_grid(1, 32, L)
    vec = np.exp(1j * g.x_axis)  # frequency exactly 1
    vec = vec / np.sqrt(g.h * np.sum(np.abs(vec) ** 2))
    A = LowRankOperator(g, np.array([1.0]), vec[None], vec[None])
    fam_g = SubgaussianFamily("gaussian", 77)
    fam_l = SubgaussianFamily("degenerate", 0)
    orders = [4.0, 8.0]
    table = full_moment_experiment(
        1, 32, L, 1, 4.0, 2.0, 4.0, fam_g, fam_l, M=4000, orders=orders,
        T=0.25, n_frames=5, operator=A,
    )
    # per-draw statistic is |g| times a fixed positive constant, so the
    # normalized moments match the absolute normal moments
    base = table.samples / np.abs(table.samples).mean() * analytic_abs_normal_moment(1)
    for r in orders:
        emp = np.mean(base**r) ** (1.0 / r)
        exact = analytic_abs_normal_moment(r) ** (1.0 / r)
        spread = np.std(base**r) / np.sqrt(len(base)) / (r * emp ** (r - 1))
        assert abs(emp - exact) < 4 * max(spread, 1e-3)


def test_full_experiment_slope_bound():
    fam_g = SubgaussianFamily("gaussian", 303)
    fam_l = SubgaussianFamily("gaussian", 404)
    table = full_moment_experiment(
        2, 16, 8.0, 4, 2.0, 2.0, 4.0, fam_g, fam_l, M=100,
        orders=[4.0, 8.0, 16.0], T=0.25, n_frames=5,
    )
    fit = fit_moment_slope(table)
    # full randomization grows like r^{3/2} at most
    assert fit.ci_high < 1.65
    assert table.check_monotone()


def test_full_experiment_validates_exponents():
    fam = SubgaussianFamily("gaussian", 1)
    with pytest.raises(ValueError):
        full_moment_experiment(2, 16, 8.0, 3, 2.0, 3.0, 4.0, fam, fam, M=5, orders=[4.0])
    with pytest.raises(ValueError):
        full_moment_experiment(2, 16, 8.0, 3, 2.0, 2.0, 4.0, fam, fam, M=5, orders=[3.0])
    with pytest.raises(ValueError, match="orders must be non-empty"):
        full_moment_experiment(2, 16, 8.0, 3, 2.0, 2.0, 4.0, fam, fam, M=5, orders=[])


def test_function_experiment_runs_and_validates():
    fam = SubgaussianFamily("gaussian", 99)
    table = function_moment_experiment(
        1, 32, 16.0, 6.0, 6.0, 6.0, fam, M=100, orders=[8.0, 16.0, 32.0], T=0.25, n_frames=5
    )
    assert table.check_monotone()
    fit = fit_moment_slope(table)
    assert fit.ci_high < 0.65
    with pytest.raises(ValueError):
        function_moment_experiment(1, 32, 16.0, 6.0, 3.0, 6.0, fam, M=5, orders=[8.0])
    with pytest.raises(ValueError):
        function_moment_experiment(1, 32, 16.0, 6.0, 6.0, 6.0, fam, M=5, orders=[4.0])
    with pytest.raises(ValueError, match="got -1.0"):
        function_moment_experiment(1, 32, 16.0, 6.0, 6.0, 6.0, fam, M=5, orders=[8.0], T=-1.0)


def test_ensembles_refuse_a_problem_larger_than_memory(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the operator was drawn before the size check")

    monkeypatch.setattr(montecarlo, "random_low_rank", no_draw)
    # a host with 8 pages (32 KB) of physical memory: less than the few (17, 32)
    # complex stacks (8.7 KB each) that each ensemble holds at rank 2
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8}.get)
    fam, fam2 = SubgaussianFamily("gaussian", 1), SubgaussianFamily("rademacher", 2)
    experiments = {
        "singular_moment_experiment":
            lambda: singular_moment_experiment(1, 32, 16.0, 2, 0.0, 4, 2, fam, 10, [4.0, 8.0]),
        "full_moment_experiment":
            lambda: full_moment_experiment(1, 32, 16.0, 2, 4, 2, 4, fam, fam2, 10, [4.0, 8.0]),
        "function_moment_experiment":
            lambda: function_moment_experiment(1, 32, 16.0, 8, 4, 4, fam, 10, [8.0, 12.0]),
    }
    for name, call in experiments.items():
        with pytest.raises(ValueError, match=rf"{name} would hold .* \(17, 32\) .* of physical memory"):
            call()


@pytest.mark.parametrize("case", ["full-drawn", "full-given", "function", "singular"])
def test_ensemble_sample_is_the_reference_randomization(case, monkeypatch):
    # sample m is the statistic of draw m built from randomize.py, the free flow
    # of norms / grid and mixed_norm: the drawn Hermitian and a given
    # non-Hermitian full ensemble (its complex branch), the function ensemble on
    # its default gaussian, and the Sobolev-conjugated singular ensemble
    d, n, L, M, T, F = 2, 16, 8.0, 4, 0.25, 5
    grid = make_grid(d, n, L)
    times = np.linspace(0.0, T, F)
    fam_g, fam_l = SubgaussianFamily("gaussian", 5), SubgaussianFamily("rademacher", 6)
    if case.startswith("full"):
        drawn = []

        def draw(*args, **kwargs):
            drawn.append(random_low_rank(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(montecarlo, "random_low_rank", draw)
        op = None if case == "full-drawn" else random_low_rank(
            grid, 3, np.random.default_rng(9), hermitian=False)
        table = full_moment_experiment(d, n, L, 3, 2.0, 2.0, 4.0, fam_g, fam_l, M, [4.0],
                                       T=T, n_frames=F, operator=op)
        A = recompress(drawn[0] if op is None else op, tol=0.0)
        assert np.allclose(A.left, A.right) == (op is None)

        def stat(m):
            B = full_randomize(A, fam_g, fam_l, stream_g=m, stream_ell=m)
            return mixed_norm(density_trajectory(B, times), 2.0, 4.0)
    elif case == "function":
        table = function_moment_experiment(d, n, L, 4.0, 4.0, 4.0, fam_l, M, [4.0], T=T, n_frames=F)
        f = Field(grid, np.exp(-sum(x**2 for x in grid.x_mesh()) / 2.0))

        def stat(m):
            fw = wiener_randomize(f, fam_l, stream_id=m)
            return mixed_norm(Trajectory(times, [free_propagate(fw, t) for t in times]), 4.0, 4.0)
    else:
        sigma = 2.0 / 3.0
        op = random_low_rank(grid, 3, np.random.default_rng(9), hermitian=True)
        table = singular_moment_experiment(d, n, L, 3, sigma, 3.0, 3.0, fam_g, M, [4.0],
                                           T=T, n_frames=F, operator=op)
        weight = bessel_multiplier(grid, sigma)

        def stat(m):
            B = sobolev_conjugated_randomize(op, sigma, "singular", family_g=fam_g, stream_g=m)
            rho = density_trajectory(B, times)
            return mixed_norm(Trajectory(times, [apply_multiplier(weight, r) for r in rho.frames]),
                              3.0, 3.0)
    want = [stat(m) for m in range(M)]
    np.testing.assert_allclose(table.samples, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("given", [False, True])
def test_full_ensemble_peak_memory(given):
    # The draw loop reuses its buffers: the drawn Hermitian operator holds one
    # phased side and its transform (2 rank stacks), a given non-symmetric one
    # both sides (4 rank stacks) and conjugates the right transform in place.
    # Everything else (phases, density, the norm's chunk, the factors, the
    # separable frequency weight) stays under 6 stacks.
    d, n, L, rank, F = 2, 64, 50.0, 4, 17
    grid = make_grid(d, n, L)
    op = random_low_rank(grid, rank, np.random.default_rng(3), hermitian=False) if given else None
    fam_g, fam_l = SubgaussianFamily("gaussian", 1), SubgaussianFamily("gaussian", 2)

    def run(M):
        full_moment_experiment(d, n, L, rank, 2.0, 2.0, 4.0, fam_g, fam_l, M, [4.0],
                               n_frames=F, operator=op)

    run(1)  # first-call caches (FFT plans, grid tables) are not the experiment's
    tracemalloc.start()
    try:
        run(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = F * grid.npoints * np.dtype(complex).itemsize
    assert peak / stack <= (4 if given else 2) * rank + 6


def test_key_probe_bounded_and_refinement_stable():
    res = key_estimate_probe(1, 32, 16.0, 3, 4.0 / 3.0, 2.0, 2, T=0.5, n_steps=16, n_instances=4)
    fine = key_estimate_probe(1, 32, 16.0, 3, 4.0 / 3.0, 2.0, 2, T=0.5, n_steps=32, n_instances=4)
    assert res.max_ratio < 10.0
    assert np.max(np.abs(res.ratios - fine.ratios) / fine.ratios) < 0.05


def test_key_probe_validates_arguments():
    with pytest.raises(ValueError):
        key_estimate_probe(1, 32, 16.0, 3, 1.5, 2.0, 2, 0.5, 8, 1)  # mu too big at d=1
    with pytest.raises(ValueError):
        key_estimate_probe(2, 16, 8.0, 3, 2.0, 2.0, 2, 0.5, 8, 1)  # mu must be < 2 at d=2
    with pytest.raises(ValueError):
        key_estimate_probe(1, 32, 16.0, 3, 1.0, 2.0, 3, 0.5, 8, 1)  # alpha not in {2, inf}


def _force_workers(monkeypatch, W):
    # W usable cores: the ensembles then run W threads, on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(W)), raising=False)


def _ensemble(kind, M, given):
    d, n, L, F = 2, 16, 8.0, 5
    grid = make_grid(d, n, L)
    fam_g, fam_l = SubgaussianFamily("gaussian", 5), SubgaussianFamily("rademacher", 6)
    op = random_low_rank(grid, 3, np.random.default_rng(9), hermitian=False) if given else None
    if kind == "singular":
        return singular_moment_experiment(d, n, L, 3, 2.0 / 3.0, 3.0, 3.0, fam_g, M, [4.0],
                                          T=0.25, n_frames=F, operator=op)
    if kind == "full":
        return full_moment_experiment(d, n, L, 3, 2.0, 2.0, 4.0, fam_g, fam_l, M, [4.0],
                                      T=0.25, n_frames=F, operator=op)
    return function_moment_experiment(d, n, L, 4.0, 4.0, 4.0, fam_l, M, [4.0], T=0.25, n_frames=F)


@pytest.mark.parametrize("M", [2, 19])
@pytest.mark.parametrize("kind, given", [("singular", False), ("singular", True),
                                         ("full", False), ("full", True), ("function", False)])
def test_ensembles_are_the_same_bits_on_any_number_of_workers(kind, given, M, monkeypatch):
    # draw m is the same computation on whichever worker takes it, and a full
    # draw split into chunks of frames keeps each frame's sums: M = 2 is fewer
    # full draws than workers and one block of 2; M = 19 is no multiple of 2 or
    # 3, and its blocks of 2 draws end in a block of 3; 5 frames split unevenly
    tables = {}
    for W in (1, 2, 3):
        _force_workers(monkeypatch, W)
        tables[W] = _ensemble(kind, M, given)
        # at most one worker per full draw, or per 2 (M = 2) or 3 draws (M = 19) of a block
        assert tables[W].meta["workers"] == min(W, M if kind == "full" else {2: 1, 19: 6}[M])
    assert np.array_equal(tables[1].samples, tables[2].samples)
    assert np.array_equal(tables[1].samples, tables[3].samples)


@pytest.mark.parametrize("kind, given", [("singular", True), ("full", False), ("full", True),
                                         ("function", False)])
def test_more_workers_than_cores_under_fast_switching(kind, given, monkeypatch):
    # 8 threads (one per frame, 5, for the full ensemble) on any host, switching
    # every 10 microseconds: each worker writes only its own draws' samples, so
    # none is lost or written twice
    _force_workers(monkeypatch, 1)
    want = _ensemble(kind, 24, given).samples
    _force_workers(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = _ensemble(kind, 24, given)
    finally:
        sys.setswitchinterval(interval)
    assert got.meta["workers"] == (5 if kind == "full" else 8)
    assert np.array_equal(got.samples, want)


@pytest.mark.parametrize("kind", ["singular", "full", "function"])
def test_a_worker_error_reaches_the_caller(kind, monkeypatch):
    # draw 5 fails on whichever worker takes it; the caller sees its ValueError,
    # not NaN samples, and every worker thread has ended
    _force_workers(monkeypatch, 3)
    baseline = threading.active_count()

    def failing(family, count, stream_id=0):
        if stream_id == 5:
            raise ValueError("draw 5 failed")
        return sample_coefficients(family, count, stream_id)

    monkeypatch.setattr(montecarlo, "sample_coefficients", failing)
    with pytest.raises(ValueError, match="draw 5 failed"):
        _ensemble(kind, 9, False)
    assert threading.active_count() == baseline


def test_a_worker_error_stops_the_other_workers(monkeypatch):
    # once draw 5 has failed, each other worker samples at most the draw it is in
    _force_workers(monkeypatch, 3)
    after = []

    def failing(family, count, stream_id=0):
        if after:
            after.append(stream_id)
        if stream_id == 5:
            after.append(stream_id)
            raise ValueError("draw 5 failed")
        return sample_coefficients(family, count, stream_id)

    monkeypatch.setattr(montecarlo, "sample_coefficients", failing)
    with pytest.raises(ValueError, match="draw 5 failed"):
        _ensemble("full", 300, False)
    assert len(after) <= 1 + 2 * 2  # two samples (g, ell) per full draw


@pytest.mark.parametrize("kind", ["singular", "full", "function"])
def test_one_usable_core_starts_no_thread(kind, monkeypatch):
    _force_workers(monkeypatch, 1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started on one usable core")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert _ensemble(kind, 7, False).meta["workers"] == 1


def test_workers_fall_back_to_the_cpu_count(monkeypatch):
    # hosts without an affinity call count their cores, and at most one per part
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _workers(10) == 3 and _workers(2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _workers(10) == 1


@pytest.mark.parametrize("given", [False, True])
def test_full_ensemble_peak_memory_on_two_workers(given, monkeypatch):
    # two workers each hold the transforms of half a draw's frames: the same bound
    _force_workers(monkeypatch, 2)
    test_full_ensemble_peak_memory(given)


@pytest.mark.parametrize("given", [False, True])
def test_full_ensemble_on_more_cores_than_frames_holds_one_draw(given, monkeypatch):
    # 8 cores, 8 draws, 5 frames: 5 workers of one frame each hold one draw's
    # transforms; each further worker adds at most the memory rule's 4 N-vectors
    d, n, L, rank, F = 2, 64, 50.0, 4, 5
    grid = make_grid(d, n, L)
    op = random_low_rank(grid, rank, np.random.default_rng(3), hermitian=False) if given else None
    fam_g, fam_l = SubgaussianFamily("gaussian", 1), SubgaussianFamily("gaussian", 2)
    stack = F * grid.npoints * np.dtype(complex).itemsize
    peaks = {}
    for W in (1, 8):
        _force_workers(monkeypatch, W)

        def run(M):
            return full_moment_experiment(d, n, L, rank, 2.0, 2.0, 4.0, fam_g, fam_l, M, [4.0],
                                          n_frames=F, operator=op)

        run(1)  # first-call caches (FFT plans, grid tables) are not the experiment's
        tracemalloc.start()
        try:
            assert run(8).meta["workers"] == min(W, F)
            peaks[W] = tracemalloc.get_traced_memory()[1] / stack
        finally:
            tracemalloc.stop()
    W = min(8, F)
    assert peaks[8] <= (4 if given else 2) * rank + 4 + (6 * rank + 24 + 4 * W) / F
    assert peaks[8] <= peaks[1] + 4 * (W - 1) / F


@pytest.mark.parametrize("kind", ["singular", "function"])
def test_block_ensembles_hold_at_most_one_block_on_any_workers(kind, monkeypatch):
    # Draws go in blocks of b = held // 8, the same for any number of workers, and
    # each worker holds one block at a time: more workers add their blocks, never
    # more than the held = min(block, M) draws of one single-threaded block.  At
    # d=2, N = 1024, 17 frames, block = 229 draws, so b = 28 and at most 8 workers.
    M, F, N = 400, 17, 1024
    held, b = 229, 28
    # one draw's frames: real for the Hermitian singular ensemble, complex plus
    # its frequency weight for the function ensemble
    draw = F * N * 8 if kind == "singular" else F * N * 16 + N * 8
    fam = SubgaussianFamily("gaussian", 4)

    def run(M):
        if kind == "singular":
            return singular_moment_experiment(2, 32, 12.0, 4, 2.0 / 3.0, 3.0, 3.0, fam, M, [4.0])
        return function_moment_experiment(2, 32, 12.0, 4.0, 4.0, 4.0, fam, M, [4.0])

    peaks = {}
    for W in (1, 2, 8, 16):
        _force_workers(monkeypatch, W)
        run(2)  # first-call caches (FFT plans, grid tables) are not the experiment's
        tracemalloc.start()
        try:
            assert run(M).meta["workers"] == min(W, held // b)
            peaks[W] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for W in (2, 8, 16):
        assert peaks[W] - peaks[1] <= (min(W, held // b) - 1) * b * draw + 0.05 * held * draw
    assert peaks[16] - peaks[1] <= (held - b) * draw
