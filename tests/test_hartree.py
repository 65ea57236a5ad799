import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreelab.cli import _background_from_config, _get, _initial_operator, _load_config
from hartreelab.grid import Field, convolve_potential, make_grid
from hartreelab import hartree
from hartreelab.hartree import (
    _background_commutator,
    _kernel_free_conj,
    _to_mom,
    _to_x,
    background_density,
    calibrate_l1_constant,
    dense_rk4_oracle,
    duhamel_series,
    gamma_f_kernel,
    l1_apply_direct,
    l1_apply_fourier,
    linearized_solve,
    make_background,
    picard_solve,
    randomized_lwp_pipeline,
    scattering_diagnostic,
    spectrum_drift,
    stationarity_residual,
)
from hartreelab.linop import (
    DenseOperator,
    LowRankOperator,
    _commutator_kernel,
    _kernel_schatten,
    conjugate_free,
    density,
    localized_low_rank,
    random_low_rank,
    schatten_norm,
    to_dense,
)
from hartreelab.norms import Trajectory, density_trajectory
from hartreelab.randomize import SubgaussianFamily

DATA = Path(__file__).parent / "data"

def _small_data(grid, rank=3, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    A = random_low_rank(grid, rank, rng, hermitian=True)
    return LowRankOperator(grid, scale * A.coeffs, A.left, A.right)


def test_background_construction_and_density():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta", f_scale=2.0)
    assert bg.f_is_even
    assert background_density(bg) == pytest.approx(2.0 * np.sum(np.exp(-g.xi_squared())) / g.L)
    with pytest.raises(ValueError):
        make_background(g, "lorentzian", "delta")
    with pytest.raises(ValueError):
        make_background(g, "gaussian", "coulomb")
    zero = make_background(g, "zero", "zero")
    assert background_density(zero) == 0.0


def test_stationarity_of_shipped_backgrounds():
    g = make_grid(1, 32, 16.0)
    for f in ("gaussian", "fermi-sea"):
        for w in ("delta", "gaussian"):
            bg = make_background(g, f, w)
            assert stationarity_residual(bg) <= 1e-10


def test_gamma_f_kernel_is_translation_invariant():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    kf = gamma_f_kernel(bg)
    # Toeplitz structure: kernel depends only on x - y
    first_row = kf[0]
    for i in range(1, g.n):
        assert np.max(np.abs(kf[i] - np.roll(first_row, i))) < 1e-12
    assert np.max(np.abs(kf - np.conj(kf).T)) < 1e-12


def test_duhamel_zero_potential_and_zero_time():
    g = make_grid(1, 32, 16.0)
    Q = _small_data(g)
    times = np.linspace(0.0, 0.2, 9)
    V = Trajectory(times, [Field(g, np.zeros(g.shape)) for _ in times])
    out = duhamel_series(V, Q)
    for term in out:
        assert schatten_norm(term, 2).value < 1e-14
    assert schatten_norm(out[0], 2).value == 0.0


def test_duhamel_series_refuses_a_list_of_the_wrong_length():
    g = make_grid(1, 8, 4.0)
    times = np.linspace(0.0, 0.2, 5)
    V = Trajectory(times, [Field(g, np.zeros(g.shape)) for _ in times])
    Q = _small_data(g)
    for frames in ([Q] * 4, [Q] * 6):
        with pytest.raises(ValueError, match=f"A has {len(frames)} operators but V has 5 times"):
            duhamel_series(V, frames)


def test_duhamel_small_time_quadratic_commutator_scaling():
    # with V(t) = t * v the leading Duhamel term scales like t^2
    g = make_grid(1, 32, 16.0)
    Q = _small_data(g)
    v = np.cos(2 * np.pi * g.x_axis / g.L)
    norms = {}
    for T in (0.02, 0.01):
        times = np.linspace(0.0, T, 9)
        V = Trajectory(times, [Field(g, t * v) for t in times])
        norms[T] = schatten_norm(duhamel_series(V, Q)[-1], 2).value
    ratio = norms[0.02] / norms[0.01]
    assert 3.7 < ratio < 4.3


def test_picard_matches_rk4_oracle():
    g = make_grid(1, 32, 20.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.5)
    Q0 = _small_data(g, rank=4, seed=1, scale=0.1)
    run = picard_solve(Q0, bg, 0.1, 1e-3, scheme="d1")
    oracle = dense_rk4_oracle(Q0, bg, 0.1, 1e-3)
    assert run.T == pytest.approx(0.1)
    err = max(
        np.max(np.abs(Kp - Ko)) for Kp, Ko in zip(run.Q_frames, oracle.Q_frames)
    )
    assert err < 1e-4
    assert run.hermitian_drift() < 1e-10
    assert spectrum_drift(run, bg) < 1e-6
    # contraction history must actually contract
    deltas = run.contraction_history
    assert deltas[-1] <= 1e-9 * max(1.0, run.R)


def test_rk4_oracle_matches_picard_at_d2():
    # at d >= 2 the Laplacian's row and column passes return differently shaped views
    g = make_grid(2, 8, 8.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.5)
    Q0 = _small_data(g, rank=3, seed=1, scale=0.1)
    run = picard_solve(Q0, bg, 0.05, 1e-3, scheme="d2")
    oracle = dense_rk4_oracle(Q0, bg, 0.05, 1e-3)
    scale = max(np.max(np.abs(K)) for K in oracle.Q_frames)
    err = max(np.max(np.abs(Kp - Ko)) for Kp, Ko in zip(run.Q_frames, oracle.Q_frames))
    assert err < 1e-6 * scale
    assert spectrum_drift(oracle, bg) < 1e-10


def test_picard_free_evolution_when_interaction_vanishes():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "zero")
    Q0 = _small_data(g, rank=3, seed=2)
    run = picard_solve(Q0, bg, 0.05, 1e-3, scheme="d1")
    free = density_trajectory(Q0, run.times)
    for got, exact in zip(run.rho_frames, free.frames):
        assert np.max(np.abs(got.values - np.real(exact.values))) < 1e-10


def test_picard_zero_data_stays_zero():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Z = LowRankOperator(g, np.zeros(0), np.zeros((0,) + g.shape), np.zeros((0,) + g.shape))
    run = picard_solve(Z, bg, 0.05, 1e-3, scheme="d2")
    assert max(np.max(np.abs(K)) for K in run.Q_frames) == 0.0


def test_picard_reports_no_contraction_for_strong_coupling():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta", w_scale=4000.0)
    Q0 = _small_data(g, rank=3, seed=3, scale=1.0)
    with pytest.raises(RuntimeError, match="no contraction"):
        picard_solve(Q0, bg, 0.064, 1e-3, max_halvings=2)


def _two_list_picard(Q0, bg, T, dt, tol, scheme):
    """Picard iteration that keeps the old and the new iterate as two lists.

    The reference for the in-place sweep: the same map, built from the
    accumulator and allocating basis changes, with nothing overwritten.
    """
    g = bg.grid
    times = hartree._uniform_times(T, dt)
    K0 = to_dense(Q0).kernel
    K0hat = _to_mom(K0, g)
    kf = gamma_f_kernel(bg)

    def rho(frames):
        return [Field(g, np.real(np.diagonal(K).reshape(g.shape))) for K in frames]

    def commutator(k):
        C = _commutator_kernel(hartree._kernel_potential(bg, Q[k]), Q[k] + kf)
        return _to_mom(C, g, out=C)

    for halving in range(9):
        Q = [_to_x(_kernel_free_conj(K0hat, g, t), g) for t in times]
        data_norm = hartree._data_norm(bg, Trajectory(times, rho(Q)), scheme)
        R = 2.0 * (hartree._kernel_s2(K0, g) + data_norm)
        history = []
        for _ in range(80):
            Qnew = [_to_x(_kernel_free_conj(K0hat + W, g, t), g)
                    for _, t, W in hartree._duhamel_accumulate(g, times, dt, commutator)]
            delta = max(hartree._kernel_s2(a - b, g) for a, b in zip(Qnew, Q))
            rho_delta = [Field(g, np.real(np.diagonal(a) - np.diagonal(b)).reshape(g.shape))
                         for a, b in zip(Qnew, Q)]
            delta += hartree._data_norm(bg, Trajectory(times, rho_delta), scheme)
            history.append(delta)
            Q = Qnew
            if delta <= tol * max(1.0, R):
                return Q, rho(Q), history, {"halvings": halving, "sweeps": len(history)}
            if len(history) >= 2 and history[-1] >= 0.9 * history[-2]:
                break
        T = T / 2.0
        times = hartree._uniform_times(T, dt)
    raise AssertionError("the reference did not contract")


def _two_list_y_picard(Q0, bg, T, dt, tol, scheme):
    """The in-place sweep's map on frames Y = Q F^*, keeping the old and the new
    iterate as two lists and allocating every array, with nothing overwritten."""
    g = bg.grid
    times = hartree._uniform_times(T, dt)
    K0 = to_dense(Q0).kernel
    K0hat = _to_mom(K0, g)
    K0hat = (K0hat + K0hat.conj().T) * 0.5
    Fc = hartree._dft_conj_matrix(g)
    E = Fc * (bg.f.symbol.real.reshape(-1) / g.h**g.d)

    def rho(frames):
        return [hartree._y_density(Y, Fc) for Y in frames]

    def commutator(k):
        v = hartree._flat_potential(bg, dens[k].reshape(g.shape))
        X = _dft(v[:, None] * (Y[k] + E), g, np.fft.fftn, rows=True)
        return X - X.conj().T

    for halving in range(9):
        Y = [hartree._y_frame(K0hat, g, t) for t in times]
        dens = rho(Y)
        data_norm = hartree._data_norm(
            bg, Trajectory(times, [Field(g, r.reshape(g.shape)) for r in dens]), scheme)
        R = 2.0 * (hartree._kernel_s2(K0, g) + data_norm)
        history = []
        for _ in range(80):
            Ynew = [hartree._y_frame(K0hat + W, g, t)
                    for _, t, W in hartree._duhamel_accumulate(g, times, dt, commutator)]
            new = rho(Ynew)
            delta = max(hartree._kernel_s2(a - b, g) for a, b in zip(Ynew, Y))
            rho_delta = [Field(g, (a - b).reshape(g.shape)) for a, b in zip(new, dens)]
            delta += hartree._data_norm(bg, Trajectory(times, rho_delta), scheme)
            history.append(delta)
            Y, dens = Ynew, new
            if delta <= tol * max(1.0, R):
                Q = [_dft(Yk, g, np.fft.fftn, rows=False) for Yk in Y]
                rho_frames = [Field(g, r.reshape(g.shape)) for r in dens]
                return Q, rho_frames, history, {"halvings": halving, "sweeps": len(history)}
            if len(history) >= 2 and history[-1] >= 0.9 * history[-2]:
                break
        T = T / 2.0
        times = hartree._uniform_times(T, dt)
    raise AssertionError("the reference did not contract")


def _dft(K, g, transform, rows):
    """The unitary transform over the row (or column) index of a kernel, into a new array."""
    axes = tuple(range(g.d)) if rows else tuple(range(g.d, 2 * g.d))
    return transform(K.reshape(g.shape * 2), axes=axes, norm="ortho").reshape(K.shape)


def _bits(arrays) -> list:
    return [np.asarray(a).tobytes() for a in arrays]


# (d, n, L, w_scale, data scale, T, scheme, halvings)
_SWEEP_CASES = {
    "d1": (1, 32, 20.0, 1.0, 0.1, 0.05, "d1", 0),
    "d2": (2, 8, 8.0, 1.0, 0.1, 0.02, "d2", 0),
    "d2-halving": (2, 8, 16.0, 10000.0, 1.0, 0.016, "d2", 1),
}


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_in_place_sweep_matches_a_two_list_sweep_bit_for_bit(case):
    d, n, L, w, scale, T, scheme, halvings = _SWEEP_CASES[case]
    g = make_grid(d, n, L)
    bg = make_background(g, "gaussian", "delta", w_scale=w)
    Q0 = _small_data(g, rank=3, seed=1, scale=scale)
    run = picard_solve(Q0, bg, T, 1e-3, scheme=scheme)
    Q, rho, history, meta = _two_list_y_picard(Q0, bg, T, 1e-3, 1e-9, scheme)
    assert {k: run.meta[k] for k in meta} == meta and meta["halvings"] == halvings
    assert _bits(run.Q_frames) == _bits(Q)
    assert _bits(f.values for f in run.rho_frames) == _bits(f.values for f in rho)
    assert _bits(run.contraction_history) == _bits(history)


@pytest.mark.parametrize("case", sorted(_SWEEP_CASES))
def test_sweep_matches_the_x_space_sweep(case):
    # the x-space map, with (v(x) - v(y)) (Q + gamma_f)(x, y) and full basis changes,
    # is an independent reference: same sweeps and halvings, frames and densities
    # to rounding; the deltas are differences of nearly equal iterates
    d, n, L, w, scale, T, scheme, halvings = _SWEEP_CASES[case]
    g = make_grid(d, n, L)
    bg = make_background(g, "gaussian", "delta", w_scale=w)
    Q0 = _small_data(g, rank=3, seed=1, scale=scale)
    run = picard_solve(Q0, bg, T, 1e-3, scheme=scheme)
    Q, rho, history, meta = _two_list_picard(Q0, bg, T, 1e-3, 1e-9, scheme)
    assert {k: run.meta[k] for k in meta} == meta and meta["halvings"] == halvings
    hd = g.h**g.d
    scale = max(hd * np.linalg.norm(K) for K in Q)
    assert max(hd * np.linalg.norm(a - b) for a, b in zip(run.Q_frames, Q)) <= 1e-14 * scale
    top = max(np.max(np.abs(f.values)) for f in rho)
    assert max(np.max(np.abs(a.values - b.values)) for a, b in zip(run.rho_frames, rho)) \
        <= 1e-14 * top
    np.testing.assert_allclose(run.contraction_history, history, rtol=0, atol=1e-12 * history[0])


# (w_scale, T, halvings): a solve on the full window and one that halves once
@pytest.mark.parametrize("w, T, halvings", [(1.0, 0.05, 0), (20000.0, 0.016, 1)],
                         ids=["full-window", "one-halving"])
def test_picard_holds_one_trajectory_and_its_working_kernels(w, T, halvings):
    # d=2, N = 256: the iterate's frames of the first window plus the counted
    # working kernels bound the tracemalloc peak, halving or not
    g = make_grid(2, 16, 16.0)
    bg = make_background(g, "gaussian", "delta", w_scale=w)
    Q0 = _small_data(g, rank=3, seed=1, scale=0.05 if halvings == 0 else 1.0)
    frames = len(hartree._uniform_times(T, 1e-3))
    tracemalloc.start()
    try:
        run = picard_solve(Q0, bg, T, 1e-3, scheme="d2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.meta["halvings"] == halvings
    kernel = g.npoints**2 * np.dtype(complex).itemsize
    assert peak <= (frames + hartree._PICARD_KERNELS) * kernel


def _solve_on(monkeypatch, workers, case):
    # workers usable cores, on any host
    d, n, L, w, scale, T, dt, scheme = case
    monkeypatch.setattr(hartree, "_workers", lambda parts: min(workers, parts))
    g = make_grid(d, n, L)
    bg = make_background(g, "gaussian", "delta", w_scale=w)
    return picard_solve(_small_data(g, rank=3, seed=1, scale=scale), bg, T, dt, scheme=scheme)


# (d, n, L, w_scale, data scale, T, dt, scheme): solves above the thread crossover
_THREADED_CASES = {
    "d2-full-window": (2, 16, 16.0, 1.0, 0.05, 0.05, 1e-3, "d2"),
    "d2-one-halving": (2, 16, 16.0, 20000.0, 1.0, 0.016, 1e-3, "d2"),
    "d3": (3, 8, 12.0, 1.0, 0.05, 0.04, 2e-3, "d3"),
}


@pytest.mark.parametrize("case", sorted(_THREADED_CASES))
def test_threaded_sweep_is_the_same_bits_as_the_inline_sweep(case, monkeypatch):
    # each frame runs the same operations in the same order on either thread; the
    # threaded solve switches threads every 10 microseconds and ends its helper
    inline = _solve_on(monkeypatch, 1, _THREADED_CASES[case])
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = _solve_on(monkeypatch, 2, _THREADED_CASES[case])
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    assert inline.meta["workers"] == 1 and threaded.meta["workers"] == 2
    assert threaded.meta["halvings"] == (1 if case == "d2-one-halving" else 0)
    assert _bits(threaded.Q_frames) == _bits(inline.Q_frames)
    assert _bits(f.values for f in threaded.rho_frames) == \
        _bits(f.values for f in inline.rho_frames)
    assert _bits(threaded.contraction_history) == _bits(inline.contraction_history)


@pytest.mark.parametrize("n", [hartree._PICARD_THREAD_POINTS // 2, hartree._PICARD_THREAD_POINTS])
def test_a_helper_thread_starts_only_at_the_crossover(n, monkeypatch):
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    run = _solve_on(monkeypatch, 2, (1, n, 20.0, 1.0, 0.1, 0.01, 1e-3, "d1"))
    threaded = n >= hartree._PICARD_THREAD_POINTS
    assert run.meta["workers"] == (2 if threaded else 1)
    assert started == (["picard-helper"] if threaded else [])


class _Planted(Exception):
    pass


def test_a_helper_error_reaches_the_caller_as_itself(monkeypatch):
    # commutator 7 of the first sweep is formed on the helper thread and fails there
    planted, calls, where = _Planted("frame 7"), [], []
    flat = hartree._flat_potential

    def failing(bg, rho_values):
        calls.append(None)
        if len(calls) == 8:
            where.append(threading.current_thread())
            raise planted
        return flat(bg, rho_values)

    monkeypatch.setattr(hartree, "_flat_potential", failing)
    baseline = threading.active_count()
    with pytest.raises(_Planted) as raised:
        _solve_on(monkeypatch, 2, _THREADED_CASES["d2-full-window"])
    assert raised.value is planted and where[0] is not threading.main_thread()
    assert threading.active_count() == baseline


def test_a_main_thread_error_mid_sweep_ends_the_helper(monkeypatch):
    # the fifth S^2 norm (frame 3 of the first sweep) fails while the helper forms
    # commutator 4
    calls, running = [], []
    s2 = hartree._kernel_s2

    def failing(K, grid):
        calls.append(None)
        if len(calls) == 5:
            running.append(threading.active_count())
            raise _Planted("mid-sweep")
        return s2(K, grid)

    monkeypatch.setattr(hartree, "_kernel_s2", failing)
    baseline = threading.active_count()
    with pytest.raises(_Planted, match="mid-sweep"):
        _solve_on(monkeypatch, 2, _THREADED_CASES["d2-full-window"])
    assert running == [baseline + 1] and threading.active_count() == baseline


def test_no_contraction_on_two_threads_ends_the_helper(monkeypatch):
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="no contraction"):
        _solve_on(monkeypatch, 2, (1, 256, 16.0, 40000.0, 1.0, 0.016, 1e-3, "d1"))
    assert threading.active_count() == baseline


def test_lwp_pipeline_holds_one_draw_at_a_time():
    # the d=3 pipeline of criterion 14: a second draw solves after the first
    # draw's trajectory is released, so it adds less than one kernel to the peak
    g = make_grid(3, 8, 12.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=3, seed=2)
    fam = SubgaussianFamily("gaussian", 7)
    peaks = []
    for draws in (1, 2):
        tracemalloc.start()
        try:
            recs = randomized_lwp_pipeline(Q0, "singular", bg, "d3", 0.5, fam, 0.04, 2e-3,
                                           n_draws=draws)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [rec["status"] for rec in recs] == ["ok"] * draws
    assert peaks[1] <= peaks[0] + g.npoints**2 * np.dtype(complex).itemsize


def test_lwp_pipeline_reads_no_x_space_frame(monkeypatch):
    # the pipeline keeps only the contraction record, so no frame is turned into
    # its x-space kernel
    def refuse(self, k):
        raise AssertionError("the pipeline read an x-space frame")

    monkeypatch.setattr(hartree._KernelFrames, "__getitem__", refuse)
    g = make_grid(2, 8, 16.0)
    bg = make_background(g, "gaussian", "delta")
    recs = randomized_lwp_pipeline(_small_data(g, seed=2), "singular", bg, "d2", 0.5,
                                   SubgaussianFamily("gaussian", 7), 0.01, 1e-3, n_draws=1)
    assert recs[0]["status"] == "ok"


def test_rk4_oracle_is_fourth_order():
    g = make_grid(1, 16, 12.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=2, seed=4, scale=0.2)
    ref = dense_rk4_oracle(Q0, bg, 0.08, 0.08 / 64)
    errs = []
    for steps in (8, 16):
        run = dense_rk4_oracle(Q0, bg, 0.08, 0.08 / steps)
        errs.append(np.max(np.abs(run.Q_frames[-1] - ref.Q_frames[-1])))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def _random_density_trajectory(g, n_frames, dt, seed):
    rng = np.random.default_rng(seed)
    env = (1.0 + g.xi_squared()) ** -1.5
    z = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    base = np.real(np.fft.ifftn(env * np.fft.fftn(z)))
    om, ph = rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * np.pi)
    times = dt * np.arange(n_frames)
    return Trajectory(times, [Field(g, base * np.cos(om * t + ph)) for t in times])


def test_written_s2_norms_do_not_depend_on_entry_order():
    # q_s2 is pinned byte for byte by the golden file, so the reduction behind
    # it must give the same bits for any memory layout or order of the entries.
    cp = _load_config(str(DATA / "reference_d1.config"))
    bg = _background_from_config(cp)
    run = dense_rk4_oracle(_initial_operator(cp, bg.grid), bg,
                           _get(cp, "run", "t", float), _get(cp, "run", "dt", float))
    want = run.s2_norms()
    rng = np.random.default_rng(7)
    variants = {
        "transposed": [np.ascontiguousarray(K.T) for K in run.Q_frames],
        "fortran": [np.asfortranarray(K) for K in run.Q_frames],
        "permuted": [rng.permutation(K.ravel()).reshape(K.shape) for K in run.Q_frames],
    }
    for name, frames in variants.items():
        got = replace(run, Q_frames=frames).s2_norms()
        changed = int(np.sum(got.view(np.int64) != want.view(np.int64)))
        assert changed == 0, f"{name}: {changed} of {len(want)} frames changed bits"
    hd = run.grid.h ** run.grid.d
    blas = np.array([hd * np.linalg.norm(K) for K in run.Q_frames])
    np.testing.assert_allclose(want, blas, rtol=1e-15, atol=0)


def test_l1_fourier_matches_direct_on_random_densities():
    for d, n in ((1, 32), (2, 16)):
        g = make_grid(d, n, 12.0)
        bg = make_background(g, "gaussian", "gaussian")
        c0 = calibrate_l1_constant(bg).c0
        for seed in range(5):
            gtr = _random_density_trajectory(g, 7, 0.04, seed)
            D = np.stack([f.values for f in l1_apply_direct(gtr, bg).frames])
            F = np.stack([f.values for f in l1_apply_fourier(gtr, bg, c0).frames])
            scale = max(np.max(np.abs(D)), 1e-300)
            assert np.max(np.abs(D - F)) / scale < 1e-8


def _potential(bg, rho: Field) -> Field:
    """w * rho, real part, as the solvers form it."""
    g = bg.grid
    return Field(g, np.real(convolve_potential(bg.w_hat, Field(g, np.real(rho.values))).values))


def test_l1_direct_is_minus_density_of_background_duhamel():
    # L1[g] = -rho(D_{w*g}[gamma_f]): the response is the density of the
    # background's Duhamel term driven by the potential of g.
    for d, n in ((1, 32), (2, 8)):
        g = make_grid(d, n, 12.0)
        bg = make_background(g, "gaussian", "gaussian")
        gtr = _random_density_trajectory(g, 7, 0.04, 3)
        V = Trajectory(gtr.times, [_potential(bg, fr) for fr in gtr.frames])
        direct = l1_apply_direct(gtr, bg).frames
        duhamel = duhamel_series(V, bg)
        for got, D in zip(direct, duhamel):
            want = -density(D).values
            assert np.max(np.abs(got.values - want)) <= 1e-14 * np.max(np.abs(want))


def test_picard_solution_is_a_duhamel_fixed_point():
    # Q(t) = U(t) Q0 U(-t) + D_V[Q](t) + D_V[gamma_f](t) with V = w * rho_Q,
    # the integral equation the sweep iterates, checked through duhamel_series.
    g = make_grid(1, 32, 20.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.5)
    Q0 = _small_data(g, rank=4, seed=1, scale=0.1)
    run = picard_solve(Q0, bg, 0.05, 1e-3, scheme="d1")
    assert run.T == pytest.approx(0.05)
    V = Trajectory(run.times, [_potential(bg, rho) for rho in run.rho_frames])
    D_Q = duhamel_series(V, [DenseOperator(g, K) for K in run.Q_frames])
    D_f = duhamel_series(V, bg)
    K0 = to_dense(Q0)
    scale = max(np.linalg.norm(K) for K in run.Q_frames)
    for t, K, a, b in zip(run.times, run.Q_frames, D_Q, D_f):
        rhs = conjugate_free(K0, t).kernel + a.kernel + b.kernel
        assert np.linalg.norm(K - rhs) <= 1e-9 * scale


def test_l1_is_linear_and_vanishes_without_background():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    a = _random_density_trajectory(g, 7, 0.05, 10)
    b = _random_density_trajectory(g, 7, 0.05, 11)
    ab = Trajectory(a.times, [Field(g, 2.0 * u.values + v.values) for u, v in zip(a.frames, b.frames)])
    La = l1_apply_direct(a, bg)
    Lb = l1_apply_direct(b, bg)
    Lab = l1_apply_direct(ab, bg)
    for u, v, uv in zip(La.frames, Lb.frames, Lab.frames):
        assert np.max(np.abs(uv.values - 2.0 * u.values - v.values)) < 1e-10
    free = make_background(g, "zero", "delta")
    for fr in l1_apply_direct(a, free).frames:
        assert np.max(np.abs(fr.values)) < 1e-14


def test_calibration_constant_stable_across_grids():
    results = []
    for n in (32, 64):
        g = make_grid(1, n, 16.0)
        bg = make_background(g, "gaussian", "delta")
        res = calibrate_l1_constant(bg)
        assert res.residual <= 1e-6
        assert res.imag <= 1e-8
        results.append(res.c0)
    assert abs(results[0] - results[1]) <= 1e-6
    g2 = make_grid(2, 16, 12.0)
    res2 = calibrate_l1_constant(make_background(g2, "fermi-sea", "gaussian"))
    assert res2.residual <= 1e-6
    assert abs(res2.c0 - results[0]) <= 1e-6


@pytest.mark.parametrize("d, n, L", [(1, 32, 16.0), (2, 16, 16.0), (3, 8, 12.0)])
def test_calibrated_constant_is_two_to_rounding(d, n, L):
    # criterion 14's grids; the largest deviations seen are about 1e-15
    g = make_grid(d, n, L)
    for f in ("gaussian", "fermi-sea"):
        for w in ("delta", "gaussian"):
            res = calibrate_l1_constant(make_background(g, f, w))
            assert abs(res.c0 - 2.0) <= 1e-12 and res.residual <= 1e-12, (f, w, res)


def test_calibration_rejects_degenerate_background():
    g = make_grid(1, 32, 16.0)
    with pytest.raises(ValueError):
        calibrate_l1_constant(make_background(g, "zero", "delta"))


def test_linearized_solve_residual_and_consistency():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=3, seed=5)
    run = linearized_solve(Q0, bg, 0.2, 0.01)
    assert run.residual <= 1e-8
    # Q(t) = U(t) Q0 U(-t) + D_{w*rho}[gamma_f](t) carries the solved density
    # (largest gap seen: 2.2e-16 of max|rho|)
    V = Trajectory(run.times, [Field(g, np.real(convolve_potential(bg.w_hat, rho).values))
                               for rho in run.rho_frames])
    rho_max = max(np.max(np.abs(rho.values)) for rho in run.rho_frames)
    for t, rho, D in zip(run.times, run.rho_frames, duhamel_series(V, bg)):
        rho_Q = density(conjugate_free(Q0, t)).values + density(D).values
        assert np.max(np.abs(rho_Q - rho.values)) <= 1e-10 * rho_max
    # fixed-point cross-check: rho = source - L1[rho], the source being the free density
    rho_tr = Trajectory(run.times, run.rho_frames)
    L1rho = l1_apply_fourier(rho_tr, bg, run.c0)
    source = density_trajectory(Q0, run.times).frames
    for rho, src, lr in zip(run.rho_frames, source, L1rho.frames):
        err = np.max(np.abs(rho.values + np.real(lr.values) - np.real(src.values)))
        assert err < 1e-10 * max(1.0, np.max(np.abs(src.values)))


def test_linearized_solve_converges_under_dt_refinement():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=3, seed=6)
    ref = linearized_solve(Q0, bg, 0.16, 0.002)
    errs = []
    for dt in (0.016, 0.008):
        run = linearized_solve(Q0, bg, 0.16, dt)
        errs.append(np.max(np.abs(run.rho_frames[-1].values - ref.rho_frames[-1].values)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


# The march (a direct sum) and the residual convolution (an FFT along time)
# against the causal trapezoid sum written out.  K = 3, 5, 11, 17 and 257 are
# primes, for which 2K is not 5-smooth.
_MARCH_BACKGROUNDS = {
    1: make_background(make_grid(1, 16, 16.0), "gaussian", "delta", f_scale=0.1),
    2: make_background(make_grid(2, 8, 16.0), "gaussian", "delta", f_scale=0.1),
}
_march_settings = settings(max_examples=25, deadline=None)
_march_cases = dict(
    d=st.sampled_from([1, 2]),
    K=st.sampled_from([2, 3, 5, 11, 17, 257]),
    dt=st.sampled_from([1 / 16, 0.05, 0.03]),
    c0=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)


def _naive_lag_sum(G, x, k, dt):
    """sum_{j<k} w_j G[k-j] x[j] with w_0 = dt/2, w_j = dt (G[0] = 0 drops j = k)."""
    acc = np.zeros(x.shape[1:], dtype=complex)
    for j in range(k):
        acc += (dt / 2 if j == 0 else dt) * G[k - j] * x[j]
    return acc


def _frequency_input(bg, K, seed):
    rng = np.random.default_rng(seed)
    shape = (K,) + bg.grid.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@_march_settings
@given(**_march_cases)
def test_march_matches_the_trapezoid_recursion(d, K, dt, c0, seed):
    bg = _MARCH_BACKGROUNDS[d]
    src = _frequency_input(bg, K, seed)
    G = hartree._l1_kernel_stack(bg, K, dt)
    ref = np.empty_like(src)
    for k in range(K):
        ref[k] = src[k] - c0 * _naive_lag_sum(G, ref, k, dt)
    got = hartree._march_density(G, dt, src, c0)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@_march_settings
@given(**_march_cases)
def test_l1_convolve_matches_the_causal_sum(d, K, dt, c0, seed):
    bg = _MARCH_BACKGROUNDS[d]
    x = _frequency_input(bg, K, seed)
    G = hartree._l1_kernel_stack(bg, K, dt)
    ref = np.stack([c0 * _naive_lag_sum(G, x, k, dt) for k in range(K)])
    got = hartree._l1_convolve(G, dt, x, c0)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_march_rejects_a_bad_c0_and_reports_divergence():
    bg = _MARCH_BACKGROUNDS[1]
    G = hartree._l1_kernel_stack(bg, 5, 0.05)
    src = _frequency_input(bg, 5, 0)
    for c0 in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="c0 must be finite"):
            hartree._march_density(G, 0.05, src, c0)
    with pytest.raises(RuntimeError, match="linearized marching diverged"):
        hartree._march_density(G, 0.05, src, 1e12)


def test_l1_convolve_holds_less_than_two_stacks():
    g = make_grid(2, 64, 32.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.1)
    K, dt = 257, 1 / 16
    x = _frequency_input(bg, K, 0)
    G = hartree._l1_kernel_stack(bg, K, dt)  # the memo's stack, built once per (grid, K, dt)
    tracemalloc.start()
    try:
        hartree._l1_convolve(G, dt, x, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * x.nbytes


def _allocating_convolve(bg, K, dt, x, c0):
    """_l1_convolve as one thread's allocating pass over blocks of 512 columns."""
    G = hartree._l1_kernel_stack(bg, K, dt).reshape(K, -1)
    N, L = G.shape[1], hartree._smooth_length(2 * K - 1)
    w = np.full((K, 1), dt)
    w[0] = dt / 2
    x = x.reshape(K, N)
    res = np.empty((K, N), dtype=complex)
    for i in range(0, N, 512):
        cols = slice(i, i + 512)
        Gf = np.fft.rfft(G[:, cols], n=L, axis=0)
        xc = w * x[:, cols]
        for part, into in ((xc.real, res.real), (xc.imag, res.imag)):
            X = np.multiply(Gf, np.fft.rfft(part, n=L, axis=0))
            into[:, cols] = np.fft.irfft(X, n=L, axis=0)[:K]
    res *= c0
    res[0] = 0.0
    return res.reshape(x.shape[:1] + bg.grid.shape)


def _on_workers(monkeypatch, W):
    # W usable cores for hartree's threaded stages, on any host
    monkeypatch.setattr(hartree, "_workers", lambda parts: min(W, parts))


# (d, n, L, K): N = 16, 64 and 512 columns, 2, 8 and 64 blocks of 8, none a
# multiple of 3 workers.
_SPLIT_CASES = {1: (16, 16.0, 21), 2: (8, 16.0, 17), 3: (8, 12.0, 33)}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_linearized_stages_are_the_same_bits_on_any_number_of_workers(d, monkeypatch):
    # each frequency column runs the same operations in the same order on whichever
    # worker takes it; the threads switch every 10 microseconds
    n, L, K = _SPLIT_CASES[d]
    g = make_grid(d, n, L)
    bg = make_background(g, "gaussian", "delta", f_scale=0.1)
    Q0 = localized_low_rank(g, 3, np.random.default_rng(d), width=1.0)
    dt = 0.05
    G = hartree._l1_kernel_stack(bg, K, dt)
    src = _frequency_input(bg, K, d)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for W in (1, 2, 3):
            _on_workers(monkeypatch, W)
            run = linearized_solve(Q0, bg, (K - 1) * dt, dt, c0=2.0)
            runs[W] = (run.workers, _bits(f.values for f in run.rho_frames), run.residual,
                       _bits([hartree._march_density(G, dt, src, 2.0)]),
                       _bits([hartree._l1_convolve(G, dt, src, 2.0)]))
    finally:
        sys.setswitchinterval(interval)
    assert [runs[W][0] for W in (1, 2, 3)] == [1, 2, 3 if d > 1 else 2]
    assert runs[2][1:] == runs[1][1:] and runs[3][1:] == runs[1][1:]
    # the pass over column blocks is the allocating pass, bit for bit
    assert runs[1][4] == _bits([_allocating_convolve(bg, K, dt, src, 2.0)])


def test_a_diverging_march_names_the_same_step_on_any_number_of_workers(monkeypatch):
    # c0 = 1e12 passes the bound at step 1; at c0 = 2.9e6 the whole frame passes it
    # at step 4, and each of two workers' columns alone only at step 5
    bg = _MARCH_BACKGROUNDS[2]
    K = 40
    G = hartree._l1_kernel_stack(bg, K, 0.05)
    src = _frequency_input(bg, K, 0)
    for c0 in (1e12, 2.9e6):
        said = []
        for W in (1, 2, 3):
            _on_workers(monkeypatch, W)
            with pytest.raises(RuntimeError, match="linearized marching diverged: growth "
                                                   r"factor \S+ \(response not invertible\)") as e:
                hartree._march_density(G, 0.05, src, c0)
            said.append(str(e.value))
        assert said[1] == said[0] and said[2] == said[0]


@pytest.mark.parametrize("stage, owner, name, per_piece", [
    ("march", np, "einsum", 1),  # one contraction per step
    ("convolve", np.fft, "irfft", 2),  # two inverse transforms per column block
])
def test_a_worker_error_in_a_linearized_stage_reaches_the_caller(stage, owner, name, per_piece,
                                                               monkeypatch):
    # the fifth call fails on a worker thread: the caller gets that exception itself,
    # the other worker ends its piece and takes no other, and no thread is left
    g = make_grid(2, 32, 16.0)  # N = 1024: four convolution pieces on two workers
    bg = make_background(g, "gaussian", "delta", f_scale=0.1)
    K, dt = 65, 1 / 16
    src = _frequency_input(bg, K, 0)
    _on_workers(monkeypatch, 2)
    G = hartree._l1_kernel_stack(bg, K, dt)
    planted, calls, after, where = _Planted(stage), [], [], []
    original = getattr(owner, name)

    def failing(*args, **kwargs):
        if after:
            after.append(None)
        calls.append(None)
        if len(calls) == 5:
            where.append(threading.current_thread())
            after.append(None)
            raise planted
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    baseline = threading.active_count()
    call = {"march": lambda: hartree._march_density(G, dt, src, 2.0),
            "convolve": lambda: hartree._l1_convolve(G, dt, src, 2.0)}[stage]
    with pytest.raises(_Planted) as raised:
        call()
    assert raised.value is planted and where[0] is not threading.main_thread()
    assert len(after) <= 1 + per_piece
    assert threading.active_count() == baseline


def test_one_usable_core_runs_the_linearized_solve_with_no_thread(monkeypatch):
    g = make_grid(2, 16, 16.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.1)
    _on_workers(monkeypatch, 1)

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started on one usable core")

    monkeypatch.setattr(threading, "Thread", no_thread)
    run = linearized_solve(_small_data(g, seed=2), bg, 0.5, 1 / 16, c0=2.0)
    assert run.workers == 1 and run.residual <= 1e-8


def test_dense_paths_refuse_a_problem_larger_than_memory(monkeypatch):
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, seed=8)
    times = 0.01 * np.arange(5)
    V = Trajectory(times, [Field(g, np.cos(t) * np.ones(g.shape)) for t in times])
    dense_paths = [
        lambda: gamma_f_kernel(bg),
        lambda: duhamel_series(V, bg),
        lambda: picard_solve(Q0, bg, 0.04, 0.01),
        lambda: dense_rk4_oracle(Q0, bg, 0.04, 0.01),
        lambda: l1_apply_direct(V, bg),
        lambda: scattering_diagnostic(Q0, bg, 0.16, 0.01, c0=2.0, alpha_sc=4.0),
        lambda: calibrate_l1_constant(bg),
    ]
    # a host with 7 pages (28 KB) of physical memory: less than two dense 32x32
    # kernels (32 KB), more than the march's 6 (5, 32) frequency stacks (15 KB)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 7}.get)
    for call in dense_paths:
        with pytest.raises(ValueError, match=r"GB .* of physical memory"):
            call()
    # the frequency-domain linearized solve holds no dense kernel
    assert linearized_solve(Q0, bg, 0.04, 0.01, c0=2.0).residual <= 1e-8
    # with one page it refuses too, before it allocates its stacks
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}.get)
    with pytest.raises(ValueError, match=r"linearized_solve would hold .* frequency stacks"
                                         r".* of physical memory"):
        linearized_solve(Q0, bg, 0.04, 0.01, c0=2.0)


def test_calibration_and_lwp_pipeline_refuse_before_they_allocate(monkeypatch):
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, seed=8)
    # a host with 256 pages (1 MB) of physical memory: the 7 accumulator kernels of
    # 32x32 (112 KB) fit, and so does the default calibration inside a scatter run
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    report = scattering_diagnostic(Q0, bg, 0.16, 0.01, alpha_sc=4.0)
    assert np.all(np.isfinite(report.distances))

    def allocated(*args, **kwargs):
        raise AssertionError("allocated before the size rule ran")

    monkeypatch.setattr(hartree, "l1_apply_direct", allocated)
    monkeypatch.setattr(hartree, "density_trajectory", allocated)
    # 4000 calibration frames hold 16 (4000, 32) stacks (33 MB)
    with pytest.raises(ValueError, match=r"calibrate_l1_constant would hold .* frequency "
                                         r"stacks.* of physical memory"):
        calibrate_l1_constant(bg, n_frames=4000)
    # 101 frames take 108 dense kernels (1.8 MB) in the Picard solve of each draw
    fam = SubgaussianFamily("gaussian", 2718)
    with pytest.raises(ValueError, match=r"randomized_lwp_pipeline would hold .* dense "
                                         r".* of physical memory"):
        randomized_lwp_pipeline(Q0, "singular", bg, "d1", 0.5, fam, 1.0, 0.01, n_draws=1)


def test_scattering_trivial_without_background():
    g = make_grid(2, 16, 16.0)
    bg = make_background(g, "zero", "delta")
    Q0 = _small_data(g, rank=2, seed=7)
    rep = scattering_diagnostic(Q0, bg, 1.0, 1.0 / 16, n_rungs=3)
    assert rep.verdict == "trivial (free evolution)"
    assert rep.cauchy_consistent
    assert np.all(rep.distances == 0.0) or np.max(rep.distances) < 1e-12


def test_scattering_requires_alpha_for_d1():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=2, seed=8)
    with pytest.raises(ValueError, match=r"needs d >= 2, got d = 1"):
        scattering_diagnostic(Q0, bg, 1.0, 1.0 / 16)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.5])
def test_scattering_rejects_a_bad_exponent(alpha):
    g = make_grid(2, 8, 8.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=2, seed=8)
    with pytest.raises(ValueError, match=r"alpha_sc must be finite and >= 1"):
        scattering_diagnostic(Q0, bg, 1.0, 1.0 / 16, alpha_sc=alpha, c0=2.0)


def test_scattering_localized_data_disperses():
    g = make_grid(2, 32, 32.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.1)
    rng = np.random.default_rng(9)
    Q0 = localized_low_rank(g, 3, rng, width=1.0)
    rep = scattering_diagnostic(Q0, bg, 8.0, 1.0 / 16, n_rungs=4)
    assert rep.cauchy_consistent
    assert rep.verdict == "Cauchy-consistent"
    assert np.all(rep.distances[1:] <= 0.9 * rep.distances[:-1])


def test_randomized_lwp_pipeline_records():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=3, seed=10)
    fam = SubgaussianFamily("gaussian", 2718)
    recs = randomized_lwp_pipeline(Q0, "singular", bg, "d1", 0.5, fam, 0.05, 1e-3, n_draws=3)
    assert len(recs) == 3
    for rec in recs:
        assert rec["status"] == "ok"
        assert rec["achieved_T"] > 0
        assert np.isfinite(rec["data_norm"])
        assert rec["max_ratio"] < 0.9
    # counter-based draws: rerunning reproduces the records exactly
    again = randomized_lwp_pipeline(Q0, "singular", bg, "d1", 0.5, fam, 0.05, 1e-3, n_draws=3)
    assert recs == again


def test_randomized_lwp_pipeline_full_randomization():
    g = make_grid(1, 32, 16.0)
    bg = make_background(g, "gaussian", "delta")
    Q0 = _small_data(g, rank=3, seed=10)
    fam_g, fam_ell = SubgaussianFamily("gaussian", 2718), SubgaussianFamily("rademacher", 31)
    recs = randomized_lwp_pipeline(Q0, "full", bg, "d1", 0.5, fam_g, 0.05, 1e-3, n_draws=2,
                                   family_ell=fam_ell)
    assert [rec["status"] for rec in recs] == ["ok", "ok"]
    assert all(rec["which"] == "full" and rec["max_ratio"] < 0.9 for rec in recs)
    with pytest.raises(ValueError, match="needs family_ell"):
        randomized_lwp_pipeline(Q0, "full", bg, "d1", 0.5, fam_g, 0.05, 1e-3, n_draws=1)


def test_exact_s2_matches_the_list_formula_without_holding_the_list():
    g = make_grid(2, 16, 8.0)
    N = g.npoints
    rng = np.random.default_rng(13)
    for _ in range(5):
        mag = 10.0 ** rng.uniform(-8, 8, size=(2, N, N))
        K = mag[0] * rng.choice([-1.0, 1.0], (N, N)) + 1j * mag[1] * rng.choice([-1.0, 1.0], (N, N))
        squares = np.concatenate([np.square(K.real).ravel(), np.square(K.imag).ravel()])
        want = float(g.h**g.d * math.sqrt(math.fsum(squares.tolist())))
        del squares
        tracemalloc.start()
        try:
            got = hartree._kernel_s2_exact(K, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        # the whole-kernel list of 2 N^2 Python floats is 4 kernels, its squares one more
        assert peak <= 0.5 * K.nbytes


# The dense Duhamel engine carries kernels in the momentum basis K^ = F K F^*;
# these properties tie each momentum-side operation to its x-space form.
_BASIS_GRIDS = {1: make_grid(1, 16, 10.0), 2: make_grid(2, 8, 6.0), 3: make_grid(3, 8, 6.0)}
_dims = st.sampled_from(sorted(_BASIS_GRIDS))
_seeds = st.integers(0, 2**32 - 1)
_basis_settings = settings(max_examples=12, deadline=None)


def _random_kernel(g, seed):
    rng = np.random.default_rng(seed)
    shape = (g.npoints, g.npoints)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@_basis_settings
@given(d=_dims, seed=_seeds)
def test_momentum_basis_round_trip(d, seed):
    g = _BASIS_GRIDS[d]
    K = _random_kernel(g, seed)
    assert np.linalg.norm(_to_x(_to_mom(K, g), g) - K) <= 1e-13 * np.linalg.norm(K)


@_basis_settings
@given(d=_dims, seed=_seeds)
def test_basis_change_into_a_buffer_is_bit_identical(d, seed):
    # out=None, a separate buffer and out=K itself give the same bits
    g = _BASIS_GRIDS[d]
    K = _random_kernel(g, seed)
    for change in (_to_mom, _to_x):
        want = change(K, g)
        buf = np.empty_like(K)
        assert change(K, g, out=buf) is not None and np.array_equal(buf, want)
        own = K.copy()
        got = change(own, g, out=own)
        assert np.shares_memory(got, own) and np.array_equal(own, want)


@_basis_settings
@given(d=_dims, seed=_seeds, t=st.floats(-3.0, 3.0))
def test_momentum_free_conjugation_is_a_phase(d, seed, t):
    g = _BASIS_GRIDS[d]
    K = _random_kernel(g, seed)
    want = _to_mom(conjugate_free(DenseOperator(g, K), t).kernel, g)
    got = _kernel_free_conj(_to_mom(K, g), g, t)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@_basis_settings
@given(d=_dims, seed=_seeds, f=st.sampled_from(["gaussian", "fermi-sea"]))
def test_background_commutator_is_a_gather(d, seed, f):
    g = _BASIS_GRIDS[d]
    bg = make_background(g, f, "gaussian")
    v = np.random.default_rng(seed).standard_normal(g.npoints)
    got = _background_commutator(bg, lambda k: v)(0)
    want = _to_mom(_commutator_kernel(v, gamma_f_kernel(bg)), g)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@_basis_settings
@given(d=_dims, seed=_seeds, f=st.sampled_from(["gaussian", "fermi-sea"]))
def test_frame_commutator_and_density_match_the_x_space_forms(d, seed, f):
    # Picard's frame Y = F^* K^ = K F^*: for Hermitian K and real v the commutator
    # [v, K + gamma_f] is X - X^* with X = F (v (Y + F^* D)), and the density of Y
    # is the x-space diagonal
    g = _BASIS_GRIDS[d]
    bg = make_background(g, f, "gaussian")
    K = _random_kernel(g, seed)
    K += K.conj().T
    v = np.random.default_rng([seed, 1]).standard_normal(g.npoints)
    Fc = hartree._dft_conj_matrix(g)
    Y = _dft(_to_mom(K, g), g, np.fft.ifftn, rows=True)
    got = hartree._frame_commutator(Y, Fc, bg.f.symbol.real.reshape(-1) / g.h**g.d, v, g)
    want = _to_mom(_commutator_kernel(v, K + gamma_f_kernel(bg)), g)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    diag = np.real(np.diagonal(K))
    assert np.max(np.abs(hartree._y_density(Y, Fc) - diag)) <= 1e-13 * np.max(np.abs(diag))


@_basis_settings
@given(d=_dims, seed=_seeds, alpha=st.sampled_from([2.0, 4.0, np.inf]))
def test_schatten_norm_is_basis_independent(d, seed, alpha):
    g = _BASIS_GRIDS[d]
    K = _random_kernel(g, seed)
    x_side = schatten_norm(DenseOperator(g, K), alpha).value
    mom_side = schatten_norm(DenseOperator(g, _to_mom(K, g)), alpha).value
    assert mom_side == pytest.approx(x_side, rel=1e-12)


# Row blocks of the Gram form are 128 rows, so N = 256 takes two of them.
_GRAM_GRIDS = {1: make_grid(1, 256, 64.0), 2: make_grid(2, 16, 8.0)}


@_basis_settings
@given(d=st.sampled_from([1, 2]), seed=_seeds,
       kind=st.sampled_from(["hermitian", "general", "rank-deficient"]))
def test_gram_form_s4_norm_matches_the_svd(d, seed, kind):
    g = _GRAM_GRIDS[d]
    K = _random_kernel(g, seed)
    if kind == "hermitian":
        K = K + np.conj(K).T
    elif kind == "rank-deficient":
        K = K[:, :5] @ K[:5, :]
    want = schatten_norm(DenseOperator(g, K), 4).value
    assert _kernel_schatten(K, g, 4) == pytest.approx(want, rel=1e-12)
    assert _kernel_schatten(np.zeros_like(K), g, 4) == 0.0


@settings(max_examples=6, deadline=None)
@given(d=st.sampled_from([1, 2]), seed=st.integers(0, 2**16), alpha=st.sampled_from([4.0, 3.0]))
def test_streamed_ladder_matches_svds_of_kept_snapshots(d, seed, alpha):
    g = {1: make_grid(1, 32, 16.0), 2: make_grid(2, 8, 8.0)}[d]
    bg = make_background(g, "gaussian", "delta", f_scale=0.5)
    Q0 = localized_low_rank(g, 2, np.random.default_rng(seed), width=1.0)
    T, dt = 1.0, 1.0 / 16
    rep = scattering_diagnostic(Q0, bg, T, dt, alpha_sc=alpha, c0=2.0)
    # an independent pass over the whole horizon from 0 keeps every W(t_k)
    lin = linearized_solve(Q0, bg, T, dt, c0=2.0)
    commutator = _background_commutator(
        bg, lambda k: hartree._flat_potential(bg, lin.rho_frames[k].values))
    snapshots = [W.copy() for _, _, W in hartree._duhamel_accumulate(g, lin.times, dt, commutator)]
    rungs = [int(round(t / dt)) for t in rep.checkpoint_times]
    want = [schatten_norm(DenseOperator(g, snapshots[b] - snapshots[a]), alpha).value
            for a, b in zip(rungs, rungs[1:])]
    assert np.all(np.asarray(want) > 0)
    np.testing.assert_allclose(rep.distances, want, rtol=1e-12, atol=0.0)


def test_scattering_holds_no_previous_rung():
    # the accumulator, the commutator gather and one integral: no kept rung and no
    # scratch kernel; tracemalloc peak 4.25 kernels here, 5.37 with a kept rung
    g = make_grid(2, 16, 16.0)
    bg = make_background(g, "gaussian", "delta", f_scale=0.1)
    Q0 = localized_low_rank(g, 3, np.random.default_rng(1), width=1.0)
    tracemalloc.start()
    try:
        scattering_diagnostic(Q0, bg, 1.0, 1.0 / 16, c0=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * g.npoints**2 * 16


@_basis_settings
@given(d=_dims, seed=_seeds, t=st.floats(-3.0, 3.0))
def test_momentum_density_is_the_diagonal_of_the_x_frame(d, seed, t):
    g = _BASIS_GRIDS[d]
    W = _random_kernel(g, seed)
    want = np.diagonal(_to_x(_kernel_free_conj(W, g, t), g)).reshape(g.shape)
    got = hartree._momentum_density(W, g, t)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_l1_direct_never_builds_the_kernel_stack(monkeypatch):
    # the direct path is the independent side of the calibration
    def refuse(*args, **kwargs):
        raise AssertionError("l1_apply_direct built the frequency-domain kernel stack")

    monkeypatch.setattr(hartree, "_l1_kernel_stack", refuse)
    g = make_grid(2, 8, 12.0)
    bg = make_background(g, "gaussian", "gaussian")
    out = l1_apply_direct(_random_density_trajectory(g, 5, 0.04, 0), bg)
    assert np.max(np.abs(out.frames[-1].values)) > 0
