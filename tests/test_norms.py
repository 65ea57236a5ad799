import numpy as np
import pytest

from hartreelab import linop
from hartreelab.grid import Field, free_propagate, make_grid
from hartreelab.linop import (
    LowRankOperator,
    conjugate_free,
    density,
    random_low_rank,
    recompress,
    to_dense,
)
from hartreelab.norms import (
    MomentTable,
    Trajectory,
    density_trajectory,
    empirical_moment,
    lebesgue_norm,
    mixed_norm,
    trapezoid_weights,
)


def test_lebesgue_norm_analytic():
    g = make_grid(1, 128, 32.0)
    u = Field(g, np.exp(-g.x_axis**2 / 2.0))
    # ||e^{-x^2/2}||_{L^q} = (2 pi / q)^{1/(2q)} on the line
    for q in (1.0, 2.0, 4.0):
        exact = (2 * np.pi / q) ** (1.0 / (2 * q))
        assert abs(lebesgue_norm(u, q) - exact) < 1e-10
    assert lebesgue_norm(u, np.inf) == 1.0
    with pytest.raises(ValueError):
        lebesgue_norm(u, 0.5)


def test_trapezoid_weights_integrate_quadratics():
    times = np.linspace(0.0, 1.0, 101)
    w = trapezoid_weights(times)
    assert abs(np.sum(w) - 1.0) < 1e-12
    assert abs(np.sum(w * times) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        trapezoid_weights(np.array([0.0]))


def test_trajectory_validation():
    g = make_grid(1, 32, 12.0)
    u = Field(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1]), [u])
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.5]), [u, u, u])
    tr = Trajectory(np.array([0.0, 0.25, 0.5]), [u, u, u])
    assert tr.dt == 0.25 and tr.span == 0.5


def test_mixed_norm_constant_trajectory():
    g = make_grid(1, 32, 16.0)
    u = Field(g, np.ones(g.shape))
    times = np.linspace(0.0, 2.0, 9)
    tr = Trajectory(times, [u] * len(times))
    nq = lebesgue_norm(u, 2.0)
    # L^p in time of a constant is T^{1/p} times the spatial norm
    for p in (1.0, 2.0, 4.0):
        assert abs(mixed_norm(tr, p, 2.0) - 2.0 ** (1.0 / p) * nq) < 1e-12
    assert mixed_norm(tr, np.inf, 2.0) == nq
    with pytest.raises(ValueError):
        mixed_norm(Trajectory(times[:2], [u, u]), 2.0, 2.0)
    with pytest.raises(ValueError):
        mixed_norm(tr, 0.5, 2.0)


def test_density_trajectory_lowrank_matches_direct():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(0)
    A = random_low_rank(g, 3, rng, hermitian=True)
    times = np.linspace(0.0, 0.5, 5)
    tr = density_trajectory(A, times)
    for t, frame in zip(times, tr.frames):
        direct = np.einsum(
            "n,n...,n...->...",
            A.coeffs,
            np.stack([free_propagate(Field(g, row), t).values for row in A.left]),
            np.conj(np.stack([free_propagate(Field(g, row), t).values for row in A.right])),
        )
        assert np.max(np.abs(frame.values - direct)) < 1e-12
    # density is conserved in total mass under the free flow
    masses = [g.h * np.sum(f.values).real for f in tr.frames]
    assert np.max(np.abs(np.diff(masses))) < 1e-12


@pytest.mark.parametrize("d, n", [(1, 32), (2, 16), (3, 8)])
@pytest.mark.parametrize("kind", ["symmetric", "nonsymmetric", "recompressed", "rank0", "dense"])
@pytest.mark.parametrize("frames_per_chunk", [3, None])
def test_density_trajectory_is_the_per_frame_free_flow_bit_for_bit(
        monkeypatch, d, n, kind, frames_per_chunk):
    g = make_grid(d, n, 12.0)
    A = random_low_rank(g, 3, np.random.default_rng(d), hermitian=kind != "nonsymmetric")
    if kind == "recompressed":  # distinct factor arrays in a transposed layout
        A = recompress(A, tol=0.0)
    elif kind == "rank0":
        A = LowRankOperator(g, np.zeros(0), np.zeros((0,) + g.shape), np.zeros((0,) + g.shape))
    elif kind == "dense":
        A = to_dense(A)
    if frames_per_chunk:
        monkeypatch.setattr(linop, "_CHUNK_ENTRIES", frames_per_chunk * 3 * g.npoints)
    times = 0.037 * np.arange(7)  # with 3 frames per chunk: chunks of 3, 3 and 1
    for t, frame in zip(times, density_trajectory(A, times).frames):
        assert np.array_equal(frame.values, density(conjugate_free(A, t)).values)


def test_empirical_moment_closed_form():
    rng = np.random.default_rng(1)
    x = np.full(100, 3.0)
    v, e = empirical_moment(x, 4.0)
    assert v == 3.0 and e == 0.0
    with pytest.raises(ValueError):
        empirical_moment(np.array([]), 2.0)
    with pytest.raises(ValueError):
        empirical_moment(x, 0.5)
    with pytest.raises(ValueError):
        empirical_moment(x, np.inf)


def test_moment_table_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    samples = np.abs(rng.standard_normal(500))
    orders = [1.0, 2.0, 4.0, 8.0]
    table = MomentTable.from_samples(samples, orders, seed=99)
    assert table.check_monotone()
    assert table.n_samples == 500
    path = tmp_path / "moments.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,value,stderr,M,seed"
    assert len(lines) == 1 + len(orders)
    row = lines[1].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == table.values[0]
    assert int(row[3]) == 500 and int(row[4]) == 99


def test_moment_table_deterministic_stderr():
    samples = np.abs(np.random.default_rng(3).standard_normal(200))
    a = MomentTable.from_samples(samples, [2.0, 4.0], seed=7)
    b = MomentTable.from_samples(samples, [2.0, 4.0], seed=7)
    assert np.array_equal(a.stderrs, b.stderrs)
