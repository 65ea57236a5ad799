import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreelab.grid import Field, bessel_multiplier, identity_multiplier, make_grid
from hartreelab.linop import (
    DenseOperator,
    LowRankOperator,
    _difference_index,
    _displacement_kernel,
    add,
    adjoint,
    compose,
    conjugate_free,
    density,
    hermitian_defect,
    localized_low_rank,
    multiplier_sandwich_schatten,
    random_low_rank,
    recompress,
    scale,
    schatten_norm,
    sobolev_schatten_norm,
    spectrum_hermitian,
    to_dense,
    trace,
)
from hartreelab.norms import density_trajectory

ALPHAS = (1.0, 4.0 / 3.0, 1.5, 2.0, 4.0, np.inf)


def test_lowrank_vs_dense_schatten():
    g = make_grid(1, 64, 16.0)
    rng = np.random.default_rng(0)
    for trial in range(5):
        A = random_low_rank(g, 6, rng)
        Ad = to_dense(A)
        for alpha in ALPHAS:
            a = schatten_norm(A, alpha).value
            b = schatten_norm(Ad, alpha).value
            assert abs(a - b) <= 1e-10 * max(a, 1.0)


def test_trace_density_identity():
    g = make_grid(2, 16, 8.0)
    rng = np.random.default_rng(1)
    A = random_low_rank(g, 5, rng)
    rho = density(A)
    assert abs(g.h**g.d * np.sum(rho.values) - trace(A)) < 1e-12
    assert abs(trace(A) - trace(to_dense(A))) < 1e-12


def test_unitary_invariance_of_schatten_norms():
    g = make_grid(1, 64, 16.0)
    rng = np.random.default_rng(2)
    A = random_low_rank(g, 4, rng)
    for alpha in (1.0, 2.0, np.inf):
        base = schatten_norm(A, alpha).value
        moved = schatten_norm(conjugate_free(A, 0.37), alpha).value
        assert abs(moved - base) <= 1e-10 * max(base, 1.0)


def test_sobolev_schatten_lowrank_matches_dense():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(3)
    A = random_low_rank(g, 4, rng)
    for s in (0.5, 1.0):
        a = sobolev_schatten_norm(A, s, 2.0).value
        b = sobolev_schatten_norm(to_dense(A), s, 2.0).value
        assert abs(a - b) <= 1e-10 * max(a, 1.0)


def test_apply_consistency_lowrank_dense():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(4)
    A = random_low_rank(g, 3, rng)
    u = Field(g, rng.standard_normal(g.shape))
    v1 = A.apply(u)
    v2 = to_dense(A).apply(u)
    assert np.max(np.abs(v1.values - v2.values)) < 1e-12


def test_adjoint_and_hermitize():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(5)
    A = random_low_rank(g, 4, rng)
    assert hermitian_defect(add(A, adjoint(A))) < 1e-12
    H = random_low_rank(g, 4, rng, hermitian=True)
    assert hermitian_defect(H) < 1e-12
    # <Au, v> = <u, A* v>
    u = Field(g, rng.standard_normal(g.shape))
    v = Field(g, rng.standard_normal(g.shape))
    lhs = v.inner(A.apply(u))
    rhs = adjoint(A).apply(v).inner(u)
    assert abs(lhs - rhs) < 1e-12


def test_compose_matches_dense_product():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(6)
    A = random_low_rank(g, 3, rng)
    B = random_low_rank(g, 4, rng)
    C = compose(A, B)
    Cd = compose(to_dense(A), to_dense(B))
    assert np.max(np.abs(to_dense(C).kernel - Cd.kernel)) < 1e-12


def test_recompress_truncates_and_preserves():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(7)
    A = random_low_rank(g, 6, rng)
    # duplicate the representation; recompression must fold it back
    double = LowRankOperator(
        g,
        np.concatenate([A.coeffs * 0.5, A.coeffs * 0.5]),
        np.concatenate([A.left, A.left]),
        np.concatenate([A.right, A.right]),
    )
    R = recompress(double, tol=1e-12)
    assert R.rank <= 6
    assert np.max(np.abs(to_dense(R).kernel - to_dense(A).kernel)) < 1e-10
    # A - A recompresses to (numerically) zero
    Z = add(A, scale(A, -1.0))
    assert schatten_norm(recompress(Z, tol=1e-10), 2).value < 1e-12


def test_recompressed_factors_are_orthonormal():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(8)
    A = random_low_rank(g, 5, rng)
    B = recompress(scale(A, 1.7), tol=0.0)
    hd = g.h**g.d
    Lm = B.left.reshape(B.rank, -1)
    gram = hd * (np.conj(Lm) @ Lm.T)
    assert np.max(np.abs(gram - np.eye(B.rank))) < 1e-10
    assert np.all(B.coeffs.real >= 0) and np.max(np.abs(B.coeffs.imag)) < 1e-14


def test_multiplier_sandwich_exact_at_alpha_2():
    # || f(x) g(-i grad) ||_{S^2}^2 = (2 pi)^{-d} ||f||_{L^2}^2 ||g||^2 with
    # the frequency sum carrying the lattice weight (2 pi / L)^d
    g = make_grid(1, 64, 20.0)
    f = Field(g, np.exp(-g.x_axis**2))
    gsym = bessel_multiplier(g, -2.0)
    val = multiplier_sandwich_schatten(f, gsym, 2.0)
    f2 = g.h * np.sum(np.abs(f.values) ** 2)
    g2 = (2 * np.pi / g.L) * np.sum(np.abs(gsym.symbol) ** 2)
    expected = np.sqrt(f2 * g2 / (2 * np.pi))
    assert abs(val - expected) < 1e-10 * expected
    with pytest.raises(ValueError):
        multiplier_sandwich_schatten(f, gsym, 1.5)


def test_multiplier_sandwich_bound_above_alpha_2():
    # for alpha > 2 the composition norm is bounded by the same product
    g = make_grid(1, 64, 20.0)
    f = Field(g, np.exp(-g.x_axis**2))
    gsym = bessel_multiplier(g, -2.0)
    for alpha in (3.0, 4.0):
        val = multiplier_sandwich_schatten(f, gsym, alpha)
        fq = (g.h * np.sum(np.abs(f.values) ** alpha)) ** (1.0 / alpha)
        gq = ((2 * np.pi / g.L) * np.sum(np.abs(gsym.symbol) ** alpha)) ** (1.0 / alpha)
        bound = (2 * np.pi) ** (-1.0 / alpha) * fq * gq
        assert val <= bound * (1 + 1e-10)


def test_spectrum_hermitian():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(10)
    H = to_dense(random_low_rank(g, 4, rng, hermitian=True))
    ev = spectrum_hermitian(H)
    assert np.all(np.diff(ev) <= 0)
    A = to_dense(random_low_rank(g, 4, rng))
    with pytest.raises(ValueError):
        spectrum_hermitian(A)


def test_multiplier_to_dense_matches_action():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(11)
    u = Field(g, rng.standard_normal(g.shape))
    m = bessel_multiplier(g, -1.0)
    from hartreelab.grid import apply_multiplier

    v1 = apply_multiplier(m, u)
    v2 = DenseOperator(g, _displacement_kernel(m)).apply(u)
    assert np.max(np.abs(v1.values - v2.values)) < 1e-11


@pytest.mark.parametrize("width", [0.0, -1.0, np.nan, np.inf])
def test_localized_low_rank_refuses_a_bad_width(width):
    g = make_grid(1, 16, 8.0)
    with pytest.raises(ValueError, match=f"width must be finite and positive, got {width}"):
        localized_low_rank(g, 2, np.random.default_rng(0), width=width)


def test_localized_low_rank_properties():
    g = make_grid(2, 32, 32.0)
    rng = np.random.default_rng(12)
    A = localized_low_rank(g, 4, rng, width=1.5)
    hd = g.h**g.d
    Lm = A.left.reshape(A.rank, -1)
    gram = hd * (np.conj(Lm) @ Lm.T)
    assert np.max(np.abs(gram - np.eye(A.rank))) < 1e-10
    assert hermitian_defect(A) < 1e-12
    # mass concentrated near the center of the box
    rho = np.abs(density(A).values)
    x2 = sum(x**2 for x in g.x_mesh())
    inner = np.sum(rho[x2 < (g.L / 4) ** 2])
    assert inner > 0.99 * np.sum(rho)


def test_schatten_norm_rejects_bad_alpha():
    g = make_grid(1, 32, 12.0)
    A = random_low_rank(g, 2, np.random.default_rng(13))
    with pytest.raises(ValueError):
        schatten_norm(A, 0.5)


def test_zero_operator_edge_cases():
    g = make_grid(1, 32, 12.0)
    Z = LowRankOperator(g, np.zeros(0), np.zeros((0,) + g.shape), np.zeros((0,) + g.shape))
    assert schatten_norm(Z, 2).value == 0.0
    assert trace(Z) == 0.0
    assert np.all(density(Z).values == 0)


# conjugate_free is the one free flow of both representations; these
# properties tie its low-rank form to its dense form.
_GRIDS = {1: make_grid(1, 16, 10.0), 2: make_grid(2, 8, 6.0), 3: make_grid(3, 8, 6.0)}
_dims = st.sampled_from(sorted(_GRIDS))
_seeds = st.integers(0, 2**32 - 1)
_property_settings = settings(max_examples=12, deadline=None)


@_property_settings
@given(d=_dims, seed=_seeds, t=st.floats(-3.0, 3.0))
def test_lowrank_free_flow_matches_dense(d, seed, t):
    g = _GRIDS[d]
    A = random_low_rank(g, 3, np.random.default_rng(seed))
    got = to_dense(conjugate_free(A, t)).kernel
    want = conjugate_free(to_dense(A), t).kernel
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@_property_settings
@given(d=_dims, seed=_seeds)
def test_lowrank_density_trajectory_matches_dense(d, seed):
    g = _GRIDS[d]
    A = random_low_rank(g, 3, np.random.default_rng(seed))
    times = np.linspace(0.0, 0.5, 5)
    got = np.stack([f.values for f in density_trajectory(A, times).frames])
    want = np.stack([f.values for f in density_trajectory(to_dense(A), times).frames])
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@_property_settings
@given(d=_dims, seed=_seeds, tol=st.floats(1e-8, 0.5))
def test_recompress_error_is_within_tolerance(d, seed, tol):
    g = _GRIDS[d]
    rng = np.random.default_rng(seed)
    # a sum of two families is not in singular-value form, so the core SVD has work to do
    A = add(random_low_rank(g, 4, rng, coeffs=np.logspace(0, -6, 4)),
            random_low_rank(g, 3, rng, coeffs=rng.uniform(0.0, 1e-2, 3)))
    R = recompress(A, tol)
    err = schatten_norm(add(A, scale(R, -1.0)), 2).value
    assert err <= (tol + 1e-12) * schatten_norm(A, 2).value


def _difference_index_by_ravel(grid):
    """The reference construction: every entry's per-axis differences, raveled."""
    coords = np.indices(grid.shape).reshape(grid.d, grid.npoints)
    diff = [(c[:, None] - c[None, :]) % grid.n for c in coords]
    return np.ravel_multi_index(diff, grid.shape)


@pytest.mark.parametrize("d, n", [(1, 8), (1, 64), (2, 8), (2, 32), (3, 8), (3, 16)])
def test_difference_index_matches_the_raveled_construction(d, n):
    g = make_grid(d, n, 10.0)
    got, want = _difference_index(g), _difference_index_by_ravel(g)
    assert got.dtype == want.dtype and np.array_equal(got, want)
