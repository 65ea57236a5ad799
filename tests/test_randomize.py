import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartreelab.grid import Field, fourier_forward, make_grid
from hartreelab.linop import random_low_rank, schatten_norm, to_dense
from hartreelab.montecarlo import analytic_abs_normal_moment
from hartreelab.randomize import (
    PartitionOfUnity,
    SubgaussianFamily,
    full_randomize,
    sample_coefficients,
    singular_value_randomize,
    sobolev_conjugated_randomize,
    unit_projection,
    wiener_randomize,
    wiener_weight,
)


def test_family_kinds_and_constants():
    assert SubgaussianFamily("gaussian", 0, 1.0).subgaussian_constant == 0.5
    assert SubgaussianFamily("rademacher", 0).subgaussian_constant == 0.5
    assert SubgaussianFamily("uniform", 0, 2.0).subgaussian_constant == 2.0
    assert SubgaussianFamily("degenerate", 0).subgaussian_constant == 0.0
    with pytest.raises(ValueError):
        SubgaussianFamily("poisson", 0)
    with pytest.raises(ValueError):
        SubgaussianFamily("gaussian", 0, 0.0)
    for kind in ("gaussian", "rademacher"):  # every kind records its param
        for param in (np.inf, np.nan):
            with pytest.raises(ValueError, match="must be finite and positive"):
                SubgaussianFamily(kind, 0, param)
    rec = SubgaussianFamily("gaussian", 5, 2.0).to_record()
    assert rec == {"kind": "gaussian", "seed": 5, "param": 2.0}


def test_sample_statistics():
    fam = SubgaussianFamily("gaussian", 11, 4.0)
    x = sample_coefficients(fam, 200000)
    assert abs(np.mean(x)) < 0.02
    assert abs(np.var(x) - 4.0) < 0.05
    r = sample_coefficients(SubgaussianFamily("rademacher", 1), 1000)
    assert set(np.unique(r)) == {-1.0, 1.0}
    u = sample_coefficients(SubgaussianFamily("uniform", 1, 0.5), 1000)
    assert np.max(np.abs(u)) <= 0.5
    assert np.all(sample_coefficients(SubgaussianFamily("degenerate", 1), 7) == 1.0)
    with pytest.raises(ValueError):
        sample_coefficients(fam, -1)


def test_streams_reproducible_and_independent():
    fam = SubgaussianFamily("gaussian", 42)
    a = sample_coefficients(fam, 64, stream_id=3)
    b = sample_coefficients(fam, 64, stream_id=3)
    assert np.array_equal(a, b)
    c = sample_coefficients(fam, 64, stream_id=4)
    assert not np.array_equal(a, c)
    # batching independence: stream m is the same regardless of other streams
    d = sample_coefficients(fam, 32, stream_id=3)
    assert np.array_equal(a[:32], d)


def test_partition_sums_to_one():
    for d, n, L in ((1, 64, 16.0), (2, 16, 8.0), (3, 8, 8.0)):
        g = make_grid(d, n, L)
        pou = PartitionOfUnity(g)
        total = np.zeros(g.shape)
        for k in pou.cells:
            total = total + pou.cell_symbol(k)
        assert np.max(np.abs(total - 1.0)) < 1e-12, f"d={d}"
    with pytest.raises(ValueError):
        PartitionOfUnity(make_grid(1, 32, 4.0))


def test_projections_sum_to_field():
    g = make_grid(1, 64, 16.0)
    pou = PartitionOfUnity(g)
    rng = np.random.default_rng(0)
    u = Field(g, rng.standard_normal(g.shape))
    total = np.zeros(g.shape, dtype=complex)
    for k in pou.cells:
        total = total + unit_projection(u, k).values
    assert np.max(np.abs(total - u.values)) < 1e-12
    with pytest.raises(ValueError):
        unit_projection(u, (1, 1))


def test_wiener_weight_matches_projection_sum():
    # the separable weight against the per-cell sum, on every dimension
    fam = SubgaussianFamily("gaussian", 7)
    rng = np.random.default_rng(1)
    for d, n, L in ((1, 64, 16.0), (2, 16, 8.0), (3, 8, 8.0)):
        g = make_grid(d, n, L)
        pou = PartitionOfUnity(g)
        u = Field(g, rng.standard_normal(g.shape))
        v = wiener_randomize(u, fam, stream_id=2)
        ells = sample_coefficients(fam, len(pou.cells), stream_id=2)
        total = np.zeros(g.shape, dtype=complex)
        for ell, k in zip(ells, pou.cells):
            total = total + ell * unit_projection(u, k).values
        assert np.max(np.abs(v.values - total)) < 1e-12


def test_degenerate_randomization_is_identity():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(2)
    A = random_low_rank(g, 4, rng)
    fam = SubgaussianFamily("degenerate", 0)
    B = singular_value_randomize(A, fam)
    assert abs(schatten_norm(B, 2).value - schatten_norm(A, 2).value) < 1e-12
    assert np.max(np.abs(to_dense(B).kernel - to_dense(A).kernel)) < 1e-12
    C = full_randomize(A, fam, fam)
    assert np.max(np.abs(to_dense(C).kernel - to_dense(A).kernel)) < 1e-10
    u = Field(g, rng.standard_normal(g.shape))
    w = wiener_randomize(u, fam)
    assert np.max(np.abs(w.values - u.values)) < 1e-12


_CLASS_GRIDS = {1: make_grid(1, 32, 12.0), 2: make_grid(2, 16, 8.0), 3: make_grid(3, 8, 8.0)}


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), rank=st.integers(1, 6),
       kind_g=st.sampled_from(["rademacher", "gaussian", "uniform"]),
       kind_ell=st.sampled_from(["gaussian", "uniform", "degenerate"]),
       seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 2**16))
def test_randomization_never_changes_the_schatten_class(d, rank, kind_g, kind_ell, seed, stream):
    # The singular randomization multiplies singular value n by g_n, and the full one
    # conjugates that by the real frequency weight R = sum_k l_k chi_k, so in every
    # S^alpha: min|g| ||A|| <= ||A^omega|| <= max|g| ||A||, and ||R A^omega R|| lies
    # between min|g| min|R|^2 ||A|| and max|g| max|R|^2 ||A||.  A Rademacher draw
    # keeps the norm; a degenerate l (R = 1) makes the full bounds the singular ones.
    g = _CLASS_GRIDS[d]
    A = random_low_rank(g, rank, np.random.default_rng(seed))  # singular-value form
    fam_g, fam_l = SubgaussianFamily(kind_g, 11), SubgaussianFamily(kind_ell, 13)
    singular = singular_value_randomize(A, fam_g, stream)
    full = full_randomize(A, fam_g, fam_l, stream_g=stream, stream_ell=stream)
    g_abs = np.abs(sample_coefficients(fam_g, A.rank, stream))
    r_abs = np.abs(wiener_weight(fam_l, g, stream).symbol)
    lo, hi = 1 - 1e-10, 1 + 1e-10
    for alpha in (1.0, 4.0 / 3.0, 2.0, 3.0, np.inf):
        base = schatten_norm(A, alpha).value
        s = schatten_norm(singular, alpha).value
        assert lo * g_abs.min() * base <= s <= hi * g_abs.max() * base
        f = schatten_norm(full, alpha).value
        assert lo * r_abs.min() ** 2 * g_abs.min() * base <= f
        assert f <= hi * r_abs.max() ** 2 * g_abs.max() * base


def test_svd_form_is_enforced():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(4)
    A = random_low_rank(g, 4, rng)
    # break the singular-value form with complex coefficients
    skew = type(A)(g, A.coeffs * np.exp(1j * 0.7), A.left, A.right)
    fam = SubgaussianFamily("degenerate", 0)
    B = singular_value_randomize(skew, fam)
    assert np.all(B.coeffs.real >= 0) and np.max(np.abs(B.coeffs.imag)) < 1e-14
    assert np.max(np.abs(to_dense(B).kernel - to_dense(skew).kernel)) < 1e-10


def test_full_randomize_shares_weight_on_both_sides():
    g = make_grid(1, 64, 16.0)
    rng = np.random.default_rng(5)
    A = random_low_rank(g, 3, rng, hermitian=True)
    fam_g = SubgaussianFamily("degenerate", 0)
    fam_l = SubgaussianFamily("gaussian", 13)
    B = full_randomize(A, fam_g, fam_l, stream_ell=1)
    R = wiener_weight(fam_l, g, stream_id=1)
    for stack_a, stack_b in ((A.left, B.left), (A.right, B.right)):
        for row_a, row_b in zip(stack_a, stack_b):
            expect = R.symbol * fourier_forward(Field(g, row_a))
            got = fourier_forward(Field(g, row_b))
            assert np.max(np.abs(got - expect)) < 1e-10


def test_sobolev_conjugation_reduces_at_sigma_zero():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(6)
    A = random_low_rank(g, 4, rng)
    fam = SubgaussianFamily("gaussian", 21)
    B0 = sobolev_conjugated_randomize(A, 0.0, "singular", family_g=fam, stream_g=2)
    B1 = singular_value_randomize(A, fam, stream_id=2)
    assert np.max(np.abs(to_dense(B0).kernel - to_dense(B1).kernel)) < 1e-12
    with pytest.raises(ValueError):
        sobolev_conjugated_randomize(A, 0.5, "neither", family_g=fam)


@pytest.mark.parametrize("which, given, missing", [
    ("singular", {}, "family_g"),
    ("full", {"family_g"}, "family_ell"),
])
def test_sobolev_conjugation_names_a_missing_input(which, given, missing):
    g = make_grid(1, 32, 12.0)
    A = random_low_rank(g, 2, np.random.default_rng(8))
    inputs = {"family_g": SubgaussianFamily("gaussian", 1),
              "family_ell": SubgaussianFamily("rademacher", 2)}
    with pytest.raises(ValueError, match=rf"which = '{which}' needs {missing}$"):
        sobolev_conjugated_randomize(A, 0.5, which, **{k: inputs[k] for k in given})


def test_sobolev_conjugation_round_trips_with_degenerate_draws():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(7)
    A = random_low_rank(g, 3, rng)
    fam = SubgaussianFamily("degenerate", 0)
    B = sobolev_conjugated_randomize(A, 1.0, "singular", family_g=fam)
    assert np.max(np.abs(to_dense(B).kernel - to_dense(A).kernel)) < 1e-9


def test_gaussian_randomized_moments_match_closed_form():
    # for a rank-1 operator with unit singular value, ||A^omega||_{S^2} = |g|,
    # so E ||A^omega||^m equals the absolute normal moment
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(8)
    A = random_low_rank(g, 1, rng)
    A = type(A)(g, A.coeffs / A.coeffs[0], A.left, A.right)
    fam = SubgaussianFamily("gaussian", 17)
    M = 20000
    draws = np.array(
        [schatten_norm(singular_value_randomize(A, fam, stream_id=m), 2).value for m in range(M)]
    )
    for order in (1, 2, 4):
        emp = np.mean(draws**order)
        exact = analytic_abs_normal_moment(order)
        spread = np.std(draws**order) / np.sqrt(M)
        assert abs(emp - exact) < 4 * spread


def test_large_deviation_moment_slope_below_sqrt_law():
    # moments of |g| grow like m^{1/2} per the subgaussian bound; check the
    # empirical log-moment slope in log m stays near 0.5
    fam = SubgaussianFamily("gaussian", 31)
    x = np.abs(sample_coefficients(fam, 400000))
    orders = np.array([2, 4, 8, 16])
    vals = np.array([np.mean(x**m) ** (1.0 / m) for m in orders])
    slope = np.polyfit(np.log(orders), np.log(vals), 1)[0]
    assert 0.35 < slope < 0.65
