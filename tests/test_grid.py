import os
import resource

import numpy as np
import pytest

from hartreelab.grid import (
    Field,
    FourierMultiplier,
    apply_multiplier,
    bessel_multiplier,
    convolve_potential,
    fourier_forward,
    fourier_inverse,
    free_propagate,
    free_propagator,
    identity_multiplier,
    make_grid,
    multiplier_from_function,
    _check_memory,
)


def gaussian_field(grid):
    x2 = sum(x**2 for x in grid.x_mesh())
    return Field(grid, np.exp(-x2 / 2.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(4, 32, 10.0)
    with pytest.raises(ValueError):
        make_grid(1, 24, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        make_grid(1, 4, 10.0)  # too small
    with pytest.raises(ValueError):
        make_grid(1, 32, -1.0)
    with pytest.raises(ValueError, match="box side must be finite and positive, got inf"):
        make_grid(1, 8, np.inf)


def test_axes_and_weights():
    g = make_grid(1, 32, 16.0)
    assert g.h == 0.5
    assert g.x_axis[0] == -8.0
    assert np.max(g.x_axis) == 8.0 - g.h
    # frequency lattice 2*pi*j/L with the Nyquist mode on the negative side
    assert g.xi_axis[0] == 0.0
    assert np.isclose(g.xi_axis[1], 2 * np.pi / 16.0)
    assert np.min(g.xi_axis) == -2 * np.pi * 16 / 16.0


def test_fourier_roundtrip():
    g = make_grid(2, 16, 10.0)
    rng = np.random.default_rng(0)
    u = Field(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    v = fourier_inverse(g, fourier_forward(u))
    assert np.max(np.abs(v.values - u.values)) < 1e-12


def test_gaussian_transform_analytic():
    # transform of e^{-x^2/2} is sqrt(2 pi) e^{-xi^2/2}
    g = make_grid(1, 64, 24.0)
    u = gaussian_field(g)
    uhat = fourier_forward(u)
    expected = np.sqrt(2 * np.pi) * np.exp(-g.xi_axis**2 / 2.0)
    assert np.max(np.abs(uhat - expected)) < 1e-12


def test_free_evolution_gaussian_oracle():
    # u(t, x) = (1 + 2 i t)^{-1/2} exp(-x^2 / (2 (1 + 2 i t)))
    g = make_grid(1, 64, 24.0)
    u = gaussian_field(g)
    for t in (0.1, 0.5):
        v = free_propagate(u, t)
        z = 1.0 + 2j * t
        exact = z**-0.5 * np.exp(-g.x_axis**2 / (2 * z))
        assert np.max(np.abs(v.values - exact)) < 1e-12


def test_propagator_group_laws():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(1)
    u = Field(g, rng.standard_normal(g.shape))
    v = free_propagate(free_propagate(u, 0.3), -0.3)
    assert np.max(np.abs(v.values - u.values)) < 1e-12
    w1 = free_propagate(u, 0.2 + 0.5)
    w2 = free_propagate(free_propagate(u, 0.2), 0.5)
    assert np.max(np.abs(w1.values - w2.values)) < 1e-12
    # isometry on L^2
    assert np.isclose(free_propagate(u, 0.7).norm_l2(), u.norm_l2())


def test_multiplier_composition_and_identity():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(2)
    u = Field(g, rng.standard_normal(g.shape))
    m1 = bessel_multiplier(g, 1.0)
    m2 = bessel_multiplier(g, -1.0)
    both = apply_multiplier(m1 * m2, u)
    assert np.max(np.abs(both.values - u.values)) < 1e-12
    ident = apply_multiplier(identity_multiplier(g), u)
    assert np.max(np.abs(ident.values - u.values)) < 1e-13


def test_multiplier_from_function_matches_symbol():
    g = make_grid(2, 16, 10.0)
    m = multiplier_from_function(g, lambda x, y: x**2 + y**2)
    assert np.max(np.abs(m.symbol - g.xi_squared())) == 0.0


def test_xi_squared_is_built_once_and_read_only():
    g = make_grid(3, 8, 10.0)
    xi2 = g.xi_squared()
    assert xi2 is g.xi_squared() and not xi2.flags.writeable
    kx, ky, kz = g.xi_mesh()
    assert np.array_equal(xi2, kx**2 + ky**2 + kz**2)
    with pytest.raises(ValueError):
        xi2 += 1.0
    # the cached array is not part of the grid's value
    assert g == make_grid(3, 8, 10.0) and hash(g) == hash(make_grid(3, 8, 10.0))


def test_convolution_with_delta_is_identity():
    g = make_grid(1, 32, 12.0)
    rng = np.random.default_rng(3)
    rho = Field(g, rng.standard_normal(g.shape))
    w_hat = identity_multiplier(g)  # delta interaction
    out = convolve_potential(w_hat, rho)
    assert np.max(np.abs(out.values - rho.values)) < 1e-12


def test_field_algebra_and_errors():
    g = make_grid(1, 32, 12.0)
    g2 = make_grid(1, 64, 12.0)
    u = Field(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        Field(g, np.ones((16,)))
    with pytest.raises(ValueError):
        u.inner(Field(g2, np.ones(g2.shape)))
    v = 2.0 * u - u
    assert np.allclose(v.values, 1.0)
    assert np.isclose(u.inner(u).real, g.L)


def test_a_real_field_stays_float64():
    # a density or a potential holds half the bytes of its complex cast
    g = make_grid(1, 32, 12.0)
    assert Field(g, np.ones(g.shape)).values.dtype == np.float64
    assert Field(g, np.ones(g.shape, dtype=int)).values.dtype == np.float64
    assert Field(g, np.ones(g.shape) + 0j).values.dtype == np.complex128
    assert (2j * Field(g, np.ones(g.shape))).values.dtype == np.complex128


def test_real_space_kernel_of_multiplier():
    # the kernel of a pure frequency mode xi_j is e^{i xi_j (x-y)} / L^d
    g = make_grid(1, 32, 16.0)
    sym = np.zeros(g.shape)
    sym[3] = 1.0
    k = FourierMultiplier(g, sym).real_space_kernel()
    disp = g.h * np.arange(g.n)
    expected = np.exp(1j * g.xi_axis[3] * disp) / g.L
    assert np.max(np.abs(k - expected)) < 1e-14


def test_free_propagate_rejects_nonfinite():
    g = make_grid(1, 32, 12.0)
    vals = np.ones(g.shape)
    vals[0] = np.nan
    with pytest.raises(ValueError):
        free_propagate(Field(g, vals), 0.1)


def test_memory_rule_honours_the_address_space_limit(monkeypatch):
    # 10 kernels at N = 1024 are 168 MB; the soft RLIMIT_AS is patched, none is set
    g = make_grid(2, 32, 8.0)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.get)  # 8.6 GB
    limits = {"soft": resource.RLIM_INFINITY}
    monkeypatch.setattr(resource, "getrlimit",
                        lambda which: (limits["soft"], resource.RLIM_INFINITY))
    _check_memory(g, "probe", kernels=10)  # no limit set: physical memory only
    limits["soft"] = 100 * 2**20
    with pytest.raises(ValueError, match=r"probe would hold about 0\.2 GB \(10 dense 1024x1024 "
                                         r"kernels\), more than the 0\.1 GB address-space limit"):
        _check_memory(g, "probe", kernels=10)
    _check_memory(g, "probe", kernels=5)
    # the smaller bound is the one named
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**14}.get)  # 67 MB
    with pytest.raises(ValueError, match=r"more than the 0\.1 GB of physical memory"):
        _check_memory(g, "probe", kernels=10)
