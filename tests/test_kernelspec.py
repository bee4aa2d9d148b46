import mpmath
import numpy as np
import pytest

from cvwitness.kernelspec import (
    KernelSpec,
    analytic_eigenvalue,
    legendre_grid,
    nystrom_spectrum,
    trace_identity,
)

from oracles import kernel_eigenfunction


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(alpha=-1.0, r=0.5)
    with pytest.raises(ValueError):
        KernelSpec(alpha=1.0, r=1.0)


def test_spec_rejects_alpha_beyond_float64():
    # 2 alpha overflows in the kernel; the grid half-width 8/sqrt(beta) overflows when squared
    for alpha in (1.7e308, 1e-320):
        with pytest.raises(ValueError):
            KernelSpec(alpha=alpha, r=0.5)
    for alpha in (8.9e307, 1e-306):
        KernelSpec(alpha=alpha, r=0.5)


def test_beta_definition():
    k = KernelSpec(alpha=2.0, r=0.6)
    assert k.beta == pytest.approx(2.0 * np.sqrt(1 - 0.36))


def test_eigenvalue_ladder_is_geometric():
    k = KernelSpec(alpha=1.0, r=0.5)
    q = k.alpha * k.r / (k.alpha + k.beta)
    for n in range(1, 8):
        assert analytic_eigenvalue(k, n) / analytic_eigenvalue(k, n - 1) == pytest.approx(q)


def test_analytic_eigenvalue_rejects_negative_index():
    with pytest.raises(ValueError, match="non-negative"):
        analytic_eigenvalue(KernelSpec(alpha=1.0, r=0.5), -1)


def test_negative_r_alternating_signs():
    k = KernelSpec(alpha=1.0, r=-0.5)
    assert analytic_eigenvalue(k, 0) > 0
    assert analytic_eigenvalue(k, 1) < 0
    assert analytic_eigenvalue(k, 2) > 0


def test_eigenfunctions_are_orthonormal():
    k = KernelSpec(alpha=1.0, r=0.6)
    xs, ws = legendre_grid(k)
    for m in range(4):
        for n in range(4):
            ip = np.sum(ws * kernel_eigenfunction(k.beta, m, xs)
                        * kernel_eigenfunction(k.beta, n, xs))
            assert ip == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


def test_apply_kernel_reproduces_eigenvalue():
    k = KernelSpec(alpha=1.5, r=0.4)
    xs, ws = legendre_grid(k)
    for n in range(5):
        phi = kernel_eigenfunction(k.beta, n, xs)
        out = k.kappa(xs[:, None], xs[None, :]) @ (ws * phi)
        mu = analytic_eigenvalue(k, n)
        assert np.max(np.abs(out - mu * phi)) < 1e-8


def test_nystrom_matches_analytic():
    for alpha in (0.5, 1.0, 2.0):
        for r in (0.3, -0.3, 0.7, -0.7):
            k = KernelSpec(alpha=alpha, r=r)
            vals = nystrom_spectrum(k)
            for n in range(10):
                assert vals[n] == pytest.approx(analytic_eigenvalue(k, n), abs=1e-6)


def test_trace_identity_against_spectrum():
    k = KernelSpec(alpha=1.0, r=0.7)
    vals = nystrom_spectrum(k)
    assert sum(vals) == pytest.approx(trace_identity(k), abs=1e-8)


def test_trace_identity_at_subnormal_scale():
    # 2 alpha (1 - r) is subnormal here; pi over it overflowed to inf
    k = KernelSpec(alpha=1e-298, r=1 - 1e-16)
    with mpmath.workdps(50):
        want = mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(k.alpha) * (1 - mpmath.mpf(k.r))))
        assert abs(trace_identity(k) - want) <= 1e-14 * want
