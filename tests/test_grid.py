"""Grid, transform and norm tests against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac1d import (
    ConfigurationError,
    SpinorField,
    TorusGrid,
    norm,
    subsample,
)
from dirac1d.grid import (
    MAX_NODES,
    SPACE_OPERATORS,
    CenteredDifference,
    FourierDerivative,
    apply_sym2,
    sym2,
)

RNG = np.random.default_rng(42)


def random_field(grid, rng=RNG):
    v = rng.standard_normal((2, grid.N)) + 1j * rng.standard_normal((2, grid.N))
    return SpinorField(grid, v)


# ---------------------------------------------------------------------------
# brute-force oracles (O(N^2) sums straight from the definitions)
# ---------------------------------------------------------------------------

def spectral_derivative_oracle(field):
    """(i/N) sum_k sum_l mu_l exp(2i (j-k) l pi / N) f_k."""
    g = field.grid
    out = np.zeros((2, g.N), dtype=complex)
    for j in range(g.N):
        for k in range(g.N):
            for l in range(-g.N // 2, g.N // 2):
                mu = 2 * np.pi * l / (g.b - g.a)
                out[:, j] += 1j / g.N * mu * np.exp(2j * np.pi * (j - k) * l / g.N) * field.values[:, k]
    return out


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

class TestMakeGrid:
    def test_unit_torus_frequencies_are_integers(self):
        g = TorusGrid(0.0, 2 * np.pi, 4)
        assert g.h == pytest.approx(np.pi / 2)
        np.testing.assert_allclose(g.mu_fft, [0, 1, -2, -1], atol=1e-15)

    def test_benchmark_resolution(self):
        g = TorusGrid(0.0, 2 * np.pi, 128)
        assert g.h == pytest.approx(np.pi / 64)

    def test_scaled_interval(self):
        g = TorusGrid(-9.0, 9.0, 36)
        assert g.h == pytest.approx(0.5)
        np.testing.assert_allclose(g.mu_fft, np.pi * np.fft.ifftshift(np.arange(-18, 18)) / 9,
                                   atol=1e-14)

    @pytest.mark.parametrize("N", [3, 5, 2, 0, -4])
    def test_rejects_bad_node_counts(self, N):
        with pytest.raises(ConfigurationError):
            TorusGrid(0.0, 1.0, N)

    def test_rejects_a_node_count_numpy_cannot_hold(self):
        # numpy refuses this size before allocating anything
        with pytest.raises(ConfigurationError, match=f"<= {MAX_NODES}, got {10 ** 30}"):
            TorusGrid(0.0, 1.0, 10 ** 30)

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            TorusGrid(1.0, 1.0, 8)

    def test_highest_mode_frequency(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        assert g.mu_fft[g.N // 2] == pytest.approx(-np.pi / g.h)

    def test_mu_fft_labels_fft_storage_order(self):
        # c = fft(f)/N holds the coefficient of exp(i*mu_fft[k]*(x - a)) at k
        g = TorusGrid(-1.0, 3.0, 8)
        f = random_field(g)
        c = np.fft.fft(f.values, axis=1) / g.N
        waves = np.exp(1j * np.outer(g.mu_fft, g.x - g.a))  # (k, j)
        np.testing.assert_allclose(c @ waves, f.values, atol=1e-13)
        np.testing.assert_allclose(c, f.values @ np.conj(waves).T / g.N, atol=1e-13)


class TestFieldValidation:
    def test_shape_checked(self):
        g = TorusGrid(0.0, 1.0, 8)
        with pytest.raises(ConfigurationError):
            SpinorField(g, np.zeros((2, 6)))


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def stacked_products(m11, m12, m22, v):
    """The symmetric 2x2 multiply as four products and one np.stack."""
    return np.stack((m11 * v[0] + m12 * v[1], m12 * v[0] + m22 * v[1]))


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def entries(kind, n, rng):
    """(m11, m12, m22): one per node, CNFP's adjugate (1j + c, c*s_l, 1j - c)
    with scalar diagonal and a real m12, or three scalars."""
    if kind == "nodes":
        return tuple(complex_normal(rng, n) for _ in range(3))
    if kind == "adjugate":
        c = 0.37
        return 1j + c, c * rng.standard_normal(n), 1j - c
    return 0.5 + 0.1j, -0.2, 0.7j


class TestApplySym2:
    def test_equals_the_matrix_product_at_each_node_of_a_batch(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        v = rng.standard_normal((2, 3, 8)) + 1j * rng.standard_normal((2, 3, 8))
        dense = np.array([[m[0], m[1]], [m[1], m[2]]])  # (row, column, node)
        np.testing.assert_allclose(apply_sym2(sym2(*m), v), np.einsum("cdn,dbn->cbn", dense, v),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(2, 8), (2, 1, 8), (2, 3, 8), (2, 2, 8)])
    @pytest.mark.parametrize("kind", ["nodes", "adjugate", "scalars"])
    def test_bitwise_equal_to_the_stacked_products(self, shape, kind):
        rng = np.random.default_rng(11)
        m = entries(kind, shape[-1], rng)
        v = complex_normal(rng, shape)
        assert_bitwise_equal(apply_sym2(sym2(*m), v), stacked_products(*m, v))

    @pytest.mark.parametrize("shape", [(2, 8), (2, 3, 8)])
    def test_out_and_tmp_buffers(self, shape):
        rng = np.random.default_rng(12)
        m = sym2(*entries("nodes", shape[-1], rng))
        v = complex_normal(rng, shape)
        v_before = v.copy()
        out, tmp = np.empty_like(v), np.empty_like(v)
        assert apply_sym2(m, v, out=out, tmp=tmp) is out
        assert_bitwise_equal(out, apply_sym2(m, v))
        assert_bitwise_equal(v, v_before)

    @pytest.mark.parametrize("view", ["same", "components swapped", "nodes reversed"])
    def test_out_overlapping_v_gives_the_fresh_result(self, view):
        rng = np.random.default_rng(13)
        m = sym2(*entries("nodes", 8, rng))
        v = complex_normal(rng, (2, 3, 8))
        expected = apply_sym2(m, v)
        out = {"same": v, "components swapped": v[::-1], "nodes reversed": v[..., ::-1]}[view]
        result = apply_sym2(m, v, out=out, tmp=np.empty_like(v))
        assert result is out
        assert_bitwise_equal(np.ascontiguousarray(out), expected)

    def test_tmp_overlapping_v_or_out_is_refused(self):
        rng = np.random.default_rng(14)
        m = sym2(*entries("nodes", 8, rng))
        v = complex_normal(rng, (2, 8))
        out = np.empty_like(v)
        for tmp, given_out in ((v, None), (v[::-1], out), (out, out)):
            with pytest.raises(ValueError, match="tmp must not overlap"):
                apply_sym2(m, v, out=given_out, tmp=tmp)


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

class TestSpectralDerivative:
    def test_constant_goes_to_zero(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = SpinorField(g, np.ones((2, 8), dtype=complex))
        assert np.abs(FourierDerivative(g).apply(f.values)).max() < 1e-14

    def test_eigenfunction(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = SpinorField(g, np.stack((np.exp(1j * g.x), np.zeros_like(g.x, dtype=complex))))
        df = FourierDerivative(g).apply(f.values)
        np.testing.assert_allclose(df[0], 1j * np.exp(1j * g.x), atol=1e-13)

    def test_matches_double_sum_formula(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = random_field(g)
        np.testing.assert_allclose(FourierDerivative(g).apply(f.values),
                                   spectral_derivative_oracle(f), atol=1e-12)

    @pytest.mark.parametrize("l", [-3, -1, 0, 2])
    def test_single_modes_multiply_by_imu(self, l):
        g = TorusGrid(0.0, 4.0, 8)
        mu = 2 * np.pi * l / 4.0
        f = SpinorField(g, np.stack((np.exp(1j * mu * g.x), 2 * np.exp(1j * mu * g.x))))
        df = FourierDerivative(g).apply(f.values)
        np.testing.assert_allclose(df, 1j * mu * f.values, atol=1e-12)


class TestCenteredDifference:
    def test_constant_goes_to_zero(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = SpinorField(g, np.full((2, 8), 3.0 + 4j))
        assert np.abs(CenteredDifference(g).apply(f.values)).max() < 1e-14

    def test_single_mode_symbol(self):
        # acting on exp(i mu x) the stencil multiplies by i sin(mu h)/h
        g = TorusGrid(0.0, 2 * np.pi, 16)
        mu = g.mu_fft[1]  # l = 1
        f = SpinorField(g, np.stack((np.exp(1j * mu * g.x), np.exp(1j * mu * g.x))))
        df = CenteredDifference(g).apply(f.values)
        np.testing.assert_allclose(df, 1j * np.sin(mu * g.h) / g.h * f.values, atol=1e-13)

    def test_periodic_wrap_tiny_grid(self):
        g = TorusGrid(0.0, 1.0, 4)
        v = np.arange(8, dtype=complex).reshape(2, 4)
        df = CenteredDifference(g).apply(v)
        np.testing.assert_allclose(df[:, 0], (v[:, 1] - v[:, 3]) / (2 * g.h))

    def test_summation_by_parts(self):
        # sum_j g_j^* (d f)_j = -sum_j (d g)_j^* f_j for periodic fields
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f, w = random_field(g), random_field(g)
        d = CenteredDifference(g)
        lhs = np.vdot(w.values, d.apply(f.values))
        rhs = -np.vdot(d.apply(w.values), f.values)
        assert lhs == pytest.approx(rhs, abs=1e-12 * abs(lhs))

    @pytest.mark.parametrize("N", [4, 90])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_slices_equal_the_roll_formula_bitwise(self, N, batch):
        # every entry, the two wrapped ones included, is the same floating
        # point expression as (v_{j+1} - v_{j-1}) / (2h) with np.roll
        g = TorusGrid(-1.0, 2.5, N)
        shape = (2,) + batch + (N,)
        v = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
        want = (np.roll(v, -1, axis=-1) - np.roll(v, 1, axis=-1)) / (2.0 * g.h)
        got = SPACE_OPERATORS["fd"](g).apply(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSpaceOperatorSymbols:
    """FD and FP are the same Fourier multiplier form with different symbols:
    fft(apply(v)) = i*symbol*fft(v) for every field on every even grid."""

    @pytest.mark.parametrize("space", sorted(SPACE_OPERATORS))
    @settings(max_examples=40, deadline=None)
    @given(half_n=st.integers(2, 256), length=st.floats(0.5, 50.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_apply_is_multiplication_by_symbol(self, space, half_n, length, seed):
        g = TorusGrid(-0.3 * length, 0.7 * length, 2 * half_n)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((2, g.N)) + 1j * rng.standard_normal((2, g.N))
        op = SPACE_OPERATORS[space](g)
        lhs = np.fft.fft(op.apply(v), axis=1)
        rhs = 1j * op.symbol * np.fft.fft(v, axis=1)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

class TestNorms:
    def test_zero_field(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        z = SpinorField(g, np.zeros((2, 8)))
        assert norm(z, "l1") == norm(z, "l2") == norm(z, "linf") == 0.0

    def test_constant_unit_spinor(self):
        g = TorusGrid(0.0, 2 * np.pi, 16)
        f = SpinorField(g, np.stack((np.ones(16, complex), np.zeros(16, complex))))
        assert norm(f, "l2") == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)

    def test_matches_direct_summation(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        f = random_field(g)
        mags = [np.hypot(abs(f.values[0, j]), abs(f.values[1, j])) for j in range(8)]
        assert norm(f, "l1") == pytest.approx(g.h * sum(mags), rel=1e-13)
        assert norm(f, "l2") == pytest.approx(np.sqrt(g.h * sum(m * m for m in mags)), rel=1e-13)
        assert norm(f, "linf") == pytest.approx(max(mags), rel=1e-13)

    def test_unknown_kind_rejected(self):
        g = TorusGrid(0.0, 2 * np.pi, 8)
        with pytest.raises(ConfigurationError):
            norm(random_field(g), "l3")


# ---------------------------------------------------------------------------
# restriction / resampling
# ---------------------------------------------------------------------------

class TestRestriction:
    def test_subsample_picks_shared_nodes(self):
        fine = TorusGrid(0.0, 2 * np.pi, 32)
        coarse = TorusGrid(0.0, 2 * np.pi, 8)
        f = random_field(fine)
        sub = subsample(f, coarse)
        np.testing.assert_array_equal(sub.values, f.values[:, ::4])

    def test_subsample_requires_nesting(self):
        fine = TorusGrid(0.0, 2 * np.pi, 32)
        odd = TorusGrid(0.0, 2 * np.pi, 12)
        with pytest.raises(ConfigurationError):
            subsample(random_field(fine), odd)
