"""Tensor kernels against explicit loops and dense oracles."""

import numpy as np
import pytest

from mflo.tensor import cp_full, khatri_rao, metric_inner, mode_product, mttkrp, unfold

SHAPE = (3, 4, 5)


def _factors(rng, R, shape=SHAPE):
    return [rng.normal(size=(R, n)) for n in shape]


def _outer_sum(weights, factors):
    out = np.zeros(tuple(f.shape[1] for f in factors))
    for r, w in enumerate(weights):
        out += w * np.multiply.outer(np.multiply.outer(factors[0][r], factors[1][r]),
                                     factors[2][r])
    return out


def _khatri_rao(a, b):
    # column r is kron(a[r], b[r]), first factor slowest (C order)
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1).T


class TestCpFull:
    @pytest.mark.parametrize("R", [1, 4])
    def test_matches_outer_product_loop(self, R):
        rng = np.random.default_rng(R)
        w = rng.normal(size=R)
        f = _factors(rng, R)
        np.testing.assert_allclose(cp_full(w, f), _outer_sum(w, f), rtol=0, atol=1e-13)

    def test_grid_sized_axis(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 2.0, size=3)
        f = _factors(rng, 3, shape=(2, 3, 64))
        out = cp_full(w, f)
        assert out.shape == (2, 3, 64)
        np.testing.assert_allclose(out, _outer_sum(w, f), rtol=0, atol=1e-13)

    def test_unit_weights_and_prebuilt_product_give_the_same_bits(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(2, 4))
        f = [rng.normal(size=(2, 4, n)) for n in SHAPE]
        np.testing.assert_array_equal(cp_full(None, f), cp_full(np.ones((2, 4)), f))
        kr = khatri_rao(f[0] * w[..., None], f[1])
        np.testing.assert_array_equal(cp_full(w, f, kr), cp_full(w, f))


class TestMttkrp:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_loops(self, mode):
        rng = np.random.default_rng(10 + mode)
        t = rng.normal(size=SHAPE)
        f = _factors(rng, 3)
        expect = np.zeros((3, SHAPE[mode]))
        for r in range(3):
            for a, b, c in np.ndindex(*SHAPE):
                idx = (a, b, c)
                others = [f[v][r, idx[v]] for v in range(3) if v != mode]
                expect[r, idx[mode]] += t[a, b, c] * others[0] * others[1]
        np.testing.assert_allclose(mttkrp(unfold(t, mode), f, mode), expect, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_prebuilt_product_gives_the_same_bits(self, mode):
        rng = np.random.default_rng(30 + mode)
        t = rng.normal(size=(2, *SHAPE))
        f = [rng.normal(size=(2, 3, n)) for n in SHAPE]
        kr = khatri_rao(*(f[v] for v in range(3) if v != mode))
        np.testing.assert_array_equal(mttkrp(unfold(t, mode), f, mode, kr),
                                      mttkrp(unfold(t, mode), f, mode))


class TestUnfold:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_column_order_matches_mttkrp(self, mode):
        rng = np.random.default_rng(20 + mode)
        t = rng.normal(size=SHAPE)
        f = _factors(rng, 3)
        a, b = [f[v] for v in range(3) if v != mode]
        np.testing.assert_allclose(unfold(t, mode) @ _khatri_rao(a, b),
                                   mttkrp(unfold(t, mode), f, mode).T, rtol=0, atol=1e-13)

    def test_c_order_reshape(self):
        t = np.arange(np.prod(SHAPE), dtype=float).reshape(SHAPE)
        np.testing.assert_array_equal(unfold(t, 0), t.reshape(3, -1))
        np.testing.assert_array_equal(unfold(t, 1), t.transpose(1, 0, 2).reshape(4, -1))
        np.testing.assert_array_equal(unfold(t, 2), t.transpose(2, 0, 1).reshape(5, -1))


class TestBatchAxis:
    """A leading batch axis runs one contraction per element."""

    B = 4

    def _stack(self, seed, R=3):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(self.B, *SHAPE))
        f = [rng.normal(size=(self.B, R, n)) for n in SHAPE]
        return rng, t, f

    def test_khatri_rao_columns(self):
        _, _, f = self._stack(50)
        out = khatri_rao(f[0], f[1])
        assert out.shape == (self.B, SHAPE[0] * SHAPE[1], 3)
        for b in range(self.B):
            np.testing.assert_array_equal(out[b], _khatri_rao(f[0][b], f[1][b]))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_unfold_and_mttkrp(self, mode):
        _, t, f = self._stack(51 + mode)
        unfolded = unfold(t, mode)
        batched = mttkrp(unfolded, f, mode)
        assert batched.shape == (self.B, 3, SHAPE[mode])
        for b in range(self.B):
            np.testing.assert_array_equal(unfolded[b], unfold(t[b], mode))
            np.testing.assert_array_equal(
                batched[b], mttkrp(unfold(t[b], mode), [m[b] for m in f], mode))

    def test_cp_full(self):
        rng, _, f = self._stack(54)
        w = rng.normal(size=(self.B, 3))
        batched = cp_full(w, f)
        assert batched.shape == (self.B, *SHAPE)
        for b in range(self.B):
            np.testing.assert_array_equal(batched[b], cp_full(w[b], [m[b] for m in f]))

    @pytest.mark.parametrize("keep", [[0, 2], [3]])
    def test_subset_of_stack(self, keep):
        # the stacked ALS drops finished members; the rest must not notice,
        # down to a stack of one
        _, t, f = self._stack(55)
        for mode in range(3):
            np.testing.assert_array_equal(
                mttkrp(unfold(t[keep], mode), [m[keep] for m in f], mode),
                mttkrp(unfold(t, mode), f, mode)[keep])


class TestModeProduct:
    def test_all_axes(self):
        rng = np.random.default_rng(30)
        t = rng.normal(size=SHAPE)
        m = [rng.normal(size=(n, n + 1)) for n in SHAPE]
        np.testing.assert_allclose(mode_product(t, m),
                                   np.einsum("abc,aA,bB,cC->ABC", t, *m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("skip", [0, 1, 2])
    def test_none_leaves_axis(self, skip):
        rng = np.random.default_rng(31 + skip)
        t = rng.normal(size=SHAPE)
        m = [rng.normal(size=(n, 2)) for n in SHAPE]
        m[skip] = np.eye(SHAPE[skip])
        expect = np.einsum("abc,aA,bB,cC->ABC", t, *m)
        m[skip] = None
        np.testing.assert_allclose(mode_product(t, m), expect, rtol=0, atol=1e-12)


class TestMetricInner:
    def test_matches_dense_kron_form(self):
        rng = np.random.default_rng(40)
        a, b = rng.normal(size=SHAPE), rng.normal(size=SHAPE)
        S = []
        for n in SHAPE:
            x = rng.normal(size=(n, n))
            g = x @ x.T + n * np.eye(n)
            scale = 1.0 / np.sqrt(np.diag(g))
            S.append(g * np.outer(scale, scale))  # unit diagonal, like an LF overlap
        dense = np.kron(np.kron(S[0], S[1]), S[2])
        expect = float(a.ravel() @ dense @ b.ravel())
        assert metric_inner(a, b, S) == pytest.approx(expect, rel=0, abs=1e-13)
        assert metric_inner(a, b, S) == pytest.approx(metric_inner(b, a, S), rel=1e-13)
