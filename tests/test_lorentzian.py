"""Profile construction, derivatives, shifts, and the 1D overlap metric."""

import math

import numpy as np
import pytest

from mflo.lorentzian import (
    AxisLayout,
    AxisProfiles,
    LorentzianBasisSpec,
    boundary_mass,
    lf_profile,
    lf_profile_da,
    lf_state,
)

WIDTHS = (0.1, 0.5, 1.0, 2.0, 5.0)


def naive_profile(n, a):
    """The defining formula evaluated term by term, no algebraic rearrangement."""
    N = 2 ** n
    raw = []
    for k in range(N):
        num = (1 - math.exp(-2 * a)) * (1 - (-1) ** k * math.exp(-a * N / 2))
        den = 1 - 2 * math.exp(-a) * math.cos(2 * math.pi * k / N) + math.exp(-2 * a)
        raw.append(num / den)
    raw = np.asarray(raw)
    norm = float(np.linalg.norm(raw))
    return raw / norm, math.sqrt(N) / norm


# values frozen from naive_profile, evaluated independently of the package
FROZEN_N3_A07 = np.array([
    0.7688456181882923, 0.4043164353159155, 0.1563021162860825,
    0.11292529134146578, 0.08699373367892048, 0.11292529134146578,
    0.15630211628608245, 0.40431643531591527,
])
FROZEN_CS_N3_A07 = 0.778852323427573
FROZEN_N4_A13_HEAD = np.array([
    0.4059432256297562, 0.37645366013053516, 0.3118640064487683,
    0.2481755452558599,
])


def test_profile_matches_frozen_values():
    values, c_s = lf_profile(3, 0.7)
    np.testing.assert_allclose(values, FROZEN_N3_A07, rtol=0, atol=1e-14)
    assert c_s == pytest.approx(FROZEN_CS_N3_A07, abs=1e-13)
    values, _ = lf_profile(4, 1.3)
    np.testing.assert_allclose(values[:4], FROZEN_N4_A13_HEAD, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("a", WIDTHS)
def test_profile_matches_naive_formula(n, a):
    values, c_s = lf_profile(n, a)
    ref, ref_cs = naive_profile(n, a)
    np.testing.assert_allclose(values, ref, rtol=0, atol=1e-13)
    assert c_s == pytest.approx(ref_cs, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("a", WIDTHS)
def test_profile_unit_norm_positive_symmetric(n, a):
    values, c_s = lf_profile(n, a)
    assert values.shape == (2 ** n,)
    assert float(values @ values) == pytest.approx(1.0, abs=1e-12)
    assert np.all(values > 0)
    assert c_s > 0
    # mirror symmetry k -> N - k
    np.testing.assert_allclose(values[1:], values[1:][::-1], rtol=0, atol=1e-14)


def test_small_width_concentrates_on_origin():
    values, _ = lf_profile(4, 1e-6)
    assert values[0] >= 1.0 - 1e-8
    assert float(np.max(values[1:])) < 1e-4


def test_large_width_flattens():
    values, _ = lf_profile(4, 50.0)
    assert float(np.ptp(values)) < 1e-12
    assert values[0] == pytest.approx(1.0 / 4.0, abs=1e-12)  # 1/sqrt(16)


def test_width_monotone_spread():
    # larger width -> less weight on the central sample
    peaks = [lf_profile(5, a)[0][0] for a in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(p1 > p2 for p1, p2 in zip(peaks, peaks[1:]))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_invalid_widths_rejected(bad):
    with pytest.raises(ValueError):
        lf_profile(4, bad)


def test_invalid_qubit_count_rejected():
    with pytest.raises(ValueError):
        lf_profile(0, 1.0)


@pytest.mark.parametrize("k_c", [0, 3, 7, 15])
def test_state_is_cyclic_shift(k_c):
    values, _ = lf_profile(4, 0.8)
    np.testing.assert_array_equal(lf_state(4, 0.8, k_c), np.roll(values, k_c))


@pytest.mark.parametrize("a", [0.5, 2.0])
@pytest.mark.parametrize("k_c", [1, 5, 12])
def test_shift_composition_returns_home(a, k_c):
    N = 16
    state = lf_state(4, a, k_c)
    np.testing.assert_array_equal(np.roll(state, N - k_c), lf_profile(4, a)[0])


def test_center_out_of_range_rejected():
    with pytest.raises(ValueError):
        lf_state(4, 1.0, 16)
    with pytest.raises(ValueError):
        lf_state(4, 1.0, -1)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("a", WIDTHS)
def test_profile_derivative_matches_central_difference(n, a):
    h = 1e-6
    fd = (lf_profile(n, a + h)[0] - lf_profile(n, a - h)[0]) / (2 * h)
    grad = lf_profile_da(n, a)
    scale = float(np.max(np.abs(grad)))
    assert scale > 0
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-6 * scale)


@pytest.mark.parametrize("a", [0.3, 1.7])
def test_profile_derivative_orthogonal_to_profile(a):
    # d/da of a unit-norm vector stays tangent to the sphere
    values, _ = lf_profile(5, a)
    assert abs(float(values @ lf_profile_da(5, a))) < 1e-12


def test_state_derivative_is_shifted_derivative():
    dV = AxisProfiles(AxisLayout(4, [5]), [1.2]).states_da()
    np.testing.assert_array_equal(dV[0], np.roll(lf_profile_da(4, 1.2), 5))


@pytest.mark.parametrize("n,counts", [(7, (6, 4, 4)), (8, (3, 2, 2))])
def test_one_pass_over_a_basis_equals_one_pass_per_direction(n, counts):
    # the fit builds every LF of a basis in one pass; a direction's rows must
    # carry the bits of that direction built alone
    rng = np.random.default_rng(sum(counts))
    centers = [np.sort(rng.choice(1 << n, size=c, replace=False)) for c in counts]
    widths = [rng.uniform(1e-3, 3.0, size=c) for c in counts]
    whole = AxisProfiles(AxisLayout(n, np.concatenate(centers)), np.concatenate(widths))
    states, states_da = whole.states(), whole.states_da()
    start = 0
    for k, a in zip(centers, widths):
        part = AxisProfiles(AxisLayout(n, k), a)
        rows = slice(start, start + k.size)
        assert np.array_equal(states[rows], part.states())
        assert np.array_equal(states_da[rows], part.states_da())
        start += k.size


PARITY_WIDTHS = (1e-3, 0.05, 0.6, 7.9, 50.0)


def _mp_profile(n, a, mp):
    """The defining formula term by term in extended precision, unit-normalized."""
    N = 2 ** n
    a = mp.mpf(a)
    raw = [(1 - mp.exp(-2 * a)) * (1 - (-1) ** k * mp.exp(-a * N / 2))
           / (1 - 2 * mp.exp(-a) * mp.cos(2 * mp.pi * k / N) + mp.exp(-2 * a))
           for k in range(N)]
    norm = mp.sqrt(mp.fsum(r * r for r in raw))
    return [r / norm for r in raw]


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_state_matrices_match_closed_form_and_central_difference(n):
    # every width x center pair in one direction, built by the vectorized path
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    N = 2 ** n
    centers = sorted({0, N // 2, N - 1})
    pairs = [(a, k) for a in PARITY_WIDTHS for k in centers]
    spec = _spec(n=n, widths=([a for a, _ in pairs], (1.0,), (2.0,)),
                 centers=([k for _, k in pairs], (0,), (0,)))
    V = spec.state_matrix("x")
    dV = AxisProfiles(spec.layouts[0], spec.widths[0]).states_da()
    for a in PARITY_WIDTHS:
        with mpmath.workdps(60):
            h = mp.mpf("1e-20")
            ref = np.array(_mp_profile(n, a, mp), dtype=float)
            plus = _mp_profile(n, a + h, mp)
            minus = _mp_profile(n, a - h, mp)
            fd = np.array([(p - m) / (2 * h) for p, m in zip(plus, minus)], dtype=float)
        scale = float(np.max(np.abs(fd)))
        for row in [i for i, (a_row, _) in enumerate(pairs) if a_row == a]:
            k_c = pairs[row][1]
            np.testing.assert_allclose(V[row], np.roll(ref, k_c), rtol=0, atol=1e-14)
            np.testing.assert_allclose(dV[row], np.roll(fd, k_c), rtol=0, atol=1e-12 * scale)


def _spec(n=4, widths=((0.5, 1.5), (1.0,), (2.0,)), centers=((3, 9), (8,), (8,))):
    return LorentzianBasisSpec(
        n=n,
        widths=tuple(np.asarray(w, dtype=float) for w in widths),
        centers=tuple(np.asarray(c, dtype=int) for c in centers),
    )


class TestBasisSpec:
    def test_layout_properties(self):
        spec = _spec()
        assert spec.N == 16
        assert spec.n_l == (2, 1, 1)
        assert spec.n_prod == 2

    def test_state_matrix_rows(self):
        spec = _spec()
        V = spec.state_matrix("x")
        assert V.shape == (2, 16)
        np.testing.assert_array_equal(V[0], lf_state(4, 0.5, 3))
        np.testing.assert_array_equal(V[1], lf_state(4, 1.5, 9))

    def test_axis_aliases_agree(self):
        spec = _spec()
        np.testing.assert_array_equal(spec.state_matrix(0), spec.state_matrix("x"))
        np.testing.assert_array_equal(spec.state_matrix(2), spec.state_matrix("z"))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            _spec(widths=((0.5, 0.5), (1.0,), (2.0,)), centers=((3, 3), (8,), (8,)))

    def test_duplicate_center_different_width_allowed(self):
        spec = _spec(widths=((0.5, 0.9), (1.0,), (2.0,)), centers=((3, 3), (8,), (8,)))
        assert spec.n_prod == 2

    def test_center_range_checked(self):
        with pytest.raises(ValueError):
            _spec(centers=((3, 16), (8,), (8,)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _spec(widths=((0.5,), (1.0,), (2.0,)), centers=((3, 9), (8,), (8,)))

    def test_qubit_count_checked(self):
        with pytest.raises(ValueError, match="qubit count must be >= 1"):
            _spec(n=0)

    def test_empty_direction_rejected(self):
        with pytest.raises(ValueError, match="direction x: need at least one LF"):
            _spec(widths=((), (1.0,), (2.0,)), centers=((), (8,), (8,)))

    @pytest.mark.parametrize("axis", ["w", 3, -1, None])
    def test_unknown_axis_rejected(self, axis):
        with pytest.raises(ValueError, match="axis must be one of"):
            _spec().state_matrix(axis)

    @pytest.mark.parametrize("count", [3, 5])
    def test_with_widths_count_checked(self, count):
        with pytest.raises(ValueError, match=f"expected 4 widths, got {count}"):
            _spec().with_widths(np.ones(count))

    def test_with_widths_roundtrip(self):
        spec = _spec()
        flat = spec.widths_flat()
        np.testing.assert_array_equal(flat, [0.5, 1.5, 1.0, 2.0])
        spec2 = spec.with_widths(flat * 2.0)
        assert spec2.n_l == spec.n_l
        np.testing.assert_array_equal(spec2.widths_flat(), flat * 2.0)
        np.testing.assert_array_equal(spec2.centers[0], spec.centers[0])

    def test_arrays_frozen(self):
        spec = _spec()
        with pytest.raises(ValueError):
            spec.widths[0][0] = 9.9


class TestOverlap1D:
    def test_matches_gram_of_state_matrix(self):
        spec = _spec()
        V = spec.state_matrix("x")
        np.testing.assert_allclose(spec.overlaps[0], V @ V.T, atol=1e-15)

    def test_unit_diagonal_symmetric(self):
        spec = _spec(widths=((0.4, 1.1, 2.2), (1.0,), (2.0,)),
                     centers=((2, 8, 13), (8,), (8,)))
        S = spec.overlaps[0]
        np.testing.assert_allclose(np.diag(S), np.ones(3), atol=1e-12)
        np.testing.assert_array_equal(S, S.T)
        assert np.all(S > 0)  # LF entries are positive, so overlaps are too
        assert np.all(S <= 1 + 1e-12)

    def test_positive_semidefinite(self):
        spec = _spec(widths=((0.4, 0.8, 1.6, 3.2), (1.0,), (2.0,)),
                     centers=((2, 6, 10, 14), (8,), (8,)))
        w = np.linalg.eigvalsh(spec.overlaps[0])
        assert w.min() > -1e-12

    def test_shift_invariance(self):
        # overlaps depend on center separation only (cyclic convolution structure)
        s1 = _spec(widths=((0.7, 1.3), (1.0,), (1.0,)), centers=((2, 5), (8,), (8,)))
        s2 = _spec(widths=((0.7, 1.3), (1.0,), (1.0,)), centers=((9, 12), (8,), (8,)))
        np.testing.assert_allclose(s1.overlaps[0], s2.overlaps[0], atol=1e-13)

    def test_cached_overlaps_are_symmetrized_gram(self):
        spec = _spec()
        for v in range(3):
            V = spec.state_matrix(v)
            s = V @ V.T
            np.testing.assert_array_equal(spec.overlaps[v], 0.5 * (s + s.T))

    def test_cached_overlaps_read_only(self):
        spec = _spec()
        with pytest.raises(ValueError):
            spec.overlaps[0][0, 0] = 2.0
        with pytest.raises(ValueError):
            spec.overlaps[1][0, 0] = 2.0


class TestBoundaryMass:
    def test_centered_narrow_state_clears_margin(self):
        spec = _spec(n=6, widths=((0.3,), (0.3,), (0.3,)), centers=((32,), (32,), (32,)))
        assert float(boundary_mass(spec, 0)[0]) < 1e-3

    def test_edge_centered_state_flagged(self):
        spec = _spec(widths=((1.0,), (1.0,), (1.0,)), centers=((0,), (8,), (8,)))
        assert float(boundary_mass(spec, 0)[0]) > 0.5

    def test_mass_bounded_by_one(self):
        spec = _spec()
        m = boundary_mass(spec, 0)
        assert np.all(m >= 0) and np.all(m <= 1 + 1e-12)


class TestProfileProperties:
    """Width-independent invariants, searched over the continuous range."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    widths_st = st.floats(min_value=1e-3, max_value=50.0,
                          allow_nan=False, allow_infinity=False)

    @given(a=widths_st, n=st.integers(min_value=2, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_positive_symmetric(self, a, n):
        values, c_s = lf_profile(n, a)
        assert c_s > 0
        assert float(values @ values) == pytest.approx(1.0, abs=1e-12)
        assert np.all(values > 0)
        np.testing.assert_allclose(values[1:], values[1:][::-1], rtol=0, atol=1e-12)

    @given(a=widths_st, n=st.integers(min_value=2, max_value=5),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_shift_is_cyclic_permutation(self, a, n, data):
        k_c = data.draw(self.st.integers(min_value=0, max_value=2 ** n - 1))
        state = lf_state(n, a, k_c)
        base, _ = lf_profile(n, a)
        np.testing.assert_array_equal(state, np.roll(base, k_c))

    @given(a_lo=widths_st, a_hi=widths_st)
    @settings(max_examples=40, deadline=None)
    def test_peak_decays_with_width_parameter(self, a_lo, a_hi):
        # small a concentrates the profile on its center (delta limit);
        # large a spreads it flat, so the peak is non-increasing in a
        if a_lo > a_hi:
            a_lo, a_hi = a_hi, a_lo
        lo, _ = lf_profile(4, a_lo)
        hi, _ = lf_profile(4, a_hi)
        assert hi[0] <= lo[0] + 1e-12
