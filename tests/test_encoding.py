"""Gate-count closed forms, post-selection probabilities, and LCU oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from mflo.cpd import CpdOptions, decompose_cores
from mflo.encoding import (
    TWO_CENTER_COLUMNS,
    ancilla_counts,
    cnot_count_canonical,
    cnot_count_tucker,
    lcu_postselect_oracle,
    qft_cx_informational,
    rank_ancillae,
    success_prob_canonical,
    success_prob_tucker,
    tucker_success_from_core,
    two_center_analysis,
    two_center_csv_lines,
)
from mflo.fitting import TuckerState, overlap_3d
from mflo.lorentzian import LorentzianBasisSpec, lf_state

# frozen reference rows: (n_L, n_qe, R) -> (tucker total, sph share, canonical total)
GATE_COUNT_ROWS = [
    ((3, 3, 3), 7, 3, 305, 243, 281),
    ((3, 4, 2), 7, 2, 231, 201, 215),
    ((3, 3, 2), 7, 3, 231, 201, 231),
    ((4, 2, 2), 7, 2, 173, 159, 169),
    ((2, 1, 1), 6, 2, 63, 63, 65),
]


def _spec(n_l=(2, 2, 2)):
    layouts = {
        (2, 2, 2): (((0.8, 1.3), (0.9, 0.6), (1.1, 0.7)), ((5, 9), (6, 10), (7, 11))),
        (2, 2, 1): (((0.8, 1.3), (0.9, 0.6), (1.1,)), ((5, 9), (6, 10), (8,))),
        (2, 1, 1): (((0.8, 1.3), (0.9,), (1.1,)), ((5, 9), (8,), (8,))),
    }
    widths, centers = layouts[tuple(n_l)]
    return LorentzianBasisSpec(
        n=4,
        widths=tuple(np.asarray(w, dtype=float) for w in widths),
        centers=tuple(np.asarray(c, dtype=int) for c in centers),
    )


def _tucker(core, spec):
    d = np.asarray(core, dtype=np.float64)
    S = overlap_3d(spec)
    kappa = float(d.ravel() @ S @ d.ravel())
    return TuckerState(spec=spec, core=d, fidelity=kappa, squared_overlap=kappa,
                       penalty=0.0, kappa_max=kappa)


class TestAncillae:
    @pytest.mark.parametrize("n_l,expect", [
        ((3, 3, 3), (2, 2, 2)),
        ((1, 1, 1), (0, 0, 0)),
        ((4, 2, 2), (2, 1, 1)),
        ((2, 1, 1), (1, 0, 0)),
        ((5, 8, 9), (3, 3, 4)),
    ])
    def test_per_axis_counts(self, n_l, expect):
        n_a, n_al = ancilla_counts(n_l)
        assert n_a == expect
        assert n_al == sum(expect)

    @pytest.mark.parametrize("R,expect", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
    def test_rank_register(self, R, expect):
        assert rank_ancillae(R) == expect

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ancilla_counts((2, 2))
        with pytest.raises(ValueError):
            ancilla_counts((2, 0, 2))
        with pytest.raises(ValueError):
            rank_ancillae(0)


class TestGateCounts:
    @pytest.mark.parametrize("n_l,n_qe,R,tucker_total,sph,canon_total", GATE_COUNT_ROWS)
    def test_reference_rows(self, n_l, n_qe, R, tucker_total, sph, canon_total):
        t = cnot_count_tucker(n_l, n_qe)
        c = cnot_count_canonical(n_l, n_qe, R)
        assert (t.cx_total, t.cx_sph) == (tucker_total, sph)
        assert c.cx_sph == sph
        assert c.cx_total == canon_total

    @pytest.mark.parametrize("n_l", [(2, 2, 2), (3, 2, 2), (4, 3, 2), (5, 5, 5)])
    @pytest.mark.parametrize("n_qe", [4, 6, 7])
    def test_tucker_components_sum(self, n_l, n_qe):
        rep = cnot_count_tucker(n_l, n_qe)
        n_a = tuple((c - 1).bit_length() for c in n_l)
        assert ancilla_counts(n_l)[0] == n_a
        assert rep.cx_sph == -9 + 3 * n_qe * sum(2 ** v for v in n_a)
        assert rep.cx_amp == 2 ** sum(n_a) - 2
        assert rep.cx_total == rep.cx_sph + rep.cx_amp

    @pytest.mark.parametrize("n_l", [(2, 2, 2), (3, 2, 2), (4, 3, 2)])
    @pytest.mark.parametrize("n_qe", [4, 7])
    @pytest.mark.parametrize("R", [2, 3, 4])
    def test_canonical_matches_closed_form(self, n_l, n_qe, R):
        rep = cnot_count_canonical(n_l, n_qe, R)
        n_a = tuple((c - 1).bit_length() for c in n_l)
        n_ac = (R - 1).bit_length()
        pow_sum = sum(2 ** v for v in n_a)
        closed = -(2 ** (n_ac + 1)) - 11 + (3 * n_qe + 2 ** n_ac) * pow_sum
        assert rep.cx_total == closed
        assert rank_ancillae(R) == n_ac

    def test_single_product_state_has_no_amplitude_stage(self):
        rep = cnot_count_tucker((1, 1, 1), 4)
        assert rep.cx_amp == 0
        assert rep.cx_total == rep.cx_sph == -9 + 3 * 4 * 3
        can = cnot_count_canonical((1, 1, 1), 4, 1)
        assert can.cx_amp == 0
        assert can.cx_total == can.cx_sph

    def test_qft_share_reported_but_excluded(self):
        assert qft_cx_informational(7) == 3 * (7 * 6 + 3 * 3)
        assert cnot_count_tucker((3, 3, 3), 7).cx_total == 305  # unchanged by the QFT share


class TestTuckerSuccess:
    def test_reference_cores(self):
        # two-term cores quoted to three decimals reproduce the published
        # success probabilities at the same precision
        assert tucker_success_from_core([0.523, 0.581]) == pytest.approx(0.82, abs=0.005)
        assert tucker_success_from_core([1.56, -1.55]) == pytest.approx(0.10, abs=0.005)

    def test_frozen_values(self):
        assert tucker_success_from_core([0.523, 0.581]) == pytest.approx(
            0.8182100836210706, rel=1e-14)
        assert tucker_success_from_core([1.56, -1.55]) == pytest.approx(
            0.1033890945183102, rel=1e-14)

    def test_matches_branch_oracle(self):
        spec = _spec()
        rng = np.random.default_rng(21)
        core = rng.normal(size=(2, 2, 2))
        tucker = _tucker(core, spec)
        S = overlap_3d(spec)
        branches = [(w, row) for w, row in zip(core.ravel(), np.eye(8))]
        assert success_prob_tucker(tucker) == pytest.approx(
            lcu_postselect_oracle(branches, metric=S), abs=1e-12)

    def test_normalized_core_reduces_to_inverse_norm(self):
        spec = _spec()
        rng = np.random.default_rng(22)
        core = rng.normal(size=(2, 2, 2))
        S = overlap_3d(spec)
        d = core.ravel() / math.sqrt(float(core.ravel() @ S @ core.ravel()))
        assert tucker_success_from_core(d.reshape(2, 2, 2)) == pytest.approx(
            success_prob_tucker(_tucker(d.reshape(2, 2, 2), spec)), rel=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_probability_in_unit_interval(self, seed):
        spec = _spec()
        core = np.random.default_rng(seed).normal(size=(2, 2, 2))
        p = success_prob_tucker(_tucker(core, spec))
        assert 0.0 < p <= 1.0

    def test_zero_core_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            tucker_success_from_core(np.zeros(4))


class TestCanonicalSuccess:
    @pytest.mark.parametrize("n_l,R,seed", [
        ((2, 2, 2), 1, 0),
        ((2, 2, 2), 2, 1),
        ((2, 2, 2), 3, 2),
        ((2, 2, 1), 2, 3),
        ((2, 1, 1), 2, 4),
    ])
    def test_matches_flat_branch_oracle(self, n_l, R, seed):
        # every (rank, product-label) pair is one LCU branch whose weight is
        # the separable coefficient; the oracle needs no closed form at all
        spec = _spec(n_l)
        rng = np.random.default_rng(seed)
        tucker = _tucker(rng.normal(size=n_l), spec)
        canon = decompose_cores([tucker], [R], CpdOptions(n_restarts=4, seed=0))[R][0]
        S = overlap_3d(spec)
        n_prod = spec.n_prod
        w = np.einsum("r,ra,rb,rc->rabc", canon.lambdas, *canon.u).reshape(-1)
        states = np.tile(np.eye(n_prod), (canon.R, 1))
        oracle = lcu_postselect_oracle(list(zip(w, states)), metric=S)
        assert success_prob_canonical(canon) == pytest.approx(oracle, abs=1e-10)

    def test_rank_one_equals_tucker_for_single_axis_layouts(self):
        # with one LF on y and z the R = 1 canonical branch weights reduce to
        # the Tucker core entries, so both encodings post-select identically
        spec = _spec((2, 1, 1))
        rng = np.random.default_rng(30)
        tucker = _tucker(rng.normal(size=(2, 1, 1)), spec)
        canon = decompose_cores([tucker], [1], CpdOptions(n_restarts=2, seed=0))[1][0]
        assert canon.deviation < 1e-12
        assert success_prob_canonical(canon) == pytest.approx(
            success_prob_tucker(tucker), rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_probability_in_unit_interval(self, seed):
        spec = _spec((2, 2, 2))
        rng = np.random.default_rng(seed + 40)
        tucker = _tucker(rng.normal(size=(2, 2, 2)), spec)
        canon = decompose_cores([tucker], [2], CpdOptions(n_restarts=2, seed=0))[2][0]
        p = success_prob_canonical(canon)
        assert 0.0 < p <= 1.0


class TestLcuOracle:
    def test_two_orthonormal_branches(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        for theta in np.linspace(-1.2, 1.2, 7):
            got = lcu_postselect_oracle([(math.cos(theta), e1), (math.sin(theta), e2)])
            assert got == pytest.approx(0.5, abs=1e-14)

    def test_identical_branches_at_equal_weight(self):
        s = np.array([0.3, 0.4])
        got = lcu_postselect_oracle([(1.0, s), (1.0, s)])
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_branch_normalization_is_internal(self):
        # rescaling any branch state must not change the outcome
        s1 = np.array([1.0, 2.0, 0.5])
        s2 = np.array([0.2, -1.0, 0.8])
        a = lcu_postselect_oracle([(0.7, s1), (0.3, s2)])
        b = lcu_postselect_oracle([(0.7, 5.0 * s1), (0.3, 0.1 * s2)])
        assert a == pytest.approx(b, rel=1e-14)

    def test_metric_route_equals_embedded_route(self):
        # coefficient vectors with a Gram metric give the same answer as the
        # explicitly embedded statevectors
        spec = _spec((2, 1, 1))
        S = overlap_3d(spec)
        V = np.linalg.cholesky(S).T
        coeffs = [np.array([0.9, -0.1]), np.array([0.2, 0.7])]
        weights = [0.8, -0.6]
        with_metric = lcu_postselect_oracle(list(zip(weights, coeffs)), metric=S)
        embedded = lcu_postselect_oracle(
            [(w, V @ c) for w, c in zip(weights, coeffs)])
        assert with_metric == pytest.approx(embedded, rel=1e-13)

    def test_single_branch_always_certain(self):
        got = lcu_postselect_oracle([(2.5, np.array([0.1, 0.2, 0.3]))])
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_no_branch_gram(self):
        # the cp-exactness branch set of a 6x4x4 layout at R_b = 16: B = 1536
        # branches of 96 coefficients, whose B x B Gram alone would take 19 MB
        spec = LorentzianBasisSpec(
            n=7, widths=tuple(np.full(n, 3.0) for n in (6, 4, 4)),
            centers=tuple(np.linspace(20, 108, n).astype(int) for n in (6, 4, 4)))
        w = np.random.default_rng(5).normal(size=16 * spec.n_prod)
        branches = list(zip(w, np.tile(np.eye(spec.n_prod), (16, 1))))
        S = overlap_3d(spec)
        tracemalloc.start()
        try:
            lcu_postselect_oracle(branches, metric=S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="at least one"):
            lcu_postselect_oracle([])
        with pytest.raises(ValueError, match="zero"):
            lcu_postselect_oracle([(0.0, np.ones(2)), (0.0, np.ones(2))])
        with pytest.raises(ValueError, match="norm"):
            lcu_postselect_oracle([(1.0, np.zeros(2))])
        with pytest.raises(ValueError, match="dimensions"):
            lcu_postselect_oracle([(1.0, np.ones(2)), (1.0, np.ones(3))])


class TestTwoCenter:
    def test_matches_statevector_oracle(self):
        n, a = 5, 0.5
        thetas = np.linspace(0.0, math.pi, 21)
        table = two_center_analysis(n, a, 10, 22, thetas)
        la = lf_state(n, a, 10)
        lb = lf_state(n, a, 22)
        for theta, prob, _, _ in table:
            oracle = lcu_postselect_oracle(
                [(math.cos(theta), la), (math.sin(theta), lb)])
            assert prob == pytest.approx(oracle, abs=1e-12)

    def test_complementary_angles_sum_to_one(self):
        thetas = np.linspace(-1.0, 1.0, 9)
        t1 = two_center_analysis(4, 1.0, 3, 11, thetas)
        t2 = two_center_analysis(4, 1.0, 3, 11, thetas - math.pi / 2)
        np.testing.assert_allclose(t1[:, 1] + t2[:, 1], 1.0, atol=1e-13)

    def test_bonding_exceeds_antibonding(self):
        table = two_center_analysis(5, 0.8, 12, 20,
                                    [math.pi / 4, -math.pi / 4])
        p_bond, p_anti = table[0, 1], table[1, 1]
        assert p_bond > 0.5 > p_anti
        assert p_bond + p_anti == pytest.approx(1.0, abs=1e-13)

    def test_expansions_touch_curve_at_reference_angles(self):
        table = two_center_analysis(5, 0.7, 10, 21,
                                    [math.pi / 4, -math.pi / 4])
        assert table[0, 2] == pytest.approx(table[0, 1], abs=1e-14)
        assert table[1, 3] == pytest.approx(table[1, 1], abs=1e-14)

    @pytest.mark.parametrize("delta", [-0.05, 0.02, 0.05])
    def test_expansion_accuracy_near_reference_angles(self, delta):
        table = two_center_analysis(5, 0.7, 10, 21,
                                    [math.pi / 4 + delta, -math.pi / 4 + delta])
        assert table[0, 2] == pytest.approx(table[0, 1], abs=2 * delta ** 4)
        assert table[1, 3] == pytest.approx(table[1, 1], abs=2 * delta ** 4)

    def test_csv_round_trip(self):
        thetas = np.linspace(0.0, 1.0, 5)
        table = two_center_analysis(4, 0.9, 4, 12, thetas)
        lines = two_center_csv_lines(table)
        assert lines[0] == ",".join(TWO_CENTER_COLUMNS)
        parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(parsed, table)


class TestOracleProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    weights_st = st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=1, max_size=6)

    @given(weights=weights_st, seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_postselect_probability_bounded(self, weights, seed):
        w = np.asarray(weights)
        if float(w @ w) == 0.0:
            return
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(w.size, 5))
        if np.any(np.linalg.norm(states, axis=1) < 1e-6):
            return
        p = lcu_postselect_oracle(list(zip(w, states)))
        assert -1e-12 <= p <= 1.0 + 1e-12

    @given(n_l=st.tuples(*[st.integers(min_value=1, max_value=64)] * 3))
    @settings(max_examples=60, deadline=None)
    def test_ancillae_cover_the_basis(self, n_l):
        n_a, n_al = ancilla_counts(n_l)
        for count, bits in zip(n_l, n_a):
            assert 2 ** bits >= count
            if count > 1:
                assert 2 ** (bits - 1) < count
        assert n_al == sum(n_a)
