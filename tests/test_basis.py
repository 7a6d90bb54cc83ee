"""Gaussian AOs, grid sampling, and ideal-state construction."""

import math
import tracemalloc

import numpy as np
import pytest

from mflo.basis import (
    ContractedGaussianAO,
    MolecularOrbital,
    SimulationCell,
    ao_self_overlap,
    build_ideal_state,
    gaussian_ao,
    mo_norm_factor,
    primitive_tables,
    renormalized,
)
from mflo import DegenerateInputError, ResourceLimitError, basis

STO3G_EXP = [3.42525091, 0.62391373, 0.1688554]
STO3G_COEF = [0.15432897, 0.53532814, 0.44463454]


def _cell(n_qe=3, edges=(8.0, 8.0, 8.0), origin=(0.0, 0.0, 0.0)):
    return SimulationCell(origin=list(origin), edge_lengths=list(edges), n_qe=n_qe)


def _s_ao(gamma=0.5, center=(4.0, 4.0, 4.0)):
    return gaussian_ao([gamma], [1.0], (0, 0, 0), list(center))


class TestAOValidation:
    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            gaussian_ao([0.0], [1.0], (0, 0, 0), [0, 0, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_ao([1.0, 2.0], [1.0], (0, 0, 0), [0, 0, 0])

    def test_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            gaussian_ao([1.0], [1.0], (0, -1, 0), [0, 0, 0])

    @pytest.mark.parametrize("exponents, coefficients, center, message", [
        ([], [], [0, 0, 0], "at least one primitive"),
        ([1.0], [math.nan], [0, 0, 0], "coefficients must be finite"),
        ([1.0], [1.0], [0, 0], "finite 3-vector"),
        ([1.0], [1.0], [0, math.inf, 0], "finite 3-vector"),
    ])
    def test_rejects_malformed_ao(self, exponents, coefficients, center, message):
        with pytest.raises(ValueError, match=message):
            ContractedGaussianAO(exponents=exponents, coefficients=coefficients,
                                 powers=(0, 0, 0), center=center)

    @pytest.mark.parametrize("n_aos, coefficients, message", [
        (0, [], "at least one AO"),
        (1, [math.nan], "must be finite"),
        (2, [1.0, math.inf], "must be finite"),
    ])
    def test_rejects_malformed_mo(self, n_aos, coefficients, message):
        with pytest.raises(ValueError, match=message):
            MolecularOrbital(ao_list=(_s_ao(),) * n_aos, coefficients=coefficients)

    def test_warns_on_unnormalized_contraction(self):
        with pytest.warns(UserWarning, match="squared norm"):
            ContractedGaussianAO(exponents=[1.0], coefficients=[2.0],
                                 powers=(0, 0, 0), center=[0.0, 0.0, 0.0])

    def test_arrays_read_only(self):
        ao = _s_ao()
        with pytest.raises(ValueError):
            ao.exponents[0] = 3.0


@pytest.mark.filterwarnings("ignore:AO squared norm")
class TestSelfOverlap:
    def test_single_s_primitive_analytic(self):
        # integral of exp(-2 gamma r^2) = (pi / (2 gamma))^(3/2)
        gamma = 0.7
        ao = gaussian_ao([gamma], [1.0], (0, 0, 0), [0, 0, 0], renormalize=False)
        assert ao_self_overlap(ao) == pytest.approx((math.pi / (2 * gamma)) ** 1.5, rel=1e-13)

    def test_single_p_primitive_analytic(self):
        # integral of x^2 exp(-2 gamma r^2) = (1/(4 gamma)) (pi/(2 gamma))^(3/2)
        gamma = 1.1
        with pytest.warns(UserWarning):
            ao = ContractedGaussianAO(exponents=[gamma], coefficients=[1.0],
                                      powers=(1, 0, 0), center=[0.0, 0.0, 0.0])
        expect = (math.pi / (2 * gamma)) ** 1.5 / (4 * gamma)
        assert ao_self_overlap(ao) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("powers", [(0, 0, 0), (1, 0, 0), (2, 1, 0)])
    def test_matches_numerical_quadrature(self, powers):
        # each primitive is separable, so the squared norm expands into pairwise
        # products of 1D integrals; evaluate those numerically instead of with
        # the closed-form Gaussian moments the implementation uses
        integrate = pytest.importorskip("scipy.integrate")
        exps = [0.9, 0.3]
        coefs = [0.8, 0.4]
        ao = gaussian_ao(exps, coefs, powers, [0.0, 0.0, 0.0], renormalize=False)
        total = 0.0
        for gs, bs in zip(exps, coefs):
            for gt, bt in zip(exps, coefs):
                term = bs * bt
                for m in powers:
                    f = lambda xi, m=m, p=gs + gt: xi ** (2 * m) * math.exp(-p * xi * xi)
                    val, _ = integrate.quad(f, -30, 30, limit=200)
                    term *= val
                total += term
        assert ao_self_overlap(ao) == pytest.approx(total, rel=1e-10)

    def test_renormalized_has_unit_norm(self):
        ao = renormalized(_s_ao(0.5))
        assert ao_self_overlap(ao) == pytest.approx(1.0, rel=1e-13)

    def test_gaussian_ao_factory_normalizes(self):
        ao = gaussian_ao(STO3G_EXP, STO3G_COEF, (0, 0, 0), [0, 0, 0])
        assert ao_self_overlap(ao) == pytest.approx(1.0, rel=1e-12)


class TestSimulationCell:
    def test_spacing_and_volume(self):
        cell = _cell(n_qe=3, edges=(8.0, 4.0, 2.0))
        assert cell.N_qe == 8
        np.testing.assert_allclose(cell.dx, [1.0, 0.5, 0.25])
        assert cell.dV == pytest.approx(0.125)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            _cell(edges=(0.0, 8.0, 8.0))

    def test_rejects_bad_qubits(self):
        with pytest.raises(ValueError):
            _cell(n_qe=0)

    @pytest.mark.parametrize("origin", [(0.0, 0.0), (0.0, math.nan, 0.0)])
    def test_rejects_bad_origin(self, origin):
        with pytest.raises(ValueError, match="origin must be a finite 3-vector"):
            _cell(origin=origin)


def _rows(ao, cell, v):
    """The axis-v sample table of the MO that is ``ao`` alone, one row per primitive."""
    return primitive_tables(MolecularOrbital(ao_list=[ao], coefficients=[1.0]), cell)[1][v]


@pytest.mark.filterwarnings("ignore:AO squared norm")
class TestSampleAO1D:
    """One-axis samples of an AO, read from the rows of ``primitive_tables``."""

    def test_values_match_pointwise_formula(self):
        cell = _cell(n_qe=3, edges=(8.0, 8.0, 8.0))
        ao = gaussian_ao([0.9, 0.3], [0.8, 0.4], (2, 0, 1), [3.0, 4.0, 4.0],
                         renormalize=False)
        vals = _rows(ao, cell, 0)[1]
        assert vals.shape == (8,)
        for k in range(8):
            xi = k * 1.0 - 3.0
            assert vals[k] == pytest.approx(xi ** 2 * math.exp(-0.3 * xi * xi), abs=1e-15)

    def test_power_zero_at_center_is_one(self):
        # 0^0 = 1: the s-type factor has no node at its own center
        cell = _cell(n_qe=3)
        ao = _s_ao(center=(2.0, 4.0, 4.0))
        vals = _rows(ao, cell, 0)[0]
        assert vals[2] == pytest.approx(1.0)

    def test_odd_power_has_node_at_center(self):
        cell = _cell(n_qe=3)
        with pytest.warns(UserWarning):
            ao = ContractedGaussianAO(exponents=[0.5], coefficients=[1.0],
                                      powers=(1, 0, 0), center=[2.0, 4.0, 4.0])
        vals = _rows(ao, cell, 0)[0]
        assert vals[2] == 0.0
        assert vals[3] == -vals[1]  # antisymmetric around the center

    def test_tables_are_the_per_primitive_formula_bit_for_bit(self):
        # two AOs of 2 and 3 primitives with powers 0-3, off-origin cell: rows
        # run AO-major with w_p = c_mu b_{mu s}, and each row is the
        # one-primitive formula with xi ** m a scalar integer power
        cell = _cell(n_qe=5, edges=(8.0, 7.0, 9.0), origin=(-0.7, 0.4, -1.1))
        aos = [gaussian_ao([1.3, 0.4], [0.6, 0.5], (0, 1, 3), [2.1, 3.3, 4.6]),
               gaussian_ao([2.2, 0.7, 0.2], [0.3, 0.5, 0.4], (2, 3, 0), [4.4, 2.9, 3.8])]
        mo = MolecularOrbital(ao_list=aos, coefficients=[0.8, -0.6])
        w, tables = primitive_tables(mo, cell)
        prims = [(c, ao, s) for ao, c in zip(aos, mo.coefficients) for s in range(ao.n_g)]
        assert w.tolist() == [c * ao.coefficients[s] for c, ao, s in prims]
        for v, H in enumerate(tables):
            assert H.shape == (5, 32)
            for p, (_, ao, s) in enumerate(prims):
                xi = np.arange(32) * cell.dx[v] - (ao.center[v] - cell.origin[v])
                g, m = ao.exponents[s], ao.powers[v]
                assert H[p].tobytes() == (xi ** m * np.exp(-g * xi * xi)).tobytes(), (v, p)
        # the tables are the one sampler of the primitives
        assert not hasattr(basis, "sample_ao_1d")


def naive_grid_state(mo, cell):
    """Direct triple loop over grid points; the oracle for build_ideal_state."""
    N = cell.N_qe
    dx = cell.dx
    vals = np.zeros((N, N, N))
    for kx in range(N):
        for ky in range(N):
            for kz in range(N):
                r = cell.origin + np.array([kx, ky, kz]) * dx
                phi = 0.0
                for c, ao in zip(mo.coefficients, mo.ao_list):
                    rel = r - ao.center
                    for g, b in zip(ao.exponents, ao.coefficients):
                        mono = np.prod([rel[v] ** m if m else 1.0
                                        for v, m in enumerate(ao.powers)])
                        phi += c * b * mono * math.exp(-g * float(rel @ rel))
                vals[kx, ky, kz] = phi
    amps = vals.ravel()
    return amps / np.linalg.norm(amps)


class TestBuildIdealState:
    def test_matches_naive_triple_loop(self):
        cell = _cell(n_qe=3)
        ao1 = gaussian_ao(STO3G_EXP, STO3G_COEF, (0, 0, 0), [3.0, 4.0, 4.0])
        ao2 = gaussian_ao([0.8], [1.0], (1, 0, 0), [5.0, 4.0, 4.0])
        mo = MolecularOrbital(ao_list=(ao1, ao2), coefficients=[0.7, -0.4])
        state = build_ideal_state(mo, cell)
        np.testing.assert_allclose(state, naive_grid_state(mo, cell), rtol=0, atol=1e-12)

    def test_unit_norm_and_shape(self):
        cell = _cell(n_qe=4)
        mo = MolecularOrbital(ao_list=(_s_ao(),), coefficients=[1.0])
        state = build_ideal_state(mo, cell)
        assert state.shape == (4096,)
        assert float(np.linalg.norm(state)) == pytest.approx(1.0, abs=1e-12)
        assert float(state @ state) == pytest.approx(1.0, abs=1e-12)

    def test_one_grid_state_at_n_qe_7(self):
        # the 2^21 amplitudes (16.8 MB) are scaled where they are built: the
        # peak stays under 1.25 states, not the two of an out-of-place scale
        cell = _cell(n_qe=7)
        mo = MolecularOrbital(ao_list=(gaussian_ao(STO3G_EXP, STO3G_COEF, (0, 0, 0),
                                                   [4.0, 4.0, 4.0]),), coefficients=[1.0])
        tracemalloc.start()
        try:
            build_ideal_state(mo, cell)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * 2 ** 21

    def test_norm_factor_near_one_when_resolved(self):
        # fine grid, compact orbital, large box: discrete sum tracks the integral
        cell = _cell(n_qe=6, edges=(12.0, 12.0, 12.0))
        mo = MolecularOrbital(ao_list=(_s_ao(1.0, (6.0, 6.0, 6.0)),), coefficients=[1.0])
        norm_factor = mo_norm_factor(mo, cell)
        assert 0.999 <= norm_factor <= 1.001

    def test_kz_fastest_ordering(self):
        # an orbital displaced along z must vary along the last axis of the cube
        cell = _cell(n_qe=3)
        mo = MolecularOrbital(ao_list=(_s_ao(2.0, (4.0, 4.0, 2.0)),), coefficients=[1.0])
        grid = build_ideal_state(mo, cell).reshape(8, 8, 8)
        kx, ky, kz = np.unravel_index(int(np.argmax(np.abs(grid))), grid.shape)
        assert (kx, ky, kz) == (4, 4, 2)

    def test_separable_product_structure(self):
        # a single Cartesian Gaussian factorizes; the grid cube must too
        cell = _cell(n_qe=3)
        mo = MolecularOrbital(ao_list=(_s_ao(0.7, (3.0, 4.0, 5.0)),), coefficients=[1.0])
        grid = build_ideal_state(mo, cell).reshape(8, 8, 8)
        gx = grid[:, 4, 5]
        gy = grid[3, :, 5]
        gz = grid[3, 4, :]
        outer = np.einsum("i,j,k->ijk", gx, gy, gz) / grid[3, 4, 5] ** 2
        np.testing.assert_allclose(grid, outer, rtol=0, atol=1e-12)

    def test_translation_covariance(self):
        # shifting AO centers and the cell origin together leaves amplitudes fixed
        mo1 = MolecularOrbital(ao_list=(_s_ao(0.5, (3.0, 4.0, 4.5)),), coefficients=[1.0])
        mo2 = MolecularOrbital(ao_list=(_s_ao(0.5, (4.0, 5.0, 5.5)),), coefficients=[1.0])
        cell1, cell2 = _cell(), _cell(origin=(1.0, 1.0, 1.0))
        np.testing.assert_allclose(build_ideal_state(mo1, cell1),
                                   build_ideal_state(mo2, cell2), atol=1e-13)
        assert mo_norm_factor(mo1, cell1) == pytest.approx(mo_norm_factor(mo2, cell2), rel=1e-13)

    def test_mo_scale_invariance(self):
        # the normalized state ignores an overall MO coefficient rescale
        ao = _s_ao()
        m1 = MolecularOrbital(ao_list=(ao,), coefficients=[1.0])
        m2 = MolecularOrbital(ao_list=(ao,), coefficients=[-2.5])
        s1 = build_ideal_state(m1, _cell())
        s2 = build_ideal_state(m2, _cell())
        np.testing.assert_allclose(s1, -s2, atol=1e-14)

    def test_resource_guard(self):
        mo = MolecularOrbital(ao_list=(_s_ao(),), coefficients=[1.0])
        with pytest.raises(ResourceLimitError):
            build_ideal_state(mo, _cell(n_qe=9))
        with pytest.raises(ResourceLimitError):
            build_ideal_state(mo, _cell(n_qe=5), max_qubits=4)
        state = build_ideal_state(mo, _cell(n_qe=5), max_qubits=5)
        assert state.size == 2 ** 15

    def test_zero_orbital_rejected(self):
        mo = MolecularOrbital(ao_list=(_s_ao(),), coefficients=[0.0])
        with pytest.raises(DegenerateInputError):
            build_ideal_state(mo, _cell())
        with pytest.raises(DegenerateInputError):
            mo_norm_factor(mo, _cell())

    def test_coefficient_length_checked(self):
        with pytest.raises(ValueError):
            MolecularOrbital(ao_list=(_s_ao(),), coefficients=[1.0, 2.0])


def _dense_norm_factor(mo, cell):
    """1/sqrt(dV sum_grid phi^2) from pointwise MO values, one x plane at a time."""
    N = cell.N_qe
    y = cell.origin[1] + np.arange(N)[:, None] * cell.dx[1]
    z = cell.origin[2] + np.arange(N)[None, :] * cell.dx[2]
    sum_sq = 0.0
    for kx in range(N):
        x = cell.origin[0] + kx * cell.dx[0]
        phi = np.zeros((N, N))
        for c, ao in zip(mo.coefficients, mo.ao_list):
            rel = (x - ao.center[0], y - ao.center[1], z - ao.center[2])
            mono = rel[0] ** ao.powers[0] * rel[1] ** ao.powers[1] * rel[2] ** ao.powers[2]
            r2 = rel[0] ** 2 + rel[1] ** 2 + rel[2] ** 2
            for g, b in zip(ao.exponents, ao.coefficients):
                phi += c * b * mono * np.exp(-g * r2)
        sum_sq += float(np.sum(phi * phi))
    return 1.0 / math.sqrt(cell.dV * sum_sq)


def _norm_cases():
    sto3g = lambda x: gaussian_ao(STO3G_EXP, STO3G_COEF, (0, 0, 0), [x, 4.0, 4.0])
    with pytest.warns(UserWarning):
        p_ao = ContractedGaussianAO(exponents=[0.8], coefficients=[1.0],
                                    powers=(1, 0, 0), center=[4.3, 3.9, 4.1])
    return {
        "multi-primitive-s": MolecularOrbital(ao_list=(sto3g(4.0),), coefficients=[1.0]),
        "p": MolecularOrbital(ao_list=(p_ao,), coefficients=[1.0]),
        "off-center": MolecularOrbital(
            ao_list=(gaussian_ao([0.6, 0.2], [0.7, 0.4], (0, 1, 2), [1.3, 6.2, 2.7]),),
            coefficients=[1.0]),
        "antibonding": MolecularOrbital(ao_list=(sto3g(3.3), sto3g(4.7)),
                                        coefficients=[1.0, -1.0]),
    }


@pytest.mark.parametrize("n_qe", [3, 4, 5, 6, 7, 8])
def test_separable_norm_factor_matches_dense_sum(n_qe):
    cell = _cell(n_qe=n_qe)
    for name, mo in _norm_cases().items():
        expected = _dense_norm_factor(mo, cell)
        assert mo_norm_factor(mo, cell) == pytest.approx(expected, rel=1e-13), name
        if n_qe <= 6:
            # the grid state is scaled by the same separable constant
            state = build_ideal_state(mo, cell)
            assert float(np.linalg.norm(state)) == pytest.approx(1.0, abs=1e-13), name
