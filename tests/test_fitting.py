"""Overlap tensors, core solve, analytic gradient, and width optimization."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mflo.basis
import mflo.cli
import mflo.fitting
from mflo.basis import MolecularOrbital, SimulationCell, build_ideal_state, gaussian_ao
from mflo import ConditioningError
from mflo.fitting import (
    EIG_CUTOFF,
    COEF_CAP,
    _Engine,
    FitProblem,
    OptimizeOptions,
    TuckerState,
    WIDTH_BOUNDS,
    box_centers,
    fidelity_gradient,
    optimize_widths,
    overlap_3d,
    penalty,
    solve_core,
    t_tensor,
    tucker_statevector,
    with_structure,
)
from mflo.lorentzian import AXES, AxisProfiles, LorentzianBasisSpec, boundary_mass, lf_state
from mflo.cpd import EXACT_TOL, CpdOptions, decompose_cores
from mflo.tensor import cp_full, mode_product

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _spec(n=4, widths=((0.8, 1.3), (1.0,), (0.9,)), centers=((7, 9), (8,), (8,))):
    return LorentzianBasisSpec(
        n=n,
        widths=tuple(np.asarray(w, dtype=float) for w in widths),
        centers=tuple(np.asarray(c, dtype=int) for c in centers),
    )


def _cube(n_qe=4, edge=8.0):
    return SimulationCell(origin=[0.0, 0.0, 0.0],
                          edge_lengths=[edge, edge, edge], n_qe=n_qe)


def _problem(alpha=0.0, n_qe=4, spec=None):
    ao = gaussian_ao([0.5], [1.0], (0, 0, 0), [4.2, 3.8, 4.0])
    mo = MolecularOrbital(ao_list=(ao,), coefficients=[1.0])
    return FitProblem.build(mo, _cube(n_qe), spec or _spec(n=n_qe), alpha_pen=alpha)


def _one_lf_problem(ao, cell, widths, centers):
    spec = LorentzianBasisSpec(
        n=cell.n_qe,
        widths=tuple(np.array([a]) for a in widths),
        centers=tuple(np.array([k]) for k in centers),
    )
    mo = MolecularOrbital(ao_list=(ao,), coefficients=[1.0])
    return FitProblem.build(mo, cell, spec)


@pytest.mark.filterwarnings("ignore:AO squared norm")
class TestMIntegral:
    """T with one LF per axis, the product of the three one-axis overlaps."""

    def test_matches_explicit_sum(self):
        cell = _cube(n_qe=4)
        ao = gaussian_ao([0.9, 0.3], [0.8, 0.4], (1, 0, 2), [3.1, 4.0, 4.0],
                         renormalize=False)
        widths, centers = (0.7, 1.1, 0.5), (5, 8, 9)
        problem = _one_lf_problem(ao, cell, widths, centers)
        got = t_tensor(problem)
        assert got.shape == (1, 1, 1)
        lf = [lf_state(4, a, k_c) for a, k_c in zip(widths, centers)]
        acc = 0.0
        for kx in range(16):
            x = kx * 0.5 - 3.1
            for ky in range(16):
                y = ky * 0.5 - 4.0
                for kz in range(16):
                    z = kz * 0.5 - 4.0
                    r2 = x * x + y * y + z * z
                    phi = x * z * z * (0.8 * math.exp(-0.9 * r2) + 0.4 * math.exp(-0.3 * r2))
                    acc += phi * lf[0][kx] * lf[1][ky] * lf[2][kz]
        expected = problem.norm_factor * math.sqrt(cell.dV) * acc
        assert got[0, 0, 0] == pytest.approx(expected, rel=1e-13)

    def test_small_width_collapses_to_sample(self):
        # tiny widths make each LF a grid delta at its center
        cell = _cube(n_qe=4)
        ao = gaussian_ao([0.5], [1.0], (0, 0, 0), [4.0, 4.0, 4.0])
        centers = (6, 9, 7)
        problem = _one_lf_problem(ao, cell, (1e-8, 1e-8, 1e-8), centers)
        r2 = sum((k_c * 0.5 - 4.0) ** 2 for k_c in centers)
        sample = ao.coefficients[0] * math.exp(-0.5 * r2)
        # residual LF mass off the center points bounds the error near 1e-7
        assert t_tensor(problem)[0, 0, 0] == pytest.approx(
            problem.norm_factor * math.sqrt(cell.dV) * sample, rel=1e-5)

    def test_odd_moment_cancels_on_symmetric_layout(self):
        # p-type factor antisymmetric about the x LF center: paired grid
        # points cancel, leaving only far-tail wrap contributions
        cell = _cube(n_qe=5)
        ao = gaussian_ao([2.0], [1.0], (1, 0, 0), [4.0, 4.0, 4.0],
                         renormalize=False)
        problem = _one_lf_problem(ao, cell, (1.0, 1.0, 1.0), (16, 16, 16))
        assert abs(t_tensor(problem)[0, 0, 0]) < 1e-13

    def test_factory_without_renormalize_keeps_coefficients(self):
        ao = gaussian_ao([2.0], [3.0], (0, 0, 0), [0.0, 0.0, 0.0],
                         renormalize=False)
        np.testing.assert_array_equal(ao.coefficients, [3.0])


class TestTTensor:
    def test_matches_statevector_inner_products(self):
        problem = _problem()
        T = t_tensor(problem)
        spec = problem.spec
        assert T.shape == spec.n_l
        psi = build_ideal_state(problem.mo, problem.cell)
        oracle = np.zeros(spec.n_l)
        for a in range(spec.n_l[0]):
            for b in range(spec.n_l[1]):
                for c in range(spec.n_l[2]):
                    unit = np.zeros(spec.n_l)
                    unit[a, b, c] = 1.0
                    oracle[a, b, c] = psi @ tucker_statevector(spec, unit)
        np.testing.assert_allclose(T, oracle, rtol=0, atol=1e-12)

    def test_problem_requires_matching_grid(self):
        with pytest.raises(ValueError, match="n_qe"):
            _problem(n_qe=5, spec=_spec(n=4))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="penalty"):
            _problem(alpha=-0.5)


class TestOverlap3D:
    def test_kron_of_axis_grams(self):
        spec = _spec()
        S = overlap_3d(spec)
        sx, sy, sz = spec.overlaps
        kron = np.kron(np.kron(sx, sy), sz)
        np.testing.assert_allclose(S, kron, rtol=0, atol=1e-15)

    def test_gram_properties(self):
        spec = _spec()
        S = overlap_3d(spec)
        np.testing.assert_allclose(S, S.T, atol=0)
        np.testing.assert_allclose(np.diag(S), 1.0, atol=1e-13)
        assert np.linalg.eigvalsh(S).min() > 0


class TestPenalty:
    def test_zero_for_single_product_state(self):
        spec = _spec(widths=((0.8,), (1.0,), (0.9,)), centers=((7,), (8,), (8,)))
        assert penalty(spec, 2.5) == pytest.approx(0.0, abs=1e-15)

    def test_zero_alpha(self):
        assert penalty(_spec(), 0.0) == 0.0

    def test_hand_value_two_by_one_by_one(self):
        # S_x = [[1, s], [s, 1]] and unit blocks elsewhere give P = alpha s^2
        spec = _spec()
        s = spec.overlaps[0][0, 1]
        alpha = 0.7
        assert penalty(spec, alpha) == pytest.approx(alpha * s * s, rel=1e-12)

    def test_matches_definition_general(self):
        spec = _spec(widths=((0.8, 1.3), (1.0, 0.5), (0.9,)),
                     centers=((7, 9), (8, 6), (8,)))
        alpha = 0.3
        n_prod = spec.n_prod
        tr2 = 1.0
        tr1 = 1.0
        for v in range(3):
            Sv = spec.overlaps[v]
            tr2 *= float(np.trace(Sv @ Sv))
            tr1 *= float(np.trace(Sv))
        expect = (alpha / n_prod) * (tr2 - 2.0 * tr1 + n_prod)
        assert penalty(spec, alpha) == pytest.approx(expect, rel=1e-12)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError, match="penalty strength must be >= 0"):
            penalty(_spec(), -0.1)


class TestSolveCore:
    def test_single_product_state(self):
        d, kappa, F = solve_core(np.array([[[0.83]]]), np.eye(1))
        assert d.shape == (1, 1, 1)
        assert d.ravel()[0] == pytest.approx(1.0)
        assert kappa == pytest.approx(0.83 ** 2, rel=1e-14)
        assert F == pytest.approx(kappa)

    def test_identity_metric(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(2, 2, 2))
        d, kappa, _ = solve_core(t, np.eye(8))
        np.testing.assert_allclose(d, t / np.linalg.norm(t), atol=1e-14)
        assert kappa == pytest.approx(float(np.sum(t * t)), rel=1e-14)

    def test_against_generalized_eigensolver(self):
        # scipy's eigh(G, S) on G = t t^T is an independent route to kappa, d
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(11)
        n = 6
        A = rng.normal(size=(n, n))
        S = A @ A.T + n * np.eye(n)
        S = S / np.max(np.abs(np.diag(S)))
        t = rng.normal(size=n)
        d, kappa, _ = solve_core(t.reshape(n, 1, 1), S)
        w, V = linalg.eigh(np.outer(t, t), S)
        assert kappa == pytest.approx(w[-1], rel=1e-11)
        v = V[:, -1]
        v = v / math.sqrt(float(v @ S @ v))
        if float(t @ v) < 0:
            v = -v
        np.testing.assert_allclose(d.ravel(), v, atol=1e-10)

    def test_metric_normalization_and_sign(self):
        rng = np.random.default_rng(5)
        spec = _spec()
        S = overlap_3d(spec)
        t = rng.normal(size=spec.n_l)
        d, kappa, F = solve_core(t, S)
        dd = d.ravel()
        assert float(dd @ S @ dd) == pytest.approx(1.0, abs=1e-12)
        f = float(np.sum(t * d))
        assert f >= 0.0
        assert f * f == pytest.approx(kappa, rel=1e-12)
        assert F == pytest.approx(kappa)

    def test_penalty_shifts_value_not_core(self):
        rng = np.random.default_rng(7)
        spec = _spec()
        S = overlap_3d(spec)
        t = rng.normal(size=spec.n_l)
        d0, kappa0, F0 = solve_core(t, S, alpha_pen=0.0)
        d1, kappa1, F1 = solve_core(t, S, alpha_pen=0.4)
        np.testing.assert_array_equal(d0, d1)
        assert kappa1 == kappa0
        assert F0 - F1 == pytest.approx(0.4 * penalty(spec, 1.0), rel=1e-12)

    def test_degenerate_zero_overlap(self):
        S = overlap_3d(_spec())
        d, kappa, F = solve_core(np.zeros((2, 1, 1)), S, alpha_pen=0.3)
        dd = d.ravel()
        assert kappa == 0.0
        assert float(dd @ S @ dd) == pytest.approx(1.0, abs=1e-13)
        assert F == pytest.approx(-penalty(_spec(), 0.3), rel=1e-12)

    def test_tiny_eigenvalue_discarded(self):
        S = np.diag([1.0, EIG_CUTOFF * 1e-2])
        d, kappa, _ = solve_core(np.array([1.0, 1.0]).reshape(2, 1, 1), S)
        # the near-null direction is dropped, so only the first component acts
        assert kappa == pytest.approx(1.0, rel=1e-12)
        assert d.ravel()[0] == pytest.approx(1.0, rel=1e-12)

    def test_no_positive_eigenvalue_raises(self):
        with pytest.raises(ConditioningError):
            solve_core(np.ones((2, 1, 1)), np.zeros((2, 2)))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            solve_core(np.ones((2, 1, 1)), np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_metric_raises(self, bad):
        with pytest.raises(ValueError, match="metric entries must be finite"):
            solve_core(np.ones((2, 1, 1)), np.array([[1.0, 0.0], [0.0, bad]]))


def _fidelity_at(problem, widths_flat):
    """Dense public route: independent of the engine's cached gradient path."""
    spec = problem.spec.with_widths(widths_flat)
    shifted = problem.with_spec(spec)
    T = t_tensor(shifted)
    S = overlap_3d(spec)
    _, _, F = solve_core(T, S, alpha_pen=problem.alpha_pen)
    return F


class TestGradient:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("widths,centers", [
        (((0.8, 1.3), (1.0,), (0.9,)), ((7, 9), (8,), (8,))),
        (((0.6,), (1.1,), (0.7,)), ((8,), (8,), (9,))),
        (((0.5, 2.0, 1.0), (0.8,), (1.2,)), ((6, 8, 10), (8,), (7,))),
    ])
    def test_matches_central_differences(self, alpha, widths, centers):
        spec = _spec(widths=widths, centers=centers)
        problem = _problem(alpha=alpha, spec=spec)
        grad = fidelity_gradient(problem)
        a0 = spec.widths_flat()
        assert grad.shape == a0.shape
        for i in range(a0.size):
            h = 1e-5 * a0[i]
            ap = a0.copy(); ap[i] += h
            am = a0.copy(); am[i] -= h
            fd = (_fidelity_at(problem, ap) - _fidelity_at(problem, am)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=5e-6, abs=1e-12)


def _h2_box_problem(coefficients=(1.0, 1.0)):
    """H2 MO (bonding by default) on a 6x4x4 LF box at n_qe=7 (STO-3G H 1s on each atom)."""
    cell = SimulationCell(origin=[0.0, 0.0, 0.0], edge_lengths=[8.0, 8.0, 8.0], n_qe=7)
    aos = tuple(gaussian_ao([3.42525091, 0.62391373, 0.1688554],
                            [0.15432897, 0.53532814, 0.44463454], (0, 0, 0), [x, 4.0, 4.0])
                for x in (3.3, 4.7))
    mo = MolecularOrbital(ao_list=aos, coefficients=list(coefficients))
    centers = box_centers(cell, (2.5, 3.0, 3.0), (3.0, 2.0, 2.0), (6, 4, 4))
    spec = LorentzianBasisSpec(n=7, widths=tuple(np.full(c.size, 0.3) for c in centers),
                               centers=centers)
    return FitProblem.build(mo, cell, spec)


def _guard_problem():
    """Antibonding pair of diffuse s functions on three x-LFs, n_qe=4.

    Its fidelity keeps rising as the x widths grow, with ever larger
    cancelling core coefficients, until the coefficient guard stops them.
    """
    aos = tuple(gaussian_ao([0.1], [1.0], (0, 0, 0), [x, 4.0, 4.0]) for x in (3.0, 5.0))
    mo = MolecularOrbital(ao_list=aos, coefficients=[1.0, -1.0])
    spec = _spec(widths=((0.6, 0.6, 0.6), (0.6,), (0.6,)), centers=((5, 8, 11), (8,), (8,)))
    return FitProblem.build(mo, _cube(n_qe=4), spec)


class TestEngine:
    def test_matches_dense_path_on_box(self):
        problem = _h2_box_problem()
        engine = _Engine(problem)
        rng = np.random.default_rng(2024)
        for _ in range(5):
            a = rng.uniform(0.15, 0.45, size=sum(problem.spec.n_l))
            ev = engine.evaluate(a)
            spec = problem.spec.with_widths(a)
            _, _, F = solve_core(t_tensor(problem.with_spec(spec)), overlap_3d(spec))
            assert ev.discarded == 0
            assert ev.fidelity == pytest.approx(F, rel=0, abs=1e-12)
            grad = engine.gradient(ev)
            for i in range(a.size):
                h = 1e-5 * a[i]
                ap = a.copy(); ap[i] += h
                am = a.copy(); am[i] -= h
                fd = (_fidelity_at(problem, ap) - _fidelity_at(problem, am)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=5e-6, abs=1e-9)

    def test_shared_center_width_collision_rejected(self):
        # two LFs on one center are a valid basis until their widths meet;
        # there the metric is singular, canonical orthogonalization drops the
        # dimension, and the line-search guard rejects the higher count
        spec = _spec(widths=((0.8, 1.3), (1.0,), (0.9,)), centers=((7, 7), (8,), (8,)))
        engine = _Engine(_problem(spec=spec))
        start = engine.evaluate(np.array([0.8, 1.3, 1.0, 0.9]))
        assert start.fidelity > 0.0
        assert start.discarded == 0
        assert engine.evaluate(np.array([1.1, 1.1, 1.0, 0.9])).discarded >= 1

    def test_margin_gradient_matches_central_differences(self):
        problem = _guard_problem()
        engine = _Engine(problem)
        a = np.array([2.0, 0.9, 1.7, 0.8, 1.1])
        ev = engine.evaluate(a)
        assert ev.margin == pytest.approx(-math.log(float(np.sum(ev.core ** 2))), rel=1e-12)
        grad = engine.margin_gradient(ev)
        for i in range(a.size):
            h = 1e-6 * a[i]
            ap = a.copy(); ap[i] += h
            am = a.copy(); am[i] -= h
            fd = (engine.evaluate(ap).margin - engine.evaluate(am).margin) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_one_derivative_build_per_gradient(self, monkeypatch):
        # the guard's margin gradient reads the tables its point's gradient built
        calls = dict.fromkeys(("states_da", "gradient", "margin_gradient"), 0)
        for owner, name in ((AxisProfiles, "states_da"), (_Engine, "gradient"),
                            (_Engine, "margin_gradient")):
            def counting(*args, _original=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counting)
        optimize_widths(_guard_problem())
        assert calls["margin_gradient"] > 0
        assert calls["states_da"] == calls["gradient"]

    def test_one_profile_build_gives_each_direction_bit_for_bit(self):
        problem = _h2_box_problem()
        engine = _Engine(problem)
        a = np.random.default_rng(7).uniform(0.2, 1.5, size=14)
        _, V, *_ = engine.assemble(a)
        spec = problem.spec.with_widths(a)
        for v in range(3):
            np.testing.assert_array_equal(V[v], spec.state_matrix(v))

    def test_margin_gradient_same_bits_after_gradient(self):
        engine = _Engine(_guard_problem())
        a = np.array([2.0, 0.9, 1.7, 0.8, 1.1])
        ev = engine.evaluate(a)
        engine.gradient(ev)
        np.testing.assert_array_equal(engine.margin_gradient(ev),
                                      engine.margin_gradient(engine.evaluate(a)))

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_invalid_trial_widths_rejected(self, bad):
        engine = _Engine(_problem())
        with pytest.raises(ValueError, match="positive"):
            engine.evaluate(np.array([0.8, bad, 1.0, 0.9]))


def _job_problems(path):
    """The FitProblem of each MO of a job file, as ``mflo fit`` builds them."""
    job = mflo.cli.load_job(path)
    cell = mflo.cli._job_cell(job)
    spec = mflo.cli._job_spec(job, cell)
    alpha = job["lorentzian"].get("alpha_pen", 0.0)
    return {name: FitProblem.build(mo, cell, spec, alpha_pen=alpha)
            for name, mo in mflo.cli._job_molecule(job).items()}


def _job_path(bench_jobs, source):
    """A shipped job by file stem, or (workload, seed, job name) of a benchmark job."""
    if isinstance(source, str):
        return JOBS / f"{source}.json"
    workload, seed, name = source
    return bench_jobs(workload, seed)[name]


class TestStructuralFactors:
    """The closed-form CP of the fitted core over the merged Gaussian primitives."""

    @pytest.mark.parametrize("source", [("fit-box", 1, "h2_box"), ("fit-box", 2, "h2_box"),
                                        ("fit-box", 3, "h2_box"), "h2_box_6x4x4"])
    def test_rebuilds_the_whitened_core(self, bench_jobs, source):
        for problem in _job_problems(_job_path(bench_jobs, source)).values():
            fit = optimize_widths(problem)
            chol = [np.linalg.cholesky(s) for s in fit.spec.overlaps]
            whitened = mode_product(fit.core, chol)
            closed = [np.linalg.solve(L, f.T).T for L, f in zip(chol, fit.structural)]
            assert len(closed[0]) == 3
            e = cp_full(None, closed)
            # the residual follows the metric's conditioning (cond S_x ~ 1e6 on
            # the antibonding MO), the deviation reads round-off
            err = np.linalg.norm(e - whitened) / np.linalg.norm(whitened)
            deviation = 1.0 - np.sum(e * whitened) ** 2 / (np.sum(e * e) * np.sum(whitened ** 2))
            assert err <= EXACT_TOL
            assert abs(deviation) <= 1e-13

    @pytest.mark.parametrize("source,rank", [
        ("h2_like", 3), ("h2_n12", 3), ("h2_box_4x3x3", 3), ("h2_box_6x4x4", 3),
        ("single_gaussian", 1), (("fit-box", 1, "h2_box"), 3),
        (("fit-finegrid", 1, "h2_fine"), 3), (("decompose-sweep", 1, "h4_sweep"), 9),
        (("decompose-sweep", 1, "h6_sweep"), 9)])
    def test_structural_rank(self, bench_jobs, source, rank):
        # H 1s primitives: 3 exponents, on atoms along x (H2) or on 3 distinct
        # (y, z) sites (the zig-zag H4 and H6)
        for problem in _job_problems(_job_path(bench_jobs, source)).values():
            assert _Engine(problem).structural_rank == rank

    def test_no_closed_form_with_a_discarded_dimension_or_no_overlap(self):
        spec = _spec(widths=((0.8, 1.3), (1.0,), (0.9,)), centers=((7, 7), (8,), (8,)))
        engine = _Engine(_problem(spec=spec))
        ev = engine.evaluate(np.array([1.1, 1.1, 1.0, 0.9]))
        assert ev.discarded >= 1 and engine.structural_factors(ev) is None
        assert engine.structural_factors(engine.evaluate(np.array([0.8, 1.3, 1.0, 0.9])))
        problem = dataclasses.replace(_problem(), norm_factor=0.0)
        fit = optimize_widths(problem)
        assert fit.kappa_max == 0.0 and fit.structural is None
        canon = decompose_cores([fit], [2], CpdOptions(n_restarts=2))[2][0]
        assert "structural" not in canon.flags

    def test_decompose_rebuilds_the_fit_factors_bit_for_bit(self):
        problem = _h2_box_problem()
        fit = optimize_widths(problem)
        bare = dataclasses.replace(fit, structural=None)
        assert with_structure(problem, bare, 2) is bare
        again = with_structure(problem, bare, 3).structural
        for a, b in zip(fit.structural, again):
            np.testing.assert_array_equal(a, b)


def test_factored_identity_check_matches_dense_metric():
    # the report's d.S d residual uses the per-axis metrics; compare it with
    # the dense n_prod x n_prod product on seeded cores that are not fit
    # optima, each scaled to unit norm in the dense metric
    problem = _h2_box_problem()
    rng = np.random.default_rng(11)
    for _ in range(5):
        spec = problem.spec.with_widths(rng.uniform(0.15, 0.45, size=sum(problem.spec.n_l)))
        S = overlap_3d(spec)
        d = rng.standard_normal(spec.n_l)
        d /= math.sqrt(float(d.ravel() @ S @ d.ravel()))
        f = float(np.sum(t_tensor(problem.with_spec(spec)) * d))
        tucker = TuckerState(spec=spec, core=d, fidelity=f * f, squared_overlap=f * f,
                             penalty=0.0, kappa_max=f * f)
        residuals = mflo.cli._identity_residuals(problem, tucker)
        dense = abs(float(d.ravel() @ S @ d.ravel()) - 1.0)
        assert residuals["core_metric_norm"] == pytest.approx(dense, rel=0, abs=1e-13)


def test_fit_without_exports_builds_no_dense_object(monkeypatch, tmp_path):
    # neither the N^3 grid state nor the n_prod x n_prod metric is needed
    # to fit and report; make every binding of their builders raise
    def forbidden(*args, **kwargs):
        raise AssertionError("dense grid state or metric built during fit")

    for module in (mflo.basis, mflo.fitting, mflo.cli):
        for name in ("build_ideal_state", "overlap_3d"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    report, _ = mflo.cli.run_fit(JOBS / "h2_like.json", out_path=tmp_path / "r.json")
    assert set(report["mos"]) == {"bonding", "antibonding"}


def _scan_single_width(problem, grid):
    best = -np.inf
    for a in grid:
        best = max(best, _fidelity_at(problem, np.array([a, a, a])))
    return best


class TestOptimizeWidths:
    def _single_lf_problem(self, alpha=0.0):
        ao = gaussian_ao([4.0], [1.0], (0, 0, 0), [4.0, 4.0, 4.0])
        mo = MolecularOrbital(ao_list=(ao,), coefficients=[1.0])
        spec = _spec(widths=((1.0,), (1.0,), (1.0,)), centers=((8,), (8,), (8,)))
        return FitProblem.build(mo, _cube(n_qe=4), spec, alpha_pen=alpha)

    def test_beats_width_scan(self):
        problem = self._single_lf_problem()
        scan_best = _scan_single_width(problem, np.geomspace(0.02, 10.0, 120))
        fit = optimize_widths(problem)
        assert fit.fidelity >= scan_best - 1e-9
        assert fit.diagnostics.converged

    def test_zero_penalty_identities(self):
        fit = optimize_widths(self._single_lf_problem())
        assert fit.penalty == 0.0
        assert fit.fidelity == pytest.approx(fit.squared_overlap, rel=1e-12)
        assert fit.fidelity == pytest.approx(fit.kappa_max, rel=1e-12)

    def test_penalized_identities(self):
        fit = optimize_widths(_problem(alpha=0.1))
        assert fit.kappa_max == pytest.approx(fit.fidelity + fit.penalty, rel=1e-10)
        dd = fit.core.ravel()
        S = overlap_3d(fit.spec)
        assert float(dd @ S @ dd) == pytest.approx(1.0, abs=1e-10)

    def test_history_non_decreasing(self):
        fit = optimize_widths(_problem(alpha=0.1))
        hist = np.asarray(fit.diagnostics.fidelity_history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) >= -1e-12)
        assert hist[-1] == pytest.approx(fit.fidelity, rel=1e-12)

    def test_deterministic_under_seed(self):
        opts = OptimizeOptions(restarts=3, seed=42)
        f1 = optimize_widths(_problem(), options=opts)
        f2 = optimize_widths(_problem(), options=opts)
        np.testing.assert_array_equal(f1.spec.widths_flat(), f2.spec.widths_flat())
        assert f1.fidelity == f2.fidelity
        assert len(f1.diagnostics.restart_fidelities) == 3

    def test_restarts_never_hurt(self):
        base = optimize_widths(_problem(), options=OptimizeOptions(restarts=1))
        more = optimize_widths(_problem(), options=OptimizeOptions(restarts=4, seed=1))
        assert more.fidelity >= base.fidelity - 1e-12
        assert more.fidelity == max(more.diagnostics.restart_fidelities)

    def test_width_bounds_respected(self):
        fit = optimize_widths(_problem())
        w = fit.spec.widths_flat()
        assert np.all(w >= WIDTH_BOUNDS[0]) and np.all(w <= WIDTH_BOUNDS[1])

    def test_max_iter_flagging(self, monkeypatch):
        monkeypatch.setattr(mflo.fitting, "MAX_ITER", 1)
        fit = optimize_widths(_problem())
        assert not fit.diagnostics.converged
        assert "unconverged" in fit.diagnostics.flags
        assert (fit.diagnostics.stop_reason, fit.diagnostics.iterations) == ("max_iter", 1)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_zero_overlap_stops_degenerate(self, alpha):
        # a zero norm factor zeroes every primitive weight, so T = 0 at any widths
        problem = dataclasses.replace(_problem(alpha=alpha), norm_factor=0.0)
        assert not np.any(_Engine(problem).wpref)
        fit = optimize_widths(problem)
        diag = fit.diagnostics
        assert (diag.stop_reason, diag.flags, diag.converged) == ("degenerate", ("degenerate",), True)
        assert (diag.iterations, diag.evaluations) == (0, 1)
        # F = kappa - penalty, and kappa is quadratic in T: only the penalty has a gradient
        assert math.isfinite(diag.grad_norm) and (diag.grad_norm > 0.0) == (alpha > 0.0)
        dd = fit.core.ravel()
        assert float(dd @ overlap_3d(fit.spec) @ dd) == pytest.approx(1.0, abs=1e-12)
        json.dumps(dataclasses.asdict(diag), allow_nan=False)

    def test_failed_line_search_ends_stalled(self, monkeypatch):
        # after one accepted step every search fails with the guard hit: the
        # ascent first turns the guard on, then drops its BFGS model, then stalls
        search, calls = mflo.fitting._line_search, []

        def fail_after_one(*args):
            calls.append(args)
            return search(*args) if len(calls) == 1 else (None, 1, True)

        monkeypatch.setattr(mflo.fitting, "_line_search", fail_after_one)
        diag = optimize_widths(_problem()).diagnostics
        assert (diag.stop_reason, diag.converged, diag.flags) == ("stalled", False, ("unconverged",))
        assert (diag.iterations, len(calls)) == (1, 4)
        # the guard's linearization rides along once the guard is on
        assert [args[-1] is not None for args in calls] == [False, False, True, True]

    # options pairs the run options with a MAX_ITER override (None: the default)
    @pytest.mark.parametrize("problem, options", [
        (_problem, (OptimizeOptions(), None)),
        (_problem, (OptimizeOptions(), 3)),
        (lambda: _problem(alpha=0.1), (OptimizeOptions(restarts=3, seed=7), None)),
        (_guard_problem, (OptimizeOptions(), None)),
    ])
    def test_diagnostics_contract(self, problem, options, monkeypatch):
        options, max_iter = options
        if max_iter is not None:
            monkeypatch.setattr(mflo.fitting, "MAX_ITER", max_iter)
        diag = optimize_widths(problem(), options=options).diagnostics
        assert diag.stop_reason in ("grad_tol", "f_tol", "max_iter", "stalled")
        assert diag.converged == (diag.stop_reason not in ("max_iter", "stalled"))
        assert ("unconverged" in diag.flags) == (not diag.converged)
        hist = np.asarray(diag.fidelity_history)
        assert hist.size == diag.iterations + 1
        assert np.all(np.diff(hist) >= 0.0)
        assert diag.evaluations >= diag.iterations + 1

    def test_frozen_by_grad_tol_above_width_range(self):
        # a grad_tol above the width range stops the ascent at its start:
        # max|clip(a + g) - a| cannot exceed the span of WIDTH_BOUNDS
        problem = _guard_problem()
        fit = optimize_widths(problem, options=OptimizeOptions(grad_tol=1e3))
        np.testing.assert_array_equal(fit.spec.widths_flat(), problem.spec.widths_flat())
        diag = fit.diagnostics
        assert (diag.iterations, diag.stop_reason, diag.converged) == (0, "grad_tol", True)
        assert diag.evaluations == 1 and len(diag.fidelity_history) == 1
        assert "unconverged" not in diag.flags
        assert 0.0 < diag.grad_norm < WIDTH_BOUNDS[1] - WIDTH_BOUNDS[0]

    def test_guard_caps_coefficients(self):
        # unguarded, this ascent reaches |d|^2 ~ 3e8, where d.S d = 1 no
        # longer holds to 1e-10 in floating point
        fit = optimize_widths(_guard_problem())
        assert fit.diagnostics.converged
        assert fit.diagnostics.discarded_dim == 0
        # the optimum sits on the guard, not short of it
        assert 0.99 * COEF_CAP < float(np.sum(fit.core ** 2)) <= COEF_CAP * (1.0 + 1e-12)
        dd = fit.core.ravel()
        assert float(dd @ overlap_3d(fit.spec) @ dd) == pytest.approx(1.0, abs=1e-10)

    def test_boundary_mass_on_edge_center(self):
        spec = _spec(widths=((0.8,), (1.0,), (0.9,)), centers=((0,), (8,), (8,)))
        ao = gaussian_ao([0.5], [1.0], (0, 0, 0), [0.5, 4.0, 4.0])
        mo = MolecularOrbital(ao_list=(ao,), coefficients=[1.0])
        problem = FitProblem.build(mo, _cube(n_qe=4), spec)
        fit = optimize_widths(problem)
        mass = fit.diagnostics.boundary_mass
        assert mass == {ax: tuple(boundary_mass(fit.spec, v)) for v, ax in enumerate(AXES)}
        # the x LF sits on the grid edge, the y and z LFs in the middle
        assert mass["x"][0] > 0.5 > 0.1 > max(mass["y"][0], mass["z"][0])
        assert fit.diagnostics.flags == ()

    def test_box_antibonding_converges_along_guard(self):
        # the optimum sits on the coefficient guard, where F is resolved to
        # about 1e-11; second-order corrections keep the ascent near one
        # evaluation per step (about 8 without them)
        fit = optimize_widths(_h2_box_problem(coefficients=(1.0, -1.0)))
        diag = fit.diagnostics
        assert diag.converged, diag.stop_reason
        assert float(np.sum(fit.core ** 2)) > 0.99 * COEF_CAP
        assert diag.evaluations <= 4 * (diag.iterations + 1)

    def test_statevector_overlap_matches_report(self):
        problem = _problem()
        fit = optimize_widths(problem)
        trial = tucker_statevector(fit.spec, fit.core)
        f = float(build_ideal_state(problem.mo, problem.cell) @ trial)
        assert f * f == pytest.approx(fit.squared_overlap, abs=1e-10)
        assert float(trial @ trial) == pytest.approx(1.0, abs=1e-10)


class TestBoxCenters:
    def test_regular_layout(self):
        cell = _cube(n_qe=4)
        centers = box_centers(cell, (2.0, 2.0, 2.0), (4.0, 4.0, 4.0), (2, 2, 2))
        for c in centers:
            np.testing.assert_array_equal(c, [6, 10])

    def test_single_point_centered(self):
        cell = _cube(n_qe=4)
        centers = box_centers(cell, (0.0, 0.0, 0.0), (8.0, 8.0, 8.0), (1, 1, 1))
        for c in centers:
            np.testing.assert_array_equal(c, [8])

    def test_collision_rejected(self):
        cell = _cube(n_qe=4)
        with pytest.raises(ValueError, match="collided"):
            box_centers(cell, (2.0, 2.0, 2.0), (0.5, 4.0, 4.0), (4, 2, 2))

    def test_outside_cell_rejected(self):
        cell = _cube(n_qe=4)
        with pytest.raises(ValueError, match="outside"):
            box_centers(cell, (-3.0, 2.0, 2.0), (4.0, 4.0, 4.0), (2, 2, 2))

    def test_bad_counts_rejected(self):
        cell = _cube(n_qe=4)
        with pytest.raises(ValueError):
            box_centers(cell, (2.0, 2.0, 2.0), (4.0, 4.0, 4.0), (0, 2, 2))
