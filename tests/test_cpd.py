"""Canonical decomposition of core tensors and its metric bookkeeping."""

import dataclasses
import warnings

import numpy as np
import pytest

from mflo import cpd, lorentzian
from mflo.cpd import (
    CpdOptions,
    CpResult,
    canonical_statevector,
    decompose_cores,
    normalize_factors,
)
from mflo.encoding import success_prob_canonical, success_prob_tucker
from mflo.fitting import TuckerState, overlap_3d, tucker_statevector
from mflo.lorentzian import LorentzianBasisSpec
from mflo.tensor import cp_full, khatri_rao, metric_inner, unfold


def _spec(n_l=(2, 2, 2)):
    layouts = {
        (2, 2, 2): (((0.8, 1.3), (0.9, 0.6), (1.1, 0.7)), ((5, 9), (6, 10), (7, 11))),
        (3, 3, 3): (((0.8, 1.3, 0.5), (0.9, 0.6, 1.4), (1.1, 0.7, 0.4)),
                    ((3, 8, 13), (4, 8, 12), (5, 8, 11))),
        (2, 2, 1): (((0.8, 1.3), (0.9, 0.6), (1.1,)), ((5, 9), (6, 10), (8,))),
        (4, 3, 2): (((0.8, 1.3, 0.5, 1.0), (0.9, 0.6, 1.4), (1.1, 0.7)),
                    ((3, 6, 10, 13), (4, 8, 12), (5, 11))),
    }
    widths, centers = layouts[tuple(n_l)]
    return LorentzianBasisSpec(
        n=4,
        widths=tuple(np.asarray(w, dtype=float) for w in widths),
        centers=tuple(np.asarray(c, dtype=int) for c in centers),
    )


def _wide_spec():
    """Broad LFs on close centers: each S_v is far from the identity (cond 400-7600)."""
    return LorentzianBasisSpec(
        n=4,
        widths=tuple(np.asarray(w) for w in ((1.6, 2.2, 1.9), (2.0, 1.4, 2.5), (1.8, 2.4, 1.5))),
        centers=tuple(np.asarray(c) for c in ((6, 8, 10), (7, 8, 9), (6, 8, 10))),
    )


def _tucker(core, spec):
    """Wrap a bare core tensor; only spec and core matter for decomposition."""
    d = np.asarray(core, dtype=np.float64)
    S = overlap_3d(spec)
    kappa = float(d.ravel() @ S @ d.ravel())
    return TuckerState(spec=spec, core=d, fidelity=kappa, squared_overlap=kappa,
                       penalty=0.0, kappa_max=kappa)


def _reconstruct(v):
    return np.einsum("ra,rb,rc->abc", v[0], v[1], v[2])


def _chol(spec):
    return [np.linalg.cholesky(s) for s in spec.overlaps]


def _whiten(v, chol):
    """LF-basis factor rows v_r in the Cholesky coordinates CP runs in, L^T v_r."""
    return [m @ L for m, L in zip(v, chol)]


_ORACLE_MTTKRP = ("abc,rb,rc->ra", "abc,ra,rc->rb", "abc,ra,rb->rc")


def _mode_grams(factors):
    return [(factors[i] @ factors[i].T) * (factors[j] @ factors[j].T)
            for i, j in ((1, 2), (0, 2), (0, 1))]


def _oracle_als_run(d, factors, max_sweeps):
    """One restart at a time, einsum contractions and direct residual.

    Every solve adds RIDGE_SCALE tr to the Gram's diagonal; a run that swept
    is flagged when a final mode Gram's smallest eigenvalue is at most that.
    """
    factors = [f.copy() for f in factors]
    norm_d = float(np.linalg.norm(d))
    err = float(np.linalg.norm(d - _reconstruct(factors))) / norm_d
    if err <= cpd.ALS_TOL:
        return factors, err, set()
    err_prev = err
    for _ in range(max_sweeps):
        for mode in range(3):
            others = [u for u in range(3) if u != mode]
            gram = _mode_grams(factors)[mode]
            rhs = np.einsum(_ORACLE_MTTKRP[mode], d, factors[others[0]], factors[others[1]])
            ridge = cpd.RIDGE_SCALE * float(np.trace(gram))
            factors[mode] = np.linalg.solve(gram + ridge * np.eye(gram.shape[0]), rhs)
        err = float(np.linalg.norm(d - _reconstruct(factors))) / norm_d
        if abs(err_prev - err) < cpd.ALS_TOL:
            break
        err_prev = err
    ridged = any(np.linalg.eigvalsh(g)[0] <= cpd.RIDGE_SCALE * np.trace(g)
                 for g in _mode_grams(factors))
    return factors, err, {"gram-ridge"} if ridged else set()


def _als_restarts(d, R, opt):
    """The seeded restarts of one core through the ALS stage alone, winner by the tie rule."""
    seeds = np.random.SeedSequence(opt.seed).spawn(opt.n_restarts)
    bases = cpd._left_singular(d)
    starts = [cpd._init(d, R, r, seeds[r], bases) for r in range(opt.n_restarts)]
    v, err, sweeps, converged = cpd._als(
        np.stack([d] * opt.n_restarts), [np.stack([s[m] for s in starts]) for m in range(3)], 300)
    errors = tuple(float(e) for e in err)
    best = cpd._best_restart(errors)
    ridged = cpd._ridged([m[best:best + 1] for m in v])[0] and sweeps[best] > 0
    return CpResult(v=tuple(m[best] for m in v), rec_error=errors[best], restart_errors=errors,
                    flags=("gram-ridge",) if ridged else (), sweeps=int(sweeps[best]),
                    converged=bool(converged[best]))


def _oracle_cp_decompose(d, R, opt):
    seeds = np.random.SeedSequence(opt.seed).spawn(opt.n_restarts)
    bases = cpd._left_singular(d)
    runs = [_oracle_als_run(d, cpd._init(d, R, r, seeds[r], bases), 300)
            for r in range(opt.n_restarts)]
    errors = [run[1] for run in runs]
    best = min(range(len(runs)), key=lambda r: (errors[r], r))
    return errors, best, runs[best][2]


class TestCpDecompose:
    def test_rank_one_outer_product_exact(self):
        rng = np.random.default_rng(0)
        d = np.einsum("a,b,c->abc", rng.normal(size=3), rng.normal(size=3),
                      rng.normal(size=3))
        res = cpd._cp_stack([d], [1], CpdOptions(n_restarts=1, seed=0))[1][0]
        assert res.rec_error < 1e-12
        np.testing.assert_allclose(_reconstruct(res.v), d, atol=1e-12)

    def test_known_rank_two_recovered(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 3))
        y = rng.normal(size=(2, 3))
        z = rng.normal(size=(2, 3))
        d = np.einsum("ra,rb,rc->abc", x, y, z)
        res = cpd._cp_stack([d], [2], CpdOptions(n_restarts=4, seed=0))[2][0]
        assert res.rec_error < 1e-10
        np.testing.assert_allclose(_reconstruct(res.v), d, atol=1e-9)

    def test_unique_weights_recovered(self):
        # generic rank-2 CP is unique, so metric weights must match the
        # ground-truth construction up to ordering
        rng = np.random.default_rng(4)
        spec = _spec((3, 3, 3))
        true = [rng.normal(size=(2, 3)) for _ in range(3)]
        d = np.einsum("ra,rb,rc->abc", *true)
        res = cpd._cp_stack([d], [2], CpdOptions(n_restarts=4, seed=0))[2][0]
        chol = _chol(spec)
        *_, lam = normalize_factors(res.v, chol)
        *_, lam_true = normalize_factors(true, chol)
        np.testing.assert_allclose(lam, lam_true, rtol=1e-8)

    def test_full_rank_exact(self):
        rng = np.random.default_rng(7)
        d = rng.normal(size=(3, 3, 3))
        res = cpd._cp_stack([d], [27], CpdOptions(n_restarts=1, seed=0))[27][0]
        assert res.rec_error < 1e-12

    def test_more_sweeps_never_worse(self, monkeypatch):
        rng = np.random.default_rng(8)
        d = rng.normal(size=(3, 3, 3))
        errs = []
        for warm_up, lm in ((1, 0), (2, 0), (8, 0), (30, 30)):
            monkeypatch.setattr(cpd, "WARMUP_SWEEPS", warm_up)
            monkeypatch.setattr(cpd, "LM_MAX_ITER", lm)
            errs.append(cpd._cp_stack([d], [2], CpdOptions(n_restarts=1, seed=3))[2][0].rec_error)
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    def test_best_restart_selected(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=(3, 3, 3))
        res = cpd._cp_stack([d], [3], CpdOptions(n_restarts=6, seed=1))[3][0]
        assert res.rec_error == min(res.restart_errors)
        assert len(res.restart_errors) == 6

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(10)
        d = rng.normal(size=(2, 2, 2))
        a = cpd._cp_stack([d], [2], CpdOptions(n_restarts=3, seed=5))[2][0]
        b = cpd._cp_stack([d], [2], CpdOptions(n_restarts=3, seed=5))[2][0]
        assert a.rec_error == b.rec_error
        for ma, mb in zip(a.v, b.v):
            np.testing.assert_array_equal(ma, mb)

    def test_over_ranked_target_flags_ridge(self):
        rng = np.random.default_rng(0)
        d = np.einsum("a,b,c->abc", rng.normal(size=3), rng.normal(size=3),
                      rng.normal(size=3))
        res = cpd._cp_stack([d], [2], CpdOptions(n_restarts=2, seed=0))[2][0]
        assert "gram-ridge" in res.flags
        assert res.rec_error < 1e-9

    def test_zero_core_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cpd._cp_stack([np.zeros((2, 2, 2))], [1], None)

    @pytest.mark.parametrize("R", [0, 9, -1])
    def test_rank_bounds(self, R):
        with pytest.raises(ValueError, match="rank"):
            cpd._cp_stack([np.ones((2, 2, 2))], [R], None)

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (2, 2, 2, 2)])
    def test_core_must_be_three_way(self, shape):
        with pytest.raises(ValueError, match="core tensor must be 3-way"):
            cpd._cp_stack([np.ones(shape)], [1], None)


class TestStackedAls:
    # below the typical rank, so the errors are well above round-off
    @pytest.mark.parametrize("shape, R", [((3, 3, 3), 2), ((4, 3, 2), 2), ((4, 4, 3), 3),
                                          ((2, 2, 2), 1), ((5, 4, 3), 4)])
    def test_matches_sequential_oracle(self, shape, R):
        rng = np.random.default_rng(sum(shape) + R)
        d = rng.normal(size=shape)
        opt = CpdOptions(n_restarts=5, seed=2)
        errors, best, flags = _oracle_cp_decompose(d, R, opt)
        res = _als_restarts(d, R, opt)
        np.testing.assert_allclose(res.restart_errors, errors, rtol=1e-10, atol=1e-15)
        runner_up = min(e for r, e in enumerate(errors) if r != best)
        if runner_up > errors[best] * (1.0 + 1e-9):
            assert res.restart_errors.index(res.rec_error) == best
        else:  # restarts that reach the same minimum tie up to round-off
            assert res.rec_error == pytest.approx(errors[best], rel=1e-10)
        assert set(res.flags) == flags

    def test_exact_start_does_not_sweep(self):
        rng = np.random.default_rng(30)
        true = [rng.normal(size=(2, n)) for n in (3, 2, 2)]
        d = _reconstruct(true)
        starts = [true] + [[rng.normal(size=(2, n)) for n in (3, 2, 2)] for _ in range(2)]
        factors = [np.stack([s[m] for s in starts]) for m in range(3)]
        v, err, sweeps, converged = cpd._als(np.stack([d] * 3), factors, 50)
        assert sweeps[0] == 0 and converged[0] and err[0] <= cpd.ALS_TOL
        for m in range(3):
            np.testing.assert_array_equal(v[m][0], true[m])
        assert np.all(sweeps[1:] > 0)

    @pytest.mark.parametrize("max_sweeps", [1, 4, 300])
    def test_error_is_direct_residual_of_returned_factors(self, max_sweeps):
        rng = np.random.default_rng(33)
        for shape, R in (((3, 3, 3), 2), ((4, 3, 2), 3), ((2, 5, 3), 1)):
            d = rng.normal(size=(4, *shape))
            factors = [rng.normal(size=(4, R, n)) for n in shape]
            # pair 0 starts exact and does not sweep
            d[0] = _reconstruct([f[0] for f in factors])
            v, err, sweeps, _ = cpd._als(d, factors, max_sweeps)
            assert sweeps[0] == 0 and np.all(sweeps[1:] > 0)
            np.testing.assert_array_equal(err, cpd._residual(d, v, cpd._norms(d)))

    def test_sweep_cap_reported_as_unconverged(self, monkeypatch):
        d = np.random.default_rng(31).normal(size=(3, 3, 3))
        with monkeypatch.context() as m:
            m.setattr(cpd, "WARMUP_SWEEPS", 2)
            m.setattr(cpd, "LM_MAX_ITER", 0)
            capped = cpd._cp_stack([d], [3], CpdOptions(n_restarts=2, seed=0))[3][0]
        assert (capped.sweeps, capped.converged) == (2, False)
        free = cpd._cp_stack([d], [1], CpdOptions(n_restarts=2, seed=0))[1][0]
        assert free.converged and 0 < free.sweeps < 500

    def test_core_result_independent_of_stack(self):
        spec = _spec((3, 3, 3))
        rng = np.random.default_rng(32)
        tuckers = [_tucker(rng.normal(size=(3, 3, 3)), spec) for _ in range(3)]
        opt = CpdOptions(n_restarts=3, seed=4)
        stacked = decompose_cores(tuckers, [3], opt)[3]
        alone = decompose_cores([tuckers[1]], [3], opt)[3][0]
        mine = stacked[1]
        np.testing.assert_array_equal(mine.lambdas, alone.lambdas)
        for m in range(3):
            np.testing.assert_array_equal(mine.u[m], alone.u[m])
        assert (mine.deviation, mine.canon_norm2, mine.flags, mine.sweeps, mine.converged) == (
            alone.deviation, alone.canon_norm2, alone.flags, alone.sweeps, alone.converged)

    def test_tied_restarts_pick_lowest_index(self):
        # both restarts reach the best rank-one term; restart 1 ends 4e-14
        # lower by round-off, so the exact minimum would pick it
        d = np.random.default_rng(0).normal(size=(3, 3, 2))
        res = cpd._cp_stack([d], [1], CpdOptions(n_restarts=2, seed=0))[1][0]
        first, second = res.restart_errors
        assert second < first < second + cpd.ALS_TOL
        assert res.rec_error == first
        alone = cpd._cp_stack([d], [1], CpdOptions(n_restarts=1, seed=0))[1][0]
        for m in range(3):
            np.testing.assert_array_equal(res.v[m], alone.v[m])

    @pytest.mark.parametrize("errors, best", [
        ((0.5 + 1e-13, 0.5, 0.7), 0),
        ((0.6, 0.5, 0.5 + 1e-13), 1),
        ((0.5 + 2e-12, 0.5), 1),
        ((0.3,), 0),
    ])
    def test_best_restart_tie_rule(self, errors, best):
        assert cpd._best_restart(errors) == best

    def test_mixed_shapes_rejected(self):
        spec_a, spec_b = _spec((2, 2, 2)), _spec((2, 2, 1))
        tuckers = [_tucker(np.ones((2, 2, 2)), spec_a), _tucker(np.ones((2, 2, 1)), spec_b)]
        with pytest.raises(ValueError, match="share one shape"):
            decompose_cores(tuckers, [1])


def _explicit_jacobian(factors):
    """d vec(e) / d (r, a) over the concatenated factor columns, one Khatri-Rao column each."""
    R = factors[0].shape[0]
    cols = []
    for r in range(R):
        for m, f in enumerate(factors):
            for a in range(f.shape[1]):
                rows = [g[r:r + 1] for g in factors]
                rows[m] = np.eye(f.shape[1])[a:a + 1]
                cols.append(khatri_rao(khatri_rao(rows[0], rows[1]).T, rows[2])[:, 0])
    return np.stack(cols, axis=1)


def _dense_normal_equations(d, factors, mu):
    """J^T J + mu I and J^T r from the explicit Jacobian, and a mask of mode p's unknowns.

    p is the longest mode, the one the reduced system eliminates.
    """
    J = _explicit_jacobian(factors)
    R = factors[0].shape[0]
    lhs = J.T @ J + mu * np.eye(J.shape[1])
    grad = J.T @ (cp_full(np.ones(R), factors) - d).ravel()
    dims = [f.shape[1] for f in factors]
    p = int(np.argmax(dims))
    # the explicit unknowns run over rows r of [A | B | C], column fastest
    mode_of = np.tile(np.repeat(np.arange(3), dims), R)
    return lhs, grad, mode_of == p


def _stacked_terms(d, factors):
    stacked = [f[None] for f in factors]
    grams = [f @ f.swapaxes(1, 2) for f in stacked]
    unfolded = [unfold(d[None], m) for m in range(3)]
    return stacked, grams, cpd._gradient(unfolded, stacked, grams)


def _kept_steps(d, start, err, n_iter):
    """Whether each pair, run alone, kept its step in iterations 1..n_iter.

    A budget of k iterations returns the state after k steps of one
    trajectory, so iteration k kept its step when it lowered the error.  All
    pairs must still run after n_iter iterations.
    """
    kept = np.zeros((len(d), n_iter), dtype=bool)
    for b in range(len(d)):
        prev = err[b]
        for k in range(1, n_iter + 1):
            _, got, iters, _ = cpd._lm(d[b:b + 1], [f[b:b + 1] for f in start], err[b:b + 1], k)
            assert iters[0] == k
            kept[b, k - 1], prev = got[0] < prev, got[0]
    return kept


class TestLevenbergMarquardt:
    # the longest mode is tied, first, first, in the middle and last
    @pytest.mark.parametrize("dims, R", [((3, 3, 3), 3), ((4, 3, 2), 5), ((6, 4, 4), 2),
                                         ((2, 5, 3), 1), ((3, 4, 6), 3)])
    def test_jtj_and_gradient_match_explicit_jacobian(self, dims, R):
        """The reduced system is the Schur complement of the explicit J^T J + mu I."""
        rng = np.random.default_rng(sum(dims) + R)
        factors = [rng.normal(size=(R, n)) for n in dims]
        d = rng.normal(size=dims)
        mu = 0.3
        lhs, grad, on_p = _dense_normal_equations(d, factors, mu)
        stacked, grams, got_grad = _stacked_terms(d, factors)
        np.testing.assert_allclose(np.concatenate([g[0] for g in got_grad], axis=1).ravel(),
                                   grad, rtol=0, atol=1e-12)
        # Schur complement of the longest mode, and the matching right-hand side
        keep = ~on_p
        coupling = lhs[np.ix_(keep, on_p)] @ np.linalg.inv(lhs[np.ix_(on_p, on_p)])
        schur = lhs[np.ix_(keep, keep)] - coupling @ lhs[np.ix_(on_p, keep)]
        rhs = -grad[keep] + coupling @ grad[on_p]
        # the reduced unknowns run over rows r of the two kept factors side by side
        got_lhs, got_rhs, _ = cpd._reduced_system(stacked, grams, got_grad, np.array([mu]))
        np.testing.assert_allclose(got_lhs[0], schur, rtol=0, atol=1e-11)
        np.testing.assert_allclose(got_rhs[0], rhs, rtol=0, atol=1e-11)

    # longest mode first, middle, last and tied
    @pytest.mark.parametrize("dims", [(6, 4, 4), (2, 5, 3), (3, 4, 6), (3, 3, 3)])
    @pytest.mark.parametrize("R", [1, 2, 4])
    @pytest.mark.parametrize("scale", [1e-8, 1e-6, 1e-4, 1e-2, 1.0])
    def test_step_solves_dense_normal_equations(self, dims, R, scale):
        rng = np.random.default_rng(10 * sum(dims) + R)
        factors = [rng.normal(size=(R, n)) for n in dims]
        d = rng.normal(size=dims)
        lhs0, _, _ = _dense_normal_equations(d, factors, 0.0)
        mu = scale * np.max(np.diag(lhs0))
        lhs, grad, _ = _dense_normal_equations(d, factors, mu)
        expect = np.linalg.solve(lhs, -grad)
        stacked, grams, got_grad = _stacked_terms(d, factors)
        step = cpd._lm_step(stacked, grams, got_grad, np.array([mu]))
        got = np.concatenate([s[0] for s in step], axis=1).ravel()
        # compared in the system's own norm: the CP scaling directions have
        # eigenvalues near mu, so at small mu both solves differ along them by
        # up to cond * eps in the Euclidean norm while solving equally well
        diff = got - expect
        assert np.sqrt(diff @ lhs @ diff) <= 1e-10 * np.sqrt(expect @ lhs @ expect)
        assert np.linalg.norm(lhs @ got + grad) <= 1e-13 * np.linalg.norm(grad)

    def test_lm_never_raises_error(self):
        rng = np.random.default_rng(41)
        d = rng.normal(size=(4, 4, 3, 2))
        start = [rng.normal(size=(4, 3, n)) for n in (4, 3, 2)]
        err = cpd._residual(d, start, cpd._norms(d))
        prev = err
        # a budget of k iterations returns the state after k steps of one trajectory
        for budget in (1, 2, 3, 5, 10, 30, 100):
            factors, got, iters, _ = cpd._lm(d, start, err, budget)
            assert np.all(got <= prev) and np.all(iters <= budget)
            np.testing.assert_allclose(got, cpd._residual(d, factors, cpd._norms(d)), rtol=1e-14)
            prev = got
        assert np.all(prev < 0.5 * err)

    def test_lm_pair_independent_of_stack(self):
        rng = np.random.default_rng(42)
        # the second shape's longest mode is y, so the step eliminates a middle mode
        for shape in ((3, 3, 3), (2, 5, 3)):
            d = rng.normal(size=(3, *shape))
            start = [rng.normal(size=(3, 3, n)) for n in shape]
            err = cpd._residual(d, start, cpd._norms(d))
            stacked = cpd._lm(d, start, err, 60)
            for b in range(3):
                alone = cpd._lm(d[b:b + 1], [f[b:b + 1] for f in start], err[b:b + 1], 60)
                for m in range(3):
                    np.testing.assert_array_equal(stacked[0][m][b], alone[0][m][0])
                for x, y in zip(stacked[1:], alone[1:]):
                    assert x[b] == y[0]
            # the stack ran both an iteration in which every pair kept its step
            # and one in which a pair rejected its step while another kept it
            kept = _kept_steps(d, start, err, 8)
            assert any(k.all() for k in kept.T)
            assert any(k.any() and not k.all() for k in kept.T)

    def test_stalled_error_ends_lm_without_overflow(self):
        # rank 5 stalls at a relative error of 1.2e-12, above ALS_TOL, where
        # every step is rejected and the damping would grow without bound
        tucker = _tucker(np.random.default_rng(1028).normal(size=(3, 3, 3)), _spec((3, 3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladder = decompose_cores([tucker], range(1, 7), CpdOptions(n_restarts=2, seed=28))
        five = ladder[5][0]
        assert five.converged and five.sweeps < cpd.WARMUP_SWEEPS + cpd.LM_MAX_ITER

    @pytest.mark.parametrize("max_sweeps", [31, 45])
    def test_max_sweeps_caps_als_sweeps_plus_lm_iterations(self, max_sweeps, monkeypatch):
        monkeypatch.setattr(cpd, "LM_MAX_ITER", max_sweeps - cpd.WARMUP_SWEEPS)
        d = np.random.default_rng(31).normal(size=(3, 3, 3))
        res = cpd._cp_stack([d], [3], CpdOptions(n_restarts=2, seed=0))[3][0]
        assert cpd.WARMUP_SWEEPS < res.sweeps <= max_sweeps


class TestRankLadder:
    @pytest.mark.parametrize("n_l", [(3, 3, 3), (4, 3, 2)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deviation_non_increasing_over_ranks(self, n_l, seed):
        tucker = _tucker(np.random.default_rng(50 + seed).normal(size=n_l), _spec(n_l))
        ladder = decompose_cores([tucker], range(1, 7), CpdOptions(n_restarts=3, seed=seed))
        assert list(ladder) == [1, 2, 3, 4, 5, 6]
        devs = [ladder[R][0].deviation for R in ladder]
        assert all(b <= a for a, b in zip(devs, devs[1:]))

    def test_ladder_start_no_worse_than_previous_winner(self):
        d = np.random.default_rng(43).normal(size=(2, 4, 3, 2))
        prev = cpd._cp_stack(list(d), [2], CpdOptions(n_restarts=2, seed=0))[2]
        factors = [np.stack([p.v[m] for p in prev]) for m in range(3)]
        start = cpd._ladder_start(d, factors, 4)
        assert [f.shape[1] for f in start] == [4, 4, 4]
        for m in range(3):
            np.testing.assert_array_equal(start[m][:, :2], factors[m])
        before = cpd._residual(d, factors, cpd._norms(d))
        assert np.all(cpd._residual(d, start, cpd._norms(d)) < before)

    def test_ladder_candidate_joins_the_restarts(self):
        d = list(np.random.default_rng(46).normal(size=(2, 4, 3, 2)))
        found = cpd._cp_stack(d, [2, 4], CpdOptions(n_restarts=3, seed=0))
        for low, high in zip(found[2], found[4]):
            assert len(low.restart_errors) == 3 and len(high.restart_errors) == 4
            assert high.restart_errors[-1] <= low.rec_error
            assert high.rec_error <= high.restart_errors[-1]

    def test_ranks_deduplicated_and_sorted(self):
        tucker = _tucker(np.random.default_rng(44).normal(size=(2, 2, 2)), _spec((2, 2, 2)))
        opt = CpdOptions(n_restarts=2, seed=0)
        shuffled = decompose_cores([tucker], [2, 1, 2], opt)
        ordered = decompose_cores([tucker], [1, 2], opt)
        assert list(shuffled) == [1, 2]
        for R in (1, 2):
            np.testing.assert_array_equal(shuffled[R][0].lambdas, ordered[R][0].lambdas)

    def test_exact_rank_reported_at_higher_ranks(self):
        rng = np.random.default_rng(45)
        d = np.einsum("a,b,c->abc", *(rng.normal(size=3) for _ in range(3)))
        found = cpd._cp_stack([d], [3, 1], CpdOptions(n_restarts=2, seed=0))
        assert found[1][0].rec_error <= cpd.ALS_TOL
        assert found[3][0] is found[1][0]
        ladder = decompose_cores([_tucker(d, _spec((3, 3, 3)))], [1, 3], CpdOptions(n_restarts=2))
        one, three = ladder[1][0], ladder[3][0]
        assert (three.R, three.flags) == (1, one.flags + ("rank-reduced",))
        np.testing.assert_array_equal(three.lambdas, one.lambdas)
        assert three.deviation == one.deviation


def _structural_tucker(spec, factors, structural=None):
    """Tucker state whose core is S^-1 cp_full(factors), carrying ``structural`` (default: factors)."""
    dual = cp_full(None, factors)
    core = np.linalg.solve(overlap_3d(spec), dual.ravel()).reshape(dual.shape)
    tucker = _tucker(core, spec)
    return dataclasses.replace(tucker, structural=factors if structural is None else structural)


class TestStructuralRung:
    """A state's closed-form factors stand in for CP from their rank up."""

    def _factors(self, seed, R=2, n_l=(2, 2, 2)):
        rng = np.random.default_rng(seed)
        return tuple(rng.normal(size=(R, n)) for n in n_l)

    def test_closed_form_taken_at_its_rank_and_carried_up(self):
        tucker = _structural_tucker(_spec((2, 2, 2)), self._factors(60))
        ladder = decompose_cores([tucker], [1, 2, 3], CpdOptions(n_restarts=2, seed=0))
        one, two, three = (ladder[R][0] for R in (1, 2, 3))
        assert "structural" not in one.flags and one.sweeps > 0
        assert (two.R, two.flags, two.sweeps, two.converged) == (2, ("structural",), 0, True)
        assert two.deviation <= 1e-14
        assert (three.R, three.flags, three.sweeps) == (2, ("structural", "rank-reduced"), 0)
        np.testing.assert_array_equal(three.lambdas, two.lambdas)

    def test_lower_exact_rung_keeps_its_result(self):
        # two parallel terms: the core has CP rank 1, which CP finds at R = 1
        a, b, c = self._factors(61, R=1)
        factors = (np.vstack([a, 2.0 * a]), np.vstack([b, b]), np.vstack([c, c]))
        tucker = _structural_tucker(_spec((2, 2, 2)), factors)
        ladder = decompose_cores([tucker], [1, 2], CpdOptions(n_restarts=2, seed=0))
        one, two = ladder[1][0], ladder[2][0]
        assert "structural" not in one.flags and one.deviation <= 1e-14
        assert two.flags == one.flags + ("rank-reduced",) and two.sweeps == one.sweeps

    def test_closed_form_past_exact_tol_runs_cp(self):
        spec = _spec((2, 2, 2))
        factors = self._factors(62)
        off = tuple(f.copy() for f in factors)
        off[0][0, 0] += 1e-3
        found = decompose_cores([_structural_tucker(spec, factors, off)], [2],
                                CpdOptions(n_restarts=2, seed=0))[2][0]
        assert "structural" not in found.flags and found.sweeps > 0

    def test_without_factors_every_rung_runs_cp(self):
        tucker = dataclasses.replace(_structural_tucker(_spec((2, 2, 2)), self._factors(63)),
                                     structural=None)
        found = decompose_cores([tucker], [2, 8], CpdOptions(n_restarts=2, seed=0))
        assert all("structural" not in found[R][0].flags for R in (2, 8))
        assert found[2][0].sweeps > 0

    def test_a_core_with_a_closed_form_does_not_change_its_stack(self):
        spec = _spec((2, 2, 2))
        plain = _tucker(np.random.default_rng(64).normal(size=(2, 2, 2)), spec)
        closed = _structural_tucker(spec, self._factors(65))
        opt = CpdOptions(n_restarts=2, seed=0)
        alone = decompose_cores([plain], [1, 2, 3], opt)
        stacked = decompose_cores([closed, plain], [1, 2, 3], opt)
        for R in (1, 2, 3):
            np.testing.assert_array_equal(stacked[R][1].lambdas, alone[R][0].lambdas)
            assert stacked[R][1].sweeps == alone[R][0].sweeps
        assert stacked[2][0].flags == ("structural",)


def _svd_init_per_rank(d, R, rng):
    """SVD start computed from scratch at each rank, as the ladder once did."""
    out = []
    for mode in range(3):
        u_mat = np.linalg.svd(unfold(d, mode), full_matrices=False)[0]
        take = min(R, u_mat.shape[1])
        fac = np.empty((R, d.shape[mode]))
        fac[:take] = u_mat[:, :take].T
        if take < R:
            fac[take:] = rng.standard_normal((R - take, d.shape[mode]))
        out.append(fac)
    return out


@pytest.mark.parametrize("shape", [(3, 3, 3), (4, 3, 2), (2, 5, 3)])
def test_hoisted_svd_gives_the_per_rank_starts(shape):
    d = np.random.default_rng(47).normal(size=shape)
    bases = cpd._left_singular(d)
    seeds = np.random.SeedSequence(3).spawn(2)
    for R in range(1, d.size + 1):
        for restart in range(2):
            got = cpd._init(d, R, restart, seeds[restart], bases)
            rng = np.random.default_rng(seeds[restart])
            expect = (_svd_init_per_rank(d, R, rng) if restart == 0
                      else [rng.standard_normal((R, n)) for n in shape])
            for g, e in zip(got, expect):
                np.testing.assert_array_equal(g, e)


class TestNormalizeFactors:
    """Whitened factor rows in, LF-basis rows out, checked against v.S v oracles."""

    def _factors(self, seed=0, R=2, dims=(2, 2, 2)):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(R, dim)) for dim in dims]

    def test_reconstruction_unchanged(self):
        spec = _spec()
        v = self._factors()
        u, w, lam = normalize_factors(_whiten(v, _chol(spec)), _chol(spec))
        rec_v = _reconstruct(v)
        rec_u = np.einsum("r,ra,rb,rc->abc", lam, u[0], u[1], u[2])
        np.testing.assert_allclose(rec_u, rec_v, atol=1e-12)
        for m, wm, L in zip(u, w, _chol(spec)):
            np.testing.assert_allclose(m @ L, wm, atol=1e-12)

    def test_unit_metric_rows(self):
        spec = _spec()
        u, _, lam = normalize_factors(_whiten(self._factors(seed=1), _chol(spec)), _chol(spec))
        for axis in range(3):
            S = spec.overlaps[axis]
            quad = np.einsum("rl,lm,rm->r", u[axis], S, u[axis])
            np.testing.assert_allclose(quad, 1.0, atol=1e-12)
        assert np.all(lam > 0)

    def test_descending_order(self):
        chol = _chol(_spec())
        *_, lam = normalize_factors(_whiten(self._factors(seed=2, R=4), chol), chol)
        assert np.all(np.diff(lam) <= 0)

    def test_sign_convention(self):
        chol = _chol(_spec())
        u, *_ = normalize_factors(_whiten(self._factors(seed=3, R=3), chol), chol)
        for axis in (0, 1):
            for row in u[axis]:
                assert row[int(np.argmax(np.abs(row)))] >= 0

    def test_sign_flip_matches_row_loop(self):
        spec = _spec()
        v = self._factors(seed=5, R=6)
        u, _, lam = normalize_factors(_whiten(v, _chol(spec)), _chol(spec))
        norms = [np.sqrt(np.einsum("rl,lm,rm->r", m, S, m)) for m, S in zip(v, spec.overlaps)]
        want = [m / n[:, None] for m, n in zip(v, norms)]
        for r in range(6):
            for axis in (0, 1):
                row = want[axis][r]
                if row[int(np.argmax(np.abs(row)))] < 0.0:
                    want[axis][r] = -row
                    want[2][r] = -want[2][r]
        order = np.argsort(-np.prod(norms, axis=0), kind="stable")
        np.testing.assert_allclose(lam, np.prod(norms, axis=0)[order], rtol=1e-13)
        for m in range(3):
            np.testing.assert_allclose(u[m], want[m][order], rtol=1e-12, atol=1e-14)

    def test_vanishing_row_dropped_without_warning(self):
        chol = _chol(_spec())
        v = _whiten(self._factors(seed=4, R=3), chol)
        v[1][2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, w, lam = normalize_factors(v, chol)
        assert lam.size == 2
        assert all(m.shape[0] == 2 for m in (*u, *w))


class TestDecomposeCore:
    def test_full_rank_deviation_vanishes(self):
        spec = _spec((3, 3, 3))
        rng = np.random.default_rng(12)
        tucker = _tucker(rng.normal(size=(3, 3, 3)), spec)
        canon = decompose_cores([tucker], [27], CpdOptions(n_restarts=2, seed=0))[27][0]
        assert canon.deviation < 1e-10
        assert canon.R == 27

    def test_deviation_matches_statevector_oracle(self):
        spec = _spec((2, 2, 2))
        rng = np.random.default_rng(13)
        tucker = _tucker(rng.normal(size=(2, 2, 2)), spec)
        canon = decompose_cores([tucker], [2], CpdOptions(n_restarts=4, seed=0))[2][0]
        phi_t = tucker_statevector(spec, tucker.core)
        phi_c = canonical_statevector(spec, canon.lambdas, canon.u)
        ov = float(phi_t @ phi_c)
        dev = 1.0 - ov * ov / (float(phi_t @ phi_t) * float(phi_c @ phi_c))
        assert canon.deviation == pytest.approx(dev, abs=1e-11)
        assert canon.canon_norm2 == pytest.approx(float(phi_c @ phi_c), rel=1e-11)

    def test_overlap_terms_match_statevectors(self):
        spec = _spec((2, 2, 1))
        rng = np.random.default_rng(14)
        tucker = _tucker(rng.normal(size=(2, 2, 1)), spec)
        canon = decompose_cores([tucker], [2], CpdOptions(n_restarts=2, seed=1))[2][0]
        phi_t = tucker_statevector(spec, tucker.core)
        phi_c = canonical_statevector(spec, canon.lambdas, canon.u)
        ov = float(phi_t @ phi_c)
        dev = 1.0 - ov * ov / (float(phi_t @ phi_t) * float(phi_c @ phi_c))
        assert canon.canon_norm2 == pytest.approx(float(phi_c @ phi_c), rel=1e-11)
        assert canon.deviation == pytest.approx(dev, abs=1e-11)

    def test_deviation_in_unit_interval(self):
        spec = _spec((2, 2, 2))
        rng = np.random.default_rng(15)
        tucker = _tucker(rng.normal(size=(2, 2, 2)), spec)
        for R in (1, 2, 3):
            canon = decompose_cores([tucker], [R], CpdOptions(n_restarts=3, seed=0))[R][0]
            assert 0 <= canon.deviation <= 1.0

    def test_deviation_non_increasing_in_rank(self):
        spec = _spec((2, 2, 2))
        rng = np.random.default_rng(16)
        tucker = _tucker(rng.normal(size=(2, 2, 2)), spec)
        devs = [decompose_cores([tucker], [R], CpdOptions(n_restarts=8, seed=0))[R][0].deviation
                for R in (1, 2, 4, 8)]
        assert all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))

    def test_deviation_is_minimized_metric_residual(self):
        spec = _wide_spec()
        tucker = _tucker(np.random.default_rng(2).normal(size=(3, 3, 3)), spec)
        canon = decompose_cores([tucker], [2], CpdOptions(n_restarts=4, seed=0))[2][0]
        assert canon.converged
        e = cp_full(canon.lambdas, canon.u)
        residual = (metric_inner(tucker.core - e, tucker.core - e, spec.overlaps)
                    / metric_inner(tucker.core, tucker.core, spec.overlaps))
        assert canon.deviation == pytest.approx(residual, rel=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_metric_objective_beats_euclidean(self, seed):
        spec = _wide_spec()
        assert min(np.linalg.cond(s) for s in spec.overlaps) > 100.0
        tucker = _tucker(np.random.default_rng(seed).normal(size=(3, 3, 3)), spec)
        opt = CpdOptions(n_restarts=4, seed=0)
        devs = []
        for R in (1, 2, 3, 4):
            metric = decompose_cores([tucker], [R], opt)[R][0].deviation
            # the same CP run on the LF-basis core, scored in the metric
            e = cp_full(None, cpd._cp_stack([tucker.core], [R], opt)[R][0].v)
            S = spec.overlaps
            euclidean = 1.0 - metric_inner(e, tucker.core, S) ** 2 / (
                metric_inner(e, e, S) * metric_inner(tucker.core, tucker.core, S))
            assert metric <= euclidean
            devs.append(metric)
        assert all(a >= b for a, b in zip(devs, devs[1:]))

    def test_vanishing_component_flagged_rank_reduced(self, monkeypatch):
        spec = _spec((2, 2, 2))
        tucker = _tucker(np.random.default_rng(20).normal(size=(2, 2, 2)), spec)
        v = (np.array([[1.0, 0.5], [0.3, 0.2]]),
             np.array([[0.7, 1.0], [0.0, 0.0]]),
             np.array([[1.0, 0.4], [0.6, 0.9]]))
        # factors in the metric's Cholesky coordinates; the zero row stays zero
        monkeypatch.setattr(cpd, "_cp_stack", lambda cores, ranks, options=None, closed=None: {R: [CpResult(
            v=v, rec_error=0.5, restart_errors=(0.5,), flags=(), sweeps=7, converged=True)]
            for R in ranks})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            canon = decompose_cores([tucker], [2])[2][0]
        assert canon.R == 1
        assert canon.lambdas.shape == (1,)
        assert canon.flags == ("rank-reduced",)

    def test_metric_built_once_per_spec(self, monkeypatch):
        spec = _spec((2, 2, 2))
        core = np.random.default_rng(19).normal(size=(2, 2, 2))
        # built directly: _tucker reads the metric, which would fill the cache
        tucker = TuckerState(spec=spec, core=core, fidelity=1.0, squared_overlap=1.0,
                             penalty=0.0, kappa_max=1.0)
        calls = []
        states = lorentzian.AxisProfiles.states

        def counting(self):
            calls.append(self.layout)
            return states(self)

        monkeypatch.setattr(lorentzian.AxisProfiles, "states", counting)
        canon = decompose_cores([tucker], [2], CpdOptions(n_restarts=2, seed=0))[2][0]
        success_prob_tucker(tucker)
        success_prob_canonical(canon)
        assert len(calls) == 1
        assert calls[0] is spec.layout


def test_canonical_statevector_is_sum_of_separable_states():
    spec = _spec((2, 2, 2))
    rng = np.random.default_rng(18)
    u = [rng.normal(size=(2, 2)) for _ in range(3)]
    lam = np.array([1.7, 0.4])
    full = canonical_statevector(spec, lam, u)
    V = spec.state_matrices()
    parts = sum(
        lam[r] * np.einsum("i,j,k->ijk", u[0][r] @ V[0], u[1][r] @ V[1], u[2][r] @ V[2]).ravel()
        for r in range(2)
    )
    np.testing.assert_allclose(full, parts, atol=1e-13)


def test_tucker_statevector_is_sum_of_separable_states():
    spec = _spec((2, 2, 2))
    core = np.random.default_rng(21).normal(size=(2, 2, 2))
    V = spec.state_matrices()
    full = tucker_statevector(spec, core)
    parts = sum(
        core[a, b, c] * np.einsum("i,j,k->ijk", V[0][a], V[1][b], V[2][c]).ravel()
        for a in range(2) for b in range(2) for c in range(2)
    )
    np.testing.assert_allclose(full, parts, atol=1e-13)
