"""Canonical (CP) decomposition of the fitted core tensor.

The Tucker-form core d is approximated by a rank-R sum of separable terms,
d ~ sum_r v_r^x (x) v_r^y (x) v_r^z.  CP runs in the metric the report uses.
With the Cholesky factorization S_v = L_v L_v^T of each direction's LF
overlap, ``decompose_cores`` hands CP the core d' = (L_x^T (x) L_y^T (x)
L_z^T) d, whose Euclidean norm is the metric norm of d, and maps the factors
back with v = L_v^-T v'.  So CP minimizes ||d - e||_S, and at a converged
rank its squared relative residual is the reported deviation.
``decompose_cores`` is the only entry point.

Each rank runs three stages on stacked factors of shape (B, R, n_v), where B
counts (core, candidate) pairs: every candidate of every core of a report
(the MOs of a job share one core shape) sits in the same stack.

1. Warm-up.  Every candidate runs at most WARMUP_SWEEPS sweeps of alternating
   least squares (Kolda & Bader, SIAM Review 51, 455 (2009)).  Each mode
   update solves the exact linear least-squares problem through the
   Khatri-Rao Gram identity (Hadamard product of the other two factor Grams)
   with the MTTKRP as right-hand side, one batched Gram product, MTTKRP and
   solve per mode and sweep.  Every solve adds RIDGE_SCALE tr(Gram) to the
   diagonal, a ridge at round-off scale.  A pair stops when its relative
   error changes by less than ALS_TOL.
2. Finish.  Each core's best candidate that did not stop in the warm-up runs
   Levenberg-Marquardt (LM) for at most LM_MAX_ITER iterations.  The
   normal equations come from the factor Grams and the MTTKRP alone (Tomasi
   & Bro, Comput. Stat. Data Anal. 2006; Phan, Tichavsky & Cichocki, IEEE
   TSP 2013), so no Jacobian is formed.  Each step eliminates the longest
   mode p by a Schur complement: its block of J^T J + mu I is
   (W_p + mu I) (x) I, which one R x R inverse handles, so all pairs share
   one batched solve of size R (n_x + n_y + n_z - n_p), 64 instead of 112
   at R = 8 on a 6x4x4 basis, and mode p follows by back-substitution (see
   ``_reduced_system``).  A step is kept only if it lowers the error, and
   LM stops once a kept step lowers it by less than LM_RTOL, relative (see
   ``_lm``).
3. Choice.  The candidate with the lowest error wins.  Candidates whose
   errors agree within ALS_TOL are tied, and the lowest index among them
   wins, so round-off does not pick the winner.

The candidates are the ``n_restarts`` seeded starts (SVD basis, or the exact
form at R = n_prod, then random) and, past a ladder's first rung, one more.
The requested ranks are decomposed in increasing order, and each rank's extra
candidate is the previous rank's winner plus greedy rank-one terms of its
residual.  That start is no worse than the previous winner, and both stages
only lower a candidate's error, so the error cannot rise with rank.  Once a
rank's winner is exact (relative error at most ALS_TOL), every higher rank of
the ladder reports that state, flagged ``rank-reduced``.  So a rank's result
can depend on which lower ranks were decomposed with it.

A finished pair leaves the stack in both stages, and every operation acts on
each pair alone, so a core's result does not depend on what it was stacked
with.  ``sweeps`` counts the winner's ALS sweeps plus LM iterations, and
``converged`` says that a stop test fired before the cap of the stage it
ended in.  The relative error is always the direct residual ||d - e|| / ||d||.
A result is flagged ``gram-ridge`` when it swept and one of its final mode
Grams has its smallest eigenvalue at most the ridge.

Factors are then rescaled in the LF overlap metric,
N_r^(v) = sqrt(v_r . S^(v) v_r), so each row u_r = v_r / N_r describes a
normalized single-direction state and lambda_r = N_r^x N_r^y N_r^z collects
the canonical coefficients.

The per-direction S^(v) are the spec's cached ``overlaps``; normalization,
the overlap with the Tucker state and the deviation all read them, the last
two through ``tensor.metric_inner``.  ``decompose_cores`` stores the canonical
squared norm so that the success probability needs no second contraction.
The canonical-form state is the resulting sum itself and is deliberately not
renormalized; its squared norm enters the post-selection success probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import TuckerState
from .lorentzian import LorentzianBasisSpec
from .tensor import _OTHERS, cp_full, metric_inner, mode_product, mttkrp, unfold

__all__ = [
    "CanonicalState",
    "CpdOptions",
    "normalize_factors",
    "decompose_cores",
    "canonical_statevector",
]

RIDGE_SCALE = 1e-14  # ridge of every mode solve, relative to the Gram's trace
ALS_TOL = 1e-12  # stop when the relative fit change drops below this
WARMUP_SWEEPS = 30  # ALS sweeps of every candidate before LM
LM_MAX_ITER = 100  # LM iterations of a core's best candidate
LM_RTOL = 1e-8  # LM stops once an accepted step lowers the error less than this, relative
LM_TAU = 1e-3  # initial damping, relative to the largest diagonal entry of J^T J
LM_STEP_FLOOR = 1e-14  # a rejected step this small, relative to the factors, ends LM


@dataclass(frozen=True)
class CpdOptions:
    n_restarts: int = 8
    seed: int = 0            # single seed governs every restart


@dataclass(frozen=True, eq=False)
class CpResult:
    """Raw CP output: factors v[(x, y, z)][r, l] in the coordinates CP ran in, and diagnostics."""

    v: tuple[np.ndarray, np.ndarray, np.ndarray]
    rec_error: float                 # ||d - reconstruction|| / ||d||, in the norm CP ran in
    restart_errors: tuple[float, ...]  # of every candidate, the ladder start last
    flags: tuple[str, ...]
    sweeps: int                      # ALS sweeps plus LM iterations of the winner
    converged: bool                  # a stop test fired (or it was exact at init), not a cap


@dataclass(frozen=True, eq=False)
class CanonicalState:
    """Rank-R canonical form of a Tucker core over the same LF basis."""

    R: int
    u: tuple[np.ndarray, np.ndarray, np.ndarray]
    lambdas: np.ndarray          # descending, all positive
    spec: LorentzianBasisSpec
    deviation: float             # 1 - overlap^2 / (|phi_T|^2 |phi_C|^2)
    canon_norm2: float           # |phi_canon|^2, the state is not renormalized
    flags: tuple[str, ...]
    sweeps: int                  # of the winning candidate, see CpResult
    converged: bool


def _exact_init(d: np.ndarray) -> list[np.ndarray]:
    """Exact R = n_prod decomposition: one separable term per core entry (C order)."""
    rows = np.arange(d.size)
    i, j, k = np.indices(d.shape).reshape(3, -1)
    A, B, C = (np.zeros((d.size, n)) for n in d.shape)
    A[rows, i] = d.ravel()
    B[rows, j] = 1.0
    C[rows, k] = 1.0
    return [A, B, C]


def _left_singular(d: np.ndarray) -> list[np.ndarray]:
    """Left singular vectors of each mode unfolding of d, the SVD start of every rank."""
    return [np.linalg.svd(unfold(d, mode), full_matrices=False)[0] for mode in range(3)]


def _svd_init(bases, R: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Leading R of each unfolding's left singular vectors ``bases``, padded randomly past R."""
    out = []
    for u_mat in bases:
        take = min(R, u_mat.shape[1])
        fac = np.empty((R, u_mat.shape[0]))
        fac[:take] = u_mat[:, :take].T
        if take < R:
            fac[take:] = rng.standard_normal((R - take, u_mat.shape[0]))
        out.append(fac)
    return out


def _init(d: np.ndarray, R: int, restart: int, seed: np.random.SeedSequence,
          bases) -> list[np.ndarray]:
    """Restart 0 starts from the SVD basis (the exact form at R = n_prod), the rest at random.

    ``bases`` is ``_left_singular(d)``, computed once for every rank of a ladder.
    """
    rng = np.random.default_rng(seed)
    if restart == 0:
        return _exact_init(d) if R == d.size else _svd_init(bases, R, rng)
    return [rng.standard_normal((R, dim)) for dim in d.shape]


def _residual(d: np.ndarray, factors, norm_d: np.ndarray) -> np.ndarray:
    """Direct relative residual ||d - e|| / ||d|| of each stacked CP form."""
    diff = d - cp_full(np.ones(factors[0].shape[:-1]), factors)
    return np.sqrt(np.square(diff).sum(axis=(1, 2, 3))) / norm_d


def _norms(d: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(x) for x in d])


def _ridged(factors) -> np.ndarray:
    """Whether a mode Gram of each stacked CP form is singular to the ridge."""
    grams = [f @ f.swapaxes(1, 2) for f in factors]
    ridged = np.zeros(len(factors[0]), dtype=bool)
    for i, j in _OTHERS:
        gram = grams[i] * grams[j]
        trace = gram.diagonal(0, 1, 2).sum(axis=1)
        ridged |= np.linalg.eigvalsh(gram)[:, 0] <= RIDGE_SCALE * trace
    return ridged


def _als(d: np.ndarray, factors, max_sweeps: int):
    """ALS on stacked cores d (B, I, J, K) from stacked factors (B, R, n_v).

    Each pair sweeps until its relative error changes by less than ALS_TOL or
    ``max_sweeps`` is reached; a pair whose start is already exact does not
    sweep, since sweeping would only add ridge noise.  Finished pairs leave
    the stack, so the others do the same arithmetic as they would alone.
    Returns the final factors, relative errors, sweep counts, converged
    flags and ridge flags (see the module docstring), one entry per pair.
    """
    norm_d = _norms(d)
    out = [np.array(f, dtype=np.float64) for f in factors]
    err = _residual(d, out, norm_d)
    sweeps = np.zeros(len(d), dtype=int)
    converged = err <= ALS_TOL
    eye = np.eye(out[0].shape[1])
    live = np.flatnonzero(~converged)
    F = [f[live] for f in out]
    dl, nl, prev = d[live], norm_d[live], err[live]
    unf = [unfold(dl, m) for m in range(3)]
    grams = [f @ f.swapaxes(1, 2) for f in F]
    sweep = 0
    while live.size and sweep < max_sweeps:
        sweep += 1
        for mode, (i, j) in enumerate(_OTHERS):
            gram = grams[i] * grams[j]
            ridge = RIDGE_SCALE * gram.diagonal(0, 1, 2).sum(axis=1)
            rhs = mttkrp(unf[mode], F, mode)
            F[mode] = np.linalg.solve(gram + ridge[:, None, None] * eye, rhs)
            grams[mode] = F[mode] @ F[mode].swapaxes(1, 2)
        e = _residual(dl, F, nl)
        done = np.abs(prev - e) < ALS_TOL
        prev = e
        if done.any():
            finished = live[done]
            converged[finished] = True
            sweeps[finished] = sweep
            err[finished] = e[done]
            for m in range(3):
                out[m][finished] = F[m][done]
            keep = ~done
            live, dl, nl, prev = live[keep], dl[keep], nl[keep], prev[keep]
            F = [f[keep] for f in F]
            unf = [u[keep] for u in unf]
            grams = [g[keep] for g in grams]
    sweeps[live] = sweep
    err[live] = prev
    for m in range(3):
        out[m][live] = F[m]
    return out, err, sweeps, converged, _ridged(out) & (sweeps > 0)


def _gradient(unfolded, factors, grams) -> list[np.ndarray]:
    """J^T r of stacked CP forms, r = e - d, per mode: (G_i * G_j) F_m - MTTKRP.

    ``unfolded`` holds the cores' mode unfoldings and ``grams`` the factor
    Grams G_m = F_m F_m^T.
    """
    return [(grams[i] * grams[j]) @ factors[m] - mttkrp(unfolded[m], factors, m)
            for m, (i, j) in enumerate(_OTHERS)]


def _longest_mode(factors) -> int:
    """The mode with the most columns, the lowest index among ties."""
    return int(np.argmax([f.shape[2] for f in factors]))


def _reduced_system(factors, grams, grad, mu):
    """LM normal equations of stacked CP forms with the longest mode p eliminated.

    J^T J + mu I has the blocks of Tomasi & Bro: with W_m = G_i * G_j, block
    (m, m) is (W_m + mu I) (x) I, and block (m, k) holds F_m[s, a] F_k[r, b]
    G_t[r, s] at ((r, a), (s, b)), t the third mode; unknown (r, a) is entry
    a of row r of mode m's step.  Mode p's block needs one R x R inverse of
    W~ = W_p + mu I.  The other two modes k < l keep their unknowns (r, c),
    c over the columns of [F_k | F_l].  Their part of J^T J is
    G_p[r, s] (J2^T J2)[(r, a), (s, b)], J2 the Jacobian of the two-way form
    sum_r F_k[r] (x) F_l[r], and their coupling to mode p is F_p times
    U[q, (s, c)] = G_t[q, s] F_m[q, c], with m the mode owning column c and
    t the other kept mode.  So the Schur complement is
    G_p * ([J2; U]^T [J2; -W~^-1 U]) + mu I, one matmul, and the right-hand
    side is -g plus (G_t * H) F_m per kept mode, with H = F_p (W~^-1 g_p)^T.

    Returns the reduced matrix (B, R n_y, R n_y), its right-hand side
    (B, R n_y) and W~^-1, for n_y = n_k + n_l.
    """
    n_pairs, R = factors[0].shape[:2]
    p = _longest_mode(factors)
    k, l = _OTHERS[p]
    n_k, n_l = factors[k].shape[2], factors[l].shape[2]
    n_y = n_k + n_l
    winv = np.linalg.inv(grams[k] * grams[l] + mu[:, None, None] * np.eye(R))
    j2 = np.zeros((n_pairs, n_k, n_l, R, n_y))
    j2[:, np.arange(n_k), :, :, np.arange(n_k)] = factors[l].swapaxes(1, 2)
    j2[:, :, np.arange(n_l), :, n_k + np.arange(n_l)] = factors[k].swapaxes(1, 2)
    j2 = j2.reshape(n_pairs, n_k * n_l, R * n_y)
    U = np.concatenate([grams[l][..., None] * factors[k][:, :, None],
                        grams[k][..., None] * factors[l][:, :, None]], axis=3)
    U = U.reshape(n_pairs, R, R * n_y)
    lhs = (np.concatenate([j2, U], axis=1).swapaxes(1, 2)
           @ np.concatenate([j2, -(winv @ U)], axis=1))
    blocks = lhs.reshape(n_pairs, R, n_y, R, n_y)
    blocks *= grams[p][:, :, None, :, None]
    lhs.reshape(n_pairs, -1)[:, ::R * n_y + 1] += mu[:, None]
    H = factors[p] @ (winv @ grad[p]).swapaxes(1, 2)
    rhs = np.concatenate([(grams[l] * H) @ factors[k] - grad[k],
                          (grams[k] * H) @ factors[l] - grad[l]], axis=2)
    return lhs, rhs.reshape(n_pairs, -1), winv


def _lm_step(factors, grams, grad, mu) -> list[np.ndarray]:
    """Solution of (J^T J + mu I) x = -J^T r per stacked CP form, one array per mode.

    Solves the reduced system of ``_reduced_system``, then recovers the
    longest mode p by back-substitution,
    x_p = -W~^-1 (g_p + M F_p) with M = G_l * (F_k x_k^T) + G_k * (F_l x_l^T).
    """
    lhs, rhs, winv = _reduced_system(factors, grams, grad, mu)
    p = _longest_mode(factors)
    k, l = _OTHERS[p]
    y = np.linalg.solve(lhs, rhs[..., None]).reshape(len(lhs), factors[0].shape[1], -1)
    step = [None] * 3
    step[k], step[l] = np.split(y, [factors[k].shape[2]], axis=2)
    coupling = (grams[l] * (factors[k] @ step[k].swapaxes(1, 2))
                + grams[k] * (factors[l] @ step[l].swapaxes(1, 2)))
    step[p] = -(winv @ (grad[p] + coupling @ factors[p]))
    return step


def _lm(d: np.ndarray, factors, err: np.ndarray, max_iter: int):
    """Levenberg-Marquardt on stacked cores d from stacked factors with relative errors ``err``.

    Each iteration solves (J^T J + mu I) delta = -J^T r for every live pair
    through ``_lm_step`` and keeps the step only if it lowers the pair's
    error; mu follows Nielsen's gain-ratio rule per pair.  A pair stops, and
    counts as converged, when an accepted step lowers its error by less than
    LM_RTOL relative or to at most ALS_TOL, or when a rejected step is below
    LM_STEP_FLOOR relative to the factors, since an error stalled at its
    round-off floor above ALS_TOL rejects every step and mu would grow until
    it overflows.  ``max_iter`` iterations do not count as converged.
    Returns the factors, relative errors, iteration counts and converged
    flags.  Finished pairs leave the stack, as in ``_als``.
    """
    norm_d = _norms(d)
    out = [np.array(f, dtype=np.float64) for f in factors]
    err = np.array(err, dtype=np.float64)
    iters = np.zeros(len(d), dtype=int)
    converged = np.zeros(len(d), dtype=bool)
    live = np.arange(len(d))
    F, dl, nl, e = out, d, norm_d, err.copy()
    unf = [unfold(d, m) for m in range(3)]
    # the diagonal of J^T J holds the products of the other two modes' squared row norms
    norm2 = [np.square(f).sum(axis=2) for f in F]
    mu = LM_TAU * np.max([norm2[i] * norm2[j] for i, j in _OTHERS], axis=(0, 2))
    nu = np.full(len(d), 2.0)
    it = 0
    while live.size and it < max_iter:
        it += 1
        grams = [f @ f.swapaxes(1, 2) for f in F]
        grad = _gradient(unf, F, grams)
        step = _lm_step(F, grams, grad, mu)
        trial = [f + s for f, s in zip(F, step)]
        e_new = _residual(dl, trial, nl)
        ok = e_new < e
        gain = np.square(e) - np.square(e_new)
        predicted = sum(np.sum(s * (mu[:, None, None] * s - g), axis=(1, 2))
                        for s, g in zip(step, grad))
        rho = np.square(nl) * gain / np.where(ok, predicted, 1.0)
        mu = np.where(ok, mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), mu * nu)
        nu = np.where(ok, 2.0, 2.0 * nu)
        F = [np.where(ok[:, None, None], t, f) for t, f in zip(trial, F)]
        done = ok & ((e - e_new < LM_RTOL * e) | (e_new <= ALS_TOL))
        if not ok.all():
            x_norm = np.sqrt(sum(np.square(f).sum(axis=(1, 2)) for f in F))
            step_norm = np.sqrt(sum(np.square(s).sum(axis=(1, 2)) for s in step))
            done |= ~ok & (step_norm <= LM_STEP_FLOOR * x_norm)
        e = np.where(ok, e_new, e)
        if done.any():
            finished = live[done]
            converged[finished] = True
            iters[finished] = it
            err[finished] = e[done]
            for m in range(3):
                out[m][finished] = F[m][done]
            keep = ~done
            live, dl, nl, e, mu, nu = live[keep], dl[keep], nl[keep], e[keep], mu[keep], nu[keep]
            F = [f[keep] for f in F]
            unf = [u[keep] for u in unf]
    iters[live] = it
    err[live] = e
    for m in range(3):
        out[m][live] = F[m]
    return out, err, iters, converged


def _ladder_start(d: np.ndarray, factors, R: int):
    """Stacked factors plus greedy rank-one terms of each core's residual, up to rank R.

    Each term is the ALS rank-one fit of what the factors so far leave over,
    so the start's error is at most the factors' error.
    """
    out = list(factors)
    rest = d - cp_full(np.ones(out[0].shape[:-1]), out)
    for _ in range(R - out[0].shape[1]):
        starts = [_svd_init(_left_singular(core), 1, None) for core in rest]
        term = _als(rest, [np.stack([s[m] for s in starts]) for m in range(3)], WARMUP_SWEEPS)[0]
        out = [np.concatenate([f, t], axis=1) for f, t in zip(out, term)]
        rest = rest - cp_full(np.ones(term[0].shape[:-1]), term)
    return out


def _rank_stage(d: np.ndarray, R: int, opt: CpdOptions, prev, bases) -> list[CpResult]:
    """Best candidate of each stacked core d (C, I, J, K) at rank R.

    The candidates are the seeded restarts, whose SVD starts read each core's
    ``_left_singular`` in ``bases``, and, when ``prev`` holds the previous
    rank's stacked winning factors, the ladder start.  All of them
    run at most WARMUP_SWEEPS ALS sweeps together; each core's best candidate
    that did not converge there goes on to at most LM_MAX_ITER LM iterations.
    """
    n_runs = max(1, opt.n_restarts)
    seeds = np.random.SeedSequence(opt.seed).spawn(n_runs)
    starts = [[_init(core, R, r, seeds[r], basis) for r in range(n_runs)]
              for core, basis in zip(d, bases)]
    if prev is not None:
        ladder = _ladder_start(d, prev, R)
        for c, core_starts in enumerate(starts):
            core_starts.append([m[c] for m in ladder])
    n_cand = len(starts[0])
    flat = [s for core_starts in starts for s in core_starts]
    v, err, sweeps, converged, ridged = _als(
        np.repeat(d, n_cand, axis=0), [np.stack([s[m] for s in flat]) for m in range(3)],
        WARMUP_SWEEPS)
    best = np.array([c * n_cand + _best_restart(err[c * n_cand:(c + 1) * n_cand])
                     for c in range(len(d))])
    refine = best[~converged[best]]
    if refine.size:
        factors, err[refine], iters, converged[refine] = _lm(
            d[refine // n_cand], [m[refine] for m in v], err[refine], LM_MAX_ITER)
        for m in range(3):
            v[m][refine] = factors[m]
        sweeps[refine] += iters
        ridged[refine] = _ridged(factors)
    results = []
    for first in range(0, len(flat), n_cand):
        errors = tuple(float(e) for e in err[first:first + n_cand])
        win = first + _best_restart(errors)
        results.append(CpResult(
            v=tuple(m[win] for m in v), rec_error=errors[win - first],
            restart_errors=errors, flags=("gram-ridge",) if ridged[win] else (),
            sweeps=int(sweeps[win]), converged=bool(converged[win])))
    return results


def _cp_stack(cores, ranks, options: CpdOptions | None):
    """Euclidean CP of equally shaped cores, all (core, candidate) pairs stacked.

    The iterable ``ranks`` is deduplicated and run as the ascending ladder,
    returned as {rank: each core's ``CpResult``}.  A core whose winner is
    exact (relative error at most ALS_TOL) keeps that result at every higher
    rank of the ladder.
    """
    opt = options or CpdOptions()
    ladder = sorted({int(R) for R in ranks})
    d = [np.asarray(core, dtype=np.float64) for core in cores]
    if not d:
        return {R: [] for R in ladder}
    shape = d[0].shape
    if len(shape) != 3:
        raise ValueError(f"core tensor must be 3-way, got shape {shape}")
    if any(core.shape != shape for core in d):
        raise ValueError(f"cores decomposed together must share one shape, got "
                         f"{sorted({core.shape for core in d})}")
    for R in ladder:
        if not (1 <= R <= d[0].size):
            raise ValueError(f"rank must be in [1, {d[0].size}], got {R}")
    if any(float(np.linalg.norm(core)) == 0.0 for core in d):
        raise ValueError("cannot decompose an all-zero core tensor")

    d = np.stack(d)
    bases = [_left_singular(core) for core in d]
    winners: list[CpResult | None] = [None] * len(d)
    found = {}
    for R in ladder:
        todo = [c for c, w in enumerate(winners) if w is None or w.rec_error > ALS_TOL]
        if todo:
            prev = (None if winners[todo[0]] is None else
                    [np.stack([winners[c].v[m] for c in todo]) for m in range(3)])
            results = _rank_stage(d[todo], R, opt, prev, [bases[c] for c in todo])
            for c, result in zip(todo, results):
                winners[c] = result
        found[R] = list(winners)
    return found


def _best_restart(errors) -> int:
    """Lowest restart index whose error is within ALS_TOL of the smallest."""
    floor = min(errors) + ALS_TOL
    return next(r for r, e in enumerate(errors) if e <= floor)


def normalize_factors(v, spec: LorentzianBasisSpec):
    """Metric-normalize factor rows and collect canonical coefficients.

    Returns (u, lambdas) with u_r . S^(v) u_r = 1 per direction in the
    spec's ``overlaps``, lambdas positive and sorted descending, and the
    reconstruction unchanged.  Rows whose metric norm vanishes are dropped,
    so the effective rank shrinks; ``decompose_cores`` flags that as
    ``rank-reduced``.
    """
    v = [np.asarray(m, dtype=np.float64) for m in v]
    if len(v) != 3 or any(m.ndim != 2 for m in v):
        raise ValueError("expected three (R x n_Lv) factor matrices")
    R = v[0].shape[0]
    if any(m.shape[0] != R for m in v):
        raise ValueError("factor matrices disagree on the rank")
    if tuple(m.shape[1] for m in v) != spec.n_l:
        raise ValueError(
            f"factor columns {tuple(m.shape[1] for m in v)} do not match spec {spec.n_l}")

    norms = np.empty((3, R))
    for axis in range(3):
        quad = np.einsum("rl,lm,rm->r", v[axis], spec.overlaps[axis], v[axis])
        norms[axis] = np.sqrt(np.maximum(quad, 0.0))
    alive = np.all(norms > 1e-14, axis=0)
    v = [m[alive] for m in v]
    norms = norms[:, alive]

    u = [v[axis] / norms[axis][:, None] for axis in range(3)]
    lam = norms.prod(axis=0)
    # factor rows carry the sign convention; flipping a pair of directions
    # leaves every separable term unchanged
    for axis in (0, 1):
        lead = u[axis][np.arange(lam.size), np.argmax(np.abs(u[axis]), axis=1)]
        flip = np.where(lead < 0.0, -1.0, 1.0)[:, None]
        u[axis] *= flip
        u[2] *= flip
    order = np.argsort(-lam, kind="stable")
    return tuple(m[order] for m in u), lam[order]


def _overlap_terms(S1, core, lambdas, u):
    e = cp_full(lambdas, u)
    overlap = metric_inner(e, core, S1)
    canon_norm2 = metric_inner(e, e, S1)
    tucker_norm2 = metric_inner(core, core, S1)
    # rounding can push 1 - cos^2 just outside [0, 1]
    deviation = float(np.clip(1.0 - overlap * overlap / (tucker_norm2 * canon_norm2), 0.0, 1.0))
    return canon_norm2, deviation


def _canonical(tucker: TuckerState, v, result: CpResult, R: int) -> CanonicalState:
    """Canonical state of factors v (in the LF basis) with ``result``'s run diagnostics."""
    u, lam = normalize_factors(v, tucker.spec)
    canon_norm2, deviation = _overlap_terms(tucker.spec.overlaps, tucker.core, lam, u)
    flags = list(result.flags)
    if lam.size < R:
        flags.append("rank-reduced")
    return CanonicalState(
        R=int(lam.size), u=u, lambdas=lam, spec=tucker.spec,
        deviation=deviation, canon_norm2=canon_norm2, flags=tuple(flags),
        sweeps=result.sweeps, converged=result.converged)


def decompose_cores(tuckers, ranks, options: CpdOptions | None = None):
    """Canonical forms of Tucker states, all cores and candidates of a rank stacked.

    Returns {rank: one state per Tucker state} for the ascending,
    deduplicated iterable ``ranks``, run as a ladder (see the module
    docstring); a single rank is a one-rung ladder.  CP runs on each core in
    its own metric.  The cores must share a shape, as the MOs of one job do.
    """
    chol = [[np.linalg.cholesky(s) for s in t.spec.overlaps] for t in tuckers]
    found = _cp_stack([mode_product(t.core, L) for t, L in zip(tuckers, chol)], ranks, options)
    return {R: [_canonical(t, tuple(np.linalg.solve(l.T, f.T).T for l, f in zip(L, result.v)),
                           result, R)
                for t, L, result in zip(tuckers, chol, results)]
            for R, results in found.items()}


def canonical_statevector(spec: LorentzianBasisSpec, lambdas, u) -> np.ndarray:
    """Canonical-form state on the full grid (k_z fastest), for exports and oracles.

    Term r has direction-v grid table u_r^(v) V^(v) and weight lambda_r.
    """
    phi = [np.asarray(u[v], dtype=np.float64) @ spec.state_matrix(v) for v in range(3)]
    return cp_full(np.asarray(lambdas, dtype=np.float64), phi).ravel()
