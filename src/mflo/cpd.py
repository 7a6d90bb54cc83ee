"""Canonical (CP) decomposition of the fitted core tensor.

The Tucker-form core d is approximated by a rank-R sum of separable terms,
d ~ sum_r v_r^x (x) v_r^y (x) v_r^z.  CP runs in the metric the report uses.
With the Cholesky factorization S_v = L_v L_v^T of each direction's LF
overlap, ``decompose_cores`` hands CP the core d' = (L_x^T (x) L_y^T (x)
L_z^T) d, whose Euclidean norm is the metric norm of d.  So CP minimizes
||d - e||_S, and at a converged rank its squared relative residual is the
reported deviation.
``decompose_cores`` is the only entry point.

Each rank runs three stages on stacked factors of shape (B, R, n_v), where B
counts (core, candidate) pairs: every candidate of every core of a report
(the MOs of a job share one core shape) sits in the same stack.

1. Warm-up.  Every candidate runs at most WARMUP_SWEEPS sweeps of alternating
   least squares (Kolda & Bader, SIAM Review 51, 455 (2009)).  Each mode
   update solves the exact linear least-squares problem through the
   Khatri-Rao Gram identity (Hadamard product of the other two factor Grams)
   with the MTTKRP as right-hand side: per mode and sweep, one batched Gram
   product, Khatri-Rao product, MTTKRP and solve, whose diagonal gets
   RIDGE_SCALE tr(Gram) in place, a ridge at round-off scale.  The last
   mode's Khatri-Rao product also gives the sweep's direct residual.  A pair
   stops once it is exact (relative error at most EXACT_TOL = sqrt(eps)) or
   its relative error changes by less than ALS_TOL.
2. Finish.  Each core's best candidate that did not stop in the warm-up runs
   Levenberg-Marquardt (LM) for at most LM_MAX_ITER iterations.  The
   normal equations come from the factor Grams and the MTTKRP alone (Tomasi
   & Bro, Comput. Stat. Data Anal. 2006; Phan, Tichavsky & Cichocki, IEEE
   TSP 2013), so no Jacobian is formed.  Each step eliminates the longest
   mode p by a Schur complement: its block of J^T J + mu I is
   (W_p + mu I) (x) I, which one R x R inverse handles, so all pairs share
   one batched solve of size R (n_x + n_y + n_z - n_p), 64 instead of 112
   at R = 8 on a 6x4x4 basis, and mode p follows by back-substitution (see
   ``_reduced_system``).  Per iteration: three Grams, the gradient, one R x R
   inverse, the reduced solve and the trial's direct residual.  A step is
   kept only if it lowers the error, and LM stops once a kept step makes it
   exact or lowers it by less than LM_RTOL, relative (see ``_lm``).  When
   every pair keeps its step, as in most iterations, the trial carries over
   unmerged, and its Khatri-Rao product serves the next gradient.
3. Choice.  The candidate with the lowest warm-up error wins; it is the one
   stage 2 finishes, and LM only lowers its error, so the choice stands.
   Candidates whose errors agree within ALS_TOL are tied, and the lowest
   index among them wins, so round-off does not pick the winner.

The candidates are the ``n_restarts`` seeded starts (SVD basis, one batched
SVD per mode for a whole stack, then random) and, past a ladder's first
rung, one more.
The requested ranks are decomposed in increasing order, and each rank's extra
candidate is the previous rank's winner plus greedy rank-one terms of its
residual.  That start is no worse than the previous winner, and both stages
only lower a candidate's error, so the error cannot rise with rank.  Once a
rank's winner is exact, every higher rank of the ladder reports that state,
flagged ``rank-reduced``.  So a rank's result can depend on which lower
ranks were decomposed with it, and ``mflo decompose`` therefore re-runs a
report's whole ladder.

A fitted core is already a CP form: with no metric dimension discarded,
S d = t / sqrt(kappa) is a sum over the Gaussian primitives, which merge
into R* terms, the structural rank (``fitting._Engine.structural_factors``).
A Tucker state that carries those factors (``TuckerState.structural``)
takes them, whitened by the Cholesky factors, at its first rung R >= R*
unless a lower rung is already exact: no candidate runs, ``sweeps`` is 0,
it is converged and flagged ``structural``, and ``rank-reduced`` when
R* < R.  If the closed form's direct residual exceeds EXACT_TOL, as round-off
in an ill-conditioned metric can make it, CP runs there as on any rung.
Below R*, and for a state without the factors, full rank R = n_prod
included, every rung is an ordinary one with the same candidates.

A finished pair leaves the stack in both stages, and every operation acts on
each pair alone, so a core's result does not depend on what it was stacked
with.  ``sweeps`` counts the winner's ALS sweeps plus LM iterations, and
``converged`` says that a stop test fired before the cap of the stage it
ended in: exact (the ladder's and the closed form's test too), an ALS change
below ALS_TOL, an LM gain below LM_RTOL relative, or the LM step floor.  The
relative error is always the direct residual ||d - e|| / ||d||.
A core's winner is flagged ``gram-ridge`` when it swept and one of its final
mode Grams has its smallest eigenvalue at most the ridge.

The Cholesky factors are the only place CP meets the metric: every
canonical entry is built in the coordinates CP ran in.  A whitened row's
Euclidean norm is the metric norm N_r^(v) of its LF-basis row, so
u_r = L_v^-T v'_r / N_r describes a normalized single-direction state and
lambda_r = N_r^x N_r^y N_r^z collects the canonical coefficients.  The
overlap with the Tucker state, the canonical squared norm and |d|^2 are
plain sums over the whitened core and the whitened reconstruction, so the
reported deviation is the one CP minimized.  ``decompose_cores`` stores the
canonical squared norm so that the success probability needs no second
contraction.  The canonical-form state is the resulting sum itself and is
deliberately not renormalized; its squared norm enters the post-selection
success probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentzian import LorentzianBasisSpec
from .tensor import _OTHERS, cp_full, khatri_rao, mode_product, mttkrp, unfold

__all__ = [
    "CanonicalState",
    "CpdOptions",
    "decompose_cores",
    "canonical_statevector",
]

RIDGE_SCALE = 1e-14  # ridge of every mode solve, relative to the Gram's trace
ALS_TOL = 1e-12  # ALS stalls below this change in relative error; restarts this close tie
EXACT_TOL = float(np.finfo(np.float64).eps) ** 0.5  # exact: the deviation, ~error^2, reads round-off
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


def _left_singular(d: np.ndarray) -> list[np.ndarray]:
    """Left singular vectors of each mode unfolding of d (or of each stacked core)."""
    return [np.linalg.svd(unfold(d, mode), full_matrices=False)[0] for mode in range(3)]


def _svd_init(bases, R: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Leading R of each unfolding's left singular vectors ``bases``, padded randomly past R."""
    out = []
    for u_mat in bases:
        *lead, n, k = u_mat.shape
        take = min(R, k)
        fac = np.empty((*lead, R, n))
        fac[..., :take, :] = u_mat[..., :take].swapaxes(-1, -2)
        if take < R:
            fac[..., take:, :] = rng.standard_normal((R - take, n))
        out.append(fac)
    return out


def _init(d: np.ndarray, R: int, restart: int, seed: np.random.SeedSequence,
          bases) -> list[np.ndarray]:
    """Restart 0 starts from the SVD basis, padded at random past its size, the rest at random.

    ``bases`` is ``_left_singular(d)``, computed once for every rank of a ladder.
    For a stack of cores, restart 0 gives stacked factors, and a random
    start's factors serve every core, which would each draw them alone.
    """
    rng = np.random.default_rng(seed)
    if restart == 0:
        return _svd_init(bases, R, rng)
    return [rng.standard_normal((R, n)) for n in d.shape[-3:]]


def _residual(d: np.ndarray, factors, norm_d: np.ndarray, kr=None) -> np.ndarray:
    """Direct relative residual ||d - e|| / ||d|| of each stacked CP form, ``kr`` as in cp_full."""
    diff = d - cp_full(None, factors, kr)
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

    Each pair sweeps until it is exact (relative error at most EXACT_TOL), its
    relative error changes by less than ALS_TOL or ``max_sweeps`` is reached;
    a pair whose start is already exact does not sweep, since sweeping would
    only add ridge noise.  Finished pairs leave the stack, so the others do
    the same arithmetic as they would alone.  Returns the final factors,
    relative errors, sweep counts and converged flags, one entry per pair.
    """
    norm_d = _norms(d)
    out = [np.array(f, dtype=np.float64) for f in factors]
    err = _residual(d, out, norm_d)
    converged = err <= EXACT_TOL
    result = out, err, np.zeros(len(d), dtype=int), converged
    diagonal = np.s_[:, ::out[0].shape[1] + 1]  # of a Gram stack flattened to (pairs, R * R)
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
            diag = gram.reshape(len(gram), -1)[diagonal]
            diag += RIDGE_SCALE * diag.sum(axis=1, keepdims=True)
            kr = khatri_rao(F[i], F[j])
            F[mode] = np.linalg.solve(gram, mttkrp(unf[mode], F, mode, kr))
            grams[mode] = F[mode] @ F[mode].swapaxes(1, 2)
        e = _residual(dl, F, nl, kr)  # the mode-2 update's kr is that of the first two factors
        done = (np.abs(prev - e) < ALS_TOL) | (e <= EXACT_TOL)
        prev = e
        if done.any():
            _store(result, live[done], [f[done] for f in F], e[done], sweep, True)
            keep = ~done
            live, dl, nl, prev = live[keep], dl[keep], nl[keep], prev[keep]
            F = [f[keep] for f in F]
            unf = [u[keep] for u in unf]
            grams = [g[keep] for g in grams]
    _store(result, live, F, prev, sweep, False)
    return result


def _store(result, pairs, factors, errors, count, converged: bool) -> None:
    """Write stack rows ``pairs`` of ``result`` (factors, errors, counts, converged flags)."""
    out, err, counts, flags = result
    for m in range(3):
        out[m][pairs] = factors[m]
    err[pairs] = errors
    counts[pairs] = count
    flags[pairs] = converged


def _gradient(unfolded, factors, grams, kr=None) -> list[np.ndarray]:
    """J^T r of stacked CP forms, r = e - d, per mode: (G_i * G_j) F_m - MTTKRP.

    ``unfolded`` holds the cores' mode unfoldings, ``grams`` the factor
    Grams G_m = F_m F_m^T, and ``kr``, if given, serves mode 2's MTTKRP.
    """
    return [(grams[i] * grams[j]) @ factors[m]
            - mttkrp(unfolded[m], factors, m, kr if m == 2 else None)
            for m, (i, j) in enumerate(_OTHERS)]


def _longest_mode(factors) -> int:
    """The mode with the most columns, the lowest index among ties."""
    return max(range(3), key=lambda m: factors[m].shape[2])


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
    w = grams[k] * grams[l]
    w.reshape(n_pairs, -1)[:, ::R + 1] += mu[:, None]
    winv = np.linalg.inv(w)
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
    step[k], step[l] = y[:, :, :factors[k].shape[2]], y[:, :, factors[k].shape[2]:]
    coupling = (grams[l] * (factors[k] @ step[k].swapaxes(1, 2))
                + grams[k] * (factors[l] @ step[l].swapaxes(1, 2)))
    step[p] = -(winv @ (grad[p] + coupling @ factors[p]))
    return step


def _lm(d: np.ndarray, factors, err: np.ndarray, max_iter: int):
    """Levenberg-Marquardt on stacked cores d from stacked factors with relative errors ``err``.

    Each iteration solves (J^T J + mu I) delta = -J^T r for every live pair
    through ``_lm_step`` and keeps the step only if it lowers the pair's
    error; mu follows Nielsen's gain-ratio rule per pair.  A pair stops, and
    counts as converged, when an accepted step makes it exact (relative error
    at most EXACT_TOL) or lowers its error by less than LM_RTOL relative, or
    when a rejected step is below LM_STEP_FLOOR relative to the factors, since
    an error stalled at its round-off floor above EXACT_TOL rejects every step
    and mu would grow until it overflows.  ``max_iter`` iterations do not
    count as converged.  Returns the factors, relative errors, iteration
    counts and converged flags.  Finished pairs leave the stack, as in ``_als``.
    """
    norm_d = _norms(d)
    out = [np.array(f, dtype=np.float64) for f in factors]
    err = np.array(err, dtype=np.float64)
    result = out, err, np.zeros(len(d), dtype=int), np.zeros(len(d), dtype=bool)
    live = np.arange(len(d))
    F, dl, nl, e = out, d, norm_d, err.copy()
    unf = [unfold(d, m) for m in range(3)]
    # the diagonal of J^T J holds the products of the other two modes' squared row norms
    norm2 = [np.square(f).sum(axis=2) for f in F]
    mu = LM_TAU * np.max([norm2[i] * norm2[j] for i, j in _OTHERS], axis=(0, 2))
    nu = np.full(len(d), 2.0)
    kr = None  # of F's first two factors, once a trial residual has built it
    it = 0
    while live.size and it < max_iter:
        it += 1
        grams = [f @ f.swapaxes(1, 2) for f in F]
        grad = _gradient(unf, F, grams, kr)
        step = _lm_step(F, grams, grad, mu)
        trial = [f + s for f, s in zip(F, step)]
        kr = khatri_rao(trial[0], trial[1])
        e_new = _residual(dl, trial, nl, kr)
        ok = e_new < e
        gain = np.square(e) - np.square(e_new)
        mu_b = mu[:, None, None]
        predicted = sum((s * (mu_b * s - g)).sum(axis=(1, 2)) for s, g in zip(step, grad))
        rho = np.square(nl) * gain / np.where(ok, predicted, 1.0)
        shrunk = mu * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        done = (e - e_new < LM_RTOL * e) | (e_new <= EXACT_TOL)
        if ok.all():  # most iterations: nothing to merge, and kr is that of F's first two factors
            F, e, mu, nu = trial, e_new, shrunk, np.full(len(e), 2.0)
        else:
            mu = np.where(ok, shrunk, mu * nu)
            nu = np.where(ok, 2.0, 2.0 * nu)
            F, kr = [np.where(ok[:, None, None], t, f) for t, f in zip(trial, F)], None
            x_norm = np.sqrt(sum(np.square(f).sum(axis=(1, 2)) for f in F))
            step_norm = np.sqrt(sum(np.square(s).sum(axis=(1, 2)) for s in step))
            done = np.where(ok, done, step_norm <= LM_STEP_FLOOR * x_norm)
            e = np.where(ok, e_new, e)
        if done.any():
            _store(result, live[done], [f[done] for f in F], e[done], it, True)
            keep = ~done
            live, dl, nl, e, mu, nu = live[keep], dl[keep], nl[keep], e[keep], mu[keep], nu[keep]
            F, kr = [f[keep] for f in F], None if kr is None else kr[keep]
            unf = [u[keep] for u in unf]
    _store(result, live, F, e, it, False)
    return result


def _ladder_start(d: np.ndarray, factors, R: int):
    """Stacked factors plus greedy rank-one terms of each core's residual, up to rank R.

    Each term is the ALS rank-one fit of what the factors so far leave over,
    so the start's error is at most the factors' error.
    """
    out = list(factors)
    rest = d - cp_full(None, out)
    for _ in range(R - out[0].shape[1]):
        start = [u[:, :, :1].swapaxes(1, 2) for u in _left_singular(rest)]
        term = _als(rest, start, WARMUP_SWEEPS)[0]
        out = [np.concatenate([f, t], axis=1) for f, t in zip(out, term)]
        rest = rest - cp_full(None, term)
    return out


def _rank_stage(d: np.ndarray, R: int, seeds, prev, bases) -> list[CpResult]:
    """Best candidate of each stacked core d (C, I, J, K) at rank R.

    The candidates are the restarts, one per seed of ``seeds``, whose SVD
    starts read the cores' stacked ``_left_singular`` in ``bases``, and, when
    ``prev`` holds the previous rank's stacked winning factors, the ladder
    start.  All of them run at most WARMUP_SWEEPS ALS sweeps together; each
    core's best candidate is its winner, and goes on to at most LM_MAX_ITER
    LM iterations unless it converged there.
    """
    starts = [_init(d, R, r, seed, bases) for r, seed in enumerate(seeds)]
    if prev is not None:
        starts.append(_ladder_start(d, prev, R))
    n_cand = len(starts)
    pairs = [np.empty((len(d), n_cand, R, n)) for n in d.shape[1:]]
    for s, start in enumerate(starts):  # a random start serves every core
        for m, f in enumerate(start):
            pairs[m][:, s] = f
    # pair c * n_cand + s is candidate s of core c
    v, err, sweeps, converged = _als(np.repeat(d, n_cand, axis=0),
                                     [f.reshape(-1, R, f.shape[-1]) for f in pairs], WARMUP_SWEEPS)
    best = np.array([c * n_cand + _best_restart(e) for c, e in enumerate(err.reshape(-1, n_cand))])
    refine = best[~converged[best]]
    if refine.size:
        factors, err[refine], iters, converged[refine] = _lm(
            d[refine // n_cand], [m[refine] for m in v], err[refine], LM_MAX_ITER)
        for m in range(3):
            v[m][refine] = factors[m]
        sweeps[refine] += iters
    errors = [tuple(float(x) for x in e) for e in err.reshape(-1, n_cand)]
    ridged = _ridged([m[best] for m in v]) & (sweeps[best] > 0)
    return [CpResult(v=tuple(m[w] for m in v), rec_error=e[w - c * n_cand], restart_errors=e,
                     flags=("gram-ridge",) if r else (), sweeps=int(sweeps[w]),
                     converged=bool(converged[w]))
            for c, (e, w, r) in enumerate(zip(errors, best, ridged))]


def _cp_stack(cores, ranks, options: CpdOptions | None, closed=None):
    """Euclidean CP of equally shaped cores, all (core, candidate) pairs stacked.

    The iterable ``ranks`` is deduplicated and run as the ascending ladder,
    returned as {rank: each core's ``CpResult``}.  A core whose winner is
    exact (relative error at most EXACT_TOL, so its deviation reads round-off)
    keeps that result at every higher rank of the ladder.  ``closed`` holds,
    per core, None or exact CP factors of it; a core that is not yet exact
    takes them at its first rung at least their rank, if their direct
    residual is at most EXACT_TOL.
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
    bases = _left_singular(d)
    seeds = np.random.SeedSequence(opt.seed).spawn(max(1, opt.n_restarts))
    winners: list[CpResult | None] = [None] * len(d)
    closed = [None] * len(d) if closed is None else list(closed)
    found = {}
    for R in ladder:
        for c, factors in enumerate(closed):
            if factors is not None and R >= len(factors[0]):
                closed[c] = None  # one try per core
                if winners[c] is None or winners[c].rec_error > EXACT_TOL:
                    winners[c] = _structural(d[c], factors) or winners[c]
        todo = [c for c, w in enumerate(winners) if w is None or w.rec_error > EXACT_TOL]
        if todo:
            prev = (None if winners[todo[0]] is None else
                    [np.stack([winners[c].v[m] for c in todo]) for m in range(3)])
            results = _rank_stage(d[todo], R, seeds, prev, [b[todo] for b in bases])
            for c, result in zip(todo, results):
                winners[c] = result
        found[R] = list(winners)
    return found


def _structural(d: np.ndarray, factors) -> CpResult | None:
    """The exact CP form ``factors`` of core d as a result, or None past EXACT_TOL."""
    err = float(_residual(d[None], [f[None] for f in factors], _norms(d[None]))[0])
    if err > EXACT_TOL:
        return None
    return CpResult(v=tuple(factors), rec_error=err, restart_errors=(err,),
                    flags=("structural",), sweeps=0, converged=True)


def _best_restart(errors) -> int:
    """Lowest restart index whose error is within ALS_TOL of the smallest."""
    floor = min(errors) + ALS_TOL
    return next(r for r, e in enumerate(errors) if e <= floor)


def normalize_factors(v, chol):
    """Metric-normalize whitened factor rows and collect canonical coefficients.

    ``v`` holds factor rows v'_r = L^T v_r in the Cholesky coordinates CP ran
    in, with ``chol`` the lower factor L of S^(v) = L L^T per direction, so
    the Euclidean norm of v'_r is the metric norm N_r of the LF-basis row v_r.
    Returns (u, w, lambdas): u_r = L^-T w_r is a row of unit metric norm,
    w_r = v'_r / N_r its whitened form, and lambdas = N^x N^y N^z are
    positive and sorted descending, with the reconstruction unchanged.  Rows
    whose metric norm vanishes are dropped, so the effective rank shrinks;
    ``decompose_cores`` flags that as ``rank-reduced``.
    """
    norms = np.array([np.sqrt(np.square(m).sum(axis=1)) for m in v])
    alive = np.all(norms > 1e-14, axis=0)
    norms = norms[:, alive]
    w = [m[alive] / n[:, None] for m, n in zip(v, norms)]
    u = [np.linalg.solve(L.T, m.T).T for m, L in zip(w, chol)]
    lam = norms.prod(axis=0)
    # factor rows carry the sign convention; flipping a pair of directions
    # leaves every separable term unchanged
    for axis in (0, 1):
        lead = u[axis][np.arange(lam.size), np.argmax(np.abs(u[axis]), axis=1)]
        flip = np.where(lead < 0.0, -1.0, 1.0)[:, None]
        for m in (u[axis], u[2], w[axis], w[2]):
            m *= flip
    order = np.argsort(-lam, kind="stable")
    return tuple(m[order] for m in u), tuple(m[order] for m in w), lam[order]


def _canonical(spec: LorentzianBasisSpec, core: np.ndarray, chol, result: CpResult,
               R: int) -> CanonicalState:
    """Canonical state of ``result``, whose factors, like ``core``, are whitened by ``chol``."""
    u, w, lam = normalize_factors(result.v, chol)
    e = cp_full(lam, w)
    canon_norm2 = float(np.sum(e * e))
    overlap = float(np.sum(e * core))
    # rounding can push 1 - cos^2 just outside [0, 1]
    deviation = float(np.clip(1.0 - overlap * overlap / (float(np.sum(core * core)) * canon_norm2),
                              0.0, 1.0))
    flags = list(result.flags)
    if lam.size < R:
        flags.append("rank-reduced")
    return CanonicalState(
        R=int(lam.size), u=u, lambdas=lam, spec=spec,
        deviation=deviation, canon_norm2=canon_norm2, flags=tuple(flags),
        sweeps=result.sweeps, converged=result.converged)


def decompose_cores(tuckers, ranks, options: CpdOptions | None = None):
    """Canonical forms of Tucker states, all cores and candidates of a rank stacked.

    Returns {rank: one state per Tucker state} for the ascending,
    deduplicated iterable ``ranks``, run as a ladder (see the module
    docstring); a single rank is a one-rung ladder.  CP runs on each core in
    its own metric.  The cores must share a shape, as the MOs of one job do.
    A state's ``structural`` factors of S d become factors of the whitened
    core L^T d = L^-1 S d, and serve as its closed form from their rank up.
    """
    chol = [[np.linalg.cholesky(s) for s in t.spec.overlaps] for t in tuckers]
    cores = [mode_product(t.core, L) for t, L in zip(tuckers, chol)]
    closed = [None if t.structural is None else
              tuple(np.linalg.solve(L, f.T).T for L, f in zip(Ls, t.structural))
              for t, Ls in zip(tuckers, chol)]
    found = _cp_stack(cores, ranks, options, closed)
    return {R: [_canonical(t.spec, core, L, result, R)
                for t, core, L, result in zip(tuckers, cores, chol, results)]
            for R, results in found.items()}


def canonical_statevector(spec: LorentzianBasisSpec, lambdas, u) -> np.ndarray:
    """Canonical-form state on the full grid (k_z fastest), for exports and oracles.

    Term r has direction-v grid table u_r^(v) V^(v) and weight lambda_r.
    """
    phi = [np.asarray(u[v], dtype=np.float64) @ V for v, V in enumerate(spec.state_matrices())]
    return cp_full(np.asarray(lambdas, dtype=np.float64), phi).ravel()
