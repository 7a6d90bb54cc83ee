"""Canonical (CP) decomposition of the fitted core tensor.

The Tucker-form core d is approximated by a rank-R sum of separable terms,
d ~ sum_r v_r^x (x) v_r^y (x) v_r^z, via alternating least squares (Kolda &
Bader, SIAM Review 51, 455 (2009)): each mode update solves the exact linear
least-squares problem through the Khatri-Rao Gram identity (Hadamard product
of the other two factor Grams), with the MTTKRP as right-hand side.

ALS runs in the metric the report uses.  With the Cholesky factorization
S_v = L_v L_v^T of each direction's LF overlap, ``decompose_cores`` hands
ALS the core d' = (L_x^T (x) L_y^T (x) L_z^T) d, whose Euclidean norm is the
metric norm of d, and maps the factors back with v = L_v^-T v'.  So ALS
minimizes ||d - e||_S, and at a converged rank its squared relative residual
is the reported deviation.  ``decompose_cores`` is the only entry point.

There is one ALS loop, and it runs stacked factors of shape (B, R, n_v).  B
counts (core, restart) pairs: every restart of every core of a report (the
MOs of a job share one core shape) sweeps in the same stack, with one batched
Gram product, MTTKRP and solve per mode and sweep.  Each pair keeps its own
stopping test, a change of its relative error below ALS_TOL, through the set
of live pairs; a finished pair leaves the stack.  So a pair does the same
arithmetic as it would alone, and a core's result does not depend on what it
was stacked with.  Every mode update solves with the Gram plus
RIDGE_SCALE tr(Gram) on its diagonal, a ridge at round-off scale.  A result
is flagged ``gram-ridge`` when it swept and one of its final mode Grams has
its smallest eigenvalue at most that ridge, so the ridge shaped the solve.
The relative error after each sweep is the direct residual ||d - e|| / ||d||.
Restarts whose final errors agree within ALS_TOL are tied, and the lowest
restart index among them wins, so round-off does not pick the winner.

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
from .tensor import cp_full, metric_inner, mode_product, mttkrp, unfold

__all__ = [
    "CanonicalState",
    "CpdOptions",
    "normalize_factors",
    "decompose_cores",
    "canonical_statevector",
]

RIDGE_SCALE = 1e-14  # ridge of every mode solve, relative to the Gram's trace
ALS_TOL = 1e-12  # stop when the relative fit change drops below this


@dataclass(frozen=True)
class CpdOptions:
    n_restarts: int = 8
    max_sweeps: int = 500
    seed: int = 0            # single seed governs every restart


@dataclass(frozen=True, eq=False)
class CpResult:
    """Raw ALS output: factors v[(x, y, z)][r, l] in the coordinates ALS ran in, and diagnostics."""

    v: tuple[np.ndarray, np.ndarray, np.ndarray]
    rec_error: float                 # ||d - reconstruction|| / ||d||, in the norm ALS ran in
    restart_errors: tuple[float, ...]
    flags: tuple[str, ...]
    sweeps: int                      # ALS sweeps of the winning restart
    converged: bool                  # it met ALS_TOL (or was exact at init), not max_sweeps


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
    sweeps: int                  # of the winning ALS restart, see CpResult
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


def _svd_init(d: np.ndarray, R: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Leading singular vectors of each unfolding, padded randomly past the rank."""
    out = []
    for mode in range(3):
        u_mat, _, _ = np.linalg.svd(unfold(d, mode), full_matrices=False)
        take = min(R, u_mat.shape[1])
        fac = np.empty((R, d.shape[mode]))
        fac[:take] = u_mat[:, :take].T
        if take < R:
            fac[take:] = rng.standard_normal((R - take, d.shape[mode]))
        out.append(fac)
    return out


def _init(d: np.ndarray, R: int, restart: int, seed: np.random.SeedSequence) -> list[np.ndarray]:
    """Restart 0 starts from the SVD basis (the exact form at R = n_prod), the rest at random."""
    rng = np.random.default_rng(seed)
    if restart == 0:
        return _exact_init(d) if R == d.size else _svd_init(d, R, rng)
    return [rng.standard_normal((R, dim)) for dim in d.shape]


def _residual(d: np.ndarray, factors, norm_d: np.ndarray) -> np.ndarray:
    """Direct relative residual ||d - e|| / ||d|| of each stacked CP form."""
    diff = d - cp_full(np.ones(factors[0].shape[:-1]), factors)
    return np.sqrt(np.square(diff).sum(axis=(1, 2, 3))) / norm_d


def _als(d: np.ndarray, factors, max_sweeps: int):
    """ALS on stacked cores d (B, I, J, K) from stacked factors (B, R, n_v).

    Each pair sweeps until its relative error changes by less than ALS_TOL or
    ``max_sweeps`` is reached; a pair whose start is already exact does not
    sweep, since sweeping would only add ridge noise.  Finished pairs leave
    the stack, so the others do the same arithmetic as they would alone.
    Returns the final factors, relative errors, sweep counts, converged
    flags and ridge flags (see the module docstring), one entry per pair.
    """
    norm_d = np.array([np.linalg.norm(x) for x in d])
    out = [np.array(f, dtype=np.float64) for f in factors]
    err = _residual(d, out, norm_d)
    sweeps = np.zeros(len(d), dtype=int)
    converged = err <= ALS_TOL
    eye = np.eye(out[0].shape[1])
    live = np.flatnonzero(~converged)
    F = [f[live] for f in out]
    dl, nl, prev = d[live], norm_d[live], err[live]
    grams = [f @ f.swapaxes(1, 2) for f in F]
    sweep = 0
    while live.size and sweep < max_sweeps:
        sweep += 1
        for mode, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
            gram = grams[i] * grams[j]
            ridge = RIDGE_SCALE * gram.diagonal(0, 1, 2).sum(axis=1)
            F[mode] = np.linalg.solve(gram + ridge[:, None, None] * eye, mttkrp(dl, F, mode))
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
            grams = [g[keep] for g in grams]
    sweeps[live] = sweep
    err[live] = prev
    for m in range(3):
        out[m][live] = F[m]
    grams = [f @ f.swapaxes(1, 2) for f in out]
    ridged = np.zeros(len(d), dtype=bool)
    for i, j in ((1, 2), (0, 2), (0, 1)):
        gram = grams[i] * grams[j]
        trace = gram.diagonal(0, 1, 2).sum(axis=1)
        ridged |= np.linalg.eigvalsh(gram)[:, 0] <= RIDGE_SCALE * trace
    return out, err, sweeps, converged, ridged & (sweeps > 0)


def _cp_stack(cores, R: int, options: CpdOptions | None) -> list[CpResult]:
    """Best-of-restarts Euclidean ALS of equally shaped cores, all (core, restart) pairs stacked."""
    opt = options or CpdOptions()
    d = [np.asarray(core, dtype=np.float64) for core in cores]
    if not d:
        return []
    shape = d[0].shape
    if len(shape) != 3:
        raise ValueError(f"core tensor must be 3-way, got shape {shape}")
    if any(core.shape != shape for core in d):
        raise ValueError(f"cores decomposed together must share one shape, got "
                         f"{sorted({core.shape for core in d})}")
    if not (1 <= R <= d[0].size):
        raise ValueError(f"rank must be in [1, {d[0].size}], got {R}")
    if any(float(np.linalg.norm(core)) == 0.0 for core in d):
        raise ValueError("cannot decompose an all-zero core tensor")

    n_runs = max(1, opt.n_restarts)
    seeds = np.random.SeedSequence(opt.seed).spawn(n_runs)
    inits = [_init(core, R, r, seeds[r]) for core in d for r in range(n_runs)]
    v, err, sweeps, converged, ridged = _als(
        np.repeat(np.stack(d), n_runs, axis=0),
        [np.stack([init[m] for init in inits]) for m in range(3)], opt.max_sweeps)
    results = []
    for first in range(0, len(inits), n_runs):
        errors = tuple(float(e) for e in err[first:first + n_runs])
        best = first + _best_restart(errors)
        results.append(CpResult(
            v=tuple(m[best] for m in v), rec_error=errors[best - first],
            restart_errors=errors, flags=("gram-ridge",) if ridged[best] else (),
            sweeps=int(sweeps[best]), converged=bool(converged[best])))
    return results


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


def decompose_cores(tuckers, R: int, options: CpdOptions | None = None) -> list[CanonicalState]:
    """Rank-R canonical form of each Tucker state, all cores and restarts in one ALS.

    ALS runs on each core in its own metric (see the module docstring).  The
    cores must share a shape, as the MOs of one job do.
    """
    chol = [[np.linalg.cholesky(s) for s in t.spec.overlaps] for t in tuckers]
    results = _cp_stack([mode_product(t.core, L) for t, L in zip(tuckers, chol)], R, options)
    states = []
    for t, L, result in zip(tuckers, chol, results):
        v = tuple(np.linalg.solve(l.T, f.T).T for l, f in zip(L, result.v))
        states.append(_canonical(t, v, result, R))
    return states


def canonical_statevector(spec: LorentzianBasisSpec, lambdas, u) -> np.ndarray:
    """Canonical-form state on the full grid (k_z fastest), for exports and oracles.

    Term r has direction-v grid table u_r^(v) V^(v) and weight lambda_r.
    """
    phi = [np.asarray(u[v], dtype=np.float64) @ spec.state_matrix(v) for v in range(3)]
    return cp_full(np.asarray(lambdas, dtype=np.float64), phi).ravel()
