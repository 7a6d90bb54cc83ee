"""Canonical (CP) decomposition of the fitted core tensor.

The Tucker-form core d is approximated by a rank-R sum of separable terms,
d ~ sum_r v_r^x (x) v_r^y (x) v_r^z, via alternating least squares: each mode
update solves the exact linear least-squares problem through the Khatri-Rao
Gram identity (Hadamard product of the other two factor Grams), with the
MTTKRP as right-hand side.  Factors are then rescaled in the LF overlap
metric, N_r^(v) = sqrt(v_r . S^(v) v_r), so each row u_r = v_r / N_r
describes a normalized single-direction state and lambda_r = N_r^x N_r^y
N_r^z collects the canonical coefficients.

The per-direction S^(v) are the spec's cached ``overlaps``; normalization,
the overlap with the Tucker state and the deviation all read them, the last
two through ``tensor.metric_inner``.  ``decompose_core`` stores the canonical
squared norm so that the success probability needs no second contraction.  The canonical-form state is the
resulting sum itself and is deliberately not renormalized; its squared norm
enters the post-selection success probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fitting import TuckerState
from .lorentzian import LorentzianBasisSpec
from .tensor import cp_full, metric_inner, mttkrp, unfold

__all__ = [
    "CanonicalState",
    "CpdOptions",
    "CpResult",
    "cp_decompose",
    "normalize_factors",
    "decompose_core",
    "canonical_statevector",
]

RIDGE_SCALE = 1e-12
ALS_TOL = 1e-12  # stop when the relative fit change drops below this


@dataclass(frozen=True)
class CpdOptions:
    n_restarts: int = 8
    max_sweeps: int = 500
    seed: int = 0            # single seed governs every restart


@dataclass(frozen=True, eq=False)
class CpResult:
    """Raw ALS output: factors v[(x, y, z)][r, l] plus run diagnostics."""

    v: tuple[np.ndarray, np.ndarray, np.ndarray]
    rec_error: float                 # ||d - reconstruction||_F / ||d||_F
    restart_errors: tuple[float, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class CanonicalState:
    """Rank-R canonical form of a Tucker core over the same LF basis."""

    R: int
    u: tuple[np.ndarray, np.ndarray, np.ndarray]
    lambdas: np.ndarray          # descending, all positive
    spec: LorentzianBasisSpec
    deviation: float             # 1 - overlap^2 / (|phi_T|^2 |phi_C|^2)
    canon_norm2: float           # |phi_canon|^2, the state is not renormalized
    flags: tuple[str, ...] = field(default=())


def _exact_init(d: np.ndarray) -> list[np.ndarray]:
    """Exact R = n_prod decomposition: one separable term per core entry."""
    I, J, K = d.shape
    R = d.size
    A = np.zeros((R, I))
    B = np.zeros((R, J))
    C = np.zeros((R, K))
    r = 0
    for i in range(I):
        for j in range(J):
            for k in range(K):
                A[r, i] = d[i, j, k]
                B[r, j] = 1.0
                C[r, k] = 1.0
                r += 1
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


def _solve_mode(gram: np.ndarray, rhs: np.ndarray, flags: set[str]) -> np.ndarray:
    evals = np.linalg.eigvalsh(gram)
    if evals[0] <= RIDGE_SCALE * max(float(np.trace(gram)), 1e-300):
        gram = gram + RIDGE_SCALE * float(np.trace(gram)) * np.eye(gram.shape[0])
        flags.add("gram-ridge")
    return np.linalg.solve(gram, rhs)


def _als_run(d: np.ndarray, factors: list[np.ndarray], max_sweeps: int):
    norm_d = float(np.linalg.norm(d))
    ones = np.ones(factors[0].shape[0])
    flags: set[str] = set()
    err = float(np.linalg.norm(d - cp_full(ones, factors))) / norm_d
    if err <= ALS_TOL:
        # the init already solves the problem (e.g. the entrywise exact
        # R = n_prod start); sweeping would only add ridge noise
        return factors, err, flags
    err_prev = err
    for _ in range(max_sweeps):
        for mode in range(3):
            others = [u for u in range(3) if u != mode]
            gram = (factors[others[0]] @ factors[others[0]].T) * (
                factors[others[1]] @ factors[others[1]].T)
            factors[mode] = _solve_mode(gram, mttkrp(d, factors, mode), flags)
        err = float(np.linalg.norm(d - cp_full(ones, factors))) / norm_d
        if abs(err_prev - err) < ALS_TOL:
            break
        err_prev = err
    return factors, err, flags


def cp_decompose(d, R: int, options: CpdOptions | None = None) -> CpResult:
    """Best-of-restarts ALS decomposition of a 3-way core tensor.

    Restart 0 starts from the per-mode SVD basis (or, when R equals the full
    n_prod, from the entrywise exact decomposition, which ALS then keeps);
    the remaining restarts start from seeded Gaussian factors.
    """
    opt = options or CpdOptions()
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 3:
        raise ValueError(f"core tensor must be 3-way, got shape {d.shape}")
    if not (1 <= R <= d.size):
        raise ValueError(f"rank must be in [1, {d.size}], got {R}")
    if float(np.linalg.norm(d)) == 0.0:
        raise ValueError("cannot decompose an all-zero core tensor")

    n_runs = max(1, opt.n_restarts)
    seeds = np.random.SeedSequence(opt.seed).spawn(n_runs)
    runs = []
    for r in range(n_runs):
        rng = np.random.default_rng(seeds[r])
        if r == 0:
            init = _exact_init(d) if R == d.size else _svd_init(d, R, rng)
        else:
            init = [rng.standard_normal((R, dim)) for dim in d.shape]
        runs.append(_als_run(d, init, opt.max_sweeps))

    errors = tuple(run[1] for run in runs)
    best = min(range(n_runs), key=lambda r: (errors[r], r))
    factors, err, flags = runs[best]
    return CpResult(v=tuple(factors), rec_error=err,
                    restart_errors=errors, flags=tuple(sorted(flags)))


def normalize_factors(v, spec: LorentzianBasisSpec):
    """Metric-normalize factor rows and collect canonical coefficients.

    Returns (u, lambdas) with u_r . S^(v) u_r = 1 per direction in the
    spec's ``overlaps``, lambdas positive and sorted descending, and the
    reconstruction unchanged.  Rows whose metric norm vanishes are dropped,
    so the effective rank shrinks; ``decompose_core`` flags that as
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
    for r in range(lam.size):
        for axis in (0, 1):
            row = u[axis][r]
            if row[int(np.argmax(np.abs(row)))] < 0.0:
                u[axis][r] = -row
                u[2][r] = -u[2][r]
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


def decompose_core(tucker: TuckerState, R: int, options: CpdOptions | None = None) -> CanonicalState:
    """cp_decompose + normalize_factors + deviation, bundled."""
    result = cp_decompose(tucker.core, R, options)
    u, lam = normalize_factors(result.v, tucker.spec)
    canon_norm2, deviation = _overlap_terms(tucker.spec.overlaps, tucker.core, lam, u)
    flags = list(result.flags)
    if lam.size < R:
        flags.append("rank-reduced")
    return CanonicalState(
        R=int(lam.size), u=u, lambdas=lam, spec=tucker.spec,
        deviation=deviation, canon_norm2=canon_norm2, flags=tuple(flags))


def canonical_statevector(spec: LorentzianBasisSpec, lambdas, u) -> np.ndarray:
    """Canonical-form state on the full grid (k_z fastest), for exports and oracles.

    Term r has direction-v grid table u_r^(v) V^(v) and weight lambda_r.
    """
    phi = [np.asarray(u[v], dtype=np.float64) @ spec.state_matrix(v) for v in range(3)]
    return cp_full(np.asarray(lambdas, dtype=np.float64), phi).ravel()
