"""Fidelity-maximizing fit of a grid MO by a Lorentzian product basis.

The trial state contracts a 3-way core tensor d with per-direction LF states.
For fixed widths and centers the fidelity

    F(d) = |<ideal|trial>|^2 - P,   P = (alpha/n_prod) Tr((S - I)^2),

is maximized under the metric normalization d.S d = 1 by the top eigenpair of
the generalized problem (t t^T) d = kappa S d, where t collects the overlaps
between the ideal state and each 3D LF product basis (the T tensor).  Because
the left side is rank one, the maximal eigenpair is d ~ S^-1 t with
kappa_max = t.S^-1 t, evaluated in the subspace kept by canonical
orthogonalization of S.  Widths are then improved by a projected BFGS ascent
(Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1190 (1995)) on
WIDTH_BOUNDS, using the analytic derivative

    dF/da = 2 f g - kappa_max d.(dS/da) d - dP/da,

with f = sum(T d) and g the core-weighted derivative of T.  Widths on an
active bound are held; the rest follow the quasi-Newton direction along the
projected path clip(a + t p), with a backtracking (Armijo) line search.  A
guard rejects trial points that discard a metric dimension or whose core
needs |d|^2 > COEF_CAP (with d.S d = 1): growing widths can raise the
fidelity by ever larger cancelling coefficients, until d.S d = 1 no longer
holds to round-off (it is evaluated to about 1e-15 |d|^2).  Once the guard has
rejected a point, its linearization constrains the direction and a
second-order correction pulls trial points back onto it, so the ascent
converges along the guard instead of stalling on it.

The ascent stops with ``grad_tol`` (projected gradient max|clip(a + g) - a|
below it), ``f_tol`` (the last step gains less than F_TOL, or the model
predicts less for the next; or the line search fails to find a gain that
the model puts below the round-off of F), ``max_iter`` (MAX_ITER steps) or
``stalled`` (no acceptable step, even from a fresh model); the last two flag
the fit ``unconverged``.  A point with T = 0 (in practice, the start) stops it
as ``degenerate``.

Everything here works in LF coefficient space; statevector assembly is
provided only for oracles and exports.  T is a CP form over the primitive
pairs (``tensor.cp_full``); g contracts d with its factor tables
(``tensor.mttkrp``) in the one derivative pass per point, which the guard's
margin gradient shares.  The same form gives the fitted core in closed CP
form: with no metric dimension discarded, S d = t / sqrt(kappa) is a sum of
one separable term per primitive, and primitives that share their sample
tables on two axes merge into one term (``_Engine.structural_factors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import MolecularOrbital, SimulationCell, mo_norm_factor, primitive_tables
from .lorentzian import AXES, AxisProfiles, LorentzianBasisSpec, _symmetric_gram, boundary_mass
from .tensor import _OTHERS, cp_full, mode_product, mttkrp, unfold

__all__ = [
    "ConditioningError",
    "FitProblem",
    "TuckerState",
    "OptimizeOptions",
    "OptimizeDiagnostics",
    "t_tensor",
    "overlap_3d",
    "penalty",
    "solve_core",
    "fidelity_gradient",
    "optimize_widths",
    "box_centers",
    "tucker_statevector",
]

EIG_CUTOFF = 1e-10  # relative eigenvalue cutoff of canonical orthogonalization
WIDTH_BOUNDS = (1e-3, 50.0)
#: the width ascent keeps |d|^2 (with d.S d = 1) at most this, or no higher
#: than at its start: d.S d is evaluated to about 1e-15 |d|^2, and
#: P_tucker = 1 / (n_prod |d|^2)
COEF_CAP = 1e4
MAX_ITER = 2000  # accepted steps per restart
F_TOL = 1e-12  # an ascent stops once a step gains, or its model predicts, less
RESTART_JITTER = 0.25  # log-normal spread of the widths a restart starts from
_EPS = float(np.finfo(np.float64).eps)


class ConditioningError(RuntimeError):
    """Raised when the basis overlap metric is singular beyond regularization."""


@dataclass(frozen=True, eq=False)
class FitProblem:
    """One MO, one cell, one LF basis layout, one penalty strength."""

    mo: MolecularOrbital
    cell: SimulationCell
    spec: LorentzianBasisSpec
    alpha_pen: float
    norm_factor: float

    def __post_init__(self):
        if self.alpha_pen < 0.0 or not math.isfinite(self.alpha_pen):
            raise ValueError(f"penalty strength must be >= 0, got {self.alpha_pen}")
        if self.spec.n != self.cell.n_qe:
            raise ValueError(
                f"spec is on a 2^{self.spec.n} grid but the cell uses n_qe={self.cell.n_qe}")

    @classmethod
    def build(
        cls,
        mo: MolecularOrbital,
        cell: SimulationCell,
        spec: LorentzianBasisSpec,
        alpha_pen: float = 0.0,
    ) -> "FitProblem":
        """Problem with the MO's grid norm constant.

        ``norm_factor`` comes from the separable primitive-pair sum
        (``basis.mo_norm_factor``), so no N^3 grid is built and the grid
        size guard does not apply.
        """
        return cls(mo=mo, cell=cell, spec=spec, alpha_pen=float(alpha_pen),
                   norm_factor=mo_norm_factor(mo, cell))

    def with_spec(self, spec: LorentzianBasisSpec) -> "FitProblem":
        return FitProblem(mo=self.mo, cell=self.cell, spec=spec,
                          alpha_pen=self.alpha_pen, norm_factor=self.norm_factor)


@dataclass(frozen=True)
class OptimizeDiagnostics:
    iterations: int           # accepted steps of the winning restart
    grad_norm: float
    converged: bool           # stop_reason is grad_tol or f_tol (or the start is degenerate)
    stop_reason: str          # grad_tol, f_tol, max_iter, stalled or degenerate
    evaluations: int          # fidelity evaluations of the winning restart
    flags: tuple[str, ...]
    restart_fidelities: tuple[float, ...]
    fidelity_history: tuple[float, ...]
    discarded_dim: int
    boundary_mass: dict[str, tuple[float, ...]]  # per axis, of each LF; see lorentzian.boundary_mass


@dataclass(frozen=True, eq=False)
class TuckerState:
    """Optimized Tucker-form fit: core tensor d over the LF product basis."""

    spec: LorentzianBasisSpec
    core: np.ndarray          # d, shape (n_Lx, n_Ly, n_Lz), d.S d = 1
    fidelity: float           # F = squared_overlap - penalty
    squared_overlap: float    # |<ideal|trial>|^2
    penalty: float            # P at the optimized widths
    kappa_max: float          # top generalized eigenvalue, = F + P
    diagnostics: OptimizeDiagnostics | None = field(default=None, compare=False)
    # CP factors (F_x, F_y, F_z) with cp_full(None, F) = S d, one term per
    # merged primitive group (see _Engine.structural_factors); None when the
    # closed form does not hold.  A report stores them as structural_factors
    structural: tuple | None = field(default=None, compare=False)


class _Engine:
    """Caches the width-independent pieces of one fit problem.

    Primitive pairs (mu, s) are flattened to one axis p with weights
    w_p = c_mu * b_{mu s}; the h-sample tables H_v[p, k]
    (``basis.primitive_tables``) never change during width optimization.
    Neither do the shift tables (``AxisLayout``: sin^2 and parity on the
    unshifted grid, the gather index of each center).  The three directions
    share one grid, so one layout covers the centers of all of them, x then
    y then z, read from the spec with each direction's ``rows``.  Each evaluation then runs one
    vectorized profile build for the whole basis, whose row slices are the
    directions' states, and the small per-direction matrices; the derivative
    tables come from one derivative build per point, which reuses that
    build's raw profiles, denominators and norms.  Trial widths are not
    wrapped in a validated ``LorentzianBasisSpec``; ``optimize_widths``
    builds one for the returned state only.  Two LFs on one center whose
    trial widths meet make the metric singular; the evaluation discards that
    dimension, and the line search rejects it.

    The primitives are also grouped here, by their sample rows, for
    ``structural_factors``: primitives whose rows agree on the two axes
    other than m give one CP term, whose mode-m factor sums their weighted
    M_m rows.  The merge axis gives the fewest terms over the three choices
    of m, the lowest m among ties; that count, the structural rank R*, needs
    no widths, and a report records it beside the factors.
    """

    def __init__(self, problem: FitProblem):
        cell, spec = problem.cell, problem.spec
        weights, self.h = primitive_tables(problem.mo, cell)
        self.layout, self.rows = spec.layout, spec.rows
        self.alpha = problem.alpha_pen
        L = cell.edge_lengths
        self.col_pref = L / math.sqrt(cell.N_qe)
        self.pref = problem.norm_factor / math.sqrt(float(np.prod(L)))
        self.wpref = self.pref * weights
        self.merge_axis, self.groups, self.leads = _merge_primitives(self.h)

    def assemble(self, widths: np.ndarray):
        """Width-dependent pieces: LF profiles and states, 1D metrics, M tables, T."""
        if not np.all((widths > 0.0) & (widths < math.inf)):
            raise ValueError("widths must be positive and finite")
        prof = AxisProfiles(self.layout, widths)
        states = prof.states()
        V = [states[rows] for rows in self.rows]
        S1 = [_symmetric_gram(states) for states in V]
        # M_v[p, l]: primitive p's samples against LF l of direction v, so
        # T = sum_p pref w_p M_x[p] (x) M_y[p] (x) M_z[p]
        M = [self.col_pref[v] * (self.h[v] @ V[v].T) for v in range(3)]
        return prof, V, S1, M, cp_full(self.wpref, M)

    def evaluate(self, widths: np.ndarray) -> "_Eval":
        widths = np.array(widths, dtype=np.float64).ravel()
        prof, V, S1, M, T = self.assemble(widths)
        tr1, tr2 = _traces(S1)
        pen = _penalty(tr1, tr2, self.alpha, T.size)
        eigs = [np.linalg.eigh(s) for s in S1]
        d, kappa, lam, keep = _solve_core_factored(T, eigs)
        f = float(np.sum(T * d))
        norm2 = float(np.sum(d * d))
        return _Eval(profiles=prof, widths=widths, V=V, S1=S1, Q=[q for _, q in eigs], lam=lam,
                     keep=keep, tr1=tr1, tr2=tr2, M=M, core=d, kappa=kappa, pen=pen,
                     fidelity=kappa - pen, f=f, discarded=int(T.size - np.count_nonzero(keep)),
                     margin=-math.log(norm2), resolution=_EPS * float(lam.max()) * kappa * norm2)

    def _derivatives(self, ev: "_Eval") -> list:
        """Width-derivative tables at ``ev``, built once and kept on it.

        Per direction v: dM_v, q = dV_v V_v^T (row l plus its transpose is
        dS_v/da_l), the S-contracted core unfolded along v, g and d.(dS/da_l) d.
        """
        if ev.derivs is None:
            d, tables = ev.core, []
            states_da = ev.profiles.states_da()
            for v, rows in enumerate(self.rows):
                dV = states_da[rows]
                # g[l] = sum over the other axes of d times dT/da_l, where dT/da_l
                # swaps M_v for dM_v in T: the MTTKRP of d with the other two M
                # tables, weighted by dM_v and summed over primitives
                dM = self.col_pref[v] * (self.h[v] @ dV.T)
                d_v = unfold(d, v)
                g = self.wpref @ (dM * mttkrp(d_v, ev.M, v))
                ds = unfold(mode_product(d, [*ev.S1[:v], None, *ev.S1[v + 1:]]), v)
                q = dV @ ev.V[v].T
                d_sdd = 2.0 * np.einsum("lj,lj->l", q, d_v @ ds.T)
                tables.append((dM, q, ds, g, d_sdd))
            ev.derivs = tables
        return ev.derivs

    def structural_factors(self, ev: "_Eval"):
        """CP factors (F_x, F_y, F_z) of S d at ``ev``, one term per primitive group.

        With no metric dimension discarded, d = S^-1 t / sqrt(kappa), so
        S d = T / sqrt(kappa) = sum_p pref w_p M_x[p] (x) M_y[p] (x) M_z[p] /
        sqrt(kappa).  A group's primitives share their M rows off the merge
        axis m, so the group is one term: those shared rows, and on m the sum
        of its primitives' rows times pref w_p / sqrt(kappa).  Returns None
        when a dimension was discarded or kappa = 0: then no closed form holds.
        """
        if ev.discarded or ev.kappa == 0.0:
            return None
        m = self.merge_axis
        factors = [M[self.leads] for M in ev.M]
        factors[m] = np.zeros_like(factors[m])
        np.add.at(factors[m], self.groups, (self.wpref / math.sqrt(ev.kappa))[:, None] * ev.M[m])
        return tuple(factors)

    def gradient(self, ev: "_Eval") -> np.ndarray:
        grad = []
        for v, (_, q, _, g, d_sdd) in enumerate(self._derivatives(ev)):
            a, b = (u for u in range(3) if u != v)
            tr_s_ds = 2.0 * np.einsum("lj,lj->l", q, ev.S1[v])
            tr_ds = 2.0 * np.diag(q)
            d_pen = (2.0 * self.alpha / ev.core.size) * (
                tr_s_ds * ev.tr2[a] * ev.tr2[b] - tr_ds * ev.tr1[a] * ev.tr1[b])
            grad.append(2.0 * ev.f * g - ev.kappa * d_sdd - d_pen)
        return np.concatenate(grad)

    def margin_gradient(self, ev: "_Eval") -> np.ndarray:
        """Width gradient of the coefficient margin -log|d|^2 at the optimal core.

        With d = S^+ t / sqrt(kappa), f = T.d and e = S^+ d (both on the kept
        subspace), d log|d|^2 / da_l = 2 (e.dT_l / f - e.dS_l d) / |d|^2
        - 2 d.dT_l / f + d.dS_l d, where dT_l and dS_l are the width
        derivatives of T and S.  The d terms are the gradient's own tables.
        """
        d, Q, lam, keep = ev.core, ev.Q, ev.lam, ev.keep
        e = mode_product(np.where(keep, mode_product(d, Q) / np.where(keep, lam, 1.0), 0.0),
                         [q.T for q in Q])
        norm2 = float(np.sum(d * d))
        out = []
        for v, (dM, q, ds, t_d, s_dd) in enumerate(self._derivatives(ev)):
            e_v = unfold(e, v)
            d_ed = e_v @ ds.T
            t_e = self.wpref @ (dM * mttkrp(e_v, ev.M, v))
            s_ed = np.einsum("lj,lj->l", q, d_ed + d_ed.T)
            out.append(2.0 * (t_e / ev.f - s_ed) / norm2 - 2.0 * t_d / ev.f + s_dd)
        return -np.concatenate(out)


@dataclass
class _Eval:
    profiles: AxisProfiles  # of the whole basis, directions stacked as in _Engine.rows
    widths: np.ndarray
    V: list
    S1: list
    Q: list  # eigenvectors of each S_v
    lam: np.ndarray  # eigenvalues of S = S_x (x) S_y (x) S_z, as a 3-way tensor
    keep: np.ndarray  # the eigenvalues kept by canonical orthogonalization
    tr1: list  # Tr(S_v) per direction
    tr2: list  # Tr(S_v^2) per direction
    M: list
    core: np.ndarray
    kappa: float
    pen: float
    fidelity: float
    f: float
    discarded: int
    margin: float  # -log |d|^2, see _Engine.margin_gradient
    # round-off of the fidelity: the metric eigenvalues carry errors of
    # eps lam_max, and kappa = sum tt^2 / lam amplifies them by |d|^2
    resolution: float
    derivs: list | None = field(default=None, init=False)  # see _Engine._derivatives


def _merge_primitives(h):
    """Primitive groups of ``_Engine.structural_factors`` from the sample tables ``h``.

    Returns the merge axis m, each primitive's group and the first primitive
    of each group.  Rows are compared bit for bit.
    """
    rows = [[t[p].tobytes() for t in h] for p in range(len(h[0]))]
    merges = []
    for a, b in _OTHERS:
        first = {}  # (row on a, row on b) -> its group's first primitive
        for p, row in enumerate(rows):
            first.setdefault((row[a], row[b]), p)
        group = {key: g for g, key in enumerate(first)}
        merges.append((np.array(list(first.values())),
                       np.array([group[row[a], row[b]] for row in rows])))
    m = min(range(3), key=lambda m: merges[m][0].size)
    leads, groups = merges[m]
    return m, groups, leads


def _traces(S1) -> tuple[list[float], list[float]]:
    """Tr(S_v) and Tr(S_v^2) of each direction's metric."""
    return [float(np.trace(s)) for s in S1], [float(np.sum(s * s)) for s in S1]


def _penalty(tr1, tr2, alpha: float, n_prod: int) -> float:
    # Tr((S - I)^2) = prod Tr(Sv^2) - 2 prod Tr(Sv) + n_prod for S = kron(Sx, Sy, Sz)
    return (alpha / n_prod) * (math.prod(tr2) - 2.0 * math.prod(tr1) + n_prod)


def _degenerate_core(lam: np.ndarray, Q: list) -> np.ndarray:
    # T = 0: fidelity is flat in d, return the dominant metric eigenvector
    idx = np.unravel_index(int(np.argmax(lam)), lam.shape)
    d = cp_full(np.ones(1), [q[:, [i]].T for q, i in zip(Q, idx)])
    d = d / math.sqrt(float(lam[idx]))
    flat = d.ravel()
    lead = flat[np.argmax(np.abs(flat))]
    return d if lead >= 0 else -d


def _solve_core_factored(T: np.ndarray, eigs):
    """Top eigenpair of (t t^T) d = kappa S d from the per-axis eigenpairs ``eigh(S_v)``.

    Returns d, kappa (0 for T = 0), and the spectrum of S with its kept entries.
    """
    Q = [e[1] for e in eigs]
    lam = cp_full(np.ones(1), [e[0][None, :] for e in eigs])
    lam_max = float(lam.max())
    if not math.isfinite(lam_max) or lam_max <= 0.0:
        raise ConditioningError("overlap metric has no positive eigenvalue")
    keep = lam >= EIG_CUTOFF * lam_max
    tt = mode_product(T, Q)
    kappa = float(np.sum(np.where(keep, tt * tt / np.where(keep, lam, 1.0), 0.0)))
    if kappa <= 0.0:
        return _degenerate_core(lam, Q), 0.0, lam, keep
    dt = np.where(keep, tt / np.where(keep, lam, 1.0), 0.0)
    d = mode_product(dt, [q.T for q in Q]) / math.sqrt(kappa)
    if float(np.sum(T * d)) < 0.0:
        d = -d
    return d, kappa, lam, keep


def t_tensor(problem: FitProblem) -> np.ndarray:
    """Overlaps between the ideal state and each 3D LF product basis, (n_Lx, n_Ly, n_Lz)."""
    engine = _Engine(problem)
    *_, T = engine.assemble(problem.spec.widths_flat())
    return T


def overlap_3d(spec: LorentzianBasisSpec) -> np.ndarray:
    """Full product-basis overlap matrix S, (n_prod x n_prod), C-order vec."""
    sx, sy, sz = spec.overlaps
    s = np.kron(np.kron(sx, sy), sz)
    return 0.5 * (s + s.T)


def penalty(spec: LorentzianBasisSpec, alpha_pen: float) -> float:
    """Orthonormality penalty (alpha/n_prod) Tr((S - I)^2)."""
    if alpha_pen < 0.0:
        raise ValueError(f"penalty strength must be >= 0, got {alpha_pen}")
    return _penalty(*_traces(spec.overlaps), alpha_pen, spec.n_prod)


def solve_core(T, S: np.ndarray, alpha_pen: float = 0.0):
    """Optimal core tensor for fixed widths, from the dense metric matrix.

    Returns (d, kappa_max, F) with d.S d = 1, sign fixed so sum(T d) >= 0,
    and F = kappa_max - P.  Eigenpairs of S below EIG_CUTOFF relative to the
    largest are discarded (canonical orthogonalization).
    """
    values = np.asarray(T, dtype=np.float64)
    t = values.ravel()
    n_prod = t.size
    S = np.asarray(S, dtype=np.float64)
    if S.shape != (n_prod, n_prod):
        raise ValueError(f"metric shape {S.shape} does not match n_prod={n_prod}")
    if not np.all(np.isfinite(S)):
        raise ValueError("metric entries must be finite")
    w, Q = np.linalg.eigh(0.5 * (S + S.T))
    if w[-1] <= 0.0:
        raise ConditioningError("overlap metric has no positive eigenvalue")
    keep = w >= EIG_CUTOFF * w[-1]
    pen = (alpha_pen / n_prod) * (float(np.sum(S * S)) - 2.0 * float(np.trace(S)) + n_prod)
    tt = Q[:, keep].T @ t
    kappa = float(np.sum(tt * tt / w[keep]))
    if kappa <= 0.0:
        v = Q[:, -1] / math.sqrt(w[-1])
        lead = v[np.argmax(np.abs(v))]
        d = v if lead >= 0 else -v
        return d.reshape(values.shape), 0.0, -pen
    d = (Q[:, keep] @ (tt / w[keep])) / math.sqrt(kappa)
    if float(t @ d) < 0.0:
        d = -d
    return d.reshape(values.shape), kappa, kappa - pen


def fidelity_gradient(problem: FitProblem) -> np.ndarray:
    """Analytic dF/da at the problem's current widths, flat (x, y, z) order.

    The derivative is taken at the optimal core for those widths, whose
    stationarity reduces the total derivative to this expression.
    """
    engine = _Engine(problem)
    return engine.gradient(engine.evaluate(problem.spec.widths_flat()))


@dataclass(frozen=True)
class OptimizeOptions:
    grad_tol: float = 1e-7
    restarts: int = 1
    seed: int = 0


def _direction(engine: _Engine, ev: _Eval, g: np.ndarray, H, floor: float | None):
    """Quasi-Newton ascent direction at ``ev`` with widths on an active bound held.

    ``H`` is the inverse Hessian model of -F (None: the identity).  With a
    ``floor``, the direction also obeys the guard's linearization: a step may
    close at most half the gap between the coefficient margin -log|d|^2 and
    its floor.
    Returns the direction and, with a floor, the guard's (normal, H normal).
    """
    lo, hi = WIDTH_BOUNDS
    a = ev.widths
    free = ~(((a <= lo) & (g < 0.0)) | ((a >= hi) & (g > 0.0)))
    Hf = np.eye(np.count_nonzero(free)) if H is None else H[np.ix_(free, free)]
    p = np.zeros_like(a)
    p[free] = Hf @ g[free]
    if floor is None:
        return p, None
    n = np.where(free, engine.margin_gradient(ev), 0.0)
    Hn = np.zeros_like(a)
    Hn[free] = Hf @ n[free]
    slack = float(n @ p) - 0.5 * (floor - ev.margin)
    if slack < 0.0:
        p -= (slack / float(n @ Hn)) * Hn
    return p, (n, Hn)


def _line_search(engine: _Engine, ev: _Eval, g: np.ndarray, p: np.ndarray, step: float,
                 floor: float, normal):
    """Backtracking (Armijo) search on the projected path clip(a + t p).

    The guard rejects a trial point that discards a metric dimension or
    whose coefficient margin falls below ``floor``.  Given the guard's
    linearization ``normal``, a point below the floor first gets up to three
    second-order corrections along H n toward the margin the linearization
    predicted.  Returns the accepted evaluation (or None), the
    evaluations made and whether the guard rejected a point.
    """
    lo, hi = WIDTH_BOUNDS
    a = ev.widths
    evaluations, hit = 0, False
    for _ in range(40):
        widths = np.clip(a + step * p, lo, hi)
        if float(g @ (widths - a)) <= 0.0:
            break
        trial = engine.evaluate(widths)
        evaluations += 1
        for _ in range(3 if normal is not None else 0):
            if trial.discarded != ev.discarded or trial.margin >= floor:
                break
            n, Hn = normal
            short = ev.margin + step * float(n @ p) - trial.margin
            widths = np.clip(widths + (short / float(n @ Hn)) * Hn, lo, hi)
            if float(g @ (widths - a)) <= 0.0:
                break
            trial = engine.evaluate(widths)
            evaluations += 1
        if trial.discarded > ev.discarded or trial.margin < floor:
            hit = True
        elif trial.fidelity >= ev.fidelity + 1e-4 * float(g @ (trial.widths - a)):
            return trial, evaluations, hit
        step *= 0.5
    return None, evaluations, hit


def _ascend(engine: _Engine, a0: np.ndarray, grad_tol: float):
    """Projected BFGS ascent from a0; see ``optimize_widths``.

    Returns (final evaluation, accepted steps, grad_norm, stop_reason,
    evaluations, fidelity history).
    """
    lo, hi = WIDTH_BOUNDS
    ev = engine.evaluate(np.clip(a0, lo, hi))
    evaluations = 1
    history = [ev.fidelity]
    floor = min(ev.margin, -math.log(COEF_CAP))
    g = engine.gradient(ev)
    H = None                    # inverse Hessian model of -F; None is the identity
    guarded = False             # the guard has rejected a trial point
    improvement = math.inf
    while True:
        a = ev.widths
        grad_norm = float(np.max(np.abs(np.clip(a + g, lo, hi) - a)))
        stop = ("degenerate" if ev.kappa == 0.0 else  # T = 0: the MO misses every LF product
                "grad_tol" if grad_norm < grad_tol else
                "f_tol" if improvement < F_TOL else
                "max_iter" if len(history) > MAX_ITER else None)
        while not stop:
            p, normal = _direction(engine, ev, g, H, floor if guarded else None)
            gain = 0.5 * float(g @ (np.clip(a + p, lo, hi) - a))  # the model's prediction
            if H is not None and gain < F_TOL:
                stop = "f_tol"
                break
            # the identity model has no length scale: cap its first move
            scale = float(np.max(np.abs(p)))
            step = min(1.0, 0.1 / scale) if H is None and scale > 0.0 else 1.0
            trial, n_evals, hit = _line_search(engine, ev, g, p, step, floor, normal)
            evaluations += n_evals
            if trial is not None:
                break
            if gain < ev.resolution:
                stop = "f_tol"  # the gain sought is below the round-off of F
            elif hit and not guarded:
                guarded = True
            elif H is not None:
                H = None
            else:
                stop = "stalled"
        if stop:
            return ev, len(history) - 1, grad_norm, stop, evaluations, history
        guarded |= hit
        g_new = engine.gradient(trial)
        s, y = trial.widths - a, g - g_new
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            # BFGS update of the inverse Hessian; the first pair also sets its scale
            H = np.eye(a.size) * (sy / float(y @ y)) if H is None else H
            rho = 1.0 / sy
            Hy = H @ y
            H = H + ((rho * rho * float(y @ Hy) + rho) * np.outer(s, s)
                     - rho * (np.outer(Hy, s) + np.outer(s, Hy)))
        improvement = trial.fidelity - ev.fidelity
        ev, g = trial, g_new
        history.append(ev.fidelity)


def optimize_widths(problem: FitProblem, options: OptimizeOptions | None = None) -> TuckerState:
    """Projected BFGS ascent on the widths; centers stay fixed.

    The ascent starts from the problem spec's widths.  Restarts beyond the
    first jitter them multiplicatively by RESTART_JITTER (seeded); the best
    final fidelity wins.  A fit that stops at max_iter or with a stalled line
    search is returned flagged "unconverged" with its last (and best) iterate.
    """
    opt = options or OptimizeOptions()
    engine = _Engine(problem)
    a0 = problem.spec.widths_flat()
    rng = np.random.default_rng(opt.seed)
    best = None
    restart_fids = []
    for r in range(max(1, opt.restarts)):
        start = a0 if r == 0 else a0 * np.exp(RESTART_JITTER * rng.standard_normal(a0.size))
        result = _ascend(engine, start, opt.grad_tol)
        restart_fids.append(result[0].fidelity)
        if best is None or result[0].fidelity > best[0].fidelity:
            best = result
    ev, iterations, grad_norm, stop_reason, evaluations, history = best

    flags = []
    if stop_reason == "degenerate":
        flags.append("degenerate")
    converged = stop_reason not in ("max_iter", "stalled")
    if not converged:
        flags.append("unconverged")
    spec = problem.spec.with_widths(ev.widths)
    diag = OptimizeDiagnostics(
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        stop_reason=stop_reason,
        evaluations=evaluations,
        flags=tuple(flags),
        restart_fidelities=tuple(restart_fids),
        fidelity_history=tuple(history),
        discarded_dim=ev.discarded,
        boundary_mass={ax: tuple(m.tolist()) for ax, m in zip(AXES, boundary_mass(spec))},
    )
    return TuckerState(
        spec=spec,
        core=ev.core,
        fidelity=ev.fidelity,
        squared_overlap=ev.f * ev.f,
        penalty=ev.pen,
        kappa_max=ev.kappa,
        diagnostics=diag,
        structural=engine.structural_factors(ev),
    )


def tucker_statevector(spec: LorentzianBasisSpec, core: np.ndarray) -> np.ndarray:
    """Assemble the trial state on the full grid (k_z fastest), for exports and oracles."""
    return mode_product(np.asarray(core, dtype=np.float64), spec.state_matrices()).ravel()


def box_centers(cell: SimulationCell, box_min, box_edges, counts):
    """Regular center layout: n points per axis at box_min + (i + 1/2) L/n.

    Positions are rounded to the nearest grid index; an index collision or
    an index outside the cell raises, since duplicate centers would make the
    metric singular.
    """
    box_min = np.asarray(box_min, dtype=np.float64).ravel()
    box_edges = np.asarray(box_edges, dtype=np.float64).ravel()
    if box_min.size != 3 or box_edges.size != 3 or np.any(box_edges <= 0.0):
        raise ValueError("box_min and box_edges must be 3-vectors with positive edges")
    out = []
    for v in range(3):
        n_pts = int(counts[v])
        if n_pts < 1:
            raise ValueError(f"direction {AXES[v]}: need at least one center")
        pos = box_min[v] + (np.arange(n_pts) + 0.5) * (box_edges[v] / n_pts)
        idx = np.rint((pos - cell.origin[v]) / cell.dx[v]).astype(np.int64)
        if np.any(idx < 0) or np.any(idx >= cell.N_qe):
            raise ValueError(f"direction {AXES[v]}: box centers fall outside the cell grid")
        if len(set(idx.tolist())) != n_pts:
            raise ValueError(
                f"direction {AXES[v]}: center rounding collided on the grid; "
                "use fewer centers or a finer grid")
        out.append(idx)
    return tuple(out)
