"""Fidelity-maximizing fit of a grid MO by a Lorentzian product basis.

The trial state contracts a 3-way core tensor d with per-direction LF states.
For fixed widths and centers the fidelity

    F(d) = |<ideal|trial>|^2 - P,   P = (alpha/n_prod) Tr((S - I)^2),

is maximized under the metric normalization d.S d = 1 by the top eigenpair of
the generalized problem (t t^T) d = kappa S d, where t collects the overlaps
between the ideal state and each 3D LF product basis (the T tensor).  Because
the left side is rank one, the maximal eigenpair is d ~ S^-1 t with
kappa_max = t.S^-1 t, evaluated in the subspace kept by canonical
orthogonalization of S.  Widths are then improved by projected gradient
ascent using the analytic derivative

    dF/da = 2 f g - kappa_max d.(dS/da) d - dP/da,

with f = sum(T d) and g the core-weighted derivative of T.

Everything here works in LF coefficient space; statevector assembly is
provided only for oracles and exports.  T is a CP form over the primitive
pairs (``tensor.cp_full``), and g contracts d with its factor tables
(``tensor.mttkrp``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import MolecularOrbital, SimulationCell, mo_norm_factor, primitive_tables
from .exceptions import ConditioningError
from .lorentzian import AXES, AxisProfiles, LorentzianBasisSpec, _symmetric_gram, boundary_mass
from .tensor import cp_full, mode_product, mttkrp, unfold

__all__ = [
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
# backtracking line search of the width ascent
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40


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
    iterations: int
    grad_norm: float
    converged: bool
    flags: tuple[str, ...]
    restart_fidelities: tuple[float, ...]
    fidelity_history: tuple[float, ...]
    discarded_dim: int


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


class _Engine:
    """Caches the width-independent pieces of one fit problem.

    Primitive pairs (mu, s) are flattened to one axis p with weights
    w_p = c_mu * b_{mu s}; the h-sample tables H_v[p, k]
    (``basis.primitive_tables``) never change during width optimization.
    Neither do the per-direction shift tables (``AxisLayout``: sin^2 and
    parity on the unshifted grid, the gather index of each center) or the
    groups of LFs that share a center, so they are built once here.  Each
    evaluation then runs one vectorized profile build per direction and the
    small per-direction matrices; the gradient reuses that build's raw
    profiles, denominators and norms.  Trial widths are not wrapped in a
    validated ``LorentzianBasisSpec``; ``optimize_widths`` builds one for the
    returned state only.
    """

    def __init__(self, problem: FitProblem):
        cell, spec = problem.cell, problem.spec
        weights, self.h = primitive_tables(problem.mo, cell)
        self.n_l = spec.n_l
        self.splits = np.cumsum(self.n_l)[:2]
        self.layouts = spec.layouts
        # LFs sharing a center differ only by width; equal widths there make
        # the metric singular, so those groups are checked on every evaluation
        self.shared_centers = []
        for v, centers in enumerate(spec.centers):
            _, inverse, counts = np.unique(centers, return_inverse=True, return_counts=True)
            for g in np.nonzero(counts > 1)[0]:
                self.shared_centers.append((v, np.nonzero(inverse == g)[0]))
        self.alpha = problem.alpha_pen
        L = cell.edge_lengths
        self.col_pref = L / math.sqrt(cell.N_qe)
        self.pref = problem.norm_factor / math.sqrt(float(np.prod(L)))
        self.wpref = self.pref * weights

    def _split_widths(self, widths: np.ndarray) -> list[np.ndarray]:
        if widths.size != sum(self.n_l):
            raise ValueError(f"expected {sum(self.n_l)} widths, got {widths.size}")
        if not np.all((widths > 0.0) & (widths < math.inf)):
            raise ValueError("widths must be positive and finite")
        parts = np.split(widths, self.splits)
        for v, group in self.shared_centers:
            if np.unique(parts[v][group]).size != group.size:
                raise ValueError(
                    f"direction {AXES[v]}: duplicate (a, k_c) pair "
                    "makes the overlap matrix singular")
        return parts

    def assemble(self, widths: np.ndarray):
        """Width-dependent pieces: LF profiles and states, 1D metrics, M tables, T."""
        parts = self._split_widths(widths)
        prof = [AxisProfiles(self.layouts[v], parts[v]) for v in range(3)]
        V = [p.states() for p in prof]
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
        d, kappa, degenerate, discarded = _solve_core_factored(T, S1)
        f = float(np.sum(T * d))
        return _Eval(profiles=prof, widths=widths, V=V, S1=S1, tr1=tr1, tr2=tr2,
                     M=M, T=T, core=d, kappa=kappa, pen=pen,
                     fidelity=kappa - pen, f=f, degenerate=degenerate,
                     discarded=discarded)

    def gradient(self, ev: "_Eval") -> np.ndarray:
        d, tr1, tr2 = ev.core, ev.tr1, ev.tr2
        n_prod = d.size
        grad = []
        for v, prof in enumerate(ev.profiles):
            dV = prof.states_da()
            others = [u for u in range(3) if u != v]
            # g[l] = sum over the other axes of d times dT/da_l, where dT/da_l
            # swaps M_v for dM_v in T: the MTTKRP of d with the other two M
            # tables, weighted by dM_v and summed over primitives
            dM = self.col_pref[v] * (self.h[v] @ dV.T)
            g = self.wpref @ (dM * mttkrp(d, ev.M, v))
            # D[i, j]: core contracted with the metric on the other two axes
            ds = mode_product(d, [None if u == v else s for u, s in enumerate(ev.S1)])
            D = unfold(d, v) @ unfold(ds, v).T
            q = dV @ ev.V[v].T
            d_sdd = 2.0 * np.einsum("lj,lj->l", q, D)
            tr_s_ds = 2.0 * np.einsum("lj,lj->l", q, ev.S1[v])
            tr_ds = 2.0 * np.diag(q)
            d_pen = (2.0 * self.alpha / n_prod) * (
                tr_s_ds * tr2[others[0]] * tr2[others[1]]
                - tr_ds * tr1[others[0]] * tr1[others[1]]
            )
            grad.append(2.0 * ev.f * g - ev.kappa * d_sdd - d_pen)
        return np.concatenate(grad)


@dataclass
class _Eval:
    profiles: list
    widths: np.ndarray
    V: list
    S1: list
    tr1: list  # Tr(S_v) per direction
    tr2: list  # Tr(S_v^2) per direction
    M: list
    T: np.ndarray
    core: np.ndarray
    kappa: float
    pen: float
    fidelity: float
    f: float
    degenerate: bool
    discarded: int


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


def _solve_core_factored(T: np.ndarray, S1):
    """Top eigenpair of (t t^T) d = kappa S d using the per-axis eigenbases."""
    eigs = [np.linalg.eigh(s) for s in S1]
    Q = [e[1] for e in eigs]
    lam = cp_full(np.ones(1), [e[0][None, :] for e in eigs])
    lam_max = float(lam.max())
    if not math.isfinite(lam_max) or lam_max <= 0.0:
        raise ConditioningError("overlap metric has no positive eigenvalue",
                                discarded=T.size)
    keep = lam >= EIG_CUTOFF * lam_max
    discarded = int(T.size - np.count_nonzero(keep))
    tt = mode_product(T, Q)
    kappa = float(np.sum(np.where(keep, tt * tt / np.where(keep, lam, 1.0), 0.0)))
    if kappa <= 0.0:
        return _degenerate_core(lam, Q), 0.0, True, discarded
    dt = np.where(keep, tt / np.where(keep, lam, 1.0), 0.0)
    d = mode_product(dt, [q.T for q in Q]) / math.sqrt(kappa)
    if float(np.sum(T * d)) < 0.0:
        d = -d
    return d, kappa, False, discarded


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
        raise ConditioningError("overlap metric has no positive eigenvalue",
                                discarded=n_prod)
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


def fidelity_gradient(problem: FitProblem, d, kappa_max: float) -> np.ndarray:
    """Analytic dF/da at the problem's current widths, flat (x, y, z) order.

    ``d`` must be the solve_core optimum for those widths (the stationarity
    of d is what reduces the total derivative to this expression).
    """
    engine = _Engine(problem)
    ev = engine.evaluate(problem.spec.widths_flat())
    core = np.asarray(d, dtype=np.float64)
    if core.shape != ev.T.shape:
        raise ValueError(f"core shape {core.shape} does not match spec {ev.T.shape}")
    ev.core = core
    ev.kappa = float(kappa_max)
    ev.f = float(np.sum(ev.T * core))
    return engine.gradient(ev)


@dataclass(frozen=True)
class OptimizeOptions:
    max_iter: int = 2000
    grad_tol: float = 1e-7
    f_tol: float = 1e-12
    restarts: int = 1
    restart_jitter: float = 0.25
    seed: int = 0


def _ascend(engine: _Engine, a0: np.ndarray, opt: OptimizeOptions):
    lo, hi = WIDTH_BOUNDS
    a = np.clip(a0, lo, hi)
    ev = engine.evaluate(a)
    history = [ev.fidelity]
    flags: list[str] = []
    if ev.degenerate:
        return ev, 0, float("nan"), True, ["degenerate"], history
    iterations = 0
    grad_norm = float("inf")
    converged = False
    step = 1.0
    for iterations in range(1, opt.max_iter + 1):
        g = engine.gradient(ev)
        grad_norm = float(np.max(np.abs(np.clip(a + g, lo, hi) - a)))
        if grad_norm < opt.grad_tol:
            converged = True
            break
        step = min(1.0, 2.0 * step)
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            a_new = np.clip(a + step * g, lo, hi)
            move = a_new - a
            if not np.any(move):
                break
            trial = engine.evaluate(a_new)
            if trial.fidelity >= ev.fidelity + ARMIJO_C * float(g @ move):
                accepted = (a_new, trial)
                break
            step *= BACKTRACK_FACTOR
        if accepted is None:
            flags.append("line-search-stalled")
            break
        a, new_ev = accepted
        improvement = new_ev.fidelity - ev.fidelity
        ev = new_ev
        history.append(ev.fidelity)
        if improvement < opt.f_tol:
            converged = True
            break
    else:
        flags.append("max-iter")
    if not converged:
        flags.append("unconverged")
    return ev, iterations, grad_norm, converged, flags, history


def optimize_widths(problem: FitProblem, options: OptimizeOptions | None = None) -> TuckerState:
    """Projected gradient ascent on the widths; centers stay fixed.

    The ascent starts from the problem spec's widths.  Restarts beyond the
    first jitter them multiplicatively (seeded); the best final fidelity
    wins.  A fit that stops by hitting max_iter or a stalled line search is
    returned flagged "unconverged" with the best iterate seen.
    """
    opt = options or OptimizeOptions()
    engine = _Engine(problem)
    a0 = problem.spec.widths_flat()
    rng = np.random.default_rng(opt.seed)
    best = None
    restart_fids = []
    for r in range(max(1, opt.restarts)):
        start = a0 if r == 0 else a0 * np.exp(opt.restart_jitter * rng.standard_normal(a0.size))
        result = _ascend(engine, start, opt)
        restart_fids.append(result[0].fidelity)
        if best is None or result[0].fidelity > best[0].fidelity:
            best = result
    ev, iterations, grad_norm, converged, flags, history = best

    spec = problem.spec.with_widths(ev.widths)
    for v in range(3):
        mass = boundary_mass(spec, v)
        for l in np.nonzero(mass > 1e-3)[0]:
            flags = list(flags) + [f"boundary-{AXES[v]}{l}"]
    diag = OptimizeDiagnostics(
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        flags=tuple(flags),
        restart_fidelities=tuple(restart_fids),
        fidelity_history=tuple(history),
        discarded_dim=ev.discarded,
    )
    return TuckerState(
        spec=spec,
        core=ev.core,
        fidelity=ev.fidelity,
        squared_overlap=ev.f * ev.f,
        penalty=ev.pen,
        kappa_max=ev.kappa,
        diagnostics=diag,
    )


def tucker_statevector(spec: LorentzianBasisSpec, core: np.ndarray) -> np.ndarray:
    """Assemble the trial state on the full grid (k_z fastest), for exports and oracles."""
    V = [spec.state_matrix(v) for v in range(3)]
    return mode_product(np.asarray(core, dtype=np.float64), V).ravel()


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
