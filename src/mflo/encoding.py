"""Circuit-cost and post-selection analytics for the LF encodings.

Counts come from closed forms, not from emitted circuits.  The building
blocks: a uniformly controlled rotation over n controls costs 2^(n-1) CNOTs,
a CNOT fanned out over the n_qe grid qubits of one direction costs
2 n_qe - 3, and amplitude-encoding maps over n ancillae cost 2^n - 2.
QFT gates are excluded from every total; ``qft_cx_informational`` gives a
textbook QFT count for context only (it is not part of the reported model).

Success probabilities follow from the linear-combination semantics: a
uniform superposition over B branches, a normalized per-branch state, and an
amplitude-encoding map that leaves weight w_j / |w| on the all-zero flag give

    P = (sum_{jj'} w_j w_j' <psi_j|psi_j'>) / (B |w|^2).

``lcu_postselect_oracle`` evaluates exactly that expression and is the
source of truth the closed forms are tested against.  A leading axis of its
weights repeats its branch states: the canonical form's R n_prod branches
are (R, n_prod) weights over the n_prod LF products, each held once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpd import CanonicalState
from .fitting import TuckerState
from .lorentzian import lf_state
from .tensor import metric_inner

__all__ = [
    "CircuitCostReport",
    "ancilla_counts",
    "rank_ancillae",
    "qft_cx_informational",
    "cnot_count_tucker",
    "cnot_count_canonical",
    "success_prob_tucker",
    "success_prob_canonical",
    "tucker_success_from_core",
    "lcu_postselect_oracle",
    "two_center_analysis",
    "two_center_csv_lines",
    "TWO_CENTER_COLUMNS",
]


@dataclass(frozen=True)
class CircuitCostReport:
    """CNOT counts of one encoding circuit, QFT gates excluded."""

    cx_total: int
    cx_sph: int                    # shifted-profile preparation share
    cx_amp: int                    # amplitude-encoding share


def ancilla_counts(n_l):
    """n_Av = ceil(log2 n_Lv) per direction of layout n_l, and their sum."""
    counts = tuple(int(c) for c in n_l)
    if len(counts) != 3 or any(c < 1 for c in counts):
        raise ValueError(f"need three positive LF counts, got {n_l!r}")
    n_a = tuple((c - 1).bit_length() for c in counts)
    return n_a, sum(n_a)


def rank_ancillae(R: int) -> int:
    """ceil(log2 R) ancillae of the canonical form's rank register."""
    if R < 1:
        raise ValueError(f"rank must be >= 1, got {R}")
    return (int(R) - 1).bit_length()


def qft_cx_informational(n_qe: int) -> int:
    """Textbook QFT CNOTs over three axes, which no total includes."""
    # per axis: n(n-1)/2 controlled phases at 2 CNOTs each, plus 3 CNOTs per final swap
    return 3 * (n_qe * (n_qe - 1) + 3 * (n_qe // 2))


def _sph(n_l, n_qe: int):
    """``ancilla_counts(n_l)`` and the shifted-profile share at n_qe grid qubits per axis."""
    # below one grid qubit per direction the closed forms go negative
    if n_qe < 1:
        raise ValueError(f"n_qe must be >= 1, got {n_qe}")
    n_a, n_al = ancilla_counts(n_l)
    return n_a, n_al, -9 + 3 * n_qe * sum(1 << v for v in n_a)


def cnot_count_tucker(n_l, n_qe: int) -> CircuitCostReport:
    """CNOT counts to prepare the Tucker-form state, QFT excluded.

    With no basis ancillae at all (one LF in every direction) the
    amplitude-encoding stage vanishes and its component is 0, not the raw
    2^0 - 2 of the closed form; all other layouts use the form verbatim.
    """
    _, n_al, cx_sph = _sph(n_l, n_qe)
    cx_amp = max(0, (1 << n_al) - 2)
    return CircuitCostReport(cx_total=cx_sph + cx_amp, cx_sph=cx_sph, cx_amp=cx_amp)


def cnot_count_canonical(n_l, n_qe: int, R: int) -> CircuitCostReport:
    """CNOT counts for the rank-R canonical-form state, QFT excluded."""
    n_a, _, cx_sph = _sph(n_l, n_qe)
    n_ac = rank_ancillae(R)
    cx_amp = max(0, (1 << n_ac) - 2 + sum((1 << n_ac) * ((1 << v) - 1) for v in n_a))
    return CircuitCostReport(cx_total=cx_sph + cx_amp, cx_sph=cx_sph, cx_amp=cx_amp)


def tucker_success_from_core(core) -> float:
    """P = 1 / (n_prod |d|^2) for a core normalized to d.S d = 1."""
    d = np.asarray(core, dtype=np.float64).ravel()
    d2 = float(d @ d)
    if d2 == 0.0:
        raise ValueError("core tensor is zero")
    return 1.0 / (d.size * d2)


def success_prob_tucker(tucker: TuckerState) -> float:
    """All-zero post-selection probability of the Tucker-form encoding.

    P = (d.S d) / (n_prod |d|^2), so a core off the d.S d = 1 normalization
    still gets its probability.
    """
    d = tucker.core
    return metric_inner(d, d, tucker.spec.overlaps) * tucker_success_from_core(d)


def success_prob_canonical(canon: CanonicalState) -> float:
    """All-zero post-selection probability of the canonical-form encoding.

    The per-direction branch preparation rescales each metric-normalized
    factor by its Euclidean norm, so the effective coefficients are
    lambda~_r = lambda_r prod_v |u_r^(v)|_2 and

        P = |phi_canon|^2 / (R n_prod sum_r lambda~_r^2),

    with |phi_canon|^2 the ``canon_norm2`` that ``decompose_cores`` stored.
    """
    lam_t = canon.lambdas.copy()
    for axis in range(3):
        lam_t = lam_t * np.linalg.norm(canon.u[axis], axis=1)
    return canon.canon_norm2 / (canon.R * canon.spec.n_prod * float(np.sum(lam_t * lam_t)))


def lcu_postselect_oracle(weights, states, metric: np.ndarray | None = None) -> float:
    """Linear-algebra simulation of the post-selected branch superposition.

    ``states`` holds one branch state per row: raw statevectors (metric
    None, Euclidean inner product) or coefficient vectors over a basis with
    Gram matrix ``metric``.  The last axis of ``weights`` runs over those
    rows and leading axes repeat them, so B = ``weights.size``.  Each branch
    state is normalized as its preparation would produce it; the returned
    value is the squared norm of the all-zero-flagged component.
    """
    w = np.asarray(weights, dtype=np.float64)
    V = np.asarray(states, dtype=np.float64)
    if V.ndim != 2 or w.shape[-1:] != V.shape[:1]:
        raise ValueError(f"weights {w.shape} do not run over the rows of states {V.shape}")
    w2 = float(w.ravel() @ w.ravel())
    if w2 == 0.0:
        raise ValueError("need at least one nonzero branch weight")
    # P = |sum_j (w_j / n_j) psi_j|^2 / (B |w|^2): no B x B Gram of the branches
    MV = V if metric is None else V @ np.asarray(metric, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", V, MV))
    if np.any(norms <= 0.0):
        raise ValueError("branch state with zero norm cannot be prepared")
    c = (w / norms).reshape(-1, norms.size).sum(axis=0)
    return float((c @ V) @ (c @ MV)) / (w.size * w2)


TWO_CENTER_COLUMNS = ("theta", "probability", "bonding_approx", "antibonding_approx")


def two_center_analysis(n: int, a: float, k_ca: int, k_cb: int, thetas) -> np.ndarray:
    """Mixing-angle sweep for a two-center LF superposition.

    For branch weights (cos theta, sin theta) over LFs centered at k_ca and
    k_cb, P(theta) = 1/2 + sin(2 theta) <L_A|L_B> / 2.  The returned table
    also carries the small-angle expansions around the bonding (+pi/4) and
    antibonding (-pi/4) points, with Delta = 1 - <L_A|L_B>:
    columns (theta, probability, bonding_approx, antibonding_approx).
    """
    overlap = float(lf_state(n, a, k_ca) @ lf_state(n, a, k_cb))
    delta_ab = 1.0 - overlap
    thetas = np.asarray(thetas, dtype=np.float64).ravel()
    prob = 0.5 + 0.5 * np.sin(2.0 * thetas) * overlap
    db = thetas - math.pi / 4.0
    da = thetas + math.pi / 4.0
    bonding = 1.0 - delta_ab / 2.0 - db * db * (1.0 - delta_ab)
    antibonding = delta_ab / 2.0 + da * da * (1.0 - delta_ab)
    return np.column_stack([thetas, prob, bonding, antibonding])


def two_center_csv_lines(table: np.ndarray) -> list[str]:
    lines = [",".join(TWO_CENTER_COLUMNS)]
    for row in np.asarray(table, dtype=np.float64):
        lines.append(",".join(repr(float(x)) for x in row))
    return lines
