"""Contractions of 3-way tensors, one implementation each.

A CP form holds one term per factor row:
cp_full(w, (A, B, C))[a, b, c] = sum_r w_r A[r, a] B[r, b] C[r, c].
Unfoldings keep the other axes in C order.  The dense oracles
(``overlap_3d``, ``solve_core``, ``lcu_postselect_oracle``) do not use these.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unfold", "mode_product", "cp_full", "mttkrp", "metric_inner"]

_MTTKRP = ("abc,rb,rc->ra", "abc,ra,rc->rb", "abc,ra,rb->rc")
_OTHERS = ((1, 2), (0, 2), (0, 1))


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding, shape (t.shape[mode], product of the others)."""
    return np.moveaxis(t, mode, 0).reshape(t.shape[mode], -1)


def mode_product(t: np.ndarray, mats) -> np.ndarray:
    """out[A, B, C] = sum t[a, b, c] m0[a, A] m1[b, B] m2[c, C]; ``None`` skips an axis.

    Each step contracts the leading axis and appends the new one, so after
    three steps the axis order is back.
    """
    for m in mats:
        lead, *rest = t.shape
        flat = t.reshape(lead, -1).T
        t = (flat if m is None else flat @ m).reshape(*rest, -1)
    return t


def cp_full(weights: np.ndarray, factors) -> np.ndarray:
    """Full tensor of a CP form: the first two factors' Khatri-Rao product times the third."""
    a, b, c = factors
    kr = ((a.T * weights)[:, None, :] * b.T).reshape(-1, weights.size)
    return (kr @ c).reshape(a.shape[1], b.shape[1], c.shape[1])


def mttkrp(t: np.ndarray, factors, mode: int) -> np.ndarray:
    """t times the Khatri-Rao product of the other two factors, shape (R, t.shape[mode])."""
    i, j = _OTHERS[mode]
    return np.einsum(_MTTKRP[mode], t, factors[i], factors[j])


def metric_inner(a: np.ndarray, b: np.ndarray, overlaps) -> float:
    """a . (S_x (x) S_y (x) S_z) b for symmetric per-axis ``overlaps``."""
    return float(np.sum(a * mode_product(b, overlaps)))
