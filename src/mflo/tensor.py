"""Contractions of 3-way tensors, one implementation each.

A CP form holds one term per factor row:
cp_full(w, (A, B, C))[a, b, c] = sum_r w_r A[r, a] B[r, b] C[r, c].
Unfoldings keep the other axes in C order.

``unfold``, ``khatri_rao``, ``cp_full`` and ``mttkrp`` act on the last three
axes of a tensor (the last two of a factor matrix, the last one of a weight
vector), so a leading batch axis runs one contraction per stack element: a
stack of B cores (B, I, J, K) with factors (B, R, n_v) gives B MTTKRPs in one
batched matmul.  Each element of a stack gets the same arithmetic whatever
else the stack holds, so a result does not depend on what it was stacked
with.  ``mode_product`` and ``metric_inner`` take a single tensor.
``metric_inner`` serves the fit's identity checks and the Tucker success
probability; CP never calls it, since ``cpd`` whitens each core with the
Cholesky factors of the metric once and takes plain sums there.  The dense
oracles (``overlap_3d``, ``solve_core``, ``lcu_postselect_oracle``) do
not use these.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unfold", "mode_product", "khatri_rao", "cp_full", "mttkrp", "metric_inner"]

_OTHERS = ((1, 2), (0, 2), (0, 1))


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding, shape (..., t.shape[mode], product of the others)."""
    if mode == 1:
        t = t.swapaxes(-3, -2)
    elif mode == 2:
        t = t.swapaxes(-2, -1).swapaxes(-3, -2)
    return t.reshape(*t.shape[:-2], t.shape[-2] * t.shape[-1])  # also for an empty stack


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


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column r is kron(a[r], b[r]), first factor slowest: shape (..., I * J, R)."""
    kr = a.swapaxes(-1, -2)[..., :, None, :] * b.swapaxes(-1, -2)[..., None, :, :]
    return kr.reshape(*kr.shape[:-3], -1, kr.shape[-1])


def cp_full(weights, factors, kr=None) -> np.ndarray:
    """Full tensor of a CP form: the first two factors' Khatri-Rao product times the third.

    ``weights`` None means unit weights; ``kr``, if given, is that product, already built.
    """
    a, b, c = factors
    if kr is None:
        kr = khatri_rao(a if weights is None else a * weights[..., :, None], b)
    full = kr @ c
    return full.reshape(*full.shape[:-2], a.shape[-1], b.shape[-1], c.shape[-1])


def mttkrp(unfolded: np.ndarray, factors, mode: int, kr=None) -> np.ndarray:
    """A tensor times the Khatri-Rao product of the other two factors, shape (..., R, n_mode).

    ``unfolded`` is the tensor's mode-``mode`` unfolding, ``unfold(t, mode)``,
    so a caller that needs it again, or keeps it across iterations, builds it
    once.  One (batched) matmul of the unfolding with the Khatri-Rao product,
    or with ``kr`` if the caller has already built it.
    """
    i, j = _OTHERS[mode]
    return (unfolded @ (khatri_rao(factors[i], factors[j]) if kr is None else kr)).swapaxes(-1, -2)


def metric_inner(a: np.ndarray, b: np.ndarray, overlaps) -> float:
    """a . (S_x (x) S_y (x) S_z) b for symmetric per-axis ``overlaps``."""
    return float(np.sum(a * mode_product(b, overlaps)))
