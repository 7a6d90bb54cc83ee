"""Discrete Lorentzian functions on a 2^n-point cyclic grid.

A discrete Lorentzian function (LF) of width ``a > 0`` on ``N = 2^n`` grid
points has the profile

    L_k = C_S/sqrt(N) * (1 - e^{-2a}) * (1 - (-1)^k e^{-aN/2})
          / (1 - 2 e^{-a} cos(2 pi k / N) + e^{-2a}),

with ``C_S`` fixed numerically by the unit 2-norm condition.  All entries are
positive, and the profile is symmetric under k -> N - k.  Small ``a`` gives a
near-delta profile at k = 0; large ``a`` flattens it toward 1/sqrt(N).

Basis functions used for fitting are cyclic shifts of this profile to integer
centers k_c.  The shift wraps mod N, consistent with generating the state by
a QFT acting on a periodic register.

Every LF, single, a direction of a basis or a whole basis, is built the same
way: ``AxisProfiles`` evaluates the formula for all its widths at once on the
unshifted grid, and the shift to each center is an index gather through the
precomputed tables of an ``AxisLayout`` (sin^2(pi j / N), the parity of j,
and the flat index of (k - k_c) mod N).  Those tables depend only on n and
the centers, and the three directions share one grid, so a basis
(``LorentzianBasisSpec``) has one layout over all its centers.

Notes
-----
The numerically delicate factors are evaluated with ``expm1`` and
``sin^2(pi k / N)`` forms so that widths down to the optimizer bound 1e-3
(and far below) stay accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AxisLayout",
    "AxisProfiles",
    "LorentzianBasisSpec",
    "lf_profile",
    "lf_state",
    "lf_profile_da",
    "boundary_mass",
]

AXES = ("x", "y", "z")
BOUNDARY_MARGIN = 3  # grid points at each edge that ``boundary_mass`` sums over


def _axis_index(axis) -> int:
    if axis in (0, 1, 2):
        return int(axis)
    if axis in AXES:
        return AXES.index(axis)
    raise ValueError(f"axis must be one of 0,1,2 or 'x','y','z', got {axis!r}")


def _check_width(a: float) -> float:
    a = float(a)
    if not math.isfinite(a) or a <= 0.0:
        raise ValueError(f"LF width must be a positive finite real, got {a}")
    return a


class AxisLayout:
    """Width-independent shift tables of a set of LFs on a 2^n grid.

    The profile depends on the grid index only through sin^2(pi j / N) and
    the parity of j, with j = (k - k_c) mod N.  Both are tabulated once on
    the unshifted grid j = 0..N-1, and ``gather`` maps row l, entry k of the
    shifted states to flat index l*N + (k - k_c[l]) mod N of the unshifted
    profiles, so a shift is one index gather.
    """

    def __init__(self, n: int, centers):
        N = 1 << n
        j = np.arange(N)
        centers = np.asarray(centers, dtype=np.int64).ravel()
        self.N = N
        self.s2 = np.sin(np.pi * j / N) ** 2
        self.even = j % 2 == 0
        self.gather = np.arange(centers.size)[:, None] * N + (j - centers[:, None]) % N


class AxisProfiles:
    """All normalized shifted LFs of one layout at fixed widths.

    One pass of the raw formula over the unshifted grid builds every profile
    of the layout.  The raw values, denominators and norms are kept, so
    the width derivatives reuse them instead of evaluating the formula again.
    Inputs are not validated here; callers pass positive finite widths.
    """

    def __init__(self, layout: AxisLayout, widths):
        a = np.asarray(widths, dtype=np.float64).reshape(-1, 1)
        half_n = 0.5 * layout.N
        self.layout = layout
        self._em = np.exp(-a)
        self._em1 = np.expm1(-a)
        self._amp = -np.expm1(-2.0 * a)  # 1 - e^{-2a}
        self._edge = np.exp(-half_n * a)  # e^{-aN/2}
        # 1 - (-1)^k e^{-aN/2}, kept accurate when a*N/2 is tiny
        self._alt = np.where(layout.even, -np.expm1(-half_n * a), 1.0 + self._edge)
        self._den = self._em1 ** 2 + (4.0 * self._em) * layout.s2
        self.raw = self._amp * self._alt / self._den
        self.norm = np.sqrt((self.raw * self.raw).sum(axis=1, keepdims=True))

    def profiles(self) -> np.ndarray:
        """Unit-norm profiles centered at k = 0, shape (n_L, N)."""
        return self.raw / self.norm

    def states(self) -> np.ndarray:
        """Rows are the shifted LF statevectors, shape (n_L, N)."""
        return np.take(self.profiles(), self.layout.gather)

    def profiles_da(self) -> np.ndarray:
        """Width derivatives of the unit-norm profiles centered at k = 0.

        Includes the chain-rule term through the norm constant: with l the
        raw profile, d(l/|l|)/da = l'/|l| - l (l.l')/|l|^3, which keeps the
        derivative orthogonal to the profile (unit norm is preserved along a).
        """
        half_n = 0.5 * self.layout.N
        em, den, raw = self._em, self._den, self.raw
        d_amp = 2.0 * em * em
        d_alt = np.where(self.layout.even, half_n * self._edge, -half_n * self._edge)
        d_den = -2.0 * em * (self._em1 + 2.0 * self.layout.s2)
        d_raw = (d_amp * self._alt + self._amp * d_alt) / den - raw * d_den / den
        proj = (raw * d_raw).sum(axis=1, keepdims=True)
        return d_raw / self.norm - raw * (proj / self.norm ** 3)

    def states_da(self) -> np.ndarray:
        """Rows are the width derivatives of the shifted states (shift commutes with d/da)."""
        return np.take(self.profiles_da(), self.layout.gather)


def _single(n: int, a: float, k_c: int = 0) -> AxisProfiles:
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    return AxisProfiles(AxisLayout(n, [_check_center(n, k_c)]), [_check_width(a)])


def lf_profile(n: int, a: float) -> tuple[np.ndarray, float]:
    """Normalized LF profile centered at k = 0 and its norm constant C_S.

    Returns a length-2^n vector with unit 2-norm and the constant C_S such
    that the vector equals C_S/sqrt(N) times the raw formula.
    """
    lf = _single(n, a)
    return lf.profiles()[0], math.sqrt(1 << n) / float(lf.norm[0, 0])


def lf_profile_da(n: int, a: float) -> np.ndarray:
    """Analytic width derivative of the normalized profile."""
    return _single(n, a).profiles_da()[0]


def _check_center(n: int, k_c: int) -> int:
    N = 1 << n
    if int(k_c) != k_c or not (0 <= int(k_c) < N):
        raise ValueError(f"center must be an integer in [0, {N}), got {k_c}")
    return int(k_c)


def lf_state(n: int, a: float, k_c: int) -> np.ndarray:
    """Shifted LF statevector: entry k equals the profile at (k - k_c) mod N."""
    return _single(n, a, k_c).states()[0]


def _symmetric_gram(states: np.ndarray) -> np.ndarray:
    """Overlap matrix of the rows of ``states``, symmetrized against rounding."""
    s = states @ states.T
    return 0.5 * (s + s.T)


@dataclass(frozen=True, eq=False)
class LorentzianBasisSpec:
    """Per-direction LF widths and integer centers on a shared 2^n grid.

    ``widths[v]`` and ``centers[v]`` hold the n_Lv basis parameters for
    direction v in (x, y, z).  Duplicate (a, k_c) pairs within a direction
    are rejected because they make the overlap metric exactly singular.
    One ``layout`` covers the centers of all three directions, x then y then
    z, so every LF build of the basis is one pass, sliced by ``rows``.
    """

    n: int
    widths: tuple[np.ndarray, np.ndarray, np.ndarray]
    centers: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        N = 1 << self.n
        widths = []
        centers = []
        for axis in range(3):
            a = np.array(self.widths[axis], dtype=np.float64).ravel().copy()
            k = np.array(self.centers[axis], dtype=np.int64).ravel().copy()
            if a.size == 0 or k.size == 0:
                raise ValueError(f"direction {AXES[axis]}: need at least one LF")
            if a.size != k.size:
                raise ValueError(
                    f"direction {AXES[axis]}: {a.size} widths vs {k.size} centers")
            if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
                raise ValueError(f"direction {AXES[axis]}: widths must be positive")
            raw_k = np.asarray(self.centers[axis]).ravel()
            if not np.array_equal(raw_k, k) or np.any(k < 0) or np.any(k >= N):
                raise ValueError(
                    f"direction {AXES[axis]}: centers must be integers in [0, {N})")
            pairs = {(float(ai), int(ki)) for ai, ki in zip(a, k)}
            if len(pairs) != a.size:
                raise ValueError(
                    f"direction {AXES[axis]}: duplicate (a, k_c) pair "
                    "makes the overlap matrix singular")
            a.setflags(write=False)
            k.setflags(write=False)
            widths.append(a)
            centers.append(k)
        object.__setattr__(self, "widths", tuple(widths))
        object.__setattr__(self, "centers", tuple(centers))

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def n_l(self) -> tuple[int, int, int]:
        return tuple(w.size for w in self.widths)

    @property
    def n_prod(self) -> int:
        nx, ny, nz = self.n_l
        return nx * ny * nz

    @property
    def rows(self) -> tuple[slice, slice, slice]:
        """Each direction's rows of ``layout``, and its entries of a flat width vector."""
        nx, ny, nz = self.n_l
        return slice(0, nx), slice(nx, nx + ny), slice(nx + ny, nx + ny + nz)

    @cached_property
    def layout(self) -> AxisLayout:
        """Shift tables of every LF of the basis, x then y then z, built on first use."""
        return AxisLayout(self.n, np.concatenate(self.centers))

    @cached_property
    def overlaps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three 1D overlap matrices S^(v), built on first use.

        The penalty, the dense ``overlap_3d``, the CP normalization and
        deviation and both success probabilities read these; the width
        optimizer builds its per-trial matrices with the same helper.  They
        are read-only, and the spec and its arrays are frozen, so the cache
        cannot go stale.
        """
        out = tuple(_symmetric_gram(V) for V in self.state_matrices())
        for s in out:
            s.setflags(write=False)
        return out

    def state_matrices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each direction's shifted LF statevectors, shape (n_Lv, N): ``rows`` of one build."""
        states = AxisProfiles(self.layout, self.widths_flat()).states()
        return tuple(states[rows] for rows in self.rows)

    def with_widths(self, widths_flat: np.ndarray) -> "LorentzianBasisSpec":
        """New spec with widths replaced from a flat (x then y then z) vector."""
        w = np.asarray(widths_flat, dtype=np.float64).ravel()
        if w.size != self.rows[2].stop:
            raise ValueError(f"expected {self.rows[2].stop} widths, got {w.size}")
        return LorentzianBasisSpec(n=self.n, widths=tuple(w[rows] for rows in self.rows),
                                   centers=self.centers)

    def widths_flat(self) -> np.ndarray:
        return np.concatenate(self.widths)


def boundary_mass(spec: LorentzianBasisSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared amplitude of each LF within BOUNDARY_MARGIN points of the grid edge, per direction.

    Large values mean the (periodically wrapped) basis function leaks across
    the cell boundary, which a hard-walled physical cell would not support.
    """
    edge = np.r_[0:BOUNDARY_MARGIN, spec.N - BOUNDARY_MARGIN:spec.N]
    return tuple(np.sum(V[:, edge] ** 2, axis=1) for V in spec.state_matrices())
