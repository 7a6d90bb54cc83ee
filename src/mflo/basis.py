"""Contracted Cartesian Gaussian orbitals sampled on a qubit grid.

An atomic orbital here is chi(r) = sum_s b_s exp(-gamma_s |r - tau|^2) times
the Cartesian monomial (x - tau_x)^mx (y - tau_y)^my (z - tau_z)^mz; it is
separable across the three axes through h(xi; gamma, m) = xi^m exp(-gamma xi^2).
A molecular orbital is a linear combination of such AOs with known
coefficients.  The ideal target state places sqrt(dV)-weighted samples of the
MO on the 2^n_qe cubic grid points r_orig + k dx (no half-cell offset) and
normalizes, recording the dimensionless constant that absorbs discretization
and truncation error.

Every primitive p = (mu, s) is a product of three one-axis sample vectors
h_v[p] with weight w_p = c_mu b_{mu s}, so that constant is separable:

    sum_grid phi^2 = sum_pq w_p w_q prod_v (h_v[p] . h_v[q]),

a P x P sum over primitive pairs that never forms the N^3 grid
(``mo_norm_factor``).  Only ``build_ideal_state`` materializes the grid, as
the CP form ``tensor.cp_full`` of the weights and sample tables.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lorentzian import _axis_index
from .tensor import cp_full

__all__ = [
    "ResourceLimitError",
    "DegenerateInputError",
    "ContractedGaussianAO",
    "MolecularOrbital",
    "SimulationCell",
    "ao_self_overlap",
    "renormalized",
    "sample_ao_1d",
    "primitive_tables",
    "mo_norm_factor",
    "require_grid",
    "build_ideal_state",
]

#: default memory guard: 2^(3*8) = 16.8M float64 amplitudes per grid
DEFAULT_MAX_QUBITS = 8


class ResourceLimitError(RuntimeError):
    """Raised when a requested grid would exceed the configured memory guard."""


class DegenerateInputError(ValueError):
    """Raised when an input is structurally unusable (zero orbital, empty basis)."""


def _double_factorial(n: int) -> int:
    # (-1)!! = 1 by convention
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _gauss_moment(two_m: int, p):
    """Integral of xi^(2m) exp(-p xi^2) over the real line; p may be an array."""
    m = two_m // 2
    return _double_factorial(2 * m - 1) / (2.0 * p) ** m * np.sqrt(np.pi / p)


@dataclass(frozen=True, eq=False)
class ContractedGaussianAO:
    """One contracted Cartesian Gaussian basis function."""

    exponents: np.ndarray       # gamma_s > 0, units length^-2
    coefficients: np.ndarray    # b_s, contraction coefficients
    powers: tuple[int, int, int]  # Cartesian powers (m_x, m_y, m_z)
    center: np.ndarray          # tau, atomic units

    def __post_init__(self):
        g = np.array(self.exponents, dtype=np.float64).ravel().copy()
        b = np.array(self.coefficients, dtype=np.float64).ravel().copy()
        if g.size < 1:
            raise ValueError("AO needs at least one primitive")
        if g.size != b.size:
            raise ValueError(f"{g.size} exponents vs {b.size} coefficients")
        if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
            raise ValueError("Gaussian exponents must be positive and finite")
        if not np.all(np.isfinite(b)):
            raise ValueError("contraction coefficients must be finite")
        m = tuple(int(p) for p in self.powers)
        if len(m) != 3 or any(p < 0 for p in m):
            raise ValueError(f"powers must be three non-negative integers, got {self.powers}")
        tau = np.array(self.center, dtype=np.float64).ravel().copy()
        if tau.size != 3 or not np.all(np.isfinite(tau)):
            raise ValueError("center must be a finite 3-vector")
        for arr in (g, b, tau):
            arr.setflags(write=False)
        object.__setattr__(self, "exponents", g)
        object.__setattr__(self, "coefficients", b)
        object.__setattr__(self, "powers", m)
        object.__setattr__(self, "center", tau)
        norm2 = ao_self_overlap(self)
        if not norm2 > 0.0:
            raise ValueError("AO contraction has zero norm")
        if abs(norm2 - 1.0) > 1e-8:
            warnings.warn(
                f"AO squared norm is {norm2:.10g}, not 1; fidelities are defined "
                "against the normalized orbital (see renormalized())",
                stacklevel=2,
            )

    @property
    def n_g(self) -> int:
        return self.exponents.size


def ao_self_overlap(ao: ContractedGaussianAO) -> float:
    """Analytic continuous-space integral of chi^2 over all space."""
    g = ao.exponents
    b = ao.coefficients
    p = g[:, None] + g[None, :]
    val = b[:, None] * b[None, :]
    for m in ao.powers:
        val = val * _gauss_moment(2 * m, p)
    return float(np.sum(val))


def renormalized(ao: ContractedGaussianAO) -> ContractedGaussianAO:
    """Copy of the AO with coefficients scaled to unit continuous norm."""
    scale = 1.0 / math.sqrt(ao_self_overlap(ao))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ContractedGaussianAO(
            exponents=ao.exponents,
            coefficients=ao.coefficients * scale,
            powers=ao.powers,
            center=ao.center,
        )


def gaussian_ao(exponents, coefficients, powers, center,
                renormalize: bool = True) -> ContractedGaussianAO:
    """Build an AO, by default rescaling the contraction to unit norm."""
    with warnings.catch_warnings():
        if renormalize:
            warnings.simplefilter("ignore")
        ao = ContractedGaussianAO(exponents=exponents, coefficients=coefficients,
                                  powers=tuple(powers), center=center)
    return renormalized(ao) if renormalize else ao


@dataclass(frozen=True, eq=False)
class MolecularOrbital:
    """Linear combination of AOs with fixed coefficients."""

    ao_list: tuple[ContractedGaussianAO, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        aos = tuple(self.ao_list)
        c = np.array(self.coefficients, dtype=np.float64).ravel().copy()
        if len(aos) < 1:
            raise ValueError("MO needs at least one AO")
        if c.size != len(aos):
            raise ValueError(f"{c.size} MO coefficients vs {len(aos)} AOs")
        if not np.all(np.isfinite(c)):
            raise ValueError("MO coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "ao_list", aos)
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True, eq=False)
class SimulationCell:
    """Rectangular cell gridded with 2^n_qe points per axis.

    Grid point k sits at r_orig + (k_x dx_x, k_y dx_y, k_z dx_z) with
    dx_v = L_v / 2^n_qe; the far cell face is not a grid point.
    """

    origin: np.ndarray
    edge_lengths: np.ndarray
    n_qe: int

    def __post_init__(self):
        r0 = np.array(self.origin, dtype=np.float64).ravel().copy()
        L = np.array(self.edge_lengths, dtype=np.float64).ravel().copy()
        if r0.size != 3 or not np.all(np.isfinite(r0)):
            raise ValueError("origin must be a finite 3-vector")
        if L.size != 3 or not np.all(np.isfinite(L)) or np.any(L <= 0.0):
            raise ValueError("edge lengths must be three positive reals")
        if int(self.n_qe) != self.n_qe or self.n_qe < 1:
            raise ValueError(f"qubits per axis must be a positive integer, got {self.n_qe}")
        r0.setflags(write=False)
        L.setflags(write=False)
        object.__setattr__(self, "origin", r0)
        object.__setattr__(self, "edge_lengths", L)
        object.__setattr__(self, "n_qe", int(self.n_qe))

    @property
    def N_qe(self) -> int:
        return 1 << self.n_qe

    @property
    def dx(self) -> np.ndarray:
        return self.edge_lengths / self.N_qe

    @property
    def dV(self) -> float:
        return float(np.prod(self.dx))


def sample_ao_1d(ao: ContractedGaussianAO, axis, s: int, cell: SimulationCell) -> np.ndarray:
    """One-axis primitive samples h(k dx - tau~; gamma_s, m) over the grid.

    tau~ is the AO center relative to the cell origin.  The 0^0 = 1
    convention keeps s-type orbitals finite on their own center.
    """
    v = _axis_index(axis)
    if not (0 <= s < ao.n_g):
        raise ValueError(f"primitive index {s} out of range [0, {ao.n_g})")
    tau_rel = ao.center[v] - cell.origin[v]
    xi = np.arange(cell.N_qe) * cell.dx[v] - tau_rel
    m = ao.powers[v]
    gauss = np.exp(-ao.exponents[s] * xi * xi)
    if m == 0:
        return gauss
    return xi**m * gauss


def primitive_tables(mo: MolecularOrbital, cell: SimulationCell):
    """Primitive weights w_p and per-axis sample tables H_v[p, k].

    Primitives (mu, s) are flattened in AO-major order to one axis p with
    w_p = c_mu * b_{mu s}, so phi(r_orig + k dx) = sum_p w_p H_x[p, k_x]
    H_y[p, k_y] H_z[p, k_z].
    """
    weights = []
    tables = [[], [], []]
    for ao, c in zip(mo.ao_list, mo.coefficients):
        for s in range(ao.n_g):
            weights.append(c * ao.coefficients[s])
            for v in range(3):
                tables[v].append(sample_ao_1d(ao, v, s, cell))
    return np.asarray(weights), tuple(np.stack(t) for t in tables)


def mo_norm_factor(mo: MolecularOrbital, cell: SimulationCell) -> float:
    """Dimensionless constant 1/sqrt(dV sum_grid phi^2), without the grid.

    The grid sum is the total of the P x P Gram matrix
    G = outer(w, w) * prod_v (H_v H_v^T) over primitive pairs.
    """
    w, H = primitive_tables(mo, cell)
    gram = np.outer(w, w)
    for h in H:
        gram = gram * (h @ h.T)
    sum_sq = float(np.sum(gram))
    if not math.isfinite(sum_sq) or sum_sq <= 0.0:
        raise DegenerateInputError("MO vanishes on the grid; cannot normalize")
    return 1.0 / math.sqrt(cell.dV * sum_sq)


def require_grid(n_qe: int, max_qubits: int) -> None:
    """Raise ResourceLimitError if a 2^(3 n_qe) grid exceeds the qubit guard."""
    if n_qe > max_qubits:
        raise ResourceLimitError(
            f"n_qe={n_qe} exceeds the guard of {max_qubits} qubits per axis "
            f"({(1 << (3 * n_qe)):,} amplitudes); raise max_qubits to override")


def build_ideal_state(
    mo: MolecularOrbital,
    cell: SimulationCell,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Normalized grid statevector of the MO, (k_x, k_y, k_z) with k_z fastest.

    amplitudes[k] = norm_factor * sqrt(dV) * phi(r_orig + k dx), with the
    dimensionless norm_factor from ``mo_norm_factor``, which approaches 1
    when the cell is large and the grid fine enough to resolve the orbital.
    """
    require_grid(cell.n_qe, max_qubits)
    norm_factor = mo_norm_factor(mo, cell)
    w, tables = primitive_tables(mo, cell)
    return cp_full(w, tables).ravel() * (norm_factor * math.sqrt(cell.dV))
