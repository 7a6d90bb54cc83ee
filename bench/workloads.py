"""Seeded inputs for the benchmark workloads.

Every workload is a set of H chains built from the STO-3G H 1s contraction
(the same AO as ``jobs/h2_like.json``).  The seed jitters bond lengths, the
offset of the chain in its cell, the MO coefficients and, for the
``decompose-sweep`` input fits, the LF widths, each by a few percent at most,
so that each seed is a different but comparable problem.  Only the standard
library is used here, so generating inputs needs no numpy and no ``mflo``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

H1S_EXPONENTS = [3.42525091, 0.62391373, 0.1688554]
H1S_COEFFICIENTS = [0.15432897, 0.53532814, 0.44463454]

BOND_JITTER = 0.01      # relative, per bond
OFFSET_JITTER = 0.03    # bohr, per axis, whole chain
COEF_JITTER = 0.01      # relative, per MO coefficient
#: transverse (y, z) displacement of atom j of a chain with three or more
#: atoms; without it every atom shares its y and z profiles and the fitted
#: core has CP rank at most the primitive count
ZIGZAG = ((0.4, 0.3), (-0.4, 0.0), (0.4, -0.3), (-0.4, 0.0))
WIDTH_JITTER = 0.03     # relative, per LF (decompose-sweep input fits only)

#: fit.grad_tol above the width range (WIDTH_BOUNDS spans < 50) stops the
#: optimizer at its start point, so decompose-sweep inputs do not depend on it
FROZEN_GRAD_TOL = 1.0e3

DECOMPOSE_RANKS = (1, 2, 3, 4, 6, 8)


@dataclass
class Job:
    """One job file the workload feeds to ``mflo``."""

    name: str
    doc: dict


@dataclass
class Workload:
    jobs: list[Job]
    #: ranks for ``decompose`` ops on set-up reports; None for ``fit`` workloads
    decompose_ranks: tuple[int, ...] | None = None


def _u(rng: random.Random) -> float:
    return rng.uniform(-1.0, 1.0)


def _chain(rng: random.Random, n_atoms: int, spacing: float, center, mo_count: int):
    """Atoms, AOs and Hueckel-like MOs of a jittered H chain along x."""
    bonds = [spacing * (1.0 + BOND_JITTER * _u(rng)) for _ in range(n_atoms - 1)]
    offset = [OFFSET_JITTER * _u(rng) for _ in range(3)]
    x = center[0] + offset[0] - 0.5 * sum(bonds)
    positions = []
    for i in range(n_atoms):
        dy, dz = ZIGZAG[i % len(ZIGZAG)] if n_atoms > 2 else (0.0, 0.0)
        positions.append([x, center[1] + offset[1] + dy, center[2] + offset[2] + dz])
        if i < n_atoms - 1:
            x += bonds[i]
    atoms = [{"symbol": "H", "position": p} for p in positions]
    aos = [{"name": f"1s_{i}", "exponents": list(H1S_EXPONENTS),
            "coefficients": list(H1S_COEFFICIENTS), "powers": [0, 0, 0],
            "center": p} for i, p in enumerate(positions)]
    mos = []
    for k in range(1, mo_count + 1):
        coeff = [math.sin(math.pi * k * (j + 1) / (n_atoms + 1)) for j in range(n_atoms)]
        mos.append([c * (1.0 + COEF_JITTER * _u(rng)) for c in coeff])
    return atoms, aos, mos


def _job(rng, *, n_atoms, spacing, edges, n_qe, box_min, box_edges, counts,
         mo_names, widths, fit, cpd) -> dict:
    center = [0.5 * e for e in edges]
    atoms, aos, mos = _chain(rng, n_atoms, spacing, center, len(mo_names))
    return {
        "schema": 1,
        "molecule": {"atoms": atoms, "renormalize": True, "aos": aos,
                     "mos": dict(zip(mo_names, mos))},
        "cell": {"origin": [0.0, 0.0, 0.0], "edge_lengths": list(edges), "n_qe": n_qe},
        "lorentzian": {"box": {"box_min": box_min, "box_edges": box_edges, "counts": counts},
                       "initial_widths": widths, "alpha_pen": 0.0},
        "fit": fit,
        "cpd": cpd,
    }


def _jittered_widths(rng, base: float, counts) -> dict:
    return {ax: [base * (1.0 + WIDTH_JITTER * _u(rng)) for _ in range(n)]
            for ax, n in zip("xyz", counts)}


def fit_box(seed: int) -> Workload:
    rng = random.Random(f"fit-box/{seed}")
    job = _job(rng, n_atoms=2, spacing=1.4, edges=[8.0, 8.0, 8.0], n_qe=7,
               box_min=[2.5, 3.0, 3.0], box_edges=[3.0, 2.0, 2.0], counts=[6, 4, 4],
               mo_names=["bonding", "antibonding"], widths=0.6,
               fit={"restarts": 1, "seed": 0},
               cpd={"ranks": [1, 2, 4], "n_restarts": 4, "seed": 0})
    return Workload([Job("h2_box", job)])


def fit_finegrid(seed: int) -> Workload:
    rng = random.Random(f"fit-finegrid/{seed}")
    cpd = {"ranks": [1, 2], "n_restarts": 4, "seed": 0}
    h2 = _job(rng, n_atoms=2, spacing=1.4, edges=[8.0, 8.0, 8.0], n_qe=8,
              box_min=[2.5, 3.0, 3.0], box_edges=[3.0, 2.0, 2.0], counts=[2, 2, 2],
              mo_names=["bonding", "antibonding"], widths=0.75,
              fit={"restarts": 1, "seed": 0}, cpd=cpd)
    # H4 mo_b is left out: on three x-LFs it runs the optimizer 1.6k-2k
    # iterations, and this workload is about the grid build
    h4 = _job(rng, n_atoms=4, spacing=1.5, edges=[12.0, 8.0, 8.0], n_qe=8,
              box_min=[2.5, 3.0, 3.0], box_edges=[7.0, 2.0, 2.0], counts=[3, 2, 2],
              mo_names=["mo_a"], widths=0.75,
              fit={"restarts": 1, "seed": 0}, cpd=cpd)
    return Workload([Job("h2_fine", h2), Job("h4_fine", h4)])


def decompose_sweep(seed: int) -> Workload:
    rng = random.Random(f"decompose-sweep/{seed}")
    fit = {"restarts": 1, "grad_tol": FROZEN_GRAD_TOL, "seed": 0}
    cpd = {"n_restarts": 8, "seed": 0}
    # three MOs per chain: the geometric mean over 36 (MO, rank) pairs damps
    # the seed-to-seed noise of ALS runs that stop before converging, and a
    # pass stays short enough to time three of them in one run
    h4 = _job(rng, n_atoms=4, spacing=1.5, edges=[12.0, 8.0, 8.0], n_qe=7,
              box_min=[2.5, 3.0, 3.0], box_edges=[7.0, 2.0, 2.0], counts=[6, 4, 4],
              mo_names=["mo_a", "mo_b", "mo_c"], widths=_jittered_widths(rng, 0.6, [6, 4, 4]),
              fit=fit, cpd=cpd)
    h6 = _job(rng, n_atoms=6, spacing=1.5, edges=[14.0, 8.0, 8.0], n_qe=7,
              box_min=[2.5, 3.0, 3.0], box_edges=[9.0, 2.0, 2.0], counts=[8, 3, 3],
              mo_names=["mo_a", "mo_b", "mo_c"], widths=_jittered_widths(rng, 0.6, [8, 3, 3]),
              fit=fit, cpd=cpd)
    return Workload([Job("h4_sweep", h4), Job("h6_sweep", h6)],
                    decompose_ranks=DECOMPOSE_RANKS)


WORKLOADS = {
    "fit-box": fit_box,
    "fit-finegrid": fit_finegrid,
    "decompose-sweep": decompose_sweep,
}


def write_jobs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write each job as ``<name>.json`` under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for job in workload.jobs:
        path = directory / f"{job.name}.json"
        path.write_text(json.dumps(job.doc, indent=2, sort_keys=True) + "\n")
        paths[job.name] = path
    return paths
