"""Batch front-end: job files in, JSON reports and statevector exports out.

A job is a single JSON document (``"schema": 1``) naming the molecule (AO
list plus named MO coefficient vectors), the simulation cell, the LF basis
layout (explicit per-direction centers or a box generator), initial widths,
the penalty strength, and the CP ranks to sweep.  ``fit`` runs the whole
pipeline and writes a deterministic report; ``decompose`` adds ranks to a
report's rank ladder and re-runs it; ``gate-count`` is a standalone resource
calculator; ``export-state`` materializes grid statevectors as CSV or binary;
``two-center`` tabulates the interference sweep; ``verify`` runs the
built-in check battery.

Exit codes: 0 success, 1 failed run or failed verification, 2 malformed job
(the error names the offending field by JSON pointer) or command line, 3
resource guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import struct
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import (
    DEFAULT_MAX_QUBITS,
    MolecularOrbital,
    ResourceLimitError,
    SimulationCell,
    build_ideal_state,
    gaussian_ao,
    require_grid,
)
from .cpd import CanonicalState, CpdOptions, canonical_statevector, decompose_cores
from .encoding import (
    ancilla_counts,
    cnot_count_canonical,
    cnot_count_tucker,
    lcu_postselect_oracle,
    qft_cx_informational,
    rank_ancillae,
    success_prob_canonical,
    success_prob_tucker,
    tucker_success_from_core,
    two_center_analysis,
    two_center_csv_lines,
)
from .fitting import (
    FitProblem,
    OptimizeOptions,
    TuckerState,
    box_centers,
    fidelity_gradient,
    optimize_widths,
    overlap_3d,
    solve_core,
    t_tensor,
    tucker_statevector,
)
from .lorentzian import AXES, LorentzianBasisSpec, lf_profile, lf_profile_da, lf_state
from .tensor import cp_full, metric_inner

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SCHEMA = 2
EXIT_RESOURCE = 3

MAGIC = b"MFLO"
BINARY_VERSION = 1
FORM_TAGS = {"ideal": 0, "tucker": 1, "canonical": 2}
HEADER_FORMAT = "<4sIII16x"  # magic, version, n_qe, form tag, zero padding
CSV_HEADER = "k_x,k_y,k_z,amplitude"
IDENTITY_TOL = 1e-10

_POS3 = {"type": "array", "items": {"type": "number"}, "minItems": 3, "maxItems": 3}
_NUM_LIST = {"type": "array", "items": {"type": "number"}, "minItems": 1}
_INT_LIST = {"type": "array", "items": {"type": "integer"}, "minItems": 1}

JOB_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "molecule", "cell", "lorentzian"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": 1},
        "molecule": {
            "type": "object",
            "required": ["aos", "mos"],
            "additionalProperties": False,
            "properties": {
                "atoms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["symbol", "position"],
                        "additionalProperties": False,
                        "properties": {"symbol": {"type": "string"}, "position": _POS3},
                    },
                },
                "renormalize": {"type": "boolean"},
                "aos": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["exponents", "coefficients", "powers", "center"],
                        "additionalProperties": False,
                        "properties": {
                            "name": {"type": "string"},
                            "exponents": _NUM_LIST,
                            "coefficients": _NUM_LIST,
                            "powers": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 3,
                                "maxItems": 3,
                            },
                            "center": _POS3,
                        },
                    },
                },
                "mos": {"type": "object", "minProperties": 1, "additionalProperties": _NUM_LIST},
            },
        },
        "cell": {
            "type": "object",
            "required": ["origin", "edge_lengths", "n_qe"],
            "additionalProperties": False,
            "properties": {
                "origin": _POS3,
                "edge_lengths": _POS3,
                "n_qe": {"type": "integer", "minimum": 1},
            },
        },
        "lorentzian": {
            "type": "object",
            "required": ["initial_widths"],
            "additionalProperties": False,
            "properties": {
                "centers": {
                    "type": "object",
                    "required": ["x", "y", "z"],
                    "additionalProperties": False,
                    "properties": {"x": _INT_LIST, "y": _INT_LIST, "z": _INT_LIST},
                },
                "box": {
                    "type": "object",
                    "required": ["box_min", "box_edges", "counts"],
                    "additionalProperties": False,
                    "properties": {
                        "box_min": _POS3,
                        "box_edges": _POS3,
                        "counts": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 1},
                            "minItems": 3,
                            "maxItems": 3,
                        },
                    },
                },
                "initial_widths": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {
                            "type": "object",
                            "required": ["x", "y", "z"],
                            "additionalProperties": False,
                            "properties": {"x": _NUM_LIST, "y": _NUM_LIST, "z": _NUM_LIST},
                        },
                    ]
                },
                "alpha_pen": {"type": "number", "minimum": 0},
            },
            "oneOf": [{"required": ["centers"]}, {"required": ["box"]}],
        },
        "fit": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "grad_tol": {"type": "number", "exclusiveMinimum": 0},
                "restarts": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "cpd": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ranks": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
                "n_restarts": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
    },
}

_PER_AXIS = {"type": "object", "required": list(AXES)}
#: What ``read_report`` takes from a report, bar the row counts of the factors and of ``u``.
REPORT_SCHEMA = {"type": "object", "required": ["job", "mos"], "properties": {
    "job": JOB_SCHEMA, "mos": {"type": "object", "minProperties": 1, "additionalProperties": {
        "type": "object", "required": ["widths", "centers", "core", "fidelity", "squared_overlap",
                                       "penalty", "kappa_max", "structural_factors", "canonical"],
        "properties": {"widths": {**_PER_AXIS, "additionalProperties": _NUM_LIST},
                       "centers": {**_PER_AXIS, "additionalProperties": _INT_LIST},
                       "core": {"type": "object", "required": ["shape", "values"],
                                "properties": {"shape": _INT_LIST, "values": _NUM_LIST}},
                       "canonical": {"type": "object", "additionalProperties": {
                           "type": "object", "required": ["lambdas", "u"], "properties": {
                               "lambdas": _NUM_LIST, "u": {**_PER_AXIS, "additionalProperties": {
                                   "type": "array", "items": _NUM_LIST}}}}}}}}}}


class JobError(Exception):
    """Malformed job file; ``pointer`` names the offending field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '<document>'}: {message}")
        self.pointer = pointer
        self.message = message


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The JSON Schema types a job uses, two of them stricter than JSON Schema:
#: an integer is a JSON integer, not an integral float such as ``4.0``, and a
#: number is finite as a double, although Python's ``json`` reads ``NaN``,
#: ``Infinity`` and integers of any length.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": _is_integer,
    "number": lambda v: (_is_integer(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
}


def _validate(value, schema: dict, pointer: str = "") -> None:
    """Check ``value`` against ``schema``; raise JobError at the first violation.

    Interprets the keywords JOB_SCHEMA uses (``type``, ``const``,
    ``required``, ``properties``, ``additionalProperties``, ``items``,
    ``minItems``, ``maxItems``, ``minimum``, ``exclusiveMinimum``,
    ``minProperties``, ``anyOf``, and ``oneOf`` over ``required``
    alternatives) and ignores ``$schema``.  A missing or unknown key is
    reported at the object that holds it, any other violation at the value.
    """
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        raise JobError(pointer, f"expected {kind}, got {value!r}")
    if "const" in schema:
        const = schema["const"]
        if value != const or isinstance(value, bool) != isinstance(const, bool):
            raise JobError(pointer, f"expected {const!r}, got {value!r}")
    if _TYPES["number"](value):
        low = schema.get("minimum")
        if low is not None and value < low:
            raise JobError(pointer, f"expected a value >= {low}, got {value!r}")
        low = schema.get("exclusiveMinimum")
        if low is not None and value <= low:
            raise JobError(pointer, f"expected a value > {low}, got {value!r}")
    elif isinstance(value, list):
        n = len(value)
        if n < schema.get("minItems", 0):
            raise JobError(pointer, f"expected at least {schema['minItems']} items, got {n}")
        if n > schema.get("maxItems", n):
            raise JobError(pointer, f"expected at most {schema['maxItems']} items, got {n}")
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(item, schema["items"], f"{pointer}/{i}")
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise JobError(pointer, f"{key!r} is a required property")
        properties = schema.get("properties", {})
        others = schema.get("additionalProperties", True)
        for key in value:
            if others is False and key not in properties:
                raise JobError(pointer, f"unknown property {key!r}")
        if len(value) < schema.get("minProperties", 0):
            raise JobError(pointer, f"expected at least {schema['minProperties']} properties, "
                                    f"got {len(value)}")
        if "oneOf" in schema:
            alternatives = [alt["required"] for alt in schema["oneOf"]]
            if sum(all(key in value for key in alt) for alt in alternatives) != 1:
                names = " or ".join(" and ".join(map(repr, alt)) for alt in alternatives)
                raise JobError(pointer, f"exactly one of {names} is required")
        for key, item in value.items():
            sub = properties.get(key, others)
            if isinstance(sub, dict):
                _validate(item, sub, f"{pointer}/{key}")
    if "anyOf" in schema:
        errors = []
        for branch in schema["anyOf"]:
            try:
                _validate(value, branch, pointer)
            except JobError as exc:
                # a branch of the value's own type explains the failure best
                if "type" not in branch or _TYPES[branch["type"]](value):
                    errors.append(exc)
            else:
                return
        if not errors:
            errors.append(JobError(pointer, f"{value!r} matches none of the allowed forms"))
        raise errors[0]


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _json_default(obj):
    """``json.dumps`` hook: numpy arrays and scalars become Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_json_default)


def load_job(path) -> dict:
    """Parse and validate a job file; raises JobError with a JSON pointer."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise JobError("", f"cannot read job file: {exc}") from exc
    try:
        job = json.loads(text)
    except json.JSONDecodeError as exc:
        raise JobError("", f"invalid JSON: {exc}") from exc
    _validate(job, JOB_SCHEMA)
    _check_cross_references(job)
    return job


def _check_cross_references(job: dict, at: str = "") -> None:
    """Checks past the schema; ``at`` is the job's pointer in its document."""
    n_ao = len(job["molecule"]["aos"])
    for name, coeff in job["molecule"]["mos"].items():
        if len(coeff) != n_ao:
            raise JobError(
                f"{at}/molecule/mos/{name}",
                f"MO has {len(coeff)} coefficients but the molecule lists {n_ao} AOs")
    lor = job["lorentzian"]
    n_qe = job["cell"]["n_qe"]
    N = 1 << n_qe
    if "centers" in lor:
        counts = {ax: len(lor["centers"][ax]) for ax in AXES}
        for ax in AXES:
            for i, k in enumerate(lor["centers"][ax]):
                if not 0 <= k < N:
                    raise JobError(
                        f"{at}/lorentzian/centers/{ax}/{i}",
                        f"center {k} outside the grid range [0, {N})")
    else:
        counts = dict(zip(AXES, lor["box"]["counts"]))
    widths = lor["initial_widths"]
    if isinstance(widths, dict):
        for ax in AXES:
            if len(widths[ax]) != counts[ax]:
                raise JobError(
                    f"{at}/lorentzian/initial_widths/{ax}",
                    f"{len(widths[ax])} widths for {counts[ax]} centers")
    n_prod = 1
    for ax in AXES:
        n_prod *= counts[ax]
    for i, rank in enumerate(job.get("cpd", {}).get("ranks", [])):
        if rank > n_prod:
            raise JobError(
                f"{at}/cpd/ranks/{i}",
                f"rank {rank} exceeds the basis size n_prod={n_prod}")


def _job_cell(job: dict) -> SimulationCell:
    c = job["cell"]
    try:
        return SimulationCell(origin=c["origin"], edge_lengths=c["edge_lengths"], n_qe=c["n_qe"])
    except ValueError as exc:
        raise JobError("/cell", str(exc)) from exc


def _job_molecule(job: dict) -> dict[str, MolecularOrbital]:
    mol = job["molecule"]
    renorm = mol.get("renormalize", True)
    aos = []
    for i, entry in enumerate(mol["aos"]):
        try:
            aos.append(gaussian_ao(entry["exponents"], entry["coefficients"], entry["powers"],
                                   entry["center"], renormalize=renorm))
        except ValueError as exc:
            raise JobError(f"/molecule/aos/{i}", str(exc)) from exc
    return {name: MolecularOrbital(ao_list=tuple(aos), coefficients=coeff)
            for name, coeff in mol["mos"].items()}


def _job_spec(job: dict, cell: SimulationCell) -> LorentzianBasisSpec:
    lor = job["lorentzian"]
    if "centers" in lor:
        centers = tuple(np.asarray(lor["centers"][ax], dtype=np.int64) for ax in AXES)
    else:
        box = lor["box"]
        try:
            centers = box_centers(cell, box["box_min"], box["box_edges"], box["counts"])
        except ValueError as exc:
            raise JobError("/lorentzian/box", str(exc)) from exc
    w = lor["initial_widths"]
    if isinstance(w, dict):
        widths = tuple(np.asarray(w[ax], dtype=np.float64) for ax in AXES)
    else:
        widths = tuple(np.full(c.size, float(w)) for c in centers)
    try:
        return LorentzianBasisSpec(n=cell.n_qe, widths=widths, centers=centers)
    except ValueError as exc:
        raise JobError("/lorentzian", str(exc)) from exc


def _job_cpd_options(job: dict) -> CpdOptions:
    return CpdOptions(**{k: v for k, v in job.get("cpd", {}).items() if k != "ranks"})


def _spec_payload(spec: LorentzianBasisSpec) -> dict:
    return {
        "widths": {ax: spec.widths[v] for v, ax in enumerate(AXES)},
        "centers": {ax: spec.centers[v] for v, ax in enumerate(AXES)},
    }


def _tucker_from_payload(name: str, entry: dict, n_qe: int) -> TuckerState:
    """The Tucker state that MO ``name``'s entry of a report records, closed form checked."""
    factors, structural = entry.get("structural_factors"), []
    for ax in AXES if factors is not None else ():
        try:
            rows = np.atleast_1d(factors[ax])
        except (KeyError, TypeError, ValueError):  # not a mapping, no such axis, or ragged
            rows = np.empty(0)
        n_l, n_rows = len(entry["widths"][ax]), len(structural[0]) if structural else len(rows)
        if not (rows.dtype.kind in "if" and n_rows and rows.shape == (n_rows, n_l)
                and np.isfinite(rows).all()):
            raise ValueError(f"MO {name!r}: structural_factors[{ax!r}] is not R >= 1 rows of "
                             f"{n_l} finite numbers, with the same R on every axis")
        structural.append(rows.astype(np.float64))
    try:
        spec = LorentzianBasisSpec(
            n=n_qe,
            widths=tuple(np.asarray(entry["widths"][ax], dtype=np.float64) for ax in AXES),
            centers=tuple(np.asarray(entry["centers"][ax], dtype=np.int64) for ax in AXES))
    except ValueError as exc:
        raise ValueError(f"MO {name!r}: {exc}") from None
    core = np.asarray(entry["core"]["values"], dtype=np.float64)
    if list(entry["core"]["shape"]) != list(spec.n_l) or core.size != spec.n_prod:
        raise ValueError(f"MO {name!r}: core is not {list(spec.n_l)}, one value per LF product")
    return TuckerState(
        spec=spec, core=core.reshape(spec.n_l),
        fidelity=entry["fidelity"],
        squared_overlap=entry["squared_overlap"],
        penalty=entry["penalty"],
        kappa_max=entry["kappa_max"],
        structural=None if factors is None else tuple(structural),
    )


def read_report(path) -> tuple[dict, dict[str, TuckerState]]:
    """A report file as (report, each MO's Tucker state), for every command that reads one.

    Its job passes ``load_job``'s checks and its MOs are the job's; anything
    else raises one ValueError naming the file and the field.
    """
    try:
        report = json.loads(Path(path).read_text())
        _validate(report, REPORT_SCHEMA)
        job = report["job"]
        _check_cross_references(job, at="/job")
        for name in report["mos"]:
            if name not in job["molecule"]["mos"]:
                raise JobError(f"/mos/{name}", "not an MO of the report's job")
        tuckers = {}
        ranks = job.get("cpd", {}).get("ranks", [])
        for name, entry in report["mos"].items():
            if set(entry["canonical"]) != {str(rank) for rank in ranks}:
                raise JobError(f"/mos/{name}/canonical", f"ranks {list(entry['canonical'])} are "
                               f"not the job's cpd.ranks {ranks}")
            tuckers[name] = _tucker_from_payload(name, entry, job["cell"]["n_qe"])
            for rank, c in entry["canonical"].items():
                for ax, n in zip(AXES, tuckers[name].spec.n_l):
                    if len(c["u"][ax]) != len(c["lambdas"]) or any(len(r) != n for r in c["u"][ax]):
                        raise ValueError(f"MO {name!r}, rank {rank}: u[{ax!r}] is not "
                                         f"{len(c['lambdas'])} rows of {n} numbers, one per lambda")
        return report, tuckers
    except (JobError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _identity_residuals(problem: FitProblem, tucker: TuckerState) -> dict:
    """Re-derive the solver's defining identities; raise if they fail.

    d.S d is taken in the Kronecker-factored metric, so no n_prod x n_prod
    matrix is built; T comes from a fresh engine, independent of the fit's.
    """
    spec = tucker.spec
    d = tucker.core
    t = t_tensor(problem.with_spec(spec))
    quad = metric_inner(d, d, spec.overlaps)
    f = float(np.sum(t * d))
    res = {
        "core_metric_norm": abs(quad - 1.0),
        "overlap_kappa": abs(f * f - tucker.kappa_max),
        "fidelity_decomposition": abs(tucker.kappa_max - tucker.fidelity - tucker.penalty),
    }
    worst = max(res.values())
    if worst > IDENTITY_TOL:
        raise RuntimeError(f"report identity check failed (residual {worst:.3e})")
    return res


def _cnot_payload(counts) -> dict:
    """The CNOT block of a report or gate-count table."""
    return {"total": counts.cx_total, "sph": counts.cx_sph, "amp": counts.cx_amp}


def _canonical_entry(canon: CanonicalState, rank: int) -> dict:
    return {
        "requested_rank": int(rank),
        "rank": int(canon.R),
        "deviation": canon.deviation,
        "canon_norm2": canon.canon_norm2,
        "lambdas": canon.lambdas,
        "u": {ax: canon.u[v] for v, ax in enumerate(AXES)},
        "success_probability": success_prob_canonical(canon),
        "n_a_canonical": rank_ancillae(canon.R),
        "cnot": _cnot_payload(cnot_count_canonical(canon.spec.n_l, canon.spec.n, canon.R)),
        "flags": list(canon.flags),
        "sweeps": canon.sweeps,
        "converged": canon.converged,
    }


def _rank_sweep(entries: list[dict], tuckers: list[TuckerState], ranks,
                options: CpdOptions) -> None:
    """Write each entry's ``canonical`` map afresh from one rank ladder over all cores."""
    found = decompose_cores(tuckers, ranks, options)
    for i, entry in enumerate(entries):
        entry["canonical"] = {str(rank): _canonical_entry(canons[i], rank)
                              for rank, canons in found.items()}


def run_fit(job_path, out_path=None) -> tuple[dict, Path]:
    """Full pipeline for one job file; returns (report dict, report path).

    The report is the only file written: ``out_path``, else
    ``<job>.report.json`` beside the job.  Every run option comes from the
    job, which the report embeds, so the report can be regenerated from its
    own ``job`` entry.  Fitting builds no grid; ``export_state`` does.
    """
    job = load_job(job_path)
    cell = _job_cell(job)
    mos = _job_molecule(job)
    spec = _job_spec(job, cell)
    opt = OptimizeOptions(**job.get("fit", {}))
    ranks = job.get("cpd", {}).get("ranks", [])
    cpd_opt = _job_cpd_options(job)

    costs = gate_count_table(spec.n_l, cell.n_qe)
    report = {
        "schema": 1,
        "generator": {"name": "mflo", "version": __version__},
        "job": job,
        "n_prod": spec.n_prod,
        "ancillae": costs["ancillae"],
        "cnot_tucker": {**costs["tucker"], "qft_informational": costs["qft_informational"]},
        "mos": {},
    }
    tuckers = []
    for name, mo in mos.items():
        problem = FitProblem.build(mo, cell, spec,
                                   alpha_pen=job["lorentzian"].get("alpha_pen", 0.0))
        tucker = optimize_widths(problem, options=opt)
        residuals = _identity_residuals(problem, tucker)
        prob = success_prob_tucker(tucker)
        if not 0.0 < prob <= 1.0 + 1e-12:
            raise RuntimeError(f"Tucker success probability {prob} outside (0, 1]")
        entry = {
            "norm_factor": problem.norm_factor,
            **_spec_payload(tucker.spec),
            "core": {"shape": list(tucker.core.shape), "values": tucker.core.ravel()},
            "fidelity": tucker.fidelity,
            "squared_overlap": tucker.squared_overlap,
            "penalty": tucker.penalty,
            "kappa_max": tucker.kappa_max,
            "success_probability_tucker": prob,
            "identity_residuals": residuals,
            "diagnostics": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in asdict(tucker.diagnostics).items()},
            "structural_rank": None if tucker.structural is None else len(tucker.structural[0]),
            "structural_factors": None if tucker.structural is None else
            dict(zip(AXES, tucker.structural)),
        }
        report["mos"][name] = entry
        tuckers.append(tucker)
    _rank_sweep(list(report["mos"].values()), tuckers, ranks, cpd_opt)

    report_path = Path(out_path or Path(job_path).with_suffix(".report.json"))
    _write_report(report, report_path)
    return report, report_path


def _write_report(report: dict, path: Path) -> None:
    _write_text(_dumps(report), path)


def _write_text(text: str, path) -> None:
    """Write ``text`` and a newline to ``path``, creating missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _rebuild_state(report: dict, which: str, mo: str, rank: int | None, max_qubits: int) -> np.ndarray:
    """The ideal, Tucker or canonical grid state of one MO of a report."""
    job = report["job"]
    n_qe = job["cell"]["n_qe"]
    if mo not in report["mos"]:
        raise ValueError(f"report has no MO named {mo!r}")
    entry = report["mos"][mo]
    if which == "ideal":
        cell = _job_cell(job)
        return build_ideal_state(_job_molecule(job)[mo], cell, max_qubits=max_qubits)
    require_grid(n_qe, max_qubits)
    tucker = _tucker_from_payload(mo, entry, n_qe)
    if which == "tucker":
        return tucker_statevector(tucker.spec, tucker.core)
    if which == "canonical":
        keys = sorted(entry["canonical"], key=int)
        if not keys:
            raise ValueError(f"MO {mo!r} has no canonical decompositions in the report")
        key = keys[-1] if rank is None else str(rank)
        if key not in entry["canonical"]:
            raise ValueError(f"MO {mo!r} has no rank-{rank} decomposition in the report")
        canon = entry["canonical"][key]
        return canonical_statevector(tucker.spec, canon["lambdas"], [canon["u"][a] for a in AXES])
    raise ValueError(f"unknown state selector {which!r}")


def export_state(report: dict, which: str, fmt: str, mo: str | None = None,
                 rank: int | None = None, out_path=None,
                 max_qubits: int = DEFAULT_MAX_QUBITS) -> Path:
    """Write one grid statevector from a report as CSV or raw binary.

    CSV rows are ``k_x,k_y,k_z,amplitude``; binary files carry a 32-byte
    header (magic ``MFLO``, format version, n_qe, form tag) followed by the
    amplitudes as little-endian 8-byte reals, k_z fastest.
    """
    if fmt not in ("csv", "binary"):
        raise ValueError(f"format must be 'csv' or 'binary', got {fmt!r}")
    if mo is None:
        mo = sorted(report["mos"])[0]
    amplitudes = _rebuild_state(report, which, mo, rank, max_qubits)
    n_qe = report["job"]["cell"]["n_qe"]
    out_path = Path(out_path or f"{mo}.{which}.{'csv' if fmt == 'csv' else 'bin'}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        N = 1 << n_qe
        tails = [f"{y},{z}," for y, z in np.ndindex(N, N)]
        with out_path.open("w") as f:
            f.write(CSV_HEADER + "\n")
            for x, slab in enumerate(amplitudes.reshape(N, N * N)):  # one x-slab at a time
                rows = map(str.__add__, tails, map(repr, slab.tolist()))
                f.write(f"{x}," + f"\n{x},".join(rows) + "\n")
    else:
        with out_path.open("wb") as f:
            f.write(struct.pack(HEADER_FORMAT, MAGIC, BINARY_VERSION, n_qe, FORM_TAGS[which]))
            amplitudes.astype("<f8", copy=False).tofile(f)
    return out_path


def read_state_export(path) -> tuple[np.ndarray, dict]:
    """Load a statevector export (either format); returns (amplitudes, meta)."""
    path = Path(path)
    with path.open("rb") as f:
        head = f.read(32)
    if head[:4] == MAGIC:
        if len(head) < 32:
            raise ValueError(f"{path}: binary header needs 32 bytes, found {len(head)}")
        magic, version, n_qe, tag = struct.unpack(HEADER_FORMAT, head)
        if version != BINARY_VERSION:
            raise ValueError(f"{path}: binary format version {version}, "
                             f"this reader handles {BINARY_VERSION}")
        form = {v: k for k, v in FORM_TAGS.items()}.get(tag)
        if form is None:
            raise ValueError(f"{path}: unknown form tag {tag}")
        size = path.stat().st_size - 32
        if size != 8 << (3 * n_qe):
            raise ValueError(f"{path}: expected {1 << (3 * n_qe)} amplitudes of 8 bytes, "
                             f"found {size} bytes")
        return (np.fromfile(path, dtype="<f8", offset=32),
                {"format": "binary", "version": version, "n_qe": n_qe, "form": form})
    if head.splitlines()[:1] != [CSV_HEADER.encode()]:
        raise ValueError(f"{path}: expected the {MAGIC!r} binary magic or the CSV header "
                         f"{CSV_HEADER!r}")
    mismatch = ValueError(f"{path}: an amplitude row does not match {CSV_HEADER!r} "
                          "at its position, k_z fastest")
    try:
        with warnings.catch_warnings():  # a file without rows fails the row count below
            warnings.simplefilter("ignore", UserWarning)
            vals = np.loadtxt(path, delimiter=",", skiprows=1, usecols=3, ndmin=1)
            # a second pass reads the indices and needs exactly four fields a row;
            # the amplitude kept as one byte holds it to 7 bytes a row
            k = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                           dtype=[("k", "i2", 3), ("amplitude", "S1")])["k"]
    except ValueError:
        raise mismatch from None
    n_qe = (vals.size.bit_length() - 1) // 3
    if n_qe < 1 or vals.size != 1 << (3 * n_qe):
        raise ValueError(f"{path}: expected 8^n_qe amplitude rows, found {vals.size}")
    N = 1 << n_qe
    k = k.reshape(N, N, N, 3)
    if not all((k[..., v] == index).all() for v, index in enumerate(np.ogrid[:N, :N, :N])):
        raise mismatch
    return vals, {"format": "csv", "n_qe": n_qe}


def run_decompose(report_path, ranks, out_path=None) -> tuple[dict, Path]:
    """Add ``ranks`` to a report's rank ladder and re-run the whole ladder.

    The ladder is the embedded job's ``cpd.ranks``, at which a report holds
    its canonical entries, plus ``ranks``.  It is written to the job and run
    on every MO, so the report stays what fitting its own ``job`` entry
    writes.  A request that adds no rank runs no CP and writes the report
    back unchanged.  Each MO's closed-form CP factors are its entry's
    ``structural_factors``; the ladder checks them against the core before
    it takes them, and runs CP where they miss it.
    A file that ``read_report`` refuses, an empty ladder, or a rank outside
    [1, n_prod] raises before any CP work, and then nothing is written.
    """
    report, tuckers = read_report(report_path)
    job = report["job"]
    have = set(job.get("cpd", {}).get("ranks", []))
    ladder = sorted(have.union(ranks))
    if not ladder:
        raise ValueError("decompose needs at least one rank")
    if not have.issuperset(ranks):
        job.setdefault("cpd", {})["ranks"] = ladder
        _rank_sweep(list(report["mos"].values()), list(tuckers.values()), ladder,
                    _job_cpd_options(job))
    out = Path(out_path or report_path)
    _write_report(report, out)
    return report, out


def gate_count_table(n_l, n_qe: int, ranks=()) -> dict:
    """Standalone resource calculator for one basis layout (n_x, n_y, n_z).

    ``run_fit`` takes a report's grid-level ``ancillae`` and ``cnot_tucker``
    from this table.
    """
    n_a, n_al = ancilla_counts(n_l)
    out = {
        "n_l": [int(v) for v in n_l],
        "n_qe": int(n_qe),
        "ancillae": {"per_axis": list(n_a), "lorentzian": n_al},
        "tucker": _cnot_payload(cnot_count_tucker(n_l, n_qe)),
        "qft_informational": qft_cx_informational(n_qe),
        "canonical": {},
    }
    for rank in ranks:
        out["canonical"][str(int(rank))] = {**_cnot_payload(cnot_count_canonical(n_l, n_qe, rank)),
                                            "n_a_canonical": rank_ancillae(rank)}
    return out


# ---------------------------------------------------------------------------
# verification battery

_GATE_COUNT_CASES = (
    # (n_l, n_qe, rank, tucker_total, tucker_sph, canonical_total)
    ((3, 3, 3), 7, 3, 305, 243, 281),
    ((3, 4, 2), 7, 2, 231, 201, 215),
    ((3, 3, 2), 7, 3, 231, 201, 231),
    ((4, 2, 2), 7, 2, 173, 159, 169),
    ((2, 1, 1), 6, 2, 63, 63, 65),
)
_PROB_CASES = (
    # (core over a 2-state basis, frozen 1/(n_prod sum d^2), printed value)
    ((0.523, 0.581), 0.8182100836210706, 0.82),
    ((1.56, -1.55), 0.1033890945183102, 0.10),
)


def _check_profile_invariants() -> str:
    worst = 0.0
    for n in (3, 5):
        for a in (0.1, 0.5, 1.0, 2.0, 5.0):
            vals, _ = lf_profile(n, a)
            worst = max(worst, abs(float(vals @ vals) - 1.0))
            if np.any(vals <= 0.0):
                raise AssertionError(f"non-positive profile entry at n={n}, a={a}")
            sym = vals[1:] - vals[1:][::-1]
            worst = max(worst, float(np.max(np.abs(sym))))
            shifted = lf_state(n, a, 5)
            worst = max(worst, float(np.max(np.abs(shifted - np.roll(vals, 5)))))
    if worst > 1e-12:
        raise AssertionError(f"profile invariant residual {worst:.3e}")
    return f"worst residual {worst:.1e}"


def _check_profile_limits() -> str:
    vals, _ = lf_profile(4, 1e-6)
    if not (vals[0] >= 1.0 - 1e-8 and float(np.max(vals[1:])) < 1e-4):
        raise AssertionError("small-width profile is not concentrated on k=0")
    flat, _ = lf_profile(4, 50.0)
    spread = float(np.ptp(flat))
    if spread > 1e-12:
        raise AssertionError(f"large-width profile spread {spread:.3e}")
    return "delta and flat limits hold"


def _check_gate_counts() -> str:
    for n_l, n_qe, rank, total, sph, canon_total in _GATE_COUNT_CASES:
        t = cnot_count_tucker(n_l, n_qe)
        c = cnot_count_canonical(n_l, n_qe, rank)
        if (t.cx_total, t.cx_sph, c.cx_total) != (total, sph, canon_total):
            raise AssertionError(
                f"n_l={n_l}: got {(t.cx_total, t.cx_sph, c.cx_total)}, "
                f"expected {(total, sph, canon_total)}")
    return f"{len(_GATE_COUNT_CASES)} layouts exact"


def _check_probability_constants() -> str:
    for core, frozen, printed in _PROB_CASES:
        p = tucker_success_from_core(np.asarray(core).reshape(len(core), 1, 1))
        if abs(p - frozen) > 1e-12:
            raise AssertionError(f"core {core}: got {p!r}, expected {frozen!r}")
        if abs(p - printed) > 0.005:
            raise AssertionError(f"core {core}: {p:.4f} vs published {printed}")
    return "both reference cores match"


def _check_two_center_oracle() -> str:
    worst = 0.0
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 21)
    for a in (0.5, 2.0):
        table = two_center_analysis(5, a, 6, 10, thetas)
        la, lb = lf_state(5, a, 6), lf_state(5, a, 10)
        for theta, prob in zip(table[:, 0], table[:, 1]):
            oracle = lcu_postselect_oracle([math.cos(theta), math.sin(theta)], [la, lb])
            worst = max(worst, abs(oracle - prob))
    if worst > 1e-12:
        raise AssertionError(f"oracle mismatch {worst:.3e}")
    return f"worst |oracle - curve| = {worst:.1e}"


def _check_profile_derivative() -> str:
    worst = 0.0
    h = 1e-6
    for a in (0.5, 2.0):
        grad = lf_profile_da(5, a)
        fd = (lf_profile(5, a + h)[0] - lf_profile(5, a - h)[0]) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd))) / float(np.max(np.abs(grad))))
    if worst > 1e-6:
        raise AssertionError(f"profile derivative relative error {worst:.3e}")
    return f"relative error {worst:.1e}"


def _verify_problem(alpha: float) -> FitProblem:
    ao = gaussian_ao([0.5], [1.0], (0, 0, 0), [4.2, 3.8, 4.0])
    mo = MolecularOrbital(ao_list=(ao,), coefficients=[1.0])
    cell = SimulationCell(origin=[0.0, 0.0, 0.0], edge_lengths=[8.0, 8.0, 8.0], n_qe=4)
    spec = LorentzianBasisSpec(
        n=4, widths=(np.array([0.8, 1.3]), np.array([1.0]), np.array([0.9])),
        centers=(np.array([7, 9]), np.array([8]), np.array([8])))
    return FitProblem.build(mo, cell, spec, alpha_pen=alpha)


def _check_gradient_fd() -> str:
    worst = 0.0
    h = 1e-5
    for alpha in (0.0, 0.1):
        problem = _verify_problem(alpha)
        w0 = problem.spec.widths_flat()
        grad = fidelity_gradient(problem)
        fd = np.empty_like(grad)
        for i in range(w0.size):
            shift = np.zeros_like(w0)
            shift[i] = h
            fp = solve_core(t_tensor(problem.with_spec(problem.spec.with_widths(w0 + shift))),
                            overlap_3d(problem.spec.with_widths(w0 + shift)), alpha)[2]
            fm = solve_core(t_tensor(problem.with_spec(problem.spec.with_widths(w0 - shift))),
                            overlap_3d(problem.spec.with_widths(w0 - shift)), alpha)[2]
            fd[i] = (fp - fm) / (2 * h)
        rel = float(np.max(np.abs(grad - fd))) / max(float(np.max(np.abs(grad))), 1e-12)
        worst = max(worst, rel)
    if worst > 1e-5:
        raise AssertionError(f"gradient relative error {worst:.3e}")
    return f"relative error {worst:.1e}"


def _check_pipeline(report: dict) -> str:
    """The worst identity residual; ``run_fit`` raises past IDENTITY_TOL or on P outside (0, 1]."""
    worst = max(float(value) for entry in report["mos"].values()
                for value in entry["identity_residuals"].values())
    return f"worst identity residual {worst:.1e}"


def _check_tucker_oracle(report: dict, tuckers: dict) -> str:
    worst = 0.0
    for name, entry in report["mos"].items():
        tucker = tuckers[name]
        oracle = lcu_postselect_oracle(tucker.core.ravel(), np.eye(tucker.spec.n_prod),
                                       metric=overlap_3d(tucker.spec))
        worst = max(worst, abs(oracle - entry["success_probability_tucker"]))
    if worst > 1e-8:
        raise AssertionError(f"probability oracle residual {worst:.3e}")
    return f"worst residual {worst:.1e}"


def _check_statevector_overlap(report: dict, max_qubits: int) -> str:
    worst = 0.0
    for name, entry in report["mos"].items():
        f = float(_rebuild_state(report, "ideal", name, None, max_qubits)
                  @ _rebuild_state(report, "tucker", name, None, max_qubits))
        worst = max(worst, abs(f * f - entry["squared_overlap"]))
    if worst > 1e-8:
        raise AssertionError(f"statevector overlap residual {worst:.3e}")
    return f"worst residual {worst:.1e}"


def _check_cp_exactness(tuckers: dict) -> str:
    """CP of the first MO's core is exact at R_b = min(n_x n_y, n_x n_z, n_y n_z).

    Every n_x x n_y x n_z tensor has rank <= R_b (Kolda & Bader, SIAM Rev. 51, 455
    (2009)).  The deviation is re-derived from the factors, P from the LCU oracle.
    """
    # without the report's closed-form factors, this rung runs CP
    tucker = replace(tuckers[sorted(tuckers)[0]], structural=None)
    (nx, ny, nz), n_prod, S = tucker.spec.n_l, tucker.spec.n_prod, tucker.spec.overlaps
    bound = min(nx * ny, nx * nz, ny * nz)
    canon = decompose_cores([tucker], [bound], CpdOptions(n_restarts=2))[bound][0]
    e, d = cp_full(canon.lambdas, canon.u), tucker.core
    r = e * (metric_inner(e, d, S) / metric_inner(e, e, S)) - d  # the core's part off e
    deviation = metric_inner(r, r, S) / metric_inner(d, d, S)
    if deviation >= 1e-10:
        raise AssertionError(f"deviation {deviation:.3e} at R_b={bound}")
    prob = success_prob_canonical(canon)
    weights = np.einsum("r,ra,rb,rc->rabc", canon.lambdas, *canon.u).reshape(canon.R, n_prod)
    oracle = lcu_postselect_oracle(weights, np.eye(n_prod), metric=overlap_3d(tucker.spec))
    if abs(oracle - prob) > 1e-10:
        raise AssertionError(f"canonical probability vs oracle {abs(oracle - prob):.3e}")
    return (f"R_b=min(n_x n_y, n_x n_z, n_y n_z)={bound}: deviation {deviation:.1e} < 1e-10 "
            f"after {canon.sweeps} CP sweeps{'' if canon.converged else ' (unconverged)'}, "
            "probability oracle agrees")


def _check_export_roundtrip(report: dict, tmp: Path, max_qubits: int) -> str:
    # write both before reading either: no reloaded copy is held while a state is built
    paths = [export_state(report, "ideal", fmt, out_path=tmp / f"ideal.{fmt}",
                          max_qubits=max_qubits) for fmt in ("csv", "binary")]
    (from_csv, _), (from_bin, meta) = map(read_state_export, paths)
    if meta["form"] != "ideal" or meta["n_qe"] != report["job"]["cell"]["n_qe"]:
        raise AssertionError("binary header does not describe the export")
    if not np.array_equal(from_csv, from_bin):
        raise AssertionError("CSV and binary exports disagree")
    norm_err = abs(float(from_bin @ from_bin) - 1.0)
    if norm_err > 1e-12:
        raise AssertionError(f"reloaded norm off by {norm_err:.3e}")
    return f"formats agree, norm residual {norm_err:.1e}"


def run_verify(job_path, max_qubits=DEFAULT_MAX_QUBITS, stream=None) -> int:
    """Invariant battery; prints a per-check table, returns an exit code.

    The report checks read the report file that the fit wrote, through
    ``read_report``.  The checks that build N^3 grid states are reported as
    skipped, not failed, when the job's grid exceeds the qubit guard; skips
    do not fail the run.
    """
    stream = stream or sys.stdout
    results = []
    report = tuckers = None

    def run(name, fn, on_grid=False):
        if on_grid:
            try:
                require_grid(report["job"]["cell"]["n_qe"], max_qubits)
            except ResourceLimitError as exc:
                results.append((name, "skip", str(exc)))
                return
        try:
            results.append((name, "pass", fn()))
        except Exception as exc:  # noqa: BLE001 - each check reports independently
            results.append((name, "FAIL", str(exc)))

    run("profile-invariants", _check_profile_invariants)
    run("profile-limits", _check_profile_limits)
    run("profile-derivative-fd", _check_profile_derivative)
    run("gate-count-constants", _check_gate_counts)
    run("probability-constants", _check_probability_constants)
    run("two-center-oracle", _check_two_center_oracle)
    run("gradient-fd", _check_gradient_fd)

    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)

        def pipeline():
            nonlocal report, tuckers
            run_fit(job_path, out_path=tmp / "run1.json")
            report, tuckers = read_report(tmp / "run1.json")
            return _check_pipeline(report)

        def determinism():
            run_fit(job_path, out_path=tmp / "run2.json")
            if (tmp / "run1.json").read_bytes() != (tmp / "run2.json").read_bytes():
                raise AssertionError("repeated runs differ")
            return "repeated runs byte-identical"

        run("pipeline-identities", pipeline)
        # the checks of the fitted report: (name, check, builds N^3 grid states)
        for name, check, on_grid in (
                ("tucker-probability-oracle", lambda: _check_tucker_oracle(report, tuckers), False),
                ("statevector-overlap",
                 lambda: _check_statevector_overlap(report, max_qubits), True),
                ("cp-exactness", lambda: _check_cp_exactness(tuckers), False),
                ("export-roundtrip",
                 lambda: _check_export_roundtrip(report, tmp, max_qubits), True),
                ("determinism", determinism, False)):
            if report is None:
                results.append((name, "FAIL", "skipped: pipeline run failed"))
            else:
                run(name, check, on_grid)

    width = max(len(name) for name, _, _ in results)
    for name, status, detail in results:
        print(f"{name:<{width}}  {status}  {detail}", file=stream)
    n_pass = sum(status == "pass" for _, status, _ in results)
    skipped = [name for name, status, _ in results if status == "skip"]
    summary = f"{n_pass}/{len(results)} checks passed"
    if skipped:
        summary += f", {len(skipped)} skipped: " + ", ".join(skipped)
    print(summary, file=stream)
    failed = [name for name, status, _ in results if status == "FAIL"]
    if failed:
        print("failed: " + ", ".join(failed), file=stream)
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _int_list(text: str, count: int | None = None) -> tuple[int, ...]:
    """argparse type: comma-separated integers, exactly ``count`` of them if given."""
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        values = ()
    if not values or count not in (None, len(values)):
        many = "" if count is None else f"{count} "
        raise argparse.ArgumentTypeError(f"expected {many}comma-separated integers, got {text!r}")
    return values


@functools.cache  # built on first use, so importing the module does not pay for it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mflo",
        description="Fit molecular orbitals with discrete Lorentzian product bases "
                    "and report qubit-encoding costs.")
    parser.add_argument("--version", action="version", version=f"mflo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run the fit/decompose/report pipeline on a job file")
    fit.add_argument("--job", required=True)
    fit.add_argument("--out", default=None, help="report path (default <job>.report.json)")

    dec = sub.add_parser("decompose", help="add ranks to a report's CP rank ladder and re-run it")
    dec.add_argument("--report", required=True)
    dec.add_argument("--ranks", required=True, type=_int_list, help="e.g. 1,2,4")
    dec.add_argument("--out", default=None, help="write here instead of updating in place")

    gc = sub.add_parser("gate-count", help="ancilla/CNOT calculator for a basis layout")
    gc.add_argument("--job", default=None, help="take the layout from a job file")
    gc.add_argument("--n-l", type=functools.partial(_int_list, count=3), default=None,
                    help="e.g. 3,3,3")
    gc.add_argument("--n-qe", type=int, default=None)
    gc.add_argument("--rank", action="append", type=int, default=None)
    gc.add_argument("--out", default=None, help="write JSON here instead of stdout")

    exp = sub.add_parser("export-state", help="write a grid statevector from a report")
    exp.add_argument("--report", required=True)
    exp.add_argument("--which", required=True, choices=("ideal", "tucker", "canonical"))
    exp.add_argument("--mo", default=None, help="MO name (default: first alphabetically)")
    exp.add_argument("--rank", type=int, default=None, help="canonical rank (default: largest)")
    exp.add_argument("--format", default="csv", choices=("csv", "binary"))
    exp.add_argument("--out", default=None)
    exp.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)

    two = sub.add_parser("two-center", help="interference sweep for two LF branches")
    two.add_argument("--n", type=int, required=True, help="grid qubits per direction")
    two.add_argument("--a", type=float, required=True, help="shared LF width")
    two.add_argument("--center-a", type=int, required=True)
    two.add_argument("--center-b", type=int, required=True)
    two.add_argument("--points", type=int, default=21)
    two.add_argument("--out", default=None, help="CSV path (default stdout)")

    ver = sub.add_parser("verify", help="run the built-in check battery")
    ver.add_argument("--job", required=True)
    ver.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    return parser


def _emit(text: str, out) -> None:
    """Write ``text`` and a newline to the file ``out``, or print it when ``out`` is unset."""
    if out:
        _write_text(text, out)
        print(f"written to {out}")
    else:
        print(text)


def _cmd_fit(args) -> int:
    report, path = run_fit(args.job, out_path=args.out)
    for name, entry in sorted(report["mos"].items()):
        flags = ",".join(entry["diagnostics"]["flags"]) or "-"
        print(f"{name}: squared_overlap={entry['squared_overlap']:.6f} "
              f"P_tucker={entry['success_probability_tucker']:.6f} flags={flags}")
    print(f"report written to {path}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    report, path = run_decompose(args.report, args.ranks, out_path=args.out)
    for name in sorted(report["mos"]):
        for key in sorted(report["mos"][name]["canonical"], key=int):
            entry = report["mos"][name]["canonical"][key]
            print(f"{name} R={key}: deviation={entry['deviation']:.3e} "
                  f"P_canonical={entry['success_probability']:.6f}")
    print(f"report written to {path}")
    return EXIT_OK


def _cmd_gate_count(args) -> int:
    if args.job is not None:
        job = load_job(args.job)
        cell = _job_cell(job)
        spec = _job_spec(job, cell)
        n_l, n_qe = spec.n_l, cell.n_qe
        ranks = args.rank if args.rank else job.get("cpd", {}).get("ranks", [])
    else:
        if args.n_l is None or args.n_qe is None:
            raise ValueError("gate-count needs either --job or both --n-l and --n-qe")
        n_l, n_qe = args.n_l, args.n_qe
        ranks = args.rank or []
    _emit(_dumps(gate_count_table(n_l, n_qe, ranks)), args.out)
    return EXIT_OK


def _cmd_export_state(args) -> int:
    report, _ = read_report(args.report)
    path = export_state(report, args.which, args.format, mo=args.mo,
                        rank=args.rank, out_path=args.out, max_qubits=args.max_qubits)
    print(f"written to {path}")
    return EXIT_OK


def _cmd_two_center(args) -> int:
    thetas = np.linspace(-math.pi / 2, math.pi / 2, args.points)
    table = two_center_analysis(args.n, args.a, args.center_a, args.center_b, thetas)
    _emit("\n".join(two_center_csv_lines(table)), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    return run_verify(args.job, max_qubits=args.max_qubits)


_HANDLERS = {
    "fit": _cmd_fit,
    "decompose": _cmd_decompose,
    "gate-count": _cmd_gate_count,
    "export-state": _cmd_export_state,
    "two-center": _cmd_two_center,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the flush at exit
        # stays silent, and fail, since the output was not all delivered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except JobError as exc:
        _emit_error("schema", exc.message, pointer=exc.pointer)
        return EXIT_SCHEMA
    except ResourceLimitError as exc:
        _emit_error("resource", str(exc))
        return EXIT_RESOURCE
    except (RuntimeError, ValueError, OSError, KeyError) as exc:
        _emit_error("run", str(exc))
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
