"""The job-file validator against the JSON Schema reference implementation."""

import copy
import json
import math
from pathlib import Path

import pytest

from mflo.cli import (_TYPES, JOB_SCHEMA, JobError, _check_cross_references, _job_cell,
                      _job_molecule, _job_spec, _validate)

JOBS = Path(__file__).resolve().parent.parent / "jobs"

#: the keywords ``_validate`` interprets; ``$schema`` is an annotation
IMPLEMENTED = {"$schema", "type", "const", "required", "properties", "additionalProperties",
               "items", "minItems", "maxItems", "minimum", "exclusiveMinimum",
               "minProperties", "anyOf", "oneOf"}

#: replacements every node gets: wrong types, and values at and below the bounds
REPLACEMENTS = ["text", None, True, [], {}, -1, 0, 0.5]


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _subschemas(schema[key])
    for sub in schema.get("anyOf", []):
        yield from _subschemas(sub)


def test_schema_uses_only_implemented_keywords():
    for schema in _subschemas(JOB_SCHEMA):
        assert set(schema) <= IMPLEMENTED, set(schema) - IMPLEMENTED
        assert schema.get("type", "object") in _TYPES
        assert isinstance(schema.get("additionalProperties", False), (dict, bool))
        for alternative in schema.get("oneOf", []):
            assert set(alternative) == {"required"}, alternative


def _nodes(value, schema, path=()):
    """Yield (path, schema branches) for every node of a valid job."""
    branches = schema.get("anyOf", [schema])
    yield path, branches
    for branch in branches:
        if isinstance(value, dict) and branch.get("type") == "object":
            for key, item in value.items():
                props = branch.get("properties", {})
                yield from _nodes(item, props.get(key, branch.get("additionalProperties")),
                                  path + (key,))
        elif isinstance(value, list) and branch.get("type") == "array":
            for i, item in enumerate(value):
                yield from _nodes(item, branch["items"], path + (i,))


def _pointer(path):
    return "".join(f"/{part}" for part in path)


def _value_at(job, path):
    for part in path:
        job = job[part]
    return job


def _mutated(job, path, change):
    """A deep copy of ``job`` with ``change(parent, key)`` applied at ``path``."""
    job = copy.deepcopy(job)
    change(_value_at(job, path[:-1]), path[-1])
    return job


def _replace(value):
    def change(node, key):
        node[key] = value
    return change


def _delete(node, key):
    del node[key]


def _base_jobs():
    jobs = {p.stem: json.loads(p.read_text()) for p in sorted(JOBS.glob("*.json"))}
    boxed = copy.deepcopy(jobs["h2_like"])
    boxed["lorentzian"].pop("centers")
    boxed["lorentzian"]["box"] = {"box_min": [2.5, 3.0, 3.0], "box_edges": [3.0, 2.0, 2.0],
                                  "counts": [2, 1, 1]}
    boxed["lorentzian"]["initial_widths"] = {"x": [0.6, 0.6], "y": [0.6], "z": [0.6]}
    jobs["h2_box"] = boxed
    return jobs


def _corpus():
    """Yield (case id, job, pointer our validator must name, tightened).

    Single-field mutations of the shipped jobs and a box-layout variant.  A
    tightened case holds an integral float in an integer field or a
    non-finite number in a number field: JSON Schema accepts it, the job
    loader must not.
    """
    layouts = {"centers": {"x": [1], "y": [1], "z": [1]},
               "box": {"box_min": [2.0] * 3, "box_edges": [4.0] * 3, "counts": [1, 1, 1]}}
    for name, job in _base_jobs().items():
        yield name, job, None, False
        both = _replace({**layouts, **job["lorentzian"]})
        yield f"{name} centers+box", _mutated(job, ("lorentzian",), both), "/lorentzian", False
        for path, branches in _nodes(job, JOB_SCHEMA):
            where = _pointer(path)
            value = _value_at(job, path)
            types = {b["type"] for b in branches if "type" in b}
            if isinstance(value, dict):
                # an unknown key under a value schema is checked against it
                named = where + "/unexpected" * any(
                    isinstance(b.get("additionalProperties"), dict) for b in branches)
                yield (f"{name} {where}/unexpected",
                       _mutated(job, path + ("unexpected",), _replace(1)), named, False)
            if isinstance(value, list):
                longer = _replace(value + value[-1:])
                yield f"{name} {where}+item", _mutated(job, path, longer), where, False
            if not path:
                continue
            for bad in REPLACEMENTS:
                yield f"{name} {where}={bad!r}", _mutated(job, path, _replace(bad)), where, False
            if isinstance(path[-1], str):
                parent = _pointer(path[:-1])
                yield f"{name} del {where}", _mutated(job, path, _delete), parent, False
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                for bad in (math.nan, math.inf):
                    yield (f"{name} {where}={bad}", _mutated(job, path, _replace(bad)),
                           where, "number" in types)
            if isinstance(value, int) and not isinstance(value, bool):
                floated = _replace(float(value))
                yield (f"{name} {where}={float(value)}", _mutated(job, path, floated),
                       where, types == {"integer"})


CORPUS = list(_corpus())


def _ours(job):
    try:
        _validate(job, JOB_SCHEMA)
    except JobError as exc:
        return exc.pointer
    return None


def test_corpus_covers_every_kind_of_case():
    ids = [case[0] for case in CORPUS]
    assert len(ids) == len(set(ids))
    assert sum(case[3] for case in CORPUS) >= 20
    for needle in ("del /molecule", "del /lorentzian/centers", "/fit/unexpected",
                   "/cell/origin+item", "centers+box", "/cell/n_qe=4.0", "/lorentzian/initial_widths/x=",
                   "/cpd/ranks/0=1.0", "/lorentzian/alpha_pen=nan"):
        assert any(needle in i for i in ids), needle


def test_same_decisions_as_jsonschema_outside_the_tightenings():
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(JOB_SCHEMA)
    mismatches = []
    for case, job, pointer, tightened in CORPUS:
        ours, theirs = _ours(job), reference.is_valid(job)
        # a tightened case must pass the reference and fail ours
        if (ours is None) != (theirs and not tightened) or (tightened and not theirs):
            mismatches.append(f"{case}: reference accepts: {theirs}, ours rejects at {ours!r}")
        elif ours is not None and pointer is not None and ours != pointer:
            mismatches.append(f"{case}: pointer {ours!r}, expected {pointer!r}")
    assert not mismatches, "\n".join(mismatches)


def test_every_accepted_job_builds_or_names_its_field():
    # the cell, AO and basis constructors hold rules the schema does not
    # repeat; a job that breaks one exits 2 with a pointer, not as a crash
    uncaught, pointers = [], set()
    for case, job, _, _ in CORPUS:
        try:
            _validate(job, JOB_SCHEMA)
            _check_cross_references(job)
        except JobError:
            continue
        try:
            cell = _job_cell(job)
            _job_molecule(job)
            _job_spec(job, cell)
        except JobError as exc:
            pointers.add(exc.pointer.rstrip("0123456789"))
        except Exception as exc:  # noqa: BLE001 - every escape is collected
            uncaught.append(f"{case}: {type(exc).__name__}: {exc}")
    assert not uncaught, "\n".join(uncaught)
    assert {"/cell", "/molecule/aos/"} <= pointers
