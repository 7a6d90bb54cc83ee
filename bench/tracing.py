"""Span recorder that wraps ``mflo``'s public names from outside the package.

Spans are kept in memory as (name, start, end, parent, op, attrs) and
written as JSONL when the run ends.  Wrapping replaces a name where the
calling module looks it up (``mflo.cli.optimize_widths``, not
``mflo.fitting.optimize_widths``), so the code under ``src/`` is unchanged.
A name that no longer exists is recorded as absent instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path


def _grid_bytes(args, kwargs, result) -> dict:
    cell = args[1] if len(args) > 1 else kwargs["cell"]
    return {"grid_bytes": 8 * (1 << (3 * cell.n_qe))}


#: relative tolerance for counting a restart as one that reached the best error
BEST_RESTART_RTOL = 1e-6


def _restart_outcomes(args, kwargs, result) -> dict:
    errors = list(result.restart_errors)
    best = min(errors)
    reached = sum(e <= best * (1.0 + BEST_RESTART_RTOL) + 1e-15 for e in errors)
    return {"restarts": len(errors), "best_restarts": reached}


#: (module, attribute path, span name, hook adding attrs from the call)
TARGETS = (
    ("mflo.cli", "main", "cli.main", None),
    ("mflo.cli", "load_job", "cli.load_job", None),
    ("mflo.fitting", "build_ideal_state", "basis.build_ideal_state", _grid_bytes),
    ("mflo.cli", "optimize_widths", "fitting.optimize_widths", None),
    ("mflo.cli", "overlap_3d", "fitting.overlap_3d", None),
    ("mflo.cli", "t_tensor", "fitting.t_tensor", None),
    ("mflo.cli", "decompose_core", "cpd.decompose_core", None),
    ("mflo.cpd", "cp_decompose", "cpd.cp_decompose", _restart_outcomes),
    ("mflo.cpd", "normalize_factors", "cpd.normalize_factors", None),
    ("mflo.cli", "success_prob_tucker", "encoding.success_prob_tucker", None),
    ("mflo.cli", "success_prob_canonical", "encoding.success_prob_canonical", None),
    ("mflo.fitting", "overlap_1d", "lorentzian.overlap_1d", None),
    ("mflo.cpd", "overlap_1d", "lorentzian.overlap_1d", None),
    ("mflo.encoding", "overlap_1d", "lorentzian.overlap_1d", None),
    ("mflo.lorentzian", "LorentzianBasisSpec.state_matrix", "lorentzian.state_matrix", None),
    ("mflo.lorentzian", "LorentzianBasisSpec.state_da_matrix", "lorentzian.state_da_matrix", None),
)


class Tracer:
    """Records nested spans of wrapped calls while installed."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.op: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for module_name, path, span, hook in TARGETS:
            owner, attr = self._resolve(module_name, path)
            if owner is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span, hook))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(module_name: str, path: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not callable(getattr(owner, attr, None)):
            return None, None
        return owner, attr

    def _wrap(self, original, span: str, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = {"name": span, "start": time.perf_counter(), "end": None,
                      "parent": tracer._stack[-1] if tracer._stack else None,
                      "op": tracer.op, "attrs": {}}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                record["end"] = time.perf_counter()
            if hook is not None:
                record["attrs"] = hook(args, kwargs, result)
            return result

        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s["name"], "op": s["op"], "parent": s["parent"],
                    "start": s["start"] - self.origin, "end": s["end"] - self.origin,
                    "attrs": s["attrs"]}, sort_keys=True) + "\n")


class SpanSummary:
    """Per-name calls, busy time and self time over a slice of the spans."""

    def __init__(self, spans: list[dict], first: int, last: int):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.attrs: dict[str, float] = {}
        child_time = [0.0] * (last - first)
        for i in range(first, last):
            s = spans[i]
            if s["parent"] is not None and s["parent"] >= first:
                child_time[s["parent"] - first] += s["end"] - s["start"]
        for i in range(first, last):
            s = spans[i]
            name = s["name"]
            duration = s["end"] - s["start"]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - child_time[i - first]
            self.busy[name] = self.busy.get(name, 0.0) + duration
            for key, value in s["attrs"].items():
                self.attrs[key] = self.attrs.get(key, 0) + value
        self._spans, self._first, self._last = spans, first, last

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` that have an ``ancestor`` span above them."""
        spans, count = self._spans, 0
        for i in range(self._first, self._last):
            if spans[i]["name"] != name:
                continue
            parent = spans[i]["parent"]
            while parent is not None and parent >= self._first:
                if spans[parent]["name"] == ancestor:
                    count += 1
                    break
                parent = spans[parent]["parent"]
        return count
