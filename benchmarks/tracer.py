"""Span tracer that times the package's public functions from outside.

``Tracer.install()`` wraps every function in ``TARGETS`` at *every*
module binding that refers to it: ``kernel_of_rows`` is bound by name in
``linalg``, ``centralizers`` and ``derivations`` and each binding is
replaced, because patching only the defining module silently misses the
calls made through the other names.  Classes are traced through their
``__init__`` and methods on the class itself.

Each call opens a span (name, request id, parent span, start, end).  A
span's self time is its duration minus the durations of its child spans.
Spans stay in memory until ``write_spans``.  The package is never edited
and no private cache is read.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute) pairs; "Class.method" traces a method, a bare class
# name traces construction.  Every name here is reported as a per-layer
# metric, so the self times sum to the traced pass minus unattributed time.
TARGETS = (
    ("cli", "main"),
    ("catalog", "resolve"),
    ("io", "load_json"),
    ("io", "sc_from_doc"),
    ("io", "operator_from_doc"),
    ("io", "dump_json"),
    ("algebra", "StructureConstants"),
    ("algebra", "center"),
    ("algebra", "double_commutator_span"),
    ("gma", "peirce_from_idempotent"),
    ("gma", "m2_of"),
    ("gma", "eta_map"),
    ("gma", "center_block_description"),
    ("centralizers", "solve_identity_space"),
    ("centralizers", "is_identity_member"),
    ("centralizers", "six_map_solution_space"),
    ("centralizers", "verify_thm31_conditions"),
    ("properness", "is_proper_thm33"),
    ("properness", "is_proper_direct"),
    ("properness", "equivalence_audit"),
    ("derivations", "check_gltd_correspondence"),
    ("derivations", "decompose_ltd"),
    ("derivations", "decompose_generalized_ltd"),
    ("derivations", "check_thm41_hypotheses"),
    ("derivations", "central_vanishing_space"),
    ("linalg", "kernel_of_rows"),
    ("linalg", "solve"),
    ("linalg", "Subspace"),
    ("linalg", "Matrix.__matmul__"),
    ("linalg", "Matrix.matvec"),
)

SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TARGETS)

_S, _D, _C = "solve-sparse", "solve-dense", "certify"
# Workloads on which each span must record at least one call; the
# self-test holds a traced run of every workload to this map.
EXERCISED_ON = {
    "cli.main": (_S, _C),
    "catalog.resolve": (_S, _C),
    "io.load_json": (_D, _C),
    "io.sc_from_doc": (_D,),
    "io.operator_from_doc": (_C,),
    "io.dump_json": (_S, _C),
    "algebra.StructureConstants": (_S, _D, _C),
    "algebra.center": (_C,),
    "algebra.double_commutator_span": (_C,),
    "gma.peirce_from_idempotent": (_S, _C),
    "gma.m2_of": (_S, _C),
    "gma.eta_map": (_C,),
    "gma.center_block_description": (_C,),
    "centralizers.solve_identity_space": (_S, _D, _C),
    "centralizers.is_identity_member": (_C,),
    "centralizers.six_map_solution_space": (_C,),
    "centralizers.verify_thm31_conditions": (_C,),
    "properness.is_proper_thm33": (_C,),
    "properness.is_proper_direct": (_C,),
    "properness.equivalence_audit": (_C,),
    "derivations.check_gltd_correspondence": (_C,),
    "derivations.decompose_ltd": (_C,),
    "derivations.decompose_generalized_ltd": (_C,),
    "derivations.check_thm41_hypotheses": (_C,),
    "derivations.central_vanishing_space": (_C,),
    "linalg.kernel_of_rows": (_S, _D, _C),
    "linalg.solve": (_S, _C),
    "linalg.Subspace": (_S, _D, _C),
    "linalg.Matrix.__matmul__": (_S, _D, _C),
    "linalg.Matrix.matvec": (_S, _C),
}

_SOLVE = "centralizers.solve_identity_space"
_KERNEL = "linalg.kernel_of_rows"
_DUMP = "io.dump_json"


class Tracer:
    def __init__(self) -> None:
        self.request = -1
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # span columns: name id, request id, parent span index, start, end
        self.span_name = array("i")
        self.span_request = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open frames: [name id, span index, child time, reached kernel]
        self._stack: list[list] = []
        self.solve_hits = 0
        self.rows_in = 0
        self.rank = 0
        self.bytes_out = 0
        self._patched: list[tuple[object, str]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, nid: int, start: float) -> list:
        idx = len(self.span_name)
        parent = self._stack[-1][1] if self._stack else -1
        self.span_name.append(nid)
        self.span_request.append(self.request)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [nid, idx, 0.0, False]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, end: float) -> None:
        self._stack.pop()
        nid, idx, child, reached = frame
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent[3] = parent[3] or reached

    def _wrap(self, name: str, fn):
        nid = self._ids[name]
        clock = time.perf_counter
        opn, close = self._open, self._close

        if name == _KERNEL:
            tracer = self

            def wrapper(ambient, rows):
                # drain the row iterable first, so generating rows is
                # booked to the caller and the span holds the kernel alone
                rows = list(rows)
                frame = opn(nid, clock())
                try:
                    space = fn(ambient, rows)
                finally:
                    close(frame, clock())
                tracer.rows_in += len(rows)
                tracer.rank += ambient - space.dim
                if tracer._stack:
                    tracer._stack[-1][3] = True
                return space

        elif name == _SOLVE:
            tracer = self

            def wrapper(*args, **kwargs):
                frame = opn(nid, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, clock())
                    if not frame[3]:
                        tracer.solve_hits += 1

        elif name == _DUMP:
            tracer = self

            def wrapper(*args, **kwargs):
                frame = opn(nid, clock())
                try:
                    text = fn(*args, **kwargs)
                finally:
                    close(frame, clock())
                tracer.bytes_out += len(text.encode("utf-8"))
                return text

        else:

            def wrapper(*args, **kwargs):
                frame = opn(nid, clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, clock())

        functools.update_wrapper(wrapper, fn)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every lietriple module binding."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "lietriple" or n.startswith("lietriple."))
        ]
        for mod_name, attr in TARGETS:
            defining = sys.modules[f"lietriple.{mod_name}"]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(defining, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(defining, attr)
            if isinstance(orig, type):
                self._patch(orig, "__init__", self._wrap(name, orig.__dict__["__init__"]))
                continue
            wrapper = self._wrap(name, orig)
            bound = 0
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"no binding of {name} found")

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key))
        setattr(owner, key, value)

    def bindings(self) -> list[str]:
        """Where each wrapper was installed, as 'owner.key' strings."""
        out = []
        for owner, key in self._patched:
            owner_name = owner.__name__ if not isinstance(owner, type) else f"{owner.__module__}.{owner.__qualname__}"
            out.append(f"{owner_name}.{key}")
        return out

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span calls and self time, plus the layer counters."""
        solves = self.calls[self._ids[_SOLVE]]
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "solve_cache_hits": self.solve_hits,
            "solve_calls": solves,
            "kernel_rows_in": self.rows_in,
            "kernel_rank": self.rank,
            "dump_bytes_out": self.bytes_out,
            "spans": len(self.span_name),
        }

    def write_spans(self, path: str) -> None:
        """Spans as JSON columns; start/end are perf_counter seconds."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "request": self.span_request.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
