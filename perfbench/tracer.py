"""Span tracer that wraps degengate's public functions from the outside.

The tracer replaces each listed function under every module-level name
that binds it (``degengate.search.gate_purity`` as well as
``degengate.redfield.gate_purity``, the package re-export, and the names
``redfield._pipeline`` resolves at call time), records one span per call
in memory, and restores the originals on exit. Nothing under ``src/`` is
edited.

A span is ``(span_id, label, start, end, parent_id, op_id)``; spans are
kept in one flat ``array('d')`` so that holding hundreds of thousands of
them adds no objects for the garbage collector to scan. Spans opened in
a worker thread with no enclosing span of their own take the innermost
open span of the op's main thread as their parent, so the threads a
sweep starts stay attached to that sweep.
"""

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
from array import array
from collections import defaultdict

#: (label, module, attribute path) of every traced function.
TARGETS = [
    ("hamiltonian.build_hamiltonian", "degengate.hamiltonian", "build_hamiltonian"),
    ("hamiltonian.eigensystem", "degengate.hamiltonian", "eigensystem"),
    ("hamiltonian.classify_degeneracy", "degengate.hamiltonian", "classify_degeneracy"),
    ("noise.spectral_function", "degengate.noise", "spectral_function"),
    ("redfield.lambda_rates", "degengate.redfield", "lambda_rates"),
    ("redfield.redfield_tensor", "degengate.redfield", "redfield_tensor"),
    ("redfield.RedfieldTensor.liouvillian", "degengate.redfield", "RedfieldTensor.liouvillian"),
    ("redfield.initial_product_states", "degengate.redfield", "initial_product_states"),
    ("redfield.initial_purity_slope", "degengate.redfield", "initial_purity_slope"),
    ("redfield.gate_purity", "degengate.redfield", "gate_purity"),
    ("redfield.sequence_gate_purity", "degengate.redfield", "sequence_gate_purity"),
    ("metrics.report", "degengate.metrics", "report"),
    ("metrics.gate_distance", "degengate.metrics", "gate_distance"),
    ("metrics.makhlin_invariants", "degengate.metrics", "makhlin_invariants"),
    ("constructions.cnot_class_pulse", "degengate.constructions", "cnot_class_pulse"),
    ("constructions.find_class_time_scale", "degengate.constructions", "find_class_time_scale"),
    ("constructions.protocol_comparison", "degengate.constructions", "protocol_comparison"),
    ("search.optimize", "degengate.search", "optimize"),
    ("search.sweep", "degengate.search", "sweep"),
    ("search.sensitivity", "degengate.search", "sensitivity"),
    ("search.calibrate", "degengate.search", "calibrate"),
    ("search.degeneracy_break_probe", "degengate.search", "degeneracy_break_probe"),
    ("cli.main", "degengate.cli", "main"),
    ("cli.write_csv", "degengate.cli", "write_csv"),
    ("cli.write_json", "degengate.cli", "write_json"),
    # search and constructions bind scipy's expm at import; metrics.report
    # imports it from scipy.linalg on every call.
    ("scipy.expm", "scipy.linalg", "expm"),
]

LABELS = [label for label, _, _ in TARGETS]

#: Label of the span the benchmark opens around each op.
OP_LABEL = "op"

#: All span labels; a span stores its label as an index into this list.
SPAN_LABELS = LABELS + [OP_LABEL]
FIELDS = ("span", "label", "start", "end", "parent", "op")


def _count_trace(counts, result, args, kwargs):
    counts["redfield.trace_samples"] += len(result.times)


def _count_optimize(counts, result, args, kwargs):
    counts["search.optimize.evaluations"] += result.evaluations
    counts["search.optimize.converged"] += int(result.converged)


def _count_sweep(counts, result, args, kwargs):
    counts["search.sweep.cells"] += result.decay_rate.size
    counts["search.sweep.failed_cells"] += sum(
        1 for why in result.reason.flat if str(why).startswith("error")
    )


def _count_bytes(counts, result, args, kwargs):
    counts["cli.bytes_written"] += os.path.getsize(args[0])


#: Counts taken at a layer boundary from the wrapped call's result.
COUNTERS = {
    "redfield.gate_purity": _count_trace,
    "redfield.sequence_gate_purity": _count_trace,
    "search.optimize": _count_optimize,
    "search.sweep": _count_sweep,
    "cli.write_csv": _count_bytes,
    "cli.write_json": _count_bytes,
}


def _resolve(module_name, path):
    obj = sys.modules[module_name]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


class Tracer:
    """Context manager: wraps the TARGETS on entry, restores them on exit."""

    def __init__(self):
        self.buf = array("d")
        self.counts = defaultdict(int)
        self.op_id = -1
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = None
        self._restore = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        originals = {}
        for label, module_name, path in TARGETS:
            owner, attr, fn = _resolve(module_name, path)
            wrapper = self._wrap(label, fn)
            originals[id(fn)] = (fn, wrapper)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "degengate" or name.startswith("degengate."))]
        modules.append(sys.modules["scipy.linalg"])
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, name, value, hit[1])
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False

    def _patch(self, owner, attr, fn, wrapper):
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def _wrap(self, label, fn):
        counter = COUNTERS.get(label)
        code = SPAN_LABELS.index(label)
        buf, stacks, ids = self.buf, self._stacks, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            parent = stack[-1] if stack else self._main_parent()
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.extend((sid, code, start, end, parent, self.op_id))
            if counter is not None:
                counter(self.counts, result, args, kwargs)
            return result

        return wrapper

    def _main_parent(self):
        stack = self._stacks.get(self._main)
        return stack[-1] if stack else 0

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id):
        """Open the root span of op ``op_id`` (an integer) in the calling thread."""
        self.op_id = op_id
        self._main = threading.get_ident()
        sid = next(self._ids)
        self._stacks.setdefault(self._main, []).append(sid)
        return sid, time.perf_counter()

    def end_op(self, token):
        sid, start = token
        end = time.perf_counter()
        self._stacks[self._main].pop()
        self.buf.extend((sid, len(LABELS), start, end, 0, self.op_id))
        self.op_id = -1

    def spans(self):
        """Recorded spans as tuples with the label as a string; parent 0 is none."""
        b = self.buf
        for k in range(0, len(b), len(FIELDS)):
            sid, code, start, end, parent, op = b[k:k + len(FIELDS)]
            yield int(sid), SPAN_LABELS[int(code)], start, end, int(parent), int(op)

    def write(self, path):
        """Write all spans (gzip-compressed JSON) and return the path."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"fields": FIELDS, "labels": SPAN_LABELS, "spans": self.buf.tolist()}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
        return path


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    ``spans`` holds ``(span_id, start, end, parent_id)`` tuples. At each
    instant the time goes to the open spans that have no open child; when
    spans of several threads run at once, that instant is shared equally
    among them, so the self times of an op's spans add up to the op's
    duration. Returns ``{span_id: seconds}``.
    """
    events = []
    for sid, start, end, parent in spans:
        events.append((start, 1, sid, parent))
        events.append((end, 0, -sid, parent))
    # At equal times: ends before starts, children end before parents,
    # parents start before children (span ids increase with entry order).
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    open_children = defaultdict(int)
    alive, leaves = set(), set()
    out = defaultdict(float)
    last = None
    for t, kind, key, parent in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for s in leaves:
                out[s] += share
        last = t
        if kind == 1:
            sid = key
            if parent in alive:
                open_children[parent] += 1
                leaves.discard(parent)
            alive.add(sid)
            leaves.add(sid)
        else:
            sid = -key
            alive.discard(sid)
            leaves.discard(sid)
            if parent in alive:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(out)


def summarize(spans):
    """Per-op totals of recorded spans (as ``Tracer.spans()`` yields them).

    Returns ``{op_id: (self_sum, labels)}`` where ``labels[label] =
    [calls, self_s]`` and ``self_sum``, the total self time of the op's
    spans, equals the op's duration when every span is accounted for.
    """
    per_op = defaultdict(list)
    for sid, label, start, end, parent, op in spans:
        per_op[op].append((sid, label, start, end, parent))
    out = {}
    for op, items in per_op.items():
        st = self_times([(sid, start, end, parent) for sid, _, start, end, parent in items])
        labels = defaultdict(lambda: [0, 0.0])
        for sid, label, _, _, _ in items:
            labels[label][0] += 1
            labels[label][1] += st.get(sid, 0.0)
        out[op] = (sum(st.values()), dict(labels))
    return out
