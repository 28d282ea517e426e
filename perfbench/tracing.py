"""Spans around the calls into the program's public functions.

The benchmark cannot edit the program, so it records spans by rebinding
each traced function, in every isoclinic module that holds it, to a wrapper
for the length of a traced pass.  Calls made inside the program (for
example build_conference inside equivalence_witnesses) are then recorded as
children of the calling span.  Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (module, function) -> span name.  A span name is the per-layer metric
# name without its unit suffix.
TRACED = {
    ("conference", "build_conference"): "conference.build",
    ("conference", "verify_counts"): "conference.counts",
    ("conference", "equivalence_witnesses"): "conference.witnesses",
    ("conference", "conference_residual"): "conference.residual",
    ("seidel", "build_seidel"): "seidel.build",
    ("seidel", "seidel_square_residual"): "seidel.square_residual",
    ("seidel", "spectrum"): "seidel.spectrum",
    ("planes", "build_gram"): "planes.gram",
    ("planes", "extract_bases"): "planes.extract",
    ("planes", "orthonormality_residual"): "planes.orthonormality",
    ("planes", "isoclinic_residual"): "planes.isoclinic",
    ("planes", "ls_bound"): "planes.bound",
    ("hadamard", "double"): "hadamard.double",
    ("hadamard", "hadamard_residual"): "hadamard.residual",
    ("export", "serialize"): "export.serialize",
    ("export", "parse"): "export.parse",
    ("cli", "build_record"): "cli.build_record",
}

# Functions whose peak allocation is measured in the separate tracemalloc pass.
PEAK = {
    key: name
    for key, name in TRACED.items()
    if name in ("conference.counts", "planes.extract", "hadamard.double", "export.serialize", "export.parse")
}


class Tracer:
    """In-memory span recorder: (id, parent, op, name, start, end) per span.

    op is the id of the root span, so the spans of one benchmark operation
    share it.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = [sid, None if parent is None else parent[0], sid if parent is None else parent[2], name, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[4] = time.perf_counter()
        try:
            yield
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def span_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per span name.

    Self time is a span's duration minus the durations of its children.
    """
    inclusive: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    for sid, parent, _op, name, start, end in spans:
        inclusive[name] += end - start
        if parent is not None:
            children[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for sid, _parent, _op, name, start, end in spans:
        own[name] += end - start - children[sid]
    return inclusive, own


def _program_modules():
    return [m for n, m in list(sys.modules.items()) if n == "isoclinic" or n.startswith("isoclinic.")]


@contextmanager
def patched(make_wrapper, targets=TRACED, modules=None):
    """Rebind each target function to make_wrapper(fn, span_name) for the length of the block.

    targets maps (module, function) to a span name.  The function is
    rebound wherever the program binds it, or only in the named modules
    (such as "isoclinic.cli") when modules is given.
    """
    bound_in = [m for m in _program_modules() if modules is None or m.__name__ in modules]
    undo = []
    for (mod_name, attr), span_name in targets.items():
        fn = getattr(sys.modules[f"isoclinic.{mod_name}"], attr)
        wrapper = make_wrapper(fn, span_name)
        for mod in bound_in:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, fn))
    try:
        yield
    finally:
        for mod, key, fn in undo:
            setattr(mod, key, fn)


class PeakMeter:
    """Peak traced allocation per span name, with tracemalloc on only inside the call.

    tracemalloc slows Python-level work several times over, so it runs in a
    pass of its own and never while spans are timed.  The serialized size
    of each export payload is counted here too.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self.serialized_bytes = 0

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes[name], peak)
            if name == "export.serialize":
                self.serialized_bytes += len(result.encode("utf-8"))
            return result

        return measured
