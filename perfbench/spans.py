"""Span tracing of hermseq's public functions, installed from outside the package.

Each traced function is replaced by a wrapper that records one span
(name, start, end, parent) per call.  Spans are kept in flat arrays while
the workload runs and are written out afterwards.  A layer's self time is
the sum of its spans' durations minus the durations of their direct child
spans.

Python binds imported names per module: ``hermseq.verify`` holds its own
reference to ``exists_recurrence``, ``hermseq.sequence`` its own
``eval_quotient``, and so on.  A wrapper installed only in the defining
module would miss those calls, so every ``hermseq`` module attribute that is
the original function is replaced.  Methods are patched on their class,
which every import site shares.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# span name -> (module, attribute); "Class.method" attributes patch the class
TRACED = {
    "field.context": ("hermseq.field", "FieldContext.__init__"),
    "field.offer": ("hermseq.field", "SpanTracker.offer"),
    "field.fiber": ("hermseq.field", "FieldContext.hermitian_fiber"),
    "complexity.exists": ("hermseq.complexity", "exists_recurrence"),
    "complexity.profile": ("hermseq.complexity", "nonlinear_complexity"),
    "complexity.oracle": ("hermseq.complexity", "brute_force_oracle"),
    "curve.eval_quotient": ("hermseq.curve", "eval_quotient"),
    "curve.scale_place": ("hermseq.curve", "scale_place"),
    "curve.affine_places": ("hermseq.curve", "affine_places"),
    "sequence.build": ("hermseq.sequence", "build_sequence"),
    "bounds.figure_rows": ("hermseq.bounds", "figure_rows"),
    "bounds.n_improves": ("hermseq.bounds", "n_bound_improves"),
    "bounds.l_improves": ("hermseq.bounds", "l_bound_improves"),
    "bounds.l_twopoint_condition": ("hermseq.bounds", "l_twopoint_condition"),
    "bounds.l_improves_twopoint": ("hermseq.bounds", "l_bound_improves_twopoint"),
    "verify.field": ("hermseq.verify", "check_field"),
    "verify.structure": ("hermseq.verify", "check_structure"),
    "verify.sequence_layer": ("hermseq.verify", "check_sequence_layer"),
    "verify.nonzero_terms": ("hermseq.verify", "check_nonzero_terms"),
    "verify.bound_consistency": ("hermseq.verify", "check_bound_consistency"),
    "verify.oracle_agreement": ("hermseq.verify", "check_oracle_agreement"),
    "verify.n_improvement": ("hermseq.verify", "check_n_improvement"),
    "verify.l_improvement": ("hermseq.verify", "check_l_improvement"),
    "verify.l_twopoint_equivalence": ("hermseq.verify", "check_l_twopoint_equivalence"),
    "verify.figures": ("hermseq.verify", "check_figures"),
    "verify.suite": ("hermseq.verify", "run_suite"),
    "cli.main": ("hermseq.cli", "main"),
}

# spans whose truthy return value is counted as a success
COUNT_TRUE = {"complexity.exists"}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.true_results: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records a span called name."""
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        clock, stack = self.clock, self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        count_true = name in COUNT_TRUE
        true_results = self.true_results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if count_true and result:
                true_results[name] += 1
            return result

        return traced

    def install(self, spans=TRACED) -> None:
        """Patch every hermseq import site of each function named in spans."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hermseq" or key.startswith("hermseq.")]
        for name, (module_name, attr) in spans.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, self time and total time, plus the
        number of truthy results for the names in COUNT_TRUE."""
        names, parent, start, end = (self.span_name, self.span_parent,
                                     self.span_start, self.span_end)
        child_time = [0.0] * len(names)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += end[i] - start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in self.names}
        for i, name_id in enumerate(names):
            row = out[self.names[name_id]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[i]
        for name, count in self.true_results.items():
            out[name]["true"] = count
        return out

    def write(self, path: str) -> None:
        """Write every span as CSV: index,name,parent,start,end."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.names[self.span_name[i]]},"
                         f"{self.span_parent[i]},{self.span_start[i]!r},"
                         f"{self.span_end[i]!r}\n")
