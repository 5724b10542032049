"""Span recorder for the traced benchmark run.

The recorder wraps public layer functions in their module namespaces.  The
package looks these functions up through the module at call time (sweep
calls ``assembly.assemble``, ``normal_mode_verdict`` calls ``gks_scan``,
the steppers call ``tridiagonal_solve``), so a wrapper installed with
``setattr`` sees the internal calls as well as the benchmark's own.  The
package source is never modified; ``installed()`` restores the originals.

Spans are kept in memory as (name, start, end, parent, run id, phase) and
written out when the run ends; the phase tells set-up from the traced
passes.  A span's self time is its duration minus the time covered by its
direct children.
"""

import contextlib
import inspect
import os
import time
from collections import Counter

ROOT = -1


def _dense_m_bytes(args, result):
    return {"spectral.dense_bytes": result.nbytes}


def _artifact_bytes(args, result):
    return {"sweep.artifact_bytes": os.path.getsize(args["path"])}


def _roots(args, result):
    return {"normalmode.roots": len(result)}


def _matvec_step(args, result):
    n = args["pair"].n
    return {"stepper.dense_matvec_bytes": 8 * n * n}


def _matvec_power(args, result):
    n = args["pair"].n
    return {"stepper.dense_matvec_bytes": 8 * n * n * args["steps"]}


# (module, function, counter); the counter maps bound arguments and the
# result to computed quantities, e.g. bytes of a dense matrix (8 n^2).
LAYERS = (
    ("assembly", "assemble", None),
    ("spectral", "update_matrix", _dense_m_bytes),
    ("spectral", "eigen_spectrum", None),
    ("spectral", "classify", None),
    ("sweep", "run_sweep", None),
    ("sweep", "write_csv", _artifact_bytes),
    ("sweep", "write_pgm", _artifact_bytes),
    ("normalmode", "gks_scan", _roots),
    ("normalmode", "normal_mode_verdict", None),
    ("cli", "cli_main", None),
    ("stepper", "run_monolithic", None),
    ("stepper", "run_partitioned", None),
    ("stepper", "step_monolithic", _matvec_step),
    ("stepper", "step_partitioned", None),
    ("stepper", "tridiagonal_solve", None),
    ("stepper", "power_growth_rate", _matvec_power),
)


class Tracer:
    """In-memory spans and counters for one benchmark process."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.counters = Counter()
        self.run_id = 0
        self.phase = "setup"
        self._stack = []
        self._origin = time.perf_counter()

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else ROOT
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id, self.phase)
            self.counters[name + ".calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters.update(counter(bound.arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer function for its traced wrapper, then restore."""
        originals = []
        try:
            for module_name, attr, counter in LAYERS:
                module = self.modules[module_name]
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def span(self, name, run_id):
        """Root span around one timed call of the benchmark."""
        self.run_id = run_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, ROOT, run_id, self.phase)

    def self_times(self, phase=None):
        """Per-name (calls, total seconds, self seconds), optionally one phase."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent != ROOT:
                covered[parent] += end - start
        table = {}
        for (name, start, end, _, _, span_phase), child in zip(self.spans, covered):
            if phase is not None and span_phase != phase:
                continue
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return table

    def span_records(self):
        return [
            {"name": name, "start": start - self._origin, "end": end - self._origin,
             "parent": parent, "run_id": run_id, "phase": phase}
            for name, start, end, parent, run_id, phase in self.spans
        ]
