"""Spans around the calls into each ecse module, installed from outside.

Each entry of ``WRAPS`` names a module, the attribute under which that module
looks a function up, and the span name recorded around each call.  Wrapping
the attribute where the caller looks it up (``ecse.cli.solve_dp``, not
``ecse.score_dp.solve_dp``) times exactly the calls that caller makes.  Only
entry points called per instance, per level, per level type, per forcing
step or per search node are wrapped, never per-agent helpers.

Spans live in memory as ``[name, start, end, parent, solve]`` lists and are
written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from ecse.model import GuardExceeded


def _count_hits(counts: Counter, args, result) -> None:
    counts["model.trivial_hits"] += result is not None


def _count_forcing(counts: Counter, args, result) -> None:
    counts["tau2.force_calls"] += 1
    counts["tau2.agents_scanned"] += args[0].n


def _count_committees(counts: Counter, args, result) -> None:
    counts["model.committees_enumerated"] += len(result)


# (module, attribute, span name, counter fed with (counts, args, result))
WRAPS = (
    ("ecse.formats", "parse_instance", "formats.parse", None),
    ("ecse.cli", "trivial_solve", "model.trivial", _count_hits),
    ("ecse.cli", "solve_qcse_tau2", "tau2", None),
    ("ecse.tau2", "trivial_solve", "model.trivial", _count_hits),
    ("ecse.tau2", "apply_x2_rules", "tau2.rules", None),
    ("ecse.tau2", "rr_x2_force_single", "tau2.force", _count_forcing),
    ("ecse.tau2", "build_cbivcs", "tau2.graph", None),
    ("ecse.tau2", "solve_cbivcs", "tau2.sweep", None),
    ("ecse.cli", "solve_dp", "score_dp", None),
    ("ecse.score_dp", "rename_candidates", "model.rename", None),
    ("ecse.score_dp", "level_fingerprints", "model.enumerate", None),
    ("ecse.model", "valid_committees", "model.enumerate", _count_committees),
    ("ecse.cli", "solve_branch", "branching", None),
    ("ecse.branching", "rr_pe_qcse_zero_y", "branching.zero_rule", None),
    ("ecse.cli", "solve_ip", "ip", None),
    ("ecse.ip", "rename_candidates", "model.rename", None),
    ("ecse.ip", "build_ip", "ip.build", None),
    ("ecse.ip", "valid_committees", "model.enumerate", _count_committees),
    ("ecse.ip", "solve_ip_naive", "ip.search", None),
    ("ecse.cli", "brute_solve", "oracle", None),
    ("ecse.oracle", "rename_candidates", "model.rename", None),
    ("ecse.oracle", "enumerate_valid_committees", "model.enumerate", None),
)


class Tracer:
    """Span recorder; ``installed()`` puts its wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.solve = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as the whole solve."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def abandon(self) -> None:
        """Forget open spans after a deadline interrupted a solve."""
        self._stack.clear()

    def wrap(self, fn, name: str, count=None):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except GuardExceeded:
                self.counts[name + ".refused"] += 1
                raise
            finally:
                self._close(record)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every ``WRAPS`` attribute by a wrapper; restore the
        originals on the way out, whatever happens inside."""
        originals = []
        try:
            for module_name, attr, name, count in WRAPS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, count))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def totals_ms(self) -> tuple[Counter, Counter]:
        """Per span name: inclusive milliseconds, counting a span only when
        no enclosing span has the same name, and self milliseconds, which
        exclude the time of child spans."""
        spans = self.spans
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, parent, _ in spans:
            if end < start:
                continue  # left open by a deadline
            took = (end - start) * 1e3
            own[name] += took
            if parent >= 0:
                own[spans[parent][0]] -= took
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                inclusive[name] += took
        return inclusive, own

    def write(self, path: Path) -> None:
        """One JSON line per span: solve index, name, start and duration in
        microseconds from the first span, and parent span index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, solve in self.spans:
                row = [solve, name, round((start - origin) * 1e6, 1),
                       round((end - start) * 1e6, 1), parent]
                out.write(json.dumps(row) + "\n")
