"""In-memory spans recorded around the benchmark's calls into geomprod.

A :class:`Tracer` keeps one record per span: name, start, end, parent span
and operation id, plus counters attached by the caller (characters parsed,
factors, trials, rows).  Nothing is written until the run ends.  The
untraced run uses :data:`NULL`, whose spans record nothing, so the same
operation code serves both runs.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.index = -1

    def __enter__(self) -> "_Span":
        tr = self.tracer
        if not tr.stack:  # a top-level span starts a new operation
            tr.op_id += 1
        parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append([self.name, perf_counter(), 0.0, parent, tr.op_id, self.attrs])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr.spans[self.index][2] = perf_counter()
        tr.stack.pop()

    def set(self, **attrs) -> None:
        """Attach counters known only after the call returned."""
        self.attrs.update(attrs)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set(self, **attrs) -> None:
        pass


class _NullTracer:
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


NULL = _NullTracer()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op, attrs."""
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op, "attrs": attrs}
                    )
                )
                fh.write("\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: durations, self times and summed counters.

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it without overlapping.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, attrs) in enumerate(self.spans):
            s = out.setdefault(name, {"durations": [], "self_s": 0.0, "attrs": {}})
            s["durations"].append(end - start)
            s["self_s"] += end - start - child_time[i]
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    s["attrs"][key] = s["attrs"].get(key, 0) + value
                else:
                    counts = s["attrs"].setdefault(key, {})
                    counts[value] = counts.get(value, 0) + 1
        return out


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by the inclusive method; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]
