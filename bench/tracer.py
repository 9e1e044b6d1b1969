"""Span tracer for halftwist, installed from outside the package.

The tracer replaces public functions of the halftwist modules with
wrappers.  A module that took a function through ``from ... import``
holds its own binding, so every loaded ``halftwist`` namespace that
binds the original object is patched, and `Tracer.uninstall` puts every
original back.

Three kinds of target exist:

* span targets record a span (name, start, end, parent) per call;
* count targets only count calls (and distinct arguments), so their
  time stays in the self time of the calling span;
* the generator target counts the items it yields.

Spans stay in memory; `Tracer.write_spans` writes them out at the end.
"""

from __future__ import annotations

import builtins
import json
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

from stats import tail

ROOT = -1  # parent index of a span opened outside every other span


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    kind: str = "span"  # "span", "count", "yield" or "init"
    distinct: bool = False
    label: Optional[Callable] = None  # call arguments -> label of the span

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _claim_id(claim, *_args, **_kwargs) -> str:
    return claim.claim_id


TARGETS = (
    Target("claims", "evaluate", label=_claim_id),
    Target("sweeps", "run_check"),
    Target("covers", "primitive_V"),
    Target("covers", "qt_decompose"),
    Target("covers", "half_twist_exists_direct"),
    Target("covers", "build_W"),
    Target("covers", "half_twist_any_cmtype"),
    Target("hodge", "CMHodgeStructure", kind="init"),
    Target("hodge", "tensor"),
    Target("hodge", "tensor_invariants"),
    Target("hodge", "pos_half_twist"),
    Target("hodge", "tate_twist"),
    Target("jacobian", "eigenspace_dims", distinct=True),
    Target("jacobian", "count_bounded_monomials", kind="count", distinct=True),
    Target("jacobian", "shioda_tuple_count"),
    Target("jacobian", "exact_rank"),
    Target("jacobian", "build_w_quotient"),
    Target("jacobian", "torelli_differential_rank"),
    Target("jacobian", "verify_cover_parametrization"),
    Target("cyclotomic", "make_cyclotomic", kind="count", distinct=True),
    Target("cyclotomic", "all_cm_types", kind="yield"),
)

SYMPY_IMPORT = "cli.sympy_import"


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, or ROOT
    label: Optional[str] = None


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that the
    union of its child spans covers, in the spans' time unit."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent != ROOT:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _halftwist_namespaces() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "halftwist" or name.startswith("halftwist.")
    ]


class Tracer:
    """Collects spans and counts while installed; see the module doc."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.yielded: Counter = Counter()
        self.matrix: Counter = Counter()  # exact_rank rows/cols/nonzeros/rank
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, label: Optional[str] = None) -> Span:
        parent = self._stack[-1] if self._stack else ROOT
        span = Span(name, 0, 0, parent, label)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()

    def _span_wrapper(self, target: Target, fn):
        name, label, distinct = target.name, target.label, target.distinct
        keys = self.keys[name]
        inspect = self._inspect_matrix if name == "jacobian.exact_rank" else None

        def wrapper(*args, **kwargs):
            if distinct:
                keys.add((args, tuple(kwargs.items())) if kwargs else args)
            if inspect is not None:
                inspect(args[0])
            span = self._open(name, label(*args, **kwargs) if label else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if inspect is not None:
                self.matrix["rank"] += result
            return result

        return wrapper

    def _inspect_matrix(self, rows) -> None:
        self.matrix["rows"] += len(rows)
        self.matrix["cols"] += len(rows[0]) if len(rows) else 0
        self.matrix["nonzeros"] += sum(len(row) - row.count(0) for row in rows)

    def _count_wrapper(self, target: Target, fn):
        name, calls = target.name, self.calls
        keys = self.keys[name] if target.distinct else None

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if keys is not None:
                keys.add((args, tuple(kwargs.items())) if kwargs else args)
            return fn(*args, **kwargs)

        return wrapper

    def _yield_wrapper(self, target: Target, fn):
        name, yielded = target.name, self.yielded

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                yielded[name] += 1
                yield item

        return wrapper

    def _import_wrapper(self, original):
        def traced_import(name, globals=None, locals=None, fromlist=(), level=0):
            if level == 0 and name.partition(".")[0] == "sympy" and "sympy" not in sys.modules:
                span = self._open(SYMPY_IMPORT)
                try:
                    return original(name, globals, locals, fromlist, level)
                finally:
                    self._close(span)
            return original(name, globals, locals, fromlist, level)

        return traced_import

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every halftwist namespace that binds a target; the
        package and its modules must already be imported."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = _halftwist_namespaces()
        for target in TARGETS:
            owner = sys.modules[f"halftwist.{target.module}"]
            original = getattr(owner, target.attr)
            if target.kind == "init":
                init = original.__init__
                self._patch(original, "__init__", self._span_wrapper(target, init))
                continue
            make = {
                "span": self._span_wrapper,
                "count": self._count_wrapper,
                "yield": self._yield_wrapper,
            }[target.kind]
            wrapper = make(target, original)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        self._patch(builtins, "__import__", self._import_wrapper(builtins.__import__))

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start and end (ns), parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                row = [span.name, span.start, span.end, span.parent]
                if span.label is not None:
                    row.append(span.label)
                out.write(json.dumps(row, separators=(",", ":")) + "\n")


# -- per-layer metrics ------------------------------------------------------

MATRIX_FIELDS = ("rows", "cols", "nonzeros", "rank")


def layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = [
        ("cli.import_s", "s", "lower"),
        ("cli.sympy_import_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
        ("claims.evaluate.max_s", "s", "lower"),
        ("sweeps.run_check.tail_s", "s", "lower"),
    ]
    specs += [
        (f"jacobian.exact_rank.{field}", "count", "higher" if field == "rank" else "lower")
        for field in MATRIX_FIELDS
    ]
    for t in TARGETS:
        if t.kind == "yield":
            specs.append((f"{t.name}.yielded", "count", "lower"))
            continue
        specs.append((f"{t.name}.calls", "count", "lower"))
        if t.kind in ("span", "init"):
            specs.append((f"{t.name}.self_s", "s", "lower"))
        if t.distinct:
            specs.append((f"{t.name}.distinct_ratio", "ratio", "higher"))
    return specs


def layer_values(tracer: Tracer) -> tuple[dict[str, float], dict]:
    """Per-layer values of one traced operation, and notes that name the
    slowest claim and the percentile behind the per-cell tail.  The two
    values measured outside the tracer, cli.import_s and
    trace_overhead_s, are left to the caller."""
    by_name: dict[str, list[tuple[Span, int]]] = defaultdict(list)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name[span.name].append((span, own))

    def duration(span: Span) -> float:
        return (span.end - span.start) / 1e9

    values: dict[str, float] = {}
    for t in TARGETS:
        if t.kind == "yield":
            values[f"{t.name}.yielded"] = tracer.yielded[t.name]
            continue
        if t.kind == "count":
            calls = tracer.calls[t.name]
        else:
            calls = len(by_name[t.name])
            values[f"{t.name}.self_s"] = sum(own for _, own in by_name[t.name]) / 1e9
        values[f"{t.name}.calls"] = calls
        if t.distinct:
            values[f"{t.name}.distinct_ratio"] = len(tracer.keys[t.name]) / calls if calls else 0.0
    for field in MATRIX_FIELDS:
        values[f"jacobian.exact_rank.{field}"] = tracer.matrix[field]
    values["cli.sympy_import_s"] = sum((duration(s) for s, _ in by_name[SYMPY_IMPORT]), 0.0)

    notes: dict = {}
    claims = [span for span, _ in by_name["claims.evaluate"]]
    slowest = max(claims, key=duration, default=None)
    values["claims.evaluate.max_s"] = duration(slowest) if slowest else 0.0
    notes["slowest_claim"] = slowest.label if slowest else None
    cells = [duration(span) for span, _ in by_name["sweeps.run_check"]]
    if cells:
        value, percentile = tail(cells)
        notes["run_check_tail"] = {"percentile": percentile, "samples": len(cells)}
    else:
        value = 0.0
    values["sweeps.run_check.tail_s"] = value
    return values, notes
