"""Outside-in span tracer for the parinv package.

The tracer changes no file of the program.  While it is active, every public
module-level function of the traced modules is replaced by a timing wrapper,
in the module that defines it and in every module that imported the name
(``from .linalg import det`` makes a second binding in each importer), and
``Matrix.__matmul__`` is wrapped on the class.  Leaving the ``with`` block
restores every original binding.

Self time of a span is its duration minus the durations of its child spans.
Shape spans (``verification.run_suite``) and check spans
(``verification.check_*``) are kept as one record each; all other spans are
aggregated in memory per (function, enclosing check).
"""
from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

SHAPE_SPAN = "verification.run_suite"


def _is_check(name: str) -> bool:
    return name.startswith("verification.check_")


def _shape_label(shape) -> str:
    return f"{shape.kind.value}{shape.n}-" + "-".join(str(p) for p in shape.parts)


def _fraction_bits(x) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


@dataclass
class RankProbe:
    """Counts taken from the arguments at the ``rank`` boundary."""

    max_bits: int = 0
    cells: int = 0

    def __call__(self, args) -> None:
        m = args[0]
        self.cells += m.nrows * m.ncols
        bits = max((_fraction_bits(x) for row in m.rows for x in row), default=0)
        self.max_bits = max(self.max_bits, bits)


@dataclass
class SpanRecord:
    name: str
    shape: str  # label of the enclosing shape span
    start: float
    end: float


@dataclass
class Aggregate:
    calls: int = 0
    self_s: float = 0.0


@dataclass(slots=True)
class _Frame:
    check: str
    child_s: float = 0.0


@dataclass
class Tracer:
    """Context manager that traces the public functions of ``modules``.

    ``modules`` are the program's modules (``parinv.linalg``, ...); every
    module of the same package is searched for rebinding.  ``probes`` maps a
    traced name to a callable that receives the call's positional arguments
    before the span starts; its own cost is charged to no span.
    """

    modules: list
    probes: dict = field(default_factory=dict)
    records: list[SpanRecord] = field(default_factory=list, init=False)
    aggregates: dict[tuple[str, str], Aggregate] = field(default_factory=dict, init=False)
    _stack: list[_Frame] = field(default_factory=list, init=False)
    _restore: list[tuple[object, str, object]] = field(default_factory=list, init=False)
    _shape: str = field(default="-", init=False)

    def __enter__(self) -> "Tracer":
        package = self.modules[0].__name__.split(".")[0]
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not _is_public_function(obj, mod):
                    continue
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        try:
            for mod in [m for n, m in list(sys.modules.items())
                        if n == package or n.startswith(package + ".")]:
                for attr, obj in list(vars(mod).items()):
                    wrapper = wrappers.get(id(obj))
                    if wrapper is not None:
                        self._restore.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)
            matrix = sys.modules[f"{package}.linalg"].Matrix
            matmul = matrix.__dict__["__matmul__"]
            self._restore.append((matrix, "__matmul__", matmul))
            matrix.__matmul__ = self._wrap("linalg.matmul", matmul)
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def _undo(self) -> None:
        while self._restore:
            owner, attr, obj = self._restore.pop()
            setattr(owner, attr, obj)

    def _wrap(self, name: str, fn):
        probe = self.probes.get(name)
        is_check = _is_check(name)
        is_shape = name == SHAPE_SPAN
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = perf_counter()
            if probe is not None:
                probe(args)
            parent = stack[-1] if stack else None
            if is_shape:
                self._shape = _shape_label(args[0])
            frame = _Frame(name if is_check else parent.check if parent else "-")
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += end - before
                if is_shape or is_check:
                    self.records.append(SpanRecord(name, self._shape, start, end))
                agg = self.aggregates.get((name, frame.check))
                if agg is None:
                    agg = self.aggregates[(name, frame.check)] = Aggregate()
                agg.calls += 1
                agg.self_s += (end - start) - frame.child_s

        return traced

    def calls(self, name: str) -> int:
        return sum(a.calls for (n, _), a in self.aggregates.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a.self_s for (n, _), a in self.aggregates.items() if n == name)

    def span_s(self, name: str) -> float:
        """Summed duration of the recorded spans called ``name``."""
        return sum(r.end - r.start for r in self.records if r.name == name)


def _is_public_function(obj, mod) -> bool:
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_clear")  # plain or memoised
