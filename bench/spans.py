"""In-memory span tracer that observes fbjacobi from outside the package.

`Tracer.install` replaces every reference to a public fbjacobi function, in
every fbjacobi module namespace (the package `__init__` included), with a
wrapper that records a span: id, name, start, end, parent id and op index.
Problem callables (kernel, source, source_w, exact, exact_w) are wrapped as
each `ProblemDefinition` is built. They are hot (the kernel runs (N+1)^2 times
per solve), so their calls are summed per parent span instead of being stored
one by one.

Self time is accounted while the program runs: a frame's duration minus the
time its child frames cover. fbjacobi is single-threaded, so children of one
frame never overlap and their durations add up to their coverage. A callable's
time counts as self time of the module that defines it (`problems` for the
built-in problems, `cli` for `--problem custom` expressions).
"""

import collections
import functools
import gzip
import itertools
import json
import sys
import time
import types

PACKAGE = "fbjacobi"
PREFIX = PACKAGE + "."
CALLABLE_FIELDS = ("kernel", "source", "source_w", "exact", "exact_w")


def _solve(counts, result, seconds):
    counts["volterra_solver.cond"] = result.diagnostics.condition
    counts["volterra_solver.residual"] = result.diagnostics.residual


def _cardinal_matrix(counts, result, seconds):
    counts["approximation.cardinal_entries"] += result.size


def _evaluation(counts, result, seconds):
    counts["approximation.eval_points"] += getattr(result, "size", 1)


def _linf_error(counts, result, seconds):
    counts["approximation.linf_error"] = result


def _gauss_rule(counts, result, seconds):
    counts["jacobi_core.gauss_rule_calls"] += 1
    counts["jacobi_core.gauss_rule_nodes"] += len(result.nodes)


def _oracle(counts, result, seconds):
    counts["problems.oracle_calls"] += 1


def _construct(counts, result, seconds):
    counts["problems.construct_s"] += seconds


def _run_all(counts, result, seconds):
    counts["selfcheck.checks_failed"] += sum(not r.passed for r in result)


# Observers of a function's result, by span name; they feed the layer counters.
HOOKS = {
    "volterra_solver.solve": _solve,
    "approximation.cardinal_matrix": _cardinal_matrix,
    "approximation.eval_interpolant": _evaluation,
    "approximation.eval_expansion": _evaluation,
    "approximation.linf_error": _linf_error,
    "jacobi_core.gauss_rule": _gauss_rule,
    "problems.oracle_kr": _oracle,
    "problems.example1": _construct,
    "problems.case_i": _construct,
    "problems.case_ii": _construct,
    "selfcheck.run_all": _run_all,
}


class Tracer:
    """Spans and per-op counters for one benchmark process.

    A frame on the stack is [span id, layer, start, seconds covered by
    children]. `counts` holds the counters of the op in progress; `end_op`
    returns a copy and clears it.
    """

    def __init__(self):
        self.spans = []
        self.aggregates = []
        self.counts = collections.defaultdict(float)
        self.op = None
        self._op_aggregates = {}
        self._stack = []
        self._ids = itertools.count()
        self._wrappers = {}
        self._patches = []

    @staticmethod
    def layer_of(module_name) -> str:
        if module_name and module_name.startswith(PREFIX):
            return module_name[len(PREFIX):]
        return "bench"

    def install(self) -> None:
        """Wrap every public fbjacobi function wherever an fbjacobi module
        references it, and the callables of every problem built from now on.
        Problems built before stay untraced."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PREFIX))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(PREFIX)):
                    continue
                wrapper = self._wrappers.get(obj)
                if wrapper is None:
                    wrapper = self._wrappers[obj] = self._wrap_function(obj)
                self._patch(module, attr, wrapper)

        problem_class = sys.modules[PREFIX + "volterra_solver"].ProblemDefinition
        validate = problem_class.__post_init__
        tracer = self

        def post_init(problem):
            validate(problem)
            tracer.wrap_problem(problem)

        self._patch(problem_class, "__post_init__", post_init)

    def uninstall(self) -> None:
        """Put back everything `install` replaced."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def wrap_problem(self, problem) -> None:
        for field in CALLABLE_FIELDS:
            fn = getattr(problem, field)
            if fn is not None and not getattr(fn, "_traced", False):
                object.__setattr__(problem, field, self._wrap_callable(fn, field))

    def _wrap_function(self, fn):
        layer = self.layer_of(fn.__module__)
        name = f"{layer}.{fn.__qualname__}"
        calls_key, self_key = layer + ".calls", layer + ".self_s"
        hook = HOOKS.get(name)
        stack, spans, ids, counts = self._stack, self.spans, self._ids, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), layer, 0.0, 0.0]
            stack.append(frame)
            start = frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                counts[calls_key] += 1
                counts[self_key] += seconds - frame[3]
                if parent is not None:
                    parent[3] += seconds
                spans.append((frame[0], name, start, end,
                              None if parent is None else parent[0], tracer.op))
            if hook is not None:
                hook(counts, result, seconds)
            return result

        return wrapper

    def _wrap_callable(self, fn, field):
        layer = self.layer_of(getattr(fn, "__module__", None) or type(fn).__module__)
        self_key = layer + ".self_s"
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        tracer = self

        def wrapper(*args):
            parent = stack[-1] if stack else None
            # Spans opened inside the callable name the enclosing span as parent.
            frame = [None if parent is None else parent[0], layer, 0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args)
            finally:
                seconds = clock() - start
                stack.pop()
                counts[self_key] += seconds - frame[3]
                if parent is not None:
                    parent[3] += seconds
            points = 1
            for arg in args:
                size = getattr(arg, "size", 1)
                if size > points:
                    points = size
            key = (frame[0], "bench" if parent is None else parent[1], field)
            entry = tracer._op_aggregates.get(key)
            if entry is None:
                entry = tracer._op_aggregates[key] = [0, 0, 0.0]
            entry[0] += 1
            entry[1] += points
            entry[2] += seconds
            return result

        wrapper._traced = True
        return wrapper

    def begin_op(self, index: int) -> None:
        self.op = index
        self.counts.clear()
        self._op_aggregates = {}
        self._stack.append([next(self._ids), "bench", time.perf_counter(), 0.0])

    def end_op(self) -> dict:
        """Close the op's root span; return the op's counters, with callable
        calls folded in as `<caller layer>.<field>_calls|_points|_s`."""
        frame = self._stack.pop()
        end = time.perf_counter()
        self.counts["bench.self_s"] += end - frame[2] - frame[3]
        self.spans.append((frame[0], "bench.op", frame[2], end, None, self.op))
        for (parent_id, caller, field), (calls, points, seconds) in self._op_aggregates.items():
            self.counts[f"{caller}.{field}_calls"] += calls
            self.counts[f"{caller}.{field}_points"] += points
            self.counts[f"{caller}.{field}_s"] += seconds
            self.aggregates.append((parent_id, field, calls, points, seconds, self.op))
        self.op = None
        return dict(self.counts)

    def write(self, path) -> None:
        """Spans and per-parent callable sums as gzipped JSON. A callable sum's
        seconds include spans opened inside the callable."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "aggregate_fields": ["parent", "callable", "calls", "points", "seconds", "op"],
            "aggregates": self.aggregates,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
