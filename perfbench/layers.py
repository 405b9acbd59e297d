"""
Per-layer tracing for the benchmark's traced runs.

`Tracer.install` wraps, from outside, every public function of every
weaksort module and the public and arithmetic methods of its classes.  It
replaces every binding of each original: a function imported by name into
another module, and functions held in module-level tuples, lists and dicts
(such as `acceptance.CRITERIA`), so child spans do not vanish into their
caller's self time.  `Tracer.unwrapped` scans the modules again and names
any binding still holding an original.

A span is one call of a wrapped function.  Spans are aggregated as they end,
by (name, parent name), into [calls, total seconds, self seconds], which
keeps memory and overhead bounded at hundreds of thousands of calls.  Self
time is a span's duration minus its child spans'.  Private helpers are not
wrapped, so their time counts toward the self time of the public function
that called them, which lives in the same module.

Untraced runs never import this module, so they run with no wrapper.
"""
from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("perms", "counting", "recurrence", "series", "schroder", "class5",
          "oeis", "acceptance", "cli")
#: dunder methods wrapped besides the public ones
ARITHMETIC = frozenset({"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__"})

#: functions reported by calls and by self time
CALLS = (
    "perms.find_occurrence", "perms.avoids", "perms.contains", "recurrence.advance",
    "series.gf_catalog", "series.Series.__mul__", "series.Series.__truediv__",
    "series.BivariateSeries.__mul__", "series.BivariateSeries.__truediv__",
    "schroder.stats", "class5.check_structure", "class5.decompose",
    "class5.construct", "class5.keyed_213_count",
)
SELF = (
    "perms.find_occurrence", "perms.canonical_form",
    "counting.counting_sequence", "counting.wilf_search",
    "counting.enumerate_avoiders", "counting.triple_orbits",
    "recurrence.tables_upto", "recurrence.empirical_table",
    "recurrence.verify_kernel_identity",
    "series.gf_catalog", "series.Series.__mul__", "series.Series.__truediv__",
    "series.BivariateSeries.__mul__", "series.BivariateSeries.__truediv__",
    "schroder.perm_to_path", "schroder.path_to_perm", "schroder.enumerate_paths",
    "schroder.peak_census",
    "class5.check_structure", "class5.decompose", "class5.count_avoiders",
    "class5.count_indecomposable",
    "oeis.fetch",
)
CRITERIA = 10


# counters taken from the arguments and results of single calls


def _find_occurrence(counts, args, result):
    counts["letters"] += len(args[0])
    counts["hits"] += result is not None


def _counting_sequence(counts, args, result):
    counts["avoiders"] += sum(result)
    counts["kept"] += sum(result[1:])
    counts["tried"] += sum(size * (m + 1) for m, size in enumerate(result[:-1]))


def _enumerate_avoiders(counts, args, result):
    counts["avoiders"] += len(result)


def _tables_upto(counts, args, result):
    counts["entries"] += sum(t.n for t in result)


def _gf_catalog(counts, args, result):
    rows = getattr(result, "coeffs", ())
    counts["coeffs_out"] += sum(len(r) if isinstance(r, tuple) else 1 for r in rows)


def _enumerate_paths(counts, args, result):
    counts["paths"] += len(result)


HOOKS = {
    "perms.find_occurrence": _find_occurrence,
    "counting.counting_sequence": _counting_sequence,
    "counting.enumerate_avoiders": _enumerate_avoiders,
    "recurrence.tables_upto": _tables_upto,
    "series.gf_catalog": _gf_catalog,
    "schroder.enumerate_paths": _enumerate_paths,
}
COUNTERS = ("letters", "hits", "avoiders", "kept", "tried", "entries", "coeffs_out", "paths")


def _weaksort_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if name == "weaksort" or name.startswith("weaksort.")]


def _is_original(obj) -> bool:
    """A public weaksort function that is not one of our wrappers."""
    return (
        isinstance(obj, types.FunctionType)
        and (obj.__module__ or "").startswith("weaksort")
        and not hasattr(obj, "__wrapped__")
        and not obj.__name__.startswith("_")
        and obj.__qualname__ == obj.__name__
    )


def _span_name(fn) -> str:
    """Defining module and qualified name, e.g. series.Series.__mul__."""
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__qualname__


def _is_traced_method(attr: str, obj) -> bool:
    return isinstance(obj, types.FunctionType) and (
        not attr.startswith("_") or attr in ARITHMETIC
    )


def _leaves(obj, depth: int = 0):
    """obj itself, or the items of the tuples, lists and dicts it nests."""
    if depth < 3 and isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item, depth + 1)
    elif depth < 3 and isinstance(obj, dict):
        for item in obj.values():
            yield from _leaves(item, depth + 1)
    else:
        yield obj


class Tracer:
    def __init__(self) -> None:
        #: (name, parent name) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [["", 0.0]]
        self._wrappers: dict[int, types.FunctionType] = {}
        self._originals: list = []  # keeps the ids in _wrappers valid

    def install(self) -> None:
        """Wrap every public weaksort function and rebind all its bindings."""
        modules = _weaksort_modules()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if _is_original(obj):
                    self._wrap(obj)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    for method, fn in list(vars(obj).items()):
                        if _is_traced_method(method, fn) and not hasattr(fn, "__wrapped__"):
                            setattr(obj, method, self._wrap(fn))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                new = self._swap(obj)
                if new is not obj:
                    setattr(module, attr, new)

    def unwrapped(self) -> list[str]:
        """Bindings in any weaksort module that still hold an original."""
        found = []
        for module in _weaksort_modules():
            for attr, obj in vars(module).items():
                if attr.startswith("__"):
                    continue
                if any(_is_original(leaf) for leaf in _leaves(obj)):
                    found.append(f"{module.__name__}.{attr}")
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    found += [
                        f"{module.__name__}.{obj.__name__}.{name}"
                        for name, fn in vars(obj).items()
                        if _is_traced_method(name, fn) and not hasattr(fn, "__wrapped__")
                    ]
        return found

    def wrapped_names(self) -> set[str]:
        return {_span_name(fn) for fn in self._originals}

    def self_total(self) -> float:
        return sum(rec[2] for rec in self.spans.values())

    def _swap(self, obj, depth: int = 0):
        if isinstance(obj, types.FunctionType):
            return self._wrappers.get(id(obj), obj)
        if depth < 3 and type(obj) is tuple:
            items = tuple(self._swap(item, depth + 1) for item in obj)
            return items if any(a is not b for a, b in zip(items, obj)) else obj
        if depth < 3 and isinstance(obj, list):
            obj[:] = [self._swap(item, depth + 1) for item in obj]
        elif depth < 3 and isinstance(obj, dict):
            for key, item in list(obj.items()):
                obj[key] = self._swap(item, depth + 1)
        return obj

    def _wrap(self, fn: types.FunctionType) -> types.FunctionType:
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = _span_name(fn)
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        hook, counts = HOOKS.get(name), self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    rec = spans[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if hook is not None:
                hook(counts, args, result)
            return result

        self._wrappers[id(fn)] = wrapper
        self._originals.append(fn)
        return wrapper

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics drawn from the spans and counters."""
        calls: dict[str, int] = {}
        own: dict[str, float] = {}
        inclusive: dict[str, float] = {}
        for (name, parent), (n, total, self_s) in self.spans.items():
            calls[name] = calls.get(name, 0) + n
            own[name] = own.get(name, 0.0) + self_s
            if parent != name:
                inclusive[name] = inclusive.get(name, 0.0) + total
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF:
            out[f"{name}.self_s"] = own.get(name, 0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
        for i in range(1, CRITERIA + 1):
            out[f"acceptance.criterion_{i}.s"] = sum(
                v for k, v in inclusive.items() if k.startswith(f"acceptance.criterion_{i}_")
            )
        c = self.counts
        finds = calls.get("perms.find_occurrence", 0)
        out["perms.find_occurrence.letters"] = c["letters"]
        out["perms.find_occurrence.hit_frac"] = c["hits"] / finds if finds else 0.0
        enumerating = (inclusive.get("counting.counting_sequence", 0.0)
                       + inclusive.get("counting.enumerate_avoiders", 0.0))
        out["counting.avoiders"] = c["avoiders"]
        out["counting.keep_frac"] = c["kept"] / c["tried"] if c["tried"] else 0.0
        out["counting.avoiders_per_s"] = c["avoiders"] / enumerating if enumerating else 0.0
        out["recurrence.entries"] = c["entries"]
        out["series.coeffs_out"] = c["coeffs_out"]
        out["schroder.paths"] = c["paths"]
        return out

    def table(self) -> list[list]:
        """The aggregated spans, largest self time first."""
        rows = [[name, parent or "<root>", n, round(total, 6), round(self_s, 6)]
                for (name, parent), (n, total, self_s) in self.spans.items()]
        return sorted(rows, key=lambda row: -row[4])
