"""Outside-in layer tracing for the benchmark.

Nothing under src/ is edited.  Instead the tracer rebinds names from the
outside and restores them afterwards:

* SpanTracer wraps every public module-level function of each hypadd
  layer module, in every hypadd.* namespace that holds it, plus the
  public methods of Poly, Matrix and the Expr classes.  Each wrapper
  records calls, exceptions, inclusive time and self time (its duration
  minus the durations of the spans it caused).
* CountTracer wraps the Scalar and FieldSpec methods with count-only
  wrappers.  Those run hundreds of thousands of times per op, so this
  pass is slow and its timings are discarded.

A name that a later refactor removes is simply not wrapped, and every
metric built from it reads 0.
"""

import functools
import importlib
import sys
import time

LAYERS = (
    "field",
    "poly",
    "linalg",
    "groupoid",
    "cantor",
    "closedform",
    "expr",
    "identities",
    "sampling",
    "jsonio",
    "cli",
)

# Operator methods count as public API of the value classes; other dunders
# (__init__, __eq__, __getitem__, __repr__, ...) are left alone because
# they are tiny and hot, and wrapping them would swamp the measurement.
PUBLIC_DUNDERS = frozenset(
    {
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__neg__",
        "__pow__",
        "__divmod__",
        "__floordiv__",
        "__mod__",
        "__call__",
    }
)

SPAN_CLASSES = (("poly", "Poly"), ("linalg", "Matrix"), ("expr", "Expr"))

SCALAR_ARITH = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
)


def _layer_modules():
    out = {}
    for layer in LAYERS:
        try:
            out[layer] = importlib.import_module(f"hypadd.{layer}")
        except ImportError:
            continue
    return out


def _hypadd_namespaces():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hypadd" or name.startswith("hypadd."))
    ]


def _is_public_function(name, obj, module_name):
    if name.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == module_name


def _is_public_method(name):
    return not name.startswith("_") or name in PUBLIC_DUNDERS


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def _rewrap_descriptor(raw, wrap):
    """Apply wrap to a class-dict entry, keeping classmethod/staticmethod."""
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if callable(raw) and not isinstance(raw, type):
        return wrap(raw)
    return None


class SpanStat:
    __slots__ = ("layer", "calls", "raised", "incl_ns", "self_ns", "depth")

    def __init__(self, layer):
        self.layer = layer
        self.calls = 0
        self.raised = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.depth = 0


class SpanTracer:
    """Span wrappers at every layer boundary the benchmark can reach."""

    def __init__(self):
        self.stats = {}
        self.top_ns = 0
        self._stack = []
        self._patches = _Patches()

    def _wrap(self, key, layer, fn):
        stat = self.stats.setdefault(key, SpanStat(layer))
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.self_ns += dur - frame[0]
                # Inclusive time only for the outermost activation, so a
                # recursive or re-entrant call is not counted twice.
                if stat.depth == 0:
                    stat.incl_ns += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.top_ns += dur

        return span

    def install(self):
        modules = _layer_modules()
        namespaces = _hypadd_namespaces()
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not _is_public_function(name, obj, mod.__name__):
                    continue
                wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.set(ns, attr, wrapped)
        for layer, cls_name in SPAN_CLASSES:
            mod = modules.get(layer)
            base = getattr(mod, cls_name, None) if mod else None
            if base is None:
                continue
            classes = [base] + [
                c
                for c in vars(mod).values()
                if isinstance(c, type) and c is not base and issubclass(c, base)
            ]
            for cls in classes:
                for name, raw in list(cls.__dict__.items()):
                    if not _is_public_method(name):
                        continue
                    key = f"{layer}.{cls.__name__}.{name}"
                    new = _rewrap_descriptor(
                        raw, lambda fn, key=key, layer=layer: self._wrap(key, layer, fn)
                    )
                    if new is not None:
                        self._patches.set(cls, name, new)

    def uninstall(self):
        self._patches.restore()

    def snapshot_counts(self):
        """Calls and exceptions per span so far, as plain dicts."""
        return {k: (s.calls, s.raised) for k, s in self.stats.items()}

    def calls(self, snapshot, *keys):
        return sum(snapshot.get(k, (0, 0))[0] for k in keys)

    def raised(self, snapshot, *keys):
        return sum(snapshot.get(k, (0, 0))[1] for k in keys)

    def incl_ns(self, *keys):
        return sum(self.stats[k].incl_ns for k in keys if k in self.stats)

    def self_ns_by_layer(self):
        out = {}
        for s in self.stats.values():
            out[s.layer] = out.get(s.layer, 0) + s.self_ns
        return out


class CountTracer:
    """Count-only wrappers on Scalar and FieldSpec."""

    def __init__(self):
        self.counts = {}
        self._patches = _Patches()

    def _wrap(self, key, fn):
        cell = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        field = importlib.import_module("hypadd.field")
        targets = [("Scalar", n) for n in ("__init__", "inverse") + SCALAR_ARITH]
        targets.append(("FieldSpec", "__eq__"))
        for cls_name, name in targets:
            cls = getattr(field, cls_name, None)
            if cls is None or name not in cls.__dict__:
                continue
            new = _rewrap_descriptor(
                cls.__dict__[name], lambda fn, key=f"{cls_name}.{name}": self._wrap(key, fn)
            )
            if new is not None:
                self._patches.set(cls, name, new)

    def uninstall(self):
        self._patches.restore()

    def get(self, *keys):
        return sum(self.counts.get(k, [0])[0] for k in keys)
