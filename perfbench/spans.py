"""Outside tracing of the transchrome layers.

``Tracer.install`` wraps every public function of the layer modules, plus
the few methods that named metrics need, in a wrapper that records a span:
name, start, end, parent span and request id.  It then rebinds every
reference a transchrome module holds to a wrapped function: the defining
module's attribute, each ``from .x import y`` alias in another module, and
entries of module-level tuples such as ``accept.CRITERIA``.  Without the
aliases, time spent in ``classfun.class_table`` called from ``accept`` or
``cli`` would be charged to the caller.  ``uninstall`` restores every
original.  No library file is changed.

Spans stay in memory; ``summary`` reduces them to self time per layer and
calls and outermost time per function, and ``span_rows`` gives them raw.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("perm", "abelian", "homclass", "classfun", "decomp", "fgl", "accept", "cli")

# Non-public callables that per-layer metrics are defined on.
METHODS = (
    ("abelian", "_SubgroupLattice", "up_to"),
    ("abelian", "AbSubgroup", "span"),
    ("classfun", "SymmetricClassTable", "key_of_images"),
    ("classfun", "GenericClassTable", "key_of_images"),
)

# Leaf helpers called once per coset scanned (over a million times in one
# decompose request): a span costs more than their work, so they stay
# unwrapped and their time counts as their caller's.
UNTRACED = ("homclass.partition_act", "homclass.partition_fixed")

# The module-level caches at the commit that defined the benchmark.  Any
# other object with ``cache_info`` in a layer module is counted too.
CACHES = (
    "perm.symmetric_group",
    "perm._coset_table",
    "abelian._ambient_elements",
    "abelian._lattice",
    "homclass.enumerate_hom_classes",
    "homclass._coset_layout",
    "classfun.class_table",
    "classfun._coset_system",
    "classfun._induction_data",
)


def layer_modules():
    importlib.import_module("transchrome.cli")
    return {layer: sys.modules["transchrome." + layer] for layer in LAYERS}


def package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "transchrome" or name.startswith("transchrome."))
    ]


def _traceable(module, name, obj) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def traced_functions():
    """{span name: original callable} for every module function traced."""
    out = {}
    for layer, module in layer_modules().items():
        for name, obj in vars(module).items():
            dotted = layer + "." + name
            if _traceable(module, name, obj) and dotted not in UNTRACED:
                out[dotted] = obj
    return out


def _rebind(value, wrappers):
    """``value`` with every wrapped original inside it replaced; tuples and
    lists are copied only when something in them changed."""
    hit = wrappers.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    if isinstance(value, (tuple, list)):
        items = [_rebind(v, wrappers) for v in value]
        if any(a is not b for a, b in zip(items, value)):
            return type(value)(items)
    return value


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request, outermost]
        self.request = 0
        self._stack = []
        self._depth = {}
        self._patches = []  # (namespace, key, original)
        self.originals = {}  # span name -> original callable

    def _wrap(self, name, func):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            level = depth.get(name, 0)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.request, level == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[name] = level + 1
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                depth[name] = level

        for attr in ("cache_info", "cache_clear"):
            if hasattr(func, attr):
                setattr(wrapper, attr, getattr(func, attr))
        return wrapper

    def _set(self, namespace, key, value):
        """Assign through ``setattr`` so class attributes work too."""
        if isinstance(namespace, dict):
            self._patches.append((namespace, key, namespace[key]))
            namespace[key] = value
        else:
            self._patches.append((namespace, key, namespace.__dict__[key]))
            setattr(namespace, key, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = layer_modules()
        wrappers = {}
        for name, obj in traced_functions().items():
            wrappers[id(obj)] = (obj, self._wrap(name, obj))
            self.originals[name] = obj
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(meth)
            if raw is None:
                continue
            name = "%s.%s.%s" % (layer, cls_name, meth)
            if isinstance(raw, classmethod):
                self.originals[name] = raw.__func__
                self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self.originals[name] = raw
                self._set(cls, meth, self._wrap(name, raw))
        for module in package_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                new = _rebind(value, wrappers)
                if new is not value:
                    self._set(namespace, key, new)
        return self

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._patches.clear()

    def summary(self):
        """Reduce the spans to ``{"layers": {layer: [self_s, calls]},
        "names": {name: [outermost_s, calls]}, "spanned_s": time under
        top-level spans}``.

        A span's self time is its duration minus that of its direct
        children; the outermost time of a name leaves out calls nested in
        another call of the same name.
        """
        child = [0.0] * len(self.spans)
        spanned = 0.0
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                spanned += end - start
        layers, names = {}, {}
        for (name, start, end, _, _, outermost), child_s in zip(self.spans, child):
            entry = layers.setdefault(name.split(".", 1)[0], [0.0, 0])
            entry[0] += end - start - child_s
            entry[1] += 1
            entry = names.setdefault(name, [0.0, 0])
            entry[1] += 1
            if outermost:
                entry[0] += end - start
        return {"layers": layers, "names": names, "spanned_s": spanned}

    def span_rows(self):
        """Spans as ``[name, start, end, parent, request]`` rows."""
        return [row[:5] for row in self.spans]


def cache_counters():
    """Summed ``cache_info()`` hits and misses over the module-level caches,
    the misses of ``classfun.class_table`` (None when it has no cache), and
    the declared caches that no longer exist."""
    modules = layer_modules()
    found, absent = {}, []
    for dotted in CACHES:
        layer, name = dotted.split(".")
        obj = getattr(modules[layer], name, None)
        if hasattr(obj, "cache_info"):
            found[dotted] = obj
        else:
            absent.append(dotted)
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            dotted = layer + "." + name
            defined_here = getattr(obj, "__module__", None) == module.__name__
            if defined_here and hasattr(obj, "cache_info") and dotted not in found:
                found[dotted] = obj
    hits = misses = 0
    counted = set()
    for obj in found.values():
        cache = id(inspect.unwrap(obj))
        if cache in counted:
            continue
        counted.add(cache)
        info = obj.cache_info()
        hits += info.hits
        misses += info.misses
    table = found.get("classfun.class_table")
    return {
        "hits": hits,
        "misses": misses,
        "class_table_misses": table.cache_info().misses if table is not None else None,
        "absent": absent,
    }
