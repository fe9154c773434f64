"""Per-layer tracer for one benchmark pass, patched in from outside.

`Tracer.install()` replaces the functions of every `morava.*` module with
timing wrappers, in each module namespace that holds them (modules import
each other's functions with `from .x import y`), and the listed methods on
their classes.  `Tracer.uninstall()` puts every original object back.

Each wrapped call adds to a per-name call counter and, for the outermost
active call of that name, to a per-name inclusive timer.  A per-module self
time is the call's duration minus the time of the wrapped calls made inside
it.  Calls into the hot scalar and coefficient layers (`padic`, `coeff`)
are only counted and timed; every other call is kept as a span
`(name, start, end, parent span, record, raised)` in memory, where the
record is the `Builder.run` call the span ran under and `raised` tells
whether the call ended in an exception.  `dump()` writes the spans out
with the counters.
"""

import hashlib
import importlib
import inspect
import json
import os
import time

MODULES = ("padic", "coeff", "series", "fgl", "groupcoh", "euler",
           "localize", "report", "cli")

# Methods wrapped on their classes.  Module-level functions are found by
# scanning each module; a name is keyed "<module>.<function>" or
# "<module>.<Class>.<method>".
METHODS = {
    "padic": {"PadicContext": ("add", "add_raw", "sub", "mul")},
    "coeff": {"CoeffContext": ("add", "add_raw", "sub", "sub_raw", "mul",
                               "scalar_mul")},
    "cli": {"Builder": ("run", "fgl")},
}

# Private functions that mark a layer boundary worth its own timer.
PRIVATE = {"fgl": ("_build_two_var",)}

# Layers whose calls are too many for one span each.
COUNTER_ONLY = ("padic", "coeff")

# (outer, inner): count inner calls made while outer is active.
NESTED = (("coeff.CoeffContext.mul", "padic.PadicContext.mul"),
          ("series.weierstrass_prepare", "series.ser_mul"))

RECORD = "cli.Builder.run"


class Tracer:
    def __init__(self):
        self.calls = {}
        self.incl_s = {}
        self.self_s = {m: 0.0 for m in MODULES}
        self.nested = {"%s>%s" % pair: 0 for pair in NESTED}
        self.spans = []
        self.records = []
        self.prepared = set()
        self.cache_bytes_written = 0
        self._stack = [[0.0]]
        self._span_stack = [None]
        self._record = None
        self._active = {}
        self._patches = []
        self._originals = {}

    # -- installing -------------------------------------------------------

    def _targets(self):
        """(key, module short name, owner, attribute, original) for every
        function and method to wrap."""
        out = []
        for short in MODULES:
            mod = importlib.import_module("morava." + short)
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE.get(short,
                                                                    ()):
                    continue
                out.append(("%s.%s" % (short, name), short, None, name, obj))
            for cls_name, meths in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    out.append(("%s.%s.%s" % (short, cls_name, meth), short,
                                cls, meth, cls.__dict__[meth]))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module("morava")] + [
            importlib.import_module("morava." + m) for m in MODULES]
        for key, short, owner, attr, orig in self._targets():
            self._originals[key] = orig
            self.calls[key] = 0
            self.incl_s[key] = 0.0
            self._active[key] = 0
            wrapped = self._wrap(key, short, orig)
            if owner is not None:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for name, obj in list(vars(ns).items()):
                    if obj is orig:
                        self._patches.append((ns, name, orig))
                        setattr(ns, name, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, key, module, fn):
        calls, incl, selfs = self.calls, self.incl_s, self.self_s
        active, stack, nested = self._active, self._stack, self.nested
        clock = time.perf_counter
        outers = [("%s>%s" % (o, i), o) for o, i in NESTED if i == key]
        keep_span = module not in COUNTER_ONLY
        spans, span_stack = self.spans, self._span_stack
        tracer = self
        after = {"series.weierstrass_prepare": self._on_prepare,
                 "fgl.fgl_cache_save": self._on_cache_save}.get(key)
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            for pair, outer in outers:
                if active[outer]:
                    nested[pair] += 1
            depth = active[key]
            active[key] = depth + 1
            frame = [0.0]
            stack.append(frame)
            if keep_span:
                span = [key, 0.0, 0.0, span_stack[-1], tracer._record,
                        True]
                span_stack.append(len(spans))
                spans.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                selfs[module] += dt - frame[0]
                active[key] = depth
                if not depth:
                    incl[key] += dt
                if keep_span:
                    span_stack.pop()
                    span[1] = t0
                    span[2] = t1
            if keep_span:
                span[5] = False
            if after is not None:
                after(sig.bind(*args, **kwargs), result)
            return result

        if key == RECORD:
            return self._wrap_record(wrapper, sig)
        return wrapper

    def _wrap_record(self, timed, sig):
        """Builder.run(..., make, ...): number the record and count its
        attempts, one per call of its record maker `make`."""
        tracer = self

        def run(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            make = bound.arguments["make"]
            rec = {"index": len(tracer.records), "attempts": 0}
            tracer.records.append(rec)

            def counted(f):
                rec["attempts"] += 1
                return make(f)

            bound.arguments["make"] = counted
            outer = tracer._record
            tracer._record = rec["index"]
            t0 = time.perf_counter()
            try:
                result = timed(*bound.args, **bound.kwargs)
            finally:
                rec["s"] = time.perf_counter() - t0
                tracer._record = outer
            rec["check_id"] = result["check_id"]
            rec["verdict"] = result["verdict"]
            return result

        return run

    def _on_prepare(self, bound, result):
        # The program's own golden-vector text of the input series is its
        # content: context, cap and every stored scalar.
        dump = self._originals["series.golden_dump"]
        text = dump(next(iter(bound.arguments.values())))
        self.prepared.add(hashlib.sha256(text.encode()).hexdigest())

    def _on_cache_save(self, bound, result):
        self.cache_bytes_written += os.path.getsize(result)

    # -- output -----------------------------------------------------------

    def dump(self, path):
        doc = {
            "calls": self.calls,
            "incl_s": self.incl_s,
            "self_s": self.self_s,
            "nested": self.nested,
            "distinct_prepared": len(self.prepared),
            "cache_bytes_written": self.cache_bytes_written,
            "records": self.records,
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
