"""Span tracer for the traced run: wraps qmink's public functions from outside.

Every public function and public method of each qmink module (plus the
arithmetic dunders, and the constructors of the Grassmann rationals and
matrices) is replaced by a wrapper that records a span (name, parent,
start, end) in compact in-memory arrays.  Spans are written out at exit.
A layer's self time is the duration of its spans minus the part their
direct child spans cover.  A few wrappers also count what the layer did:
monomial products, memo hits and growth, successful exact divisions.
"""

import importlib
import json
import time
from array import array

# layer -> qmink module; the kernel is wrapped separately
LAYER_MODULES = (
    ("checks", "qmink.checks"),
    ("scalars", "qmink.scalars"),
    ("algebra", "qmink.algebra"),
    ("grassmann", "qmink.grassmann"),
    ("linalg", "qmink.linalg"),
    ("supergroup", "qmink.supergroup"),
    ("minkowski", "qmink.minkowski"),
    ("classical", "qmink.classical"),
    ("realforms", "qmink.realforms"),
    ("parser", "qmink.parser"),
    ("cli", "qmink.cli"),
    ("reports", "qmink.reports"),
)
LAYERS = ("workload", "kernel") + tuple(layer for layer, _m in LAYER_MODULES)
ARITHMETIC = frozenset(("__add__", "__radd__", "__sub__", "__rsub__",
                        "__neg__", "__mul__", "__rmul__", "__truediv__"))
CONSTRUCTED = frozenset(("GrassmannRational", "GrassmannMatrix"))


class Tracer:
    def __init__(self):
        self.names = []           # function id -> qualified name
        self.layer_of = []        # function id -> layer index
        self.fid = array("i")     # span -> function id
        self.parent = array("l")  # span -> parent span (-1 at the root)
        self.start = array("d")
        self.end = array("d")
        self.cur = -1
        self.counters = dict.fromkeys((
            "mul_monomial", "nf_lookups", "nf_hits", "words_reduced",
            "exact_divide_ok"), 0)

    # -- spans -------------------------------------------------------------

    def _register(self, name, layer):
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def wrap(self, fn, name, layer, before=None, after=None):
        """Wrapper recording one span per call; hooks see the arguments."""
        fid = self._register(name, layer)
        fids, parents, starts, ends = self.fid, self.parent, self.start, \
            self.end
        perf = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            sid = len(starts)
            prev = tr.cur
            fids.append(fid)
            parents.append(prev)
            ends.append(0.0)
            tr.cur = sid
            if before is not None:
                args = before(args)
            starts.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf()
                tr.cur = prev
            if after is not None:
                after(args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, layer="workload"):
        """Context manager for the benchmark's own spans."""
        return _Span(self, self._register(name, layer))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap qmink's public surface in place."""
        mods = {m: importlib.import_module(m) for _l, m in LAYER_MODULES}
        kernel = importlib.import_module("qmink.kernel")
        c = self.counters

        def nf_before(args):
            c["nf_lookups"] += 1
            if args[0] in args[4]:
                c["nf_hits"] += 1
            self._memo_size = len(args[4])
            return args

        def nft_before(args):
            terms = args[0]
            items = list(terms.items() if isinstance(terms, dict) else terms)
            memo = args[4]
            c["nf_lookups"] += len(items)
            c["nf_hits"] += sum(1 for w, _c in items if w in memo)
            self._memo_size = len(memo)
            return (items,) + tuple(args[1:])

        def memo_after(args, out):
            c["words_reduced"] += len(args[4]) - self._memo_size

        kernel.nf_word = self.wrap(kernel.nf_word, "kernel.nf_word", "kernel",
                                   nf_before, memo_after)
        kernel.normal_form_terms = self.wrap(
            kernel.normal_form_terms, "kernel.normal_form_terms", "kernel",
            nft_before, memo_after)

        hooks = {
            "scalars.Scalar.__mul__": (self._mul_before, None),
            "grassmann.exact_divide": (None, self._divide_after),
        }
        replaced = {}
        for layer, modname in LAYER_MODULES:
            mod = mods[modname]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    if issubclass(obj, BaseException):
                        continue
                    self._wrap_class(obj, layer, hooks)
                elif callable(obj):
                    qual = "%s.%s" % (layer, name)
                    before, after = hooks.get(qual, (None, None))
                    new = self.wrap(obj, qual, layer, before, after)
                    replaced[id(obj)] = (obj, new)
        # rebind module-level functions wherever qmink imported them by name
        for mod in list(mods.values()) + [kernel]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, cls, layer, hooks):
        for name, attr in list(vars(cls).items()):
            if name.startswith("__"):
                if name not in ARITHMETIC and not (
                        name == "__init__" and cls.__name__ in CONSTRUCTED) \
                        and not (name == "__eq__" and
                                 cls.__name__ == "GrassmannRational"):
                    continue
            elif name.startswith("_"):
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, name)
            before, after = hooks.get(qual, (None, None))
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self.wrap(attr.__func__, qual, layer,
                                           before, after))
            elif callable(attr):
                new = self.wrap(attr, qual, layer, before, after)
            else:
                continue
            setattr(cls, name, new)

    def _mul_before(self, args):
        a, b = args
        if len(a._c) == 1 and len(getattr(b, "_c", ())) == 1:
            self.counters["mul_monomial"] += 1
        return args

    def _divide_after(self, args, out):
        if out is not None:
            self.counters["exact_divide_ok"] += 1

    # -- summaries ---------------------------------------------------------

    def summary(self):
        """Calls per function, self seconds per layer and per function."""
        n = len(self.start)
        covered = [0.0] * n
        starts, ends, parents, fids = self.start, self.end, self.parent, \
            self.fid
        for s in range(n):
            p = parents[s]
            if p >= 0:
                covered[p] += ends[s] - starts[s]
        calls = [0] * len(self.names)
        fn_self = [0.0] * len(self.names)
        for s in range(n):
            f = fids[s]
            calls[f] += 1
            fn_self[f] += ends[s] - starts[s] - covered[s]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_name_calls = {}
        by_name_self = {}
        for f, name in enumerate(self.names):
            layer_self[LAYERS[self.layer_of[f]]] += fn_self[f]
            by_name_calls[name] = by_name_calls.get(name, 0) + calls[f]
            by_name_self[name] = by_name_self.get(name, 0.0) + fn_self[f]
        return {"spans": n, "calls": by_name_calls, "self_s": by_name_self,
                "layer_self_s": layer_self, "counters": dict(self.counters)}

    def write(self, path):
        """Header line (JSON) followed by the four span arrays, raw."""
        header = {"names": self.names,
                  "layers": [LAYERS[i] for i in self.layer_of],
                  "spans": len(self.start),
                  "arrays": [["fid", self.fid.typecode, self.fid.itemsize],
                             ["parent", self.parent.typecode,
                              self.parent.itemsize],
                             ["start", "d", 8], ["end", "d", 8]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)


class _Span:
    __slots__ = ("tr", "fid", "sid", "prev")

    def __init__(self, tr, fid):
        self.tr = tr
        self.fid = fid

    def __enter__(self):
        tr = self.tr
        self.sid = len(tr.start)
        self.prev = tr.cur
        tr.fid.append(self.fid)
        tr.parent.append(self.prev)
        tr.end.append(0.0)
        tr.cur = self.sid
        tr.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tr
        tr.end[self.sid] = time.perf_counter()
        tr.cur = self.prev
        return False
