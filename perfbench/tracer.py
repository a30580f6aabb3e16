"""Span tracer for the traced benchmark run.

The tracer wraps the public functions and methods of the equiops layer
modules from the outside: no library source changes.  Every wrapped call
records one span (name, start, end, parent span, item id) in flat arrays,
so a traced pass keeps all of its spans in memory; ``save`` writes them out
when the run ends.  A few wrapped calls also feed boundary counters
(rational operands, useful reductions) so that ratios are measured where
the work happens.

Per-layer numbers are derived from the spans by ``summary``: a layer's
``calls`` is its number of spans and its ``self_s`` is the summed span time
minus the time covered by each span's direct children.
"""

import importlib
import sys
import time
import types
from array import array

LAYERS = ("cyclotomic", "poly", "ratfn", "moebius", "operators", "divisors",
          "lift", "dynamics", "qseries", "ncalg", "parsing", "properties")

# Dunder methods that are part of a class's public interface.
PUBLIC_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
    "__neg__", "__eq__", "__call__"))

CYCLO_ARITHMETIC = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse"))

BENCH_LAYER = "bench"  # item and set-up root spans recorded by the harness

# Per-layer metrics of named functions: metric -> the span names it sums.
NAMED_CALLS = {
    "cyclotomic.mul.calls": ("cyclotomic.Cyclo.__mul__",
                             "cyclotomic.Cyclo.__rmul__"),
    "cyclotomic.add.calls": ("cyclotomic.Cyclo.__add__",
                             "cyclotomic.Cyclo.__radd__"),
    "cyclotomic.inverse.calls": ("cyclotomic.Cyclo.inverse",),
    "poly.mul.calls": ("poly.Poly.__mul__", "poly.Poly.__rmul__"),
    "poly.divmod.calls": ("poly.Poly.divmod",),
    "poly.gcd.calls": ("poly.Poly.gcd",),
    "ncalg.MatFn.mul.calls": ("ncalg.MatFn.__mul__", "ncalg.MatFn.__rmul__"),
    "ncalg.MatFn.inverse.calls": ("ncalg.MatFn.inverse",),
    "ncalg.MatFn.det.calls": ("ncalg.MatFn.det",),
    "ncalg.phi_generators.calls": ("ncalg.phi_generators",),
    "operators.d_operator.calls": ("operators.d_operator",),
    "operators.schwarzian.calls": ("operators.schwarzian",),
    "operators.phi_operator.calls": ("operators.phi_operator",),
    "qseries.QSeries.mul.calls": ("qseries.QSeries.__mul__",
                                  "qseries.QSeries.__rmul__"),
    "qseries.QSeries.inverse.calls": ("qseries.QSeries.inverse",),
}
NAMED_SELF_S = {
    "cyclotomic.inverse.self_s": ("cyclotomic.Cyclo.inverse",),
    "poly.mul.self_s": ("poly.Poly.__mul__", "poly.Poly.__rmul__"),
    "poly.divmod.self_s": ("poly.Poly.divmod",),
    "poly.gcd.self_s": ("poly.Poly.gcd",),
    "ncalg.MatFn.mul.self_s": ("ncalg.MatFn.__mul__", "ncalg.MatFn.__rmul__"),
    "ncalg.MatFn.inverse.self_s": ("ncalg.MatFn.inverse",),
    "ncalg.MatFn.det.self_s": ("ncalg.MatFn.det",),
    "operators.period_residues.self_s": ("operators.period_residues",),
    "moebius.equivariance_check.self_s": ("moebius.equivariance_check",),
    "moebius.load_group_config.self_s": ("moebius.load_group_config",),
    "qseries.QSeries.mul.self_s": ("qseries.QSeries.__mul__",
                                   "qseries.QSeries.__rmul__"),
    "qseries.QSeries.inverse.self_s": ("qseries.QSeries.inverse",),
    "dynamics.poly_roots.self_s": ("dynamics.poly_roots",),
    "dynamics.cycle_report.self_s": ("dynamics.cycle_report",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _is_rational_cyclo(c):
    return not any(c.num[1:])


def _is_rational_poly(p):
    return all(not any(c.num[1:]) for c in p.coeffs)


class Tracer:
    """Records spans of wrapped equiops calls; see the module docstring."""

    def __init__(self):
        self.span_names = []          # name id -> span name
        self.span_layers = []         # name id -> layer index
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_item = -1
        self.errors = [0] * (len(LAYERS) + 1)
        self.cyclo_arith = 0
        self.cyclo_arith_rational = 0
        self.gcd_rational = 0
        self.reduce_calls = 0
        self.reduce_cancels = 0
        self._patches = []

    # -- span recording ------------------------------------------------

    def _name_id(self, name, layer_index):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.span_names)
            self._name_ids[name] = nid
            self.span_names.append(name)
            self.span_layers.append(layer_index)
        return nid

    def _wrap(self, layer_index, qualname, fn, before=None):
        """A wrapper that records a span around ``fn``.

        ``before(args, kwargs)`` runs ahead of the span and may return a
        callable that runs after the call with its result.
        """
        nid = self._name_id("%s.%s" % (LAYERS[layer_index], qualname),
                            layer_index)
        names, parents, items = self.name, self.parent, self.item
        starts, ends, stack = self.start, self.end, self._stack
        errors, clock, tracer = self.errors, time.perf_counter, self

        def traced(*args, **kwargs):
            after = before(args, kwargs) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.current_item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[layer_index] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def span(self, name, item=-1):
        """Context manager for a harness root span (an item or set-up)."""
        return _RootSpan(self, self._name_id("%s.%s" % (BENCH_LAYER, name),
                                             len(LAYERS)), item)

    # -- boundary counters ----------------------------------------------

    def _count_cyclo(self, args, kwargs):
        self.cyclo_arith += 1
        if _is_rational_cyclo(args[0]) and (
                len(args) < 2 or not hasattr(args[1], "num")
                or _is_rational_cyclo(args[1])):
            self.cyclo_arith_rational += 1

    def _count_gcd(self, args, kwargs):
        if _is_rational_poly(args[0]) and _is_rational_poly(args[1]):
            self.gcd_rational += 1

    def _count_reduce(self, args, kwargs):
        """RatFn(num, den=None, reduce=True): a reduction runs a gcd when
        reduce is true and den is a nonzero polynomial; it is useful when
        the gcd has degree >= 1, which shows as a drop in den's degree."""
        reduce = kwargs.get("reduce", args[3] if len(args) > 3 else True)
        den = kwargs.get("den", args[2] if len(args) > 2 else None)
        if not reduce or not hasattr(den, "coeffs") or den.is_zero:
            return None
        self.reduce_calls += 1
        den_degree = den.degree

        def after(call_args, result):
            if call_args[0].den.degree < den_degree:
                self.reduce_cancels += 1
        return after

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, also=()):
        """Wrap every layer's public functions and methods.

        Names bound by ``from ... import`` are rebound too, in every equiops
        module and in the modules listed in ``also``.
        """
        # import every layer before patching any, so that no module binds a
        # wrapper by ``from ... import`` that uninstall would not restore
        layer_modules = [importlib.import_module("equiops." + layer)
                         for layer in LAYERS]
        wrapped = {}  # original function -> wrapper, to rebind imports
        for layer_index, module in enumerate(layer_modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(
                        obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self._wrap(layer_index, name, obj)
                    self._patch(module, name, wrapped[obj])
                elif isinstance(obj, type):
                    self._install_class(layer_index, obj)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "equiops" or name.startswith("equiops.")]
        for module in modules + list(also):
            for name, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(module, name, wrapped[obj])

    def _install_class(self, layer_index, cls):
        counters = {"ratfn.RatFn.__init__": self._count_reduce,
                    "poly.Poly.gcd": self._count_gcd}
        counters.update(("cyclotomic.Cyclo." + attr, self._count_cyclo)
                        for attr in CYCLO_ARITHMETIC)
        for attr, value in list(vars(cls).items()):
            qualname = "%s.%s" % (cls.__name__, attr)
            before = counters.get("%s.%s" % (LAYERS[layer_index], qualname))
            public = not attr.startswith("_") or attr in PUBLIC_DUNDERS
            if before is None and not public:
                continue
            if isinstance(value, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(
                    layer_index, qualname, value.__func__, before)))
            elif isinstance(value, types.FunctionType):
                self._patch(cls, attr,
                            self._wrap(layer_index, qualname, value, before))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def save(self, path):
        """Write every span and the name table (numpy .npz)."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.span_names), name=np.array(self.name),
            parent=np.array(self.parent), item=np.array(self.item),
            start=np.array(self.start), end=np.array(self.end))

    def summary(self):
        """Per span name {name: (calls, self seconds)}, per layer
        {layer: (calls, self seconds)} and per layer inclusive seconds.

        A layer's inclusive time counts each span of the layer that has no
        ancestor span in the same layer, so recursion is not counted twice.
        """
        import numpy as np
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        covered = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = duration - covered
        n_names = len(self.span_names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        per_name = {self.span_names[i]: (int(calls[i]), float(self_s[i]))
                    for i in range(n_names)}
        layers = {}
        for i, layer_index in enumerate(self.span_layers):
            if layer_index == len(LAYERS):
                continue
            c, s = layers.get(LAYERS[layer_index], (0, 0.0))
            layers[LAYERS[layer_index]] = (c + int(calls[i]),
                                           s + float(self_s[i]))
        span_layer = np.array(self.span_layers, dtype=np.int64)[name].tolist()
        totals = [0.0] * (len(LAYERS) + 1)
        masks = array("q")  # per span: bit set of its ancestors' layers
        for p, layer, d in zip(parent.tolist(), span_layer,
                               duration.tolist()):
            mask = (masks[p] | (1 << span_layer[p])) if p >= 0 else 0
            masks.append(mask)
            if not (mask >> layer) & 1:
                totals[layer] += d
        inclusive = {layer: totals[i] for i, layer in enumerate(LAYERS)}
        return per_name, layers, inclusive


    def metrics(self, overhead_ratio):
        """The per-layer metrics, {name: [value, unit]}.

        ``overhead_ratio`` is the traced pass's time over an untraced
        pass's; a ratio whose base is 0 reads 0.
        """
        per_name, layers, inclusive = self.summary()

        def calls(*names):
            return sum(per_name.get(n, (0, 0.0))[0] for n in names)

        def self_s(*names):
            return sum(per_name.get(n, (0, 0.0))[1] for n in names)

        out = {}
        for index, layer in enumerate(LAYERS):
            c, s = layers.get(layer, (0, 0.0))
            out[layer + ".calls"] = [c, "count"]
            out[layer + ".self_s"] = [s, "s"]
            out[layer + ".incl_s"] = [inclusive[layer], "s"]
            out[layer + ".errors"] = [self.errors[index], "count"]
        for metric, names in NAMED_CALLS.items():
            out[metric] = [calls(*names), "count"]
        for metric, names in NAMED_SELF_S.items():
            out[metric] = [self_s(*names), "s"]
        out["cyclotomic.rational_share"] = [
            _ratio(self.cyclo_arith_rational, self.cyclo_arith), "ratio"]
        out["poly.gcd.rational_share"] = [
            _ratio(self.gcd_rational, calls("poly.Poly.gcd")), "ratio"]
        out["ratfn.reduce.calls"] = [self.reduce_calls, "count"]
        out["ratfn.reduce.cancel_ratio"] = [
            _ratio(self.reduce_cancels, self.reduce_calls), "ratio"]
        out["ncalg.phi_generators.per_nc_eval"] = [
            _ratio(calls("ncalg.phi_generators"), calls("ncalg.nc_eval")),
            "ratio"]
        out["trace.overhead_ratio"] = [overhead_ratio, "ratio"]
        return out


class _RootSpan:
    def __init__(self, tracer, nid, item):
        self.tracer = tracer
        self.nid = nid
        self.item = item

    def __enter__(self):
        t = self.tracer
        t.current_item = self.item
        self.idx = len(t.start)
        t.name.append(self.nid)
        t.parent.append(t._stack[-1])
        t.item.append(self.item)
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t._stack.append(self.idx)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.idx] = time.perf_counter()
        t._stack.pop()
        t.current_item = -1
        return False
