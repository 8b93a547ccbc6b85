"""Out-of-package tracing for the sdet benchmark.

The tracer wraps the public functions of every ``sdet`` module from outside
the package, at every place each function is bound.  Modules import with
``from .determinants import det_lu``, so a call can reach a function through
several module globals (and through module-level dispatch tables); patching
only the defining module would miss those calls.  ``install`` finds every
binding by identity and ``remove`` puts the originals back.

Each wrapped call records a span: name, parent span, start, end and a few
attributes (matrix order, quadrature size, digits).  Spans stay in memory;
``per_layer_metrics`` turns the spans of one pass into self times (a span's
duration minus its children's) and work counts.  The two scalar conversions
are counted only, because they run once per matrix entry.
"""

import collections
import functools
import inspect
import time

LAYERS = (
    "scalars",
    "quadrature",
    "symbols",
    "transforms",
    "matrices",
    "determinants",
    "identities",
    "asymptotics",
    "cli",
)

# scalars: only the two conversion entry points, as call counts
COUNTED = {("scalars", "to_mp"), ("scalars", "coerce")}

# symbol methods that serve coefficient and moment tables
METHODS = (("FourierSymbol", "coeff_table"), ("MomentSymbol", "moment_table"))

TRANSFORMS = {"trig_transform", "cospower_transform", "circle_coeffs", "circle_coeffs_periodic"}

IDENTITY_KINDS = (
    "hankel_congruence",
    "th_vs_moment",
    "quarter_wave",
    "moment_to_toeplitz",
    "skew_square",
    "cseq_square",
    "moment_skew_square",
    "parity_split_even",
    "parity_split_chi",
    "pfaffian_link",
)

# asymptotics functions grouped the way the per-layer metrics report them
ASYMPTOTICS_GROUPS = {
    "study": ("study",),
    "barnes": ("barnes_constants", "g_half_series", "glaisher_constant", "zeta_int"),
    "fit": ("fit_asymptote", "extrapolate_limit"),
    "predict": (
        "predict_szego_fh",
        "predict_half_jump_ratio",
        "predict_cor53",
        "predict_conjecture_constants",
    ),
}

# metrics that are work counts and must repeat exactly between passes
COUNT_METRICS = (
    "scalars.to_mp.calls",
    "scalars.coerce.calls",
    "symbols.coeff_table.calls",
    "symbols.moment_table.calls",
    "symbols.table_quad_ratio",
    "quadrature.calls",
    "quadrature.n_sum",
    "quadrature.gl_rule.calls",
    "transforms.calls",
    "matrices.build.calls",
    "matrices.entries",
    "determinants.det_lu.calls",
    "determinants.det_lu.n3_sum",
    "determinants.det_bareiss.calls",
    "determinants.det_bareiss.n3_sum",
    "determinants.pfaffian.calls",
    "identities.verify.calls",
    "identities.records",
    "cli.run.calls",
)

# self time of each layer; together they cover every span
LAYER_SELF = (
    "symbols.s",
    "quadrature.s",
    "transforms.s",
    "matrices.build.s",
    "determinants.s",
    "identities.s",
    "asymptotics.s",
    "cli.run.s",
)

_MARK = "__perfbench_wrapped__"

# span fields
NAME, PARENT, START, END, ATTRS = range(5)


def _bound_arg(sig, args, kwargs, name):
    try:
        return sig.bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


class Tracer:
    """Spans and counters for one process; install() before, remove() after."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._restore = []

    # -- wrapping ----------------------------------------------------------

    def _targets(self):
        pkg = self.package
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "scalars" and (layer, name) not in COUNTED:
                    continue
                yield layer, name, obj
        for cls_name, meth in METHODS:
            yield "symbols", meth, vars(pkg.symbols)[cls_name].__dict__[meth]

    def _wrap(self, layer, name, fn):
        key = "%s.%s" % (layer, name)
        counts = self.counts
        if (layer, name) in COUNTED:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            setattr(counted, _MARK, True)
            return counted

        attrs_of = self._attr_hook(layer, name, fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [key, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if attrs_of is not None:
                    span[ATTRS] = attrs_of(args, kwargs, result, exc)

        setattr(spanned, _MARK, True)
        return spanned

    def _attr_hook(self, layer, name, fn):
        """Per-function attribute extractor, run after the span closes."""
        if layer == "quadrature" and name in TRANSFORMS:
            sig = inspect.signature(fn)

            def quad(args, kwargs, result, exc):
                return {
                    "n_max": _bound_arg(sig, args, kwargs, "n_max"),
                    "error": type(exc).__name__ if exc is not None else None,
                }

            return quad
        if layer == "matrices":

            def build(args, kwargs, result, exc):
                if result is None:
                    return None
                mats = result if isinstance(result, tuple) else (result,)
                return {"entries": sum(m.order * m.order for m in mats)}

            return build
        if layer == "determinants" and name in ("det_lu", "det_bareiss"):

            def det(args, kwargs, result, exc):
                order = args[0].order if args else kwargs["M"].order
                out = {"n3": order**3}
                if exc is not None:
                    out["error"] = type(exc).__name__
                elif result is not None and result.digits_guaranteed is not None:
                    out["digits"] = result.digits_guaranteed
                return out

            return det
        if layer == "identities" and name in ("verify", "pfaffian_link"):

            def ident(args, kwargs, result, exc):
                if name == "verify":
                    kind = args[0] if args else kwargs["kind"]
                    kind = getattr(kind, "value", kind)
                else:
                    kind = "pfaffian_link"
                records = len(result.records) if result is not None else 0
                return {"kind": kind, "records": records}

            return ident
        if name == "coeff_table":
            sig = inspect.signature(fn)
            counts = self.counts

            def table(args, kwargs, result, exc):
                # repeat coeff_table's own closed-form probe; its scalar
                # conversions belong to the tracer, not to the program
                saved = dict(counts)
                bits = _bound_arg(sig, args, kwargs, "bits")
                closed = args[0].closed_coeff(0, bits) is not None
                counts.clear()
                counts.update(saved)
                return {"closed": closed}

            return table
        return None

    def _bindings(self):
        """(container, key, object) for every module global, module-level
        dict entry (dispatch tables) and class attribute in the package."""
        pkg = self.package
        modules = [pkg] + [getattr(pkg, layer) for layer in LAYERS]
        for mod in modules:
            ns = vars(mod)
            for key, obj in list(ns.items()):
                yield ns, key, obj
                if isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        yield obj, k, v
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for k, v in list(vars(obj).items()):
                        yield obj, k, v

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, name, fn in self._targets():
            wrappers[fn] = self._wrap(layer, name, fn)
        for container, key, obj in self._bindings():
            new = self._replacement(obj, wrappers)
            if new is None:
                continue
            self._restore.append((container, key, obj))
            if inspect.isclass(container):
                setattr(container, key, new)
            else:
                container[key] = new

    @staticmethod
    def _replacement(obj, wrappers):
        if inspect.isfunction(obj):
            return wrappers.get(obj)
        if isinstance(obj, tuple) and any(inspect.isfunction(v) and v in wrappers for v in obj):
            return tuple(wrappers.get(v, v) if inspect.isfunction(v) else v for v in obj)
        return None

    def remove(self):
        for container, key, obj in reversed(self._restore):
            if inspect.isclass(container):
                setattr(container, key, obj)
            else:
                container[key] = obj
        self._restore = []

    def leftover_wrappers(self) -> int:
        """Bindings that still hold a wrapper (0 after a clean remove())."""
        left = 0
        for _, _, obj in self._bindings():
            items = obj if isinstance(obj, tuple) else (obj,)
            left += sum(1 for v in items if getattr(v, _MARK, False))
        return left

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- metrics -----------------------------------------------------------

    def per_layer_metrics(self) -> dict:
        """Per-layer self times and work counts for the spans recorded."""
        spans = self.spans
        self_s = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                self_s[s[PARENT]] -= s[END] - s[START]

        by_name = collections.defaultdict(lambda: [0, 0.0])
        by_layer = collections.defaultdict(float)
        kind_s = collections.defaultdict(float)
        n_sum = quad_errors = records = 0
        lu_n3 = bareiss_n3 = precision_errors = 0
        entries = 0
        table_requests = 0
        digits = []
        for s, own in zip(spans, self_s):
            name, attrs = s[NAME], s[ATTRS] or {}
            layer, func = name.split(".", 1)
            agg = by_name[name]
            agg[0] += 1
            agg[1] += own
            by_layer[layer] += own
            if layer == "quadrature" and func in TRANSFORMS:
                n_sum += attrs.get("n_max") or 0
                quad_errors += attrs.get("error") == "AccuracyError"
            elif layer == "matrices":
                entries += attrs.get("entries", 0)
            elif func == "det_lu":
                lu_n3 += attrs["n3"]
                precision_errors += attrs.get("error") == "PrecisionError"
                if "digits" in attrs:
                    digits.append(attrs["digits"])
            elif func == "det_bareiss":
                bareiss_n3 += attrs["n3"]
            elif layer == "identities" and "kind" in attrs:
                kind_s[attrs["kind"]] += own
                records += attrs["records"]
            if func == "coeff_table" and not attrs.get("closed", False):
                table_requests += 1
            elif func == "moment_table":
                table_requests += 1

        def calls(name):
            return by_name[name][0] if name in by_name else 0

        def secs(*names):
            return sum(by_name[n][1] for n in names if n in by_name)

        quad_calls = sum(calls("quadrature." + f) for f in TRANSFORMS)
        m = {
            "scalars.to_mp.calls": self.counts["scalars.to_mp"],
            "scalars.coerce.calls": self.counts["scalars.coerce"],
            "symbols.coeff_table.calls": calls("symbols.coeff_table"),
            "symbols.coeff_table.s": secs("symbols.coeff_table"),
            "symbols.moment_table.calls": calls("symbols.moment_table"),
            "symbols.moment_table.s": secs("symbols.moment_table"),
            "symbols.table_quad_ratio": quad_calls / table_requests if table_requests else 0.0,
            "symbols.s": by_layer["symbols"],
            "quadrature.calls": quad_calls,
            "quadrature.s": by_layer["quadrature"],
            "quadrature.n_sum": n_sum,
            "quadrature.gl_rule.calls": calls("quadrature.gauss_legendre_rule"),
            "quadrature.gl_rule.s": secs("quadrature.gauss_legendre_rule"),
            "quadrature.errors": quad_errors,
            "transforms.calls": sum(a[0] for n, a in by_name.items() if n.startswith("transforms.")),
            "transforms.s": by_layer["transforms"],
            "matrices.build.calls": sum(a[0] for n, a in by_name.items() if n.startswith("matrices.")),
            "matrices.build.s": by_layer["matrices"],
            "matrices.entries": entries,
            "determinants.det_lu.calls": calls("determinants.det_lu"),
            "determinants.det_lu.s": secs("determinants.det_lu"),
            "determinants.det_lu.n3_sum": lu_n3,
            "determinants.det_bareiss.calls": calls("determinants.det_bareiss"),
            "determinants.det_bareiss.s": secs("determinants.det_bareiss"),
            "determinants.det_bareiss.n3_sum": bareiss_n3,
            "determinants.pfaffian.calls": calls("determinants.pfaffian"),
            "determinants.pfaffian.s": secs("determinants.pfaffian"),
            "determinants.precision_errors": precision_errors,
            # 0 when det_lu never ran (exact mode)
            "determinants.digits_min": min(digits) if digits else 0,
            "determinants.s": by_layer["determinants"],
            "identities.verify.calls": calls("identities.verify"),
            "identities.records": records,
            "identities.s": by_layer["identities"],
        }
        for kind in IDENTITY_KINDS:
            m["identities.kind.%s.s" % kind] = kind_s[kind]
        for group, funcs in ASYMPTOTICS_GROUPS.items():
            m["asymptotics.%s.s" % group] = secs(*("asymptotics." + f for f in funcs))
        m["asymptotics.s"] = by_layer["asymptotics"]
        m["cli.run.calls"] = calls("cli.run")
        m["cli.run.s"] = by_layer["cli"]
        return m

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans (the sum of all self times)."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def span_records(self):
        """Spans as JSON-ready dicts, in call order."""
        for i, s in enumerate(self.spans):
            yield {
                "id": i,
                "name": s[NAME],
                "parent": s[PARENT],
                "start": s[START],
                "end": s[END],
                "attrs": s[ATTRS],
            }
