"""In-memory spans around pfaffkit's public functions, installed from outside.

The tracer never edits pfaffkit: `install` replaces each target function,
wherever a pfaffkit module has bound it, with a
wrapper that times the call, and `uninstall` puts the originals back.

Each call becomes a span (name, start, end, parent, item).  A layer's self
time is its duration minus the time covered by its child spans; the wrapper
bookkeeping of a child is counted as part of the child, so it does not leak
into the parent's self time.  The hot leaf operations (ring products and
sums, normal ordering, brackets) run millions of times, so their spans are
folded into per-name totals at the same boundary instead of being kept one
by one.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _value_key(x):
    """Hashable by-value key of a ring element (Fraction, Poly or UEAElement)."""
    terms = getattr(x, "terms", None)
    if terms is None:
        return x
    return type(x).__name__, frozenset(terms.items())


def _matrix_key(args, kwargs):
    return tuple(tuple(_value_key(x) for x in row) for row in args[0].rows)


def _pair_key(args, kwargs):
    return args[0], args[1]


# (metric name, module, attribute path, options).  `distinct` gives the key of
# a call's input, for the distinct-input ratio; `out_terms` records the largest
# result size; `report_millis` sums the check millis of a VerificationReport.
TARGETS = (
    ("rings.Poly.mul", "pfaffkit.rings", "Poly.__mul__", {"out_terms": True, "hot": True}),
    ("rings.Poly.add", "pfaffkit.rings", "Poly.__add__", {"hot": True}),
    ("linalg.det_leibniz", "pfaffkit.linalg", "det_leibniz", {}),
    ("linalg.det_exact", "pfaffkit.linalg", "det_exact", {}),
    ("linalg.mat_mul", "pfaffkit.linalg", "mat_mul", {}),
    ("pfaffian.pfaffian", "pfaffkit.pfaffian", "pfaffian", {"distinct": _matrix_key}),
    ("pfaffian.pfaffian_definitional", "pfaffkit.pfaffian", "pfaffian_definitional", {}),
    ("pfaffian.pfaffian_of_anti_alternating", "pfaffkit.pfaffian", "pfaffian_of_anti_alternating", {}),
    ("pfaffian.copfaffian_matrix", "pfaffkit.pfaffian", "copfaffian_matrix", {}),
    ("pfaffian.copfaffian_expansion_check", "pfaffkit.pfaffian", "copfaffian_expansion_check", {}),
    ("pfaffian.complementary_minor_check", "pfaffkit.pfaffian", "complementary_minor_check", {}),
    ("pfaffian.minor_summation_rhs", "pfaffkit.pfaffian", "minor_summation_rhs", {}),
    ("pfaffian.equivariance_check", "pfaffkit.pfaffian", "equivariance_check", {}),
    ("uea.UEAElement.mul", "pfaffkit.uea", "UEAElement.__mul__", {"out_terms": True, "hot": True}),
    ("uea.UEAElement.add", "pfaffkit.uea", "UEAElement.__add__", {"hot": True}),
    ("uea.normal_order", "pfaffkit.uea", "normal_order", {"hot": True}),
    ("uea.bracket", "pfaffkit.uea", "bracket", {"distinct": _pair_key, "hot": True}),
    ("uea.nc_pfaffian", "pfaffkit.uea", "nc_pfaffian", {}),
    ("uea.nc_pfaffian_unrestricted", "pfaffkit.uea", "nc_pfaffian_unrestricted", {}),
    ("uea.nc_minor_summation_rhs", "pfaffkit.uea", "nc_minor_summation_rhs", {}),
    ("uea.centrality_failures", "pfaffkit.uea", "centrality_failures", {}),
    ("uea.hc_coefficient", "pfaffkit.uea", "hc_coefficient", {}),
    ("grassmann.GrassmannElement.mul", "pfaffkit.grassmann", "GrassmannElement.__mul__", {"hot": True}),
    ("grassmann.GrassmannElement.power", "pfaffkit.grassmann", "GrassmannElement.power", {}),
    ("grassmann.build_forms", "pfaffkit.grassmann", "build_forms", {}),
    ("matrixio.loads", "pfaffkit.matrixio", "loads", {}),
    ("verify.ncmsf_suite", "pfaffkit.verify", "ncmsf_suite", {"report_millis": True}),
    ("verify.central_suite", "pfaffkit.verify", "central_suite", {"report_millis": True}),
    ("verify.forms_suite", "pfaffkit.verify", "forms_suite", {"report_millis": True}),
)


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "depth", "out_terms_max", "keys", "millis")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0  # outermost activations only, so recursion is not double counted
        self.depth = 0
        self.out_terms_max = 0
        self.keys = set()
        self.millis = 0.0

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "s": self.incl_s,
            "out_terms_max": self.out_terms_max,
            "distinct": len(self.keys),
            "millis": self.millis,
        }


class Tracer:
    """Span recorder: `install()`, run items between `begin_item`/`end_item`,
    then `uninstall()` and read `summary()` and `spans`."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.item: str | None = None
        self._item_start = 0.0
        # one frame per active wrapped call: [child seconds, recorded span id]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def begin_item(self, item_id: str):
        """Open a root span for one benchmark item; later spans carry its id."""
        self.item = item_id
        self._item_start = perf_counter()
        self.spans.append(None)  # placeholder filled by end_item
        self._stack.append([0.0, len(self.spans) - 1])

    def end_item(self):
        frame = self._stack.pop()
        self.spans[frame[1]] = ("item", self._item_start, perf_counter(), -1, self.item)
        self.item = None

    def _wrap(self, name: str, fn, opts: dict):
        st = self.stats.setdefault(name, _Stat())
        stack = self._stack
        spans = self.spans
        hot = opts.get("hot", False)
        distinct = opts.get("distinct")
        out_terms = opts.get("out_terms", False)
        report_millis = opts.get("report_millis", False)
        tracer = self

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            if distinct is not None:
                st.keys.add(distinct(args, kwargs))
            parent_id = stack[-1][1] if stack else -1
            frame = [0.0, parent_id]
            if not hot:
                spans.append(None)
                frame[1] = len(spans) - 1
            stack.append(frame)
            st.depth += 1
            t0 = perf_counter()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                st.depth -= 1
                dur = t1 - t0
                st.calls += 1
                st.self_s += dur - frame[0]
                if not st.depth:
                    st.incl_s += dur
                if not hot:
                    spans[frame[1]] = (name, t0, t1, parent_id, tracer.item)
                if ok and out_terms and out is not NotImplemented:
                    st.out_terms_max = max(st.out_terms_max, len(out.terms))
                if ok and report_millis:
                    st.millis += sum(c.millis for c in out.checks)
                if stack:
                    stack[-1][0] += perf_counter() - t_enter
            return out

        return wrapper

    def install(self):
        """Wrap every target wherever a loaded pfaffkit module binds it."""
        namespaces = [vars(m) for k, m in list(sys.modules.items()) if k == "pfaffkit" or k.startswith("pfaffkit.")]
        for name, module_name, attr_path, opts in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, attr = attr_path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                orig = owner.__dict__[attr]
                wrapper = self._wrap(name, orig, opts)
                for key, value in list(owner.__dict__.items()):
                    if value is orig:  # e.g. Poly.__rmul__ is Poly.__mul__
                        self._restore.append((owner, key, value))
                        setattr(owner, key, wrapper)
            else:
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig, opts)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is orig:
                            self._restore.append((ns, key, value))
                            ns[key] = wrapper

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict]:
        return {name: st.summary() for name, st in self.stats.items()}
