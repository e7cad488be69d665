"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every sphemb module where callers
look them up, records one span per call (name, start, end, parent span, op id)
in memory, and turns the spans into the per-layer metrics listed in
``PER_LAYER``.  Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter

# (metric name, unit, better).  Names are global: a workload that never reaches
# a layer reports 0 for it.
PER_LAYER = [
    ("oracle.t_order.calls", "count", "lower"),
    ("oracle.t_order.s", "s", "lower"),
    ("oracle.t_order.draws_per_curve_trial", "ratio", "lower"),
    ("oracle.semiinvariance_check.calls", "count", "lower"),
    ("oracle.semiinvariance_check.s", "s", "lower"),
    ("oracle.select_semi_invariants.s", "s", "lower"),
    ("oracle.semi_invariants.accept_ratio", "ratio", "higher"),
    ("oracle.limit_signature.s", "s", "lower"),
    ("oracle.orbit_dimension.s", "s", "lower"),
    ("oracle.stabilizer_check.calls", "count", "lower"),
    ("families.act.calls", "count", "lower"),
    ("families.act.s", "s", "lower"),
    ("families.group_sampler.calls", "count", "lower"),
    ("families.group_sampler.s", "s", "lower"),
    ("families.borel_sampler.calls", "count", "lower"),
    ("families.semi_invariant_eval.calls", "count", "lower"),
    ("families.semi_invariant_eval.s", "s", "lower"),
    ("families.build_family.calls", "count", "lower"),
    ("families.build_family.s", "s", "lower"),
    ("families.finalize_determinantal_model.s", "s", "lower"),
    ("laurent.mul.calls", "count", "lower"),
    ("laurent.mul.s", "s", "lower"),
    ("lattice.mat_mul.calls", "count", "lower"),
    ("lattice.mat_mul.s", "s", "lower"),
    ("lattice.rational_inverse.calls", "count", "lower"),
    ("lattice.rational_inverse.s", "s", "lower"),
    ("lattice.rational_rank.calls", "count", "lower"),
    ("lattice.rational_rank.s", "s", "lower"),
    ("lattice.determinant.calls", "count", "lower"),
    ("lattice.smith_normal_form.calls", "count", "lower"),
    ("lattice.smith_normal_form.s", "s", "lower"),
    ("lattice.solve_integer.calls", "count", "lower"),
    ("lattice.solve_integer.s", "s", "lower"),
    ("divisor_model.is_principal.calls", "count", "lower"),
    ("divisor_model.is_principal.s", "s", "lower"),
    ("divisor_model.is_principal.snf_per_call", "ratio", "lower"),
    ("divisor_model.class_of.calls", "count", "lower"),
    ("divisor_model.class_of.s", "s", "lower"),
    ("divisor_model.principal_divisor.calls", "count", "lower"),
    ("divisor_model.principal_divisor.s", "s", "lower"),
    ("divisor_model.class_group_data.calls", "count", "lower"),
    ("divisor_model.class_group_data.misses", "count", "lower"),
    ("divisor_model.class_group_data.hit_s", "s", "lower"),
    ("divisor_model.class_group_data.miss_s", "s", "lower"),
    ("divisor_model.validate_model.s", "s", "lower"),
    ("divisor_model.model_from_json.s", "s", "lower"),
    ("rootdata.pair.calls", "count", "lower"),
    ("rootdata.pair.s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "higher"),
]

# Module-level functions wrapped in place: (module, attribute).  The span name
# is "<module>.<attribute>".
FUNCTIONS = [
    ("cli", "run"),
    ("families", "build_family"),
    ("families", "finalize_determinantal_model"),
    ("oracle", "t_order"),
    ("oracle", "semiinvariance_check"),
    ("oracle", "select_semi_invariants"),
    ("oracle", "limit_signature"),
    ("oracle", "orbit_dimension"),
    ("oracle", "stabilizer_check"),
    ("lattice", "mat_mul"),
    ("lattice", "rational_inverse"),
    ("lattice", "rational_rank"),
    ("lattice", "determinant"),
    ("lattice", "smith_normal_form"),
    ("lattice", "solve_integer"),
    ("divisor_model", "is_principal"),
    ("divisor_model", "class_of"),
    ("divisor_model", "principal_divisor"),
    ("divisor_model", "class_group_data"),
    ("divisor_model", "validate_model"),
    ("divisor_model", "model_from_json"),
    ("rootdata", "pair"),
]

# Callables of the realization objects that build_family returns.
REALIZATION_CALLABLES = [
    ("act", "families.act"),
    ("group_sampler", "families.group_sampler"),
    ("borel_sampler", "families.borel_sampler"),
]

OP_ROOT = "bench.op"
SETUP_ROOT = "bench.setup"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, kept as parallel lists to stay compact.
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        # Distinct (curve, trial) pairs seen by t_order, and semi-invariant
        # candidates versus selections.
        self._curve_trials: dict[tuple, int] = {}
        self.candidates = 0
        self.selected = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, after=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, sp):
        """Wrap every traced function of a freshly imported sphemb namespace."""
        modules = [m for n, m in sys.modules.items() if n == "sphemb" or n.startswith("sphemb.")]
        hooks = {
            "build_family": self._after_build_family,
            "t_order": self._after_t_order,
            "select_semi_invariants": self._after_select,
        }
        self._t_order_sig = inspect.signature(sp.oracle.t_order)
        self._select_sig = inspect.signature(sp.oracle.select_semi_invariants)
        for mod_name, attr in FUNCTIONS:
            original = getattr(getattr(sp, mod_name), attr)
            wrapper = self.wrap(original, f"{mod_name}.{attr}", hooks.get(attr))
            # Names pulled in by ``from .x import y`` are patched in every module.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        poly = sp.laurent.LaurentPoly
        mul = self.wrap(poly.__mul__, "laurent.mul")
        poly.__mul__ = mul
        poly.__rmul__ = mul

    def _after_build_family(self, args, kwargs, bundle):
        real = bundle.realization
        for attr, name in REALIZATION_CALLABLES:
            setattr(real, attr, self.wrap(getattr(real, attr), name))
        for spec in real.semi_invariants:
            spec.evaluate = self.wrap(spec.evaluate, "families.semi_invariant_eval")

    def _after_t_order(self, args, kwargs, result):
        bound = self._t_order_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = (self.op_id, id(a["real"]), a["curve_label"], a["seed"])
        self._curve_trials[key] = max(self._curve_trials.get(key, 0), a["trials"])

    def _after_select(self, args, kwargs, result):
        bound = self._select_sig.bind(*args, **kwargs)
        self.candidates += len(bound.arguments["real"].semi_invariants)
        self.selected += len(result)

    # -- analysis -----------------------------------------------------------

    def _has_ancestor(self, idx: int, target: int, stop: int = -1) -> bool:
        p = self.parent[idx]
        while p >= 0:
            nid = self.name[p]
            if nid == target:
                return True
            if nid == stop:
                return False
            p = self.parent[p]
        return False

    def metrics(self, trace_overhead: float) -> tuple[dict, dict]:
        """Per-layer metrics plus consistency facts about the span tree."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        children = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                children[p] += 1

        ids = self._name_ids
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
            # Inclusive time counts only the outermost span of a recursive name.
            if not self._has_ancestor(i, self.name[i]):
                total[nm] = total.get(nm, 0.0) + dur[i]

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return total.get(name, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        t_order_id = ids.get("oracle.t_order", -2)
        draws = sum(
            1
            for i in range(n)
            if self.names[self.name[i]] == "families.group_sampler" and self._has_ancestor(i, t_order_id)
        )
        is_principal_id = ids.get("divisor_model.is_principal", -2)
        cgd_id = ids.get("divisor_model.class_group_data", -2)
        snf_in_is_principal = sum(
            1
            for i in range(n)
            if self.names[self.name[i]] == "lattice.smith_normal_form"
            and self._has_ancestor(i, is_principal_id, stop=cgd_id)
        )
        # A class_group_data call that reached any traced function computed the
        # data; one that reached none was answered from the cache.
        hit_s = miss_s = 0.0
        misses = 0
        for i in range(n):
            if self.name[i] == cgd_id:
                if children[i]:
                    misses += 1
                    miss_s += dur[i]
                else:
                    hit_s += dur[i]

        out = {}
        for metric, _, _ in PER_LAYER:
            if metric.endswith(".calls"):
                out[metric] = c(metric[: -len(".calls")])
            elif metric.endswith(".s"):
                out[metric] = s(metric[: -len(".s")])
        out.update(
            {
                "oracle.t_order.draws_per_curve_trial": ratio(draws, sum(self._curve_trials.values())),
                "oracle.semi_invariants.accept_ratio": ratio(self.selected, self.candidates),
                "divisor_model.is_principal.snf_per_call": ratio(
                    snf_in_is_principal, c("divisor_model.is_principal")
                ),
                "divisor_model.class_group_data.misses": misses,
                "divisor_model.class_group_data.hit_s": hit_s,
                "divisor_model.class_group_data.miss_s": miss_s,
                "cli.run.self_s": self_s.get("cli.run", 0.0),
                "trace_overhead": trace_overhead,
            }
        )

        op_root = ids.get(OP_ROOT, -2)
        roots = ids.get(SETUP_ROOT, -2), op_root
        layer_self = sum(dur[i] - child[i] for i in range(n) if self.name[i] not in roots)
        root_wall = sum(dur[i] for i in range(n) if self.name[i] in roots)
        facts = {
            "spans": n,
            "layer_self_s": layer_self,
            "root_wall_s": root_wall,
            "self_within_wall": layer_self <= root_wall + 1e-9 * n,
        }
        return out, facts

    def dump(self, path, meta: dict):
        """Write every span (columnar, gzip JSON) once the run has ended."""
        doc = dict(meta)
        doc.update(
            names=self.names,
            name=self.name,
            start=self.start,
            end=self.end,
            parent=self.parent,
            op=self.op,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
