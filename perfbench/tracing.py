"""Tracing of the qgraded layers from outside the program.

A Tracer wraps the public entry points of each src/qgraded module with
span recorders (coarse calls: name, start, end, parent, input id) and the
hot methods (scalar multiply and inverse, echelon insert, factor
evaluation, group addition) with counters, so the per-layer metrics are
measured where the work happens.  Spans stay in memory until the run
ends.  Every wrapper is marked; `remove()` puts every original attribute
back and then looks for marked objects left in the qgraded modules and
their classes.  The program's outputs are the same with and without the
wrappers.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

# per-layer metric -> the end-to-end metric (and workload) it should move
LAYER_TARGETS = {
    "scalars.mul_calls": "decided_per_s on beta-twisted and beta-dense",
    "scalars.inverse_calls": "decided_per_s on beta-twisted and beta-dense",
    "scalars.inverse_s": "decided_per_s on beta-twisted and beta-dense",
    "scalars.cyclotomic_ratio": "decided_per_s on beta-twisted and beta-dense",
    "scalars.parse_s": "setup_s",
    "linalg.rank_s": "decided_per_s on beta-twisted; nothing on beta-dense",
    "linalg.kernel_s": "verdict_tail_s on beta-dense",
    "linalg.echelon_adds": "count of Echelon.add calls",
    "linalg.fill_ratio": "decided_per_s on beta-dense",
    "galois.space_s": "decided_per_s on beta-dense",
    "galois.relation_rows": "decided_per_s on beta-dense",
    "galois.relation_rank": "decided_per_s on beta-dense",
    "galois.quotient_dim": "decided_per_s on beta-dense",
    "galois.assemble_s": "decided_per_s and peak_rss_mb on beta-twisted",
    "galois.beta_columns": "decided_per_s and peak_rss_mb on beta-twisted",
    "galois.beta_nnz": "decided_per_s and peak_rss_mb on beta-twisted",
    "algebras.validate_s": "decided_per_s on check-corpus, setup_s on beta-dense",
    "algebras.validate_triples": "decided_per_s on check-corpus, setup_s on beta-dense",
    "algebras.qc_s": "decided_per_s on check-corpus",
    "algebras.strong_s": "decided_per_s on check-corpus",
    "commutation.cqt_s": "decided_per_s and verdict_tail_s on check-corpus",
    "commutation.evaluate_calls": "decided_per_s and verdict_tail_s on check-corpus",
    "commutation.evaluate_hit_ratio": "decided_per_s and verdict_tail_s on check-corpus",
    "group_hopf.hopf_s": "decided_per_s on check-corpus",
    "groups.add_calls": "check-corpus (cqt cube) and beta-twisted (assembly keys)",
    "descriptors.load_s": "setup_s and verdict_p50_s on check-corpus",
    "cli.self_s": "verdict_p50_s on check-corpus",
    "trace.overhead_decided_per_s": "traced minus untraced decided_per_s",
}

# span name -> (module, attribute path) of the wrapped entry point
SPANS = {
    "cli.main": ("qgraded.cli", "main"),
    "descriptors.load": ("qgraded.descriptors", "load_descriptor"),
    "group_hopf.hopf": ("qgraded.group_hopf", "check_hopf_axioms"),
    "commutation.cqt": ("qgraded.commutation", "check_cqt_axioms"),
    "algebras.qc": ("qgraded.algebras", "check_quantum_commutativity"),
    "algebras.strong": ("qgraded.algebras", "check_strong_grading"),
    "galois.equivalence": ("qgraded.galois", "check_equivalence_theorem"),
    "galois.is_galois": ("qgraded.galois", "is_galois"),
    "linalg.rank": ("qgraded.linalg", "LinearMap.rank"),
    "linalg.kernel": ("qgraded.linalg", "LinearMap.kernel"),
}


class Tracer:
    """Spans and counters for one traced run; install, run, remove."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, input, phase]
        self.nested: list[bool] = []  # inside another span of the same name
        self.counts: dict[str, Counter] = {"setup": Counter(),
                                           "pass": Counter()}
        self.phase = "setup"
        self.input_id = "setup"
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._evaluated: set = set()
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def begin_input(self, input_id: str):
        self.input_id = input_id
        self._evaluated = set()

    def _span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent, self.input_id,
                               self.phase])
            self.nested.append(self._active[name] > 0)
            self._stack.append(idx)
            self._active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if after is not None:
                after(self.counts[self.phase], args, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, wrapper_of, everywhere: bool = True):
        """Replace owner.attr, its aliases on the same class, and (for
        functions) every binding of the same object in qgraded modules.
        An entry point the program no longer has is listed in `missing`."""
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = wrapper_of(original)
        wrapper.__perfbench__ = True
        sites = [(owner, name) for name, value in vars(owner).items()
                 if value is original]
        if everywhere and not isinstance(owner, type):
            for modname, module in list(sys.modules.items()):
                if module is owner or not modname.startswith("qgraded"):
                    continue
                sites += [(module, name) for name, value in vars(module).items()
                          if value is original]
        for obj, name in sites:
            self._patched.append((obj, name, original))
            setattr(obj, name, wrapper)

    # -- installation ---------------------------------------------------

    def install(self):
        import qgraded.galois as galois
        import qgraded.linalg as linalg
        from qgraded.algebras import GradedAlgebra
        from qgraded.commutation import CommutationFactor
        from qgraded.groups import GroupElement
        from qgraded.scalars import Scalar

        for name, (modname, path) in SPANS.items():
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr,
                        lambda fn, name=name: self._span(name, fn))

        def count_validation(counts, args, _result):
            counts["validate_triples"] += args[0].dim ** 3

        self._patch(GradedAlgebra, "validation_report",
                    lambda fn: self._span("algebras.validate", fn,
                                          count_validation))

        def count_map(counts, _args, result):
            counts["beta_columns"] += result.domain_dim
            counts["beta_nnz"] += sum(len(c) for c in result.columns)

        for attr in ("beta_n", "canonical_map"):
            self._patch(galois, attr,
                        lambda fn: self._span("galois.assemble", fn, count_map))

        def count_quotient(counts, args, _result):
            space = args[0]
            counts["relation_rows"] += len(space.relations)
            counts["relation_rank"] += space.relation_rank
            counts["quotient_dim"] += space.dim

        self._patch(galois.QuotientSpace, "__init__",
                    lambda fn: self._span("galois.quotient", fn,
                                          count_quotient))

        # RelativeChain.space caches its spaces: only the first call per
        # (chain, k) builds, so only that call becomes a span
        built: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

        def space_wrapper(fn):
            traced = self._span("galois.space", fn)

            def wrapper(chain, k):
                ks = built.get(chain)
                if ks is None:
                    ks = built[chain] = set()
                elif k in ks:
                    return fn(chain, k)
                ks.add(k)
                return traced(chain, k)
            return wrapper

        self._patch(galois.RelativeChain, "space", space_wrapper)

        # the relation elimination only: kernels elsewhere also call rref
        def rref_wrapper(fn):
            def wrapper(rows):
                rows = list(rows)
                ech = fn(rows)
                counts = self.counts[self.phase]
                counts["rref_nnz_in"] += sum(len(r) for r in rows)
                counts["rref_nnz_out"] += sum(len(r) for r in
                                              ech.pivot_rows.values())
                return ech
            return wrapper

        self._patch(galois, "rref", rref_wrapper, everywhere=False)

        def mul_wrapper(fn):
            def wrapper(a, b):
                counts = self.counts[self.phase]
                counts["mul"] += 1
                if a.order > 1 or getattr(b, "order", 1) > 1:
                    counts["mul_cyclotomic"] += 1
                return fn(a, b)
            return wrapper

        self._patch(Scalar, "__mul__", mul_wrapper)

        def inverse_wrapper(fn):
            def wrapper(a):
                counts = self.counts[self.phase]
                counts["inverse"] += 1
                if a.order > 1:
                    counts["inverse_cyclotomic"] += 1
                start = time.perf_counter()
                try:
                    return fn(a)
                finally:
                    counts["inverse_s"] += time.perf_counter() - start
            return wrapper

        self._patch(Scalar, "inverse", inverse_wrapper)

        def parse_wrapper(fn):
            def wrapper(text):
                start = time.perf_counter()
                try:
                    return fn(text)
                finally:
                    self.counts[self.phase]["parse_s"] += \
                        time.perf_counter() - start
            return wrapper

        import qgraded.scalars as scalars
        self._patch(scalars, "parse_scalar", parse_wrapper)

        def counter(key):
            def wrapper_of(fn):
                def wrapper(*args):
                    self.counts[self.phase][key] += 1
                    return fn(*args)
                return wrapper
            return wrapper_of

        self._patch(linalg.Echelon, "add", counter("echelon_add"))
        self._patch(GroupElement, "__add__", counter("group_add"))

        def evaluate_wrapper(fn):
            def wrapper(b, g, h):
                self.counts[self.phase]["evaluate"] += 1
                self._evaluated.add((id(b), g.coords, h.coords))
                return fn(b, g, h)
            return wrapper

        self._patch(CommutationFactor, "evaluate", evaluate_wrapper)

    def end_input(self):
        # distinct keys are counted per input: factor objects of one input
        # live until it ends, so their ids cannot be reused meanwhile
        self.counts[self.phase]["evaluate_distinct"] += len(self._evaluated)
        self._evaluated = set()

    def remove(self) -> list[str]:
        """Restore every wrapped attribute, then return the attributes of
        qgraded modules and their classes that still hold a wrapper."""
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        self._patched = []
        left = []
        for modname, module in list(sys.modules.items()):
            if modname != "qgraded" and not modname.startswith("qgraded."):
                continue
            for name, value in vars(module).items():
                owners = [(f"{modname}.{name}", value)]
                if isinstance(value, type):
                    owners += [(f"{modname}.{name}.{attr}", v)
                               for attr, v in vars(value).items()]
                left += [where for where, v in owners
                         if getattr(v, "__perfbench__", False)]
        return left

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _input, _phase in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_n, start, end, *_rest) in enumerate(self.spans)]

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer values for one set-up plus one pass: set-up totals
        plus pass totals averaged over the traced passes."""
        selfs = self.self_times()
        inclusive = {"setup": Counter(), "pass": Counter()}
        own = {"setup": Counter(), "pass": Counter()}
        for i, (name, start, end, _parent, _input, phase) in \
                enumerate(self.spans):
            if not self.nested[i]:
                inclusive[phase][name] += end - start
            own[phase][name] += selfs[i]

        def total(table, key):
            return table["setup"][key] + table["pass"][key] / passes

        def count(key):
            return total(self.counts, key)

        def ratio(num, den):
            return num / den if den else 0.0

        incl = lambda key: total(inclusive, key)  # noqa: E731
        mul, inv = count("mul"), count("inverse")
        evaluations = count("evaluate")
        return {
            "scalars.mul_calls": mul,
            "scalars.inverse_calls": inv,
            "scalars.inverse_s": count("inverse_s"),
            "scalars.cyclotomic_ratio": ratio(
                count("mul_cyclotomic") + count("inverse_cyclotomic"),
                mul + inv),
            "scalars.parse_s": count("parse_s"),
            "linalg.rank_s": incl("linalg.rank"),
            "linalg.kernel_s": incl("linalg.kernel"),
            "linalg.echelon_adds": count("echelon_add"),
            "linalg.fill_ratio": ratio(count("rref_nnz_out"),
                                       count("rref_nnz_in")),
            "galois.space_s": incl("galois.space"),
            "galois.relation_rows": count("relation_rows"),
            "galois.relation_rank": count("relation_rank"),
            "galois.quotient_dim": count("quotient_dim"),
            "galois.assemble_s": total(own, "galois.assemble"),
            "galois.beta_columns": count("beta_columns"),
            "galois.beta_nnz": count("beta_nnz"),
            "algebras.validate_s": incl("algebras.validate"),
            "algebras.validate_triples": count("validate_triples"),
            "algebras.qc_s": incl("algebras.qc"),
            "algebras.strong_s": incl("algebras.strong"),
            "commutation.cqt_s": incl("commutation.cqt"),
            "commutation.evaluate_calls": evaluations,
            "commutation.evaluate_hit_ratio": 1.0 - ratio(
                count("evaluate_distinct"), evaluations) if evaluations else 0.0,
            "group_hopf.hopf_s": incl("group_hopf.hopf"),
            "groups.add_calls": count("group_add"),
            "descriptors.load_s": incl("descriptors.load"),
            "cli.self_s": total(own, "cli.main"),
        }

    def write(self, path: Path):
        """Spans as JSON lines, each with its self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, input_id, phase) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "input": input_id, "phase": phase,
                    "self_s": selfs[i]}) + "\n")
            fh.write(json.dumps({"counters": {
                phase: dict(c) for phase, c in self.counts.items()}}) + "\n")
