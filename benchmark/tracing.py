"""Span tracing of dncalc from outside the package.

``Tracer.install()`` replaces each layer's public functions with wrappers
that keep a span stack.  The wrappers are installed at the class for
methods and, for module functions, in every dncalc module that holds the
function (modules import them by name).  A span's self time is its duration
minus the intervals its child calls cover, where a child's interval includes
the tracer's own bookkeeping for it, so that bookkeeping lands in no
layer's self time.

Spans of the coarse layers (forward model, inversion, front end) are kept
one by one with their parent; the jet and symbol layers run millions of
times, so their spans are kept as totals per (name, parent) pair.  Both are
held in memory and written out by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import random
import sys
import time

#: span name -> (owner, attribute names); owner is a class or a module name
#: relative to the dncalc package.  Jet.__rmul__ is a separate binding of
#: Jet.__mul__ and Jet.__radd__ of Jet.__add__.
CLASS_SPANS = {
    "jets.mul": ("Jet", ("__mul__", "__rmul__")),
    "jets.add": ("Jet", ("__add__", "__radd__")),
    "jets.series": ("Jet", ("reciprocal", "sqrt", "nth_root", "exp", "log")),
    "symbols.xipoly_mul": ("XiPoly", ("__mul__",)),
    "symbols.hom_mul": ("HomSymbol", ("__mul__",)),
    "symbols.normalize": ("HomSymbol", ("normalized",)),
    "symbols.deriv": ("HomSymbol", ("xi_partial", "base_partial")),
    "symbols.div_q2": ("SymbolContext", ("divide_by_q2",)),
}

FUNCTION_SPANS = {
    "symbols.compose": ("symbols", ("compose",)),
    "geometry.q_symbols": ("geometry", ("compute_q_symbols",)),
    "factorization.solve": ("factorization", ("factorize_scalar", "factorize_gauge")),
    "factorization.verify": ("factorization", ("verify_residual",)),
    "dn.symbol": ("dn", ("dn_symbol_scalar", "dn_symbol_gauge")),
    "reconstruction.recover": (
        "reconstruction",
        (
            "recover_first_order",
            "recover_metric_known_weight",
            "recover_weight_scalar",
            "recover_weight_gauge",
            "recover_with_known_volume_gauge",
            "recover_with_known_volume_scalar",
            "construct_indistinguishable_weight",
        ),
    ),
    "reconstruction.solve_linear": ("reconstruction", ("solve_linear_jets",)),
    "runner.task": ("runner", ("run_task",)),
    "serialize": (
        "serialize",
        ("jet_to_json", "homsymbol_to_json", "dn_to_json", "dump_report", "load_scenario"),
    ),
    "diskcheck": ("diskcheck", ("asymptotic_compare", "solve_mode")),
}

#: spans kept one by one; the rest are kept as totals
COARSE = {
    "geometry.q_symbols",
    "factorization.solve",
    "factorization.verify",
    "dn.symbol",
    "reconstruction.recover",
    "reconstruction.solve_linear",
    "runner.task",
    "diskcheck",
}

#: spans reported as <name>.calls and as <name>.self_s
CALLS = (
    "jets.mul",
    "jets.add",
    "jets.series",
    "symbols.hom_mul",
    "symbols.xipoly_mul",
    "symbols.normalize",
    "symbols.div_q2",
    "symbols.deriv",
    "factorization.solve",
    "factorization.verify",
    "dn.symbol",
    "reconstruction.solve_linear",
)
SELF_S = tuple(n for n in CALLS if n != "symbols.div_q2") + (
    "symbols.compose",
    "geometry.q_symbols",
    "reconstruction.recover",
    "runner.task",
    "serialize",
    "diskcheck",
)

SAMPLE_PRODUCTS = 12


class Tracer:
    """Spans, counts and sampled jet products of one traced run."""

    def __init__(self, seed: int):
        self.stack = []  # [name, start, time covered by child calls]
        self.totals = {}  # (name, parent) -> [calls, total_s, self_s]
        self.spans = []  # coarse spans: dict records
        self.counts = {
            "jets.mul.pairs": 0,
            "jets.mul.terms_out": 0,
            "jets.coeff_bits_max": 0,
            "symbols.div_q2.hits": 0,
            "reconstruction.forward_calls": 0,
            "serialize.report_bytes": 0,
        }
        self.rng = random.Random(seed)
        self.mul_seen = 0
        self.samples = []  # (a, b, product, task label)
        self.round = 0
        self.task_label = None  # (round, scenario name, task index)
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        start = time.perf_counter()
        self.stack.append([name, start, 0.0])
        return start

    def _exit(self, name, start):
        end = time.perf_counter()
        frame = self.stack.pop()
        duration = end - start
        self_s = duration - frame[2]
        parent = self.stack[-1][0] if self.stack else None
        key = (name, parent)
        tot = self.totals.get(key)
        if tot is None:
            self.totals[key] = [1, duration, self_s]
        else:
            tot[0] += 1
            tot[1] += duration
            tot[2] += self_s
        if name in COARSE:
            self.spans.append(
                {
                    "name": name,
                    "parent": parent,
                    "task": self.task_label,
                    "start": start,
                    "end": end,
                    "self_s": self_s,
                }
            )

    def _close_child(self, start):
        if self.stack:
            self.stack[-1][2] += time.perf_counter() - start

    def _wrap(self, name, fn, hooks):
        """Span wrapper for one function.  Hooks are looked up by span name,
        then by function name: ``skip(args)`` bypasses the span,
        ``before(args)`` runs before it and ``after(args, result)`` runs
        inside the caller's child interval."""
        tracer = self
        skip, before, after = hooks.get(name) or hooks.get(fn.__name__) or (None, None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            start = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(name, start)
                tracer._close_child(start)
                raise
            tracer._exit(name, start)
            if after is not None:
                after(args, out)
            tracer._close_child(start)
            return out

        return wrapper

    def _hooks(self):
        from dncalc.jets import Jet

        counts = self.counts

        def not_a_product(args):  # Jet times a scalar is scaling
            return not isinstance(args[1], Jet)

        def count_hit(args, out):
            counts["symbols.div_q2.hits"] += out is not None

        def count_forward_call(args):
            if any(frame[0] == "reconstruction.recover" for frame in self.stack):
                counts["reconstruction.forward_calls"] += 1

        def count_report(args, out):
            counts["serialize.report_bytes"] += len(out.encode())

        def label_task(args):
            scenario, _task, index = args
            self.task_label = (self.round, scenario.raw.get("name"), index)

        return {
            "jets.mul": (not_a_product, None, self._count_product),
            "symbols.div_q2": (None, None, count_hit),
            "dn.symbol": (None, count_forward_call, None),
            "runner.task": (None, label_task, None),
            "dump_report": (None, None, count_report),
        }

    def _count_product(self, args, out):
        a, b = args
        counts = self.counts
        counts["jets.mul.pairs"] += len(a.c) * len(b.c)
        counts["jets.mul.terms_out"] += len(out.c)
        bits = counts["jets.coeff_bits_max"]
        for v in out.c.values():
            num = v.numerator.bit_length()
            den = v.denominator.bit_length()
            if num > bits or den > bits:
                bits = max(num, den)
        counts["jets.coeff_bits_max"] = bits
        # reservoir sample of products for the oracle check
        self.mul_seen += 1
        if len(self.samples) < SAMPLE_PRODUCTS:
            self.samples.append((a, b, out, self.task_label))
        else:
            j = self.rng.randrange(self.mul_seen)
            if j < SAMPLE_PRODUCTS:
                self.samples[j] = (a, b, out, self.task_label)

    # -- installation --------------------------------------------------------

    def install(self):
        import dncalc

        hooks = self._hooks()
        for name, (cls_name, attrs) in CLASS_SPANS.items():
            cls = getattr(dncalc, cls_name)
            for attr in attrs:
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig, hooks))
                self._undo.append((cls, attr, orig))
        modules = [m for k, m in sys.modules.items() if k.startswith("dncalc")]
        for name, (mod_name, funcs) in FUNCTION_SPANS.items():
            home = sys.modules["dncalc." + mod_name]
            for func in funcs:
                orig = getattr(home, func)
                wrapped = self._wrap(name, orig, hooks)
                for mod in modules:
                    if getattr(mod, func, None) is orig:
                        setattr(mod, func, wrapped)
                        self._undo.append((mod, func, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        calls, self_s = {}, {}
        for (name, _parent), (n, _total, s) in self.totals.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        out = {name + ".calls": (calls.get(name, 0), "count") for name in CALLS}
        out.update({name + ".self_s": (self_s.get(name, 0.0), "s") for name in SELF_S})
        c = self.counts
        divisions = calls.get("symbols.div_q2", 0)
        out.update(
            {
                "jets.mul.pairs": (c["jets.mul.pairs"], "count"),
                "jets.mul.terms_out": (c["jets.mul.terms_out"], "count"),
                "jets.coeff_bits_max": (c["jets.coeff_bits_max"], "bits"),
                "symbols.div_q2.hit_ratio": (
                    c["symbols.div_q2.hits"] / divisions if divisions else 0.0,
                    "ratio",
                ),
                "reconstruction.forward_calls": (c["reconstruction.forward_calls"], "count"),
                "serialize.report_bytes": (c["serialize.report_bytes"], "bytes"),
            }
        )
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "totals": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.totals.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "counts": self.counts,
        }
