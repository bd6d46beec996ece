"""Span tracer for the per-layer (``--trace 1``) run.

The tracer wraps public functions of the package from the outside: a
module-level function is replaced at every module of the package that
binds it, and a method is replaced on its class.  Each call records one
span ``(id, name, start, end, parent, op)``.  Spans stay in memory until
the outermost open span closes; ``fold`` then turns them into calls,
total time and self time per name, where self time is a span's duration
minus the durations of its direct child spans.

Two rules keep the numbers comparable across refactors:

* A call whose innermost open span already has the same name adds no
  span.  Aliases (``compose`` calling ``PolyMap.compose``, ``__radd__``
  being ``__add__``) therefore count once.
* The time the tracer spends on its own bookkeeping, including the
  extra statistics below, is taken off the clock the spans read, so it
  lands in no span's total or self time.

A target that no longer exists is listed in ``absent`` and its metrics
read 0; the run does not fail.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

from cremona3 import Polynomial

PACKAGE = "cremona3"


def coeff_bits(p) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in p.terms.values()),
        default=0,
    )


def _mul_extras(ex, args, result, error):
    if error is not None or not isinstance(result, Polynomial):
        return
    a, b = args
    ex["term_pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, Polynomial) else 1)
    ex["terms_out"] += len(result.terms)
    ex["max_coeff_bits"] = max(ex["max_coeff_bits"], coeff_bits(result))


def _substitute_extras(ex, args, result, error):
    if error is not None:
        return
    p, images = args
    ex["terms_in"] += len(p.terms)
    ex["image_terms"] += sum(len(im.terms) for im in images)
    ex["max_exponent"] = max([ex["max_exponent"], *(max(e, default=0) for e in p.terms)])
    ex["terms_out"] += len(result.terms)
    ex["max_coeff_bits"] = max(ex["max_coeff_bits"], coeff_bits(result))


def _compose_extras(ex, args, result, error):
    if error is None:
        ex["terms_out"] += sum(len(c.terms) for c in result.components)


def _decompose_extras(ex, args, result, error):
    ex["accepted" if error is None else "rejected"] += 1


#: The layers: metric name, where the function lives, and the extra
#: statistics with their units.  A locator is (module, class or None,
#: attribute); None means a module-level function, patched wherever the
#: package binds it.  ``per_call`` stats are ratios of a nested count to
#: the calls of the outer name.
VERIFY_CHECKS = (
    "nagata_formula",
    "kernel_ring",
    "decomposition_roundtrip",
    "semidirect_normality",
    "torus_characters",
    "theorem_chain",
    "flow_commutation",
    "group_laws",
    "parser_roundtrip",
    "negative_controls",
)

LAYERS = [
    ("exactpoly.mul", [("exactpoly", "Polynomial", "__mul__"), ("exactpoly", "Polynomial", "__rmul__")],
     _mul_extras, {"term_pairs": "count", "terms_out": "count", "max_coeff_bits": "bits"}),
    ("exactpoly.add", [("exactpoly", "Polynomial", a) for a in ("__add__", "__radd__", "__sub__", "__rsub__")],
     None, {}),
    ("exactpoly.pow", [("exactpoly", "Polynomial", "__pow__")], None, {}),
    ("exactpoly.substitute", [("exactpoly", "Polynomial", "substitute")], _substitute_extras,
     {"terms_in": "count", "image_terms": "count", "max_exponent": "degree", "terms_out": "count",
      "max_coeff_bits": "bits"}),
    ("exactpoly.partial_derivative", [("exactpoly", "Polynomial", "partial_derivative")], None, {}),
    ("exactpoly.eq", [("exactpoly", "Polynomial", "__eq__")], None, {}),
    ("derivation.apply", [("derivation", "Derivation", "apply")], None, {}),
    ("derivation.exp_map", [("derivation", "Derivation", "exp_map")], None, {"series_len": "calls/call"}),
    ("derivation.is_locally_nilpotent", [("derivation", "Derivation", "is_locally_nilpotent")], None, {}),
    ("derivation.kernel_coordinates", [("derivation", None, "kernel_coordinates")], None, {}),
    ("derivation.from_kernel_coordinates", [("derivation", None, "from_kernel_coordinates")], None, {}),
    ("autgroup.compose", [("autgroup", None, "compose"), ("autgroup", "PolyMap", "compose")],
     _compose_extras, {"terms_out": "count"}),
    ("autgroup.evaluate", [("autgroup", None, "evaluate"), ("autgroup", "AutWord", "evaluate")], None, {}),
    ("autgroup.word_inverse", [("autgroup", None, "invert_word"), ("autgroup", "AutWord", "inverse")],
     None, {}),
    ("autgroup.exp_generator_init", [("autgroup", "ExponentialGenerator", "__init__")], None, {}),
    ("centralizer.decompose", [("centralizer", None, "decompose")], _decompose_extras,
     {"accepted": "count", "rejected": "count", "compose_per_call": "calls/call"}),
    ("centralizer.reconstruct", [("centralizer", None, "reconstruct")], None, {}),
    ("centralizer.is_in_centralizer", [("centralizer", None, "is_in_centralizer")], None, {}),
    ("nagata.torus_conjugate", [("nagata", None, "torus_conjugate")], None, {}),
    ("nagata.standard_objects", [("nagata", None, "standard_objects")], None, {"setup_s": "s"}),
    ("grammar.parse_polynomial", [("grammar", None, "parse_polynomial")], None, {}),
    ("grammar.format_polynomial", [("grammar", None, "format_polynomial")], None, {}),
] + [(f"verify.check_{c}", [("verify", None, f"check_{c}")], None, {}) for c in VERIFY_CHECKS]

#: (outer, inner, stat): stat = inner spans under an outer span / outer calls.
PER_CALL = (
    ("derivation.exp_map", "derivation.apply", "series_len"),
    ("centralizer.decompose", "autgroup.compose", "compose_per_call"),
)


def metric_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, _, _, extra in LAYERS:
        if name.startswith("verify."):
            out.append((f"{name}.total_s", "s"))
            continue
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
        out += [(f"{name}.{stat}", unit) for stat, unit in extra.items()]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def fold(spans, per_call=PER_CALL):
    """Calls, total and self time per name, and nested counts, of complete spans.

    ``spans`` holds (id, name, start, end, parent, op) tuples in which
    every parent id is itself present or None.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    for sid, name, start, end, _, _ in spans:
        agg = totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child_time[sid]
    nested = defaultdict(int)
    for outer, inner, _ in per_call:
        for s in spans:
            if s[1] != inner:
                continue
            parent = s[4]
            while parent is not None:
                if by_id[parent][1] == outer:
                    nested[(outer, inner)] += 1
                    break
                parent = by_id[parent][4]
    return totals, nested


class Tracer:
    """Installs span-recording wrappers and accumulates what they record."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.names = []
        self.next_id = 0
        self.op = 0
        self.lost = 0.0
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.nested = defaultdict(int)
        self.extra = defaultdict(lambda: defaultdict(int))
        self.patches = []
        self.absent = []

    # -- installing --------------------------------------------------------

    def install(self):
        self.absent = []
        for name, locators, extras, _ in LAYERS:
            for module_name, class_name, attr in locators:
                try:
                    module = importlib.import_module(f"{PACKAGE}.{module_name}")
                except ImportError:
                    module = None
                owner = module if class_name is None else getattr(module, class_name, None)
                original = None if owner is None else vars(owner).get(attr)
                if original is None:
                    self.absent.append(f"{module_name}.{class_name + '.' if class_name else ''}{attr}")
                    continue
                wrapper = self.wrap(name, original, extras)
                if class_name is not None:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, extras):
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            if tracer.names and tracer.names[-1] == name:
                return fn(*args, **kwargs)
            t0 = clock()
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            tracer.names.append(name)
            t1 = clock()
            tracer.lost += t1 - t0
            start = t1 - tracer.lost
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, name, start, parent, extras, args, None, exc)
                raise
            tracer._close(sid, name, start, parent, extras, args, result, None)
            return result

        return traced

    def _close(self, sid, name, start, parent, extras, args, result, error):
        t2 = self.clock()
        self.stack.pop()
        self.names.pop()
        self.spans.append((sid, name, start, t2 - self.lost, parent, self.op))
        if extras is not None:
            extras(self.extra[name], args, result, error)
        if not self.stack:
            self.flush()
        self.lost += self.clock() - t2

    def flush(self):
        totals, nested = fold(self.spans)
        for name, (calls, total, own) in totals.items():
            agg = self.totals[name]
            agg[0] += calls
            agg[1] += total
            agg[2] += own
        for key, count in nested.items():
            self.nested[key] += count
        self.spans = []

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_ratio."""
        out = {}
        for name, _, _, extra in LAYERS:
            calls, total, own = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.total_s"] = total
            if name.startswith("verify."):
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
            for stat in extra:
                out[f"{name}.{stat}"] = self.extra.get(name, {}).get(stat, 0)
        for outer, inner, stat in PER_CALL:
            calls = self.totals.get(outer, (0,))[0]
            out[f"{outer}.{stat}"] = self.nested[(outer, inner)] / calls if calls else 0.0
        return out
