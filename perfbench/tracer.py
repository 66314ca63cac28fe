"""Layer tracing of planalg, installed from outside the program.

Each layer's public functions are wrapped in place, on their home module
and on every planalg module that re-binds them with ``from .x import y``
(``tower`` imports ``evaluate`` that way, ``suites`` imports ``sharp``,
``phi`` and others).  Mid layers record one span per call: name, start,
end, parent span and trial id, kept in flat arrays in memory.  The leaf
layers (scalar arithmetic, diagram construction, ``Element`` addition) run
millions of times per trial, so they are only counted and timed.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) pairs; an attribute "Class.method" is
# patched on the class.
SPANS = {
    "tower.sharp": [("planalg.tower", "sharp")],
    "tower.bullet": [("planalg.tower", "bullet")],
    "tower.dot_action": [("planalg.tower", "dot_action")],
    "tower.include": [("planalg.tower", "include")],
    "tower.cond_expect": [("planalg.tower", "cond_expect")],
    "tower.phi": [("planalg.tower", "phi")],
    "tower.psi": [("planalg.tower", "psi")],
    "tangles.evaluate": [("planalg.tangles", "evaluate"),
                         ("planalg.tangles", "evaluate_in")],
    "tangles.substitute": [("planalg.tangles", "substitute")],
    "tangles.validate": [("planalg.tangles", "validate")],
    "annular.enumerate_good": [("planalg.annular", "enumerate_good")],
    "elements.multiply": [("planalg.elements", "Element.multiply")],
    "analysis.gram": [("planalg.analysis", "gram")],
    "analysis.gns": [("planalg.analysis", "op_norm"),
                     ("planalg.analysis", "is_psd"),
                     ("planalg.analysis", "psd_sqrt")],
    "analysis.exact": [("planalg.analysis", "gram_positive_definite_exact"),
                       ("planalg.analysis", "cnk_membership"),
                       ("planalg.analysis", "ccommlem_invert")],
}

# counter name -> methods counted (and timed, into "<name>_s") without spans
COUNTED = {
    "scalars.add": [("planalg.scalars", "Scalar.__add__")],
    "scalars.mul": [("planalg.scalars", "Scalar.__mul__"),
                    ("planalg.scalars", "Scalar.__rmul__")],
    "diagrams.construct": [("planalg.diagrams", "Diagram.__init__")],
    "elements.add": [("planalg.elements", "Element.__add__")],
    "elements.tau": [("planalg.elements", "Element.tau")],
    "tower.graded_add": [("planalg.tower", "GradedElement.__add__")],
}

# (metric, unit) in the order BENCHMARK.json lists them.  Per-trial values
# are means over the traced trials; "set-up" values come from the traced
# warm-up trial, which fills the process-global caches.
SUITE_NAMES = ("filtalg", "annular", "gjs-iso", "jones", "estimates",
               "commutant-replay", "positivity")
LAYER_METRICS = [
    ("scalars.mul_calls", "count/trial"),
    ("scalars.add_calls", "count/trial"),
    ("scalars.time_s", "s/trial"),
    ("diagrams.constructed", "count/trial"),
    ("diagrams.time_s", "s/trial"),
    ("elements.add_calls", "count/trial"),
    ("elements.add_s", "s/trial"),
    ("elements.multiply_calls", "count/trial"),
    ("elements.multiply_pairs", "count/trial"),
    ("elements.multiply_s", "s/trial"),
    ("elements.tau_calls", "count/trial"),
    ("tangles.evaluate_calls", "count/trial"),
    ("tangles.evaluate_terms", "count/trial"),
    ("tangles.evaluate_out_terms", "count/trial"),
    ("tangles.evaluate_yield", "ratio"),
    ("tangles.evaluate_self_s", "s/trial"),
    ("tangles.substitute_calls", "count/trial"),
    ("tangles.validate_s", "s/trial"),
    ("annular.enumerate_good_calls", "count"),
    ("annular.enumerate_good_s", "s"),
    ("tower.sharp_calls", "count/trial"),
    ("tower.sharp_self_s", "s/trial"),
    ("tower.dot_action_s", "s/trial"),
    ("tower.include_s", "s/trial"),
    ("tower.cond_expect_s", "s/trial"),
    ("tower.graded_add_calls", "count/trial"),
    ("tower.bullet_calls", "count/trial"),
    ("tower.phi_calls", "count/trial"),
    ("tower.psi_calls", "count/trial"),
    ("tower.phipsi_s", "s/trial"),
    ("tower.phipsi_self_s", "s/trial"),
    ("tower.phipsi_evaluate_calls", "count/trial"),
    ("analysis.gram_calls", "count/trial"),
    ("analysis.gram_s", "s/trial"),
    ("analysis.gns_s", "s/trial"),
    ("analysis.exact_s", "s/trial"),
    ("analysis.gns_cache_entries", "count"),
] + [(f"suites.{name}_s", "s/trial") for name in SUITE_NAMES] + [
    ("trace.overhead_ratio", "ratio"),
    ("trace.exceptions", "count"),
]

# counters that must repeat exactly when the same trial is traced twice
EXACT_COUNTERS = ("tangles.evaluate_calls", "tangles.evaluate_terms",
                  "elements.multiply_pairs", "tower.phipsi_evaluate_calls")


def _resolve(module: str, attr: str):
    """(owner, name, current value) of module.attr or module.Class.method."""
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one process; install() around each traced trial."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.exceptions = 0
        self.trial = 0
        self.counts = Counter()         # counters of the trial being traced
        self.trial_counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def install(self, trial: int) -> None:
        self.trial = trial
        for name, targets in SPANS.items():
            for module, attr in targets:
                self._patch(module, attr, self._span_wrapper(name, attr))
        self._patch("planalg.suites", "run_suite", self._span_wrapper(
            lambda args: f"suites.{args[0]}", "run_suite"))
        for name, targets in COUNTED.items():
            for module, attr in targets:
                self._patch(module, attr, self._counted_wrapper(name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.trial_counts[self.trial] = self.counts
        self.counts = Counter()

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner, name, original = _resolve(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        if isinstance(owner, type):
            sites = [(owner, name)]
        else:       # the home module and every module that imported the name
            sites = [(mod, key) for mod_name, mod in list(sys.modules.items())
                     if mod_name == "planalg" or mod_name.startswith("planalg.")
                     for key, value in list(vars(mod).items()) if value is original]
        for site, key in sites:
            self._patches.append((site, key, original))
            setattr(site, key, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, label, attr: str):
        name_of, parent, trial_of = self.name_of, self.parent, self.trial_of
        start, end, stack = self.start, self.end, self._stack
        fixed = None if callable(label) else self._id(label)
        extra = _EXTRA.get(attr)

        def make(fn):
            def wrapper(*args, **kwargs):
                if extra is _evaluate_extra:    # inputs may be any iterable
                    args = (args[0], list(args[1])) + args[2:]
                idx = len(start)
                name_of.append(fixed if fixed is not None else self._id(label(args)))
                parent.append(stack[-1] if stack else -1)
                trial_of.append(self.trial)
                end.append(0.0)
                stack.append(idx)
                start.append(perf_counter())
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self.exceptions += 1
                    raise
                finally:
                    end[idx] = perf_counter()
                    stack.pop()
                if extra is not None:
                    extra(self.counts, args, result)
                return result
            return wrapper
        return make

    def _counted_wrapper(self, name: str):
        calls, time_key = f"{name}_calls", f"{name}_s"

        def make(fn):
            def wrapper(*args, **kwargs):
                counts = self.counts
                counts[calls] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[time_key] += perf_counter() - t0
            return wrapper
        return make

    # -- results -------------------------------------------------------------------

    def _walk(self):
        """Per span: duration, time covered by its direct children, a bit
        mask of the span names above it, and the suite span it runs in."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        above = [0] * n
        suite = [-1] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | (1 << self.name_of[p])
                suite[i] = suite[p]
            if self.names[self.name_of[i]].startswith("suites."):
                suite[i] = self.name_of[i]
        return dur, child, above, suite

    def span_totals(self, trials) -> dict:
        """Per span name: calls, inclusive time and self time over `trials`.

        Inclusive time skips spans nested in a span of the same name, so a
        re-entered layer is not counted twice.  Self time is a span's
        duration minus the time its direct child spans cover.
        """
        trials = set(trials)
        dur, child, above, _ = self._walk()
        totals = {}
        for i in range(len(dur)):
            if self.trial_of[i] not in trials:
                continue
            name = self.names[self.name_of[i]]
            row = totals.setdefault(name, Counter())
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if not above[i] >> self.name_of[i] & 1:
                row["incl_s"] += dur[i]
            p = self.parent[i]
            if name == "tangles.evaluate" and p >= 0 \
                    and self.names[self.name_of[p]] in ("tower.phi", "tower.psi"):
                row["phipsi_calls"] += 1
        return totals

    def suite_self_s(self, trials) -> dict:
        """Self time per suite and span name, summed over `trials`."""
        trials = set(trials)
        dur, child, _, suite = self._walk()
        out = {}
        for i in range(len(dur)):
            if self.trial_of[i] in trials and suite[i] >= 0:
                row = out.setdefault(self.names[suite[i]], Counter())
                row[self.names[self.name_of[i]]] += dur[i] - child[i]
        return out

    def totals(self, trials) -> dict:
        """Sums over `trials` of every per-trial LAYER_METRICS value."""
        spans = self.span_totals(trials)
        counts = Counter()
        for t in trials:
            counts.update(self.trial_counts.get(t, Counter()))

        def span(name, key):
            return spans.get(name, Counter())[key]

        values = {
            "scalars.mul_calls": counts["scalars.mul_calls"],
            "scalars.add_calls": counts["scalars.add_calls"],
            "scalars.time_s": counts["scalars.mul_s"] + counts["scalars.add_s"],
            "diagrams.constructed": counts["diagrams.construct_calls"],
            "diagrams.time_s": counts["diagrams.construct_s"],
            "elements.add_calls": counts["elements.add_calls"],
            "elements.add_s": counts["elements.add_s"],
            "elements.multiply_calls": span("elements.multiply", "calls"),
            "elements.multiply_pairs": counts["elements.multiply_pairs"],
            "elements.multiply_s": span("elements.multiply", "incl_s"),
            "elements.tau_calls": counts["elements.tau_calls"],
            "tangles.evaluate_calls": span("tangles.evaluate", "calls"),
            "tangles.evaluate_terms": counts["tangles.evaluate_terms"],
            "tangles.evaluate_out_terms": counts["tangles.evaluate_out_terms"],
            "tangles.evaluate_self_s": span("tangles.evaluate", "self_s"),
            "tangles.substitute_calls": span("tangles.substitute", "calls"),
            "tangles.validate_s": span("tangles.validate", "incl_s"),
            "tower.sharp_calls": span("tower.sharp", "calls"),
            "tower.sharp_self_s": span("tower.sharp", "self_s"),
            "tower.dot_action_s": span("tower.dot_action", "incl_s"),
            "tower.include_s": span("tower.include", "incl_s"),
            "tower.cond_expect_s": span("tower.cond_expect", "incl_s"),
            "tower.graded_add_calls": counts["tower.graded_add_calls"],
            "tower.bullet_calls": span("tower.bullet", "calls"),
            "tower.phi_calls": span("tower.phi", "calls"),
            "tower.psi_calls": span("tower.psi", "calls"),
            "tower.phipsi_s": span("tower.phi", "incl_s")
            + span("tower.psi", "incl_s"),
            "tower.phipsi_self_s": span("tower.phi", "self_s")
            + span("tower.psi", "self_s"),
            "tower.phipsi_evaluate_calls": span("tangles.evaluate", "phipsi_calls"),
            "analysis.gram_calls": span("analysis.gram", "calls"),
            "analysis.gram_s": span("analysis.gram", "incl_s"),
            "analysis.gns_s": span("analysis.gns", "incl_s"),
            "analysis.exact_s": span("analysis.exact", "incl_s"),
        }
        for name in SUITE_NAMES:
            values[f"suites.{name}_s"] = span(f"suites.{name}", "incl_s")
        return values

    def layer_metrics(self, trials, setup_trial: int, overhead_ratio: float,
                      gns_cache_entries: int) -> dict:
        """Every LAYER_METRICS value: means over `trials`, set-up values from
        `setup_trial`."""
        trials = list(trials)
        totals = self.totals(trials)
        values = {name: total / max(1, len(trials)) for name, total in totals.items()}
        terms = totals["tangles.evaluate_terms"]
        setup = self.span_totals([setup_trial]).get("annular.enumerate_good", Counter())
        values.update({
            "tangles.evaluate_yield":
                totals["tangles.evaluate_out_terms"] / terms if terms else 0.0,
            "annular.enumerate_good_calls": setup["calls"],
            "annular.enumerate_good_s": setup["incl_s"],
            "analysis.gns_cache_entries": gns_cache_entries,
            "trace.overhead_ratio": overhead_ratio,
            "trace.exceptions": self.exceptions,
        })
        return values

    def exact_counters(self, trials) -> dict:
        """The EXACT_COUNTERS summed over `trials`."""
        totals = self.totals(list(trials))
        return {name: totals[name] for name in EXACT_COUNTERS}

    def save(self, path) -> None:
        """Write the spans as arrays (numpy .npz) for offline inspection."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name_of=np.array(self.name_of),
            parent=np.array(self.parent), trial=np.array(self.trial_of),
            start=np.array(self.start), end=np.array(self.end))


def _evaluate_extra(counts, args, result):
    terms = 1
    for x in args[1]:
        terms *= len(x.combo)
    counts["tangles.evaluate_terms"] += terms
    counts["tangles.evaluate_out_terms"] += len(result.combo)


def _multiply_extra(counts, args, result):
    counts["elements.multiply_pairs"] += len(args[0].combo) * len(args[1].combo)


_EXTRA = {"evaluate": _evaluate_extra, "evaluate_in": _evaluate_extra,
          "Element.multiply": _multiply_extra}
