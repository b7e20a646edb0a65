"""Per-layer tracing of an in-process `photonstat` run.

The tracer wraps the public functions of each layer from outside the
package: every module attribute of `photonstat.*` that is the original
function object is replaced by a timing wrapper, so `from .x import f`
references are caught too.  Each wrapper records a span; a span's self
time is its duration minus the time covered by the spans it caused.
Kernel calls are split by their caller: under `choose_cutoff` they are
cutoff-search work, elsewhere ladder work.

A function that no longer exists makes its layer `missing`; every other
metric is still produced.  Nothing here is imported by the end-to-end
runs, which measure untouched subprocesses.
"""

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span, module, function); several functions may share one span
SPANS = (
    ("cli.render", "photonstat.cli", "main"),
    ("states.build", "photonstat.states", "build_state"),
    ("states.cutoff_search", "photonstat.states", "choose_cutoff"),
    ("kernels", "photonstat.kernels", "ladder_sums"),
    ("moments.ladder", "photonstat.moments", "normal_ladder"),
    ("moments.ladder", "photonstat.moments", "antinormal_ladder"),
    ("moments.exact_fallback", "photonstat.moments", "ladder_sums_exact"),
    ("moments.algebra", "photonstat.moments", "modified_moment_sequence"),
    ("moments.algebra", "photonstat.moments", "modified_moment"),
    ("criteria.stirling", "photonstat.criteria", "mu_from_m"),
    ("criteria.q_ell", "photonstat.criteria", "q_ell_normal"),
    ("criteria.q_ell", "photonstat.criteria", "q_ell_central"),
    ("criteria.a3", "photonstat.criteria", "agarwal_tara"),
    ("criteria.other", "photonstat.criteria", "evaluate_all"),
    ("oracle.brute_force", "photonstat.oracle", "oracle_add"),
    ("oracle.brute_force", "photonstat.oracle", "oracle_subtract"),
    ("oracle.brute_force", "photonstat.oracle", "direct_moments"),
    ("oracle.brute_force", "photonstat.oracle", "direct_power_moments"),
    ("oracle.suite", "photonstat.oracle", "equivalence_suite"),
)

# Spans that must see calls on each workload; a wrapper that saw none
# there is flagged, because the layer it measures silently stopped running.
EXERCISED = {
    "sweep-continuous": (
        "cli.render", "states.build", "states.cutoff_search",
        "kernels.search", "kernels.ladder", "moments.ladder",
        "moments.algebra", "criteria.stirling", "criteria.q_ell",
        "criteria.a3", "criteria.other"),
    "sweep-fock": (
        "cli.render", "states.build", "kernels.ladder", "moments.ladder",
        "moments.algebra", "criteria.stirling", "criteria.q_ell",
        "criteria.a3", "criteria.other"),
    "selfcheck": (
        "cli.render", "states.build", "states.cutoff_search",
        "kernels.search", "kernels.ladder", "moments.ladder",
        "moments.algebra", "criteria.stirling", "criteria.q_ell",
        "criteria.a3", "criteria.other", "oracle.brute_force",
        "oracle.suite"),
}

# name -> (unit, better, spans it is read from, what it should move).
# "moves" names the end-to-end metric and workload a change to the layer
# should move, so a perf change can be held to its prediction.
METRICS = {
    "states.cutoff_search_s": (
        "s", "lower", ("states.cutoff_search",),
        "wall_s on sweep-continuous; no change on sweep-fock"),
    "states.cutoff_search.calls": (
        "count", "lower", ("states.cutoff_search",),
        "wall_s on sweep-continuous; no change on sweep-fock"),
    "kernels.search_s": (
        "s", "lower", ("kernels", "states.cutoff_search"),
        "wall_s on sweep-continuous; no change on sweep-fock"),
    "kernels.search.calls": (
        "count", "lower", ("kernels", "states.cutoff_search"),
        "wall_s on sweep-continuous; no change on sweep-fock"),
    "kernels.search.elems": (
        "count", "lower", ("kernels", "states.cutoff_search"),
        "wall_s on sweep-continuous; no change on sweep-fock"),
    "states.pmf_useful_ratio": (
        "ratio", "higher", ("kernels", "states.cutoff_search"),
        "wall_s and peak_rss_mb on sweep-continuous"),
    "states.cutoff_mean": (
        "photons", "lower", ("states.cutoff_search",),
        "wall_s and peak_rss_mb on sweep-continuous"),
    "states.build_s": (
        "s", "lower", ("states.build",), "wall_s on sweep-continuous"),
    "kernels.ladder_s": (
        "s", "lower", ("kernels",),
        "wall_s on selfcheck; little change on sweep-fock"),
    "kernels.ladder.calls": (
        "count", "lower", ("kernels",),
        "wall_s on selfcheck; little change on sweep-fock"),
    "kernels.ladder.elems": (
        "count", "lower", ("kernels",),
        "wall_s on selfcheck; little change on sweep-fock"),
    "moments.ladder_s": (
        "s", "lower", ("moments.ladder",), "wall_s on sweep-fock"),
    "moments.algebra_s": (
        "s", "lower", ("moments.algebra",), "wall_s on sweep-fock"),
    "moments.exact_fallback.calls": (
        "count", "lower", ("moments.exact_fallback",),
        "wall_s on sweep-fock"),
    "moments.ladder_order_max": (
        "count", "lower", ("moments.ladder",), "wall_s on sweep-fock"),
    "moments.ladder_reuse_share": (
        "ratio", "lower", ("moments.ladder",),
        "wall_s on selfcheck and sweep-fock"),
    "criteria.stirling_s": (
        "s", "lower", ("criteria.stirling",), "wall_s on sweep-fock"),
    "criteria.q_ell_s": (
        "s", "lower", ("criteria.q_ell",), "wall_s on sweep-fock"),
    "criteria.a3_s": (
        "s", "lower", ("criteria.a3",), "wall_s on sweep-fock"),
    "criteria.other_s": (
        "s", "lower", ("criteria.other",), "wall_s on sweep-fock"),
    "criteria.cancellation_rows": (
        "count", "lower", ("criteria.other",), "wall_s on sweep-fock"),
    "criteria.a3_degenerate_rows": (
        "count", "lower", ("criteria.other",), "wall_s on sweep-fock"),
    "oracle.brute_force_s": (
        "s", "lower", ("oracle.brute_force",), "wall_s on selfcheck"),
    "oracle.suite_s": (
        "s", "lower", ("oracle.suite",), "wall_s on selfcheck"),
    "oracle.cells": (
        "count", "higher", ("oracle.suite",), "wall_s on selfcheck"),
    "cli.render_s": (
        "s", "lower", ("cli.render",), "wall_s on sweep-fock"),
    "cli.output_bytes": (
        "B", "lower", (), "wall_s on sweep-fock"),
    "trace.overhead_frac": (
        "ratio", "lower", (), "none: traced against untraced in-process"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs span wrappers on the photonstat modules and aggregates
    self time, calls and work counts per span for one pass at a time."""

    def __init__(self):
        self.missing = set()     # spans whose function could not be found
        self.hook_errors = set()  # spans whose counters could not be read
        self._originals = []     # (module, attribute, original function)
        self._stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.order_max = 0
        self._ladders_seen = set()

    # -------------------------------------------------------- installation

    def install(self):
        found = {}
        for span, module, name in SPANS:
            try:
                fn = getattr(importlib.import_module(module), name)
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            found[id(fn)] = (fn, self._wrap(span, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "photonstat"
                                   or mod_name.startswith("photonstat.")):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = found.get(id(value), (None, None))
                if fn is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def _wrap(self, span, name, fn):
        hook = getattr(self, f"_on_{name}", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bucket = span
            if span == "kernels":
                bucket = ("kernels.search" if any(
                    f[0] == "states.cutoff_search" for f in self._stack)
                    else "kernels.ladder")
            frame = [bucket, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.self_s[bucket] += elapsed - frame[1]
                self.calls[bucket] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
            if hook is not None:
                try:
                    hook(bucket, args, kwargs, result)
                except Exception:  # a refactor changed the signature
                    self.hook_errors.add(span)
            return result

        return traced

    # ------------------------------------------------------ counting hooks

    def _on_choose_cutoff(self, bucket, args, kwargs, cutoff):
        self.counts["cutoff_sum"] += cutoff
        self.counts["useful_entries"] += cutoff + 1

    def _on_ladder_sums(self, bucket, args, kwargs, result):
        size = len(_arg(args, kwargs, 0, "probs"))
        order = _arg(args, kwargs, 1, "order")
        self.counts[f"{bucket}.elems"] += size * (order + 1)
        self.counts[f"{bucket}.entries"] += size

    def _on_normal_ladder(self, bucket, args, kwargs, ladder):
        dist = _arg(args, kwargs, 0, "dist")
        self.order_max = max(self.order_max, _arg(args, kwargs, 1, "order"))
        key = (hash(dist.probs.tobytes()), ladder.ordering)
        if key in self._ladders_seen:
            self.counts["ladder_reused"] += 1
        self._ladders_seen.add(key)

    _on_antinormal_ladder = _on_normal_ladder

    def _on_evaluate_all(self, bucket, args, kwargs, report):
        self.counts["cancellation_rows"] += "cancellation" in report.flags
        self.counts["a3_degenerate_rows"] += "a3_degenerate" in report.flags

    def _on_equivalence_suite(self, bucket, args, kwargs, report):
        self.counts["oracle_cells"] += len(report.cells)

    # ------------------------------------------------------------- metrics

    def pass_metrics(self, output_bytes):
        """Per-layer values of the pass since the last reset."""
        s, c, n = self.self_s, self.calls, self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "states.cutoff_search_s": s["states.cutoff_search"],
            "states.cutoff_search.calls": c["states.cutoff_search"],
            "kernels.search_s": s["kernels.search"],
            "kernels.search.calls": c["kernels.search"],
            "kernels.search.elems": n["kernels.search.elems"],
            "states.pmf_useful_ratio": ratio(
                n["useful_entries"], n["kernels.search.entries"]),
            "states.cutoff_mean": ratio(
                n["cutoff_sum"], c["states.cutoff_search"]),
            "states.build_s": s["states.build"],
            "kernels.ladder_s": s["kernels.ladder"],
            "kernels.ladder.calls": c["kernels.ladder"],
            "kernels.ladder.elems": n["kernels.ladder.elems"],
            "moments.ladder_s": (s["moments.ladder"]
                                 + s["moments.exact_fallback"]),
            "moments.algebra_s": s["moments.algebra"],
            "moments.exact_fallback.calls": c["moments.exact_fallback"],
            "moments.ladder_order_max": self.order_max,
            "moments.ladder_reuse_share": ratio(
                n["ladder_reused"], c["moments.ladder"]),
            "criteria.stirling_s": s["criteria.stirling"],
            "criteria.q_ell_s": s["criteria.q_ell"],
            "criteria.a3_s": s["criteria.a3"],
            "criteria.other_s": s["criteria.other"],
            "criteria.cancellation_rows": n["cancellation_rows"],
            "criteria.a3_degenerate_rows": n["a3_degenerate_rows"],
            "oracle.brute_force_s": s["oracle.brute_force"],
            "oracle.suite_s": s["oracle.suite"],
            "oracle.cells": n["oracle_cells"],
            "cli.render_s": s["cli.render"],
            "cli.output_bytes": output_bytes,
        }

    def unavailable(self):
        """Metrics that could not be measured, with the reason."""
        out = {}
        for name, (_, _, spans, _) in METRICS.items():
            why = [f"missing: {s}" for s in spans if s in self.missing]
            why += [f"unreadable: {s}" for s in spans if s in self.hook_errors]
            if why:
                out[name] = ", ".join(why)
        return out

    def unexercised(self, workload):
        """Spans that must run on `workload` but saw no call."""
        # kernel calls are bucketed as kernels.search / kernels.ladder
        return [span for span in EXERCISED[workload]
                if self.calls[span] == 0 and not any(
                    span == m or span.startswith(m + ".")
                    for m in self.missing)]
