"""Wrappers around the public functions of each `infinigb` layer, installed
from the benchmark's own files, and the per-layer metrics they yield.

Layers are the modules.  `monomials` and `index_sets` see about a million
calls per pass, so their wrappers only count.  Every other wrapper records
a span (name, start, end, parent span, job id) into column arrays kept
in memory; `write_spans` writes them out once the run ends.  A layer's
self time is the time of its spans minus the time their child spans
cover; the time of counted calls lands in the self time of the span
around them.

A function imported with `from ... import` is bound in several module
namespaces (`compare` in `monomials`, `polynomials`, `groebner` and `cli`),
so the wrapper replaces the function in every `infinigb` namespace that
binds it.  Installation fails when a target is missing or a binding
survives, rather than reporting zero calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array

LAYERS = (
    "monomials", "index_sets", "polynomials", "division",
    "groebner", "series", "partitions", "cli",
)

PACKAGE = "infinigb"
COUNT, SPAN = "count", "span"

# (module, class or None, attribute, kind, metric group).
TARGETS = (
    ("monomials", None, "compare", COUNT, "monomials.compare"),
    ("monomials", "Monomial", "degree", COUNT, "monomials.degree"),
    ("monomials", "Monomial", "__mul__", COUNT, "monomials.mul"),
    ("monomials", "Monomial", "try_divide", COUNT, "monomials.try_divide"),
    ("index_sets", "IndexSet", "__contains__", COUNT, "index_sets.contains"),
    ("polynomials", None, "s_polynomial", SPAN, "polynomials.s_polynomial"),
    ("polynomials", "Polynomial", "__add__", SPAN, "polynomials.arith"),
    ("polynomials", "Polynomial", "__sub__", SPAN, "polynomials.arith"),
    ("polynomials", "Polynomial", "times_term", SPAN, "polynomials.arith"),
    ("polynomials", "Polynomial", "from_terms", SPAN, "polynomials.from_terms"),
    ("polynomials", None, "format_polynomial", SPAN, "polynomials.format"),
    ("division", None, "divide", SPAN, "division.divide"),
    ("division", None, "standard_monomials", SPAN, "division.standard_monomials"),
    ("groebner", None, "buchberger_truncated", SPAN, "groebner.buchberger_truncated"),
    ("groebner", None, "reduce_basis", SPAN, "groebner.reduce_basis"),
    ("groebner", None, "verify_buchberger", SPAN, "groebner.verify_buchberger"),
    ("groebner", None, "bayer_stillman_basis", SPAN, "groebner.bayer_stillman_basis"),
    ("groebner", None, "assemble_filtration", SPAN, "groebner.assemble_filtration"),
    ("groebner", None, "stabilized_reduced_basis", SPAN, "groebner.stabilized_reduced_basis"),
    ("groebner", None, "check_fr_condition", SPAN, "groebner.check_fr_condition"),
    ("series", "TruncatedSeries", "__mul__", SPAN, "series.mul"),
    ("series", None, "quotient_series_from_standard_monomials", SPAN, "series.quotient"),
    ("series", None, "regular_sequence_series", SPAN, "series.regular"),
    ("partitions", None, "enumerate_family", SPAN, "partitions.enumerate_family"),
    ("partitions", None, "phi", SPAN, "partitions.phi"),
    ("partitions", None, "psi", SPAN, "partitions.psi"),
    ("partitions", None, "verify_bijection", SPAN, "partitions.verify_bijection"),
    ("partitions", None, "schur_identity_check", SPAN, "partitions.schur_identity_check"),
    ("partitions", None, "rr_identity_check", SPAN, "partitions.rr_identity_check"),
    ("partitions", None, "probe_closure", COUNT, "partitions.probe_closure"),
    ("cli", None, "main", SPAN, "cli.main"),
)

# Per-span facts taken from a call's result.
_EXTRAS = {
    "division.divide": lambda result: (result.step_count, result.remainder.is_zero),
    "division.standard_monomials": len,
    "groebner.buchberger_truncated": lambda basis: (
        len(basis.elements), basis.discarded_pairs, basis.discarded_elements
    ),
}

WAITING_NOTE = (
    "waiting time: none to report; the program is single-threaded and has "
    "no queues, so every span is busy time"
)


class TracingError(RuntimeError):
    """A target could not be found or patched everywhere it is bound."""


class Tracer:
    """Installs the wrappers, records one pass and computes its metrics."""

    def __init__(self):
        self.groups = sorted({t[4] for t in TARGETS})
        self._group_id = {g: k for k, g in enumerate(self.groups)}
        self._layer_of_group = [g.split(".", 1)[0] for g in self.groups]
        self.patched = []  # (namespace, attribute, original)
        self.bindings = {}  # metric group -> namespaces patched
        self.job = -1
        self.counts = {t[4]: [0] for t in TARGETS if t[3] == COUNT}
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.names = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.extras = {}
        self.stack = [-1]
        for cell in self.counts.values():
            cell[0] = 0

    def _counting(self, fn, group):
        cell = self.counts[group]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, fn, group):
        gid = self._group_id[group]
        extra = _EXTRAS.get(group)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.names)
            tracer.names.append(gid)
            tracer.parents.append(tracer.stack[-1])
            tracer.jobs.append(tracer.job)
            tracer.ends.append(0)
            tracer.stack.append(index)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = clock()
                tracer.stack.pop()
            if extra is not None:
                tracer.extras[index] = extra(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self):
        if self.patched:
            raise TracingError("wrappers are already installed")
        self.bindings = {}
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        originals = []
        try:
            for module_name, class_name, attr, kind, group in TARGETS:
                module = by_name.get(f"{PACKAGE}.{module_name}")
                if module is None:
                    raise TracingError(f"layer module {module_name} is not imported")
                owner = module if class_name is None else getattr(module, class_name, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    raise TracingError(
                        f"{module_name}.{class_name + '.' if class_name else ''}{attr} not found"
                    )
                function = raw.__func__ if isinstance(raw, classmethod) else raw
                wrap = self._counting if kind == COUNT else self._spanning
                wrapper = wrap(function, group)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                if class_name is not None:
                    self._patch(owner, attr, raw, wrapper)
                    self.bindings.setdefault(group, []).append(f"{module_name}.{class_name}")
                    continue
                originals.append(raw)
                for namespace in modules:
                    for name, value in list(vars(namespace).items()):
                        if value is raw:
                            self._patch(namespace, name, raw, wrapper)
                            self.bindings.setdefault(group, []).append(namespace.__name__)
            for namespace in modules:
                for name, value in vars(namespace).items():
                    if any(value is o for o in originals):
                        raise TracingError(
                            f"{namespace.__name__}.{name} is still unwrapped"
                        )
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self.patched.append((namespace, attr, original))

    def uninstall(self):
        while self.patched:
            namespace, attr, original = self.patched.pop()
            setattr(namespace, attr, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the pass recorded since the last reset."""
        n = len(self.names)
        groups, layer_of = self.groups, self._layer_of_group
        gid = self._group_id
        duration = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0] * n
        seen = [0] * n  # bitmask of groups open among a span's ancestors
        groebner_parent = [-1] * n  # nearest enclosing groebner span
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += duration[i]
                seen[i] = seen[p] | (1 << self.names[p])
                groebner_parent[i] = (
                    p if layer_of[self.names[p]] == "groebner" else groebner_parent[p]
                )
        calls = [0] * len(groups)
        total = [0] * len(groups)
        per_call = [[] for _ in groups]
        self_time = {layer: 0 for layer in LAYERS}
        for i in range(n):
            g = self.names[i]
            calls[g] += 1
            per_call[g].append(duration[i])
            self_time[layer_of[g]] += duration[i] - covered[i]
            if not seen[i] & (1 << g):
                total[g] += duration[i]

        def s(group):
            return total[gid[group]] / 1e9

        def c(group):
            return calls[gid[group]]

        def ms(group, q):
            values = sorted(per_call[gid[group]])
            if not values:
                return 0.0
            return values[min(len(values) - 1, int(q * len(values)))] / 1e6

        in_completion = gid["groebner.buchberger_truncated"]
        # Spans of calls that raised carry no extras and are left out here.
        extras = self.extras
        divides = [i for i in range(n)
                   if self.names[i] == gid["division.divide"] and i in extras]
        completion_divides = [
            i for i in divides
            if groebner_parent[i] >= 0 and self.names[groebner_parent[i]] == in_completion
        ]
        zero = sum(1 for i in completion_divides if extras[i][1])
        spairs = sum(
            1 for i in range(n)
            if self.names[i] == gid["polynomials.s_polynomial"]
            and groebner_parent[i] >= 0
            and self.names[groebner_parent[i]] == in_completion
        )
        completions = [extras[i] for i in range(n)
                       if self.names[i] == in_completion and i in extras]
        added = len(completion_divides) - zero - sum(e[2] for e in completions)
        counted = {group: cell[0] for group, cell in self.counts.items()}

        return {
            "monomials.compare.calls": counted["monomials.compare"],
            "monomials.degree.calls": counted["monomials.degree"],
            "monomials.mul.calls": counted["monomials.mul"],
            "monomials.try_divide.calls": counted["monomials.try_divide"],
            "index_sets.contains.calls": counted["index_sets.contains"],
            "polynomials.s_polynomial.calls": c("polynomials.s_polynomial"),
            "polynomials.s_polynomial.s": s("polynomials.s_polynomial"),
            "polynomials.arith.calls": c("polynomials.arith"),
            "polynomials.arith.s": s("polynomials.arith"),
            "polynomials.from_terms.calls": c("polynomials.from_terms"),
            "polynomials.format.calls": c("polynomials.format"),
            "polynomials.format.s": s("polynomials.format"),
            "polynomials.self_s": self_time["polynomials"] / 1e9,
            "division.divide.calls": c("division.divide"),
            "division.divide.s": s("division.divide"),
            "division.divide.p50_ms": ms("division.divide", 0.5),
            "division.divide.p90_ms": ms("division.divide", 0.9),
            "division.steps": sum(extras[i][0] for i in divides),
            "division.zero_ratio": zero / len(completion_divides) if completion_divides else 0.0,
            "division.standard_monomials.calls": c("division.standard_monomials"),
            "division.standard_monomials.s": s("division.standard_monomials"),
            "division.standard_monomials.monomials": sum(
                extras[i] for i in range(n)
                if self.names[i] == gid["division.standard_monomials"] and i in extras
            ),
            "division.self_s": self_time["division"] / 1e9,
            "groebner.buchberger_truncated.calls": c("groebner.buchberger_truncated"),
            "groebner.buchberger_truncated.s": s("groebner.buchberger_truncated"),
            "groebner.spairs": spairs,
            "groebner.useful_pair_ratio": added / spairs if spairs else 0.0,
            "groebner.discarded_pairs": sum(e[1] for e in completions),
            "groebner.basis_size": sum(e[0] for e in completions),
            "groebner.reduce_basis.s": s("groebner.reduce_basis"),
            "groebner.verify_buchberger.s": s("groebner.verify_buchberger"),
            "groebner.bayer_stillman_basis.calls": c("groebner.bayer_stillman_basis"),
            "groebner.bayer_stillman_basis.s": s("groebner.bayer_stillman_basis"),
            "groebner.assemble_filtration.s": s("groebner.assemble_filtration"),
            "groebner.stabilized_reduced_basis.s": s("groebner.stabilized_reduced_basis"),
            "groebner.self_s": self_time["groebner"] / 1e9,
            "series.mul.calls": c("series.mul"),
            "series.mul.s": s("series.mul"),
            "series.quotient.s": s("series.quotient"),
            "series.regular.s": s("series.regular"),
            "series.self_s": self_time["series"] / 1e9,
            "partitions.enumerate_family.calls": c("partitions.enumerate_family"),
            "partitions.enumerate_family.s": s("partitions.enumerate_family"),
            "partitions.phi.calls": c("partitions.phi"),
            "partitions.phi.p50_ms": ms("partitions.phi", 0.5),
            "partitions.phi.p90_ms": ms("partitions.phi", 0.9),
            "partitions.psi.calls": c("partitions.psi"),
            "partitions.psi.p50_ms": ms("partitions.psi", 0.5),
            "partitions.psi.p90_ms": ms("partitions.psi", 0.9),
            "partitions.probe_closure.calls": counted["partitions.probe_closure"],
            "partitions.self_s": self_time["partitions"] / 1e9,
            "cli.main.calls": c("cli.main"),
            "cli.main.s": s("cli.main"),
            "cli.self_s": self_time["cli"] / 1e9,
        }

    def write_spans(self, path, job_names):
        """One header line, then `span name start_ns end_ns parent job` rows."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# jobs: " + " | ".join(job_names) + "\n")
            handle.write("span\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for i in range(len(self.names)):
                handle.write(
                    f"{i}\t{self.groups[self.names[i]]}\t{self.starts[i]}\t"
                    f"{self.ends[i]}\t{self.parents[i]}\t{self.jobs[i]}\n"
                )


def median_metrics(passes, count_names):
    """Merge the metrics of several traced passes: counts must repeat
    exactly, times are medians."""
    merged = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in count_names:
            if len(set(values)) != 1:
                raise TracingError(f"count {name} differs between passes: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged
