"""Outside-in tracer: times and counts calls into lowdensity's public
functions without touching the library's code.

`Tracer.install` swaps each traced function for a wrapper in every
lowdensity namespace that holds it, since `from .x import y` binds a copy
(`cli.convergence_sweep`, `finite_eps.classify`, `statistics.correlation_smeared`
and so on); methods are patched on their class.  `uninstall` puts the
originals back, so untraced calls in the same process pay nothing.

A span is (name, layer, parent span, call id, start, end), kept in memory
and written out by the caller.  Self time is a span's duration minus the
time its child spans cover.  `summarize` turns the spans and counters of one
call into the per-layer metrics; those marked in COMPUTED are derived from
sizes and counts, not measured.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "lowdensity"

# (layer, module, attribute); "Class.method" names are patched on the class
SPANNED = [
    ("cli", "cli", "main"),
    ("config", "config", "load_config"),
    ("config", "config", "model_from_config"),
    ("config", "config", "symbols_from_config"),
    ("config", "config", "default_config"),
    ("config", "config", "test_function_from_config"),
    ("finite_eps", "finite_eps", "convergence_sweep"),
    ("finite_eps", "finite_eps", "correlation_smeared"),
    ("finite_eps", "finite_eps", "truncated_smeared"),
    ("finite_eps", "finite_eps", "pairing_term_smeared"),
    ("symbols", "symbols", "TestFunction.fourier"),
    ("spectral", "spectral", "rank_one_kernel"),
    ("spectral", "spectral", "limit_truncated_coefficient"),
    ("spectral", "spectral", "limit_truncated_smeared"),
    ("spectral", "spectral", "free_moment"),
    ("spectral", "spectral", "make_model"),
    ("spectral", "spectral", "radial_to_shell"),
    ("statistics", "statistics", "independence_probe"),
    ("statistics", "statistics", "poisson_cumulants"),
    ("statistics", "statistics", "poisson_moments"),
    ("statistics", "statistics", "poisson_model"),
    ("statistics", "statistics", "limit_cumulant"),
    ("statistics", "statistics", "cumulants_from_moments"),
    ("statistics", "statistics", "moments_from_cumulants"),
    ("statistics", "statistics", "truncated_from_full"),
    ("statistics", "statistics", "full_from_truncated"),
    ("partitions", "partitions", "enumerate_set_partitions"),
    ("partitions", "partitions", "enumerate_pair_diagrams"),
    ("partitions", "partitions", "irreducible_diagrams"),
    ("partitions", "partitions", "classify"),
    ("partitions", "partitions", "surviving_diagram"),
    ("partitions", "partitions", "bell"),
    ("partitions", "partitions", "touchard"),
    ("white_noise", "white_noise", "vacuum_expectation"),
    ("white_noise", "white_noise", "normal_order"),
    ("white_noise", "white_noise", "canonicalize"),
    ("white_noise", "white_noise", "evaluate_symbolic"),
    ("report", "report", "ConvergenceReport.write"),
    ("report", "report", "write_sidecar"),
]
# called too often for a span each; counted only
COUNTED = [("white_noise", "white_noise", "commutator")]

COMPUTED = {
    "finite_eps.matmuls", "finite_eps.gflop", "finite_eps.gflop_per_s",
    "finite_eps.factor_reuse", "spectral.kernel_mb",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _observe_pairing(c: Counter, args, kwargs, result) -> None:
    model, symbols = _arg(args, kwargs, 0, "model"), list(_arg(args, kwargs, 1, "symbols"))
    diagram, eps = _arg(args, kwargs, 2, "diagram"), _arg(args, kwargs, 3, "epsilon")
    m = model.grid.bins
    for cycle in diagram.cycles():
        r = len(cycle)
        if r < 2:
            continue
        c["matmuls"] += r - 1
        c["flop"] += 8 * m**3 * (r - 1)
        for l_next in cycle:
            s = symbols[l_next - 1]
            c["factors_built"] += 1
            c.distinct["factors"].add((model.grid, s.phi, s.omega.s, eps))
    c["pairing_calls"] += 1
    c["warned_terms"] += bool(result.warnings)


def _observe_correlation(c: Counter, args, kwargs, result) -> None:
    symbols, eps = tuple(_arg(args, kwargs, 1, "symbols")), _arg(args, kwargs, 2, "epsilon")
    c["correlation_calls"] += 1
    c.distinct["correlations"].add((symbols, eps))


def _observe_fourier(c: Counter, args, kwargs, result) -> None:
    c["fourier_calls"] += 1
    c["fourier_points"] += int(np.size(_arg(args, kwargs, 1, "xi")))


def _observe_kernel(c: Counter, args, kwargs, result) -> None:
    c["kernel_bytes"] += 16 * _arg(args, kwargs, 0, "model").grid.bins ** 2


def _observe_items(c: Counter, args, kwargs, result) -> None:
    c["partition_items"] += len(result)


def _observe_normal_order(c: Counter, args, kwargs, result) -> None:
    c["branches"] += 1
    c["ordered_terms"] += len(result.terms)
    c["scalar_terms"] += sum(1 for t in result.terms if not t.factors)


def _observe_report_write(c: Counter, args, kwargs, result) -> None:
    with open(_arg(args, kwargs, 1, "path"), "rb") as fh:
        c["report_bytes"] += len(fh.read())


def _observe_sidecar(c: Counter, args, kwargs, result) -> None:
    with open(result, "rb") as fh:
        c["report_bytes"] += len(fh.read())


def _observe_commutator(c: Counter, args, kwargs, result) -> None:
    c["commutators"] += 1


OBSERVERS = {
    "pairing_term_smeared": _observe_pairing,
    "correlation_smeared": _observe_correlation,
    "TestFunction.fourier": _observe_fourier,
    "rank_one_kernel": _observe_kernel,
    "enumerate_set_partitions": _observe_items,
    "enumerate_pair_diagrams": _observe_items,
    "irreducible_diagrams": _observe_items,
    "normal_order": _observe_normal_order,
    "ConvergenceReport.write": _observe_report_write,
    "write_sidecar": _observe_sidecar,
    "commutator": _observe_commutator,
}


class Counts(Counter):
    """Counter plus sets of distinct keys, for reuse ratios."""

    def __init__(self):
        super().__init__()
        self.distinct = defaultdict(set)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, layer, parent, call, start, end)
        self.counts: dict = {}  # call id -> Counts
        self.call = None
        self._stack: list[int] = []
        self._patches: list = []

    def begin(self, call) -> None:
        """Attribute following spans and counts to `call`."""
        self.call = call
        self.counts[call] = Counts()

    def _wrap(self, fn, name: str, layer: str, spanned: bool):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            counts = self.counts[self.call]
            if not spanned:
                result = fn(*args, **kwargs)
                observe(counts, args, kwargs, result)
                return result
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, layer, parent, self.call, t0, t1)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for layer, module, attr in table:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    targets = [(owner, meth)]
                else:
                    meth = attr
                    original = getattr(owner, meth)
                    targets = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is original]
                wrapper = self._wrap(getattr(owner, meth), attr, layer, spanned)
                for ns, key in targets:
                    self._patches.append((ns, key, getattr(ns, key)))
                    setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def summarize(self, call) -> dict:
        """Per-layer metrics of one traced call."""
        spans = {i: s for i, s in enumerate(self.spans) if s is not None and s[3] == call}
        child_time: dict = defaultdict(float)
        for s in spans.values():
            if s[2] in spans:
                child_time[s[2]] += s[5] - s[4]

        def self_time(i):
            s = spans[i]
            return s[5] - s[4] - child_time[i]

        def outermost(i, layer):
            parent = spans[i][2]
            while parent in spans:
                if spans[parent][1] == layer:
                    return False
                parent = spans[parent][2]
            return True

        by_name: dict = defaultdict(list)
        for i, s in spans.items():
            by_name[s[0]].append(i)

        def layer_s(layer):
            return sum(s[5] - s[4] for i, s in spans.items() if s[1] == layer and outermost(i, layer))

        def layer_self_s(layer):
            return sum(self_time(i) for i, s in spans.items() if s[1] == layer)

        def name_s(name):
            return sum(spans[i][5] - spans[i][4] for i in by_name[name])

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts[call]
        pairing_self = sum(self_time(i) for i in by_name["pairing_term_smeared"])
        gflop = c["flop"] / 1e9
        return {
            "finite_eps.pairing.calls": c["pairing_calls"],
            "finite_eps.pairing.self_s": pairing_self,
            "finite_eps.matmuls": c["matmuls"],
            "finite_eps.gflop": gflop,
            "finite_eps.gflop_per_s": ratio(gflop, pairing_self),
            "finite_eps.factor_reuse": ratio(len(c.distinct["factors"]), c["factors_built"]),
            "finite_eps.warned_terms": c["warned_terms"],
            "symbols.fourier.calls": c["fourier_calls"],
            "symbols.fourier.points": c["fourier_points"],
            "symbols.fourier.s": name_s("TestFunction.fourier"),
            "spectral.s": layer_s("spectral"),
            "spectral.kernel_mb": c["kernel_bytes"] / 1e6,
            "statistics.self_s": layer_self_s("statistics"),
            "statistics.correlation.calls": c["correlation_calls"],
            "statistics.correlation_reuse": ratio(len(c.distinct["correlations"]), c["correlation_calls"]),
            "partitions.s": layer_s("partitions"),
            "partitions.items": c["partition_items"],
            "white_noise.s": layer_s("white_noise"),
            "white_noise.branches": c["branches"],
            "white_noise.commutators": c["commutators"],
            "white_noise.canonicalize.s": name_s("canonicalize"),
            "white_noise.scalar_ratio": ratio(c["scalar_terms"], c["ordered_terms"]),
            "white_noise.evaluate.s": name_s("evaluate_symbolic"),
            "config.s": layer_s("config"),
            "report.s": layer_s("report"),
            "report.bytes": c["report_bytes"],
            "cli.self_s": layer_self_s("cli"),
        }

    def bases(self, call) -> dict:
        """The denominators behind each ratio, so a ratio is never quoted
        without its base."""
        c = self.counts[call]
        return {
            "finite_eps.factor_reuse": [len(c.distinct["factors"]), c["factors_built"]],
            "statistics.correlation_reuse": [len(c.distinct["correlations"]), c["correlation_calls"]],
            "white_noise.scalar_ratio": [c["scalar_terms"], c["ordered_terms"]],
        }
