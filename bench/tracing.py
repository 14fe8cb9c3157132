"""Per-layer tracing from outside the package.

The layers are the six modules of ``bol2``.  :func:`install` wraps every
function a module exports (its ``__all__``) and puts the wrapper wherever
*another* layer, or the benchmark, holds a reference to it: in module
globals and in module-level dispatch tables such as the CLI's table of
enumeration predicates.  Calls a module makes to its own functions stay
unwrapped, so each span marks a call that crosses a layer boundary.

Spans are kept as running sums in memory: call count, inclusive time and
self time (inclusive time minus the time of the spans it contains).  Memo
tables are read with ``len()`` and ``cache_info()`` only.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

from measure import hit_ratio, ratio

LAYERS = ("words", "normalize", "basis", "loop", "verify", "cli")

# Functions whose calls the ``.calls``/``.self_s`` per-layer metrics report.
REPORTED_FUNCTIONS = (
    "words.spine_factors",
    "words.render",
    "normalize.is_reduced",
    "normalize.normal_form_chain",
    "basis.is_candidate",
    "basis.in_basis",
    "basis.in_loop",
    "loop.symmetric_form",
    "loop.mul",
)

_ENUMERATORS = (
    "basis.enumerate_candidates",
    "basis.enumerate_basis",
    "basis.enumerate_loop_words",
)
_PREDICATES = ("basis.is_candidate", "basis.in_basis", "basis.in_loop")
_CHECKS = ("verify.check_identity_suite", "verify.check_transversal")


class Tracer:
    """Call counts, inclusive and self time per wrapped function, plus
    counters that observers add."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.last_pool = None  # carrier list ldiv fetched during its current call
        self._stack: list[float] = []  # per open span: time covered by its children

    def wrap(self, name: str, fn, observe=None):
        """A span around ``fn``; ``observe(tracer, bound_args, result)`` runs
        after each successful call."""
        stack = self._stack
        clock = self.clock
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return span

    def spans(self) -> dict:
        """``[calls, inclusive_s, self_s]`` for every function that was called."""
        return {
            name: [self.calls[name], self.inclusive[name], self.self_time[name]]
            for name in sorted(self.calls)
        }

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum((t for name, t in self.self_time.items() if name.startswith(prefix)), 0.0)


class CountingDict(dict):
    """A memo table that counts its ``[]`` lookups and the misses among them."""

    __slots__ = ("lookups", "misses")

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.misses = 0

    def __getitem__(self, key):
        self.lookups += 1
        try:
            return dict.__getitem__(self, key)
        except KeyError:
            self.misses += 1
            raise


def _observer(name: str, caller: str, reduced_words):
    """Counters gathered at one wrapped call site, or None."""
    if name == "basis.enumerate_reduced":

        def observe(tr, args, result):
            tr.counts["enum.scanned"] += len(result)

        return observe
    if name in _ENUMERATORS:

        def observe(tr, args, result):
            alphabet, max_len = args["alphabet"], args["max_len"]
            tr.counts["enum.scanned"] += sum(
                len(reduced_words(alphabet, n)) for n in range(1, max_len + 1)
            )
            tr.counts["enum.emitted"] += sum(1 for w in result if w.size)
            if caller == "loop" and name == "basis.enumerate_loop_words":
                tr.last_pool = result

        return observe
    if name in _PREDICATES and caller == "cli":
        # The CLI's own enumeration filters reduced words with these.

        def observe(tr, args, result):
            tr.counts["enum.emitted"] += bool(result)

        return observe
    if name == "loop.ldiv":

        def observe(tr, args, result):
            pool, tr.last_pool = tr.last_pool, None
            if pool is None:  # answered without a search
                return
            tr.counts["ldiv.searches"] += 1
            tr.counts["ldiv.pool"] += len(pool)
            # ldiv returns the first pool element that solves a*x = b, having
            # called mul once per element up to and including it.
            found = next((i for i, x in enumerate(pool) if x is result), None)
            tr.counts["ldiv.scanned"] += len(pool) if found is None else found + 1

        return observe
    if name in _CHECKS:

        def observe(tr, args, result):
            tr.counts["verify.cases"] += result.cases

        return observe
    return None


def install(tracer: Tracer, modules: dict, bench_namespace) -> CountingDict | None:
    """Wrap every exported function of each layer where other layers and the
    benchmark reference it.  Returns the counting forms memo, if the
    shared cache still has one."""
    originals: dict[int, tuple[str, object]] = {}
    for layer, module in modules.items():
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export, None)
            if inspect.isfunction(obj):
                originals[id(obj)] = (f"{layer}.{export}", obj)
    reduced_words = getattr(modules["basis"], "enumerate_reduced", None)

    def wrapped(value, caller):
        qualified, fn = originals[id(value)]
        if qualified.split(".")[0] == caller:
            return value
        return tracer.wrap(qualified, fn, _observer(qualified, caller, reduced_words))

    namespaces = {layer: vars(module) for layer, module in modules.items()}
    namespaces["bench"] = vars(bench_namespace)
    for caller, namespace in namespaces.items():
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            if id(value) in originals:
                namespace[key] = wrapped(value, caller)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if inspect.isfunction(v) and id(v) in originals:
                        value[k] = wrapped(v, caller)

    cache = getattr(modules["basis"], "SHARED_CACHE", None)
    if cache is None or not isinstance(getattr(cache, "forms", None), dict):
        return None
    cache.forms = CountingDict(cache.forms)
    return cache.forms


def _size(obj, *path):
    for attr in path:
        obj = getattr(obj, attr, None)
        if obj is None:
            return None
    if hasattr(obj, "cache_info"):
        return obj.cache_info().currsize
    return len(obj)


def table_sizes(modules: dict) -> dict:
    """Entry counts of the intern tables and memo tables; None for a table
    that this version of the package does not have."""
    words, normalize, basis = modules["words"], modules["normalize"], modules["basis"]
    return {
        "words.letters": _size(words, "Letter", "_interned"),
        "words.products": _size(words, "Product", "_interned"),
        "words.all_words": _size(words, "_all_words"),
        "normalize.reduced_memo": _size(normalize, "_REDUCED"),
        "normalize.normal_memo": _size(normalize, "_NORMAL"),
        "basis.reduced_words": _size(basis, "_reduced_words"),
        "basis.candidate_memo": _size(basis, "SHARED_CACHE", "candidate"),
        "basis.basis_memo": _size(basis, "SHARED_CACHE", "basis"),
        "loop.forms_memo": _size(basis, "SHARED_CACHE", "forms"),
    }


PER_LAYER_METRICS = (
    [("words.interned_products", "count", "lower")]
    + [
        (f"{fn}.{kind}", unit, "lower")
        for fn in REPORTED_FUNCTIONS
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("normalize.reduced_memo", "count", "lower"),
        ("normalize.normal_memo", "count", "lower"),
        ("basis.enum.scanned", "count", "lower"),
        ("basis.enum.yield_ratio", "ratio", "higher"),
        ("basis.candidate_memo", "count", "lower"),
        ("basis.basis_memo", "count", "lower"),
        ("loop.symmetric_form.misses", "count", "lower"),
        ("loop.symmetric_form.hit_ratio", "ratio", "higher"),
        ("loop.ldiv.pool", "count", "lower"),
        ("loop.ldiv.scanned", "count", "lower"),
        ("verify.cases", "count", "higher"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)
"""(name, unit, better) of every metric a traced run reports."""


def layer_metrics(tracer: Tracer, forms: CountingDict | None, before: dict, after: dict) -> dict:
    """The per-layer metrics of one traced repetition (all but ``trace.*``).

    ``loop.symmetric_form.calls`` and ``.misses`` count lookups in the forms
    memo, so they include the calls ``mul`` and the recursion make inside
    ``loop``; its ``.self_s`` covers only the spans that cross into ``loop``.
    A memo table this version lacks reads as -1.
    """
    out: dict[str, float] = {}

    def size(key):
        value = after[key]
        return -1 if value is None else value

    products_before, products_after = before["words.products"], after["words.products"]
    out["words.interned_products"] = (
        -1 if products_after is None else products_after - (products_before or 0)
    )
    for fn in REPORTED_FUNCTIONS:
        out[f"{fn}.calls"] = tracer.calls[fn]
        out[f"{fn}.self_s"] = tracer.self_time[fn]
    if forms is None:
        out["loop.symmetric_form.calls"] = out["loop.symmetric_form.misses"] = -1
        out["loop.symmetric_form.hit_ratio"] = -1
    else:
        out["loop.symmetric_form.calls"] = forms.lookups
        out["loop.symmetric_form.misses"] = forms.misses
        out["loop.symmetric_form.hit_ratio"] = hit_ratio(forms.lookups, forms.misses)
    out["normalize.reduced_memo"] = size("normalize.reduced_memo")
    out["normalize.normal_memo"] = size("normalize.normal_memo")
    out["basis.enum.scanned"] = tracer.counts["enum.scanned"]
    out["basis.enum.yield_ratio"] = ratio(
        tracer.counts["enum.emitted"], tracer.counts["enum.scanned"]
    )
    out["basis.candidate_memo"] = size("basis.candidate_memo")
    out["basis.basis_memo"] = size("basis.basis_memo")
    searches = tracer.counts["ldiv.searches"]
    out["loop.ldiv.pool"] = ratio(tracer.counts["ldiv.pool"], searches)
    out["loop.ldiv.scanned"] = ratio(tracer.counts["ldiv.scanned"], searches)
    out["verify.cases"] = tracer.counts["verify.cases"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_time(layer)
    return out
