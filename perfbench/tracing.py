"""Outside-in tracing of the mosls layers, with no edit to the package.

`Tracer.install` replaces every public function of the layer modules at
every module attribute that binds it (the package re-exports names, and
`switching` binds `charpoly_exact` and `build_mosls_graph` by name), so a
call is seen whichever name it goes through.  Each call records a span
[name, start, end, parent, job, extra]; `extra` holds a size computed from
the arguments or result after the span has ended.  Per-element field
operations are not traced: `count_field_ops` counts them in a pass of
their own, so the counting does not inflate the traced times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "gf", "construct", "designs", "graph", "spectra", "switching")

# called once per field element or cell: counted, not traced
FIELD_OPS = ("add", "sub", "mul", "neg")
PER_ELEMENT = {f"gf.{name}" for name in FIELD_OPS + ("to_int", "from_int", "zero", "one")}

# timed groups: a span counts toward its group unless an ancestor span
# already counts toward a group of the same layer
GROUPS = {
    "gf.make_field_s": ["gf.make_field"],
    "construct.field_square_s": ["construct.field_square"],
    "construct.product_s": ["construct.product"],
    "designs.validate_s": [
        "designs.is_latin", "designs.is_sudoku", "designs.is_block_permutational",
        "designs.are_orthogonal", "designs.family_pairwise_orthogonal",
    ],
    "designs.load_family_s": ["designs.load_family", "designs.parse_family"],
    "designs.format_family_s": ["designs.format_family", "designs.save_family"],
    "graph.build_s": ["graph.build_mols_graph", "graph.build_mosls_graph"],
    "graph.commute_check_s": ["graph.commute_check"],
    "graph.srg_check_s": ["graph.srg_check"],
    "graph.quotient_s": ["graph.quotient_matrix", "graph.block_partition"],
    "graph.export_s": ["graph.edge_list", "graph.edge_lines", "graph.matrix_lines"],
    "spectra.jacobi_s": ["spectra.jacobi_eigenvalues"],
    "spectra.charpoly_s": ["spectra.charpoly_exact"],
    "spectra.closed_form_s": [
        "spectra.srg_spectrum", "spectra.quotient_spectrum",
        "spectra.mosls_graph_spectrum", "spectra.closed_to_poly",
    ],
    "switching.switch_s": ["switching.sudoku_symbol_switch", "switching.row_cycle_switch"],
    "switching.expected_s": ["switching.switched_charpoly_expected", "switching.switched_quartic"],
}
SELF_TIMES = {
    "spectra.numeric_self_s": "spectra.numeric_spectrum",
    "switching.certificate_self_s": "switching.nonisomorphism_certificate",
}
# dense N x N integer matrix products per call
DENSE_PRODUCTS = {"graph.commute_check": 2, "graph.srg_check": 1}
CALLS = {
    "construct.field_square_calls": "construct.field_square",
    "designs.are_orthogonal_calls": "designs.are_orthogonal",
    "spectra.jacobi_calls": "spectra.jacobi_eigenvalues",
    "spectra.charpoly_calls": "spectra.charpoly_exact",
}


def _bindings(skip=lambda name, func: False):
    """(module, attribute, function, 'layer.name') for every public layer
    function at every layer-module attribute bound to it."""
    import mosls

    modules = [mosls] + [importlib.import_module(f"mosls.{layer}") for layer in LAYERS]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("mosls.") and layer in LAYERS:
                name = f"{layer}.{obj.__name__}"
                if not skip(name, obj):
                    yield mod, attr, obj, name


def _patch(make_wrapper, skip) -> int:
    """Bind one wrapper per function at all of its attributes; returns the
    number of attributes patched."""
    wrappers = {}
    patched = 0
    for mod, attr, func, name in _bindings(skip):
        if func not in wrappers:
            wrappers[func] = make_wrapper(func, name)
        setattr(mod, attr, wrappers[func])
        patched += 1
    return patched


# ---------------------------------------------------------------------------
# sizes computed from arguments, for the computed per-layer counts


def _vertices(args, kwargs, result) -> int:
    obj = args[0]
    if hasattr(obj, "num_vertices"):
        return obj.num_vertices
    shape = getattr(obj, "shape", obj)
    return shape.order**2


def _cells(args, kwargs, result) -> int:
    return result.shape.order**2 * len(result.squares)


class Tracer:
    """Spans of one process; `job` names the job that new spans belong to."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self._primes: list[int] = []
        self.hooks = {name: _vertices for names in (
            GROUPS["graph.build_s"], GROUPS["graph.commute_check_s"], GROUPS["graph.srg_check_s"],
            GROUPS["graph.quotient_s"], GROUPS["graph.export_s"]) for name in names}
        self.hooks.update({f"construct.{n}": _cells for n in (
            "field_mosls", "plain_mols", "per_prime_family", "product", "composite_mosls")})
        self.hooks["spectra.charpoly_exact"] = lambda args, kwargs, result: self.crt_primes(args[0])

    def install(self) -> int:
        skip = lambda name, func: name in PER_ELEMENT or inspect.isgeneratorfunction(func)
        return _patch(self._wrap, skip)

    def _wrap(self, func, name):
        hook = self.hooks.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields the span record."""
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield span
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def crt_primes(self, matrix) -> int:
        """Primes below 2**26, largest first, that `charpoly_exact` needs to
        pass its coefficient bound 2*(1 + rho)**n."""
        A = np.asarray(matrix, dtype=np.int64)
        bound = 2 * (1 + int(np.abs(A).sum(axis=1).max())) ** A.shape[0]
        count, prod = 0, 1
        while prod <= bound:
            while len(self._primes) <= count:
                cand = (self._primes[-1] if self._primes else 1 << 26) - 1
                while not _is_prime(cand):
                    cand -= 1
                self._primes.append(cand)
            prod *= self._primes[count]
            count += 1
        return count


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def count_field_ops(counter: Counter) -> int:
    """Count gf add/sub/mul/neg calls into `counter` at every binding."""

    def counting(func, name):
        @functools.wraps(func)
        def counted(*args, **kwargs):
            counter[name] += 1
            return func(*args, **kwargs)

        return counted

    wanted = {f"gf.{name}" for name in FIELD_OPS}
    return _patch(counting, lambda name, func: name not in wanted)


# ---------------------------------------------------------------------------
# span arithmetic


def analyse(spans) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass, and per-job layer self times.

    Self time is a span's duration minus its direct children's; spans of
    one job nest, so a job's layer self times sum to its root span."""
    group_of = {name: group for group, names in GROUPS.items() for name in names}
    self_of = {name: key for key, name in SELF_TIMES.items()}
    calls_of = {name: key for key, name in CALLS.items()}
    metrics = dict.fromkeys(
        [*GROUPS, *SELF_TIMES, *CALLS, *(f"{layer}.self_s" for layer in LAYERS),
         "graph.dense_bytes", "graph.matmul_macs", "construct.cells_built", "spectra.crt_primes"], 0)
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    # per span: layers of all ancestors, and layers of ancestors in a timed group
    layers_above: list[frozenset] = []
    grouped_above: list[frozenset] = []
    per_job: dict = {}
    for i, (name, start, end, parent, job, extra) in enumerate(spans):
        layer = name.partition(".")[0]
        if parent >= 0:
            pname = spans[parent][0]
            player = pname.partition(".")[0]
            layers_above.append(layers_above[parent] | {player})
            grouped_above.append(grouped_above[parent] | ({player} if pname in group_of else set()))
        else:
            layers_above.append(frozenset())
            grouped_above.append(frozenset())
            per_job[job] = {"time": end - start, "self": Counter(), "calls": Counter()}
        own = end - start - child[i]
        per_job[job]["self"][layer] += own
        per_job[job]["calls"][name] += 1
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] += own
        if name in group_of and layer not in grouped_above[i]:
            metrics[group_of[name]] += end - start
        if name in self_of:
            metrics[self_of[name]] += own
        if name in calls_of:
            metrics[calls_of[name]] += 1
        if name == "spectra.charpoly_exact":
            metrics["spectra.crt_primes"] += extra
        elif extra is not None and layer not in layers_above[i]:
            if layer == "construct":
                metrics["construct.cells_built"] += extra
            else:  # graph: extra is the vertex count N
                metrics["graph.dense_bytes"] += 8 * extra * extra
                metrics["graph.matmul_macs"] += DENSE_PRODUCTS.get(name, 0) * extra**3
                if name == "graph.quotient_matrix":
                    metrics["graph.matmul_macs"] += extra * extra * math.isqrt(extra)
    return metrics, per_job
