"""In-memory spans around calls into the program's layers, and the
per-layer metrics derived from them.

`Tracer.install` replaces each listed public function of each layer module
by a wrapper, in every ``sepkit`` module that holds a reference to it, so
calls between layers are recorded too.  A span stores its parent, its busy
time and the busy time of its children; its self time is the difference.
A generator (``enumerate_standard_trees``) is busy only while it runs
between two yields.  Nothing is written until `dump`.

Only module-level functions are wrapped: `Poly` arithmetic and other
methods count toward the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from statistics import median

LAYERS = ("graphs", "counting", "polynomial", "formulas", "grobner", "triangulation", "roots", "recursion", "cli")

# the public functions of each layer that get a span; names a later version
# of the program no longer has are skipped
WRAP = {
    "graphs": ["enumerate_facet_labelings", "classify_labeling", "vertex_set"],
    "counting": ["count_lattice_points", "dilation_counts", "ehrhart_interpolate", "hstar_oracle"],
    "polynomial": ["hstar_from_ehrhart", "ehrhart_from_hstar", "gamma_vector", "cross_coefficients",
                   "is_symmetric_about_cl"],
    "formulas": ["closed_form_hstar", "hstar_bipartite", "hstar_1mn", "hstar_111n", "hstar_22n",
                 "hstar_tripartite", "hstar_type_i", "hstar_type_ii", "ehrhart_bipartite", "ehrhart_1mn",
                 "ehrhart_111n", "ehrhart_22n"],
    "grobner": ["build_basis", "reducedness_check", "leading_term_consistency", "toric_membership_check",
                "max_degree", "buchberger_verify", "k222_order_scan", "basis_to_text", "basis_matches_ground_truth"],
    "triangulation": ["enumerate_standard_trees", "inedge", "hstar_triangulation", "facet_of_tree",
                      "hstar_split_by_facet_type"],
    "roots": ["cl_transform", "sturm_chain", "sturm_chain_primitive", "sturm_count", "isolate_real_roots",
              "refine_pairwise_disjoint", "squarefree_decomposition", "is_cl", "interlaces_on_cl"],
    "recursion": ["solve_recursion", "solve_recursion_cross", "nonnegative_solution", "reproduce_known_relations",
                  "corollary_scan", "conjecture_scan", "cross_degree_of_signature"],
    "cli": ["main", "cmd_hstar", "cmd_roots", "cmd_interlace", "cmd_recursion", "cmd_gb", "cmd_scan"],
}

GROBNER_VERIFY = {"reducedness_check", "leading_term_consistency", "toric_membership_check", "max_degree",
                  "buchberger_verify", "k222_order_scan", "basis_matches_ground_truth"}
CLI_COMMANDS = ("hstar", "roots", "interlace", "gb", "recursion", "scan")

# span fields
ID, PARENT, NAME, START, END, BUSY, CHILD, ATTRS, RESUMED = range(9)


def _chain_bits(chain) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for p in chain for c in p.coeffs),
               default=0)


def _attrs(name: str, args, result):
    """Counts recorded at the layer boundary, or None."""
    if name == "counting.count_lattice_points":
        sig, k = args[0], args[1]
        return {"guard": k == sig.dim + 1, "points": result.count}
    if name == "graphs.enumerate_facet_labelings":
        return {"facets": len(result)}
    if name == "grobner.build_basis":
        return {"size": len(result)}
    if name in ("roots.sturm_chain", "roots.sturm_chain_primitive"):
        return {"len": len(result), "bits": _chain_bits(result)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []

    # -- span bookkeeping -------------------------------------------------
    def new(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else -1
        now = time.perf_counter_ns()
        span = [len(self.spans), parent, name, now, now, 0, 0, None, now]
        self.spans.append(span)
        return span

    def resume(self, span: list) -> None:
        span[RESUMED] = time.perf_counter_ns()
        self.stack.append(span)

    def pause(self, span: list) -> None:
        now = time.perf_counter_ns()
        elapsed = now - span[RESUMED]
        span[BUSY] += elapsed
        span[END] = now
        self.stack.pop()
        if self.stack:
            self.stack[-1][CHILD] += elapsed

    def open(self, name: str) -> list:
        span = self.new(name)
        self.resume(span)
        return span

    def adopt(self, child_spans: list[list], parent: list) -> None:
        """Append spans recorded by a child process under `parent`."""
        offset = len(self.spans)
        for s in child_spans:
            s = list(s)
            s[ID] += offset
            s[PARENT] = parent[ID] if s[PARENT] == -1 else s[PARENT] + offset
            if s[PARENT] == parent[ID]:
                parent[CHILD] += s[BUSY]
            self.spans.append(s)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name: str):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                span = tracer.new(name)
                gen = fn(*args, **kwargs)
                count = 0
                while True:
                    tracer.resume(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        tracer.pause(span)
                    count += 1
                    span[ATTRS] = {"items": count}
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pause(span)
            attrs = _attrs(name, args, result)
            if attrs:
                span[ATTRS] = attrs
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sepkit.{layer}") for layer in LAYERS}
        loaded = [m for n, m in list(sys.modules.items()) if (n == "sepkit" or n.startswith("sepkit.")) and m]
        for layer, names in WRAP.items():
            for fname in names:
                fn = getattr(modules[layer], fname, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{fname}")
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def calibrate(rounds: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""
    def noop(x):
        return x

    wrapped = Tracer()._wrap(noop, "calibrate.noop")
    best = [float("inf"), float("inf")]
    for _ in range(3):
        for i, f in enumerate((noop, wrapped)):
            t0 = time.perf_counter()
            for x in range(rounds):
                f(x)
            best[i] = min(best[i], time.perf_counter() - t0)
    return max(0.0, (best[1] - best[0]) / rounds)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[list], cli_counts: dict, walls: list[float], raw_walls: list[float],
                  span_cost: float) -> dict:
    """Every per-layer metric, in seconds and counts, from the spans of a
    traced run.  Job spans are named ``job.<kind>`` (harness) or
    ``cli.<subcommand>`` (one CLI process each); `walls` are the traced
    cycle times at reference speed, `raw_walls` as measured."""
    by_id = {s[ID]: s for s in spans}
    s_ = 1e-9

    def named(name: str):
        return [s for s in spans if s[NAME] == name]

    def outer(names: set[str]) -> list[list]:
        """Spans in `names` with no ancestor in `names`."""
        out = []
        for s in spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p != -1 and by_id[p][NAME] not in names:
                p = by_id[p][PARENT]
            if p == -1:
                out.append(s)
        return out

    def busy(items) -> float:
        return sum(s[BUSY] for s in items) * s_

    def attr_sum(items, key: str) -> int:
        return sum((s[ATTRS] or {}).get(key, 0) for s in items)

    def attr_max(items, key: str) -> int:
        return max([(s[ATTRS] or {}).get(key, 0) for s in items], default=0)

    m: dict[str, tuple[float, str]] = {}
    counts = named("counting.count_lattice_points")
    count_s = busy(counts)
    points = attr_sum(counts, "points")
    m["counting.count_s"] = (count_s, "s")
    m["counting.guard_s"] = (busy(s for s in counts if (s[ATTRS] or {}).get("guard")), "s")
    m["counting.count_calls"] = (len(counts), "count")
    m["counting.points"] = (points, "count")
    m["counting.points_per_s"] = (points / count_s if count_s else 0.0, "1/s")
    m["counting.interp_s"] = (sum(s[BUSY] - s[CHILD] for s in named("counting.ehrhart_interpolate")) * s_, "s")

    facets = named("graphs.enumerate_facet_labelings")
    m["graphs.facets_s"] = (busy(outer({"graphs.enumerate_facet_labelings"})), "s")
    m["graphs.facets"] = (attr_sum(facets, "facets"), "count")

    bases = named("grobner.build_basis")
    m["grobner.build_basis_s"] = (busy(outer({"grobner.build_basis"})), "s")
    m["grobner.build_basis_calls"] = (len(bases), "count")
    m["grobner.basis_size"] = (attr_max(bases, "size"), "count")
    m["grobner.verify_s"] = (busy(outer({f"grobner.{n}" for n in GROBNER_VERIFY})), "s")

    trees = named("triangulation.enumerate_standard_trees")
    enum_s = busy(trees)
    n_trees = attr_sum(trees, "items")
    m["triangulation.enumerate_s"] = (enum_s, "s")
    m["triangulation.trees"] = (n_trees, "count")
    m["triangulation.trees_per_s"] = (n_trees / enum_s if enum_s else 0.0, "1/s")
    m["triangulation.inedge_s"] = (busy(named("triangulation.inedge")), "s")
    m["triangulation.facet_split_s"] = (busy(outer({"triangulation.hstar_split_by_facet_type"})), "s")

    chains = named("roots.sturm_chain") + named("roots.sturm_chain_primitive")
    m["roots.transform_s"] = (busy(outer({"roots.cl_transform"})), "s")
    m["roots.sturm_count_s"] = (busy(outer({"roots.sturm_count"})), "s")
    m["roots.sturm_count_calls"] = (len(named("roots.sturm_count")), "count")
    m["roots.isolate_s"] = (busy(outer({"roots.isolate_real_roots"})), "s")
    m["roots.interlace_s"] = (busy(outer({"roots.interlaces_on_cl"})), "s")
    m["roots.chain_len"] = (attr_max(chains, "len"), "count")
    m["roots.chain_max_bits"] = (attr_max(chains, "bits"), "bits")

    m["formulas.closed_form_s"] = (busy(outer({f"formulas.{n}" for n in WRAP["formulas"]})), "s")
    m["polynomial.hstar_from_ehrhart_s"] = (busy(outer({"polynomial.hstar_from_ehrhart"})), "s")
    m["polynomial.gamma_s"] = (busy(outer({"polynomial.gamma_vector"})), "s")
    solves = {"recursion.solve_recursion", "recursion.solve_recursion_cross"}
    m["recursion.solve_s"] = (busy(outer(solves)), "s")
    m["recursion.solve_calls"] = (sum(len(named(n)) for n in solves), "count")

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = (busy(named(f"cli.{cmd}")), "s")
    m["cli.output_changed"] = (cli_counts["output_changed"], "count")
    m["cli.hstar_methods_reported"] = (cli_counts["methods_reported"], "count")
    m["cli.hstar_methods_requested"] = (cli_counts["methods_requested"], "count")

    # self time per layer, and its share of the traced time
    # ("job.*" and "setup.*" spans are the harness's own)
    self_s = {layer: 0 for layer in LAYERS + ("harness",)}
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        self_s[layer if layer in self_s else "harness"] += s[BUSY] - s[CHILD]
    jobs_ns = sum(s[BUSY] for s in spans if s[PARENT] == -1)
    for layer, ns in self_s.items():
        m[f"{layer}.self_s"] = (ns * s_, "s")
        m[f"{layer}.share_pct"] = (100.0 * ns / jobs_ns if jobs_ns else 0.0, "%")

    m["trace.wall_s"] = (median(walls), "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_pct"] = (100.0 * len(spans) * span_cost / sum(raw_walls), "%")
    return m
