"""In-memory spans around the calls into quadlift's layers.

The tracer replaces module attributes that callers look up at call time (for
example ``quadlift.solver.cycle_imbalance``) with wrappers that record a span:
name, start, end, parent span and request.  The request is the benchmark's
own root span (one per parse, query or CLI run), so the spans of one request
share it.  Nothing in ``src/`` changes.  A target that no longer exists is
skipped, and its span is reported as absent with zero calls.
"""

import importlib
import json
from collections import Counter
from statistics import median
from time import perf_counter

# (module, attribute, span name).  Several targets may share one span name:
# the benchmark calls ``quadlift.lift`` while the CLI calls ``solver.lift``.
TARGETS = (
    ("quadlift", "parse_triangulation", "triangulation.parse"),
    ("quadlift.cli", "Triangulation", "triangulation.parse"),
    ("quadlift.links", "build_all_links", "links.build_all_links"),
    ("quadlift.links", "projection", "links.projection"),
    ("quadlift.chains", "boundary_matrix", "chains.boundary_matrix"),
    ("quadlift.chains", "apply_boundary", "chains.apply_boundary"),
    ("quadlift", "lift", "solver.lift"),
    ("quadlift.solver", "lift", "solver.lift"),
    ("quadlift.solver", "cycle_imbalance", "solver.cycle_imbalance"),
    ("quadlift.solver", "boundary_test", "solver.boundary_test"),
    ("quadlift.solver", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("quadlift.solver", "solve_with_smith", "intlinalg.solve_with_smith"),
    ("quadlift.cli", "run", "cli.run"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Sizes read from a call's arguments or result:
# metric -> (span name, value of one call, kind).  A "sum" size adds up over
# a request's calls and is reported per round, like the call counts.  A "max"
# size keeps the largest call of each request, and a "first" size the first
# call (for values that every call of a request shares); both report the
# median over the requests that made the call.
SIZES = {
    "links.count": ("links.build_all_links",
                    lambda args, result: len(result), "max"),
    "links.triangles_max": ("links.build_all_links",
                            lambda args, result: max(len(link.triangles)
                                                     for link in result),
                            "max"),
    "links.projection.elements": ("links.projection",
                                  lambda args, result: len(args[1]), "sum"),
    "intlinalg.smith_normal_form.max_rows": ("intlinalg.smith_normal_form",
                                             lambda args, result: args[0].nrows,
                                             "max"),
    "chains.boundary_matrix.nnz": ("chains.boundary_matrix",
                                   lambda args, result: result.nnz, "first"),
}


class Tracer:
    """Records spans while ``enabled``; ``install`` and ``uninstall`` swap the
    wrappers in and out of the modules."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, request]
        self.enabled = False
        self._stack = []
        self._sizes = {metric: {} for metric in SIZES}   # request -> value
        self._swaps = []         # (module, attribute, original, wrapper)
        present = set()
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self._swaps.append((module, attr, original,
                                    self._wrap(original, name)))
                present.add(name)
        self.absent = [name for name in LAYERS if name not in present]

    def install(self):
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)

    def _wrap(self, original, name):
        sizes = [(self._sizes[metric], value, kind)
                 for metric, (span, value, kind) in SIZES.items()
                 if span == name]

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            request = self.spans[index][4]
            for seen, value, kind in sizes:
                if kind == "sum":
                    seen[request] = seen.get(request, 0) + value(args, result)
                elif kind == "max":
                    seen[request] = max(seen.get(request, 0),
                                        value(args, result))
                elif request not in seen:
                    seen[request] = value(args, result)
            return result

        return traced

    def open(self, name):
        """Open a span under the innermost open span; returns its index."""
        parent = self._stack[-1] if self._stack else None
        request = self.spans[parent][4] if parent is not None else len(self.spans)
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, request])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def requests(self):
        """{root span name: number of requests}, one root span per request."""
        return Counter(name for name, _, _, parent, _ in self.spans
                       if parent is None)

    def layer_table(self):
        """{(root span name, layer): [calls, total s, self s]}, summed over
        the requests of that root.  Self time is a span's duration minus the
        durations of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        table = {}
        for k, (name, start, end, parent, request) in enumerate(self.spans):
            if parent is None:
                continue
            row = table.setdefault((self.spans[request][0], name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[k]
        return table

    def metrics(self):
        """The per-layer metrics of the run as {name: (value, unit)}.

        Counts and times are per round: each root's total divided by its
        number of requests, summed over the roots.  So a round is one request
        of each kind, and its cost does not depend on how many requests of
        each kind fit into the run.
        """
        requests = self.requests()
        totals = {name: [0.0, 0.0, 0.0] for name in LAYERS}
        for (root, name), row in self.layer_table().items():
            for k in range(3):
                totals[name][k] += row[k] / requests[root]
        out = {}
        for name, (calls, total, own) in totals.items():
            out[name + ".calls"] = (calls, "count/round")
            out[name + ".s"] = (total, "s/round")
            out[name + ".self_s"] = (own, "s/round")
        for metric, (_, _, kind) in SIZES.items():
            seen = self._sizes[metric]
            if kind == "sum":
                value = sum(v / requests[self.spans[request][0]]
                            for request, v in seen.items())
                out[metric] = (value, "count/round")
            else:
                out[metric] = (median(seen.values()) if seen else 0, "count")
        tests = totals["solver.boundary_test"][0]
        smiths = totals["intlinalg.smith_normal_form"][0]
        out["intlinalg.link_cache_hit_ratio"] = (
            1 - smiths / tests if tests else 0.0, "ratio")
        return out

    def dump(self, path):
        """Write every span as JSON: [name, start, end, parent, request]."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": self.absent, "spans": self.spans}, handle)
