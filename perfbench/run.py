"""Seeded benchmark for quadlift: parse, first lift, warm lifts and CLI runs.

Run from the repository root::

    python3 perfbench/run.py --workload many_links --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process, one thread, closed loop: each call is made after the previous
one returns.  A run first warms a small pool of triangulations, untimed, and
then interleaves four phases, each on its own inputs made from ``--seed``,
giving each its share of the timed work until ``--seconds`` have passed:

- setup: parse new triangulation documents (``setup_s``, per document);
- first: lift an edge-link vector on a newly parsed triangulation
  (``first_query_s``, which pays for the lazy caches);
- oneshot: run ``quadlift classify --json`` in-process on a new
  triangulation file and quad file (``oneshot_ms_*``);
- query: lift a vector on a warm pool triangulation (``query_ms_*``,
  ``queries_per_s``).

Interleaving makes every metric sample the same stretch of machine time.
Each timed call is scaled to a reference speed: a fixed piece of Python work
is timed just before and just after it, and the call's time is multiplied by
``REFERENCE_S`` over the mean of the two.  So a call made while the machine
runs slow counts as much as one made while it runs fast.
Every answer goes through a correctness gate outside the timed calls.  The
last line of output is one JSON object with the end-to-end metrics, or with
``--trace 1`` the per-layer metrics from spans around quadlift's functions.
See README.md in this directory for the workloads and the metrics.
"""

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import traceback
from collections import namedtuple
from contextlib import contextmanager
from statistics import median, quantiles
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import quadlift  # noqa: E402
import quadlift.cli  # noqa: E402

import generators as gen  # noqa: E402
from spans import Tracer  # noqa: E402

NORMAL, SPUN_NORMAL, NOT_NORMAL = "Normal", "SpunNormal", "NotNormal"
EXIT_BY_CLASS = {NORMAL: 0, SPUN_NORMAL: 2, NOT_NORMAL: 3}

DEFAULT_SEED = 0
# About the median time of reference() on a 2-vCPU Xeon KVM guest: the speed
# to which every timed call is scaled.
REFERENCE_S = 0.4e-3
OVERHEAD_QUERIES = 50   # stream queries replayed to measure tracing overhead

# Query mixes, dealt in shuffled blocks so every run sees the same proportions.
# The cheaper kinds (perturbed ones end at the cycle test, spun ones skip the
# back substitution, the zero vector has no quad boundary) are 2 in 10, so
# that the median falls well inside the costlier Normal queries rather than
# on the edge between two kinds.
SPHERE_KINDS = ("edge",) * 4 + ("sum",) * 4 + ("perturbed",) + ("zero",)
CUSP_KINDS = ("edge",) * 5 + ("sum",) * 3 + ("spun",) + ("perturbed",)

# Sizes at which every phase of a 30 s run gets at least 100 samples, so that
# each p90 has ten beyond it.
MANY_LINKS_MOVES = 40   # 125 tets, 45 vertices
BIG_CUSP_COVER = 16     # 32 tets, one torus link of 128 triangles
# Size ranges whose oneshot costs overlap (about 30 to 90 ms on a 2-core
# Xeon VM), so that the mixture has no gap at its median.
COLD_MOVES = (12, 30)   # 41 to 95 tets
COLD_COVERS = (9, 13)   # 18 to 26 tets
COLD_STRATA = 8


def many_links_cases(rng):
    while True:
        yield gen.stacked(rng, MANY_LINKS_MOVES), None


def big_cusp_cases(rng):
    while True:
        yield gen.fig8_cover(BIG_CUSP_COVER), BIG_CUSP_COVER


def cold_cli_cases(rng):
    """Rounds of COLD_STRATA stacked triangulations and as many covers, in
    random order, one size drawn from each equal stratum of its range, so
    that every round spans the whole range of sizes."""
    def sizes(lo, hi):
        return [lo + int((hi - lo) * (j + rng.random()) / COLD_STRATA)
                for j in range(COLD_STRATA)]
    while True:
        cases = ([(gen.fig8_cover(n), n) for n in sizes(*COLD_COVERS)]
                 + [(gen.stacked(rng, m), None) for m in sizes(*COLD_MOVES)])
        yield from rng.sample(cases, len(cases))


# cases: generator of (doc, cover) from an rng; pool: number of warm
# triangulations that the stream queries; batch: number of documents that one
# setup sample parses; share: the share of the timed work that each phase
# gets.  A cold_cli batch is one round of its cases: a stacked triangulation
# parses about five times slower than a cover, so the median of single parses
# would fall in the gap between the two and jump from run to run.
Workload = namedtuple("Workload", "cases pool batch share")
WORKLOADS = {
    "many_links": Workload(many_links_cases, 10, 1, {
        "setup": 0.12, "first": 0.33, "oneshot": 0.45, "query": 0.1}),
    "big_cusp": Workload(big_cusp_cases, 1, 1, {
        "setup": 0.04, "first": 0.43, "oneshot": 0.43, "query": 0.1}),
    "cold_cli": Workload(cold_cli_cases, 4 * COLD_STRATA, 2 * COLD_STRATA, {
        "setup": 0.1, "first": 0.2, "oneshot": 0.5, "query": 0.2}),
}

# Samples each phase takes at least: 100 where a p90 is reported, so that it
# has ten beyond it.  The first ones of each phase that gives answers go into
# the digest, so that it does not depend on --seconds.
MINIMUM = {"setup": 20, "first": 100, "oneshot": 100, "query": 100}


def kinds(rng, pattern):
    while True:
        yield from rng.sample(pattern, len(pattern))


def make_query(rng, kind, tri, vectors, cover):
    """A quad vector of the given kind and the class it must get (None when
    any class is acceptable)."""
    if kind == "sum":
        q = gen.disjoint_sum(rng, vectors)
        if q is not None:
            return q, NORMAL
    elif kind == "perturbed":
        q = gen.perturbed(rng, rng.choice(vectors))
        if q is not None:
            return q, None
    elif kind == "zero":
        return [0] * (3 * tri.tet_count), NORMAL
    elif kind == "spun":
        return gen.fig8_spun(cover, rng.randint(1, 3)), SPUN_NORMAL
    return rng.choice(vectors), NORMAL


# ----------------------------------------------------------------------
# correctness gate

def lift_outcome(tri, result):
    """(classification, lift, shifts, cycle failures) of a LiftResult, in
    the shape the CLI prints them."""
    return (result.classification, result.canonical_lift,
            sorted(result.per_vertex_shift.items()),
            [(v, [(tri.cell_name(cell), s) for cell, s in items])
             for v, items in result.cycle_failures])


def cli_outcome(payload):
    coords = payload["coords"]
    return (payload["classification"],
            None if coords is None else [x for row in coords for x in row],
            sorted((int(v), m) for v, m in payload["shifts"].items()),
            [(f["vertex"], [(c["cell"], c["sum"]) for c in f["cells"]])
             for f in payload["cycle_failures"]])


def endpoint_sums(tri, q):
    """Nonzero endpoint sums of the quad chain's boundary in each link,
    recomputed from ``chains.apply_boundary``."""
    chain = [0] * (7 * tri.tet_count)
    for tet in range(tri.tet_count):
        chain[7 * tet + 4:7 * tet + 7] = q[3 * tet:3 * tet + 3]
    boundary = quadlift.chains.apply_boundary(tri, chain)
    out = []
    for link in tri.links:
        sums = {}
        for arc in link.arcs:
            if boundary[arc]:
                tail, head = link.arc_cells[arc]
                sums[head] = sums.get(head, 0) + boundary[arc]
                sums[tail] = sums.get(tail, 0) - boundary[arc]
        bad = [(tri.cell_name(cell), s) for cell, s in sorted(sums.items()) if s]
        if bad:
            out.append((link.vertex, bad))
    return out


def check(tri, q, outcome, expected):
    """Problems with one answer; empty when it passes the gate."""
    cls, coords, _, cycle_failures = outcome
    problems = []
    if expected is not None and cls != expected:
        problems.append("expected %s, got %s" % (expected, cls))
    sums = endpoint_sums(tri, q)
    if cls == NOT_NORMAL:
        if not sums or cycle_failures != sums:
            problems.append("cycle failures %r, recomputed %r"
                            % (cycle_failures, sums))
    elif sums:
        problems.append("%s, but the boundary is no cycle: %r" % (cls, sums))
    if cls == NORMAL:
        if not quadlift.verify_normal(tri, coords).ok:
            problems.append("lift fails verify_normal")
        if [coords[7 * t + 4 + k] for t in range(tri.tet_count)
                for k in range(3)] != list(q):
            problems.append("lift changes the quad part")
        if any(min(coords[d] for d in link.triangles) for link in tri.links):
            problems.append("a link has no zero triangle")
    elif cls == SPUN_NORMAL and all(link.is_sphere for link in tri.links):
        problems.append("SpunNormal with only sphere links")
    return problems


# ----------------------------------------------------------------------
# measurement

class Bench:
    """One workload run: its inputs, samples, counters and answer digests.

    Each phase draws its inputs from its own rng, so the inputs depend on the
    seed alone even though the phases interleave by elapsed time.
    """

    def __init__(self, workload, seed, tracer):
        self.spec = WORKLOADS[workload]
        self.tracer = tracer
        phases = ("pool",) + tuple(MINIMUM)
        self.rngs = {phase: random.Random("%s:%d:%s" % (workload, seed, phase))
                     for phase in phases}
        self.cases = {phase: self.spec.cases(rng)
                      for phase, rng in self.rngs.items()}
        # query kinds per phase, keyed by whether the triangulation is a cover
        self.kinds = {phase: {False: kinds(self.rngs[phase], SPHERE_KINDS),
                              True: kinds(self.rngs[phase], CUSP_KINDS)}
                      for phase in ("oneshot", "query")}
        self.samples = {phase: [] for phase in MINIMUM}   # scaled seconds
        self.wall = {phase: [] for phase in MINIMUM}      # unscaled seconds
        self.spent = dict.fromkeys(MINIMUM, 0.0)
        self.digests = {phase: hashlib.sha256()
                        for phase in ("first", "oneshot", "query")}
        self.attempted = 0
        self.failed = 0
        self.pool = []      # (tri, edge-link vectors, cover), caches warm
        self.replay = []    # (tri, q) of the first stream queries
        self.scratch = None

    def run(self, seconds):
        """Warm the pool untimed, then give each phase its share of the timed
        work, one call at a time, until ``seconds`` have passed and every
        phase has its minimum."""
        for _ in range(self.spec.pool):
            doc, cover = next(self.cases["pool"])
            tri = quadlift.parse_triangulation(doc)
            vectors = gen.edge_link_vectors(tri)
            quadlift.lift(tri, vectors[0])
            self.pool.append((tri, vectors, cover))
        steps = {"setup": self.setup, "first": self.first,
                 "oneshot": self.oneshot, "query": self.query}
        share = self.spec.share
        self.scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
        os.makedirs(self.scratch, exist_ok=True)
        deadline = perf_counter() + seconds
        try:
            while True:
                short = [p for p in steps
                         if len(self.samples[p]) < MINIMUM[p]]
                if perf_counter() < deadline:
                    candidates = steps
                elif short:
                    candidates = short
                else:
                    break
                phase = min(candidates,
                            key=lambda p: self.spent[p] / share[p])
                steps[phase]()
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)

    @contextmanager
    def timed(self, phase, calls=1):
        """Time the body, divided by the number of ``calls`` it makes, into
        ``wall[phase]``, and into ``samples[phase]`` scaled to the reference
        speed of the moment; when tracing, record it as a root span named
        ``bench.<phase>``."""
        before = reference()
        if self.tracer is not None:
            self.tracer.enabled = True
            index = self.tracer.open("bench." + phase)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            if self.tracer is not None:
                self.tracer.close(index)
                self.tracer.enabled = False
            after = reference()
            self.wall[phase].append(elapsed / calls)
            self.samples[phase].append(
                elapsed / calls * 2 * REFERENCE_S / (before + after))
            self.spent[phase] += elapsed

    def setup(self):
        """Parse a batch of new triangulation documents."""
        texts = [json.dumps(next(self.cases["setup"])[0])
                 for _ in range(self.spec.batch)]
        with self.timed("setup", len(texts)):
            for text in texts:
                quadlift.parse_triangulation(text)

    def first(self):
        """Lift an edge-link vector on a newly parsed triangulation: the first
        lift pays for every lazy cache."""
        tri = quadlift.parse_triangulation(next(self.cases["first"])[0])
        q = self.rngs["first"].choice(gen.edge_link_vectors(tri))
        with self.timed("first"):
            result = call(quadlift.lift, tri, q)
        self.record("first", tri, q, result and lift_outcome(tri, result),
                    NORMAL)

    def oneshot(self):
        """Run ``quadlift classify --json`` on a new triangulation file."""
        rng = self.rngs["oneshot"]
        doc, cover = next(self.cases["oneshot"])
        tri = quadlift.parse_triangulation(doc)
        q, expected = make_query(rng, next(self.kinds["oneshot"][cover is not None]),
                                 tri, gen.edge_link_vectors(tri), cover)
        tri_path = os.path.join(self.scratch, "tri.json")
        quads_path = os.path.join(self.scratch, "quads.json")
        with open(tri_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with open(quads_path, "w", encoding="utf-8") as handle:
            json.dump({"quads": [q[i:i + 3] for i in range(0, len(q), 3)]},
                      handle)
        out, err = io.StringIO(), io.StringIO()
        with self.timed("oneshot"):
            code = call(quadlift.cli.run, ["classify", "--json", "--tri",
                                           tri_path, "--quads", quads_path],
                        out=out, err=err)
        outcome = None
        if code is not None:
            outcome = cli_outcome(json.loads(out.getvalue()))
            if EXIT_BY_CLASS[outcome[0]] != code:
                print("FAILED: exit code %d for %s" % (code, outcome[0]),
                      file=sys.stderr)
                outcome = None
        self.record("oneshot", tri, q, outcome, expected)

    def query(self):
        """One warm ``lift`` on a pool triangulation."""
        n = len(self.samples["query"])
        tri, vectors, cover = self.pool[n % len(self.pool)]
        q, expected = make_query(self.rngs["query"],
                                 next(self.kinds["query"][cover is not None]),
                                 tri, vectors, cover)
        with self.timed("query"):
            result = call(quadlift.lift, tri, q)
        self.record("query", tri, q, result and lift_outcome(tri, result),
                    expected)
        if n < OVERHEAD_QUERIES:
            self.replay.append((tri, q))

    def record(self, phase, tri, q, outcome, expected):
        """Gate one answer (outcome None when the call raised) and add the
        first answers of each phase to its digest."""
        self.attempted += 1
        problems = (["raised"] if outcome is None
                    else check(tri, q, outcome, expected))
        if problems:
            self.failed += 1
            print("FAILED %s: %s" % (phase, "; ".join(problems)),
                  file=sys.stderr)
        if len(self.samples[phase]) <= MINIMUM[phase]:
            self.digests[phase].update(
                json.dumps(outcome[:3] if outcome else None).encode() + b"\n")

    def digest(self):
        """SHA-256 over (classification, canonical lift, shifts) of the first
        answers of each phase; the same for every --seconds."""
        return hashlib.sha256("".join(
            d.hexdigest() for d in self.digests.values()).encode()).hexdigest()


def reference():
    """Seconds that a fixed piece of pure-Python work takes: a loop of list
    indexing and small-integer arithmetic, and a dense integer matrix-vector
    product written the way quadlift writes it.  It calls nothing in
    quadlift, so a change to quadlift leaves its time alone: the time says how
    fast the machine runs Python at that moment."""
    cells = _CELLS
    start = perf_counter()
    total = 0
    for i in range(1000):
        total += cells[i & 63] * (i % 7)
        cells[(i * 5) & 63] = total & 255
    [sum(a * x for a, x in zip(row, _VECTOR)) for row in _MATRIX]
    return perf_counter() - start


# Inputs of reference(), made once from a fixed seed so that every call does
# the same work.
_CELLS = list(range(64))
_rng = random.Random(0)
_MATRIX = [[_rng.randint(-40000, 40000) for _ in range(48)] for _ in range(40)]
_VECTOR = [_rng.randint(-9, 9) for _ in range(48)]
del _rng


def call(fn, *args, **kwargs):
    """Call into quadlift; report and swallow an exception so that the run
    goes on and counts it as a failed query."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # noqa: BLE001 - counted in error_rate
        traceback.print_exc()
        return None


def percentile(samples, p):
    """The p-th percentile, interpolated between order statistics."""
    return quantiles(samples, n=100, method="inclusive")[p - 1]


def latencies(s):
    """The timed metrics of samples ``s``, {phase: [seconds]}."""
    return {
        "setup_s": (median(s["setup"]), "s"),
        "first_query_s": (median(s["first"]), "s"),
        "query_ms_p50": (1000 * median(s["query"]), "ms"),
        "query_ms_p90": (1000 * percentile(s["query"], 90), "ms"),
        "queries_per_s": (len(s["query"]) / sum(s["query"]), "1/s"),
        "oneshot_ms_p50": (1000 * median(s["oneshot"]), "ms"),
        "oneshot_ms_p90": (1000 * percentile(s["oneshot"], 90), "ms"),
    }


def tracing_overhead(tracer, replay):
    """Seconds spent on the replayed queries untraced and traced."""
    plain = traced = 0.0
    for tri, q in replay:
        tracer.uninstall()
        start = perf_counter()
        quadlift.lift(tri, q)
        plain += perf_counter() - start
        tracer.install()
        tracer.enabled = True
        index = tracer.open("bench.replay")
        start = perf_counter()
        quadlift.lift(tri, q)
        traced += perf_counter() - start
        tracer.close(index)
        tracer.enabled = False
    return plain, traced


def stored_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def run_one(args):
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    bench = Bench(args.workload, args.seed, tracer)
    bench.run(args.seconds)

    digest = bench.digest()
    expected = stored_digest(args.workload, args.seed)
    print("digest %s (%s)" % (
        digest, "no stored digest for this seed" if expected is None
        else "matches" if digest == expected else "MISMATCH"))
    if expected is not None and digest != expected:
        bench.failed += sum(MINIMUM[phase] for phase in bench.digests)
    for name, samples in bench.samples.items():
        print("samples %s %d" % (name, len(samples)))
    # Printed, but not among the metrics of BENCHMARK.json: error_rate is 0
    # when the code is correct, and the unscaled times move with the speed
    # of the machine.
    print("error_rate %.6f ratio (%d of %d)"
          % (bench.failed / bench.attempted, bench.failed, bench.attempted))
    for name, (value, unit) in latencies(bench.wall).items():
        print("unscaled %-31s %14.6f %s" % (name, value, unit))

    if tracer is None:
        metrics = latencies(bench.samples)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    else:
        metrics = tracer.metrics()
        print("absent spans: %s" % (", ".join(tracer.absent) or "none"))
        requests = tracer.requests()
        print("per request of each phase (requests: %s)" % ", ".join(
            "%s %d" % item for item in sorted(requests.items())))
        print("%-14s %-30s %10s %10s %10s" % ("phase", "layer", "calls", "s",
                                               "self_s"))
        for (phase, name), row in sorted(tracer.layer_table().items()):
            calls, total, own = (x / requests[phase] for x in row)
            print("%-14s %-30s %10.2f %10.6f %10.6f" % (phase, name, calls,
                                                         total, own))
        plain, traced = tracing_overhead(tracer, bench.replay)
        print("tracing overhead: %.4f s traced - %.4f s untraced over %d "
              "queries = %+.2f%%" % (traced, plain, len(bench.replay),
                                     100 * (traced - plain) / plain))
        metrics["trace.overhead_pct"] = (100 * (traced - plain) / plain, "%")
        tracer.uninstall()
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "trace-%s-%d.json"
                                 % (args.workload, args.seed)))

    for name, (value, unit) in metrics.items():
        print("%-40s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if bench.failed == 0 else 1


def run_all(args):
    """Each workload in a fresh process, so peak_rss_mb is its own."""
    status = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
