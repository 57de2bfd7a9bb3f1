"""Tests of the benchmark's generators, correctness gate and tracer at tiny
sizes.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import generators as gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import quadlift.solver  # noqa: E402
from quadlift import lift, parse_triangulation  # noqa: E402


def test_pentachoron_has_five_sphere_links():
    tri = parse_triangulation(gen.pentachoron())
    assert (tri.tet_count, len(tri.vertex_classes)) == (5, 5)
    assert [len(link.triangles) for link in tri.links] == [4] * 5
    assert all(link.is_sphere for link in tri.links)


@pytest.mark.parametrize("moves", [0, 1, 2, 7])
def test_stacked_adds_three_tets_and_one_vertex_per_move(moves):
    tri = parse_triangulation(gen.stacked(random.Random(moves), moves))
    assert tri.tet_count == 5 + 3 * moves
    assert len(tri.vertex_classes) == 5 + moves
    assert all(link.is_sphere for link in tri.links)


def test_stacked_is_determined_by_the_seed():
    assert gen.stacked(random.Random(4), 6) == gen.stacked(random.Random(4), 6)
    assert gen.stacked(random.Random(4), 6) != gen.stacked(random.Random(5), 6)


def test_one_four_move_repoints_a_face_glued_to_its_own_tet():
    with open(os.path.join(gen.DATA, "one_tet.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    before = parse_triangulation(doc)
    after = parse_triangulation(gen.one_four_move(doc, 0))
    assert after.tet_count == 4
    assert len(after.vertex_classes) == len(before.vertex_classes) + 1
    assert sorted(link.genus for link in after.links) == sorted(
        [0] + [link.genus for link in before.links])


def test_one_four_move_keeps_the_fig8_cusp():
    doc = gen.fig8_cover(1)
    tri = parse_triangulation(gen.one_four_move(doc, 1))
    assert sorted(link.genus for link in tri.links) == [0, 1]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fig8_cover_has_one_torus_cusp_and_spun_data(n):
    tri = parse_triangulation(gen.fig8_cover(n))
    assert tri.tet_count == 2 * n
    assert [(len(link.triangles), link.genus) for link in tri.links] == [(8 * n, 1)]
    for multiple in (1, 2):
        assert lift(tri, gen.fig8_spun(n, multiple)).classification == "SpunNormal"


@pytest.mark.parametrize("doc", [gen.stacked(random.Random(1), 3),
                                 gen.fig8_cover(6)])
def test_edge_link_vectors_and_their_disjoint_sums_are_normal(doc):
    tri = parse_triangulation(doc)
    vectors = gen.edge_link_vectors(tri)
    assert len(vectors) == len(tri.edge_classes)
    for q in vectors:
        assert lift(tri, q).classification == "Normal"
    total = gen.disjoint_sum(random.Random(0), vectors)
    assert total is not None and lift(tri, total).classification == "Normal"


def test_perturbed_adds_one_quad_in_an_empty_tet():
    tri = parse_triangulation(gen.stacked(random.Random(2), 4))
    q = gen.edge_link_vectors(tri)[0]
    p = gen.perturbed(random.Random(0), q)
    diff = [i for i, (a, b) in enumerate(zip(q, p)) if a != b]
    assert len(diff) == 1 and p[diff[0]] == 1
    assert not any(q[diff[0] // 3 * 3:diff[0] // 3 * 3 + 3])
    assert gen.admissible(p)


def test_gate_passes_answers_and_flags_a_wrong_lift():
    tri = parse_triangulation(gen.stacked(random.Random(3), 3))
    rng = random.Random(0)
    vectors = gen.edge_link_vectors(tri)
    for kind in run.SPHERE_KINDS:
        q, expected = run.make_query(rng, kind, tri, vectors, None)
        outcome = run.lift_outcome(tri, lift(tri, q))
        assert run.check(tri, q, outcome, expected) == []
    q = vectors[0]
    cls, coords, shifts, failures = run.lift_outcome(tri, lift(tri, q))
    link = tri.links[0]
    raised = list(coords)
    for disc in link.triangles:
        raised[disc] += 1
    assert run.check(tri, q, (cls, raised, shifts, failures), "Normal")
    assert run.check(tri, q, ("NotNormal", None, [], []), None)


def test_tracer_reports_a_missing_target_as_absent(monkeypatch):
    monkeypatch.delattr(quadlift.solver, "smith_normal_form")
    tracer = spans.Tracer()
    assert tracer.absent == ["intlinalg.smith_normal_form"]
    metrics = tracer.metrics()
    assert metrics["intlinalg.smith_normal_form.calls"] == (0, "count/round")
    assert metrics["intlinalg.smith_normal_form.max_rows"] == (0, "count")


def test_tracer_attributes_child_time_to_the_parent_span():
    tri = parse_triangulation(gen.stacked(random.Random(5), 2))
    q = gen.edge_link_vectors(tri)[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        root = tracer.open("bench.query")
        quadlift.lift(tri, q)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert quadlift.lift is lift
    metrics = tracer.metrics()
    assert metrics["solver.lift.calls"][0] == 1
    assert metrics["solver.cycle_imbalance.calls"][0] == len(tri.links)
    assert metrics["links.projection.elements"][0] == (
        metrics["links.projection.calls"][0] * tri.arc_count)
    assert 0 <= metrics["solver.lift.self_s"][0] < metrics["solver.lift.s"][0]


def traced_metrics(tri, qs):
    """Per-layer metrics of one ``bench.query`` request per vector in qs."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        for q in qs:
            tracer.enabled = True
            root = tracer.open("bench.query")
            quadlift.lift(tri, q)
            tracer.close(root)
            tracer.enabled = False
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_tracer_reports_per_round_not_per_run():
    tri = parse_triangulation(gen.stacked(random.Random(6), 3))
    q = gen.edge_link_vectors(tri)[0]
    once = traced_metrics(tri, [q])
    thrice = traced_metrics(tri, [q] * 3)
    for name in ("solver.lift.calls", "links.projection.calls",
                 "links.projection.elements", "chains.boundary_matrix.nnz"):
        assert thrice[name] == once[name]
    assert once["chains.boundary_matrix.nnz"][0] == (
        quadlift.chains.boundary_matrix(tri).nnz)


def test_printed_metrics_are_those_of_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    samples = {phase: [0.001 * (k + 1) for k in range(100)]
               for phase in run.MINIMUM}
    assert set(run.latencies(samples)) | {"peak_rss_mb"} == {
        metric["name"] for metric in spec["end_to_end"]}
    assert set(spans.Tracer().metrics()) | {"trace.overhead_pct"} == {
        metric["name"] for metric in spec["per_layer"]}
