"""Property tests of parsing on corrupted and hostile documents.

``Triangulation`` must either accept a document or raise
``TriangulationError``, and every document it accepts must have the three
properties that construction proves instead of checking (see
``Triangulation._compute_edge_classes`` and ``links.build_all_links``): no
edge class meets itself reversed, every link has even Euler characteristic,
and every link's dual tree spans it; and its edge walk must give the edge
classes and directions of the union-find it replaced.  The oracle computes
the first two from the raw document, and the vertex classes by orbit
closure of its corner gluings, which the package never reads: the link pass
decides them.
"""

import copy
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quadlift import Triangulation, TriangulationError
from quadlift.triangulation import FACE_CORNERS

import generators as gen
from conftest import load_doc
from oracles import (dual_tree, link_invariants, suspended_surface,
                     union_find_edge_classes)

BASES = tuple(
    [load_doc(name + ".json") for name in ("double_tet", "fig8", "three_tet",
                                            "one_tet", "pentachoron")]
    + [gen.stacked(random.Random(seed), moves)
       for seed, moves in ((0, 0), (1, 1), (2, 3))]
    + [gen.fig8_cover(n) for n in (1, 2)] + [suspended_surface(2)])

LONG_NUMBER = "7" * 5000   # past the interpreter's int-to-str digit limit

# JSON text that once ended in a RecursionError, a ValueError of the digit
# limit or a UnicodeDecodeError, as text and (for the last) as bytes.
HOSTILE = (
    "[" * 200000 + "]" * 200000,
    '{"tets": %s, "gluings": []}' % LONG_NUMBER,
    '{"tets": 1, "gluings": [[{"tet": 0, "face": 1, "corners": [%s, 2, 3]}]]}'
    % LONG_NUMBER,
    b'{"tets": 1, "gluings": [\xff]}'.decode("utf-8", "surrogateescape"),
    b'{"tets": 1, "gluings": [\xff]}',
)

VALUES = st.one_of(
    st.integers(-2, 6), st.booleans(), st.none(), st.just(10 ** 40),
    st.floats(-2, 6), st.text(max_size=3),
    st.lists(st.integers(-1, 4), max_size=4),
    st.dictionaries(st.sampled_from(("tet", "face", "corners")),
                    st.integers(-1, 4), max_size=3))

PERMS = tuple(itertools.permutations(range(4)))


def _paths(value, path=()):
    """Every (container path, key) in a JSON value, the root as ((), None)."""
    out = [(path, None)] if not path else []
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        out.append((path, key))
        out.extend(_paths(child, path + (key,)))
    return out


def _glue(gluings, i, f, j, g, sigma):
    """Glue face f of tet i to face g of tet j by ``sigma`` (both sides)."""
    gluings[i][f] = {"tet": j, "face": g,
                     "corners": [sigma[v] for v in FACE_CORNERS[f]]}
    gluings[j][g] = {"tet": i, "face": f,
                     "corners": [sigma.index(v) for v in FACE_CORNERS[g]]}


@st.composite
def replaced_entry(draw):
    """A base document with one value, at any depth, replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    path, key = draw(st.sampled_from(_paths(doc)))
    value = draw(VALUES)
    if key is None:
        return value
    container = doc
    for step in path:
        container = container[step]
    container[key] = value
    return doc


@st.composite
def reglued_face(draw):
    """A base document with one face pair glued by another permutation."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    i = draw(st.integers(0, doc["tets"] - 1))
    f = draw(st.integers(0, 3))
    entry = doc["gluings"][i][f]
    j, g = entry["tet"], entry["face"]
    sigma = draw(st.sampled_from([p for p in PERMS if p[f] == g]))
    _glue(doc["gluings"], i, f, j, g, sigma)
    return doc


@st.composite
def small_gluing(draw):
    """Any closed gluing of one or two tetrahedra."""
    t = draw(st.integers(1, 2))
    faces = list(itertools.product(range(t), range(4)))
    order = draw(st.permutations(faces))
    gluings = [[None] * 4 for _ in range(t)]
    for (i, f), (j, g) in zip(order[::2], order[1::2]):
        sigma = draw(st.sampled_from([p for p in PERMS if p[f] == g]))
        _glue(gluings, i, f, j, g, sigma)
    return {"tets": t, "gluings": gluings}


def assert_vertex_classes(tri, classes):
    """The vertex classes are ``classes``, the orbit closure of the raw
    corner gluings, numbered by first slot, with their links' triangles."""
    assert {frozenset(vc.members) for vc in tri.vertex_classes} == classes
    assert len(tri.vertex_classes) == len(classes)
    firsts = [vc.slots[0] for vc in tri.vertex_classes]
    assert firsts == sorted(set(firsts))
    at = [None] * (4 * tri.tet_count)
    for c, (vc, link) in enumerate(zip(tri.vertex_classes, tri.links)):
        assert vc.index == link.vertex == c
        assert list(vc.slots) == sorted(vc.slots)
        for x in vc.slots:
            at[x] = c
        assert link.triangles == tuple(7 * i + v for i, v in vc.members)
    assert tuple(at) == tri.vertex_class_at


def assert_proved_invariants(doc, tri):
    reversed_edges, chis = link_invariants(doc)
    assert reversed_edges == []
    classes, directions, _ = union_find_edge_classes(tri)
    assert (tri.edge_class_at, tri.edge_direction_at) == (classes, directions)
    assert_vertex_classes(tri, set(chis))
    for vc, link in zip(tri.vertex_classes, tri.links):
        assert chis[frozenset(vc.members)] == link.euler_characteristic
        assert link.euler_characteristic % 2 == 0
        assert link.tree == dual_tree(link, len(link.triangles) - 1,
                                      tri.arc_discs)
        steps, closing = link.tree
        assert len(steps) == len(link.triangles) - 1
        assert {nb for _, _, nb, _ in steps} | {link.triangles[-1]} == set(
            link.triangles)
        # every arc with a side on the link's triangles is one step or one
        # closing entry: ``link.arcs`` and the Euler characteristic count them
        triangles = set(link.triangles)
        assert sorted(arc for arc, *_ in steps + closing) == [
            arc for arc, (_, d, _, _, _) in enumerate(tri.arc_discs)
            if d in triangles] == list(link.arcs)
        for arc, d, nb, _ in steps:
            _, tri_a, tri_b, _, _ = tri.arc_discs[arc]
            assert {tri_a, tri_b} == {d, nb}


def check(doc):
    try:
        tri = Triangulation(doc)
    except TriangulationError:
        return
    if isinstance(doc, str):
        doc = json.loads(doc)
    assert_proved_invariants(doc, tri)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(replaced_entry(), st.sampled_from(HOSTILE)))
def test_corrupted_documents_are_accepted_or_rejected(doc):
    check(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.one_of(reglued_face(), small_gluing()))
def test_accepted_gluings_have_the_proved_invariants(doc):
    check(doc)


def test_hostile_documents_raise_triangulation_error():
    for doc in HOSTILE:
        try:
            Triangulation(doc)
        except TriangulationError as exc:
            assert "\n" not in str(exc)
        else:
            raise AssertionError("accepted %.40r" % (doc,))
