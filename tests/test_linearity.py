"""Parse and lift do linear work, counted in Python opcodes.

Wall-clock time on a shared machine does not show a slope: run order, heap
size and the processor's speed move it.  The number of opcodes that the
interpreter executes in frames of the quadlift package repeats exactly, so
this counts them (``sys.settrace`` with ``frame.f_trace_opcodes``) for a
parse and for a lift of stacked spheres, fig8 covers and suspended
surfaces, each at three doubling sizes, and asserts that the opcodes per
tetrahedron of each family stay within ``BAND`` (at most 5% was measured
on Python 3.11).  It compares ratios, not counts, which differ between
Python versions.  It also asserts that a first lift on a new parse runs the
opcodes of a second one, Normal or NotNormal, so that a lift builds nothing
on first use.

Two limits.  Work done in C is not counted: ``json.loads``, ``list.sort``,
``min``, the ``itemgetter`` gathers; the sorts of ``links.build_all_links``
are O(n log n) in C.  And opcodes are not time: the count checks linearity
and gives a profile that does not depend on the machine, never a speed-up.
"""

import os
import random
import sys

import pytest

import quadlift
from quadlift import NORMAL, NOT_NORMAL, lift, parse_triangulation

import generators as gen
from oracles import suspended_surface

PACKAGE = os.path.dirname(os.path.abspath(quadlift.__file__)) + os.sep

# the largest per-tetrahedron count of a family over its smallest
BAND = 1.10

# opcodes by which a first lift may differ from a second one
HANDFUL = 10

# 50, 101 and 200 tetrahedra; 16, 32 and 64; 16, 32 and 64
FAMILIES = {
    "stacked": [gen.stacked(random.Random(0), m) for m in (15, 32, 65)],
    "cover": [gen.fig8_cover(n) for n in (8, 16, 32)],
    "suspended": [suspended_surface(genus) for genus in (2, 4, 8)],
}


def count_opcodes(fn, *args):
    """(opcodes executed in quadlift frames, result) of ``fn(*args)``.  The
    tracer that was installed before, a coverage tool's say, is restored."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            # Python 3.13 turns on a frame's opcode events only if the frame
            # already has its local tracer
            frame.f_trace = local
            frame.f_trace_opcodes = True
            return local
        return None

    # Python 3.12 turns on opcode events at settrace only once a frame has
    # asked for them; otherwise the first call counts none
    here = sys._getframe()
    here.f_trace_opcodes = True
    here.f_trace_opcodes = False
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return count, result


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_opcodes_per_tetrahedron_stay_in_band(family):
    parse, query = [], []
    for doc in FAMILIES[family]:
        t = doc["tets"]
        count, tri = count_opcodes(parse_triangulation, doc)
        parse.append(count / t)
        count, _ = count_opcodes(lift, tri, gen.edge_link_vectors(tri)[0])
        query.append(count / t)
    for name, per_tet in (("parse", parse), ("lift", query)):
        assert max(per_tet) <= BAND * min(per_tet), (name, per_tet)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_first_lift_builds_nothing(family):
    """A first lift on a new parse runs the opcodes of a second lift of the
    same vector, within a handful: it builds no cache on first use.  That
    holds for a Normal vector and for a NotNormal one, whose answer names
    the 0-cells at the ends of its failing arcs."""
    doc = FAMILIES[family][0]
    q = gen.edge_link_vectors(parse_triangulation(doc))[0]
    for q, expected in ((q, NORMAL),
                        (gen.perturbed(random.Random(0), q), NOT_NORMAL)):
        tri = parse_triangulation(doc)
        first, result = count_opcodes(lift, tri, q)
        second, _ = count_opcodes(lift, tri, q)
        assert result.classification == expected
        assert abs(first - second) <= HANDFUL, (expected, first, second)


def test_the_counter_restores_the_tracer_before_it():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        count, _ = count_opcodes(parse_triangulation, gen.fig8_cover(1))
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
    assert count > 0
