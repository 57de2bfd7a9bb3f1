"""Golden outputs, pinned by SHA-256 digests.

* CLI: stdout, stderr and exit code of ``validate``, ``links``, ``matrix``,
  ``classify`` and ``verify`` (text and ``--json``) on the fixtures and on
  seeded generated triangulations (``data/golden_cli.json``).
* Parse: the full state of every parsed triangulation, read through its
  public fields and accessors, on the same inputs and on two edge-flipped
  copies of each (``oracles.flip_edge``); and the error type and message of
  every seeded corruption of a valid document (``data/golden_parse.json``).

After a deliberate change of output, regenerate both files with

    PYTHONPATH=src:tests:perfbench python -m test_golden
"""

import copy
import hashlib
import io
import itertools
import json
import random
import re
import sys
from pathlib import Path

import quadlift
from quadlift import Triangulation, cli, parse_triangulation
from quadlift.cli import run
from quadlift.triangulation import FACE_CORNERS, LOCAL_EDGES

import generators as gen
from oracles import (arc_of, directed_face_edge, edge_class_facts, end_cell,
                     face_pairs, flip_edge, gluing, link_cells, serialize,
                     suspended_surface)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"
GOLDEN_PARSE = DATA / "golden_parse.json"


def _cases():
    """(name, triangulation document) for every input."""
    def fixture(name):
        return json.loads((DATA / name).read_text())

    cases = [(name, fixture(name + ".json"))
             for name in ("double_tet", "fig8", "three_tet", "one_tet",
                          "pentachoron")]
    for seed, moves in ((0, 0), (1, 1), (2, 4), (3, 13), (4, 30)):
        cases.append(("stacked-%d-%d" % (seed, moves),
                      gen.stacked(random.Random(seed), moves)))
    for n in (1, 2, 5):
        cases.append(("cover-%d" % n, gen.fig8_cover(n)))
    cases.append(("suspended-2", suspended_surface(2)))
    cases.append(("suspended-3", suspended_surface(3)))
    return cases


def _quad_vectors(name, doc):
    """Normal, NotNormal and (on covers) SpunNormal queries, built from the
    edge classes of the document and from the benchmark's generators."""
    t = doc["tets"]
    vectors = [[0] * (3 * t)]
    edge_links = gen.edge_link_vectors(parse_triangulation(doc))
    vectors.extend(edge_links[:2])
    if edge_links:
        odd = gen.perturbed(random.Random(t), edge_links[0])
        if odd is not None:
            vectors.append(odd)
    unit = [0] * (3 * t)
    unit[2] = 1
    vectors.append(unit)
    if name.startswith("cover-") or name == "fig8":
        vectors.append(gen.fig8_spun(t // 2))
        vectors.append(gen.fig8_spun(t // 2, 2))
    return vectors


def _coord_docs(doc):
    """A valid disc vector (every vertex link once) and two invalid ones: the
    same with one quad added, and one with a negative triangle."""
    t = doc["tets"]
    links = [[1, 1, 1, 1, 0, 0, 0] for _ in range(t)]
    quad = [row[:] for row in links]
    quad[0][4] = 1
    negative = [row[:] for row in links]
    negative[-1][3] = -1
    return [{"coords": c} for c in (links, quad, negative)]


def _invoke(argv, root):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    text = "%s\0%s\0%d" % (out.getvalue(), err.getvalue(), code)
    text = text.replace(str(root), "<dir>")
    return hashlib.sha256(text.encode()).hexdigest()


def golden_outputs(root):
    """{label: digest} for every invocation, writing inputs under ``root``."""
    digests = {}

    def record(label, argv, modes=("", " --json")):
        for mode in modes:
            digests[label + mode] = _invoke(argv + mode.split(), root)

    def write(stem, payload):
        path = root / (stem + ".json")
        path.write_text(json.dumps(payload))
        return str(path)

    for name, doc in _cases():
        tri = write(name, doc)
        record(name + " validate", ["validate", "--tri", tri])
        record(name + " links", ["links", "--tri", tri])
        record(name + " matrix", ["matrix", "--tri", tri], modes=("",))
        for k, q in enumerate(_quad_vectors(name, doc)):
            quads = write("%s-q%d" % (name, k),
                          {"quads": [q[i:i + 3] for i in range(0, len(q), 3)]})
            record("%s classify q%d" % (name, k),
                   ["classify", "--tri", tri, "--quads", quads])
        for k, coords in enumerate(_coord_docs(doc)):
            record("%s verify c%d" % (name, k),
                   ["verify", "--tri", tri, "--coords",
                    write("%s-c%d" % (name, k), coords)])
    return digests


def test_cli_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    actual = golden_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    assert [k for k in sorted(expected) if actual[k] != expected[k]] == []


def test_the_json_writer_prints_json_dumps_on_every_golden_payload(
        tmp_path, monkeypatch):
    payloads = []
    emit = cli._emit_json

    def recording(payload, out):
        payloads.append(payload)
        emit(payload, out)

    monkeypatch.setattr(cli, "_emit_json", recording)
    labels = golden_outputs(tmp_path)
    assert len(payloads) == sum(label.endswith(" --json") for label in labels)
    for payload in payloads:
        out = io.StringIO()
        emit(payload, out)
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True,
                                            default=row_form) + "\n"


def test_validate_prints_its_golden_text_without_edge_class_objects(
        tmp_path, monkeypatch):
    # the text output reads each class's ends from the flat tables
    def refuse(*args):
        raise AssertionError("EdgeClass built")

    monkeypatch.setattr(quadlift.triangulation, "EdgeClass", refuse)
    expected = json.loads(GOLDEN.read_text())
    for name, doc in _cases():
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(doc))
        assert (_invoke(["validate", "--tri", str(path)], tmp_path)
                == expected[name + " validate"]), name


def row_form(rows):
    """The list of rows that a ``cli._Rows`` prints as."""
    assert type(rows) is cli._Rows
    flat, width = rows.flat, rows.width
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def test_the_documented_forms_build_no_parser(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "_ArgumentParser", refuse)
    assert golden_outputs(tmp_path) == json.loads(GOLDEN.read_text())
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 2 2\n0 0 2\n1 1 3\n")
    out, err = io.StringIO(), io.StringIO()
    assert run(["snf", "--matrix", str(matrix)], out=out, err=err) == 0
    assert (out.getvalue(), err.getvalue()) == ("invariant_factors 1 6\n", "")


# ----------------------------------------------------------------------
# parse state and rejections

def _digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def local_tree(link):
    """``link.tree`` with arcs and discs as positions in ``link.arcs`` and
    ``link.triangles``: the form the trees had when the digests were made."""
    arc_at = {arc: k for k, arc in enumerate(link.arcs)}
    disc_at = {d: k for k, d in enumerate(link.triangles)}
    return tuple([(arc_at[arc], disc_at[d], disc_at[nb], s)
                  for arc, d, nb, s in entries] for entries in link.tree)


def quad_vector_rows(arc_discs):
    """``arc_discs`` with quad discs 7i+3+k as quad-vector indices 3i+k-1:
    the form the rows had when the digests were made."""
    return [(s, a, b, c - 4 * (c // 7) - 4, d - 4 * (d // 7) - 4)
            for s, a, b, c, d in arc_discs]


def parse_state(tri):
    """Every field and accessor result that construction decides, as JSON.
    The ends of the edge classes and the 0-cells of the links, which the
    package only counts, are read from its flat tables."""
    t = tri.tet_count
    slots = [(i, f) for i in range(t) for f in range(4)]
    directions = []
    for i in range(t):
        for a, b in LOCAL_EDGES:
            f, corner = [v for v in range(4) if v not in (a, b)]
            directions.append(directed_face_edge(tri, i, f, corner))
    return {
        "faces": [(c, rep, other)
                  for c, (rep, other) in enumerate(face_pairs(tri))],
        "vertices": [(c, divmod(slots[0], 4), [divmod(x, 4) for x in slots])
                     for c, slots in enumerate(tri.vertex_classes)],
        "edges": [(e.index, e.rep, e.members, e.tail_local, e.head_local,
                   e.tail_vertex, e.head_vertex, e.valence)
                  for e in edge_class_facts(tri)],
        "orientation": tri.tet_orientation,
        "directions": directions,
        "gluings": [gluing(tri, i, f) for i, f in slots],
        "arc_of": [arc_of(tri, i, f, c) for i, f in slots
                   for c in FACE_CORNERS[f]],
        "end_cell": [end_cell(tri, i, a, b) for i in range(t)
                     for a in range(4) for b in range(4) if a != b],
        "serialize": serialize(tri),
        "arc_discs": quad_vector_rows(tri.arc_discs),
        "links": [(link.vertex, link.triangles, link.arcs,
                   link_cells(tri, link.vertex),
                   sorted(link.arc_cells.items()), link.euler_characteristic,
                   link.genus, link.is_sphere, local_tree(link))
                  for link in tri.links],
    }


def golden_states():
    """{label: digest of the parse state} for every input of ``_cases`` and
    for two copies of each with one edge class flipped."""
    digests = {}
    for name, doc in _cases():
        tri = parse_triangulation(doc)
        digests[name] = _digest(parse_state(tri))
        last = len(tri.edge_classes) - 1
        for e in (0, last // 2 + 1 if last else 0):
            digests["%s flip %d" % (name, e)] = _digest(
                parse_state(flip_edge(tri, e)))
    return digests


_PERMS = list(itertools.permutations(range(4)))


def _glue(gluings, i, f, j, g, sigma):
    """Glue face f of tet i to face g of tet j by ``sigma`` (both sides)."""
    inverse = [0] * 4
    for v in range(4):
        inverse[sigma[v]] = v
    gluings[i][f] = {"tet": j, "face": g,
                     "corners": [sigma[v] for v in FACE_CORNERS[f]]}
    gluings[j][g] = {"tet": i, "face": f,
                     "corners": [inverse[v] for v in FACE_CORNERS[g]]}


def _random_sigma(rng, f, g):
    return rng.choice([p for p in _PERMS if p[f] == g])


def _mutate(rng, doc):
    """Apply one random corruption to ``doc`` in place; returns the document
    to parse (a replacement value or JSON text for some corruptions).
    Raises LookupError, TypeError, AttributeError or ValueError when ``doc``
    no longer has the shape a corruption needs."""
    gluings = doc["gluings"]
    t = len(gluings)
    i, f = rng.randrange(t), rng.randrange(4)
    row = gluings[i]
    entry = row[f]
    kind = rng.randrange(17)
    if kind == 0:
        return rng.choice([[], "tets", 3, None, {"tets": t},
                           {"gluings": gluings}])
    if kind == 1:
        doc["tets"] = rng.choice([0, -1, True, "1", 1.0, t + 1, t - 1])
    elif kind == 2:
        doc["gluings"] = rng.choice([None, {}, gluings[:-1],
                                     gluings + [gluings[0]]])
    elif kind == 3:
        gluings[i] = rng.choice([None, {}, row[:3], row + [row[0]]])
    elif kind == 4:
        row[f] = rng.choice([None, None, [], "tet", {}])
    elif kind == 5:
        del entry[rng.choice(["tet", "face", "corners"])]
    elif kind == 6:
        entry["tet"] = rng.choice([-1, t, True, "0", 0.0, None])
    elif kind == 7:
        entry["face"] = rng.choice([-1, 4, True, "0", None])
    elif kind == 8:
        entry["tet"], entry["face"] = i, f
    elif kind == 9:
        entry["corners"] = rng.choice([None, [0, 1], [0, 1, 2, 3],
                                       [True, 1, 2], [0, 1, 4], [-1, 1, 2],
                                       [0.0, 1, 2], "012", (0, 1, 2)])
    elif kind == 10:
        entry["corners"][rng.randrange(3)] = entry["face"]
    elif kind == 11:
        k = rng.randrange(3)
        entry["corners"][k] = entry["corners"][(k + 1) % 3]
    elif kind == 12:
        j, g = rng.randrange(t), rng.randrange(4)
        corners = [v for v in range(4) if v != g]
        rng.shuffle(corners)
        entry.update(tet=j, face=g, corners=corners)
    elif kind == 13:
        rng.shuffle(entry["corners"])
    elif kind == 14:
        j, g = entry["tet"], entry["face"]
        _glue(gluings, i, f, j, g, _random_sigma(rng, f, g))
    elif kind == 15:
        j, g = entry["tet"], entry["face"]
        k, h = rng.randrange(t), rng.randrange(4)
        other = gluings[k][h]
        m, e = other["tet"], other["face"]
        if len({(i, f), (j, g), (k, h), (m, e)}) == 4:
            _glue(gluings, i, f, k, h, _random_sigma(rng, f, h))
            _glue(gluings, j, g, m, e, _random_sigma(rng, g, e))
    else:
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    return doc


def corrupted_documents(rng, doc, count):
    """``count`` documents made from ``doc`` by one or two corruptions."""
    out = []
    while len(out) < count:
        bad = copy.deepcopy(doc)
        for _ in range(rng.choice((1, 1, 2))):
            try:
                bad = _mutate(rng, bad)
            except (LookupError, TypeError, AttributeError, ValueError):
                pass
            if not isinstance(bad, dict):
                break
        out.append(bad)
    return out


def _outcome(doc):
    try:
        tri = Triangulation(doc)
    except Exception as exc:  # the type is part of the outcome
        return type(exc).__name__, str(exc)
    return "valid", _digest(parse_state(tri))


# Every message that ``Triangulation`` raises while loading a document, and
# the orientation message; the corruptions must reach each one.
REJECTIONS = (
    r"malformed document: Expecting .*|malformed document: Unterminated .*",
    r"malformed document: expected an object",
    r"malformed document: missing 'tets' or 'gluings'",
    r"malformed document: 'tets' must be a positive integer",
    r"malformed document: 'gluings' must list \d+ tetrahedra",
    r"malformed document: tetrahedron \d+ must list 4 faces",
    r"unglued face: tetrahedron \d+ face \d",
    r"malformed document: tetrahedron \d+ face \d",
    r"tetrahedron \d+ face \d glued to unknown tetrahedron .*",
    r"tetrahedron \d+ face \d glued to unknown face .*",
    r"tetrahedron \d+ face \d glued to itself",
    r"malformed corner correspondence at tetrahedron \d+ face \d",
    r"corner correspondence at tetrahedron \d+ face \d maps a corner to the "
    r"omitted vertex \d",
    r"corner correspondence at tetrahedron \d+ face \d is not a bijection",
    r"non-involutive pairing: .*",
    r"non-involutive corner correspondence between .*",
    r"non-orientable complex: orientation conflict at the gluing of "
    r"tetrahedron \d+ face \d",
)

CORRUPTION_BASES = ("double_tet", "fig8", "three_tet", "one_tet",
                    "pentachoron", "stacked-1-1", "stacked-2-4", "cover-1",
                    "cover-2", "suspended-2")
CORRUPTIONS_PER_BASE = 120


def golden_rejections():
    """({base: digest of the outcomes}, [every outcome]) over the seeded
    corruptions of each base document."""
    docs = dict(_cases())
    digests, outcomes = {}, []
    for seed, name in enumerate(CORRUPTION_BASES):
        rng = random.Random(seed)
        batch = [_outcome(bad) for bad in corrupted_documents(
            rng, docs[name], CORRUPTIONS_PER_BASE)]
        digests[name] = _digest(batch)
        outcomes.extend(batch)
    return digests, outcomes


def test_parse_states_match_golden_digests():
    expected = json.loads(GOLDEN_PARSE.read_text())["states"]
    actual = golden_states()
    assert sorted(actual) == sorted(expected)
    assert [k for k in sorted(expected) if actual[k] != expected[k]] == []


def test_rejections_match_golden_digests():
    expected = json.loads(GOLDEN_PARSE.read_text())["rejections"]
    actual, outcomes = golden_rejections()
    assert actual == expected
    rejected = [message for kind, message in outcomes
                if kind == "TriangulationError"]
    assert len(rejected) >= 1000
    assert {kind for kind, _ in outcomes} == {"TriangulationError", "valid"}
    for pattern in REJECTIONS:
        assert any(re.fullmatch(pattern, m) for m in rejected), pattern


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        digests = golden_outputs(Path(root))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("%d digests written to %s\n" % (len(digests), GOLDEN))
    parse = {"states": golden_states(), "rejections": golden_rejections()[0]}
    GOLDEN_PARSE.write_text(json.dumps(parse, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("%d digests written to %s\n"
                     % (sum(map(len, parse.values())), GOLDEN_PARSE))
