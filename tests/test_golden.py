"""Golden CLI outputs: the SHA-256 digest of stdout, stderr and exit code of
``validate``, ``links``, ``matrix``, ``classify`` and ``verify`` (text and
``--json``) on the fixtures and on seeded generated triangulations.

The digests in ``data/golden_cli.json`` pin the CLI byte for byte.  After a
deliberate change of output, regenerate them with

    PYTHONPATH=src:tests:perfbench python -m test_golden
"""

import hashlib
import io
import json
import random
import sys
from pathlib import Path

from quadlift import parse_triangulation
from quadlift.cli import run

import generators as gen
from oracles import suspended_surface

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cli.json"


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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        digests = golden_outputs(Path(root))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("%d digests written to %s\n" % (len(digests), GOLDEN))
