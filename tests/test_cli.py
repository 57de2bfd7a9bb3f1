import io
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlift
from quadlift.cli import (_HANDLERS, _Rows, _Usage, _emit_json, _parser,
                          _read_args, run)

from conftest import DATA


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def path(name):
    return str(DATA / name)


def test_validate_double_tet():
    code, out, err = invoke("validate", "--tri", path("double_tet.json"))
    assert code == 0
    assert out.startswith("valid\n")
    assert "tets 2" in out
    assert "vertex classes 4" in out
    assert "edge classes 6" in out
    assert "face classes 4" in out
    assert "orientation tet 0: +1" in out
    assert "orientation tet 1: -1" in out
    assert err == ""


def test_validate_json_mode():
    code, out, _ = invoke("validate", "--tri", path("fig8.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["vertex_classes"] == 1
    assert payload["links"][0]["chi"] == 0


def test_validate_json_counts_edge_classes_without_building_them(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("EdgeClass built")

    monkeypatch.setattr(quadlift.triangulation, "EdgeClass", refuse)
    code, out, _ = invoke("validate", "--tri", path("fig8.json"), "--json")
    assert code == 0
    assert json.loads(out)["edge_classes"] == 2
    tri = quadlift.parse_triangulation((DATA / "fig8.json").read_text())
    assert repr(tri) == "Triangulation(2 tets, 1 vertices, 2 edges, 4 faces)"


@pytest.mark.parametrize("tri, quads, code", [
    ("double_tet.json", [[1, 0, 0], [1, 0, 0]], 0),
    ("fig8.json", None, 2),
    ("double_tet.json", [[1, 0, 0], [0, 0, 0]], 3),
])
def test_classify_json_builds_no_vertex_class_and_no_link_cells(
        monkeypatch, tmp_path, tri, quads, code):
    def refuse(*args):
        raise AssertionError("built on a path that does not read it")

    # both vertex_classes and edge_classes are built by _members
    monkeypatch.setattr(quadlift.triangulation, "_members", refuse)
    monkeypatch.setattr(quadlift.links, "link_cell_counts", refuse)
    if quads is None:
        quads_path = path("fig8_spun_quads.json")
    else:
        quads_path = tmp_path / "q.json"
        quads_path.write_text(json.dumps({"quads": quads}))
    got, out, err = invoke("classify", "--tri", path(tri),
                           "--quads", str(quads_path), "--json")
    assert (got, err) == (code, "")
    assert json.loads(out)["classification"] in ("Normal", "SpunNormal",
                                                 "NotNormal")


def test_links_line_format():
    code, out, _ = invoke("links", "--tri", path("double_tet.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertex 0 triangles 2 chi 2 genus 0 sphere true"
    assert len(lines) == 4
    code, out, _ = invoke("links", "--tri", path("fig8.json"))
    assert out.splitlines() == ["vertex 0 triangles 8 chi 0 genus 1 sphere false"]


def test_matrix_dump_shape_and_determinism():
    code, out, _ = invoke("matrix", "--tri", path("fig8.json"))
    assert code == 0
    lines = out.splitlines()
    rows, cols, nnz = map(int, lines[0].split())
    assert (rows, cols) == (12, 14)
    assert len(lines) == nnz + 1
    code2, out2, _ = invoke("matrix", "--tri", path("fig8.json"))
    assert out2 == out


def test_classify_normal_exit_zero(tmp_path):
    code, out, _ = invoke("classify", "--tri", path("double_tet.json"),
                          "--quads", path("double_q1q1_quads.json"))
    assert code == 0
    assert out.splitlines()[0] == "classification Normal"
    assert "canonical tet 0: 0 0 0 0 1 0 0" in out
    assert "shift vertex 0: 0" in out


def test_classify_spun_exit_two():
    code, out, _ = invoke("classify", "--tri", path("fig8.json"),
                          "--quads", path("fig8_spun_quads.json"))
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "classification SpunNormal"
    assert any(line.startswith("vertex 0 boundary failure") for line in lines)


def test_classify_not_normal_exit_three(tmp_path):
    quads = tmp_path / "q.json"
    quads.write_text(json.dumps({"quads": [[1, 0, 0], [0, 0, 0]]}))
    code, out, _ = invoke("classify", "--tri", path("double_tet.json"),
                          "--quads", str(quads))
    assert code == 3
    assert out.splitlines()[0] == "classification NotNormal"
    assert "cycle failure" in out


def test_classify_inadmissible_exit_one(tmp_path):
    quads = tmp_path / "q.json"
    quads.write_text(json.dumps({"quads": [[1, 1, 0], [0, 0, 0]]}))
    code, _, err = invoke("classify", "--tri", path("double_tet.json"),
                          "--quads", str(quads))
    assert code == 1
    assert err == "error: inadmissible quadrilateral coordinates in %s\n" % quads


def test_classify_json_payload():
    code, out, _ = invoke("classify", "--tri", path("fig8.json"),
                          "--quads", path("fig8_spun_quads.json"), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["classification"] == "SpunNormal"
    assert payload["coords"] is None
    assert payload["boundary_failures"] == [
        {"vertex": 0, "reason": "no rational solution"}]


def test_verify_vertex_links_exit_zero():
    code, out, _ = invoke("verify", "--tri", path("double_tet.json"),
                          "--coords", path("double_links_coords.json"))
    assert code == 0
    assert out == "valid normal coordinates\n"


def test_verify_invalid_coords(tmp_path):
    coords = tmp_path / "c.json"
    coords.write_text(json.dumps(
        {"coords": [[2, 1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 0, 0, 0]]}))
    code, out, _ = invoke("verify", "--tri", path("double_tet.json"),
                          "--coords", str(coords))
    assert code == 1
    assert out.count("violated equation") == 3


def test_snf_of_matrix_dump(tmp_path):
    _, dump, _ = invoke("matrix", "--tri", path("double_tet.json"))
    mfile = tmp_path / "m.txt"
    mfile.write_text(dump)
    code, out, _ = invoke("snf", "--matrix", str(mfile))
    assert code == 0
    assert out.startswith("invariant_factors ")
    factors = list(map(int, out.split()[1:]))
    assert all(f > 0 for f in factors)


def test_unknown_subcommand_exit_64():
    code, _, err = invoke("frobnicate")
    assert code == 64
    assert "unknown subcommand" in err


def test_no_arguments_exit_64_and_help_exit_zero():
    code, out, _ = invoke()
    assert code == 64
    assert "usage:" in out
    code, out, _ = invoke("--help")
    assert code == 0
    assert "usage:" in out


def test_missing_required_flag_is_a_usage_error():
    # argparse's own code 2 would read as a SpunNormal verdict
    code, out, err = invoke("classify", "--tri", path("fig8.json"))
    assert code == 64
    assert out == ""
    assert "usage: quadlift classify" in err
    assert "the following arguments are required: --quads" in err


def test_unknown_flag_is_a_usage_error(tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_text("1 1 1\n0 0 2\n")
    code, out, err = invoke("snf", "--matrix", str(mfile), "--bogus", "x")
    assert code == 64
    assert out == ""
    assert "unrecognized arguments: --bogus x" in err


def test_subcommand_help_exit_zero():
    code, out, err = invoke("classify", "--help")
    assert code == 0
    assert out.startswith("usage: quadlift classify")
    assert err == ""


def argparse_vars(cmd, argv):
    """``vars()`` of the namespace argparse reads from ``argv``, or None
    where it prints help or a usage error."""
    try:
        return vars(_parser(cmd, _HANDLERS[cmd][1]).parse_args(argv))
    except _Usage:
        return None


def test_the_reader_reads_the_flags_in_any_order_as_argparse_does():
    # with a required flag missing, the reader declines and argparse reports
    # a usage error
    for cmd, (_, flags) in _HANDLERS.items():
        for n in range(len(flags) + 1):
            for order in itertools.permutations(flags, n):
                argv = []
                for flag in order:
                    argv += [flag] if flag == "--json" else [flag, "a.json"]
                read = _read_args(flags, argv)
                assert (read and vars(read)) == argparse_vars(cmd, argv), argv


# argv tokens: every flag of every subcommand, abbreviated and in the
# --flag=value form, "--", help, and values that start with "-", are empty
# or are not ASCII
FLAGS = ["--tri", "--quads", "--coords", "--matrix", "--json"]
VALUES = ["a.json", "-", "-5", "", "\u00e9\u2603", "x=y"]
TOKENS = FLAGS + VALUES + [
    "--t", "--tr", "--q", "--qu", "--c", "--m", "--j", "--js", "--tri=a.json",
    "--quads=", "--json=1", "--", "-h", "--help", "--bogus"]


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.data())
def test_the_reader_returns_what_argparse_returns_or_declines(data):
    """Argv from the full form of a subcommand, its flags in any order with
    values from VALUES, by up to four edits that insert, replace or delete a
    token: so flags of other subcommands, repeats, missing flags and values,
    and each of TOKENS anywhere."""
    cmd = data.draw(st.sampled_from(sorted(_HANDLERS)))
    flags = _HANDLERS[cmd][1]
    argv = []
    for flag in data.draw(st.permutations(flags)):
        argv += [flag] if flag == "--json" else [
            flag, data.draw(st.sampled_from(VALUES))]
    for _ in range(data.draw(st.integers(0, 4))):
        at = data.draw(st.integers(0, len(argv)))
        argv[at:at + data.draw(st.integers(0, 1))] = data.draw(
            st.lists(st.sampled_from(TOKENS), max_size=1))
    read = _read_args(flags, argv)
    assert read is None or vars(read) == argparse_vars(cmd, argv)


def test_snf_malformed_matrix_exit_one(tmp_path):
    bad = tmp_path / "m.txt"
    bad.write_text("not a matrix\n")
    code, _, err = invoke("snf", "--matrix", str(bad))
    assert code == 1
    assert "malformed" in err


def test_unreadable_file_exit_66():
    code, _, err = invoke("validate", "--tri", "/nonexistent/file.json")
    assert code == 66
    assert "cannot read" in err


def test_invalid_triangulation_exit_65(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads((DATA / "double_tet.json").read_text())
    doc["gluings"][1][0] = {"tet": 0, "face": 1, "corners": [0, 2, 3]}
    bad.write_text(json.dumps(doc))
    code, _, err = invoke("validate", "--tri", str(bad))
    assert code == 65
    assert "non-involutive" in err
    bad.write_text("{broken")
    code, _, err = invoke("validate", "--tri", str(bad))
    assert code == 65


def test_malformed_quads_exit_one(tmp_path):
    quads = tmp_path / "q.json"
    quads.write_text("{broken")
    code, _, err = invoke("classify", "--tri", path("double_tet.json"),
                          "--quads", str(quads))
    assert code == 1
    quads.write_text(json.dumps({"quads": [[1, 0]]}))
    code, _, _ = invoke("classify", "--tri", path("double_tet.json"),
                        "--quads", str(quads))
    assert code == 1


def test_outputs_byte_identical_across_runs():
    for argv in (("validate", "--tri", path("three_tet.json")),
                 ("links", "--tri", path("pentachoron.json")),
                 ("classify", "--tri", path("fig8.json"),
                  "--quads", path("fig8_spun_quads.json"))):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second


def test_snf_rejects_out_of_range_indices(tmp_path):
    mfile = tmp_path / "m.txt"
    for body in ("2 2 1\n-1 0 5\n", "2 2 1\n0 -1 5\n",
                 "2 2 1\n2 0 5\n", "2 2 1\n0 2 5\n"):
        mfile.write_text(body)
        code, out, err = invoke("snf", "--matrix", str(mfile))
        assert (code, out) == (1, "")
        assert "malformed" in err


def test_snf_rejects_a_triplet_count_other_than_nnz(tmp_path):
    mfile = tmp_path / "m.txt"
    for body in ("2 2 2\n0 0 5\n", "2 2 1\n0 0 5\n1 1 3\n", "2 2 -1\n"):
        mfile.write_text(body)
        code, out, _ = invoke("snf", "--matrix", str(mfile))
        assert (code, out) == (1, "")


def test_snf_rejects_underscores_and_plus_signs(tmp_path):
    # int() reads "1_0" as 10 and "+3" as 3; a token is -?[0-9]+ only
    mfile = tmp_path / "m.txt"
    for body in ("1 1 1\n0 0 1_0\n", "1_0 1 1\n0 0 2\n",
                 "1 1 1\n0 0 +3\n"):
        mfile.write_text(body)
        code, out, err = invoke("snf", "--matrix", str(mfile))
        assert (code, out) == (1, "")
        assert "malformed" in err


def test_snf_rejects_non_ascii_digits(tmp_path):
    # int() reads ARABIC-INDIC DIGIT THREE (U+0663) as 3
    mfile = tmp_path / "m.txt"
    for body in ("1 1 1\n0 0 \u0663\n", "1 1 1\n\u0660 0 2\n"):
        mfile.write_text(body, encoding="utf-8")
        code, out, err = invoke("snf", "--matrix", str(mfile))
        assert (code, out) == (1, "")
        assert "malformed" in err


def test_snf_rejects_other_separators(tmp_path):
    # str.splitlines and str.split (and reading in universal newline mode,
    # for a lone \r) split at each of these, which read every body below as
    # the matrix diag(5, 3)
    mfile = tmp_path / "m.txt"
    for sep in ("\r", "\u2028", "\u2029", "\u0085", "\x0b", "\x0c", "\x1c",
                "\u2003", "\u00a0", "\u3000"):
        for body in ("2 2 2%s0 0 5\n1 1 3\n" % sep,
                     "2 2 2\n0 0 5\n1%s1 3\n" % sep,
                     "2 2 2\n0 0 5\n1 1 3\n %s \n" % sep):
            mfile.write_text(body, encoding="utf-8")
            code, out, err = invoke("snf", "--matrix", str(mfile))
            assert (code, out) == (1, ""), repr(body)
            assert "malformed" in err


def test_snf_accepts_tabs_crlf_and_blank_lines(tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_bytes(b"2 2 2\r\n\t0\t0 5 \r\n \t\r\n 1 1  3")
    assert invoke("snf", "--matrix", str(mfile)) == (
        0, "invariant_factors 1 15\n", "")


def test_snf_ignores_all_zero_rows_and_columns(tmp_path):
    # zero rows and columns do not change the invariant factors
    mfile = tmp_path / "m.txt"
    mfile.write_text("5 7 3\n0 0 2\n4 6 4\n1 3 0\n")
    assert invoke("snf", "--matrix", str(mfile)) == (
        0, "invariant_factors 2 4\n", "")
    mfile.write_text("3 3 0\n")
    assert invoke("snf", "--matrix", str(mfile)) == (
        0, "invariant_factors \n", "")


def test_snf_allocates_by_entries_not_by_header(tmp_path, monkeypatch):
    # only the rows and columns that hold an entry reach the Smith form,
    # whatever size the header claims
    import quadlift.cli
    shapes = []
    real = quadlift.cli.smith_normal_form

    def recording(matrix):
        shapes.append((matrix.nrows, matrix.ncols))
        return real(matrix)

    monkeypatch.setattr(quadlift.cli, "smith_normal_form", recording)
    mfile = tmp_path / "m.txt"
    mfile.write_text("300 400 1\n299 5 -3\n")
    assert invoke("snf", "--matrix", str(mfile)) == (
        0, "invariant_factors 3\n", "")
    assert shapes == [(1, 1)]


def test_boolean_quads_exit_one(tmp_path):
    quads = tmp_path / "q.json"
    quads.write_text(json.dumps({"quads": [[True, 0, 0], [0, 0, 0]]}))
    code, out, err = invoke("classify", "--tri", path("double_tet.json"),
                            "--quads", str(quads))
    assert (code, out) == (1, "")
    assert "malformed quad row" in err


def test_boolean_tet_count_exit_65(tmp_path):
    bad = tmp_path / "bad.json"
    doc = json.loads((DATA / "one_tet.json").read_text())
    doc["tets"] = True
    bad.write_text(json.dumps(doc))
    code, _, err = invoke("validate", "--tri", str(bad))
    assert code == 65
    assert "'tets' must be a positive integer" in err


# Hostile documents: each must end with its documented exit code and one
# "error:" line on stderr, never with an exception out of ``run``.
DEEP = b"[" * 200000 + b"]" * 200000
LONG_NUMBER = "7" * 5000   # past the interpreter's int-to-str digit limit
LIMIT_NUMBER = "9" * 4300  # at that limit, so twice it is past it


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deeply_nested_documents_are_rejected(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_bytes(DEEP)
    code, out, err = invoke("validate", "--tri", str(bad))
    assert (code, out) == (65, "")
    assert_one_error_line(err)
    for flag, cmd in (("--quads", "classify"), ("--coords", "verify")):
        code, out, err = invoke(cmd, "--tri", path("double_tet.json"),
                                flag, str(bad))
        assert (code, out) == (1, "")
        assert_one_error_line(err)


def test_numbers_past_the_digit_limit_are_rejected(tmp_path):
    bad = tmp_path / "long.json"
    bad.write_text('{"tets": %s, "gluings": []}' % LONG_NUMBER)
    code, out, err = invoke("validate", "--tri", str(bad))
    assert (code, out) == (65, "")
    assert_one_error_line(err)
    quads = tmp_path / "q.json"
    quads.write_text('{"quads": [[%s, 0, 0], [0, 0, 0]]}' % LONG_NUMBER)
    code, out, err = invoke("classify", "--tri", path("double_tet.json"),
                            "--quads", str(quads))
    assert (code, out) == (1, "")
    assert_one_error_line(err)
    coords = tmp_path / "c.json"
    coords.write_text('{"coords": [[%s, 0, 0, 0, 0, 0, 0]]}' % LONG_NUMBER)
    code, out, err = invoke("verify", "--tri", path("double_tet.json"),
                            "--coords", str(coords))
    assert (code, out) == (1, "")
    assert_one_error_line(err)


def test_results_past_the_digit_limit_print_nothing(tmp_path):
    # every input number can be read, but a matching-equation residue or a
    # cycle sum of two of them cannot be printed
    coords = tmp_path / "c.json"
    row = "[%s, 0, 0, 0, %s, 0, 0]" % (LIMIT_NUMBER, LIMIT_NUMBER)
    coords.write_text('{"coords": [%s, [0, 0, 0, 0, 0, 0, 0]]}' % row)
    quads = tmp_path / "q.json"
    quads.write_text('{"quads": [[0, %s, 0]]}' % LIMIT_NUMBER)
    for argv in (("verify", "--tri", path("double_tet.json"),
                  "--coords", str(coords)),
                 ("classify", "--tri", path("one_tet.json"),
                  "--quads", str(quads))):
        for mode in ((), ("--json",)):
            code, out, err = invoke(*argv, *mode)
            assert (code, out) == (1, ""), argv + mode
            assert_one_error_line(err)
            assert "too long to print" in err


def test_undecodable_files_exit_66(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"tets": 1, "gluings": [\xff]}')
    tri = path("double_tet.json")
    for argv in (("validate", "--tri", str(bad)),
                 ("classify", "--tri", tri, "--quads", str(bad)),
                 ("verify", "--tri", tri, "--coords", str(bad)),
                 ("snf", "--matrix", str(bad))):
        code, out, err = invoke(*argv)
        assert (code, out) == (66, ""), argv
        assert_one_error_line(err)
        assert "cannot read" in err


def test_module_entry_point_exits_with_the_code_and_bytes_of_run(tmp_path):
    single = tmp_path / "q.json"
    single.write_text(json.dumps({"quads": [[1, 0, 0], [0, 0, 0]]}))
    cases = [
        (["validate", "--tri", path("double_tet.json")], 0),
        (["classify", "--tri", path("fig8.json"),
          "--quads", path("fig8_spun_quads.json")], 2),
        (["classify", "--tri", path("double_tet.json"),
          "--quads", str(single)], 3),
        (["frobnicate"], 64),
    ]
    src = os.path.dirname(os.path.dirname(quadlift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, code in cases:
        proc = subprocess.run([sys.executable, "-m", "quadlift"] + argv,
                              capture_output=True, env=env, check=False)
        _, out, err = invoke(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode())


# Prints the exit codes of run() on the argv lists given as its argument,
# then the modules among NAMES that importing the CLI and the runs loaded.
LOADED = """
import io, sys
NAMES = {"argparse", "dataclasses", "inspect"}
before = set(sys.modules)
from quadlift.cli import run
for argv in %r:
    print(run(argv, out=io.StringIO(), err=io.StringIO()))
print(" ".join(sorted(NAMES.intersection(sys.modules).difference(before))))
"""


def loaded_by(*argvs):
    """The output of LOADED in a fresh interpreter, which pytest's own
    imports, argparse among them, cannot hide."""
    src = os.path.dirname(os.path.dirname(quadlift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LOADED % (list(argvs),)],
                          capture_output=True, env=env, check=True, text=True)
    return proc.stdout.splitlines()


def test_classify_loads_neither_argparse_nor_dataclasses_nor_inspect():
    tri, quads = path("double_tet.json"), path("double_q1q1_quads.json")
    spun = ["--tri", path("fig8.json"), "--quads", path("fig8_spun_quads.json")]
    assert loaded_by(["classify", "--tri", tri, "--quads", quads, "--json"],
                     ["classify", "--quads", quads, "--tri", tri],
                     ["classify"] + spun + ["--json"]) == ["0", "0", "2", ""]


def test_help_and_usage_errors_load_argparse():
    assert loaded_by(["classify", "--help"]) == ["0", "argparse"]
    assert loaded_by(["snf"]) == ["64", "argparse"]


# JSON values as the CLI's payloads hold them, and more: tuples, empties,
# integers past 64 bits, and strings with quotes, control characters and
# non-ASCII text
SPECIAL = '"\\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001f600'
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()),
               max_size=6)
INTS = st.integers(-10 ** 40, 10 ** 40)


def rows_of(items):
    """Lists of rows of one length, each row a list or a tuple of items."""
    def rows(n):
        row = st.lists(items, min_size=n, max_size=n)
        return st.lists(st.one_of(row, row.map(tuple)), max_size=4)
    return st.integers(0, 4).flatmap(rows)


# rows of ints, bools and None go through the writer's recursion
ROWS = st.one_of(rows_of(INTS), rows_of(st.one_of(INTS, st.booleans(),
                                                  st.none())))
JSON_VALUES = st.recursive(
    st.one_of(INTS, st.booleans(), st.none(), TEXT),
    lambda children: st.one_of(
        st.lists(INTS, max_size=5), st.lists(INTS, max_size=5).map(tuple),
        ROWS,
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=16)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(JSON_VALUES)
def test_the_json_writer_prints_what_json_dumps_prints(value):
    out = io.StringIO()
    _emit_json(value, out)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [
    [[]], [[], []], [[1]], [[1, 2], [3]], [[True, 1], [2, 3]],
    [[1, False], [None, 3]], [(1, 2), [3, 4]], ([0, -1, 2], (3, 4, 5)),
    {"coords": [[0, 1], [2, 10 ** 40]], "rows": [[-5]]},
])
def test_the_json_writer_prints_rows_as_json_dumps(value):
    out = io.StringIO()
    _emit_json(value, out)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(1, 7).flatmap(lambda width: st.lists(
    st.lists(INTS, min_size=width, max_size=width), min_size=1, max_size=4)))
def test_the_json_writer_prints_flat_rows_as_json_dumps_prints_the_rows(rows):
    flat = [x for row in rows for x in row]
    out = io.StringIO()
    _emit_json({"coords": _Rows(flat, len(rows[0])), "rows": [rows]}, out)
    assert out.getvalue() == json.dumps({"coords": rows, "rows": [rows]},
                                        indent=2, sort_keys=True) + "\n"


def test_a_row_past_the_digit_limit_raises_as_json_dumps_does():
    value = [[1, 2], [10 ** 5000, 3]]
    with pytest.raises(ValueError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(ValueError):
        _emit_json(value, io.StringIO())
    with pytest.raises(ValueError):
        _emit_json(_Rows([1, 2, 10 ** 5000, 3], 2), io.StringIO())
