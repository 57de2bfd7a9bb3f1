import io
import json

from quadlift.cli import run

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
    assert "inadmissible" in err


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
