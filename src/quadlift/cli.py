"""Command-line driver: validate, links, matrix, classify, verify, snf.

Exit codes: 0 success / Normal, 2 SpunNormal, 3 NotNormal, 1 input error
(bad coordinate or matrix data), 64 usage error (unknown subcommand or bad
arguments), 65 invalid triangulation, 66 unreadable or non-UTF-8 file.
JSON nested too deeply or with a number too long to convert is malformed,
and so is a result holding a number too long to print.  Every input error
ends with one ``error:`` line on stderr and nothing on stdout, and identical
input gives byte-identical output.
"""

import io
import json
import re
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import chains, solver
from .intlinalg import IntMatrix, smith_normal_form
from .record import Record
from .triangulation import Triangulation, TriangulationError

EX_OK = 0
EX_INPUT = 1
EX_SPUN = 2
EX_NOT_NORMAL = 3
EX_USAGE = 64
EX_DATA = 65
EX_NOINPUT = 66

_EXIT_BY_CLASS = {
    solver.NORMAL: EX_OK,
    solver.SPUN_NORMAL: EX_SPUN,
    solver.NOT_NORMAL: EX_NOT_NORMAL,
}


class _InputError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _read_text(path, newline=None):
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError("cannot read %s: %s" % (
            path, getattr(exc, "strerror", None) or exc), EX_NOINPUT) from exc


def _load_triangulation(path):
    text = _read_text(path)
    try:
        return Triangulation(text)
    except TriangulationError as exc:
        raise _InputError("invalid triangulation %s: %s" % (path, exc),
                          EX_DATA) from exc


def _load_json(path, what):
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise _InputError("malformed %s document %s: %s" % (what, path, exc),
                          EX_INPUT) from exc


class _Usage(Exception):
    """Ends argument parsing with (exit code, text): the help for ``out``
    or a usage error for ``err``."""


def _ArgumentParser(prog):
    """An argparse parser, built only for help and usage errors, that raises
    _Usage where argparse would print and exit, so that ``run`` returns every
    code: a usage error gets EX_USAGE, not argparse's 2 (SpunNormal)."""
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def print_help(self, file=None):
            raise _Usage(EX_OK, self.format_help())

        def error(self, message):
            raise _Usage(EX_USAGE, "%s%s: error: %s\n"
                         % (self.format_usage(), self.prog, message))

    return ArgumentParser(prog=prog)


# flag: (dest, help).  ``--json`` is a switch; every other flag is required
# and takes one value.
_FLAGS = {
    "--tri": ("tri", "triangulation JSON file"),
    "--quads": ("quads", "quadrilateral coordinates JSON file"),
    "--coords": ("coords", "normal coordinates JSON file"),
    "--matrix": ("matrix", "matrix file in 'rows cols nnz' triplet format"),
    "--json": ("as_json", "machine-readable JSON output"),
}


def _parser(cmd, flags):
    p = _ArgumentParser(prog="quadlift %s" % cmd)
    for flag in flags:
        dest, text = _FLAGS[flag]
        if flag == "--json":
            p.add_argument(flag, action="store_true", dest=dest, help=text)
        else:
            p.add_argument(flag, required=True, dest=dest, help=text)
    return p


def _read_args(flags, argv):
    """The namespace that ``_parser(cmd, flags).parse_args(argv)`` returns,
    read without building a parser, when every token of ``argv`` is one of
    ``flags`` spelled out, each value flag is given once and followed by a
    value that does not start with "-", and ``--json`` is given at most
    once.  None for anything else, which argparse reads: help, abbreviated
    flags, ``--flag=value``, repeats, ``--``, values that start with "-",
    and every usage error."""
    given = {}
    tokens = iter(argv)
    for flag in tokens:
        if flag not in flags or flag in given:
            return None
        if flag == "--json":
            given[flag] = True
            continue
        value = next(tokens, "-")   # a flag without a value declines too
        if value.startswith("-"):
            return None
        given[flag] = value
    if any(flag not in given for flag in flags if flag != "--json"):
        return None
    return SimpleNamespace(**{_FLAGS[flag][0]: given.get(flag, False)
                              for flag in flags})


class _Rows(Record):
    """A nonempty flat vector of ints that prints as a JSON list of rows of
    ``width``, such as a lift's rows of 7."""

    __slots__ = ("flat", "width")


def _json_text(value, indent):
    """The text ``json.dumps(value, indent=2, sort_keys=True)`` gives for
    ``value`` at ``indent``, without the pure-Python encoder that ``indent``
    selects, and with each _Rows printed as its list of rows.  An int prints
    through ``str``; a list of ints, such as a row of coordinates, is one
    join; and the rows of a _Rows are one ``%`` of a row template repeated
    over the flat values.  Other values go through the recursion.  Dict keys
    must be str; tuples print as lists."""
    if type(value) is int:
        return str(value)
    if isinstance(value, (list, tuple, _Rows)):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if type(value) is _Rows:
            cells = (sep + "  ").join(["%s"] * value.width)
            row = "[\n" + inner + "  " + cells + "\n" + inner + "]"
            body = (sep.join([row] * (len(value.flat) // value.width))
                    % tuple(value.flat))
        elif all(type(v) is int for v in value):
            body = sep.join(map(str, value))
        else:
            body = sep.join([_json_text(v, inner) for v in value])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return "{\n" + inner + (",\n" + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(value[k], inner)
             for k in sorted(value)]) + "\n" + indent + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def _emit_json(payload, out):
    out.write(_json_text(payload, ""))
    out.write("\n")


@contextmanager
def _printing(path, out):
    """A buffer whose text goes to ``out`` when printing completes.  It fails
    only on an integer with more digits than the interpreter converts to
    text, which sums of input numbers can reach: an input error of ``path``."""
    buffer = io.StringIO()
    try:
        yield buffer
    except ValueError as exc:
        raise _InputError("a number in the result for %s is too long to print"
                          % path, EX_INPUT) from exc
    out.write(buffer.getvalue())


def _link_summaries(tri):
    return [{"vertex": link.vertex, "triangles": len(link.triangles),
             "chi": link.euler_characteristic, "genus": link.genus,
             "sphere": link.is_sphere} for link in tri.links]


def _cmd_validate(args, out):
    tri = _load_triangulation(args.tri)
    if args.as_json:
        _emit_json({
            "valid": True,
            "tets": tri.tet_count,
            "vertex_classes": len(tri.links),   # a link per vertex class
            # classes are numbered 0..E-1 by first slot
            "edge_classes": max(tri.edge_class_at) + 1,
            "face_classes": 2 * tri.tet_count,
            "orientations": list(tri.tet_orientation),
            "links": _link_summaries(tri),
        }, out)
        return EX_OK
    out.write("valid\n")
    out.write("tets %d\n" % tri.tet_count)
    out.write("vertex classes %d\n" % len(tri.links))
    out.write("edge classes %d\n" % len(tri.edge_classes))
    out.write("face classes %d\n" % (2 * tri.tet_count))
    for i, sign in enumerate(tri.tet_orientation):
        out.write("orientation tet %d: %+d\n" % (i, sign))
    for e in tri.edge_classes:
        out.write("edge %d: tet %d %d->%d valence %d\n"
                  % (e.index, e.rep[0], e.tail_local, e.head_local, e.valence))
    return EX_OK


def _cmd_links(args, out):
    tri = _load_triangulation(args.tri)
    if args.as_json:
        _emit_json(_link_summaries(tri), out)
        return EX_OK
    for link in tri.links:
        out.write("vertex %d triangles %d chi %d genus %d sphere %s\n"
                  % (link.vertex, len(link.triangles),
                     link.euler_characteristic, link.genus,
                     "true" if link.is_sphere else "false"))
    return EX_OK


def _cmd_matrix(args, out):
    tri = _load_triangulation(args.tri)
    matrix = chains.boundary_matrix(tri)
    triplets = matrix.triplets()
    out.write("%d %d %d\n" % (matrix.nrows, matrix.ncols, len(triplets)))
    for r, c, v in triplets:
        out.write("%d %d %d\n" % (r, c, v))
    return EX_OK


def _cmd_classify(args, out):
    tri = _load_triangulation(args.tri)
    doc = _load_json(args.quads, "quads")
    try:
        q = solver.load_quads(doc, tri.tet_count)
    except ValueError as exc:
        raise _InputError(str(exc), EX_INPUT) from exc
    try:
        result = solver.lift(tri, q)
    except ValueError as exc:    # q has the right length: inadmissible
        raise _InputError("inadmissible quadrilateral coordinates in %s"
                          % args.quads, EX_INPUT) from exc
    with _printing(args.quads, out) as out:
        if args.as_json:
            payload = {
                "classification": result.classification,
                "coords": (_Rows(result.canonical_lift, 7)
                           if result.canonical_lift is not None else None),
                "shifts": {str(v): m for v, m in sorted(result.per_vertex_shift.items())},
                "cycle_failures": [
                    {"vertex": v,
                     "cells": [{"cell": tri.cell_name(cell), "sum": s}
                               for cell, s in items]}
                    for v, items in result.cycle_failures],
                "boundary_failures": [{"vertex": v, "reason": reason}
                                      for v, reason in result.boundary_failures],
            }
            _emit_json(payload, out)
            return _EXIT_BY_CLASS[result.classification]

        out.write("classification %s\n" % result.classification)
        if result.classification == solver.NORMAL:
            for tet in range(tri.tet_count):
                row = result.canonical_lift[7 * tet:7 * tet + 7]
                out.write("canonical tet %d: %s\n" % (tet, " ".join(map(str, row))))
            for v, m in sorted(result.per_vertex_shift.items()):
                out.write("shift vertex %d: %d\n" % (v, m))
        for v, items in result.cycle_failures:
            for cell, s in items:
                out.write("vertex %d cycle failure at %s: sum %d\n"
                          % (v, tri.cell_name(cell), s))
        for v, reason in result.boundary_failures:
            out.write("vertex %d boundary failure: %s\n" % (v, reason))
        return _EXIT_BY_CLASS[result.classification]


def _cmd_verify(args, out):
    tri = _load_triangulation(args.tri)
    doc = _load_json(args.coords, "coordinates")
    try:
        coords = solver.load_normal_coords(doc, tri.tet_count)
    except ValueError as exc:
        raise _InputError(str(exc), EX_INPUT) from exc
    report = solver.verify_normal(tri, coords)
    with _printing(args.coords, out) as out:
        if args.as_json:
            _emit_json({
                "valid": report.ok,
                "negatives": [{"disc": d, "value": v} for d, v in report.negatives],
                "quad_conflicts": [{"tet": t, "types": list(types)}
                                   for t, types in report.admissibility.conflicts],
                "violated_arcs": [{"arc": tri.arc_name(a), "value": v}
                                  for a, v in report.violated_arcs],
            }, out)
            return EX_OK if report.ok else EX_INPUT
        if report.ok:
            out.write("valid normal coordinates\n")
            return EX_OK
        for disc, value in report.negatives:
            out.write("negative coordinate at disc %d: %d\n" % (disc, value))
        for tet, types in report.admissibility.conflicts:
            out.write("tet %d carries quad types %s\n"
                      % (tet, " ".join(map(str, types))))
        for arc, value in report.violated_arcs:
            out.write("violated equation at %s: %d\n" % (tri.arc_name(arc), value))
        return EX_INPUT


_TRIPLET = re.compile(
    r"[ \t]*(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*")


def _three_ints(line):
    """The three integers of a line: ASCII ``-?[0-9]+`` numbers separated
    by spaces and tabs.  ``int`` alone would also read ``1_0`` as 10 and
    non-ASCII digits, and ``str.split`` also splits at non-ASCII spaces."""
    match = _TRIPLET.fullmatch(line)
    if match is None:
        raise ValueError
    return map(int, match.groups())


def _read_triplets(path):
    """The nonzero entries of a triplet-format matrix file as {(row, col):
    value}; a repeated position keeps its last value.  Every index must lie
    inside the header's shape and the file must hold exactly ``nnz``
    triplets.  Lines end at ``\n`` (one ``\r`` before it is dropped); a
    line of spaces and tabs is skipped."""
    text = _read_text(path, newline="")
    try:
        lines = [ln[:-1] if ln.endswith("\r") else ln
                 for ln in text.split("\n")]
        lines = [ln for ln in lines if ln.strip(" \t")]
        nrows, ncols, nnz = _three_ints(lines[0])
        if min(nrows, ncols, nnz) < 0 or len(lines) - 1 != nnz:
            raise ValueError
        entries = {}
        for ln in lines[1:]:
            r, c, v = _three_ints(ln)
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError
            entries[(r, c)] = v
    except (ValueError, IndexError) as exc:
        raise _InputError("malformed matrix file %s" % path, EX_INPUT) from exc
    return {rc: v for rc, v in entries.items() if v}


def _cmd_snf(args, out):
    # All-zero rows and columns do not change the invariant factors, so the
    # dense matrix spans only the rows and columns that hold an entry.
    entries = _read_triplets(args.matrix)
    row_of = {r: k for k, r in enumerate(sorted({r for r, _ in entries}))}
    col_of = {c: k for k, c in enumerate(sorted({c for _, c in entries}))}
    rows = [[0] * len(col_of) for _ in row_of]
    for (r, c), v in entries.items():
        rows[row_of[r]][col_of[c]] = v
    dec = smith_normal_form(IntMatrix(rows))
    out.write("invariant_factors %s\n"
              % " ".join(map(str, dec.invariant_factors)))
    return EX_OK


# subcommand: (handler, its flags in the order its help lists them)
_HANDLERS = {
    "validate": (_cmd_validate, ("--tri", "--json")),
    "links": (_cmd_links, ("--tri", "--json")),
    "matrix": (_cmd_matrix, ("--tri",)),
    "classify": (_cmd_classify, ("--tri", "--quads", "--json")),
    "verify": (_cmd_verify, ("--tri", "--coords", "--json")),
    "snf": (_cmd_snf, ("--matrix",)),
}


def run(argv, out=None, err=None):
    """Dispatch one CLI invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if not argv or argv[0] in ("-h", "--help"):
        out.write("usage: quadlift {%s} ...\n" % ",".join(_HANDLERS))
        return EX_OK if argv else EX_USAGE
    cmd = argv[0]
    if cmd not in _HANDLERS:
        err.write("unknown subcommand: %s\n" % cmd)
        return EX_USAGE
    handler, flags = _HANDLERS[cmd]
    args = _read_args(flags, argv[1:])
    if args is None:
        try:
            args = _parser(cmd, flags).parse_args(argv[1:])
        except _Usage as exc:
            code, text = exc.args
            (out if code == EX_OK else err).write(text)
            return code
    try:
        return handler(args, out)
    except _InputError as exc:
        err.write("error: %s\n" % exc)
        return exc.code


def main(argv=None):
    return run(list(sys.argv[1:]) if argv is None else list(argv))


def entry():
    sys.exit(main())
