"""The JSON readers for algebra, bimodule and operator documents, and the canonical writer.

Rationals appear as "p/q" strings ("p" when the denominator is 1) in
every document; a plain JSON integer is also read.  Operator documents
carry the content hash of the algebra they were solved on and are
rejected against anything else.  A malformed rational, a grid that is
not a list of lists, a document that is not an object or that lacks a
required key, a label that is not a JSON string, or a ``dim`` that is
not a JSON int >= 0 (for an algebra: equal to its table size) raises
ValueError, as does a file nested too deeply for the JSON reader.  A
message echoes the offending value through ``brief``, so it stays one
short line however large or deeply nested the value is.  Every grid of
rationals is read by ``_grid``, through ``_Rationals``, so each distinct
string of a document is parsed once.  The writer
also takes a rational vector, a list or tuple of Fractions, as a leaf.
"""

from __future__ import annotations

import json
import re
import reprlib
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Sequence

from .algebra import LinearOperator, StructureConstants
from .errors import DimensionMismatch, HashMismatch
from .gma import Bimodule
from .linalg import _ZERO, grid_nonzeros

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_CONSTANTS = {None: "null", True: "true", False: "false"}
_fraction_str = Fraction.__str__


def brief(value) -> str:
    """reprlib's bounded repr of a value echoed in a message, cut to at most 80 characters."""
    text = reprlib.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def parse_rat(s) -> Fraction:
    """A JSON int (not a bool), or a "p" or "p/q" string with q != 0, read off one regex match."""
    if isinstance(s, str):
        m = _RATIONAL.fullmatch(s)
        if m:
            num, den = m.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
    elif isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ValueError(f"not a rational: {brief(s)}")


def _expect(value, kind: type, what: str, *keys: str):
    """value itself when it is a JSON object (kind dict) holding keys, or a list (kind list)."""
    if not isinstance(value, kind):
        json_kind = "object" if kind is dict else "list"
        raise ValueError(f"{what} must be a JSON {json_kind}, not {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ValueError(f'{what} is missing "{key}"')
    return value


def _dim(value, what: str) -> int:
    """A JSON int (not a bool) that is at least 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a JSON int >= 0, not {brief(value)}")
    return value


class _Rationals(dict):
    """A document's rational strings, each read by ``parse_rat`` on its first lookup."""

    def __missing__(self, cell: str) -> Fraction:
        x = self[cell] = parse_rat(cell)
        return x


def _grid(rows, parsed: _Rationals) -> list:
    """A JSON list of lists of rationals, its strings read through the document's ``parsed``."""
    return [
        [parsed[x] if type(x) is str else parse_rat(x) for x in _expect(row, list, "grid row")]
        for row in _expect(rows, list, "grid")
    ]


def parse_grid(rows) -> list:
    """A JSON list of lists of rationals, each distinct string parsed once."""
    return _grid(rows, _Rationals())


def _parse_planes(planes) -> list:
    """The planes of a tensor as grids of rationals, each distinct string of the document parsed once."""
    parsed = _Rationals()
    return [_grid(plane, parsed) for plane in _expect(planes, list, "tensor")]


def sc_from_doc(doc: dict) -> StructureConstants:
    _expect(doc, dict, "algebra document", "table")
    labels = doc.get("labels")
    if labels is not None:
        for label in _expect(labels, list, "labels"):
            if not isinstance(label, str):
                raise ValueError(f"labels must be JSON strings, not {brief(label)}")
    table = _parse_planes(doc["table"])
    n = len(table)
    if "dim" in doc and _dim(doc["dim"], "algebra dim") != n:
        raise ValueError(f"algebra dim {brief(doc['dim'])} but the table has size {n}")
    return StructureConstants(n, grid_nonzeros(table, (n, n, n), "structure"), labels)


def bimodule_from_doc(doc: dict, left_dim: int, right_dim: int) -> Bimodule:
    _expect(doc, dict, "bimodule document", "dim", "left", "right")
    dim = _dim(doc["dim"], "bimodule dim")
    left, right = _parse_planes(doc["left"]), _parse_planes(doc["right"])
    left = grid_nonzeros(left, (left_dim, dim, dim), "left action")
    return Bimodule(dim, left_dim, right_dim, left, grid_nonzeros(right, (dim, right_dim, dim), "right action"))


def operator_from_doc(doc: dict, algebra: StructureConstants) -> LinearOperator:
    _expect(doc, dict, "operator document", "matrix")
    if doc.get("algebra_hash") != algebra.content_hash:
        raise HashMismatch(
            "operator was saved against a different algebra "
            f"({brief(doc.get('algebra_hash'))} != {brief(algebra.content_hash)})"
        )
    cols, n = parse_grid(doc["matrix"]), algebra.dim
    if len(cols) != n or any(len(col) != n for col in cols):
        raise DimensionMismatch(f"an operator on a dim-{n} algebra needs {n} columns of {n} entries each")
    return LinearOperator(algebra, [x for col in cols for x in col])


def dump_json(doc: dict) -> str:
    """Canonical rendering: sorted keys, fixed separators, trailing newline.

    The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``,
    a rational vector (a list or tuple of Fractions) read as its
    ``vector_doc``.  With an indent, ``json.dumps`` runs its pure-Python
    encoder; here each string goes through the C quoter of the json
    module, and a list of strings or a rational vector is joined in one
    call.  A document holds dicts with str keys, lists, tuples, strs,
    ints, bools, None and rational vectors; anything else, a float, a
    lone Fraction or a non-str key included, raises TypeError.
    """
    out: list[str] = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list[str]) -> None:
    """Append the JSON of value to out, ``newline`` being a line break and the indent of value's line."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if isinstance(value, dict):
            if not all(isinstance(key, str) for key in value):
                raise TypeError("JSON object keys must be str")
            out.append("{")
            for k, key in enumerate(sorted(value)):
                out += (sep if k else inner, _quote(key), ": ")
                _render(value[key], inner, out)
            out += (newline, "}")
            return
        try:
            if isinstance(value[0], Fraction):  # a rational vector: no other type has the fields __str__ reads
                body = '"' + ('"' + sep + '"').join(["0" if x is _ZERO else _fraction_str(x) for x in value]) + '"'
            else:
                body = sep.join(map(_quote, value))
            out += ("[", inner, body, newline, "]")
        except (TypeError, AttributeError):  # not every item is a str, or a Fraction: the item refused raises again
            out.append("[")
            for k, item in enumerate(value):
                out.append(sep if k else inner)
                _render(item, inner, out)
            out += (newline, "]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} as JSON")


def load_json(path: str) -> dict:
    """The JSON document at path; an error names the path through ``brief``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(exc.errno, f"{exc.strerror}: {brief(path)}") from None
    except RecursionError:
        raise ValueError(f"{brief(path)}: JSON nested too deeply to read") from None


def vector_doc(v: Sequence[Fraction]) -> list:
    """v as rational strings; the shared zero ``Subspace`` fills in is written without ``Fraction.__str__``.

    It serves the ``solve --format text`` lines and the hypotheses (c)/(d)
    vectors, which their text line prints as strings.
    """
    return ["0" if x is _ZERO else str(x) for x in v]
