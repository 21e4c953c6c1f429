"""Deterministic structured-text documents and CSV tables.

All on-disk configuration and report documents in this package are JSON with
two extra guarantees on the writing side:

* every real number is emitted with 17 significant digits, which is enough
  for an IEEE-754 double to survive a write/parse cycle bit-exactly;
* output is byte-deterministic: fixed key order (insertion order of the
  dicts handed in), fixed indentation, no locale dependence.

Reading goes through :class:`DocReader`, which tracks the key path so that
schema violations surface as ``FormatError("cameras[0].sub_areas[1].…")``
instead of a bare KeyError.

The CSV tables (track, segments, truth) are read row by row through
:func:`read_table_file`, and their real-valued fields through
:func:`real`, which refuses ``nan`` and ``inf``.  Detections and ground
truth are read as columns through :func:`read_columns`, which keeps the
same row rules.
Every file is read as UTF-8; a byte that is not is a FormatError or
CsvError naming its line.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import CsvError, FormatError

T = TypeVar("T")

_INDENT = "  "


def format_real(x: float) -> str:
    """Render a float with 17 significant digits (round-trip safe).

    Zero is written as "0" whatever its sign bit: JSON parses "-0" as the
    integer zero, so emitting the sign would make a write/read/write cycle
    unstable at the byte level.  A NaN or an infinity has no JSON form and
    raises FormatError.
    """
    if not math.isfinite(x):
        raise FormatError(f"cannot write non-finite real {x!r}")
    if x == 0:
        return "0"
    return f"{x:.17g}"


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def _emit_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return format_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"unsupported scalar {type(value).__name__}")


def _scalar_at(value: Any, path: str) -> str:
    """_emit_scalar, naming the document path in a FormatError."""
    try:
        return _emit_scalar(value)
    except FormatError as exc:
        raise FormatError(f"{path or 'top level'}: {exc}") from None


def _emit(value: Any, depth: int, out: list[str], path: str) -> None:
    pad = _INDENT * depth
    if _is_scalar(value):
        out.append(_scalar_at(value, path))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        items = list(value.items())
        for i, (key, item) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            out.append(f"{pad}{_INDENT}{json.dumps(key)}: ")
            _emit(item, depth + 1, out, f"{path}.{key}" if path else key)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        if all(_is_scalar(v) for v in seq):
            out.append("[" + ", ".join(_scalar_at(v, path) for v in seq) + "]")
            return
        out.append("[\n")
        for i, item in enumerate(seq):
            out.append(pad + _INDENT)
            _emit(item, depth + 1, out, f"{path}[{i}]")
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"unsupported document value {type(value).__name__}")


def dumps_doc(doc: dict) -> str:
    """Serialize a nested dict/list/scalar structure to deterministic text."""
    out: list[str] = []
    _emit(doc, 0, out, "")
    out.append("\n")
    return "".join(out)


def write_doc(path, doc: dict) -> None:
    text = dumps_doc(doc)  # a document that cannot be written leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def loads_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise FormatError("top level: nested too deeply") from None
    except ValueError as exc:  # an integer with too many digits
        raise FormatError(f"top level: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("top level: expected a key/value mapping")
    return doc


def _first_bad_line(path) -> int:
    """The 1-based line of ``path`` holding its first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return data.count(b"\n") + 1


def read_doc(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"line {_first_bad_line(path)}: not UTF-8 text") from None
    return loads_doc(text)


class DocReader:
    """Schema-checking accessor over a parsed document.

    Each accessor narrows a value at ``path`` to the requested shape and
    raises FormatError naming the full path on any mismatch.
    """

    def __init__(self, value: Any, path: str = ""):
        self.value = value
        self.path = path

    def _fail(self, expected: str):
        where = self.path or "top level"
        found = type(self.value).__name__ if self.value is not None else "null"
        raise FormatError(f"{where}: expected {expected}, found {found}")

    def _child_path(self, key) -> str:
        if isinstance(key, int):
            return f"{self.path}[{key}]"
        return f"{self.path}.{key}" if self.path else key

    # -- mapping access ------------------------------------------------------

    def key(self, name: str) -> "DocReader":
        if not isinstance(self.value, dict):
            self._fail("a mapping")
        if name not in self.value:
            where = self.path or "top level"
            raise FormatError(f"{where}: missing required key {name!r}")
        return DocReader(self.value[name], self._child_path(name))

    def optional_key(self, name: str) -> "DocReader | None":
        if not isinstance(self.value, dict):
            self._fail("a mapping")
        if name not in self.value:
            return None
        return DocReader(self.value[name], self._child_path(name))

    def get(self, name: str, read: Callable[["DocReader"], T], default: T) -> T:
        """``read`` of the value at key ``name``, or ``default`` if it is absent."""
        r = self.optional_key(name)
        return default if r is None else read(r)

    # -- sequence access -----------------------------------------------------

    def items(self) -> Iterator["DocReader"]:
        if not isinstance(self.value, list):
            self._fail("an array")
        for i, item in enumerate(self.value):
            yield DocReader(item, self._child_path(i))

    def fixed_list(self, n: int) -> list["DocReader"]:
        if not isinstance(self.value, list) or len(self.value) != n:
            self._fail(f"an array of {n} elements")
        return list(self.items())

    # -- scalar access -------------------------------------------------------

    def real(self) -> float:
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            self._fail("a real number")
        if not abs(self.value) <= sys.float_info.max:  # NaN, inf or a huge integer
            self._fail("a finite real number")
        return float(self.value)

    def integer(self) -> int:
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            self._fail("an integer")
        return self.value

    def string(self) -> str:
        if not isinstance(self.value, str):
            self._fail("a string")
        return self.value

    def boolean(self) -> bool:
        if not isinstance(self.value, bool):
            self._fail("a boolean")
        return self.value

    def real_pair(self) -> tuple[float, float]:
        a, b = self.fixed_list(2)
        return a.real(), b.real()


# --- CSV tables --------------------------------------------------------------


class FieldError(ValueError):
    """A CSV field its column cannot hold; the table readers report the column."""

    def __init__(self, column: str, reason: str):
        super().__init__(reason)
        self.column = column


def real(text: str, column: str) -> float:
    """One CSV field as a finite real number."""
    try:
        value = float(text)
    except ValueError:
        raise FieldError(column, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise FieldError(column, f"not a finite number: {text!r}")
    return value


def csv_field(text: str) -> str:
    """Quote ``text`` for a CSV row, doubling its quotes, if it holds , " CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _records(lines: Iterable[str], header: tuple[str, ...]) -> Iterator[tuple[int, Any]]:
    """``(row number, fields)`` for each row of a CSV table headed by ``header``.

    The header must match exactly, else a CsvError names row 1.  Rows count
    from 1 at the header; blank rows are skipped.  A row without one field
    per column comes with a ValueError in place of its fields.  A row the
    csv module cannot split (a field over its size limit) raises a CsvError
    naming its line.
    """
    reader = csv.reader(lines)
    width = len(header)
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise CsvError(1, "", f"expected header {','.join(header)}")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) == width:
                yield row_no, row
            else:
                yield row_no, ValueError(f"expected {width} fields, got {len(row)}")
    except csv.Error as exc:
        raise CsvError(reader.line_num, "", str(exc)) from None


def _row_error(row_no: int, exc: Exception) -> CsvError:
    return CsvError(row_no, getattr(exc, "column", ""), str(exc))


def read_table(
    lines: Iterable[str],
    header: tuple[str, ...],
    make: Callable[[list[str]], T],
    strict: bool = True,
) -> tuple[list[T], list[CsvError]]:
    """Build one item per row of a CSV table headed exactly by ``header``.

    Each row's stripped fields go to ``make``, whose ValueError or
    FormatError becomes a CsvError naming the 1-based row (the header is
    row 1) and, for a FieldError, the column; so does a row of the wrong
    width.  Strict mode raises the first such error; otherwise bad rows are
    skipped and their errors returned.  See _records for the other rules.
    """
    items: list[T] = []
    errors: list[CsvError] = []
    for row_no, row in _records(lines, header):
        try:
            if isinstance(row, ValueError):
                raise row
            items.append(make([f.strip() for f in row]))
        except (ValueError, FormatError) as exc:
            if strict:
                raise _row_error(row_no, exc) from exc
            errors.append(_row_error(row_no, exc))
    return items, errors


# read_columns checks this many rows at a time, so that only their field
# texts are held at once.
_BLOCK_ROWS = 2048


def read_columns(
    lines: Iterable[str],
    header: tuple[str, ...],
    check: Callable[[list[list[str]]], tuple[T, list[tuple[int, Exception]]]],
    join: Callable[[list[T]], T],
    strict: bool = True,
) -> tuple[T, list[CsvError]]:
    """read_table for a ``check`` that takes a block of rows as columns.

    Each field is appended to its column as it is read.  Every
    ``_BLOCK_ROWS`` rows of the right width, and at the end, ``check`` gets
    the stripped columns and returns what it builds of them together with
    ``(index, exception)`` for each row it refuses, in index order; ``join``
    puts the blocks together.  The errors are those read_table would report,
    in row order.  A row the csv module cannot split, or a byte that is not
    UTF-8, still ends the read; in strict mode, an error of a row read
    before it is raised instead.
    """
    parts: list[T] = []
    errors: list[tuple[int, Exception]] = []

    def check_block(columns: list[list[str]], row_nos: list[int]) -> None:
        part, refused = check([list(map(str.strip, column)) for column in columns])
        parts.append(part)
        errors.extend((row_nos[index], exc) for index, exc in refused)
        errors.sort(key=lambda error: error[0])
        if strict and errors:
            raise _row_error(*errors[0]) from errors[0][1]

    columns: list[list[str]] = [[] for _ in header]
    row_nos: list[int] = []
    try:
        for row_no, row in _records(lines, header):
            if isinstance(row, ValueError):
                errors.append((row_no, row))
                continue
            row_nos.append(row_no)
            for column, field in zip(columns, row):
                column.append(field)
            if len(row_nos) == _BLOCK_ROWS:
                check_block(columns, row_nos)
                columns, row_nos = [[] for _ in header], []
    except (CsvError, UnicodeDecodeError) as exc:
        if strict:
            check_block(columns, row_nos)
        raise
    check_block(columns, row_nos)
    return join(parts), [_row_error(*error) for error in errors]


def read_file(path, read: Callable[..., T], *args) -> T:
    """``read(file, *args)`` over a UTF-8 file; a byte that is not is a CsvError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return read(fh, *args)
    except UnicodeDecodeError:
        raise CsvError(_first_bad_line(path), "", "not UTF-8 text") from None


def read_table_file(
    path,
    header: tuple[str, ...],
    make: Callable[[list[str]], T],
    strict: bool = True,
) -> tuple[list[T], list[CsvError]]:
    """read_table over a UTF-8 file."""
    return read_file(path, read_table, header, make, strict)
