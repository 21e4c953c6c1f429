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

Every CSV table is read by :func:`read_columns`, which hands blocks of
rows to a check as columns.  Detections and ground truth are checked by
column masks; the track, segments and truth are built one row at a time
through :func:`per_row`, their real-valued fields through :func:`real`,
which refuses ``nan`` and ``inf``.
Every file is read as UTF-8; a byte that is not is a FormatError or
CsvError naming its line.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from itertools import chain, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

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


# A read_columns check: the stripped columns of a block of rows in, what it
# builds of them and ``(index, exception)`` for each row it refuses out.
Check = Callable[[list[list[str]]], tuple[T, list[tuple[int, Exception]]]]


def float_column(texts: list[str]) -> np.ndarray:
    """``float`` of each text, NaN where a text is not a number."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        pass
    values = []
    for text in texts:
        try:
            values.append(float(text))
        except ValueError:
            values.append(math.nan)
    return np.array(values, dtype=float)


def checked_table(table, ok: np.ndarray, columns: list[list[str]], make):
    """``table`` less the rows mask ``ok`` refuses, and ``(index, error)`` of each.

    Only a refused row goes through ``make(*fields)``, the per-row reader
    of the ``columns`` the table was read from, whose ValueError names the
    row's first failing column; a row the mask refuses but ``make`` accepts
    is kept.
    """
    refused = []
    for i in np.flatnonzero(~ok).tolist():
        try:
            make(*[column[i] for column in columns])
        except ValueError as exc:
            refused.append((i, exc))
        else:
            ok[i] = True
    return (table if ok.all() else table.take(np.flatnonzero(ok))), refused


def per_row(make: Callable[..., T]) -> Check[list[T]]:
    """A read_columns check that builds one item per row as ``make(*fields)``;
    a ValueError or FormatError of ``make`` refuses the row."""

    def check(columns: list[list[str]]) -> tuple[list[T], list[tuple[int, Exception]]]:
        items: list[T] = []
        refused: list[tuple[int, Exception]] = []
        for i, fields in enumerate(zip(*columns)):
            try:
                items.append(make(*fields))
            except (ValueError, FormatError) as exc:
                refused.append((i, exc))
        return items, refused

    return check


def _chained(parts: list[list[T]]) -> list[T]:
    return list(chain.from_iterable(parts))


def _row_error(row_no: int, exc: Exception) -> CsvError:
    return CsvError(row_no, getattr(exc, "column", ""), str(exc))


# read_columns reads and checks this many rows at a time, so that only
# their field texts are held at once.
_BLOCK_ROWS = 2048


def read_columns(
    lines: Iterable[str],
    header: tuple[str, ...],
    check: Check[T],
    join: Callable[[list[T]], T] = _chained,
    strict: bool = True,
) -> tuple[T, list[CsvError]]:
    """A CSV table headed exactly by ``header``, built block by block by ``check``.

    The header must match exactly, else a CsvError names row 1.  Rows count
    from 1 at the header; blank rows are skipped.  Every ``_BLOCK_ROWS``
    rows, and at the end, ``check`` gets the stripped fields of the rows of
    the right width as columns, and returns what it builds of them together
    with ``(index, exception)`` for each row it refuses; ``join`` puts the
    blocks together.  A refused row, or one of the wrong width, becomes a
    CsvError naming its row and, for a FieldError, its column.  Strict mode
    raises the first of them; otherwise bad rows are skipped and their
    errors returned in row order.

    A row the csv module cannot split (a field over its size limit) raises
    a CsvError naming its line; a byte that is not UTF-8 raises the
    UnicodeDecodeError that read_file turns into one.  In strict mode, an
    error of a row read before either is raised instead.
    """
    reader = csv.reader(lines)
    width = len(header)
    parts: list[T] = []
    errors: list[tuple[int, Exception]] = []

    def check_block(rows: list[list[str]], first_no: int) -> None:
        row_nos: Sequence[int] = range(first_no, first_no + len(rows))
        block_errors: list[tuple[int, Exception]] = []
        if width == 1 or set(map(len, rows)) != {width}:
            kept, kept_nos = [], []
            for row_no, row in zip(row_nos, rows):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) == width:
                    kept.append(row)
                    kept_nos.append(row_no)
                else:
                    reason = f"expected {width} fields, got {len(row)}"
                    block_errors.append((row_no, ValueError(reason)))
            rows, row_nos = kept, kept_nos
        columns = [list(map(str.strip, column)) for column in zip(*rows)]
        part, refused = check(columns or [[] for _ in header])
        parts.append(part)
        block_errors.extend((row_nos[index], exc) for index, exc in refused)
        block_errors.sort(key=itemgetter(0))
        errors.extend(block_errors)
        if strict and errors:
            raise _row_error(*errors[0]) from errors[0][1]

    rows: list[list[str]] = []
    row_no = 1  # the header's
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise CsvError(1, "", f"expected header {','.join(header)}")
        while True:
            rows = []
            rows.extend(islice(reader, _BLOCK_ROWS))  # keeps rows read before an error
            check_block(rows, row_no + 1)
            row_no += len(rows)
            if len(rows) < _BLOCK_ROWS:
                break
    except (csv.Error, UnicodeDecodeError) as exc:
        if strict:
            check_block(rows, row_no + 1)
        if isinstance(exc, csv.Error):
            raise CsvError(reader.line_num, "", str(exc)) from None
        raise
    return join(parts), [_row_error(*error) for error in errors]


def read_file(path, read: Callable[..., T], *args) -> T:
    """``read(file, *args)`` over a UTF-8 file; a byte that is not is a CsvError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return read(fh, *args)
    except UnicodeDecodeError:
        raise CsvError(_first_bad_line(path), "", "not UTF-8 text") from None

