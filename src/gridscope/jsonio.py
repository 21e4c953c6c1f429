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

Detections, ground truth and the track are each a :class:`TableFormat`,
and the tables share :class:`Columns`, which derives their length, ``==``,
``concat`` and the conversion to and from objects from their fields.
A format's file is first offered to :func:`fast_table`, which reads every
column in one pass of numpy's C reader (``np.loadtxt``) and keeps its
table only when the format's column masks pass every row.  It declines
any other file (a quote, a NUL, a CR that does not end a line, a row of
another width, a real that is not finite, a row a mask refuses), and
:func:`read_columns` reads that one a row at a time through the format's
row reader, whose items ``of`` puts into the table; so a row is accepted
or refused by one rule, and every error comes from one place.  Segments
and truth are read by read_columns alone, as lists of items.  Real-valued
fields are read through :func:`real`, which owns the rule that refuses
``nan`` and ``inf``; fast_table checks it once for every format.
Every file is read as UTF-8; a byte that is not is a FormatError or
CsvError naming its line, unless a CSV row in front of that line is bad.
An error raised while a file is read (:func:`read_file`, :func:`load_doc`)
leads with the file's path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import Field, dataclass, fields
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import CsvError, FormatError, GridscopeError

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


def _first_bad_line(path) -> tuple[int, str]:
    """The 1-based line of ``path`` holding its first byte that is not
    UTF-8, and the text of the whole lines before it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[: exc.start]
    return data.count(b"\n") + 1, data[: data.rfind(b"\n") + 1].decode("utf-8")


def read_doc(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise FormatError(f"line {_first_bad_line(path)[0]}: not UTF-8 text") from None
    return loads_doc(text)


@contextmanager
def naming(path):
    """A package error raised inside is about file ``path``: it leads with it."""
    try:
        yield
    except GridscopeError as exc:
        exc.path = exc.path or path  # the innermost file named is kept
        raise


def load_doc(path, build: Callable[[dict], T]) -> T:
    """``build`` of the document in file ``path``; its errors name the file."""
    with naming(path):
        return build(read_doc(path))


class DocReader:
    """Schema-checking accessor over a parsed document.

    Each accessor narrows a value at ``path`` to the requested shape and
    raises FormatError naming the full path on any mismatch.  The readers of
    one document note each key asked of each mapping, so
    ``refuse_unread_keys`` can turn away a key that nothing reads.
    """

    def __init__(self, value: Any, path: str = "", _asked: dict | None = None):
        self.value = value
        self.path = path
        # id of each mapping asked for a key: (its path, the mapping, keys asked)
        self._asked = {} if _asked is None else _asked

    def _fail(self, expected: str):
        where = self.path or "top level"
        found = type(self.value).__name__ if self.value is not None else "null"
        raise FormatError(f"{where}: expected {expected}, found {found}")

    def _child_path(self, key) -> str:
        if isinstance(key, int):
            return f"{self.path}[{key}]"
        return f"{self.path}.{key}" if self.path else key

    def _child(self, key) -> "DocReader":
        return DocReader(self.value[key], self._child_path(key), self._asked)

    # -- mapping access ------------------------------------------------------

    def key(self, name: str) -> "DocReader":
        child = self.optional_key(name)
        if child is None:
            where = self.path or "top level"
            raise FormatError(f"{where}: missing required key {name!r}")
        return child

    def optional_key(self, name: str) -> "DocReader | None":
        if not isinstance(self.value, dict):
            self._fail("a mapping")
        entry = self._asked.setdefault(id(self.value), (self.path, self.value, set()))
        entry[2].add(name)
        return self._child(name) if name in self.value else None

    def refuse_unread_keys(self) -> None:
        """Raise FormatError naming the first key, of any mapping of this
        document asked for a key so far, that none of its readers asked for."""
        for path, mapping, asked in self._asked.values():
            for name in mapping:
                if name not in asked:
                    raise FormatError(f"{path or 'top level'}: unknown key {name!r}")

    def get(self, name: str, read: Callable[["DocReader"], T], default: T) -> T:
        """``read`` of the value at key ``name``, or ``default`` if it is absent."""
        r = self.optional_key(name)
        return default if r is None else read(r)

    # -- sequence access -----------------------------------------------------

    def items(self) -> Iterator["DocReader"]:
        if not isinstance(self.value, list):
            self._fail("an array")
        for i in range(len(self.value)):
            yield self._child(i)

    def fixed_list(self, n: int) -> list["DocReader"]:
        if not isinstance(self.value, list) or len(self.value) != n:
            self._fail(f"an array of {n} elements")
        return list(self.items())

    # -- scalar access -------------------------------------------------------

    def real(self) -> float:
        if _finite_real(self.value):
            return float(self.value)
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            self._fail("a real number")
        self._fail("a finite real number")  # NaN, inf or a huge integer

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
        a, b = self.reals(2)
        return a, b

    def reals(self, *shape: int) -> list:
        """Nested lists of finite reals of ``shape``: ``reals(3, 3)`` is a 3x3 matrix.

        One walk in document order, with a reader made per row but per number
        only at a fault, so each error names the path and reason that the
        ``fixed_list``/``real`` walk gives.
        """
        n, *inner = shape
        if not isinstance(self.value, list) or len(self.value) != n:
            self._fail(f"an array of {n} elements")
        if inner:
            return [self._child(i).reals(*inner) for i in range(n)]
        return [
            float(v) if _finite_real(v) else self._child(i).real()
            for i, v in enumerate(self.value)
        ]


def _finite_real(value: Any) -> bool:
    """A JSON number that is a finite real: not a bool, NaN, inf or huge integer."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max
    )


# --- CSV tables --------------------------------------------------------------


class FieldError(FormatError, ValueError):
    """A field, or a one-column check, that fails; the table readers name the column."""

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


class Columns:
    """A base for frozen dataclass tables whose fields are equal-length columns.

    A field annotated ``list[str]`` is a str list; any other is a numpy
    array of float64, or of the ``dtype`` its field metadata names.  A
    subclass is declared ``@dataclass(frozen=True, eq=False)`` so that it
    keeps this ``==``, which holds when every column holds equal values, as
    the rows' tuples compare.
    """

    def columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b if isinstance(a, list) else np.array_equal(a, b)
            for a, b in zip(self.columns(), other.columns())
        )

    @classmethod
    def concat(cls, tables: list):
        """One table holding the rows of ``tables`` in turn."""
        if len(tables) == 1:
            return tables[0]
        return cls(
            *(
                list(chain.from_iterable(parts))
                if isinstance(parts[0], list)
                else np.concatenate(parts)
                for parts in zip(*(t.columns() for t in tables))
            )
        )

    @classmethod
    def of(cls, objects: Iterable):
        """The table of ``objects``; each column holds their attribute of its name."""
        objects = list(objects)

        def column(f: Field) -> list | np.ndarray:
            values = [getattr(o, f.name) for o in objects]
            if str(f.type).startswith("list"):
                return values
            return np.array(values, dtype=f.metadata.get("dtype", float))

        return cls(*map(column, fields(cls)))

    def rows(self, make: Callable[..., T]) -> list[T]:
        """``make(*values)`` of each row in turn; array values come as Python scalars."""
        columns = [c if isinstance(c, list) else c.tolist() for c in self.columns()]
        return list(map(make, *columns))


def read_columns(
    lines: Iterable[str],
    header: tuple[str, ...],
    make: Callable[..., T],
    strict: bool = True,
) -> tuple[list[T], list[CsvError]]:
    """The rows of a CSV table headed exactly by ``header``, each built by ``make``.

    The header must match exactly, else a CsvError names row 1.  Rows count
    from 1 at the header; blank rows are skipped.  Each other row of the
    header's width becomes ``make(*fields)`` of its stripped fields.  A row
    of another width, or one whose ``make`` raises a ValueError or
    FormatError, becomes a CsvError naming its row and, for a FieldError,
    its column.  Strict mode raises the first of them; otherwise bad rows
    are skipped and their errors returned in row order.

    A row the csv module cannot split (a field over its size limit) raises
    a CsvError naming its line.  A byte that is not UTF-8 raises the
    UnicodeDecodeError that read_file turns into a CsvError.
    """
    reader = csv.reader(lines)
    width = len(header)
    items: list[T] = []
    errors: list[CsvError] = []
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise CsvError(1, "", f"expected header {','.join(header)}")
        for row_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                items.append(make(*map(str.strip, row)))
            except (ValueError, FormatError) as exc:
                error = CsvError(row_no, getattr(exc, "column", ""), str(exc))
                if strict:
                    raise error from exc
                errors.append(error)
    except csv.Error as exc:
        raise CsvError(reader.line_num, "", str(exc)) from None
    return items, errors


def read_file(path, read: Callable[..., T], *args) -> T:
    """``read(file, *args)`` over a UTF-8 file; a byte that is not is a CsvError.

    The decoder reads ahead, so it can meet a bad byte before ``read`` has
    seen the lines in front of it: those lines are read again on their
    own, and a CsvError that raises there is raised instead.  Errors name the file.
    """
    with naming(path):
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                return read(fh, *args)
        except UnicodeDecodeError:
            pass
        line, head = _first_bad_line(path)
        if line > 1:
            read(io.StringIO(head, newline=""), *args)
        raise CsvError(line, "", "not UTF-8 text")


# --- column tables -----------------------------------------------------------


@dataclass(frozen=True)
class TableFormat:
    """A CSV layout read into one ``Columns`` table.

    ``reals`` are the positions in ``header`` of the real-valued columns;
    the others are text.  ``make(*fields)`` reads one row, and ``of`` puts
    the items it makes into the table.  ``mask(texts, reals)`` says which
    rows ``make`` accepts, from the stripped text columns and the float64
    real columns in header order, and ``build(texts, reals)`` makes the
    table of them; the fast read keeps a file only when every row passes.
    A mask holds only the format's own checks, given finite reals.
    """

    header: tuple[str, ...]
    reals: tuple[int, ...]
    mask: Callable[[list[list[str]], Sequence[np.ndarray]], np.ndarray]
    build: Callable[[list[list[str]], Sequence[np.ndarray]], Any]
    make: Callable[..., Any]
    of: Callable[[list], Any]

    @property
    def texts(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.header)) if i not in self.reals)

    def read(self, path, strict: bool = True) -> tuple[Any, list[CsvError]]:
        """File ``path`` as one table, plus the errors of skipped rows.

        ``fast_table`` reads it if it can; otherwise ``read_columns`` reads
        it one row at a time through ``make``, and every error comes from
        there.
        """
        table = fast_table(path, self)
        if table is not None:
            return table, []
        items, errors = read_file(path, read_columns, self.header, self.make, strict)
        return self.of(items), errors


# Bytes that the csv module reads otherwise than a split on commas and
# newlines: a quote and a NUL.  A CR is plain only right before an LF, where
# the csv module and np.loadtxt's universal newlines both end the line.
_NOT_PLAIN = (b'"', b"\0")
# The ASCII bytes that str.strip removes, but for the LF and CR of a line end.
_PADDING = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"


def _plain(path, header: tuple[str, ...]) -> bool | None:
    """Whether a field of file ``path`` may hold padding, if the csv module
    reads the file as a plain split on commas and newlines below a first
    line that is ``header`` as read_columns checks it; else None.

    The file is read as one buffer, which ``bytes`` searches check at
    offsets.  The split is plain when it holds no byte of ``_NOT_PLAIN``,
    no CR but in a CRLF line end and no line longer than the csv field size
    limit: the header and the body's first and last lines are measured, and
    each window of half the limit between the body's first and last LF must
    hold an LF, so a line longer than the limit is never taken, and one
    longer than half of it may be declined.  A file with no comma below the
    header is declined too: it has no row, and np.loadtxt warns on a body
    with no row.  Padding is a byte that is not ASCII, or one of
    ``_PADDING``; a file with neither holds no field that str.strip changes.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        data = fh.read()
    body = data.find(b"\n", 0, limit + 1) + 1  # 0 if the header has no LF
    if not body or data.find(b",", body) < 0:
        return None
    bare_cr = b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    if bare_cr or any(b in data for b in _NOT_PLAIN):
        return None
    if tuple(h.strip() for h in data[:body].decode("utf-8").split(",")) != header:
        return None
    last = data.rfind(b"\n")  # the header's LF if the body has none
    first = data.find(b"\n", body) if last >= body else last
    if first - body > limit or len(data) - 1 - last > limit:
        return None
    half = max(limit // 2, 1)
    for start in range(first + 1, last, half):
        if data.find(b"\n", start, start + half) < 0:
            return None
    return not data.isascii() or any(b in data for b in _PADDING)


def fast_table(path, fmt: TableFormat):
    """``fmt``'s table of file ``path``, read by numpy's C reader, if that
    is exactly the table ``fmt.read`` gets from read_columns with no error;
    else None.

    It declines a file that the csv module would not read as a plain split
    on commas (``_plain``), one that np.loadtxt cannot read, one with a
    real that is not finite (the rule of ``real``, checked here for every
    format, before the text columns are built) and one with a row that a
    mask refuses.  One np.loadtxt pass reads every column into a structured
    array, a float64 field per real column and a Python str per text
    column; with no ``usecols`` it refuses a row of another width than the
    header's.  The text columns are stripped as read_columns strips them,
    unless ``_plain`` found no padding in the file, where stripping changes
    no field.
    """
    dtype = np.dtype(
        [(h, float if i in fmt.reals else object) for i, h in enumerate(fmt.header)]
    )
    try:
        padded = _plain(path, fmt.header)
        if padded is None:
            return None
        rows = np.loadtxt(
            path,
            dtype=dtype,
            delimiter=",",
            comments=None,
            quotechar=None,
            skiprows=1,
            ndmin=1,
            encoding="utf-8",
        )
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    reals = np.array([rows[fmt.header[i]] for i in fmt.reals])
    if not np.isfinite(reals).all():
        return None
    texts = [rows[fmt.header[i]].tolist() for i in fmt.texts]
    if padded:
        texts = [list(map(str.strip, text)) for text in texts]
    if not fmt.mask(texts, reals).all():
        return None
    return fmt.build(texts, reals)
