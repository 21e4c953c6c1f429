"""Deterministic structured-text documents and CSV tables.

All on-disk configuration and report documents in this package are JSON with
two extra guarantees on the writing side:

* every real number is emitted with 17 significant digits, which is enough
  for an IEEE-754 double to survive a write/parse cycle bit-exactly;
* output is byte-deterministic: fixed key order (insertion order of the
  dicts handed in), fixed indentation, no locale dependence.

Reading goes through :class:`DocReader`, which tracks the key path so that
schema violations surface as ``FormatError("cameras[0].sub_areas[1].…")``
instead of a bare KeyError; the path is put into words only for an error.
Each kind of value is declared once, as a :class:`Doc` that pairs its
writer and its reader; :func:`record` makes a mapping kind of keyed
entries, written and read in the one declared order, that refuses any
other key.  A repeated key is refused as the text is parsed.

Detections, ground truth and the track are each a :class:`TableFormat`
of a :class:`Columns` table, which names its row class; Columns derives
each table's length, ``==``, ``concat`` and the conversion to and from
rows from their fields.  A str column of few distinct values that its
table declares :class:`Coded` is held as codes into its names.  A row
class declares each of its checks once, in its ``rules``, which
:func:`compile_rules` makes its row check and its column check.  A
format's file is first offered to :func:`fast_table`, which reads every
column in one pass of numpy's C reader (``np.loadtxt``) and keeps its
table only when every row passes the column check.  It declines any
other file (a quote, a NUL, a CR that does not end a line, a
row of another width, a real that is not finite, a bad flag, a row a rule
refuses), and :func:`read_columns` reads that one a row at a time through
the format's :func:`row_reader`, so every error comes from one place.
Segments go through the same row reader, and truth through its own.
Real-valued fields are read through :func:`real`, which owns the rule
that refuses ``nan`` and ``inf``; fast_table checks it once for every format.
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
from collections import Counter
from contextlib import contextmanager
from dataclasses import Field, dataclass, fields
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, TypeVar

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


def _mapping(pairs: list[tuple[str, Any]]) -> dict:
    """The mapping of ``pairs``, refusing a key that comes twice (``json``
    alone keeps its last value)."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise FormatError(f"repeated key {next(k for k, n in counts.items() if n > 1)!r}")
    return doc


def loads_doc(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_mapping)
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
    raises FormatError naming the full path on any mismatch.

    A child reader keeps its parent and its key, and builds its ``path``
    only when an error message asks for it.
    """

    __slots__ = ("value", "_parent", "_key")

    def __init__(self, value: Any, path: str = "", _parent: "DocReader | None" = None):
        self.value = value
        self._parent = _parent
        self._key: str | int = path  # a root's path, else its key in its parent

    @property
    def path(self) -> str:
        parent, key = self._parent, self._key
        if parent is None:
            return key
        if isinstance(key, int):
            return f"{parent.path}[{key}]"
        above = parent.path
        return f"{above}.{key}" if above else key

    def _fail(self, expected: str):
        where = self.path or "top level"
        found = type(self.value).__name__ if self.value is not None else "null"
        raise FormatError(f"{where}: expected {expected}, found {found}")

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
        return DocReader(self.value[name], name, self) if name in self.value else None

    # -- sequence access -----------------------------------------------------

    def items(self) -> Iterator["DocReader"]:
        if not isinstance(self.value, list):
            self._fail("an array")
        for i, item in enumerate(self.value):
            yield DocReader(item, i, self)

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

    def reals(self, *shape: int) -> list:
        """Nested lists of finite reals of ``shape``: ``reals(3, 3)`` is a 3x3 matrix.

        ``_reals`` reads a well-formed value with no reader at all.  Any
        other goes through one walk in document order, with a reader made
        per row but per number only at a fault, so each error names the
        path and reason that the ``fixed_list``/``real`` walk gives.
        """
        fast = _reals(self.value, shape)
        if fast is not None:
            return fast
        n, *inner = shape
        if not isinstance(self.value, list) or len(self.value) != n:
            self._fail(f"an array of {n} elements")
        if inner:
            return [DocReader(row, i, self).reals(*inner) for i, row in enumerate(self.value)]
        return [
            float(v) if _finite_real(v) else DocReader(v, i, self).real()
            for i, v in enumerate(self.value)
        ]


_NUMBER_TYPES = (int, float)
_MAX = sys.float_info.max


def _reals(value: Any, shape: tuple[int, ...]) -> list | None:
    """Nested lists of finite reals of ``shape``, if ``value`` is one whose
    lists are all of type list and numbers all of type int or float; else
    None.  A number of those types passes ``_finite_real`` exactly when its
    magnitude is at most the largest float."""
    n, *inner = shape
    if type(value) is not list or len(value) != n:
        return None
    if inner:
        rows = [_reals(row, inner) for row in value]
        return None if None in rows else rows
    floats = [float(v) for v in value if type(v) in _NUMBER_TYPES and abs(v) <= _MAX]
    return floats if len(floats) == n else None


def _finite_real(value: Any) -> bool:
    """A JSON number that is a finite real: not a bool, NaN, inf or huge integer."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and abs(value) <= sys.float_info.max
    )


# --- declared documents ------------------------------------------------------


@dataclass(frozen=True)
class Doc:
    """One kind of document value, declared once for both directions:
    ``write`` gives a value's document form, and ``read`` the value that a
    :class:`DocReader` over that form holds."""

    write: Callable[[Any], Any]
    read: Callable[[DocReader], Any]

    def items(self, n: int | None = None) -> "Doc":
        """A tuple of this kind, as an array of ``n`` elements or of any length."""
        write, read = self.write, self.read
        each = DocReader.items if n is None else lambda r: r.fixed_list(n)
        return Doc(lambda vs: [write(v) for v in vs], lambda r: tuple(map(read, each(r))))

    def by_key(self, expected: str) -> "Doc":
        """A dict of this kind, as a mapping; another value is not ``expected``."""

        def read(r: DocReader) -> dict:
            if not isinstance(r.value, dict):
                r._fail(expected)
            return {name: self.read(r.key(name)) for name in r.value}

        return Doc(lambda d: {k: self.write(v) for k, v in d.items()}, read)

    def load(self, doc: dict) -> Any:
        """The value of the parsed document ``doc``."""
        return self.read(DocReader(doc))


# The scalar kinds, each written as it is, and a tuple of two reals.
REAL, INTEGER, STRING, BOOLEAN = (
    Doc(lambda value: value, read)
    for read in (DocReader.real, DocReader.integer, DocReader.string, DocReader.boolean)
)
PAIR = Doc(list, lambda r: tuple(r.reals(2)))


def record(make: Callable[..., T], *entries: tuple) -> Doc:
    """A mapping whose value is ``make`` of its entries' values in turn.

    An entry is (key, attribute name or getter, Doc[, default]).  The writer
    puts the keys in the declared order, leaving out an entry with a default
    whose value is None.  The reader reads them in that order, so of two
    faults the first declared is named; an absent key reads as its default,
    and one with no default is refused.  After ``make``, the reader refuses
    the mapping's first key, in document order, that no entry declares.
    """
    plan = [
        (key, attrgetter(get) if isinstance(get, str) else get, doc, default)
        for key, get, doc, *default in entries
    ]
    declared = frozenset(key for key, *_ in plan)

    def write(value) -> dict:
        out = {}
        for key, get, doc, default in plan:
            item = get(value)
            if item is not None or not default:
                out[key] = doc.write(item)
        return out

    def read(r: DocReader) -> T:
        values = []
        for key, _, doc, default in plan:
            child = r.optional_key(key) if default else r.key(key)
            values.append(default[0] if child is None else doc.read(child))
        value = make(*values)
        if not declared.issuperset(r.value):
            name = next(name for name in r.value if name not in declared)
            raise FormatError(f"{r.path or 'top level'}: unknown key {name!r}")
        return value

    return Doc(write, read)


def unread(key: str, value: Any = None) -> tuple:
    """A record entry for a key that may be present but is not read: it
    reads as ``value`` either way, and is not written."""
    return (key, lambda _: None, Doc(lambda v: v, lambda r: value), value)


# --- CSV tables --------------------------------------------------------------


class FieldError(FormatError, ValueError):
    """A field or a row rule that fails; ``column`` names its column, "" the row."""

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


_FLAGS = {"true": True, "false": False}


def flag(text: str, column: str) -> bool:
    """One CSV field as a ``true``/``false`` flag."""
    try:
        return _FLAGS[text]
    except KeyError:
        raise FieldError(column, f"{column} must be true/false, got {text!r}") from None


def _text(text: str, column: str) -> str:
    return text


# The reader of a column, by its row class's field type as annotated (the
# package's modules postpone annotations, so the type is its name).
_FIELD_READERS = {"str": _text, "float": real, "bool": flag}


def nonempty(text):
    """Whether ``text`` is not empty; of a coded column, a mask of its rows,
    found by testing each name once."""
    if isinstance(text, Coded):
        names = text.names
        return np.fromiter(map(bool, names), bool, len(names))[text.codes]
    return bool(text)


def compile_rules(rules: tuple, **names) -> tuple[Callable, staticmethod]:
    """A row class's ``(check, passes)``, compiled from its ``rules``.

    A rule is (column, test, reason), column "" for the row as a whole;
    ``test`` is an expression in the row ``r``, :func:`nonempty`, ``inf``
    and ``names`` that works on floats and on columns alike.
    ``check(row)``, the ``__post_init__``, raises FieldError(column,
    reason.format(r=row)) for the first rule the row fails;
    static ``passes(table)`` is whether every row passes every rule.  One
    function each, compiled as dataclasses compiles ``__init__``: a call per
    rule cost about 0.9 us a row, 15% of ``generate_scenario`` (2-core VM).
    """
    checks = "".join(
        f"    if not ({test}):\n"
        f"        raise FieldError({column!r}, {reason!r}.format(r=r))\n"
        for column, test, reason in rules
    )
    tests = " and ".join(f"bool(({test}).all())" for _, test, _ in rules)
    scope = dict(names, nonempty=nonempty, inf=math.inf, FieldError=FieldError)
    exec(f"def check(r):\n{checks}\ndef passes(r):\n    return {tests}\n", scope)
    return scope["check"], staticmethod(scope["passes"])


def row_reader(header: tuple[str, ...], row: Callable[..., T]) -> Callable[..., T]:
    """``make(*texts)``: ``row`` of a CSV row's fields, each read in header
    order by its reader, so the first that does not read names its column."""
    readers = tuple(zip((_FIELD_READERS[f.type] for f in fields(row)), header))

    def make(*texts: str) -> T:
        return row(*[read(text, column) for (read, column), text in zip(readers, texts)])

    return make


def csv_field(text: str) -> str:
    """Quote ``text`` for a CSV row, doubling its quotes, if it holds , " CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass(frozen=True, eq=False)
class Coded:
    """A str column as codes: row ``i`` holds ``names[codes[i]]``.

    ``codes`` is an intp array; ``names`` holds each distinct value once,
    and each name is some row's, or the column is refused with a
    ValueError, so a consumer may look at the names in place of the rows.
    ``of``, ``concat`` and ``strip`` also put the names in the order of
    their first rows, so that one column has one coded form.  Iteration,
    ``tolist`` and ``==`` give and take the str values, as the str list of
    the same rows does.
    """

    codes: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.names)
        rows = np.bincount(self.codes, minlength=n)  # a negative code raises
        if len(rows) != n or not rows.all() or len(set(self.names)) != n:
            raise ValueError(f"each code must name one of {n} distinct names, each used")

    @classmethod
    def of(cls, strings) -> "Coded":
        """The coded form of a str list or a one-dimensional object array.

        An array whose every value equals its first is coded by one
        comparison; any other column through a dict of its names.
        """
        n = len(strings)
        if isinstance(strings, np.ndarray) and n and (strings == strings[0]).all():
            return cls(np.zeros(n, dtype=np.intp), (strings[0],))
        values = strings.tolist() if isinstance(strings, np.ndarray) else strings
        names = tuple(dict.fromkeys(values))
        index = dict(zip(names, range(len(names))))
        return cls(np.fromiter(map(index.__getitem__, values), np.intp, n), names)

    @staticmethod
    def concat(parts: list) -> "Coded":
        """The rows of ``parts`` in turn; each part's codes are mapped onto
        the union of their names."""
        names = tuple(dict.fromkeys(chain.from_iterable(p.names for p in parts)))
        index = dict(zip(names, range(len(names))))
        codes = [
            np.fromiter(map(index.__getitem__, p.names), np.intp, len(p.names))[p.codes]
            for p in parts
        ]
        return Coded(np.concatenate(codes), names)

    def strip(self) -> "Coded":
        """Each value ``str.strip``-ed; names that strip alike become one."""
        stripped = Coded.of(list(map(str.strip, self.names)))
        if stripped.names == self.names:
            return self
        return Coded(stripped.codes[self.codes], stripped.names)

    def tolist(self) -> list[str]:
        return np.array(self.names, dtype=object)[self.codes].tolist()

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Coded):
            if self.names == other.names:
                return np.array_equal(self.codes, other.codes)
            return self.tolist() == other.tolist()
        if isinstance(other, list):
            return self.tolist() == other
        return NotImplemented


def column_kinds(table: type) -> tuple[str, ...]:
    """Each column's kind, in field order: "Coded" where ``table`` declares
    its field ``Coded``, else the type of its row class's field: "str",
    "float" or "bool"."""
    return tuple(
        "Coded" if column.type == "Coded" else field.type
        for column, field in zip(fields(table), fields(table.row))
    )


class Columns:
    """A base for frozen dataclass tables whose fields are equal-length columns.

    A subclass names its row class ``row``, a dataclass with the same
    fields, whose type is each column's kind: a ``str`` column is a str
    list, a ``float`` or ``bool`` one a numpy array of that dtype.  A str
    column that the table declares ``Coded`` is a :class:`Coded` column
    instead: a column of few distinct values, such as camera ids, is
    compared, joined and grouped by its codes.  A subclass is declared
    ``@dataclass(frozen=True, eq=False)`` so that it keeps this ``==``,
    which holds when every column holds equal values, as the rows' tuples
    compare.
    """

    def columns(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b if isinstance(a, (list, Coded)) else np.array_equal(a, b)
            for a, b in zip(self.columns(), other.columns())
        )

    @classmethod
    def concat(cls, tables: list):
        """One table holding the rows of ``tables`` in turn."""
        if len(tables) == 1:
            return tables[0]

        def join(kind: str, parts: tuple) -> list | Coded | np.ndarray:
            if kind == "str":
                return list(chain.from_iterable(parts))
            if kind == "Coded":
                return Coded.concat(parts)
            return np.concatenate(parts)

        columns = zip(*(t.columns() for t in tables))
        return cls(*map(join, column_kinds(cls), columns))

    @classmethod
    def of(cls, objects: Iterable):
        """The table of ``objects``; each column holds their attribute of its name."""
        objects = list(objects)

        def column(f: Field, kind: str) -> list | Coded | np.ndarray:
            values = [getattr(o, f.name) for o in objects]
            if kind == "str":
                return values
            if kind == "Coded":
                return Coded.of(values)
            return np.array(values, dtype=kind)

        return cls(*map(column, fields(cls), column_kinds(cls)))

    def rows(self, make: Callable[..., T]) -> list[T]:
        """``make(*values)`` of each row in turn; array values come as Python
        scalars, and a coded column's as its str values."""
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
    """A CSV table, declared once.

    The i-th ``header`` column is the i-th field of the ``Columns`` class
    ``table`` and of its row class.  The row class's ``rules`` are each
    row's checks; the fast read runs them on the table's columns, and
    keeps a file only when every row passes.
    """

    header: tuple[str, ...]
    table: type

    @property
    def reals(self) -> tuple[int, ...]:
        """The positions in ``header`` of the real columns."""
        return tuple(i for i, f in enumerate(fields(self.table.row)) if f.type == "float")

    @property
    def make(self) -> Callable[..., Any]:
        """The row reader, ``row_reader(header, table.row)``."""
        return row_reader(self.header, self.table.row)

    def read(self, path, strict: bool = True) -> tuple[Any, list[CsvError]]:
        """File ``path`` as one table, plus the errors of skipped rows.

        ``fast_table`` reads it if it can; otherwise ``read_columns`` reads
        it one row at a time through ``make``, every error comes from
        there, and ``table.of`` puts the rows into the table.
        """
        table = fast_table(path, self)
        if table is not None:
            return table, []
        items, errors = read_file(path, read_columns, self.header, self.make, strict)
        return self.table.of(items), errors


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
    format, before the other columns are built), a flag ``flag`` refuses,
    or a row a rule refuses (the row class's ``passes``).  One np.loadtxt
    pass reads every column into a structured array, a float64 field per
    real column and a Python str per other; with no ``usecols`` it refuses
    a row of another width than the header's.  The str columns are
    stripped as read_columns strips them, unless ``_plain`` found no
    padding in the file; a coded column is coded first and then has only
    its names stripped.
    """
    kinds = column_kinds(fmt.table)
    dtype = np.dtype(
        [(h, float if kind == "float" else object) for h, kind in zip(fmt.header, kinds)]
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
    # one contiguous float64 copy, so no column keeps the object fields alive
    reals = np.array([rows[h] for h, kind in zip(fmt.header, kinds) if kind == "float"])
    if not np.isfinite(reals).all():
        return None
    stacked = iter(reals)
    columns = []
    for h, kind in zip(fmt.header, kinds):
        if kind == "float":
            columns.append(next(stacked))
            continue
        if kind == "Coded":
            column = Coded.of(rows[h])
            columns.append(column.strip() if padded else column)
            continue
        column = rows[h].tolist()
        if padded:
            column = list(map(str.strip, column))
        if kind == "bool":
            try:
                column = np.fromiter(map(_FLAGS.__getitem__, column), bool, len(column))
            except KeyError:
                return None
        columns.append(column)
    table = fmt.table(*columns)
    with np.errstate(all="ignore"):
        return table if fmt.table.row.passes(table) else None
