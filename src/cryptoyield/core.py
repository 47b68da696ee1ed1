"""Shared numeric conventions, portfolio statistics, CSV ingest and config keys.

Everything downstream (pool yields, loan pricing, funding, implied rates)
quotes rates per 365 days by default (`RateConvention`). The CSV reader
behind every loader and the key table behind every command config live
here too.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from collections import namedtuple
from dataclasses import dataclass
from datetime import date, datetime, timezone
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    IllConditionedError,
    InputError,
    UndefinedRatioError,
)

SECONDS_PER_DAY = 86_400.0

# Condition number above which the Kelly solve is refused.
KELLY_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class RateConvention:
    """Day-count and compounding convention for quoting annualized rates.

    The default is the crypto market convention: rates in fractions per
    365 days, continuous compounding.
    """

    days_per_year: float = 365.0
    compounding: str = "continuous"

    def __post_init__(self):
        if self.days_per_year <= 0:
            raise DomainError(f"days_per_year must be > 0, got {self.days_per_year}")
        if self.compounding not in ("continuous", "simple"):
            raise DomainError(f"unknown compounding {self.compounding!r}")

    def year_fraction(self, seconds: float) -> float:
        """Convert a duration in seconds to years under this convention."""
        return seconds / (SECONDS_PER_DAY * self.days_per_year)

    def rate_from_simple_return(self, net_return, tenor_years):
        """Annualized rate from a net return over ``tenor_years``, of floats or per element of arrays.

        Uses log1p so tiny returns keep their sign instead of underflowing
        through 1 + net_return.
        """
        refuse_first(
            (tenor_years, tenor_years <= 0, "tenor must be > 0, got {}"),
            (net_return, net_return <= -1.0, "net return must exceed -1, got {}"),
        )
        if self.compounding == "continuous":
            return each(math.log1p, net_return) / tenor_years
        return net_return / tenor_years


def each(fn, values):
    """`fn` (a `math` function of one float) of a float, or of each element of a float array.

    The reports take their logarithms from `math` one element at a time
    because numpy's own log ufuncs round differently on different CPUs.
    """
    if np.ndim(values) == 0:
        return fn(values)
    return np.fromiter(map(fn, values.tolist()), float, len(values))


def refuse_first(*rules):
    """Raise a DomainError for the first element that a rule refuses, of floats and arrays alike.

    Each rule is (values, refused, message): `refused` marks elements of
    `values`, and the error is `message` formatted with the first refused
    element's value. Within one element the rules are tried in the order
    given, as a scalar check would try them.
    """
    shape = np.broadcast_shapes(*(np.shape(values) for values, _, _ in rules))
    masks = [np.broadcast_to(refused, shape).ravel() for _, refused, _ in rules]
    broken = first_broken(list(zip(masks, rules)))
    if broken:
        row, (values, _, message) = broken
        raise DomainError(message.format(np.broadcast_to(values, shape).ravel()[row].item()))


@dataclass(frozen=True)
class ReturnStats:
    """Per-period return moments plus the sampling frequency.

    mean and vol are per observation period; periods_per_year converts them
    to annualized terms.
    """

    mean: float
    vol: float
    periods_per_year: float

    def __post_init__(self):
        if self.vol < 0:
            raise DomainError(f"vol must be >= 0, got {self.vol}")
        if self.periods_per_year <= 0:
            raise DomainError(f"periods_per_year must be > 0, got {self.periods_per_year}")

    @property
    def annualized_mean(self) -> float:
        return self.mean * self.periods_per_year

    @property
    def annualized_vol(self) -> float:
        return self.vol * math.sqrt(self.periods_per_year)


def sharpe_ratio(stats: ReturnStats, riskless_rate: float) -> float:
    """(annualized mean - riskless rate) / annualized vol."""
    if stats.vol == 0:
        raise UndefinedRatioError("Sharpe ratio undefined for zero volatility")
    return (stats.annualized_mean - riskless_rate) / stats.annualized_vol


def kelly_weights(means, riskless_rate: float, covariance) -> np.ndarray:
    """Log-optimal allocation fractions w = C^-1 (mu - r).

    Solves the continuous-time lognormal growth-rate maximization; weights
    are not normalized and may exceed 1 (leverage) or be negative (shorts).
    """
    mu = np.asarray(means, dtype=float)
    if mu.ndim != 1:
        raise DomainError("means must be a vector")
    lengths = [np.size(row) for row in covariance] if isinstance(covariance, (list, tuple)) else ()
    if len(set(lengths)) > 1:  # np.asarray refuses ragged rows with a bare ValueError
        raise DomainError(f"covariance row lengths {lengths} do not match {mu.size} assets")
    cov = np.asarray(covariance, dtype=float)
    if cov.shape != (mu.size, mu.size):
        raise DomainError(f"covariance shape {cov.shape} does not match {mu.size} assets")
    if not np.allclose(cov, cov.T, rtol=1e-12, atol=0.0):
        raise DomainError("covariance must be symmetric")
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError("covariance is not positive definite") from exc
    cond = np.linalg.cond(cov)
    if cond > KELLY_CONDITION_LIMIT:
        raise IllConditionedError(f"covariance condition number {cond:.3e} exceeds 1e12")
    return np.linalg.solve(cov, mu - riskless_rate)


def percentile(values, p: float) -> float:
    """Percentile by linear interpolation between closest ranks."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise DomainError("percentile of an empty list is undefined")
    if not 0.0 <= p <= 100.0:
        raise DomainError(f"percentile level must be in [0, 100], got {p}")
    return float(np.percentile(vals, p))


# ---------------------------------------------------------------------------
# CSV plumbing shared by the ingestion loaders
# ---------------------------------------------------------------------------


# Characters of CSV text parsed at a time; each block runs on to the end of its line.
_BLOCK_CHARS = 1 << 16


class Coded:
    """A text column held as its distinct texts and each row's index among them.

    `texts` is a list of str and `codes` an int array with one entry per
    row. A table renders and compares it as the list of its rows' texts,
    without holding that list.
    """

    __slots__ = ("texts", "codes")

    def __init__(self, texts, codes):
        self.texts, self.codes = texts, codes

    @classmethod
    def of(cls, texts):
        """The coded form of a list of texts: distinct texts in order of first appearance."""
        rank = {text: k for k, text in enumerate(dict.fromkeys(texts))}
        return cls(list(rank), np.fromiter(map(rank.__getitem__, texts), np.intp, len(texts)))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows):
        return Coded(self.texts, self.codes[rows])

    def tolist(self) -> list:
        return list(map(self.texts.__getitem__, self.codes.tolist()))


class Columns:
    """A table of named, equal-length columns, each a list, a 1-D numpy array or a `Coded` text column.

    Its length is the row count. A table read from a CSV also keeps the file
    line of each row in `lines`, an int array, or a range when the lines run
    on without a gap (so equal lines compare equal); any other table has
    `lines` None.
    """

    def __init__(self, columns, lines=None):
        if lines and lines[-1] - lines[0] == len(lines) - 1:  # increasing, so consecutive
            lines = range(lines[0], lines[-1] + 1)
        self.columns, self.lines = columns, lines

    def __len__(self) -> int:
        if self.lines is not None:
            return len(self.lines)
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def __getitem__(self, name):
        return self.columns[name]

    def __eq__(self, other):
        """Equal names in the same order, equal cells and equal lines."""
        if not isinstance(other, Columns):
            return NotImplemented
        return (
            list(self.columns) == list(other.columns)
            and self.lines == other.lines
            and all(_cells(a) == _cells(b) for a, b in zip(self.columns.values(), other.columns.values()))
        )


def _cells(column) -> list:
    """A column's cells as Python values."""
    return column if isinstance(column, list) else column.tolist()


def read_csv_rows(path, schema, check=None) -> Columns:
    """The columns `schema` names from a CSV, each parsed as a whole.

    `schema` maps each column to TEXT (a list of the cells as they are),
    NUMBER (a float array of finite cells, see `cell_number`) or TIMESTAMP
    (a float array of epoch seconds, see `parse_timestamp`). `check(columns)`
    is the loader's row rule: None, or (row index, message) for the first row
    that breaks it. A UTF-8 byte-order mark, as spreadsheet exports write, is
    dropped before the header.

    A clean file is read once and parsed as columns, in blocks of lines (see
    `_clean_columns`), so that its peak memory is the text, one block and
    the columns; each distinct cell of a TEXT column is one shared `str`, a
    line longer than `csv.field_size_limit()` makes a file unclean, and the
    rows' lines are one `range` unless a line is blank. Any other file is
    read again row by row, and its first problem in file order raises an
    InputError naming the file and line: the header, then an empty cell in
    any row, then per row the first bad cell (timestamp columns first, then
    the others, each in schema order) or the row `check` names, whichever
    comes first. Rows follow `csv.DictReader`: a blank line is skipped,
    extra fields are ignored, a repeated header name means its last column,
    and a row's line is the last physical line of its record.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            columns = _clean_columns(fh.read(), schema)
    except (OSError, ValueError):  # a decoding error too: the row scan names the problem
        columns = None
    if columns is None:
        columns = _scanned_columns(path, schema, check)
    _refuse_broken_row(path, columns, check)
    return columns


def _clean_columns(text, schema):
    """The columns of a clean CSV text, else None or a parse error.

    Clean means no quote and no NUL, so every record is one line and
    splitting it at commas is what `csv.reader` does; every row has the same
    number of fields; no line is longer than `csv.field_size_limit()`; no
    cell is empty and every number is finite. The text is parsed in blocks
    of about `_BLOCK_CHARS` characters, each cut after a newline, so that
    only one block's lines and cells are alive at a time beside the columns.

    Each block drops its blank lines and counts them (`_holds_blank_line`
    tells whether it has any). Its line lengths are scanned only when it is
    longer than the field-size limit, as no line is longer than its block.
    The first row sets the width; every block's commas and newlines must
    fall as rows of that width (`_aligned_rows`), and the block is split
    into cells once, at its newlines and commas together. The rows' lines
    are one range until a line is blank, then an int array.
    Each distinct cell of a TEXT column is one shared `str`.
    """
    if '"' in text or "\0" in text:
        return None
    index = width = lines = None  # lines: None while every line so far is a row, then the rows' lines
    line = 1  # the last line read
    limit = csv.field_size_limit()
    columns = {name: [] for name in schema}  # a TEXT column's cells, else its blocks of floats
    memos = {name: {} for name in schema if schema[name] is TEXT}
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS - 1) + 1 or len(text)
        block = text[start:end]
        start = end
        if "\r" in block:  # line ends as `csv.reader` sees them
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        if index is None:  # the header; a repeated name keeps its last column
            header, _, block = block.partition("\n")
            index = {name: i for i, name in enumerate(header.split(","))}
        blank = _holds_blank_line(block)
        if blank:  # a blank line is skipped but counted
            body = block.split("\n")
            if not body[-1]:
                body.pop()  # the newline that ends the block's last record
            if lines is None:
                lines = array("q", range(2, line + 1))
            lines.extend(n for n, row in enumerate(body, line + 1) if row)
            line += len(body)
            block = "\n".join(filter(None, body))
        if not block:
            continue
        if len(block) > limit and max(map(len, block.split("\n"))) > limit:
            return None
        if width is None:
            width = block.partition("\n")[0].count(",") + 1
            if not all(index.get(c, width) < width for c in schema):  # wide enough for every column
                return None
        rows = _aligned_rows(block, width)
        if not rows:  # some row is not as wide as the first
            return None
        if not blank:
            if lines is not None:
                lines.extend(range(line + 1, line + 1 + rows))
            line += rows
        cells = block.replace("\n", ",").split(",")
        if block.endswith("\n"):
            cells.pop()  # the empty cell after the newline that ends the block
        for name, kind in schema.items():
            column = cells[index[name] :: width]
            if "" in column:
                return None
            if kind is TEXT:
                columns[name].extend(map(memos[name].setdefault, column, column))
                continue
            column = _parsed_column(kind, column)
            if not np.isfinite(column).all():
                return None
            columns[name].append(column)
    if width is None:
        return None
    for name, kind in schema.items():
        if kind is not TEXT:
            columns[name] = np.concatenate(columns[name])
    return Columns(columns, range(2, line + 1) if lines is None else lines)


def _holds_blank_line(block) -> bool:
    """Whether a block of whole lines starts with a newline or holds two in a row.

    The scan runs on the UTF-8 bytes with numpy: a substring search for two
    newlines takes ~7x as long, as newlines are frequent.
    """
    newlines = np.frombuffer(block.encode(), np.uint8) == ord("\n")
    return bool(newlines[:1].any() or (newlines[1:] & newlines[:-1]).any())


def _aligned_rows(block, width):
    """The number of lines in `block`, which holds no blank line, if each has `width` - 1 commas, else 0.

    The commas and newlines of such a block run as `width` - 1 commas and a
    newline, line after line, with the last newline optional. The check runs
    on the UTF-8 bytes, where no other character holds a comma or newline
    byte.
    """
    seps = np.frombuffer(block.encode(), np.uint8)
    seps = seps[(seps == ord(",")) | (seps == ord("\n"))]
    if not block.endswith("\n"):
        seps = np.append(seps, ord("\n"))
    if len(seps) % width:
        return 0
    grid = seps.reshape(-1, width)
    return len(grid) if (grid[:, -1] == ord("\n")).all() and (grid[:, :-1] == ord(",")).all() else 0


def _scanned_columns(path, schema, check):
    """The columns of a CSV read row by row; raises its first problem."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        try:
            rows = _checked_rows(path, reader, list(schema))
        except (csv.Error, UnicodeDecodeError) as exc:  # an oversized field, bytes that are not text
            raise InputError(f"{path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    order = sorted(schema, key=lambda name: schema[name] is not TIMESTAMP)
    lines, parsed = array("q"), {name: [] for name in schema}
    for lineno, row in rows:
        try:
            cells = [cell_number(row, c) if schema[c] is NUMBER else schema[c](row[c]) for c in order]
        except ValueError as exc:
            _refuse_broken_row(path, _columns(schema, lines, parsed), check)
            raise InputError(f"{path}:{lineno}: {exc}") from exc
        lines.append(lineno)
        for name, cell in zip(order, cells):
            parsed[name].append(cell)
    return _columns(schema, lines, parsed)


def _columns(schema, lines, parsed):
    columns = {c: cells if schema[c] is TEXT else np.array(cells, dtype=float) for c, cells in parsed.items()}
    return Columns(columns, lines)


def _refuse_broken_row(path, columns, check):
    broken = check(columns) if check else None
    if broken:
        raise InputError(f"{path}:{columns.lines[broken[0]]}: {broken[1]}")


def _checked_rows(path, reader, required_columns):
    header = reader.fieldnames
    if header is None:
        raise InputError(f"{path}: empty file, expected header {','.join(required_columns)}")
    missing = [c for c in required_columns if c not in header]
    if missing:
        raise InputError(
            f"{path}:1: missing column(s) {', '.join(missing)}; got header {','.join(header)}"
        )
    rows = []
    for row in reader:
        lineno = reader.line_num
        if any(row.get(c) in (None, "") for c in required_columns):
            bad = [c for c in required_columns if row.get(c) in (None, "")]
            raise InputError(f"{path}:{lineno}: empty value for column(s) {', '.join(bad)}")
        rows.append((lineno, row))
    return rows


def first_broken(rules):
    """A `check` result from (mask over rows, message) rules: the first row any mask marks, with its first rule's message."""
    masks = np.array([mask for mask, _ in rules], dtype=bool)
    rows = np.flatnonzero(masks.any(axis=0))
    if rows.size:
        return int(rows[0]), rules[int(masks[:, rows[0]].argmax())][1]
    return None


def cell_number(row, column) -> float:
    """The CSV cell ``row[column]`` as a finite float.

    Raises ValueError on text that is not a number and on nan or +-inf; the
    loaders add the file and line.
    """
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"column {column!r} holds a non-finite number {row[column]!r}")
    return value


# Epoch seconds that name a calendar day: 0001-01-02 to 9999-12-31 UTC, so a
# day either side of any accepted instant is still a date.
EPOCH_RANGE = tuple(datetime(*ymd, tzinfo=timezone.utc).timestamp() for ymd in ((1, 1, 2), (9999, 12, 31)))


def parse_timestamp(text: str) -> float:
    """Parse an ISO-8601 timestamp (UTC when naive) or epoch seconds within EPOCH_RANGE."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        except ValueError as exc:
            raise DomainError(f"unparseable timestamp {text!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        value = dt.timestamp()
    if not math.isfinite(value):
        raise ValueError(f"non-finite timestamp {text!r}")
    if not _in_calendar(value):
        raise ValueError(f"timestamp {text!r} is outside years 1-9999")
    return value


# What a CSV schema maps a column to: the cell as it is, or the cell parsed.
TEXT, NUMBER, TIMESTAMP = str, float, parse_timestamp


def _in_calendar(seconds):
    """Whether epoch seconds (a float, or elementwise an array) lie within EPOCH_RANGE; NaN does not."""
    return (EPOCH_RANGE[0] <= seconds) & (seconds <= EPOCH_RANGE[1])


def _parsed_column(kind, cells):
    """`kind` over every cell, as a float array.

    A timestamp column of epoch seconds within the calendar takes one float
    pass: where float() accepts a cell it reads what parse_timestamp reads,
    since float() skips (or refuses) the whitespace that strip() removes.
    """
    if kind is TIMESTAMP:
        try:
            seconds = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:  # ISO-8601 text
            seconds = None
        if seconds is not None and _in_calendar(seconds).all():
            return seconds
    return np.fromiter(map(kind, cells), float, len(cells))


# ---------------------------------------------------------------------------
# keys: the one description of a command config or a scenario file
# ---------------------------------------------------------------------------


def _number(value):
    """A finite int or float, kept as given; text parses as a float."""
    value = float(value) if isinstance(value, str) else value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


# Fraction("1e999999999") builds 10**999999999 before anything can refuse it;
# past +-400 a decimal exponent is far outside float range anyway.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(value):
    """A finite int or float, kept as given; text parses exactly as a Fraction ("1/3")."""
    if not isinstance(value, str):
        return _number(value)
    exponent = _EXPONENT.search(value)
    if exponent and abs(int(exponent[1])) > 400:
        raise ValueError(f"expected a decimal exponent within +-400, got {value!r}")
    number = Fraction(value)  # refuses "nan" and "inf"
    float(number)  # OverflowError past float range
    return number


def _integer(value):
    """An integral number (2000 or 2000.0); text parses as an int."""
    if isinstance(value, str):
        return int(value)
    number = _number(value)
    if number != int(number):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


def _numbers(value, sep=","):
    """A non-empty list of numbers (of such lists with sep=";"); flags give it as text."""
    items = [v for v in value.split(sep) if v.strip()] if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)) or not items:
        raise ValueError(f"expected a non-empty list, got {value!r}")
    return [_numbers(v) if sep == ";" else _number(v) for v in items]


def _boolean(value):
    """JSON true or false; flags give it through store_true and store_false."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _text(value):
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty string, got {value!r}")
    return value


def _text_or_object(value):
    return value if isinstance(value, dict) else _text(value)


def _day(value):
    return value if isinstance(value, date) else date.fromisoformat(_text(value))


def _one_of(*options):
    def coerce(value):
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {value!r}")
        return value

    return coerce


# One config key. `kind` coerces a given value (a command key's kind also
# accepts its own output); a key with `keys` is an object of nested keys
# instead, and a key with `items` a list of objects with those keys. With
# `tag`, `items` maps each value of the objects' `tag` field to that
# variant's keys. An absent or null key takes `default`. `required` is True,
# or an (earlier sibling, value) pair that makes the key required. `flag`
# None derives the flag from the name (`sigma_alpha` -> `--sigma-alpha`),
# False means none; a `_boolean` key's flag flips its default. `load` reads
# an input file for `run` and `validate`; `check` lists problems in what
# `load` returned, for `validate` only (at `run` the handler's own call makes
# that check).
Key = namedtuple("Key", "name kind default required flag help keys load check items tag",
                 defaults=(None, None, False, None, None, (), None, None, (), None))


def _check_keys(keys, config, prefix, problems, known=()):
    """Coerced values with defaults filled in; each missing, bad or unknown key adds a problem.

    A name that neither the table nor ``known`` lists is an unknown key.
    """
    values = {}
    for key in keys:
        value = config.get(key.name)
        values[key.name] = key.default
        if value is None:
            if key.required is True or (key.required and values[key.required[0]] == key.required[1]):
                problems.append(f"{prefix}{key.name}: required")
        elif key.kind:
            try:
                values[key.name] = key.kind(value)
            except (TypeError, ValueError, ArithmeticError) as exc:
                problems.append(f"{prefix}{key.name}: {exc}")
        elif key.items:
            values[key.name] = _check_list(key, value, prefix + key.name, problems)
        else:
            values[key.name] = _check_object(key.keys, value, prefix + key.name, problems)
    # values has an entry for every name of the table
    problems.extend(f"{prefix}{name}: unknown key" for name in config if name not in values and name not in known)
    return values


def _check_object(keys, value, path, problems):
    if not isinstance(value, dict):
        problems.append(f"{path}: expected an object, got {value!r}")
        return None
    return _check_keys(keys, value, path + ".", problems)


def _check_list(key, value, path, problems):
    """Checked objects of a list key; a bad item stays in place as None.

    The items of a tagged list that `_kept_items` finds are their own checked
    values. Every other item is checked on its own, in list order, so the
    problems and values are those of checking each item in turn.
    """
    if not isinstance(value, list):
        problems.append(f"{path}: expected a list, got {value!r}")
        return None
    checked, rest = list(value), range(len(value))
    if key.tag:  # each variant's keys, led by the tag itself
        tag = Key(key.tag, _one_of(*key.items), required=True)
        variants = {name: (tag, *keys) for name, keys in key.items.items()}
        listed = {k.name for keys in key.items.values() for k in keys}
        rest = np.flatnonzero(~_kept_items(key, value)).tolist()
    for i in rest:
        item, keys = value[i], key.items
        if key.tag:
            name = item.get(key.tag) if isinstance(item, dict) else None
            if isinstance(name, str) and name in variants:
                keys = variants[name]
            else:  # no variant to check against: the tag, and the names that no variant lists
                keys = (tag,)
                item = {k: v for k, v in item.items() if k not in listed} if isinstance(item, dict) else item
        checked[i] = _check_object(keys, item, f"{path}[{i}]", problems)
    return checked


def _kept_items(key, items):
    """Per item of a tagged list, whether checking it would return it as it is.

    That holds for a dict whose names are exactly its variant's (the tag
    included) and whose every value is what its key's kind returns unchanged,
    which is judged per variant and per key as one column.
    """
    kept = np.zeros(len(items), bool)
    groups = {name: [] for name in key.items}
    for i, item in enumerate(items):
        name = item.get(key.tag) if isinstance(item, dict) else None
        if isinstance(name, str) and name in groups:
            groups[name].append(i)
    for name, keys in key.items.items():
        names = {key.tag, *(k.name for k in keys)}
        rows = [i for i in groups[name] if items[i].keys() == names]
        if not rows or not all(k.kind for k in keys):  # a nested key is checked per item
            continue
        ok = np.ones(len(rows), bool)
        for k in keys:
            ok &= _kept_cells(k.kind, [items[i][k.name] for i in rows])
        kept[np.array(rows)[ok]] = True
    return kept


def _kept_cells(kind, cells):
    """Per cell, whether it is not None and `kind(cell) is cell`, so that a check keeps it as given."""
    if kind is _rational and set(map(type, cells)) <= {int, float}:  # a bool's type is bool
        try:
            return np.isfinite(np.array(cells, float))
        except OverflowError:  # an int past float range, which _rational refuses
            pass
    return np.array([cell is not None and _keeps(kind, cell) for cell in cells], bool)


def _keeps(kind, value):
    try:
        return kind(value) is value
    except (TypeError, ValueError, ArithmeticError):
        return False
