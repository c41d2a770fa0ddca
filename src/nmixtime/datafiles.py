"""Reading and writing datasets, parameter files, and run manifests.

Counts travel as long-format CSV (one row per site-occasion cell, search
time included), detection times as a companion CSV keyed by detection
index. Site and occasion identifiers are 1-based in files and 0-based in
memory. Numbers are written as repr writes them, formatted in numpy, so
a load/save round trip is byte-identical. Both directions work on whole
columns: one typed parse per file, and one byte buffer per block of rows
written.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .model import (
    Dataset,
    Family,
    ObservationProcess,
    Parameterization,
    Protocol,
    SurveyDesign,
)
from .numtext import BLOCK, float_cells, int_cells, join

__all__ = [
    "RunManifest",
    "write_dataset",
    "load_dataset",
    "params_from_dict",
    "params_to_dict",
    "config_digest",
]

COUNTS_FILE = "counts.csv"
TIMES_FILE = "times.csv"
MANIFEST_FILE = "manifest.json"
_DTYPE = {int: np.int64, float: np.float64}
_NONBLANK = re.compile(r"[^\r\n]")
_LINE_BREAK = re.compile(r"\r\n?|\n")  # how a text-mode open splits lines
_ARCHIVES = {".gz", ".bz2", ".xz", ".lzma"}


@dataclass(frozen=True)
class RunManifest:
    """What a CLI run produced, and from what configuration."""

    command: str
    config_digest: str
    outputs: dict
    timings: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _write_csv(path: Path, header: str, cell: np.ndarray, n_occ: int, columns) -> None:
    """One line per entry of ``cell``: its 1-based site and occasion, then
    its value in each (formatter, column) pair of ``columns``. Each block of
    rows is formatted into one byte buffer."""
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for k in range(0, cell.size, BLOCK):
            rows = slice(k, k + BLOCK)
            parts = [int_cells(cell[rows] // n_occ + 1), b",", int_cells(cell[rows] % n_occ + 1)]
            for cells, column in columns:
                parts += [b",", cells(column[rows])]
            fh.write(join([*parts, b"\n"]))


def write_dataset(dataset: Dataset, out_dir) -> dict:
    """Write counts.csv (and times.csv for time-recording protocols).

    Returns {"counts": path, "times": path or None}.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_occ = dataset.n_occasions
    cell = np.arange(dataset.counts.size)
    counts_path = out_dir / COUNTS_FILE
    _write_csv(
        counts_path, "site,occasion,search_time,count", cell, n_occ,
        [(float_cells, dataset.design.search_time.ravel()), (int_cells, dataset.counts.ravel())],
    )
    times_path = None
    if dataset.protocol.family.records_times:
        times_path = out_dir / TIMES_FILE
        size = dataset.times_per_cell.ravel()
        of_time = np.repeat(cell, size)
        index = np.arange(of_time.size) - np.repeat(dataset.times_start.ravel(), size) + 1
        _write_csv(
            times_path, "site,occasion,detection_index,time", of_time, n_occ,
            [(int_cells, index), (float_cells, dataset.times_flat)],
        )
    return {"counts": counts_path, "times": times_path}


def read_text(path, newline=None) -> str:
    """The UTF-8 text of the file at ``path``, lines split as ``open`` splits
    them with ``newline``. A file that cannot be read raises one
    DataFormatError that names it once: ``cannot read PATH: no such file``,
    ``cannot read PATH: <the system's reason>`` or ``PATH: <the decode
    error>``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise DataFormatError(f"cannot read {path}: no such file") from exc
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _read_columns(path: Path, columns: dict) -> tuple[list, str]:
    """The file's text and the columns named by ``columns`` (name -> int or
    float), each as its values and a mask of those that fail to parse (read
    as 0). The text is read first, for the UTF-8 check, the header and the
    lines errors name. The body then gets one typed np.loadtxt parse from the
    path, which numpy reads in chunks, skipping the header's physical lines
    (a quoted field may span several). Only a body that parse refuses is
    read row by row, with csv and Python's int/float: they accept every token
    it does, with the same value, and more (``1_0``, Unicode digits). Blank
    lines are skipped; a short row reads None for its missing fields."""
    text = read_text(path, newline="")
    try:
        buf = io.StringIO(text, newline="")
        reader = csv.reader(buf)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing column(s) {', '.join(missing)}")
        where = {name: k for k, name in enumerate(header)}  # a repeated name reads its last column
        end = buf.tell()
        if _NONBLANK.search(text, end):  # loadtxt warns on a body of blank lines alone
            # numpy would decompress a path named like an archive, so such a file parses from the text
            source, skip = (
                (io.StringIO(text[end:], newline=""), 0) if path.suffix in _ARCHIVES
                else (path, len(_LINE_BREAK.findall(text, 0, end)))
            )
            with contextlib.suppress(ValueError):
                table = np.loadtxt(
                    source, dtype=[(c, _DTYPE[kind]) for c, kind in columns.items()], delimiter=",",
                    quotechar='"', comments=None, ndmin=1, usecols=[where[c] for c in columns],
                    skiprows=skip, encoding="utf-8",
                )
                return [(table[c], np.zeros(table.size, dtype=bool)) for c in columns], text
        rows = [row + [None] * (len(header) - len(row)) for row in reader if row]
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    return [_parse([row[where[c]] for row in rows], kind) for c, kind in columns.items()], text


def _parse(values: list, kind) -> tuple[np.ndarray, np.ndarray]:
    """``values`` converted by ``kind`` (int or float), and a mask of those that fail (read as 0)."""
    out, bad = np.zeros(len(values), dtype=_DTYPE[kind]), np.zeros(len(values), dtype=bool)
    for k, v in enumerate(values):
        try:
            out[k] = kind(v)
        except (TypeError, ValueError, OverflowError):
            bad[k] = True
    return out, bad


def _cells(site: tuple, occasion: tuple) -> tuple[np.ndarray, np.ndarray, list]:
    """0-based site and occasion of every row, with the checks on them."""
    (i, bad_i), (j, bad_j) = site, occasion
    return i - 1, j - 1, [
        (bad_i | bad_j, "non-integer site/occasion"),
        ((i < 1) | (j < 1), "site and occasion are 1-based"),
    ]


def _raise_first(path: Path, source: str, checks: list) -> None:
    """Raise for the earliest bad row, as a row-by-row reader would, naming
    the line of ``source`` it ends on (blank lines count; the header is 1).

    ``checks`` are (bad-row mask, message) pairs in the order such a reader
    tests a row; a message may be a function of the row. A value that fails
    to parse reads 0, which can only flag rows that already fail an earlier
    check, so it never moves the line reported.
    """
    bad = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if mask.any()]
    if bad:
        row, k = min(bad)
        message = checks[k][1]
        text = message if isinstance(message, str) else message(row)
        reader = csv.reader(io.StringIO(source, newline=""))  # the header is its first nonblank row
        try:
            line = [reader.line_num for fields in reader if fields][row + 1]
        except csv.Error as exc:  # a field longer than csv allows, which loadtxt parsed
            raise DataFormatError(f"{path}: {exc}") from exc
        raise DataFormatError(f"{path} line {line}: {text}")


def load_dataset(
    counts_path,
    times_path=None,
    *,
    family: Family,
    process: ObservationProcess,
) -> Dataset:
    """Assemble a Dataset from CSV files; structural problems raise DataFormatError.

    Each file gets one typed parse, read from its path in chunks (a
    row-wise reader runs only for one that parse refuses, accepting the same
    syntax), and a row error names the first offending line, blank lines
    counted (the header is line 1). Detection times are ordered by cell and
    detection_index, whatever the order of their rows. A times file that
    does not exist is an error, not an empty one.
    Semantic consistency (times matching counts, values in range) is the
    job of validate_dataset, which callers should run on the result.
    """
    counts_path = Path(counts_path)
    columns, text = _read_columns(
        counts_path, {"site": int, "occasion": int, "search_time": float, "count": int}
    )
    i, j, checks = _cells(*columns[:2])
    (t, bad_t), (y, bad_y) = columns[2:]
    n = len(i)
    if not n:
        raise DataFormatError(f"{counts_path}: no data rows")
    # a stable sort by cell keeps each cell's rows in line order
    order = np.lexsort((j, i))
    repeat = np.zeros(n, dtype=bool)
    repeat[order[1:][(np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)]] = True
    checks.append((bad_t | bad_y, "bad search_time/count value"))
    checks.append((repeat, lambda r: f"duplicate cell site {i[r] + 1} occasion {j[r] + 1}"))
    _raise_first(counts_path, text, checks)
    n_sites, n_occ = int(i.max()) + 1, int(j.max()) + 1
    if n != n_sites * n_occ:
        raise DataFormatError(
            f"{counts_path}: expected a complete {n_sites} x {n_occ} grid, "
            f"found {n} distinct cells"
        )
    cell = i * n_occ + j
    search = np.empty(n)
    search[cell] = t
    counts = np.empty(n, dtype=np.int64)
    counts[cell] = y

    sizes = np.zeros(n, dtype=np.int64)
    times = ()
    if times_path is not None:
        times_path = Path(times_path)
        columns, text = _read_columns(
            times_path, {"site": int, "occasion": int, "detection_index": int, "time": float}
        )
        ti, tj, checks = _cells(*columns[:2])
        (d, bad_d), (times, bad_time) = columns[2:]
        checks.append((bad_d | bad_time, "bad detection_index/time value"))
        checks.append((
            (ti >= n_sites) | (tj >= n_occ),
            lambda r: f"site {ti[r] + 1} occasion {tj[r] + 1} not present in the counts file",
        ))
        _raise_first(times_path, text, checks)
        of_time = ti * n_occ + tj
        order = np.lexsort((d, of_time))  # d runs 1..k in a cell that loads, so times never break a tie
        of_time, d, times = of_time[order], d[order], times[order]
        sizes = np.bincount(of_time, minlength=n)
        expected = np.arange(d.size) - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1
        gapped = np.flatnonzero(d != expected)
        if gapped.size:
            c = of_time[gapped[0]]
            indices = d[of_time == c].tolist()
            raise DataFormatError(
                f"detection_index values for site {c // n_occ + 1} occasion {c % n_occ + 1} "
                f"must run 1..{len(indices)}, got {indices}"
            )
    protocol = Protocol.for_design(family, process, n_occ)
    design = SurveyDesign(n_sites, n_occ, search.reshape(n_sites, n_occ))
    return Dataset.from_arrays(
        protocol, design, counts.reshape(n_sites, n_occ), sizes.reshape(n_sites, n_occ), times
    )


def json_numbers(payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a float array; a boolean at any depth of its (nested) lists is refused."""
    try:
        values = np.asarray(payload[key], dtype=float)
    except (ValueError, TypeError) as exc:
        raise DataFormatError(f"'{key}' must hold numbers: {exc}") from exc
    # the float parse passed, so the lists are rectangular and these are their leaves
    if bool in set(map(type, np.asarray(payload[key], dtype=object).ravel())):
        raise DataFormatError(f"'{key}' must hold numbers, not true or false")
    return values


def params_from_dict(payload: dict) -> Parameterization:
    """Build a Parameterization from JSON-style keys.

    Accepts natural-scale ``lambda``/``rate`` or log-scale ``log_lambda``/
    ``log_rate`` (exactly one of each pair). Values may be scalars or
    (nested) lists.
    """

    def pick(log_key: str, nat_key: str) -> np.ndarray:
        has_log, has_nat = log_key in payload, nat_key in payload
        if has_log == has_nat:
            raise DataFormatError(f"provide exactly one of '{log_key}' or '{nat_key}'")
        key = log_key if has_log else nat_key
        values = json_numbers(payload, key)
        if has_log:
            return values
        if np.any(values < 0):
            raise DataFormatError(f"'{key}' values must be nonnegative")
        with np.errstate(divide="ignore"):
            return np.log(values)

    try:
        return Parameterization(pick("log_lambda", "lambda"), pick("log_rate", "rate"))
    except (ValueError, TypeError) as exc:
        raise DataFormatError(str(exc)) from exc


def params_to_dict(params: Parameterization) -> dict:
    # tolist gives a 0-d array's float itself
    return {"log_lambda": params.log_lambda.tolist(), "log_rate": params.log_rate.tolist()}
