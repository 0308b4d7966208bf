"""Command-line front end and serialization.

Subcommands: capacity, scan, threshold, breakeven, ratio, verify.
Exit codes: 0 success, 1 invalid input (bad flags, a bad config file, or
values the library rejects, such as an overflowing budget), 2
analysis-negative outcomes (no advantage below the search cap, an empty
scan region, failed verify checkpoints); a diagnostic record is still
written in the exit-2 cases.

Flags can also come from a config file (--config PATH, "key = value"
lines, # comments); explicit flags override file values, and a subcommand
ignores file keys for flags it does not have. Serialized
scans are byte-identical across runs for the same configuration: floats
are printed with 12 significant digits, rows in lexicographic tau order,
and every output embeds the package's phase-convention fingerprint so
files from a different sign convention cannot be mixed up with ours.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import re
import sys
import warnings
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .advantage_analysis import (
    NoAdvantageError,
    RegionScan,
    _asymptotic_regime,
    _grid_index,
    _grid_points,
    _grid_resolution,
    _grid_taus,
    asymptotic_ratio,
    break_even_squeezing,
    min_threshold_energy,
    region_scan,
    threshold_energy,
)
from .dc_protocol import (
    EncodingPlan,
    _budget,
    _check_sample_count,
    _check_seed,
    build_channel,
    capacity,
    mutual_information_mc,
    optimal_params,
)
from .phase_space import _mode_count, _transmissivity
from .resource_prep import CONVENTION_FINGERPRINT, ResourceSpec, _validated_taus

__all__ = [
    "CliConfigError",
    "RunConfig",
    "parse_args",
    "run",
    "main",
    "serialize_region",
    "parse_region",
    "run_checkpoints",
]

LN2 = float(np.log(2.0))
_FORMATS = ("csv", "json")
_ROWS_PER_CHUNK = 2**14  # scan rows rendered, and written, at a time


class CliConfigError(Exception):
    """Invalid command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-]")  # one '-', no flag: a value (-1e5)

    # argparse exits with status 2 on bad input; route through our error
    # type instead so invalid configuration is always exit code 1
    def error(self, message):
        raise CliConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """One fully validated invocation."""

    command: str
    modes: Optional[int] = None
    taus: Optional[tuple[float, ...]] = None
    nbar: Optional[float] = None
    grid: Optional[int] = None
    samples: Optional[int] = None
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "csv"
    bits: bool = False
    squeezing: float = 20.0


def _round12(x: float) -> float:
    return float("%.12g" % x)


def _json_number(x: float) -> str:
    return json.dumps(_round12(x))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _to_number(name: str, raw: str) -> float | int:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got '{raw}'") from None
    return int(value) if value.is_integer() else value  # as a caller would write it (NaN, inf too)


def _to_whole(name: str, raw: str) -> float | int:
    """A count: an integer literal exactly, of any length, else _to_number's."""
    return int(Decimal(raw)) if raw.strip().isdecimal() else _to_number(name, raw)


def _to_taus(name: str, raw: str) -> tuple[float, ...]:
    return tuple(_transmissivity(_to_number(name, p)) for p in raw.split(","))


def _to_format(name: str, raw: str) -> str:
    if raw not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got '{raw}'")  # serialize_region's
    return raw


def _to_bool(name: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{name} must be boolean, got '{raw}'")


def _to_out_path(name: str, raw: str) -> str:
    # fail before the computation, not after it
    if raw and Path(raw).is_dir():  # an empty --out means stdout
        raise CliConfigError(f"cannot write {raw}: it is a directory")
    parent = Path(raw).parent
    if not parent.is_dir():
        raise CliConfigError(f"cannot write {raw}: no directory {parent}")
    return raw


@dataclass(frozen=True)
class _Key:
    """A flag that a config file may also set, as 'name = value'."""

    field: str  # the RunConfig field it fills
    parse: Callable[[str, str], Any]  # (name, raw text) -> validated value
    help: str
    switch: bool = False  # a bare flag, standing for 'name = true'
    rule: Callable[[Any], Any] = lambda value: value  # the library's check of that value


# In validation order: with several bad values, the first one here is reported
_KEYS = {
    "modes": _Key("modes", _to_whole, "network mode count", rule=_mode_count),
    "tau": _Key("taus", _to_taus, "chain transmissivities, e.g. 0.5,0.5"),
    "nbar": _Key("nbar", _to_number, "photon budget per network use", rule=_budget),
    "grid": _Key("grid", _to_whole, "grid points per tau axis", rule=_grid_resolution),
    "samples": _Key("samples", _to_whole, "Monte Carlo cross-check sample count",
                    rule=_check_sample_count),
    "seed": _Key("seed", _to_whole, "RNG seed (unsigned 64-bit)", rule=_check_seed),
    "format": _Key("fmt", _to_format, "output format: csv or json"),
    "bits": _Key(
        "bits",
        _to_bool,
        "report information quantities in bits instead of nats",
        switch=True,
    ),
    "squeezing": _Key("squeezing", _to_number, "squeezing strength r (>= 10)",
                      rule=_asymptotic_regime),
    "out": _Key("out", _to_out_path, "write output to this path"),
}


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliConfigError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise CliConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = value.strip()
    return values


def serialize_region(scan: RegionScan, fmt: str = "csv", units: str = "nats") -> bytes:
    """Render a RegionScan as CSV or JSON bytes (UTF-8, LF line ends).

    Floats carry 12 significant digits; rows follow the scan's
    lexicographic tau order. CSV starts with '# key=value' metadata
    comment lines, then the header row, then data. JSON is a single
    object {"meta": ..., "records": [...]}, laid out as
    json.dumps(indent=2) lays it out.
    """
    out = io.BytesIO()  # grows in place: no list of chunks beside the joined bytes
    out.writelines(_region_chunks(scan, fmt, units))
    return out.getvalue()


def _nats_per_unit(units: str) -> float:
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got '{units}'")
    return LN2 if units == "bits" else 1.0


# Per format: a float's spelling (the values the digit groups cannot prove), the bytes
# before the first tau, each later tau, delta, flag; after the flag; a whole number's point
_LAYOUTS = {
    "csv": ("%.12g".__mod__, "", ",", ",", ",", "\n", ""),
    "json": (_json_number, '    {\n      "taus": [\n        ',
             ",\n        ", '\n      ],\n      "delta": ', ',\n      "advantage": ',
             "\n    },\n", ".0"),
}
_JSON_TAIL = b"\n  ]\n}\n"  # after the records, the last of them without its ",\n"
_FLAGS = np.array([b"false", b"true"])
_POW10 = 10 ** np.arange(17)
# in column k = 0..16: 16 bytes, the last k of them 0xFF, as little-endian words (lo, hi)
_TOP = (np.uint8(255) * (np.arange(16) >= 16 - np.arange(17)[:, None])).view("<u8").T.copy()
# 0000..9999 as uint32s of 4 ASCII bytes: all digits; leading, then trailing 0s as \0, all or
# all but one (as in '0.0'). _LEAD, _TRAIL: each 0 before any other digit, after (reversed)
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")
_LEAD, _TRAIL = (np.logical_and.accumulate(d == ord("0"), 1) for d in (_DIGITS, _DIGITS[:, ::-1]))
_GROUPS = np.concatenate([_DIGITS * ~(zeros & np.array(cut, bool)) for zeros, cut in ((False, 0), (
    _LEAD, 1), (_LEAD, [1, 1, 1, 0]), (_TRAIL[:, ::-1], 1), (_TRAIL[:, ::-1], [0, 1, 1, 1]))])
_GROUPS = np.ascontiguousarray(_GROUPS).view("<u4")[:, 0]


def _spelled(values: np.ndarray, fmt: str) -> np.ndarray:
    """Records of 30 \\0-padded bytes that spell the values in fmt, each in one run of bytes:
    from N = rint(|d| 10^(11-e)), e = floor(log10 |d|), in 4-digit groups (the integer part
    right-aligned, its sign before it) where N provably holds the 12 digits %.12g rounds
    to, and fmt's per-value spelling elsewhere (README, Numerical notes)."""
    spell, *_, point = _LAYOUTS[fmt]
    with np.errstate(divide="ignore", invalid="ignore"):  # of zeros, NaN and infinities
        e = np.fmin(np.fmax(np.floor(np.log10(np.abs(values))), -5.0), 11.0).astype(int)
        k = 11 - e  # N's digits after the point
        p = np.abs(values) * _POW10.take(k)  # below 2^40: within 2^-14 of |d| 10^(11-e)
        digits = np.rint(p)
        e_out = e + (digits == 1e12)  # rounded up into the next decade
        exact = ((p >= 1e11) & (p < 1e12) & (abs(p - np.floor(p) - 0.5) > 1e-3)  # no tie
                 & (e_out >= -4) & (e_out <= 11))  # fixed-point
    digits, scale = np.where(exact, digits, 0.0), _POW10.take(k * exact)
    whole = np.floor(digits / scale).astype(np.int64)  # N < 1e12: N / 10^k never rounds up
    part = (digits - whole * scale).astype(np.int64) * _POW10.take(16 - k * exact)  # 16 digits
    out = np.empty(len(values), [("pad", "u1")] + [(f"i{j}", "<u4") for j in (2, 1, 0)]
                   + [("point", "u1")] + [(f"f{j}", "<u4") for j in (3, 2, 1, 0)])
    out["pad"], out["point"] = 0, ord(".") * ((part != 0) | (point != ""))  # JSON's ".0"
    for j, form in ((2, 1), (1, 1), (0, 2)):  # leading zeros as \0 (a 0 kept in i0)
        group = whole // 10 ** (4 * j) - whole // 10 ** (4 * j + 4) * 10**4
        out[f"i{j}"] = _GROUPS.take(group + form * 10**4 * (whole < 10 ** (4 * j + 4)))
    for j, form in ((3, 3 + (point != "")), (2, 3), (1, 3), (0, 3)):  # trailing zeros as \0
        group = part // 10 ** (4 * j)
        part -= group * 10 ** (4 * j)
        out[f"f{j}"] = _GROUPS.take(group + form * 10**4 * (part == 0))  # JSON: f3 keeps a 0
    neg = np.flatnonzero(np.signbit(values) & exact)
    out.view(np.uint8)[30 * neg + 11 - np.maximum(e_out[neg], 0)] = ord("-")  # before a digit
    slow = np.flatnonzero(~exact)
    out.view("S30")[slow] = [spell(x).encode() for x in values[slow].tolist()]
    return out.view("V30")  # plain bytes: copied whole, not field by field


def _entries(cells: np.ndarray, lead: str, trail: str) -> tuple[np.ndarray, ...]:
    """lead + cell + trail for each \\0-padded cell, its \\0s dropped: as '<u8' words (word j
    of every entry in row j), the masks of its bytes in them, its length and its bytes."""
    raw = np.char.add(np.char.add(lead.encode(), cells.view(f"S{cells.itemsize}")), trail.encode())
    raw = raw.view(np.uint8).reshape(len(cells), -1)
    lengths = np.count_nonzero(raw, 1)
    j = 8 * np.arange(-(-lengths.max() // 8))[:, None]
    flat = np.concatenate([raw[raw != 0], np.zeros(len(j) * 8, np.uint8)])  # end to end
    masks = ~_TOP[1].take(8 - np.clip(lengths - j, 0, 8))  # a word's low bytes: not its top
    words = np.ndarray(len(flat) - 7, "<u8", flat, strides=(1,))  # one at each byte
    words = words[np.cumsum(lengths) - lengths + j] & masks
    text = np.ascontiguousarray(words.T).view(f"S{8 * len(j)}")[:, 0]
    return words, masks, lengths, text.astype(f"S{lengths.max()}")


def _right_aligned(text: np.ndarray) -> np.ndarray:
    """\\0-padded entries with the padding before each, not after (\\1 is in no entry)."""
    raw = np.char.rjust(text, text.itemsize, b"\1").view(np.uint8)
    return (raw * (raw != 1)).view(text.dtype)


class _TauTables:
    """Per tau i, build(i, _entries) of its spellings in fmt with the bytes before each (the
    last tau's with those up to delta too), over a range of grid positions, kept while the
    ones asked for stay in it: the whole axis where it has at most _ROWS_PER_CHUNK values
    (for n >= 3 always), else _ROWS_PER_CHUNK or more from the least one asked for."""

    def __init__(self, fmt: str, n_modes: int, grid: int, build: Callable = lambda i, e: e):
        _, first, between, before_delta, *_ = _LAYOUTS[fmt]
        leads, trails = [first] + [between] * (n_modes - 2), [""] * (n_modes - 2) + [before_delta]
        self.seps = list(zip(leads, trails))
        self.fmt, self.grid, self.build, self.lo, self.hi = fmt, grid, build, 0, 0

    def __call__(self, index: np.ndarray) -> tuple[list, np.ndarray]:
        """The tables that hold the (n - 1, C) grid positions, and the positions in them."""
        if self.hi - self.lo < self.grid and (index.min() < self.lo or index.max() >= self.hi):
            lo, hi = int(index.min()), int(index.max()) + 1
            self.lo, self.hi = lo, min(max(hi, lo + _ROWS_PER_CHUNK), self.grid)
            taus = _spelled(_grid_taus(np.arange(self.lo, self.hi), self.grid), self.fmt)
            self.tables = [self.build(i, _entries(taus, *sep)) for i, sep in enumerate(self.seps)]
        return self.tables, index - self.lo


def _row_text(scan: RegionScan, fmt: str, scale: float) -> Iterator[bytes]:
    """serialize_region's rows, _ROWS_PER_CHUNK at a time: a record array of \\0-padded
    byte fields (each tau, delta and flag with the bytes around it), every \\0 dropped."""
    *_, before_flag, end, _ = _LAYOUTS[fmt]
    taus = _TauTables(fmt, scan.n_modes, scan.grid_resolution, lambda i, e: _right_aligned(e[3])
                      if i % 2 == 0 and i < scan.n_modes - 2 else e[3])  # text abuts tau i + 1
    flags = _entries(_FLAGS, before_flag, end)[3]
    for start in range(0, scan.n_points, _ROWS_PER_CHUNK):
        stop = min(start + _ROWS_PER_CHUNK, scan.n_points)
        tables, index = taus(_grid_index(scan.n_modes, scan.grid_resolution, start, stop))
        delta = _spelled(scan.deltas[start:stop] * scale, fmt)
        fields = [(f"tau{i}", table.dtype) for i, table in enumerate(tables)]
        rec = np.empty(stop - start, fields + [("delta", delta.dtype), ("flag", flags.dtype)])
        for i, table in enumerate(tables):
            rec[f"tau{i}"] = table[index[i]]
        rec["delta"], rec["flag"] = delta, flags[scan.flags[start:stop].view(np.uint8)]
        raw = rec.view(np.uint8)
        yield raw[raw != 0].tobytes()


def _region_chunks(scan: RegionScan, fmt: str, units: str) -> Iterator[bytes]:
    """serialize_region's bytes, one chunk of rows at a time."""
    _to_format("format", fmt)
    scale = 1.0 / _nats_per_unit(units)
    meta = {
        "n_modes": scan.n_modes,
        "nbar": _round12(scan.nbar),
        "grid_resolution": scan.grid_resolution,
        "units": units,
        "convention": CONVENTION_FINGERPRINT,
    }
    if fmt == "csv":
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(_csv_header(scan.n_modes, units))
        yield ("\n".join(lines) + "\n").encode("utf-8")
        yield from _row_text(scan, fmt, scale)
        return
    # json.dumps(indent=2)'s layout: head, records each ending ",\n" (the last one's cut), tail
    chunk = (json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "records": [\n').encode("utf-8")
    for rows in _row_text(scan, fmt, scale):
        yield chunk
        chunk = rows
    yield chunk[:-2] + _JSON_TAIL


def _csv_header(n_modes: int, units: str) -> str:
    return ",".join([f"tau{i + 1}" for i in range(n_modes - 1)] + [f"delta_{units}", "advantage"])


def _csv_rows(stream: io.TextIOBase, n_modes: int) -> Iterator[np.ndarray]:
    """The CSV data rows, _ROWS_PER_CHUNK at a time, as (C, n_modes) floats:
    the taus, then delta."""
    # S6, not S5, so that a cell such as 'falsey' is not cut to 'false'
    dtype = [("cells", "f8", (n_modes,)), ("flag", "S6")]
    for start in itertools.count(0, _ROWS_PER_CHUNK):
        with warnings.catch_warnings():  # of blank lines, and of no rows left at a chunk's end
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(stream, delimiter=",", dtype=dtype, ndmin=1,
                                  max_rows=_ROWS_PER_CHUNK)
            except ValueError as exc:
                raise ValueError(f"in the data rows from row {start + 1}: {exc}") from None
        bad = np.flatnonzero((rows["flag"] != b"true") & (rows["flag"] != b"false"))
        if bad.size:
            cell = rows["flag"][bad[0]].decode("latin-1")  # as loadtxt encoded it
            raise ValueError(f"data row {start + bad[0] + 1}: flag '{cell}' is not true or false")
        if len(rows):
            yield rows["cells"]
        if len(rows) < _ROWS_PER_CHUNK:
            return


def _json_rows(data: bytes, pos: int, n_modes: int) -> Iterator[np.ndarray]:
    """The records of the JSON list that opens at data[pos], a MiB of text at
    a time, as (C, n_modes) floats: the taus, then delta. Records must match
    as serialize_region writes them, up to whitespace, and tile the list."""
    number = rb"\s*(-?(?:\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|Infinity)|NaN)\s*"
    # a match runs from its '[' or ',' past the whitespace after its '}'
    record = re.compile(
        rb'(([\[,])\s*\{\s*"taus"\s*:\s*\[' + b",".join([number] * (n_modes - 1))
        + rb'\]\s*,\s*"delta"\s*:' + number
        + rb',\s*"advantage"\s*:\s*(?:true|false)\s*\}\s*)'
    )
    stop, first, row = data.rfind(b"]"), pos, 0  # the list's end: only the object's '}' follows
    if stop < pos or not re.fullmatch(rb"\]\s*\}\s*", data[stop:]):
        raise ValueError("region data is malformed: no ']' ends the records")
    while pos < stop:
        brace = re.compile(rb"\}\s*").search(data, pos + 2**20, stop)
        end = brace.end() if brace else stop  # just after a record
        cells = record.findall(data, pos, end)  # (record, separator, *numbers) each
        matched = sum(map(len, map(itemgetter(0), cells)))
        if matched != end - pos or list(map(itemgetter(1), cells)).count(b"[") != (pos == first):
            # the first record that does not match where the one before it ends
            while (cell := record.match(data, pos, end)) and (cell[2] == b"[") == (pos == first):
                pos, row = cell.end(), row + 1
            raise ValueError(f"region data is malformed at data row {row + 1}")
        numbers = itertools.chain.from_iterable(map(itemgetter(slice(2, None)), cells))
        yield np.fromiter(map(float, numbers), float).reshape(-1, n_modes)
        pos, row = end, row + len(cells)


_WINDOW = 2**18  # bytes of scan text _written_deltas checks at a time
_PAD = 72  # bytes after a window's last row: the words of the widest entry, 30 + 17 + 25


def _matches(words: np.ndarray, at: np.ndarray, table: tuple, index) -> bool:
    """Whether each entry table[index] is spelled where it starts, at."""
    return not any(((words[at + 8 * j] ^ expect.take(index)) & mask.take(index)).any()
                   for j, (expect, mask) in enumerate(zip(*table[:2])))


def _fixed_point(words: np.ndarray, text: np.ndarray, d0: np.ndarray, d1: np.ndarray):
    """The cells text[d0:d1] as floats, and where a cell is -?D+(.D+)? with at most 15
    digits, which the floats then equal exactly: N / 10^k from SWAR digit arithmetic."""
    u64, ones = np.uint64, np.uint64(0x0101010101010101)  # ones * b: b in every byte
    low7 = ones * 0x7F
    neg = text[d0] == ord("-")
    size = d1 - d0 - neg  # the unsigned cell's
    w = np.stack([words[d1 - 16], words[d1 - 8]])  # (lo, hi): the 16 bytes that end the cell
    v = (w ^ ones * 0x30) & _TOP.take(np.clip(size, 0, 16), 1)  # '0'-'9' as 0-9, '.' 0x1E
    x = v ^ ones * 0x1E
    dot = ~(((x & low7) + low7) | x | low7)  # 0x80 in each '.' byte
    # bytes after a point in byte j: 7 - j of hi, 15 - j of lo; byte 7 of (1 << 8j) * 0x0706..00
    after = ((dot >> u64(7)) * u64(0x0706050403020100)) >> u64(56)
    k = np.minimum(after[1] + (after[0] + u64(8)) * (dot[0] != 0), 15).astype(np.intp)
    point = (dot[0] | dot[1]) != 0
    v ^= (dot >> u64(7)) * u64(0x1E)  # the point as a 0
    ok = ((((v & low7) + ones * 0x76) | v) & ones * 0x80 == 0).all(0)  # all digits
    ok &= ((dot & (dot - u64(1))) == 0).all(0) & ((dot[0] == 0) | (dot[1] == 0))  # a point
    ok &= (size >= 1) & (size - point <= 15) & (~point | ((k >= 1) & (size - k >= 2)))
    for scale, step, mask in ((10, 8, 0x00FF00FF00FF00FF), (100, 16, 0x0000FFFF0000FFFF),
                              (10**4, 32, 0xFFFFFFFF)):  # the first digit in the lowest byte
        v = (v * u64(scale) + (v >> u64(step))) & u64(mask)
    v = v[0] * u64(10**8) + v[1]  # the digits, the point's 0 among them
    frac = v % _POW10.astype(u64).take(k)
    n = ((v - frac) // (u64(1) + u64(9) * point) + frac).astype(float) / _POW10.take(k)
    return np.where(neg, -n, n), ok  # N < 2^53 and 10^k are exact: one rounding


def _written_deltas(data: bytes, body: int, fmt: str, n_modes: int, grid: int,
                    scale: float, deltas: np.ndarray) -> bool:
    """Fill deltas from a body that is, byte for byte, the rows _row_text writes for the
    grid, each delta in any -?D+(.D+)? spelling or in fmt's own; False for any other
    body, which the general reader then reads into deltas (README, Numerical notes)."""
    spell, *_, before_flag, end, _ = _LAYOUTS[fmt]
    taus, flags = _TauTables(fmt, n_modes, grid), _entries(_FLAGS, before_flag, end)
    newlines = "".join(map("".join, taus.seps)).count("\n") + (before_flag + end).count("\n")
    tail, closing = (b"", b"") if fmt == "csv" else (_JSON_TAIL, b",\n")
    n_points, stop = len(deltas), len(data) - len(tail)
    if body < 16 or not data.endswith(tail):
        return False
    row, pos = 0, body
    while pos < stop:
        # 16 bytes before the window for the words that end a cell, _PAD after its last row
        last = stop - pos <= _WINDOW
        buf = (data[pos - 16:stop] + closing + bytes(_PAD) if last
               else memoryview(data)[pos - 16:pos + _WINDOW + _PAD])
        text = np.frombuffer(buf, np.uint8)
        words = np.ndarray(len(text) - 7, "<u8", buf, strides=(1,))
        ends = (np.flatnonzero(text[16:-_PAD] == ord("\n")) + 17)[newlines - 1::newlines]
        if not len(ends) or row + len(ends) > n_points:
            return False
        tables, index = taus(_grid_index(n_modes, grid, row, row + len(ends)))
        at = [np.concatenate(([16], ends[:-1]))]  # where each row's fields start
        for i, table in enumerate(tables):
            at.append(at[-1] + table[2].take(index[i]))
        true = (text[ends - len(end) - 4] == ord("t")).astype(np.intp)  # 'a' of false
        d0, d1 = at[-1], ends - flags[2].take(true)
        if not ((d1 > d0).all() and _matches(words, d1, flags, true)
                and all(_matches(words, at[i], t, index[i]) for i, t in enumerate(tables))):
            return False
        values, exact = _fixed_point(words, text, d0, d1)
        for i in np.flatnonzero(~exact).tolist():  # exponents, NaN, infinities: as written
            cell = text[d0[i]:d1[i]].tobytes()
            try:
                values[i] = float(cell)
            except ValueError:
                return False
            if spell(values[i]).encode() != cell:  # float() takes '1_0'; the rows do not
                return False
        deltas[row:row + len(ends)] = values * scale
        pos, row = pos + int(ends[-1]) - 16, row + len(ends)
    return row == n_points


def parse_region(data: bytes) -> RegionScan:
    """Rebuild a RegionScan from serialize_region output (either format).

    Bits columns are converted back to nats; the advantage flags are
    recomputed from the sign of delta. The rows must be the grid the
    metadata names, each tau its value at 12 significant digits; only delta
    and flag are kept, and JSON keeps the written key order. Text that is,
    byte for byte, the rows the writer writes for that grid (each delta in
    any -?D+(.D+)? spelling or the writer's own) is checked a window at a
    time and its deltas parsed exactly, with no general parser; any other
    text is read again cell by cell, a chunk at a time, to the same values
    (README, Numerical notes). Malformed input raises ValueError naming what
    is wrong: a ragged CSV row, a CSV header other than the columns the writer
    names for the metadata, a bad flag, missing metadata, a count the mode-count
    or grid rule refuses, a budget not finite and >= 0, unknown units, a foreign
    convention, a wrong row count, a tau off the grid or a JSON value of the wrong
    kind (JSON metadata counts and nbar are numbers, not strings or booleans).
    """
    try:
        if re.match(rb"\s*\{", data):
            records = re.search(rb'"records"\s*:\s*', data)
            head = json.loads(data[: records.start()].rstrip().rstrip(b",") + b"}"
                              if records else data, parse_int=Decimal)  # of any length
            if records and "meta" not in head:
                raise ValueError("region data has no 'meta' entry before its 'records'")
            meta = head["meta"]
            if not records:
                raise KeyError("records")
            for key in ("n_modes", "nbar", "grid_resolution"):  # numbers: not true, "7.0", ...
                if key in meta and type(meta[key]) not in (Decimal, float):
                    raise ValueError(f"region data is malformed: its {key} is {meta[key]!r}")
            read_rows, header = partial(_json_rows, data, records.end()), None
            fmt, body = "json", records.end() + 2 if data.startswith(b"[\n", records.end()) else 0
        else:
            stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            meta = {}
            for line in iter(stream.readline, ""):
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    meta[key.strip()] = value.strip()
                elif line.strip():
                    break  # the header: loadtxt reads the rows after it
            else:
                raise ValueError("CSV region data has no header row")
            read_rows, header = partial(_csv_rows, stream), line.strip()
            head = ("".join(f"# {key}={value}\n" for key, value in meta.items()) + line).encode()
            fmt, body = "csv", len(head) if data.startswith(head) else 0  # the writer's head
        scale = _nats_per_unit(meta["units"])
        n_modes, grid = (_to_whole(key, str(meta[key])) for key in ("n_modes", "grid_resolution"))
        nbar = float(meta["nbar"])
        if meta["convention"] != CONVENTION_FINGERPRINT:
            raise ValueError(f"region data has convention '{meta['convention']}', not ours")
        n_points = _grid_points(n_modes, grid)
        columns = _csv_header(n_modes, meta["units"])
        if header not in (None, columns):
            raise ValueError(f"region data is malformed: its CSV header '{header}' "
                             f"is not the columns {columns}")
        deltas = np.empty(n_points)  # for whichever reader fills it
        if _written_deltas(data, body, fmt, n_modes, grid, scale, deltas):
            return RegionScan(n_modes, nbar, grid, deltas, _adopt=True)
        # not the writer's rows: read every cell, and say what is wrong
        # each tau as the writer spells it in CSV, as a float
        taus = _TauTables("csv", n_modes, grid,
                          lambda i, e: np.char.strip(e[3], b",").astype(float))
        start = 0
        for rows in read_rows(n_modes):
            stop = start + len(rows)
            if stop > n_points:
                raise ValueError(f"region data has more than the {n_points:,} rows of its grid")
            tables, index = taus(_grid_index(n_modes, grid, start, stop))
            expected = tables[0][index.T]
            off = np.flatnonzero(rows[:, :-1] != expected)
            if off.size:
                row, k = divmod(off[0], n_modes - 1)
                raise ValueError(f"data row {start + row + 1}: tau{k + 1} = {rows[row, k]:.12g} "
                                 f"is off the {grid}-point grid, where it is "
                                 f"{expected[row, k]:.12g}")
            deltas[start:stop] = rows[:, -1] * scale
            start = stop
        if start < n_points:
            raise ValueError(f"region data has {start:,} of the {n_points:,} rows of its grid"
                             if start else "region data has no data rows")
        return RegionScan(n_modes, nbar, grid, deltas, _adopt=True)
    except KeyError as exc:
        raise ValueError(f"region data has no '{exc.args[0]}' entry") from None
    except TypeError as exc:  # JSON meta of the wrong kind
        raise ValueError(f"region data is malformed: {exc}") from None


def _emit(config: RunConfig, chunks: Iterable[bytes]) -> None:
    """Write each chunk to --out, or else to stdout, as it is produced."""
    if config.out:
        try:
            with open(config.out, "wb") as out:
                for chunk in chunks:
                    out.write(chunk)
        except OSError as exc:
            raise CliConfigError(f"cannot write {config.out}: {exc}") from exc
    else:
        for chunk in chunks:
            sys.stdout.write(chunk.decode("utf-8"))


def _emit_json(config: RunConfig, **body) -> None:
    meta = {
        "command": config.command,
        "units": "bits" if config.bits else "nats",
        "convention": CONVENTION_FINGERPRINT,
    }
    _emit(config, [_json_bytes({"meta": meta, **body})])


def _result(config: RunConfig, taus: Sequence[float], **values: float) -> dict:
    """A handler's result: n_modes, taus, then values, each rounded to 12 digits."""
    rounded = {key: _round12(value) for key, value in values.items()}
    return {"n_modes": config.modes, "taus": [_round12(t) for t in taus], **rounded}


def _run_capacity(config: RunConfig) -> int:
    report = capacity(config.modes, config.taus, config.nbar)
    scale = 1.0 / LN2 if config.bits else 1.0
    body = {"result": _result(
        config, report.taus, nbar=report.nbar, r=report.r, sigma_msg_sq=report.sigma_msg_sq,
        c_quantum=report.c_quantum * scale, c_classical=report.c_classical * scale,
        delta=report.delta * scale,
    )}
    if config.samples:
        channel = build_channel(
            ResourceSpec(config.modes, report.r, config.taus),
            EncodingPlan.standard(config.modes, float(np.sqrt(report.sigma_msg_sq))),
        )
        est = mutual_information_mc(channel, config.samples, config.seed)
        body["mc"] = {
            "estimate": _round12(est.estimate * scale),
            "std_error": _round12(est.std_error * scale),
            "samples": config.samples,
            "seed": config.seed,
        }
    _emit_json(config, **body)
    return 0


def _run_scan(config: RunConfig) -> int:
    scan = region_scan(config.modes, config.nbar, config.grid)
    units = "bits" if config.bits else "nats"
    _emit(config, _region_chunks(scan, config.fmt, units))
    return 0 if scan.n_advantage > 0 else 2


def _run_threshold(config: RunConfig) -> int:
    if config.taus is not None:
        nbar_th, taus = threshold_energy(config.modes, config.taus), config.taus
    else:
        nbar_th, taus = min_threshold_energy(config.modes)
    _emit_json(config, result=_result(config, taus, nbar_th=nbar_th))
    return 0


def _run_breakeven(config: RunConfig) -> int:
    threshold = threshold_energy(config.modes, config.taus)
    # break_even_squeezing's value, without solving the threshold twice
    r = optimal_params(config.modes, threshold).r
    _emit_json(config, result=_result(config, config.taus, r_break_even=r, nbar_th=threshold))
    return 0


def _run_ratio(config: RunConfig) -> int:
    try:
        value = asymptotic_ratio(config.modes, config.taus, config.squeezing)
    except ValueError as exc:
        # parse_args has checked every other value, and --squeezing's lower end
        raise CliConfigError(f"--squeezing {config.squeezing:g} is too large: {exc}") from exc
    result = _result(config, config.taus, squeezing=config.squeezing, ratio=value,
                     limit=config.modes / (config.modes - 1))
    _emit_json(config, result=result)
    return 0


# (name, computation, expected value, tolerance, "abs" or "rel"): the paper's numbers.
# The computations are lambdas, so each looks its library function up when it runs.
_CHECKPOINTS = (
    ("three_mode_threshold_at_balanced_taus",
     lambda: threshold_energy(3, (0.5, 0.5)), 8.15, 0.01, "abs"),
    ("four_mode_threshold_at_balanced_taus",
     lambda: threshold_energy(4, (0.5, 0.5, 0.5)), 24.87, 0.01, "abs"),
    ("three_mode_minimum_threshold", lambda: min_threshold_energy(3).nbar_th, 5.38, 0.02, "abs"),
    ("four_mode_minimum_threshold", lambda: min_threshold_energy(4).nbar_th, 11.45, 0.02, "abs"),
    ("three_mode_break_even_squeezing",
     lambda: break_even_squeezing(3, (0.5, 0.5)), 1.10685, 0.001, "abs"),
    ("four_mode_break_even_squeezing",
     lambda: break_even_squeezing(4, (0.5, 0.5, 0.5)), 1.433, 0.002, "abs"),
    ("three_mode_capacity_ratio_at_r20",
     lambda: asymptotic_ratio(3, (0.5, 0.5), 20.0), 1.5, 0.01, "rel"),
    ("four_mode_capacity_ratio_at_r20",
     lambda: asymptotic_ratio(4, (0.5, 0.5, 0.5), 20.0), 4.0 / 3.0, 0.01, "rel"),
)


def run_checkpoints() -> list[dict]:
    """Evaluate the eight reference checkpoints.

    Each record carries the computed value, the expected value, the
    tolerance (absolute or relative) and a pass flag.
    """
    records = []
    for name, compute, expected, tol, kind in _CHECKPOINTS:
        value = compute()
        passed = abs(value - expected) <= (tol if kind == "abs" else tol * abs(expected))
        records.append({"name": name, "value": _round12(value), "expected": _round12(expected),
                        "tolerance": tol, "kind": kind, "passed": bool(passed)})
    return records


def _run_verify(config: RunConfig) -> int:
    records = run_checkpoints()
    n_pass = sum(r["passed"] for r in records)
    width = max(len(r["name"]) for r in records)
    lines = ["reference checkpoint suite"]
    for i, rec in enumerate(records, start=1):
        tol_text = (
            f"+/- {rec['tolerance']:g}"
            if rec["kind"] == "abs"
            else f"+/- {100 * rec['tolerance']:g}%"
        )
        lines.append(
            f"[{i}/{len(records)}] {'PASS' if rec['passed'] else 'FAIL'} "
            f"{rec['name']:<{width}}  value {rec['value']:.6f}  "
            f"expected {rec['expected']:.6f} {tol_text}"
        )
    lines.append(f"passed {n_pass}/{len(records)}")
    text_report = "\n".join(lines) + "\n"
    if config.out:
        _emit_json(config, checkpoints=records, passed=n_pass, total=len(records))
    sys.stdout.write(text_report)
    return 0 if n_pass == len(records) else 2


@dataclass(frozen=True)
class _Command:
    """A subcommand: its flags (names in _KEYS) and the handler that runs it."""

    help: str
    handler: Callable[[RunConfig], int]
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()

    @property
    def keys(self) -> tuple[str, ...]:
        return self.required + self.optional + ("out",)


_COMMANDS = {
    "capacity": _Command(
        "capacity report for one configuration",
        _run_capacity,
        required=("modes", "tau", "nbar"),
        optional=("samples", "seed", "bits"),
    ),
    "scan": _Command(
        "tabulate the advantage over a full tau grid",
        _run_scan,
        required=("modes", "nbar", "grid"),
        optional=("format", "bits"),
    ),
    "threshold": _Command(
        "threshold photon budget (global minimum without --tau)",
        _run_threshold,
        required=("modes",),
        optional=("tau",),
    ),
    "breakeven": _Command(
        "squeezing in use at the threshold budget",
        _run_breakeven,
        required=("modes", "tau"),
    ),
    "ratio": _Command(
        "quantum/classical capacity ratio deep in the squeezing limit",
        _run_ratio,
        required=("modes", "tau"),
        optional=("squeezing",),
    ),
    "verify": _Command("run the reference checkpoint suite", _run_verify),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cvdcnet",
        description="capacity and quantum-advantage analysis for "
        "continuous-variable dense-coding networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", default=None, help="key = value config file")
        for key_name, key in _KEYS.items():
            if key_name in command.keys:
                bare = {"action": "store_const", "const": "true"} if key.switch else {}
                sp.add_argument(f"--{key_name}", default=None, help=key.help, **bare)
    return parser


_PARSER = build_parser()


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse flags plus optional config file into a validated RunConfig.

    A subcommand reads only its own keys, each from its flag or else from
    the config file; file keys for flags it lacks are ignored. Each value is
    checked here, in _KEYS order, by the library's own rule where it has one.
    """
    ns = _PARSER.parse_args(argv)
    command = _COMMANDS[ns.command]
    file_values = _load_config_file(ns.config) if ns.config else {}
    fields = {}
    try:
        for name, key in _KEYS.items():
            if name not in command.keys:
                continue
            raw = getattr(ns, name)
            if raw is None:
                raw = file_values.get(name)
            if raw is not None:
                fields[key.field] = key.rule(key.parse(name, raw))
        for name in command.required:
            if _KEYS[name].field not in fields:
                raise CliConfigError(f"{ns.command} requires --{name}")
        if "samples" in fields and fields.get("nbar") == 0.0:
            raise CliConfigError("a Monte Carlo cross-check (--samples) needs --nbar > 0")
        for name, rule in (("tau", _validated_taus), ("grid", _grid_points)):  # with --modes
            if _KEYS[name].field in fields:
                rule(fields["modes"], fields[_KEYS[name].field])
    except ValueError as exc:  # a library rule's words, under the flag they are about
        raise CliConfigError(f"--{name}: {exc}") from None
    return RunConfig(command=ns.command, **fields)


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    try:
        handler = _COMMANDS[config.command].handler
    except KeyError as exc:
        raise CliConfigError(f"unknown command '{config.command}'") from exc
    try:
        return handler(config)
    except NoAdvantageError as exc:
        diagnostic = {
            "error": "no-advantage",
            "message": str(exc),
            "search_cap": exc.search_cap,
        }
        _emit_json(config, diagnostic=diagnostic)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
        return run(config)
    except (CliConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
