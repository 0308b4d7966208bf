"""Scan text: a RegionScan as CSV or JSON bytes, and back (README, Numerical notes).

Serialized scans are byte-identical across runs for the same scan: floats are printed with
12 significant digits, rows in lexicographic tau order, and every output embeds the package's
phase-convention fingerprint so files from a different sign convention cannot be mixed up.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import warnings
from decimal import Decimal
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .advantage_analysis import _CHUNK_ROWS, RegionScan, _grid_index, _grid_points, _grid_taus
from .resource_prep import CONVENTION_FINGERPRINT

LN2 = float(np.log(2.0))
_FORMATS = ("csv", "json")
_WINDOW = 2**18  # bytes of scan text _written_deltas checks at a time
_PAD = 72  # bytes after a window's last row: the words of the widest entry, 30 + 17 + 25
# a JSON integer as written: read exactly at any length, and shown as written
_INTEGER = type("_Integer", (str,), {"__repr__": str.__str__})


def round12(x: float) -> float:
    return float("%.12g" % x)


def to_number(name: str, raw: str) -> float | int:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got '{raw}'") from None
    return int(value) if value.is_integer() else value  # as a caller would write it (NaN, inf too)


def to_whole(name: str, raw: str) -> float | int:
    """A count: an integer literal exactly, of any length, else to_number's."""
    return int(Decimal(raw)) if raw.strip().isdecimal() else to_number(name, raw)


def to_format(name: str, raw: str) -> str:
    if raw not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got '{raw}'")  # serialize_region's
    return raw


def region_bytes(scan: RegionScan, fmt: str, units: str) -> bytes:
    chunks = (scan.deltas[i:i + _CHUNK_ROWS] for i in range(0, scan.n_points, _CHUNK_ROWS))
    out = io.BytesIO()  # grows in place: no list of chunks beside the joined bytes
    out.writelines(region_chunks(scan.n_modes, scan.nbar, scan.grid_resolution, chunks, fmt, units))
    return out.getvalue()


def _nats_per_unit(units: str) -> float:
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got '{units}'")
    return LN2 if units == "bits" else 1.0


# Per format: a float's spelling (the values the digit groups cannot prove), the bytes
# before the first tau, each later tau, delta, flag; after the flag; a whole number's point
_LAYOUTS = {
    "csv": ("%.12g".__mod__, "", ",", ",", ",", "\n", ""),
    "json": (lambda x: json.dumps(round12(x)), '    {\n      "taus": [\n        ',
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
    keep = raw != 0
    lengths = np.add.reduce(keep.T, 0, np.int32)  # a pass per byte column, not per row
    j = 8 * np.arange(-(-lengths.max() // 8))[:, None]
    flat = np.concatenate([raw[keep], np.zeros(len(j) * 8, np.uint8)])  # end to end
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
    last tau's with those up to delta too): of the whole axis, built once, for n >= 3 (at
    most 4,096 values), and for n = 2 of the positions asked for, on each call."""

    def __init__(self, fmt: str, n_modes: int, grid: int, build: Callable = lambda i, e: e):
        _, first, between, before_delta, *_ = _LAYOUTS[fmt]
        leads, trails = [first] + [between] * (n_modes - 2), [""] * (n_modes - 2) + [before_delta]
        self.seps = list(zip(leads, trails))
        self.fmt, self.grid, self.build = fmt, grid, build
        self.axis = self._tables(np.arange(grid)) if n_modes > 2 else None

    def _tables(self, positions: np.ndarray) -> list:
        taus = _spelled(_grid_taus(positions, self.grid), self.fmt)
        return [self.build(i, _entries(taus, *sep)) for i, sep in enumerate(self.seps)]

    def __call__(self, index: np.ndarray) -> tuple[list, np.ndarray]:
        """The tables that hold the (n - 1, C) grid positions, and the positions in them."""
        if self.axis is None:  # two modes: a chunk's or a window's consecutive positions
            return self._tables(index[0]), index - index[0, 0]
        return self.axis, index


def _row_text(n_modes: int, grid: int, chunks: Iterable, fmt: str, scale: float) -> Iterator[bytes]:
    """serialize_region's rows, a chunk of deltas at a time: a record array of \\0-padded
    byte fields (each tau, delta and flag with the bytes around it), every \\0 dropped."""
    *_, before_flag, end, _ = _LAYOUTS[fmt]
    taus = _TauTables(fmt, n_modes, grid, lambda i, e: _right_aligned(e[3])
                      if i % 2 == 0 and i < n_modes - 2 else e[3])  # text abuts tau i + 1
    flags, stop = _entries(_FLAGS, before_flag, end)[3], 0
    for deltas in chunks:
        start, stop = stop, stop + len(deltas)
        tables, index = taus(_grid_index(n_modes, grid, start, stop))
        delta = _spelled(deltas * scale, fmt)
        fields = [(f"tau{i}", table.dtype) for i, table in enumerate(tables)]
        rec = np.empty(stop - start, fields + [("delta", delta.dtype), ("flag", flags.dtype)])
        for i, table in enumerate(tables):
            rec[f"tau{i}"] = table[index[i]]
        rec["delta"], rec["flag"] = delta, flags[(deltas > 0).view(np.uint8)]
        raw = rec.view(np.uint8)
        yield raw[raw != 0].tobytes()


def region_chunks(n_modes: int, nbar: float, grid: int, deltas: Iterable[np.ndarray], fmt: str,
                  units: str) -> Iterator[bytes]:
    """serialize_region's bytes from a scan's deltas in row order, a chunk of rows a chunk."""
    to_format("format", fmt)
    scale = 1.0 / _nats_per_unit(units)
    meta = {
        "n_modes": n_modes,
        "nbar": round12(nbar),
        "grid_resolution": grid,
        "units": units,
        "convention": CONVENTION_FINGERPRINT,
    }
    if fmt == "csv":
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(_csv_header(n_modes, units))
        yield ("\n".join(lines) + "\n").encode("utf-8")
        yield from _row_text(n_modes, grid, deltas, fmt, scale)
        return
    # json.dumps(indent=2)'s layout: head, records each ending ",\n" (the last one's cut), tail
    chunk = (json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "records": [\n').encode("utf-8")
    for rows in _row_text(n_modes, grid, deltas, fmt, scale):
        yield chunk
        chunk = rows
    yield chunk[:-2] + _JSON_TAIL


def _csv_header(n_modes: int, units: str) -> str:
    return ",".join([f"tau{i + 1}" for i in range(n_modes - 1)] + [f"delta_{units}", "advantage"])


def _csv_rows(stream: io.TextIOBase, n_modes: int) -> Iterator[np.ndarray]:
    """The CSV data rows, _CHUNK_ROWS at a time, as (C, n_modes) floats:
    the taus, then delta."""
    # S6, not S5, so that a cell such as 'falsey' is not cut to 'false'
    dtype = [("cells", "f8", (n_modes,)), ("flag", "S6")]
    for start in itertools.count(0, _CHUNK_ROWS):
        with warnings.catch_warnings():  # of blank lines, and of no rows left at a chunk's end
            warnings.simplefilter("ignore", UserWarning)
            try:
                rows = np.loadtxt(stream, delimiter=",", dtype=dtype, ndmin=1,
                                  max_rows=_CHUNK_ROWS)
            except ValueError as exc:
                raise ValueError(f"in the data rows from row {start + 1}: {exc}") from None
        bad = np.flatnonzero((rows["flag"] != b"true") & (rows["flag"] != b"false"))
        if bad.size:
            cell = rows["flag"][bad[0]].decode("latin-1")  # as loadtxt encoded it
            raise ValueError(f"data row {start + bad[0] + 1}: flag '{cell}' is not true or false")
        if len(rows):
            yield rows["cells"]
        if len(rows) < _CHUNK_ROWS:
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
    n = np.where(point, (v - frac) // u64(10) + frac, v).astype(float) / _POW10.take(k)
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


def read_region(data: bytes) -> RegionScan:
    """parse_region's: the metadata, then the writer-checked reader or else the general one."""
    try:
        if re.match(rb"\s*\{", data):
            records = re.search(rb'"records"\s*:\s*', data)
            head = json.loads(data[: records.start()].rstrip().rstrip(b",") + b"}"
                              if records else data, parse_int=_INTEGER)
            if records and "meta" not in head:
                raise ValueError("region data has no 'meta' entry before its 'records'")
            meta = head["meta"]
            if not isinstance(meta, dict):
                raise ValueError(f"region data is malformed: its meta is {meta!r}")
            if not records:
                raise KeyError("records")
            for key in ("n_modes", "nbar", "grid_resolution"):  # numbers: not true, "7.0", ...
                if key in meta and type(meta[key]) not in (_INTEGER, float):
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
        n_modes, grid = (to_whole(key, str(meta[key])) for key in ("n_modes", "grid_resolution"))
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
