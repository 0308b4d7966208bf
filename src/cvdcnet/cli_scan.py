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
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .advantage_analysis import (
    NoAdvantageError,
    RegionScan,
    _grid_index,
    _grid_points,
    asymptotic_ratio,
    break_even_squeezing,
    min_threshold_energy,
    region_scan,
    threshold_energy,
)
from .dc_protocol import (
    MC_MIN_SAMPLES,
    EncodingPlan,
    _check_sample_count,
    build_channel,
    capacity,
    mutual_information_mc,
    optimal_params,
)
from .resource_prep import CONVENTION_FINGERPRINT, ResourceSpec

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


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _to_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise CliConfigError(f"{name} must be an integer, got '{raw}'") from exc


def _to_float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise CliConfigError(f"{name} must be a number, got '{raw}'") from exc
    if not np.isfinite(value):
        raise CliConfigError(f"{name} must be finite, got '{raw}'")
    return value


def _at_least(convert: Callable[[str, str], Any], low) -> Callable[[str, str], Any]:
    def parse(name: str, raw: str):
        value = convert(name, raw)
        if value < low:
            raise CliConfigError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


def _to_samples(name: str, raw: str) -> int:
    samples = _at_least(_to_int, MC_MIN_SAMPLES)(name, raw)
    try:
        _check_sample_count(samples)  # the library's cap, before any channel is built
    except ValueError as exc:
        raise CliConfigError(str(exc)) from None
    return samples


def _to_seed(name: str, raw: str) -> int:
    seed = _to_int(name, raw)
    if not 0 <= seed < 2**64:
        raise CliConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _to_taus(name: str, raw: str) -> tuple[float, ...]:
    parts = raw.split(",")
    if not all(p.strip() for p in parts):
        raise CliConfigError(f"{name} has an empty entry in '{raw}'")
    taus = tuple(_to_float(name, p) for p in parts)
    for t in taus:
        if not 0.0 <= t <= 1.0:
            raise CliConfigError(f"transmissivities must lie in [0, 1], got {t}")
    return taus


def _to_format(name: str, raw: str) -> str:
    if raw not in _FORMATS:
        raise CliConfigError(f"format must be one of {_FORMATS}, got '{raw}'")
    return raw


def _to_bool(name: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise CliConfigError(f"{name} must be boolean, got '{raw}'")


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


# In validation order: with several bad values, the first one here is reported
_KEYS = {
    "modes": _Key("modes", _at_least(_to_int, 2), "network mode count"),
    "tau": _Key("taus", _to_taus, "chain transmissivities, e.g. 0.5,0.5"),
    "nbar": _Key("nbar", _at_least(_to_float, 0), "photon budget per network use"),
    "grid": _Key("grid", _at_least(_to_int, 8), "grid points per tau axis"),
    "samples": _Key("samples", _to_samples, "Monte Carlo cross-check sample count"),
    "seed": _Key("seed", _to_seed, "RNG seed (unsigned 64-bit)"),
    "format": _Key("fmt", _to_format, "output format: csv or json"),
    "bits": _Key(
        "bits",
        _to_bool,
        "report information quantities in bits instead of nats",
        switch=True,
    ),
    "squeezing": _Key("squeezing", _to_float, "squeezing strength r (>= 10)"),
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


def _row_cells(
    scan: RegionScan,
    scale: float,
    render_tau: Callable[[float], str],
    render_deltas: Callable[[list[str]], list[str]],
) -> Iterator[Iterator[tuple[str, ...]]]:
    """For each chunk of _ROWS_PER_CHUNK rows, an iterator over the rows'
    cells: tau strings from one table of the axis values, indexed by grid
    position, delta strings rendered per chunk from the %.12g strings, and
    the flag."""
    axis = np.linspace(0.0, 1.0, scan.grid_resolution).tolist()
    table = np.array([render_tau(x) for x in axis], dtype=object)
    flags = np.array(["false", "true"], dtype=object)
    for start in range(0, scan.n_points, _ROWS_PER_CHUNK):
        stop = min(start + _ROWS_PER_CHUNK, scan.n_points)
        taus = table[_grid_index(scan.n_modes, scan.grid_resolution, start, stop)]
        deltas = ["%.12g" % d for d in (scan.deltas[start:stop] * scale).tolist()]
        yield zip(*taus.T.tolist(), render_deltas(deltas),
                  flags[scan.flags[start:stop].view(np.uint8)].tolist())


def _region_chunks(scan: RegionScan, fmt: str, units: str) -> Iterator[bytes]:
    """serialize_region's bytes, one chunk of rows at a time."""
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got '{fmt}'")
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
        for cells in _row_cells(scan, scale, "%.12g".__mod__, lambda deltas: deltas):
            yield ("\n".join(map(",".join, cells)) + "\n").encode("utf-8")
        return
    # the indent=2 layout of the document, written out: head, records, tail
    record = (
        '    {\n      "taus": [\n'
        + ",\n".join(["        %s"] * (scan.n_modes - 1))
        + '\n      ],\n      "delta": %s,\n      "advantage": %s\n    }'
    )
    yield (json.dumps({"meta": meta}, indent=2)[:-2] + ',\n  "records": [\n').encode("utf-8")
    chunks = _row_cells(
        scan,
        scale,
        lambda tau: json.dumps(_round12(tau)),
        # json's own spelling of each rounded delta, NaN and Infinity too
        lambda deltas: json.dumps(list(map(float, deltas)))[1:-1].split(", "),
    )
    for i, cells in enumerate(chunks):
        yield ((",\n" if i else "") + ",\n".join(map(record.__mod__, cells))).encode("utf-8")
    yield b"\n  ]\n}\n"


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
    stop, first = data.rfind(b"]"), pos  # the list's end: only the object's '}' follows
    if stop < pos or not re.fullmatch(rb"\]\s*\}\s*", data[stop:]):
        raise ValueError("region data is malformed: no ']' ends the records")
    while pos < stop:
        brace = re.compile(rb"\}\s*").search(data, pos + 2**20, stop)
        end = brace.end() if brace else stop  # just after a record
        cells = record.findall(data, pos, end)  # (record, separator, *numbers) each
        matched = sum(map(len, map(itemgetter(0), cells)))
        if matched != end - pos or list(map(itemgetter(1), cells)).count(b"[") != (pos == first):
            raise ValueError(f"region data is malformed: records in bytes {pos} to {end}")
        numbers = itertools.chain.from_iterable(map(itemgetter(slice(2, None)), cells))
        yield np.fromiter(map(float, numbers), float).reshape(-1, n_modes)
        pos = end


def _meta_count(meta: dict, key: str) -> int:
    """meta[key] as a count: a JSON integer, or the text of one in CSV."""
    if not re.fullmatch(r"-?\d+", str(meta[key])):  # 3.9, '3.9', NaN, true, ...
        raise ValueError(f"region data's {key} must be a whole number, got {meta[key]!r}")
    return int(meta[key])


def parse_region(data: bytes) -> RegionScan:
    """Rebuild a RegionScan from serialize_region output (either format).

    Bits columns are converted back to nats; the advantage flags are
    recomputed from the sign of delta. The rows, read a chunk at a time,
    must be the grid the metadata names, each tau its value at 12
    significant digits; only delta and flag are kept, and JSON keeps the
    written key order. Malformed input raises ValueError naming what is
    wrong: a ragged CSV row, a CSV header other than the columns the writer
    names for the metadata, a bad flag, missing metadata, a fractional count,
    a budget not finite and >= 0, unknown units, a foreign convention, a wrong
    row count, a tau off the grid or a JSON value of the wrong kind.
    """
    try:
        if re.match(rb"\s*\{", data):
            records = re.search(rb'"records"\s*:\s*', data)
            head = json.loads(data[: records.start()].rstrip().rstrip(b",") + b"}"
                              if records else data)
            if records and "meta" not in head:
                raise ValueError("region data has no 'meta' entry before its 'records'")
            meta = head["meta"]
            if not records:
                raise KeyError("records")
            read_rows, header = partial(_json_rows, data, records.end()), None
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
        scale = _nats_per_unit(meta["units"])
        n_modes, grid = _meta_count(meta, "n_modes"), _meta_count(meta, "grid_resolution")
        nbar = float(meta["nbar"])
        if meta["convention"] != CONVENTION_FINGERPRINT:
            raise ValueError(f"region data has convention '{meta['convention']}', not ours")
        n_points = _grid_points(n_modes, grid)
        columns = _csv_header(n_modes, meta["units"])
        if header not in (None, columns):
            raise ValueError(f"region data is malformed: its CSV header '{header}' "
                             f"is not the columns {columns}")
        rounded = np.array([_round12(x) for x in np.linspace(0.0, 1.0, grid).tolist()])
        deltas, start = np.empty(n_points), 0
        for rows in read_rows(n_modes):
            stop = start + len(rows)
            if stop > n_points:
                raise ValueError(f"region data has more than the {n_points:,} rows of its grid")
            expected = rounded[_grid_index(n_modes, grid, start, stop)]
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
        return RegionScan(n_modes, nbar, grid, deltas)
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


def _run_capacity(config: RunConfig) -> int:
    report = capacity(config.modes, config.taus, config.nbar)
    scale = 1.0 / LN2 if config.bits else 1.0
    body = {
        "result": {
            "n_modes": report.n_modes,
            "taus": [_round12(t) for t in report.taus],
            "nbar": _round12(report.nbar),
            "r": _round12(report.r),
            "sigma_msg_sq": _round12(report.sigma_msg_sq),
            "c_quantum": _round12(report.c_quantum * scale),
            "c_classical": _round12(report.c_classical * scale),
            "delta": _round12(report.delta * scale),
        }
    }
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
    result = {
        "n_modes": config.modes,
        "taus": [_round12(t) for t in taus],
        "nbar_th": _round12(nbar_th),
    }
    _emit_json(config, result=result)
    return 0


def _run_breakeven(config: RunConfig) -> int:
    threshold = threshold_energy(config.modes, config.taus)
    result = {
        "n_modes": config.modes,
        "taus": [_round12(t) for t in config.taus],
        # break_even_squeezing's value, without solving the threshold twice
        "r_break_even": _round12(optimal_params(config.modes, threshold).r),
        "nbar_th": _round12(threshold),
    }
    _emit_json(config, result=result)
    return 0


def _run_ratio(config: RunConfig) -> int:
    try:
        value = asymptotic_ratio(config.modes, config.taus, config.squeezing)
    except ValueError as exc:
        # parse_args has checked every other value, and --squeezing's lower end
        raise CliConfigError(f"--squeezing {config.squeezing:g} is too large: {exc}") from exc
    limit = config.modes / (config.modes - 1)
    result = {
        "n_modes": config.modes,
        "taus": [_round12(t) for t in config.taus],
        "squeezing": _round12(config.squeezing),
        "ratio": _round12(value),
        "limit": _round12(limit),
    }
    _emit_json(config, result=result)
    return 0


def run_checkpoints() -> list[dict]:
    """Evaluate the eight reference checkpoints.

    Each record carries the computed value, the expected value, the
    tolerance (absolute or relative) and a pass flag.
    """
    records = []

    def check(name, value, expected, tol, kind):
        if kind == "abs":
            passed = abs(value - expected) <= tol
        else:
            passed = abs(value - expected) <= tol * abs(expected)
        records.append(
            {
                "name": name,
                "value": _round12(value),
                "expected": _round12(expected),
                "tolerance": tol,
                "kind": kind,
                "passed": bool(passed),
            }
        )

    check("three_mode_threshold_at_balanced_taus",
          threshold_energy(3, (0.5, 0.5)), 8.15, 0.01, "abs")
    check("four_mode_threshold_at_balanced_taus",
          threshold_energy(4, (0.5, 0.5, 0.5)), 24.87, 0.01, "abs")
    check("three_mode_minimum_threshold",
          min_threshold_energy(3).nbar_th, 5.38, 0.02, "abs")
    check("four_mode_minimum_threshold",
          min_threshold_energy(4).nbar_th, 11.45, 0.02, "abs")
    check("three_mode_break_even_squeezing",
          break_even_squeezing(3, (0.5, 0.5)), 1.10685, 0.001, "abs")
    check("four_mode_break_even_squeezing",
          break_even_squeezing(4, (0.5, 0.5, 0.5)), 1.433, 0.002, "abs")
    check("three_mode_capacity_ratio_at_r20",
          asymptotic_ratio(3, (0.5, 0.5), 20.0), 1.5, 0.01, "rel")
    check("four_mode_capacity_ratio_at_r20",
          asymptotic_ratio(4, (0.5, 0.5, 0.5), 20.0), 4.0 / 3.0, 0.01, "rel")
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
    the config file; file keys for flags it lacks are ignored.
    """
    ns = _PARSER.parse_args(argv)
    command = _COMMANDS[ns.command]
    file_values = _load_config_file(ns.config) if ns.config else {}
    fields = {}
    for name, key in _KEYS.items():
        if name not in command.keys:
            continue
        raw = getattr(ns, name)
        if raw is None:
            raw = file_values.get(name)
        if raw is not None:
            fields[key.field] = key.parse(name, raw)
    for name in command.required:
        if _KEYS[name].field not in fields:
            raise CliConfigError(f"{ns.command} requires --{name}")
    if "squeezing" in fields and fields["squeezing"] < 10.0:
        raise CliConfigError(f"{ns.command} needs --squeezing >= 10")
    if "samples" in fields and fields.get("nbar") == 0.0:
        raise CliConfigError("a Monte Carlo cross-check (--samples) needs --nbar > 0")
    modes, taus = fields.get("modes"), fields.get("taus")
    if taus is not None and modes is not None and len(taus) != modes - 1:
        raise CliConfigError(
            f"{modes}-mode chain needs {modes - 1} transmissivities, got {len(taus)}"
        )
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
