"""Command-line front end.

Subcommands: capacity, scan, threshold, breakeven, ratio, verify.
Exit codes: 0 success, 1 invalid input (bad flags, a bad config file, or
values the library rejects, such as an overflowing budget), 2
analysis-negative outcomes (no advantage below the search cap, an empty
scan region, failed verify checkpoints); a diagnostic record is still
written in the exit-2 cases.

Flags can also come from a config file (--config PATH, "key = value"
lines, # comments); explicit flags override file values, and a subcommand
ignores file keys for flags it does not have. Scans are written, and read
back, by cvdcnet.scan_text.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .advantage_analysis import (
    NoAdvantageError,
    RegionScan,
    _asymptotic_regime,
    _grid_points,
    _grid_resolution,
    _scan_chunks,
    asymptotic_ratio,
    break_even_squeezing,
    min_threshold_energy,
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
from .scan_text import (LN2, read_region, region_bytes, region_chunks, round12, to_format,
                        to_number, to_whole)

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


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _to_taus(name: str, raw: str) -> tuple[float, ...]:
    return tuple(_transmissivity(to_number(name, p)) for p in raw.split(","))


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
    "modes": _Key("modes", to_whole, "network mode count", rule=_mode_count),
    "tau": _Key("taus", _to_taus, "chain transmissivities, e.g. 0.5,0.5"),
    "nbar": _Key("nbar", to_number, "photon budget per network use", rule=_budget),
    "grid": _Key("grid", to_whole, "grid points per tau axis", rule=_grid_resolution),
    "samples": _Key("samples", to_whole, "Monte Carlo cross-check sample count",
                    rule=_check_sample_count),
    "seed": _Key("seed", to_whole, "RNG seed (unsigned 64-bit)", rule=_check_seed),
    "format": _Key("fmt", to_format, "output format: csv or json"),
    "bits": _Key(
        "bits",
        _to_bool,
        "report information quantities in bits instead of nats",
        switch=True,
    ),
    "squeezing": _Key("squeezing", to_number, "squeezing strength r (>= 10)",
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
    return region_bytes(scan, fmt, units)


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
    return read_region(data)


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
    rounded = {key: round12(value) for key, value in values.items()}
    return {"n_modes": config.modes, "taus": [round12(t) for t in taus], **rounded}


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
            "estimate": round12(est.estimate * scale),
            "std_error": round12(est.std_error * scale),
            "samples": config.samples,
            "seed": config.seed,
        }
    _emit_json(config, **body)
    return 0


def _run_scan(config: RunConfig) -> int:
    chunks, n_advantage = _scan_chunks(config.modes, config.nbar, config.grid), [0]
    first = next(chunks)  # a budget the kernel refuses raises here, before a byte is written

    def counted(deltas):  # a chunk's flags as it passes to the text: no grid-sized array
        n_advantage[0] += np.count_nonzero(deltas > 0)
        return deltas

    units = "bits" if config.bits else "nats"
    deltas = map(counted, itertools.chain([first], chunks))
    _emit(config, region_chunks(config.modes, config.nbar, config.grid, deltas, config.fmt, units))
    return 0 if n_advantage[0] > 0 else 2


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
        records.append({"name": name, "value": round12(value), "expected": round12(expected),
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
