"""Command-line front end and serialization.

Subcommands: capacity, scan, threshold, breakeven, ratio, verify.
Exit codes: 0 success, 1 invalid configuration (bad flags, bad config
file), 2 analysis-negative outcomes (no advantage below the search cap,
an empty scan region, failed verify checkpoints); a diagnostic record is
still written in the exit-2 cases.

Flags can also come from a config file (--config PATH, "key = value"
lines, # comments); explicit flags override file values. Serialized
scans are byte-identical across runs for the same configuration: floats
are printed with 12 significant digits, rows in lexicographic tau order,
and every output embeds the package's phase-convention fingerprint so
files from a different sign convention cannot be mixed up with ours.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .advantage_analysis import (
    NoAdvantageError,
    RegionScan,
    asymptotic_ratio,
    break_even_squeezing,
    min_threshold_energy,
    region_scan,
    threshold_energy,
)
from .dc_protocol import (
    EncodingPlan,
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
_CONFIG_KEYS = (
    "modes",
    "tau",
    "nbar",
    "grid",
    "samples",
    "seed",
    "out",
    "format",
    "bits",
    "squeezing",
)


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


def _fmt12(x: float) -> str:
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    return float(_fmt12(x))


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cvdcnet",
        description="capacity and quantum-advantage analysis for "
        "continuous-variable dense-coding networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *keys: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="key = value config file")
        if "modes" in keys:
            sp.add_argument("--modes", default=None, help="network mode count")
        if "tau" in keys:
            sp.add_argument(
                "--tau", default=None, help="chain transmissivities, e.g. 0.5,0.5"
            )
        if "nbar" in keys:
            sp.add_argument("--nbar", default=None, help="photon budget per network use")
        if "grid" in keys:
            sp.add_argument("--grid", default=None, help="grid points per tau axis")
        if "samples" in keys:
            sp.add_argument(
                "--samples", default=None, help="Monte Carlo cross-check sample count"
            )
        if "seed" in keys:
            sp.add_argument("--seed", default=None, help="RNG seed (unsigned 64-bit)")
        if "bits" in keys:
            sp.add_argument(
                "--bits",
                action="store_const",
                const="true",
                default=None,
                help="report information quantities in bits instead of nats",
            )
        if "squeezing" in keys:
            sp.add_argument(
                "--squeezing", default=None, help="squeezing strength r (>= 10)"
            )
        sp.add_argument("--out", default=None, help="write output to this path")
        sp.add_argument(
            "--format", default=None, choices=None, help="output format: csv or json"
        )
        return sp

    add("capacity", "capacity report for one configuration",
        "modes", "tau", "nbar", "samples", "seed", "bits")
    add("scan", "tabulate the advantage over a full tau grid",
        "modes", "nbar", "grid", "bits")
    add("threshold", "threshold photon budget (global minimum without --tau)",
        "modes", "tau")
    add("breakeven", "squeezing in use at the threshold budget", "modes", "tau")
    add("ratio", "quantum/classical capacity ratio deep in the squeezing limit",
        "modes", "tau", "squeezing")
    add("verify", "run the reference checkpoint suite")
    return parser


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
        if key not in _CONFIG_KEYS:
            raise CliConfigError(f"{path}:{lineno}: unknown key '{key}'")
        values[key] = value.strip()
    return values


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


def _to_taus(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise CliConfigError("tau list is empty")
    taus = tuple(_to_float("tau", p) for p in parts)
    for t in taus:
        if not 0.0 <= t <= 1.0:
            raise CliConfigError(f"transmissivities must lie in [0, 1], got {t}")
    return taus


def _to_bool(name: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise CliConfigError(f"{name} must be boolean, got '{raw}'")


def parse_args(argv: Optional[Sequence[str]] = None) -> RunConfig:
    """Parse flags plus optional config file into a validated RunConfig."""
    ns = build_parser().parse_args(argv)
    file_values = _load_config_file(ns.config) if ns.config else {}

    def pick(key: str) -> Optional[str]:
        flag = getattr(ns, key, None)
        if flag is not None:
            return str(flag)
        return file_values.get(key)

    command = ns.command
    raw = {key: pick(key) if hasattr(ns, key) or key in file_values else None
           for key in _CONFIG_KEYS}
    # keys the command has no flag for may still appear in a shared config
    # file; they are ignored rather than rejected

    modes = _to_int("modes", raw["modes"]) if raw["modes"] is not None else None
    if modes is not None and modes < 2:
        raise CliConfigError(f"modes must be >= 2, got {modes}")
    taus = _to_taus(raw["tau"]) if raw["tau"] is not None else None
    nbar = _to_float("nbar", raw["nbar"]) if raw["nbar"] is not None else None
    if nbar is not None and nbar < 0:
        raise CliConfigError(f"nbar must be >= 0, got {nbar}")
    grid = _to_int("grid", raw["grid"]) if raw["grid"] is not None else None
    if grid is not None and grid < 8:
        raise CliConfigError(f"grid must be >= 8, got {grid}")
    samples = _to_int("samples", raw["samples"]) if raw["samples"] is not None else None
    if samples is not None and samples < 10_000:
        raise CliConfigError(f"samples must be >= 10000, got {samples}")
    seed = _to_int("seed", raw["seed"]) if raw["seed"] is not None else 0
    if not 0 <= seed < 2**64:
        raise CliConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    fmt = raw["format"] if raw["format"] is not None else "csv"
    if fmt not in _FORMATS:
        raise CliConfigError(f"format must be one of {_FORMATS}, got '{fmt}'")
    bits = _to_bool("bits", raw["bits"]) if raw["bits"] is not None else False
    squeezing = (
        _to_float("squeezing", raw["squeezing"])
        if raw["squeezing"] is not None
        else 20.0
    )

    def need(value, flag: str):
        if value is None:
            raise CliConfigError(f"{command} requires {flag}")
        return value

    if command == "capacity":
        need(modes, "--modes"), need(taus, "--tau"), need(nbar, "--nbar")
    elif command == "scan":
        need(modes, "--modes"), need(nbar, "--nbar"), need(grid, "--grid")
    elif command == "threshold":
        need(modes, "--modes")
    elif command in ("breakeven", "ratio"):
        need(modes, "--modes"), need(taus, "--tau")
        if command == "ratio" and squeezing < 10.0:
            raise CliConfigError("ratio needs --squeezing >= 10")
    if taus is not None and modes is not None and len(taus) != modes - 1:
        raise CliConfigError(
            f"{modes}-mode chain needs {modes - 1} transmissivities, got {len(taus)}"
        )
    return RunConfig(
        command=command,
        modes=modes,
        taus=taus,
        nbar=nbar,
        grid=grid,
        samples=samples,
        seed=seed,
        out=raw["out"],
        fmt=fmt,
        bits=bits,
        squeezing=squeezing,
    )


def serialize_region(scan: RegionScan, fmt: str = "csv", units: str = "nats") -> bytes:
    """Render a RegionScan as CSV or JSON bytes (UTF-8, LF line ends).

    Floats carry 12 significant digits; rows follow the scan's
    lexicographic tau order. CSV starts with '# key=value' metadata
    comment lines, then the header row, then data. JSON is a single
    object {"meta": ..., "records": [...]}.
    """
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got '{fmt}'")
    if units not in ("nats", "bits"):
        raise ValueError(f"units must be 'nats' or 'bits', got '{units}'")
    scale = 1.0 / LN2 if units == "bits" else 1.0
    tau_names = [f"tau{i + 1}" for i in range(scan.n_modes - 1)]
    meta = {
        "n_modes": scan.n_modes,
        "nbar": _round12(scan.nbar),
        "grid_resolution": scan.grid_resolution,
        "units": units,
        "convention": CONVENTION_FINGERPRINT,
    }
    if fmt == "csv":
        lines = [f"# {key}={value}" for key, value in meta.items()]
        lines.append(",".join(tau_names + [f"delta_{units}", "advantage"]))
        for row, delta, flag in zip(scan.taus, scan.deltas, scan.flags):
            cells = [_fmt12(t) for t in row]
            cells.append(_fmt12(delta * scale))
            cells.append("true" if flag else "false")
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    records = [
        {
            "taus": [_round12(t) for t in row],
            "delta": _round12(delta * scale),
            "advantage": bool(flag),
        }
        for row, delta, flag in zip(scan.taus, scan.deltas, scan.flags)
    ]
    obj = {"meta": meta, "records": records}
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def parse_region(data: bytes) -> RegionScan:
    """Rebuild a RegionScan from serialize_region output (either format).

    Bits columns are converted back to nats; the advantage flags are
    revalidated against the sign of delta on reconstruction.
    """
    text = data.decode("utf-8")
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        meta = obj["meta"]
        taus = np.array([rec["taus"] for rec in obj["records"]], dtype=float)
        deltas = np.array([rec["delta"] for rec in obj["records"]], dtype=float)
        units = meta["units"]
    else:
        meta = {}
        header: Optional[list[str]] = None
        tau_rows: list[list[float]] = []
        delta_col: list[float] = []
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            tau_rows.append([float(c) for c in cells[:-2]])
            delta_col.append(float(cells[-2]))
        if header is None:
            raise ValueError("CSV region data has no header row")
        meta = {
            "n_modes": int(meta["n_modes"]),
            "nbar": float(meta["nbar"]),
            "grid_resolution": int(meta["grid_resolution"]),
            "units": meta["units"],
        }
        taus = np.array(tau_rows, dtype=float)
        deltas = np.array(delta_col, dtype=float)
        units = meta["units"]
    if units == "bits":
        deltas = deltas * LN2
    return RegionScan(
        n_modes=int(meta["n_modes"]),
        nbar=float(meta["nbar"]),
        grid_resolution=int(meta["grid_resolution"]),
        taus=taus,
        deltas=deltas,
        flags=deltas > 0,
    )


def _emit(config: RunConfig, data: bytes) -> None:
    if config.out:
        Path(config.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _meta(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "units": "bits" if config.bits else "nats",
        "convention": CONVENTION_FINGERPRINT,
    }


def _run_capacity(config: RunConfig) -> int:
    report = capacity(config.modes, config.taus, config.nbar)
    scale = 1.0 / LN2 if config.bits else 1.0
    result = {
        "n_modes": report.n_modes,
        "taus": [_round12(t) for t in report.taus],
        "nbar": _round12(report.nbar),
        "r": _round12(report.r),
        "sigma_msg_sq": _round12(report.sigma_msg_sq),
        "c_quantum": _round12(report.c_quantum * scale),
        "c_classical": _round12(report.c_classical * scale),
        "delta": _round12(report.delta * scale),
    }
    obj = {"meta": _meta(config), "result": result}
    if config.samples:
        r, sigma_sq = optimal_params(config.modes, config.nbar)
        channel = build_channel(
            ResourceSpec(config.modes, r, config.taus),
            EncodingPlan.standard(config.modes, float(np.sqrt(sigma_sq))),
        )
        est = mutual_information_mc(channel, config.samples, config.seed)
        obj["mc"] = {
            "estimate": _round12(est.estimate * scale),
            "std_error": _round12(est.std_error * scale),
            "samples": config.samples,
            "seed": config.seed,
        }
    _emit(config, _json_bytes(obj))
    return 0


def _run_scan(config: RunConfig) -> int:
    scan = region_scan(config.modes, config.nbar, config.grid)
    units = "bits" if config.bits else "nats"
    _emit(config, serialize_region(scan, config.fmt, units))
    return 0 if scan.n_advantage > 0 else 2


def _run_threshold(config: RunConfig) -> int:
    meta = _meta(config)
    try:
        if config.taus is not None:
            if len(config.taus) != config.modes - 1:
                raise CliConfigError(
                    f"{config.modes}-mode chain needs {config.modes - 1} "
                    "transmissivities"
                )
            value = threshold_energy(config.modes, config.taus)
            result = {
                "n_modes": config.modes,
                "taus": [_round12(t) for t in config.taus],
                "nbar_th": _round12(value),
            }
        else:
            found = min_threshold_energy(config.modes)
            result = {
                "n_modes": config.modes,
                "taus": [_round12(t) for t in found.taus],
                "nbar_th": _round12(found.nbar_th),
                "ties": [[_round12(t) for t in tie] for tie in found.ties],
            }
    except NoAdvantageError as exc:
        _emit(config, _json_bytes({"meta": meta, "diagnostic": _diag(exc)}))
        return 2
    _emit(config, _json_bytes({"meta": meta, "result": result}))
    return 0


def _diag(exc: NoAdvantageError) -> dict:
    return {
        "error": "no-advantage",
        "message": str(exc),
        "search_cap": exc.search_cap,
    }


def _run_breakeven(config: RunConfig) -> int:
    meta = _meta(config)
    try:
        threshold = threshold_energy(config.modes, config.taus)
    except NoAdvantageError as exc:
        _emit(config, _json_bytes({"meta": meta, "diagnostic": _diag(exc)}))
        return 2
    result = {
        "n_modes": config.modes,
        "taus": [_round12(t) for t in config.taus],
        # break_even_squeezing's value, without solving the threshold twice
        "r_break_even": _round12(optimal_params(config.modes, threshold).r),
        "nbar_th": _round12(threshold),
    }
    _emit(config, _json_bytes({"meta": meta, "result": result}))
    return 0


def _run_ratio(config: RunConfig) -> int:
    value = asymptotic_ratio(config.modes, config.taus, config.squeezing)
    limit = config.modes / (config.modes - 1)
    result = {
        "n_modes": config.modes,
        "taus": [_round12(t) for t in config.taus],
        "squeezing": _round12(config.squeezing),
        "ratio": _round12(value),
        "limit": _round12(limit),
    }
    _emit(config, _json_bytes({"meta": _meta(config), "result": result}))
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
        obj = {
            "meta": _meta(config),
            "checkpoints": records,
            "passed": n_pass,
            "total": len(records),
        }
        Path(config.out).write_bytes(_json_bytes(obj))
    sys.stdout.write(text_report)
    return 0 if n_pass == len(records) else 2


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    dispatch = {
        "capacity": _run_capacity,
        "scan": _run_scan,
        "threshold": _run_threshold,
        "breakeven": _run_breakeven,
        "ratio": _run_ratio,
        "verify": _run_verify,
    }
    try:
        handler = dispatch[config.command]
    except KeyError as exc:
        raise CliConfigError(f"unknown command '{config.command}'") from exc
    return handler(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
        return run(config)
    except CliConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
