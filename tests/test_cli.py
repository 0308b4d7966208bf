import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvdcnet
from cvdcnet import advantage_analysis, cli_scan, dc_protocol, scan_text
from cvdcnet.advantage_analysis import (
    _CHUNK_ROWS,
    RegionScan,
    asymptotic_ratio,
    break_even_squeezing,
    min_threshold_energy,
    region_scan,
    threshold_energy,
)
from cvdcnet.cli_scan import (
    CliConfigError,
    RunConfig,
    main,
    parse_args,
    parse_region,
    run,
    run_checkpoints,
    serialize_region,
)
from cvdcnet.dc_protocol import MC_MAX_SAMPLES
from cvdcnet.resource_prep import CONVENTION_FINGERPRINT
from cvdcnet.scan_text import LN2

from helpers import (
    BREAK_EVEN3,
    CAP3_BALANCED_815,
    CAP3_SINGULAR_1E12,
    MIN_TH3,
    RATIO3_R20,
    TH3_BALANCED,
    parse_region_csv_literal,
    serialize_region_literal,
    traced_peak,
)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# --- argument handling ----------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["capacity"],  # missing required values
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--bogus"],
        ["capacity", "--modes", "1", "--tau", "0.5", "--nbar", "8"],
        ["capacity", "--modes", "3", "--tau", "0.5,1.5", "--nbar", "8"],
        ["capacity", "--modes", "3", "--tau", "0.5", "--nbar", "8"],  # tau count
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "-2"],
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8",
         "--samples", "5000"],
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8",
         "--seed", "-1"],
        ["scan", "--modes", "3", "--nbar", "7", "--grid", "4"],
        ["scan", "--modes", "3", "--nbar", "7", "--grid", "16", "--format", "xml"],
        ["ratio", "--modes", "3", "--tau", "0.5,0.5", "--squeezing", "5"],
        ["threshold", "--modes", "two"],
        # --format belongs to scan alone
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8",
         "--format", "json"],
        ["threshold", "--modes", "3", "--format", "json"],
        ["verify", "--format", "json"],
        ["ratio", "--modes", "3", "--tau", "0.5,0.5", "--out", "{missing}/r.json"],
        # values the library rejects: zero message power, overflowing budgets
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "0",
         "--samples", "10000"],
        ["ratio", "--modes", "3", "--tau", "0.5,0.5", "--squeezing", "200"],
        ["ratio", "--modes", "3", "--tau", "0.5,0.5", "--squeezing", "355"],
    ],
)
def test_bad_invocations_exit_one_with_message(argv, tmp_path, capsys):
    argv = [arg.replace("{missing}", str(tmp_path / "missing")) for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "0",
          "--samples", "10000"],
         "error: a Monte Carlo cross-check (--samples) needs --nbar > 0\n"),
        (["ratio", "--modes", "3", "--tau", "0.5,0.5", "--squeezing", "200"],
         "error: --squeezing 200 is too large: photon budget 5.22147e+173 overflows"),
        (["ratio", "--modes", "3", "--tau", "0.5,0.5", "--squeezing", "355"],
         "error: --squeezing 355 is too large: r = 355 overflows the photon budget, "
         "finite up to r = 354.9\n"),
        # a value that is no number, an empty tau entry included, gets the number text under
        # its flag (an empty entry had a text of its own, and "abc" no flag); an infinite
        # budget gets the budget rule's text under its flag
        (["capacity", "--modes", "3", "--tau", "0.5,,0.5", "--nbar", "8"],
         "error: --tau: tau must be a number, got ''\n"),
        (["threshold", "--modes", "2", "--tau", "0.5,"],
         "error: --tau: tau must be a number, got ''\n"),
        (["threshold", "--modes", "2", "--tau", ","],
         "error: --tau: tau must be a number, got ''\n"),
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "abc"],
         "error: --nbar: nbar must be a number, got 'abc'\n"),
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "inf"],
         "error: --nbar: nbar must be finite and >= 0, got inf\n"),
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--seed", "abc"],
         "error: --seed: seed must be a number, got 'abc'\n"),
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--samples", "abc"],
         "error: --samples: samples must be a number, got 'abc'\n"),
        # an --out that opens but cannot take the bytes
        pytest.param(["verify", "--out", "/dev/full"], "error: cannot write /dev/full: ",
                     marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                              reason="no /dev/full")),
        # a flag in a value's place is a missing value, not a value that starts with '-'
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "--bits"],
         "error: argument --nbar: expected one argument\n"),
    ],
)
def test_rejected_values_name_the_flags(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)


def test_capacity_rejects_samples_over_the_cap_before_drawing(monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples past the cap")

    monkeypatch.setattr(dc_protocol.np.random, "default_rng", no_draws)
    over = MC_MAX_SAMPLES + 1
    argv = ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8",
            "--samples", str(over)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: --samples: {over} samples exceed the cap of {MC_MAX_SAMPLES}")
    assert err.count("\n") == 1 and "GiB" in err


def test_samples_over_the_cap_are_refused_with_the_flags(monkeypatch, capsys):
    def no_channel(*args, **kwargs):
        raise AssertionError("built a channel before checking --samples")

    monkeypatch.setattr(cli_scan, "capacity", no_channel)
    monkeypatch.setattr(cli_scan, "build_channel", no_channel)
    argv = ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--samples"]
    over = str(MC_MAX_SAMPLES + 1)
    with pytest.raises(CliConfigError, match=f"{over} samples exceed the cap"):
        parse_args(argv + [over])
    assert main(argv + [over]) == 1
    assert capsys.readouterr().err.startswith(f"error: --samples: {over} samples exceed the cap")
    assert parse_args(argv + [str(MC_MAX_SAMPLES)]).samples == MC_MAX_SAMPLES


def test_config_file_merging_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# shared settings\n"
        "modes = 3\n"
        "tau = 0.5,0.5\n"
        "nbar = 8.15\n"
        "bits = true\n"
    )
    config = parse_args(["capacity", "--config", str(cfg), "--nbar", "9.0"])
    assert config.modes == 3
    assert config.taus == (0.5, 0.5)
    assert config.nbar == 9.0  # flag beats file
    assert config.bits is True
    assert config.seed == 0
    cfg.write_text("modes = 3\ntau = 0.5,0.5\nnbar = 8.15\nbits = no\n")
    assert parse_args(["capacity", "--config", str(cfg)]).bits is False


def test_shared_config_file_drives_every_subcommand(tmp_path, capsys):
    # values that are bad for one subcommand are ignored by the others, and
    # that subcommand's own flag overrides them
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        "modes = 3\n"
        "tau = 0.5,0.5\n"
        "nbar = 8.15\n"
        "grid = 8\n"
        "samples = 5000\n"
        "squeezing = 5\n"
        "format = xml\n"
        "bits = true\n"
    )
    overrides = {
        "capacity": ["--samples", "10000"],
        "scan": ["--format", "json"],
        "ratio": ["--squeezing", "20"],
    }
    for command in ("capacity", "scan", "threshold", "breakeven", "ratio", "verify"):
        argv = [command, "--config", str(cfg), *overrides.get(command, [])]
        assert main(argv) in (0, 2), capsys.readouterr().err
        assert capsys.readouterr().err == ""
    floor = "--samples: samples must be a whole number >= 10000, got 5000"
    with pytest.raises(CliConfigError, match=floor):
        parse_args(["capacity", "--config", str(cfg)])
    with pytest.raises(CliConfigError, match="format must be one of"):
        parse_args(["scan", "--config", str(cfg)])
    regime = "--squeezing: asymptotic regime starts at r_large >= 10, got 5.0"
    with pytest.raises(CliConfigError, match=re.escape(regime)):
        parse_args(["ratio", "--config", str(cfg)])


def test_parser_keeps_no_state_between_calls(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nbar = 7\nout = scan.json\n")
    first = parse_args(["scan", "--modes", "3", "--grid", "16", "--bits",
                        "--format", "json", "--config", str(cfg)])
    assert (first.bits, first.fmt, first.out) == (True, "json", "scan.json")
    second = parse_args(["scan", "--modes", "3", "--nbar", "7", "--grid", "16"])
    assert second == RunConfig(command="scan", modes=3, nbar=7.0, grid=16)


# the keys whose values are numbers, lists of numbers or booleans
_VALUE_KEYS = ("modes", "tau", "nbar", "grid", "samples", "seed", "squeezing", "bits")


def test_every_value_that_does_not_parse_is_reported_under_its_flag(tmp_path, capsys):
    assert sorted(set(cli_scan._KEYS) - {"format", "out"}) == sorted(_VALUE_KEYS)
    for key in _VALUE_KEYS:
        command = next(name for name, c in cli_scan._COMMANDS.items() if key in c.keys)
        config = tmp_path / f"{key}.cfg"
        config.write_text(f"{key} = abc\n")
        runs = [[command, "--config", str(config)]]
        if not cli_scan._KEYS[key].switch:  # --bits takes no value on the command line
            runs.append([command, f"--{key}", "abc"])
        for argv in runs:
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: --{key}: "), (argv, err)


def test_config_file_rejects_unknown_keys_and_bad_lines(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("modez = 3\n")
    with pytest.raises(CliConfigError, match="unknown key"):
        parse_args(["capacity", "--config", str(bad_key)])
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("modes 3\n")
    with pytest.raises(CliConfigError, match="key = value"):
        parse_args(["capacity", "--config", str(bad_line)])
    bad_bool = tmp_path / "c.cfg"
    bad_bool.write_text("bits = maybe\n")
    with pytest.raises(CliConfigError, match="bits must be boolean, got 'maybe'"):
        parse_args(["capacity", "--config", str(bad_bool)])
    with pytest.raises(CliConfigError, match="cannot read"):
        parse_args(["capacity", "--config", str(tmp_path / "missing.cfg")])


def test_run_refuses_a_config_of_no_command():
    with pytest.raises(CliConfigError, match="unknown command 'nope'"):
        run(RunConfig("nope"))


def test_large_seed_accepted():
    config = parse_args(
        ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "1",
         "--seed", str(2**64 - 1)]
    )
    assert config.seed == 2**64 - 1


# --- capacity command -----------------------------------------------------------

def test_capacity_command_reports_frozen_point(capsys):
    code = main(["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8.15"])
    assert code == 0
    obj = _json_out(capsys)
    assert obj["meta"]["units"] == "nats"
    assert obj["meta"]["convention"] == CONVENTION_FINGERPRINT
    result = obj["result"]
    assert result["n_modes"] == 3
    assert result["c_quantum"] == pytest.approx(CAP3_BALANCED_815, rel=1e-11)
    assert result["delta"] < 0
    assert result["delta"] == pytest.approx(
        result["c_quantum"] - result["c_classical"], abs=1e-9
    )


def test_capacity_command_singular_chain_at_a_large_budget(capsys):
    # a singular Gram used to fail here with a false overflow of the determinant
    assert main(["capacity", "--modes", "3", "--tau", "0,0.5", "--nbar", "1e12"]) == 0
    result = _json_out(capsys)["result"]
    assert result["c_quantum"] == pytest.approx(CAP3_SINGULAR_1E12, rel=1e-11)


def test_capacity_command_bits_scaling(capsys):
    main(["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8.15"])
    nats = _json_out(capsys)["result"]
    main(["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8.15", "--bits"])
    out = _json_out(capsys)
    assert out["meta"]["units"] == "bits"
    assert out["result"]["c_quantum"] == pytest.approx(
        nats["c_quantum"] / LN2, rel=1e-10
    )
    # the working point itself is unit-free and must not change
    assert out["result"]["r"] == nats["r"]


def test_capacity_command_mc_block_and_reproducibility(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["capacity", "--modes", "3", "--tau", "0.4,0.7", "--nbar", "5",
            "--samples", "20000", "--seed", "11"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    obj = json.loads(first.read_text())
    mc = obj["mc"]
    assert mc["samples"] == 20000 and mc["seed"] == 11
    assert abs(mc["estimate"] - obj["result"]["c_quantum"]) <= 5 * mc["std_error"]


# --- scan command and region serialization ---------------------------------------

def test_serialize_region_csv_round_trip():
    scan = region_scan(3, 7.0, 16)
    data = serialize_region(scan, "csv", "nats")
    assert data == serialize_region(scan, "csv", "nats")  # deterministic
    text = data.decode("utf-8")
    assert "\r" not in text and text.endswith("\n")
    lines = text.splitlines()
    assert "# n_modes=3" in lines and "# units=nats" in lines
    assert lines[5] == "tau1,tau2,delta_nats,advantage"
    back = parse_region(data)
    assert back.n_modes == 3 and back.nbar == 7.0 and back.grid_resolution == 16
    assert_allclose(back.taus, scan.taus, atol=1e-12)
    assert_allclose(back.deltas, scan.deltas, rtol=1e-10, atol=1e-12)
    assert np.array_equal(back.flags, scan.flags)


def test_serialize_region_json_bits_round_trip():
    scan = region_scan(4, 15.0, 8)
    data = serialize_region(scan, "json", "bits")
    obj = json.loads(data)
    assert obj["meta"]["units"] == "bits"
    assert obj["meta"]["convention"] == CONVENTION_FINGERPRINT
    assert len(obj["records"]) == scan.n_points
    assert obj["records"][0]["delta"] == pytest.approx(
        scan.deltas[0] / LN2, rel=1e-11
    )
    back = parse_region(data)  # bits convert back to nats on the way in
    assert_allclose(back.deltas, scan.deltas, rtol=1e-10, atol=1e-12)
    assert np.array_equal(back.flags, scan.flags)


def test_serialize_region_rejects_bad_modes():
    scan = region_scan(3, 7.0, 8)
    with pytest.raises(ValueError, match="format"):
        serialize_region(scan, "yaml")
    with pytest.raises(ValueError, match="units"):
        serialize_region(scan, "csv", "decibans")
    with pytest.raises(ValueError, match="header"):
        parse_region(b"")
    rows = b"tau1" + serialize_region(scan).partition(b"tau1")[2]  # header, 64 rows
    with pytest.raises(ValueError, match="'units'"):
        parse_region(rows)
    with pytest.raises(ValueError, match="'n_modes'"):
        parse_region(b"# units=nats\n" + rows)
    meta = (b"# n_modes=3\n# nbar=7\n# grid_resolution=8\n# units=nats\n# convention="
            + CONVENTION_FINGERPRINT.encode() + b"\n")
    with pytest.raises(ValueError, match="data row 1: flag 'maybe'"):
        parse_region(meta + rows.replace(b"false", b"maybe", 1))
    with pytest.raises(ValueError, match="column"):  # a header with one column
        parse_region(meta + b"advantage\ntrue\n")
    good = json.loads(serialize_region(scan, "json"))
    for key in ("meta", "records"):
        partial = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_region(json.dumps(partial).encode())
    records_first = {"records": good["records"], "meta": good["meta"]}
    with pytest.raises(ValueError, match="no 'meta' entry before its 'records'"):
        parse_region(json.dumps(records_first).encode())


def test_parse_region_patterns_keep_to_python_3_10_syntax():
    # possessive quantifiers and atomic groups are errors before Python 3.11
    sources = sorted(Path(cvdcnet.__file__).parent.glob("*.py"))
    assert "scan_text.py" in [path.name for path in sources]
    for path in sources:
        assert not re.search(r"[*+?}]\+|\(\?>", path.read_text()), path.name


@pytest.mark.parametrize("cell", ["falsey", "truex", "TRUE", ""])
def test_parse_region_names_a_bad_flag_cell(cell):
    lines = serialize_region(region_scan(3, 7.0, 8)).split(b"\n")
    lines[9] = lines[9].rpartition(b",")[0] + b"," + cell.encode()  # the fourth data row
    with pytest.raises(ValueError, match=f"data row 4: flag '{cell}'"):
        parse_region(b"\n".join(lines))


@pytest.mark.parametrize("body", [b"", b"\n\n", b"# a comment\n"])
def test_parse_region_without_data_rows_raises_and_does_not_warn(body):
    head = serialize_region(region_scan(3, 7.0, 8)).split(b"\n")[:6]  # '#' lines, header
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="no data rows"):
            parse_region(b"\n".join(head) + b"\n" + body)
    assert caught == []


@pytest.mark.parametrize(
    "mangle, text",
    [
        (lambda obj: {**obj, "meta": 7}, "region data is malformed: its meta is 7"),
        (lambda obj: {**obj, "meta": "x"}, "region data is malformed: its meta is 'x'"),
        (lambda obj: {**obj, "meta": None}, "region data is malformed: its meta is None"),
        (lambda obj: {**obj, "meta": [3, 8]}, "region data is malformed: its meta is [3, 8]"),
        (lambda obj: {**obj, "records": [7] + obj["records"]}, "region data is malformed"),
        (lambda obj: {**obj, "records": obj["records"][0]}, "region data is malformed"),
        (lambda obj: {**obj, "meta": {**obj["meta"], "nbar": True}}, "region data is malformed"),
        (lambda obj: {**obj, "meta": {**obj["meta"], "nbar": "7.0"}}, "region data is malformed"),
        (lambda obj: {**obj, "meta": {**obj["meta"], "n_modes": "3"}},
         "region data is malformed"),
        (lambda obj: {**obj, "meta": {**obj["meta"], "grid_resolution": True}},
         "region data is malformed"),
    ],
    ids=["meta-not-an-object", "meta-a-string", "meta-null", "meta-a-list",
         "record-not-an-object", "records-an-object", "nbar-a-bool", "nbar-a-string",
         "modes-a-string", "grid-a-bool"],
)
def test_parse_region_rejects_json_of_the_wrong_kind(mangle, text):
    good = json.loads(serialize_region(region_scan(3, 7.0, 8), "json"))
    with pytest.raises(ValueError, match=f"^{re.escape(text)}"):
        parse_region(json.dumps(mangle(good)).encode())


def test_the_json_reader_names_the_first_bad_record_by_its_data_row():
    data = serialize_region(region_scan(3, 7.0, 128), "json")  # 16,384 records, two MiB windows
    lines = data.split(b"\n")
    first = lines.index(b'  "records": [') + 1  # a 3-mode record is 8 lines, delta its 6th
    for row in (1, 5, 11148):  # in the first window, its first record, and the second window
        text = list(lines)
        text[first + 8 * (row - 1) + 5] = b'      "delta": +0.5,'
        with pytest.raises(ValueError, match=f"^region data is malformed at data row {row}$"):
            parse_region(b"\n".join(text))


def _region_text(fmt, meta=(), rows=None):
    """The 64 rows of a 3-mode, grid-8 scan in fmt, with the meta entries
    in meta set (None drops one) and the list of rows passed through rows."""
    rows = rows or (lambda rows: rows)
    data = serialize_region(region_scan(3, 7.0, 8), fmt)
    if fmt == "json":
        obj = json.loads(data)
        entries, obj["records"] = obj["meta"], rows(obj["records"])
    else:
        lines = data.decode().splitlines()  # five '#' lines, the header, then the rows
        entries = dict(line[2:].split("=", 1) for line in lines[:5])
    entries.update(meta)
    entries = {key: value for key, value in entries.items() if value is not None}
    if fmt == "json":
        obj["meta"] = entries
        return (json.dumps(obj, indent=2) + "\n").encode()
    head = [f"# {key}={value}" for key, value in entries.items()]
    return ("\n".join(head + lines[5:6] + rows(lines[6:])) + "\n").encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "meta, rows, message",
    [
        ({}, lambda rows: rows[:-1], "has 63 of the 64 rows of its grid"),
        ({}, lambda rows: rows + rows[-1:], "more than the 64 rows of its grid"),
        ({}, lambda rows: rows[1:], "data row 1: tau2 = 0.142857142857 is off the 8-point grid"),
        ({"grid_resolution": 9}, None, "data row 2: tau2 = 0.142857142857 is off the 9-point"),
        ({"grid_resolution": 16}, None, "data row 2: tau2 = 0.142857142857 is off the 16-point"),
        ({"n_modes": 4}, None, "requires 5 columns but 4 were found|malformed"),
        ({"units": "decibans"}, None, "units must be .* got 'decibans'"),
        ({"convention": "q1q2p1p2"}, None, "convention 'q1q2p1p2', not"),
        ({"convention": None}, None, "no 'convention' entry"),
        ({"n_modes": 10**9}, None, r"more than 2\^64 points, over the cap"),
        ({"n_modes": 3.9}, None, "^the mode count must be a whole number >= 2, got 3.9$"),
        ({"grid_resolution": 8.5}, None, "^grid_resolution must be a whole number >= 8, got 8.5$"),
        ({"nbar": -5}, None, "nbar must be finite and >= 0, got -5"),
        ({"nbar": float("nan")}, None, "nbar must be finite and >= 0, got nan"),
        ({"nbar": float("inf")}, None, "nbar must be finite and >= 0, got inf"),
    ],
    ids=["missing-row", "extra-row", "shifted-rows", "grid-9", "grid-16", "modes",
         "units", "foreign-convention", "no-convention", "huge-modes", "fractional-modes",
         "fractional-grid", "negative-nbar", "nan-nbar", "inf-nbar"],
)
def test_parse_region_rejects_text_that_is_not_the_named_grid(fmt, meta, rows, message):
    with pytest.raises(ValueError, match=message):
        parse_region(_region_text(fmt, meta, rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_region_reads_a_whole_float_count_as_its_int(fmt):
    # the counts meet the mode-count and grid rules, which take 3.0 as 3: both were refused
    scan = parse_region(_region_text(fmt, {"n_modes": 3.0, "grid_resolution": 8.0}))
    expected = parse_region(serialize_region(region_scan(3, 7.0, 8), fmt))
    assert (type(scan.n_modes), type(scan.grid_resolution)) == (int, int)
    assert (scan.n_modes, scan.nbar, scan.grid_resolution) == (3, expected.nbar, 8)
    assert scan.deltas.tobytes() == expected.deltas.tobytes()


@pytest.mark.parametrize(
    "header",
    [
        "x,y,z,delta_bits,advantage",  # foreign names, the wrong units and a column too many
        "tau1,tau2,delta_bits,advantage",  # the units the metadata does not name
        "tau1,tau2,tau3,delta_nats,advantage",  # a tau column too many
        "tau1,delta_nats,advantage",  # a tau column too few
        "tau2,tau1,delta_nats,advantage",  # the columns out of order
        "tau1,tau2,delta_nats",  # no advantage column
        "tau1, tau2, delta_nats, advantage",  # spaced out
        "0,0,-1.00615567583,false",  # a data row in its place
    ],
)
def test_parse_region_refuses_a_header_other_than_the_writers(header):
    lines = _region_text("csv").decode().split("\n")
    assert lines[5] == "tau1,tau2,delta_nats,advantage"
    lines[5] = header
    with pytest.raises(ValueError, match="header '.*' is not the columns "
                                         "tau1,tau2,delta_nats,advantage"):
        parse_region("\n".join(lines).encode())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_region_rejects_a_tau_one_digit_off_the_grid(fmt):
    data = _region_text(fmt)
    assert data == serialize_region(region_scan(3, 7.0, 8), fmt)  # the helper's baseline
    assert parse_region(data).n_points == 64
    off = data.replace(b"0.142857142857", b"0.142857142858", 1)  # the second row's tau2
    assert off != data
    with pytest.raises(ValueError, match="data row 2: tau2 = 0.142857142858 is off the "
                                         "8-point grid, where it is 0.142857142857"):
        parse_region(off)


def test_scan_text_memory_stays_near_its_arrays_and_bytes():
    scan = region_scan(3, 7.0, 448)  # 200,704 rows, 13 chunks
    data, write_peak = traced_peak(serialize_region, scan)
    # one chunk's strings beside the output (1.4 times it here), not a list
    # of strings per column (2.0 times)
    assert write_peak < 1.6 * len(data), f"writer peak {write_peak / 1e6:.1f} MB"
    back, read_peak = traced_peak(parse_region, data)
    arrays = back.deltas.nbytes + back.flags.nbytes
    # deltas, flags and one chunk of rows: 4.2 MB here, 0.41 times the text;
    # one loadtxt of the whole body, taus too, took 11.6 MB. The bound, 5.2 MB,
    # is under the 15 MB that 3 times (taus, deltas, flags) allowed
    assert read_peak < 0.5 * len(data), f"reader peak {read_peak / 1e6:.1f} MB"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_two_mode_scan_text_memory_is_flat_in_the_grid(fmt):
    def stream(scan):
        deltas = (scan.deltas[i:i + _CHUNK_ROWS] for i in range(0, scan.n_points, _CHUNK_ROWS))
        for _ in scan_text.region_chunks(2, scan.nbar, scan.grid_resolution, deltas, fmt, "nats"):
            pass  # each chunk is dropped as the next one is made, as the CLI writes them

    peaks = []
    for k in (15, 18):
        scan = region_scan(2, 7.0, 2**k)  # one tau axis: the whole scan
        _, write_peak = traced_peak(stream, scan)
        data = serialize_region(scan, fmt)
        back, read_peak = traced_peak(parse_region, data)
        peaks.append((write_peak, read_peak - back.deltas.nbytes - back.flags.nbytes))
    # text tables of a chunk's or a window's taus, not of the grid's: from 2^16 to 2^18
    # rows, tables of the whole axis took the read from 6.9 to 27.5 MB (CSV), 23 to 92 (JSON)
    for small, large in zip(*peaks):
        assert large <= 1.25 * small + 1e6, f"{small / 1e6:.1f} MB, then {large / 1e6:.1f} MB"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_general_reader_checks_two_mode_taus_over_several_chunks(fmt):
    scan = region_scan(2, 7.0, 3 * 2**14 + 5)
    data = serialize_region(scan, fmt)
    crlf = data.replace(b"\n", b"\r\n")  # not the writer's bytes: read cell by cell
    assert parse_region(crlf).deltas.tobytes() == parse_region(data).deltas.tobytes()
    tau = b"%.12g" % np.linspace(0.0, 1.0, scan.grid_resolution)[39_999]
    off = tau[:-1] + b"%d" % ((int(tau[-1:]) + 1) % 10)
    assert crlf.count(tau) == 1
    with pytest.raises(ValueError, match=f"data row 40000: tau1 = {off.decode()} is off the "
                                         f"49157-point grid, where it is {tau.decode()}"):
        parse_region(crlf.replace(tau, off))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_short_text_naming_a_huge_grid_is_read_in_memory_of_its_rows(fmt):
    head = serialize_region(RegionScan(2, 7.0, 8, np.full(8, 0.5)), fmt)
    if fmt == "csv":
        lines = head.replace(b"grid_resolution=8", b"grid_resolution=%d" % 2**20).split(b"\n")
        data = b"\n".join(lines[:7]) + b"\n"  # five '#' lines, the header, the first row
    else:
        obj = json.loads(head)
        obj["meta"]["grid_resolution"], obj["records"] = 2**20, obj["records"][:1]
        data = (json.dumps(obj, indent=2) + "\n").encode()
    assert len(data) < 400  # the first of 2^20 rows, as the writer writes it
    error, peak = traced_peak(pytest.raises, ValueError, parse_region, data)
    assert "has 1 of the 1,048,576 rows of its grid" in str(error.value)
    # the deltas, 8 B a point, and tables of a chunk's taus; tables of the whole axis
    # took hundreds of MB and several seconds
    assert peak - 8 * 2**20 < 32e6, f"{peak / 1e6:.1f} MB"


def test_scan_read_keeps_its_fresh_deltas(monkeypatch):
    # parse_region froze a copy of the deltas it had just filled: 8 MB of the
    # 17.0 MB traced peak of reading the 1M-row CSV of region_scan(3, 10, 1000)
    scan = region_scan(3, 7.0, 16)
    data = [serialize_region(scan, fmt) for fmt in ("csv", "json")]

    def no_copy(values):
        raise AssertionError("the deltas were copied")

    monkeypatch.setattr(advantage_analysis, "_frozen_array", no_copy)
    for text in data:
        back = parse_region(text)
        assert not back.deltas.flags.writeable and back.n_advantage == scan.n_advantage
    with pytest.raises(AssertionError, match="copied"):
        RegionScan(3, 7.0, 16, back.deltas)  # a public build still copies


def test_json_scan_read_keeps_no_object_tree():
    data = serialize_region(region_scan(4, 20.0, 48), "json", "bits")  # 18 MB, 110,592 rows
    back, read_peak = traced_peak(parse_region, data)
    assert back.n_points == 48**3
    # deltas, flags and one window of the writer's rows: 0.09 times the text; one
    # chunk of regex-matched records took 0.4 times it, and json.loads built a 42 MB
    # object tree, 3.3 times it
    assert read_peak < 0.25 * len(data), f"reader peak {read_peak / 1e6:.1f} MB"


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize(
    "n_modes, nbar, grid", [(2, 3.0, 64), (3, 7.0, 16), (4, 15.0, 8), (5, 40.0, 8)]
)
def test_scan_text_matches_cell_by_cell_oracles(n_modes, nbar, grid, units):
    scan = region_scan(n_modes, nbar, grid)
    for fmt in ("csv", "json"):
        assert serialize_region(scan, fmt, units) == serialize_region_literal(
            scan, fmt, units
        )
    data = serialize_region(scan, "csv", units)
    meta, taus, deltas = parse_region_csv_literal(data)
    if units == "bits":
        deltas = deltas * LN2
    crlf_and_blank_lines = data.replace(b"\n", b"\r\n\r\n")
    assert np.array_equal(taus, [[float("%.12g" % t) for t in row] for row in scan.taus])
    for text in (data, crlf_and_blank_lines):
        back = parse_region(text)
        assert back.n_modes == int(meta["n_modes"]) and back.nbar == float(meta["nbar"])
        assert np.array_equal(back.taus, scan.taus)  # the grid itself, not its text
        assert np.array_equal(back.deltas, deltas)
        assert np.array_equal(back.flags, deltas > 0)

    lines = data.split(b"\n")  # five '#' lines, the header, then the rows
    with pytest.raises(ValueError, match="no data rows"):
        parse_region(b"\n".join(lines[:6]) + b"\n\n")
    for row in (6, len(lines) - 2):  # the first and the last data row
        for cells in (lines[row] + b",0", lines[row].partition(b",")[2]):
            ragged = lines[:row] + [cells] + lines[row + 1:]
            with pytest.raises(ValueError, match="column"):
                parse_region(b"\n".join(ragged))


def _hand_built_scan():
    # a grid-8 scan whose deltas cycle through the edges of %.12g
    deltas = np.resize([-0.0, 1e-5, 1.5e13, np.nan, np.inf, -1 / 3], 64)
    return RegionScan(3, 7.0, 8, deltas)


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "make_scan, chunks",
    [
        (lambda: region_scan(3, 7.0, 300), 5),
        # one tau axis over four chunks, its first taus below 1e-4: in exponent form
        (lambda: region_scan(2, 7.0, 3 * 2**14 + 5), 3),
        (_hand_built_scan, 0),
    ],
    ids=["several_chunks", "two_modes", "hand_built"],
)
def test_chunked_scan_text_matches_the_oracle(make_scan, chunks, fmt, units):
    scan = make_scan()
    assert scan.n_points > chunks * _CHUNK_ROWS  # the grid scans span several chunks
    assert serialize_region(scan, fmt, units) == serialize_region_literal(scan, fmt, units)


def _adversarial_deltas(rng, size):
    """Deltas at the edges of %.12g's digits, seeded and shuffled."""
    # exact ties in the 12th digit: q / 2^(k+1), q odd, is q 5^k / 2 times 10^-k
    k = rng.integers(0, 16, size // 4)
    bounds = (10.0 ** np.array([[11], [12]]) / 5.0 ** k).astype(np.int64)  # 10^(11-k) 2^k, ...
    q = rng.integers(*bounds) * 2 + 1
    ties = q / 2.0 ** (k + 1)
    decades = 10.0 ** np.arange(-6, 15)
    edges = np.concatenate([
        [100000000000.5, 9.9999999999995e-5, 999999999999.5, 1e12, 1e-4],
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        decades * (1 - 5e-13), decades * (1 - 4.9e-13), decades * (1 - 5.1e-13),
    ])
    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf]
    subnormal = rng.integers(1, 2**52, 64) * 5e-324
    picked = np.concatenate([ties, ties * LN2, edges, edges * LN2, specials, subnormal])
    spread = 10.0 ** rng.uniform(-8.0, 14.0, size - len(picked))
    deltas = np.concatenate([picked, spread]) * rng.choice([-1.0, 1.0], size)
    return rng.permutation(deltas)


@pytest.mark.parametrize("units", ["nats", "bits"])
def test_scan_text_spells_adversarial_deltas_as_the_oracle(units):
    scan = RegionScan(3, 7.0, 448, _adversarial_deltas(np.random.default_rng(2121), 448**2))
    for fmt in ("csv", "json"):
        assert serialize_region(scan, fmt, units) == serialize_region_literal(scan, fmt, units)


def _written_scans():
    yield from (region_scan(*args) for args in [(2, 3.0, 64), (3, 7.0, 16), (4, 15.0, 8),
                                                (5, 40.0, 8), (3, 7.0, 300),
                                                (2, 7.0, 3 * 2**14 + 5)])
    # exponent-form taus, and a last row shorter than the widest of them
    yield RegionScan(2, 7.0, 2**14, np.full(2**14, 0.5))
    # signed zeros and infinities, NaN, exponent forms, then %.12g's edges
    yield RegionScan(3, 7.0, 8, np.resize([-0.0, 0.0, 1e-5, 1.5e13, np.nan, np.inf, -np.inf,
                                           -1 / 3, 1e-4, -1.23456789012e-4, 123.0], 64))
    yield RegionScan(3, 7.0, 64, _adversarial_deltas(np.random.default_rng(2222), 64**2))


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_region_reads_the_writers_rows_without_a_general_parser(fmt, units, monkeypatch):
    def general(*args, **kwargs):
        raise AssertionError("the general reader ran")

    real, returned = scan_text._written_deltas, []

    def written(*args):
        returned.append(real(*args))
        return returned[-1]

    for name in ("_csv_rows", "_json_rows"):
        monkeypatch.setattr(scan_text, name, general)
    monkeypatch.setattr(np, "loadtxt", general)
    monkeypatch.setattr(scan_text, "_written_deltas", written)
    scans = list(_written_scans())
    for scan in scans:
        data = serialize_region(scan, fmt, units)
        if fmt == "csv":
            written = parse_region_csv_literal(data)[2]
        else:
            written = np.array([record["delta"] for record in json.loads(data)["records"]])
        back = parse_region(data)
        expected = written * (LN2 if units == "bits" else 1.0)
        assert back.deltas.tobytes() == expected.tobytes()  # bit for bit, NaN and -0.0 too
        assert np.array_equal(back.flags, expected > 0)
    assert returned == [True] * len(scans)  # each text read by the writer-checked reader


def _row_cells(lines, fmt):
    """(taus, delta, flag) cells of a 3-mode scan's data row, from its lines."""
    if fmt == "csv":
        *taus, delta, flag = lines[0].split(b",")
        return taus, delta, flag
    cells = [line.strip().rstrip(b",").rpartition(b" ")[2] for line in lines]
    return cells[2:4], cells[5], cells[6]


def _row_lines(fmt, taus, delta, flag, lead=None):
    """The lines of a data row with these cells, laid out as the writer lays them out,
    or with lead for the bytes between the taus and the delta."""
    if fmt == "csv":
        return [b",".join(taus) + (lead or b",") + delta + b"," + flag]
    return (b'    {\n      "taus": [\n        ' + b",\n        ".join(taus)
            + (lead or b'\n      ],\n      "delta": ') + delta + b',\n      "advantage": '
            + flag + b"\n    },").split(b"\n")


def _mutated(data, fmt, rng, kind, cell):
    """data with one seeded data row of a 3-mode scan changed (a cell respelled, a
    tau dropped, a line put before it), a row too many, bytes after the last row or in
    place of the last one, or the text laid out otherwise."""
    if kind == "indent":
        return (json.dumps(json.loads(data), indent=cell) + "\n").encode()
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "tail":
        return data + cell
    if kind == "end":  # the last byte
        return data[:-1] + cell
    lines = data.split(b"\n")
    size = 1 if fmt == "csv" else 8  # lines per row
    first = 6 if fmt == "csv" else lines.index(b'  "records": [') + 1
    n_rows = (lines.index(b"  ]") if fmt == "json" else len(lines) - 1) - first
    at = first + size * int(rng.integers(0, n_rows // size - 1))  # not the last row
    taus, delta, flag = _row_cells(lines[at:at + size], fmt)
    if kind == "line":
        lines.insert(at, cell)
    elif kind == "extra" and fmt == "csv":
        lines.insert(first + n_rows, lines[at])
    elif kind == "extra":  # the last record, then a copy of this one, without its comma
        end = first + n_rows
        lines[end - 1:end] = [b"    },"] + _row_lines(fmt, taus, delta, flag)[:-1] + [b"    }"]
    elif kind == "lead":  # as long as the writer's, but other bytes
        lead = {"csv": b";", "json": b'\n      ],\n      "Delta": '}[fmt]
        lines[at:at + size] = _row_lines(fmt, taus, delta, flag, lead)
    else:
        if kind == "delta":
            delta = cell
        elif kind == "tau":
            taus[0] = cell or taus[0] + (b"0" if b"." in taus[0] else b".0")
        else:  # ragged: a tau too few
            taus = taus[1:]
        lines[at:at + size] = _row_lines(fmt, taus, delta, flag)
    return b"\n".join(lines)


def _read(data):
    try:
        return parse_region(data).deltas.tobytes()
    except ValueError as exc:
        return str(exc)


_SPELLINGS = [  # (kind, cell, accepted by the general reader: True, False or one format)
    ("delta", b"0.50", True), ("delta", b"+0.5", "csv"), ("delta", b" 0.5", True),
    ("delta", b"5e-1", True), ("delta", b"1.50", True), ("delta", b"0.0000000000000001", True),
    ("tau", None, True), ("crlf", None, True), ("line", b"", True), ("line", b"# a note", "csv"),
    ("indent", 4, True), ("indent", None, True), ("delta", b"5.", "csv"), ("delta", b".5", "csv"),
    ("delta", b"1_0", False), ("delta", b"0x1", False), ("delta", b"-", False),
    ("delta", b"0.1:", False), ("delta", b"12.3.4", False), ("lead", None, False),
    ("tail", b"0,0,1,true", False), ("end", b"x", False),
    ("ragged", None, False), ("tau", b"0.3", False), ("extra", None, False),
]


@pytest.mark.parametrize("fmt, kind, cell, accepted", [
    (fmt, *spelling) for spelling in _SPELLINGS for fmt in ("csv", "json")
    if spelling[0] != "indent" or fmt == "json"
])
def test_parse_region_reads_other_spellings_as_the_general_reader(fmt, kind, cell, accepted,
                                                                  monkeypatch):
    data = serialize_region(region_scan(3, 7.0, 128), fmt)  # several windows of text
    rng = np.random.default_rng(list(f"{fmt} {kind} {cell}".encode()))
    text = _mutated(data, fmt, rng, kind, cell)
    assert text != data
    fast = _read(text)
    calls = []
    monkeypatch.setattr(scan_text, "_written_deltas", lambda *args: calls.append(args))
    assert fast == _read(text)  # the same deltas, or the same message
    assert len(calls) == 1  # the stand-in refused the text, so the general reader read it
    assert isinstance(fast, bytes) == (accepted in (True, fmt)), fast


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parse_region_allocates_the_grids_deltas_once(fmt, monkeypatch):
    # the writer-checked reader reads windows of this text, then gives up at a delta
    # in exponent form, and the general reader reads it into the same deltas
    scan = region_scan(3, 7.0, 128)
    text = _mutated(serialize_region(scan, fmt), fmt, np.random.default_rng(9), "delta", b"5e-1")
    want = _read(text)
    real_empty, sizes = np.empty, []

    def empty(shape, *args, **kwargs):
        sizes.append(shape)
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    assert _read(text) == want and isinstance(want, bytes)
    assert [size for size in sizes if size in (scan.n_points, (scan.n_points,))] == [scan.n_points]


@pytest.mark.parametrize("extra", [[], ["--format", "json", "--bits"]])
def test_scan_out_file_matches_stdout(extra, tmp_path, capsys):
    argv = ["scan", "--modes", "3", "--nbar", "7", "--grid", "300", *extra]
    assert main(argv) == 0
    printed = capsys.readouterr().out.encode()
    out = tmp_path / "scan.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == printed
    fmt, units = ("json", "bits") if extra else ("csv", "nats")
    assert printed == serialize_region(region_scan(3, 7.0, 300), fmt, units)


def test_scan_over_the_point_cap_fails_before_building_the_grid(monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("the tau grid was built before the size check")

    monkeypatch.setattr(np, "empty", no_grid)  # region_scan's deltas
    monkeypatch.setattr(advantage_analysis, "_grid_index", no_grid)
    assert main(["scan", "--modes", "6", "--nbar", "7", "--grid", "64"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: --grid: a 6-mode scan at grid 64 has 1,073,741,824 points (about 9.66 GB)"
    )


@pytest.mark.parametrize("modes, grid, size", [
    (5000, 8, "more than 2^64 points"), (9, 64, "281,474,976,710,656 points (about 2.53e+06 GB)"),
])
def test_scan_refuses_a_grid_over_the_cap_while_parsing(modes, grid, size, monkeypatch, capsys):
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the grid size was checked")

    monkeypatch.setattr(cli_scan, "_scan_chunks", no_scan)
    argv = ["scan", "--modes", str(modes), "--nbar", "7", "--grid", str(grid)]
    message = f"--grid: a {modes}-mode scan at grid {grid} has {size}, over the cap of 16,777,216"
    with pytest.raises(CliConfigError, match=re.escape(message)):
        parse_args(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_scan_command_exit_codes_and_files(tmp_path):
    empty = tmp_path / "empty.csv"
    code = main(["scan", "--modes", "3", "--nbar", "5", "--grid", "16",
                 "--out", str(empty)])
    assert code == 2  # scan completed but found no advantage anywhere
    back = parse_region(empty.read_bytes())
    assert back.n_advantage == 0
    hits = tmp_path / "hits.json"
    code = main(["scan", "--modes", "3", "--nbar", "7", "--grid", "16",
                 "--out", str(hits), "--format", "json"])
    assert code == 0
    assert parse_region(hits.read_bytes()).n_advantage > 0


def test_out_into_missing_directory_fails_before_computing(tmp_path, monkeypatch, capsys):
    def no_scan(*args):
        raise AssertionError("the scan ran before --out was checked")

    monkeypatch.setattr(cli_scan, "_scan_chunks", no_scan)
    out = tmp_path / "missing" / "x.csv"
    assert main(["scan", "--modes", "3", "--nbar", "7", "--grid", "16",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert main(["scan", "--modes", "3", "--nbar", "7", "--grid", "16",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: it is a directory\n"


def test_a_refused_scan_writes_nothing(tmp_path, capsys):
    # the kernel refuses the budget on the first chunk, before a header byte or a file
    argv = ["scan", "--modes", "3", "--nbar", "1e160", "--grid", "8"]
    for extra in ([], ["--format", "json"]):
        out = tmp_path / "scan.txt"
        for target in ([], ["--out", str(out)]):
            assert main(argv + extra + target) == 1
            assert capsys.readouterr() == ("", "error: photon budget 1e+160 overflows the "
                                               "determinant\n")
        assert not out.exists()


@pytest.mark.parametrize("n_modes, small, large", [(3, 256, 1024), (2, 2**16, 2**20)])
def test_cli_scan_memory_is_flat_in_the_grid(n_modes, small, large, monkeypatch):
    # the CLI streams the kernel's chunks to the text: it built the whole scan, 9 B a
    # point, and peaked at 5.8 MB, then 14.6 MB, for (3, 10, 256) and (3, 10, 1024)
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=len))  # a sink
    peaks = []
    for grid in (small, large):
        argv = ["scan", "--modes", str(n_modes), "--nbar", "10", "--grid", str(grid)]
        code, peak = traced_peak(main, argv)
        assert code == 0
        peaks.append(peak)
    assert peaks[1] <= 1.25 * peaks[0] + 1e6, [f"{peak / 1e6:.1f} MB" for peak in peaks]


def test_scan_command_bits_header(tmp_path):
    out = tmp_path / "scan.csv"
    main(["scan", "--modes", "3", "--nbar", "7", "--grid", "8", "--bits",
          "--out", str(out)])
    text = out.read_text()
    assert "# units=bits" in text
    assert "tau1,tau2,delta_bits,advantage" in text


# --- threshold, breakeven, ratio --------------------------------------------------

def test_threshold_command_fixed_taus(capsys):
    assert main(["threshold", "--modes", "3", "--tau", "0.5,0.5"]) == 0
    result = _json_out(capsys)["result"]
    assert result["nbar_th"] == pytest.approx(TH3_BALANCED, abs=1e-5)


def test_threshold_command_global_minimum(capsys):
    assert main(["threshold", "--modes", "3"]) == 0
    result = _json_out(capsys)["result"]
    assert result["nbar_th"] == pytest.approx(MIN_TH3, abs=1e-5)
    assert abs(result["taus"][0] - 0.5) <= 1e-3
    assert sorted(result) == ["n_modes", "nbar_th", "taus"]


def test_threshold_command_global_minimum_five_modes(capsys):
    assert main(["threshold", "--modes", "5"]) == 0
    result = _json_out(capsys)["result"]
    assert result["taus"] == [0.5, 0.0, 0.0, 0.0]
    assert result["nbar_th"] < threshold_energy(5, (0.5, 0.5, 0.5, 0.5))


def test_threshold_command_no_advantage_diagnostic(capsys):
    assert main(["threshold", "--modes", "3", "--tau", "0,0"]) == 2
    obj = _json_out(capsys)
    assert "result" not in obj
    diag = obj["diagnostic"]
    assert diag["error"] == "no-advantage"
    assert diag["search_cap"] == 1e4


def test_threshold_command_names_the_tau_that_cuts_the_chain(capsys):
    assert main(["threshold", "--modes", "4", "--tau", "0.3,1,0.2"]) == 2
    diag = _json_out(capsys)["diagnostic"]
    assert diag["message"] == ("no quantum advantage at any budget for 4-mode taus "
                               "(0.3, 1.0, 0.2): tau_2 = 1 cuts the chain")


def test_breakeven_command(capsys):
    assert main(["breakeven", "--modes", "3", "--tau", "0.5,0.5"]) == 0
    result = _json_out(capsys)["result"]
    assert result["r_break_even"] == pytest.approx(BREAK_EVEN3, abs=1e-5)
    assert result["nbar_th"] == pytest.approx(TH3_BALANCED, abs=1e-5)
    assert main(["breakeven", "--modes", "3", "--tau", "0,0"]) == 2
    assert _json_out(capsys)["diagnostic"]["error"] == "no-advantage"


def test_ratio_command(capsys):
    assert main(["ratio", "--modes", "3", "--tau", "0.5,0.5"]) == 0
    result = _json_out(capsys)["result"]
    assert result["squeezing"] == 20.0
    assert result["limit"] == 1.5
    assert result["ratio"] == pytest.approx(RATIO3_R20, rel=1e-10)
    assert main(["ratio", "--modes", "3", "--tau", "0.5,0.5",
                 "--squeezing", "15"]) == 0
    assert _json_out(capsys)["result"]["ratio"] < RATIO3_R20


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8.15"],
         ["n_modes", "taus", "nbar", "r", "sigma_msg_sq", "c_quantum", "c_classical", "delta"]),
        (["threshold", "--modes", "3"], ["n_modes", "taus", "nbar_th"]),
        (["threshold", "--modes", "3", "--tau", "0.5,0.5"], ["n_modes", "taus", "nbar_th"]),
        (["breakeven", "--modes", "3", "--tau", "0.5,0.5"],
         ["n_modes", "taus", "r_break_even", "nbar_th"]),
        (["ratio", "--modes", "3", "--tau", "0.5,0.5"],
         ["n_modes", "taus", "squeezing", "ratio", "limit"]),
    ],
    ids=["capacity", "threshold-global", "threshold-tau", "breakeven", "ratio"],
)
def test_each_result_has_its_keys_in_order(argv, keys, capsys):
    assert main(argv) == 0
    obj = _json_out(capsys)
    assert list(obj) == ["meta", "result"]
    assert list(obj["result"]) == keys
    assert type(obj["result"]["n_modes"]) is int and len(obj["result"]["taus"]) == 2


# --- verify command ----------------------------------------------------------------

def test_verify_command_text_json_and_exit_code(tmp_path, capsys):
    report = tmp_path / "checkpoints.json"
    code = main(["verify", "--out", str(report)])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "reference checkpoint suite"
    body, summary = lines[1:-1], lines[-1]
    assert len(body) == 8
    n_pass = sum(line.split()[1] == "PASS" for line in body)
    assert all(line.split()[1] in ("PASS", "FAIL") for line in body)
    assert summary == f"passed {n_pass}/8"
    assert code == (0 if n_pass == 8 else 2)
    obj = json.loads(report.read_text())
    assert obj["total"] == 8 and obj["passed"] == n_pass
    names = [rec["name"] for rec in obj["checkpoints"]]
    assert names == [
        "three_mode_threshold_at_balanced_taus",
        "four_mode_threshold_at_balanced_taus",
        "three_mode_minimum_threshold",
        "four_mode_minimum_threshold",
        "three_mode_break_even_squeezing",
        "four_mode_break_even_squeezing",
        "three_mode_capacity_ratio_at_r20",
        "four_mode_capacity_ratio_at_r20",
    ]
    for rec in obj["checkpoints"]:
        err = abs(rec["value"] - rec["expected"])
        bound = rec["tolerance"] * (
            1.0 if rec["kind"] == "abs" else abs(rec["expected"])
        )
        assert rec["passed"] == (err <= bound + 1e-12)


def test_checkpoint_records_are_self_consistent():
    records = run_checkpoints()
    assert len(records) == 8
    assert all(set(r) == {"name", "value", "expected", "tolerance", "kind", "passed"}
               for r in records)
    # each value is the library call its name describes, to 12 digits
    described = {
        "three_mode_threshold_at_balanced_taus": lambda: threshold_energy(3, (0.5, 0.5)),
        "four_mode_threshold_at_balanced_taus": lambda: threshold_energy(4, (0.5, 0.5, 0.5)),
        "three_mode_minimum_threshold": lambda: min_threshold_energy(3).nbar_th,
        "four_mode_minimum_threshold": lambda: min_threshold_energy(4).nbar_th,
        "three_mode_break_even_squeezing": lambda: break_even_squeezing(3, (0.5, 0.5)),
        "four_mode_break_even_squeezing": lambda: break_even_squeezing(4, (0.5, 0.5, 0.5)),
        "three_mode_capacity_ratio_at_r20": lambda: asymptotic_ratio(3, (0.5, 0.5), 20.0),
        "four_mode_capacity_ratio_at_r20": lambda: asymptotic_ratio(4, (0.5, 0.5, 0.5), 20.0),
    }
    assert [r["name"] for r in records] == list(described)
    for rec in records:
        assert rec["value"] == float("%.12g" % described[rec["name"]]()), rec["name"]


# --- process-level smoke -----------------------------------------------------------

def _subprocess_env():
    """os.environ with the cvdcnet package imported here first on PYTHONPATH."""
    src = str(Path(cvdcnet.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=src + os.pathsep + path if path else src,
        PYTHONDONTWRITEBYTECODE="1",
    )


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cvdcnet", "capacity", "--modes", "3",
         "--tau", "0.5,0.5", "--nbar", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["result"]["c_quantum"] > 0


def test_module_entry_point_runs_verify_subprocess():
    proc = subprocess.run([sys.executable, "-m", "cvdcnet", "verify"], capture_output=True,
                          text=True, timeout=120, env=_subprocess_env())
    lines = proc.stdout.splitlines()
    marks = [re.fullmatch(r"\[\d/8\] (PASS|FAIL) .*", line) for line in lines[1:-1]]
    assert len(marks) == 8 and all(marks), proc.stdout
    n_pass = sum(mark[1] == "PASS" for mark in marks)
    assert lines[-1] == f"passed {n_pass}/8" and proc.stderr == ""
    # 2 while a checkpoint fails, as the two asymptotic-ratio checkpoints do today
    assert proc.returncode == (0 if n_pass == 8 else 2)


def test_cli_loads_no_distribution_but_numpy():
    # NumPy is the only runtime dependency: a fresh interpreter that runs the
    # Monte Carlo, scan, threshold and verify paths imports no module of any
    # other installed distribution (SciPy included)
    script = (
        "import contextlib, io, json, sys\n"
        "from importlib.metadata import packages_distributions\n"
        "before = set(sys.modules)\n"
        "import cvdcnet\n"
        "from cvdcnet import cli_scan\n"
        "codes = []\n"
        "for argv in (\n"
        "    ['capacity', '--modes', '3', '--tau', '0.5,0.5', '--nbar', '2',"
        " '--samples', '10000'],\n"
        "    ['scan', '--modes', '3', '--nbar', '7', '--grid', '8'],\n"
        "    ['threshold', '--modes', '3'],\n"
        "    ['verify'],\n"
        "):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli_scan.main(argv))\n"
        "owners = packages_distributions()\n"
        "names = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "dists = sorted({d for name in names for d in owners.get(name, ())})\n"
        "print(json.dumps({'codes': codes, 'distributions': dists}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["codes"][:3] == [0, 0, 0] and obj["codes"][3] in (0, 2)  # verify: 2 on a FAIL
    assert set(obj["distributions"]) - {"cvdcnet"} == {"numpy"}


def _declared_console_script():
    """The `cvdcnet` target declared under [project.scripts] in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["cvdcnet"]


def test_console_script_subprocess(tmp_path):
    # Run the declared entry point in a fresh interpreter the way an
    # installer's wrapper script does, against the cvdcnet package imported
    # here rather than whatever copy may be installed on PATH.
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"entry = EntryPoint(name='cvdcnet', value={_declared_console_script()!r},"
        " group='console_scripts').load()\n"
        "sys.argv[0] = 'cvdcnet'\n"
        "sys.exit(entry())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "ratio", "--modes", "4", "--tau", "0.5,0.5,0.5"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["limit"] == pytest.approx(4 / 3)
