import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import cvdcnet
from cvdcnet.advantage_analysis import RegionScan, region_scan, threshold_energy
from cvdcnet.cli_scan import (
    _ROWS_PER_CHUNK,
    LN2,
    CliConfigError,
    RunConfig,
    main,
    parse_args,
    parse_region,
    run_checkpoints,
    serialize_region,
)
from cvdcnet.resource_prep import CONVENTION_FINGERPRINT

from helpers import (
    BREAK_EVEN3,
    CAP3_BALANCED_815,
    MIN_TH3,
    RATIO3_R20,
    TH3_BALANCED,
    parse_region_csv_literal,
    serialize_region_literal,
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
    ],
)
def test_rejected_values_name_the_flags(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(message)


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
    with pytest.raises(CliConfigError, match="samples must be >= 10000"):
        parse_args(["capacity", "--config", str(cfg)])
    with pytest.raises(CliConfigError, match="format must be one of"):
        parse_args(["scan", "--config", str(cfg)])
    with pytest.raises(CliConfigError, match="ratio needs --squeezing >= 10"):
        parse_args(["ratio", "--config", str(cfg)])


def test_parser_keeps_no_state_between_calls(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nbar = 7\nout = scan.json\n")
    first = parse_args(["scan", "--modes", "3", "--grid", "16", "--bits",
                        "--format", "json", "--config", str(cfg)])
    assert (first.bits, first.fmt, first.out) == (True, "json", "scan.json")
    second = parse_args(["scan", "--modes", "3", "--nbar", "7", "--grid", "16"])
    assert second == RunConfig(command="scan", modes=3, nbar=7.0, grid=16)


def test_config_file_rejects_unknown_keys_and_bad_lines(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("modez = 3\n")
    with pytest.raises(CliConfigError, match="unknown key"):
        parse_args(["capacity", "--config", str(bad_key)])
    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("modes 3\n")
    with pytest.raises(CliConfigError, match="key = value"):
        parse_args(["capacity", "--config", str(bad_line)])
    with pytest.raises(CliConfigError, match="cannot read"):
        parse_args(["capacity", "--config", str(tmp_path / "missing.cfg")])


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
    rows = b"tau1,tau2,delta_nats,advantage\n0.5,0.5,1,true\n"
    with pytest.raises(ValueError, match="'units'"):
        parse_region(rows)
    with pytest.raises(ValueError, match="'n_modes'"):
        parse_region(b"# units=nats\n" + rows)
    meta = b"# n_modes=3\n# nbar=7\n# grid_resolution=8\n# units=nats\n"
    with pytest.raises(ValueError, match="'maybe'"):
        parse_region(meta + rows.replace(b"true", b"maybe"))
    good = json.loads(serialize_region(scan, "json"))
    for key in ("meta", "records"):
        partial = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_region(json.dumps(partial).encode())


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
    for text in (data, crlf_and_blank_lines):
        back = parse_region(text)
        assert back.n_modes == int(meta["n_modes"]) and back.nbar == float(meta["nbar"])
        assert np.array_equal(back.taus, taus)
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
    # unsorted, repeated taus with 0.0 beside -0.0; deltas at the edges of %.12g
    taus = np.array([[0.5, -0.0], [0.0, 0.25], [0.5, 0.0], [-0.0, 1.0], [0.0, 0.25],
                     [1e-300, 1 / 3]])
    deltas = np.array([-0.0, 1e-5, 1.5e13, np.nan, np.inf, -1 / 3])
    return RegionScan(3, 7.0, 8, taus, deltas, deltas > 0)


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "make_scan",
    [
        lambda: region_scan(3, 7.0, 300),
        _hand_built_scan,
        lambda: RegionScan(3, 7.0, 8, np.empty((0, 2)), np.empty(0), np.empty(0, bool)),
    ],
    ids=["several_chunks", "hand_built", "empty"],
)
def test_chunked_scan_text_matches_the_oracle(make_scan, fmt, units):
    scan = make_scan()
    if scan.n_points > 6:
        assert scan.n_points > 5 * _ROWS_PER_CHUNK  # the grid scan spans several chunks
    assert serialize_region(scan, fmt, units) == serialize_region_literal(scan, fmt, units)


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

    monkeypatch.setattr(np, "meshgrid", no_grid)
    assert main(["scan", "--modes", "6", "--nbar", "7", "--grid", "64"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: a 6-mode scan at grid 64 has 1,073,741,824 points (about 51.5 GB)"
    )


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
        raise AssertionError("region_scan ran before --out was checked")

    monkeypatch.setattr("cvdcnet.cli_scan.region_scan", no_scan)
    out = tmp_path / "missing" / "x.csv"
    assert main(["scan", "--modes", "3", "--nbar", "7", "--grid", "16",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
    assert main(["scan", "--modes", "3", "--nbar", "7", "--grid", "16",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: it is a directory\n"


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
    assert len(result["ties"]) >= 2


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
