"""One rule per input: each value is checked once, in the lowest module that
owns it, with one message text, and every entry point and CLI flag reuses it."""

import ast
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import cvdcnet
from cvdcnet import (
    CapacityReport,
    EncodingPlan,
    GaussianState,
    Quadrature,
    QuadratureSelection,
    RegionScan,
    ResourceSpec,
    SymplecticTransform,
    alternating_pattern,
    asymptotic_ratio,
    beam_splitter,
    break_even_squeezing,
    build_channel,
    capacity,
    classical_capacity,
    decoding_symplectic,
    displace,
    main,
    marginal,
    min_threshold_energy,
    mutual_information_mc,
    optimal_params,
    parse_region,
    photon_constraint,
    quantum_advantage,
    region_scan,
    single_mode_squeezer,
    symplectic_form,
    tau_boundaries,
    three_mode_reference_cov,
    threshold_energy,
    vacuum,
)
from cvdcnet import dc_protocol
from cvdcnet.advantage_analysis import _asymptotic_regime, _grid_resolution
from cvdcnet.cli_scan import serialize_region
from cvdcnet.dc_protocol import (
    _budget,
    _check_sample_count,
    _check_seed,
    decoded_quadrature_variances,
)
from cvdcnet.phase_space import _mode_count, _mode_index, _quadrature, _transmissivity
from cvdcnet.resource_prep import _squeezing, _validated_taus

PACKAGE = Path(cvdcnet.__file__).parent
Q, P = Quadrature.POSITION, Quadrature.MOMENTUM

# each rule's one message text, and the module and function that raise it
RULES = {
    "mode count": ("phase_space", "_mode_count",
                   "the mode count must be a whole number >= {least}, got {value}"),
    "mode count size": ("phase_space", "_mode_count",
                        "the mode count has {bits} bits, past the float range"),
    "mode index": ("phase_space", "_mode_index",
                   "the mode index must be one of the modes 0..2, got {value}"),
    "quadrature": ("phase_space", "_quadrature", "not a Quadrature: {value!r}"),
    "transmissivity": ("phase_space", "_transmissivity",
                       "transmissivity must lie in [0, 1], got {value}"),
    "tau count": ("resource_prep", "_validated_taus",
                  "{n}-mode chain needs {n_taus} transmissivities, got {value}"),
    "nbar": ("dc_protocol", "_budget", "nbar must be finite and >= 0, got {value}"),
    "r": ("resource_prep", "_squeezing",
          "squeezing strength must be finite and >= 0, got {value}"),
    "grid": ("advantage_analysis", "_grid_resolution",
             "grid_resolution must be a whole number >= 8, got {value}"),
    "grid points": ("advantage_analysis", "_grid_points",
                    "a {n}-mode scan at grid {value} has more than 2^64 points, over the cap of "
                    "16,777,216"),
    "samples": ("dc_protocol", "_check_sample_count",
                "samples must be a whole number >= 10000, got {value}"),
    "seed": ("dc_protocol", "_check_seed", "seed must be a whole number in [0, 2^64), got {value}"),
    "ratio regime": ("advantage_analysis", "_asymptotic_regime",
                     "asymptotic regime starts at r_large >= 10, got {value}"),
}

# the one rule on a value's kind rather than its range raises TypeError
ERRORS = {"quadrature": TypeError}
# the rules on a float, whose text shows an int past the float range as the infinity of its sign
REAL = {"transmissivity", "nbar", "r", "ratio regime"}
HUGE = (10**400, -10**400)  # each was an OverflowError in a rule on a float

# (rule, bad values, the entry points that take the value, as name: call(value))
_MODES_1 = {  # least = 1
    "GaussianState": lambda n: GaussianState(n, np.zeros(4), 0.5 * np.eye(4)),
    "SymplecticTransform": lambda n: SymplecticTransform(n, np.eye(4)),
    "symplectic_form": symplectic_form,
    "vacuum": vacuum,
    "single_mode_squeezer": lambda n: single_mode_squeezer(n, 0, 0.5, Q),
    "beam_splitter": lambda n: beam_splitter(n, 0, 1, 0.5),
    "alternating_pattern": alternating_pattern,
    "classical_capacity": lambda n: classical_capacity(n, 1.0),  # its sender count
    "decoded_quadrature_variances": lambda n: decoded_quadrature_variances(n, 0.5),
}
_MODES_2 = {  # least = 2
    "ResourceSpec": lambda n: ResourceSpec(n, 0.5, (0.5,)),
    "EncodingPlan": lambda n: EncodingPlan(n, 1.0, ((0, Q), (0, P))),
    "EncodingPlan.standard": lambda n: EncodingPlan.standard(n, 1.0),
    "decoding_symplectic": lambda n: decoding_symplectic(n, (0.5,)),
    "photon_constraint": lambda n: photon_constraint(n, 0.5, 1.0),
    "optimal_params": lambda n: optimal_params(n, 1.0),
    "capacity": lambda n: capacity(n, (0.5,), 1.0),
    "CapacityReport": lambda n: CapacityReport(n, (0.5,), 1.0, 0.5, 1.0, 1.0, 1.0, 0.0),
    "quantum_advantage": lambda n: quantum_advantage(n, (0.5,), 1.0),
    "threshold_energy": lambda n: threshold_energy(n, (0.5,)),
    "min_threshold_energy": min_threshold_energy,
    "tau_boundaries": lambda n: tau_boundaries(n, 7.0),
    "break_even_squeezing": lambda n: break_even_squeezing(n, (0.5,)),
    "asymptotic_ratio": lambda n: asymptotic_ratio(n, (0.5,), 20.0),
    "region_scan": lambda n: region_scan(n, 7.0, 8),
    "RegionScan": lambda n: RegionScan(n, 7.0, 8, np.zeros(8)),
}
_BUDGETS = {
    "optimal_params": lambda nbar: optimal_params(3, nbar),
    "capacity": lambda nbar: capacity(3, (0.5, 0.5), nbar),
    "quantum_advantage": lambda nbar: quantum_advantage(3, (0.5, 0.5), nbar),
    "classical_capacity": lambda nbar: classical_capacity(2, nbar),
    "region_scan": lambda nbar: region_scan(3, nbar, 8),
    "RegionScan": lambda nbar: RegionScan(3, nbar, 8, np.zeros(64)),
}
_SCAN_JSON = serialize_region(region_scan(3, 7.0, 8), "json")
_CHANNEL = build_channel(ResourceSpec(3, 0.5, (0.5, 0.5)), EncodingPlan.standard(3, 1.0))


def _scan_json_with(key, value):
    """The JSON of a three-mode, grid-8 scan, with one metadata count replaced."""
    default = {"n_modes": 3, "grid_resolution": 8}[key]
    return parse_region(_SCAN_JSON.replace(f'"{key}": {default},'.encode(),
                                           f'"{key}": {value},'.encode()))


_TABLE = [
    ("mode count", (2.5, 0), _MODES_1),
    ("mode count", (2.5, 1), _MODES_2),
    # past the float range: was an OverflowError, then "must be a whole number"
    ("mode count size", (10**400,), {
        **_MODES_1,
        **_MODES_2,
        "_mode_count": _mode_count,
        "parse_region": lambda n: _scan_json_with("n_modes", n),
    }),
    ("mode index", (1.5, -1, 3, math.nan), {  # 1.5 was an IndexError, or cut to 1
        "single_mode_squeezer": lambda m: single_mode_squeezer(3, m, 0.5, Q),
        "beam_splitter i": lambda m: beam_splitter(3, m, 0, 0.5),
        "beam_splitter j": lambda m: beam_splitter(3, 0, m, 0.5),
        "displace": lambda m: displace(vacuum(3), m, 0.5),
        "marginal": lambda m: marginal(vacuum(3), [m]),
        "EncodingPlan": lambda m: EncodingPlan(4, 1.0, ((0, Q), (0, P), (1, P), (m, Q))),
    }),
    ("quadrature", ("q", None), {
        "QuadratureSelection": lambda q: QuadratureSelection((P, q)),
        "single_mode_squeezer": lambda q: single_mode_squeezer(3, 0, 0.5, q),
        "EncodingPlan": lambda q: EncodingPlan(3, 1.0, ((0, Q), (0, P), (1, q))),
    }),
    ("transmissivity", (-0.1, 1.5, math.nan, *HUGE), {
        "beam_splitter": lambda t: beam_splitter(2, 0, 1, t),
        "three_mode_reference_cov tau1": lambda t: three_mode_reference_cov(0.5, t, 0.5),
        "three_mode_reference_cov tau2": lambda t: three_mode_reference_cov(0.5, 0.5, t),
        "ResourceSpec": lambda t: ResourceSpec(3, 0.5, (0.5, t)),
        "decoding_symplectic": lambda t: decoding_symplectic(3, (t, 0.5)),
        "capacity": lambda t: capacity(3, (0.5, t), 8.0),
        "CapacityReport": lambda t: CapacityReport(3, (0.5, t), 8.0, 1.0, 1.0, 1.0, 1.0, 0.0),
        "quantum_advantage": lambda t: quantum_advantage(3, (t, 0.5), 8.0),
        "threshold_energy": lambda t: threshold_energy(3, (0.5, t)),
        "tau_boundaries": lambda t: tau_boundaries(3, 7.0, (t,)),
        "break_even_squeezing": lambda t: break_even_squeezing(3, (t, 0.5)),
        "asymptotic_ratio": lambda t: asymptotic_ratio(3, (0.5, t), 20.0),
    }),
    ("tau count", (1, 3), {
        "ResourceSpec": lambda k: ResourceSpec(3, 0.5, (0.5,) * k),
        "decoding_symplectic": lambda k: decoding_symplectic(3, (0.5,) * k),
        "capacity": lambda k: capacity(3, (0.5,) * k, 8.0),
        "CapacityReport": lambda k: CapacityReport(3, (0.5,) * k, 8.0, 1.0, 1.0, 1.0, 1.0, 0.0),
        "quantum_advantage": lambda k: quantum_advantage(3, (0.5,) * k, 8.0),
        "threshold_energy": lambda k: threshold_energy(3, (0.5,) * k),
        "break_even_squeezing": lambda k: break_even_squeezing(3, (0.5,) * k),
        "asymptotic_ratio": lambda k: asymptotic_ratio(3, (0.5,) * k, 20.0),
    }),
    ("nbar", (-1.0, math.nan, math.inf), {
        **_BUDGETS,
        "classical_capacity array": lambda nbar: classical_capacity(2, np.array([1.0, nbar])),
    }),
    ("nbar", HUGE, _BUDGETS),  # a float array cannot hold such an int
    ("r", (-1.0, math.nan, math.inf, *HUGE), {
        "ResourceSpec": lambda r: ResourceSpec(3, r, (0.5, 0.5)),
        "photon_constraint": lambda r: photon_constraint(3, r, 1.0),
        "three_mode_reference_cov": lambda r: three_mode_reference_cov(r, 0.5, 0.5),
        "decoded_quadrature_variances": lambda r: decoded_quadrature_variances(3, r),
    }),
    ("grid", (7, 8.5), {
        "region_scan": lambda grid: region_scan(3, 7.0, grid),
        "RegionScan": lambda grid: RegionScan(3, 7.0, grid, np.zeros(64)),
    }),
    # past the float range: was an OverflowError, then "must be a whole number"
    ("grid points", (10**400,), {
        "region_scan": lambda grid: region_scan(3, 7.0, grid),
        "parse_region": lambda grid: _scan_json_with("grid_resolution", grid),
    }),
    # 10_000.5 was a TypeError, NaN a NaN estimate, and inf was told it needed at least 10000
    ("samples", (9_999, 10_000.5, math.nan, math.inf), {
        "mutual_information_mc": lambda samples: mutual_information_mc(_CHANNEL, samples, 0),
    }),
    # the seed had no rule in the library: -1 and 2.5 failed in NumPy on the worker thread
    ("seed", (-1, 2.5, 2**64, math.nan, math.inf), {
        "mutual_information_mc": lambda seed: mutual_information_mc(_CHANNEL, 10_000, seed),
    }),
    ("ratio regime", (5.0, math.nan, -10**400), {  # +10^400 overflows the budget instead
        "asymptotic_ratio": lambda r: asymptotic_ratio(3, (0.5, 0.5), r),
    }),
]


def _as_float(value):
    """value as a rule on a float shows it: an int past the float range as an infinity."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return math.inf if value > 0 else -math.inf
    return value


def _text(rule, value, least=2):
    """The rule's text for a bad value; tau counts are of a 3-mode chain, and mode
    indices of a 3-mode state or transform, or of a 4-mode plan's 3 senders."""
    bits = value.bit_length() if isinstance(value, int) else None
    value = _as_float(value) if rule in REAL else value
    return RULES[rule][2].format(least=least, value=value, n=3, n_taus=2, bits=bits)


def _label(value) -> str:
    """A bad value as a test id spells it: a power of ten past the float range as 10^k."""
    text = str(value)
    sign = "-" * text.startswith("-")
    return f"{sign}10^{len(text.lstrip('-')) - 1}" if len(text) > 300 else text


@pytest.mark.parametrize("rule, value, least, call", [
    pytest.param(rule, value, 1 if calls is _MODES_1 else 2, call,
                 id=f"{rule}-{_label(value)}-{name}")
    for rule, values, calls in _TABLE for value in values for name, call in calls.items()
])
def test_every_entry_point_raises_the_rule_of_a_bad_value(rule, value, least, call):
    # no bare TypeError or OverflowError, no truncation to a valid value, no
    # RuntimeWarning (an error here); a kind rule's TypeError is its own
    with pytest.raises(ERRORS.get(rule, ValueError)) as info:
        call(value)
    assert str(info.value) == _text(rule, value, least)


def _refuse(*args, **kwargs):
    raise AssertionError("drew samples or started a thread")


def test_a_sample_count_is_any_whole_number_and_is_checked_before_any_draw(monkeypatch):
    assert mutual_information_mc(_CHANNEL, 1e5, 0) == mutual_information_mc(_CHANNEL, 100_000, 0)
    monkeypatch.setattr(dc_protocol.np.random, "default_rng", _refuse)
    monkeypatch.setattr(dc_protocol.threading, "Thread", _refuse)
    with pytest.raises(ValueError, match="got 10000.5"):
        mutual_information_mc(_CHANNEL, 10_000.5, 0)


def test_a_seed_is_any_whole_number():
    estimates = [mutual_information_mc(_CHANNEL, 10_000, seed) for seed in (1000, 1e3, 1000.0)]
    assert estimates[1] == estimates[0] and estimates[2] == estimates[0]


@pytest.mark.parametrize("seed", [-1, 2.5, 2**64, None], ids=["-1", "2.5", "2^64", "None"])
def test_a_seed_is_checked_before_any_generator_or_thread(seed, monkeypatch):
    # None ran unseeded; -1 and 2.5 failed in NumPy once the worker thread had started
    monkeypatch.setattr(dc_protocol.np.random, "default_rng", _refuse)
    monkeypatch.setattr(dc_protocol.threading, "Thread", _refuse)
    with pytest.raises(ValueError if seed is not None else TypeError) as info:
        mutual_information_mc(_CHANNEL, 10_000, seed)
    if seed is not None:
        assert str(info.value) == _text("seed", seed)


_CAP_TEXT = (f"{{}} samples exceed the cap of {dc_protocol.MC_MAX_SAMPLES}: at 8 B a sample, "
             "their values would take {} GiB")


# 8 x 10^400 B = 5^27 x 10^373 GiB exactly; one sample past the cap is a few bytes past 1 GiB
@pytest.mark.parametrize("samples, gib", [(dc_protocol.MC_MAX_SAMPLES + 1, "over 1.0"),
                                          (10**400, f"{5**27 * 10**373}.0")],
                         ids=["cap+1", "10^400"])
def test_every_whole_count_over_the_sample_cap_gets_the_cap_text(samples, gib, monkeypatch,
                                                                  capsys):
    # 10^400 was told it needed at least 10000 samples, and cap + 1 read "1.0 GiB"
    monkeypatch.setattr(dc_protocol.np.random, "default_rng", _refuse)
    monkeypatch.setattr(dc_protocol.threading, "Thread", _refuse)
    text = _CAP_TEXT.format(samples, gib)
    with pytest.raises(ValueError) as info:
        mutual_information_mc(_CHANNEL, samples, 0)
    assert str(info.value) == text
    argv = ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--samples"]
    assert main([*argv, str(samples)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --samples: {text}\n"


def test_tau_boundaries_keeps_its_stricter_budget_floor():
    for nbar in (0.0, -1.0, math.nan, math.inf, *HUGE):
        with pytest.raises(ValueError) as info:
            tau_boundaries(3, nbar)
        assert str(info.value) == f"nbar must be finite and > 0, got {_as_float(nbar)}"


@pytest.mark.parametrize("value, call, text", [
    pytest.param(10**400, lambda r: asymptotic_ratio(3, (0.5, 0.5), r),
                 "r = inf overflows the photon budget, finite up to r = 354.9",
                 id="asymptotic_ratio-10^400"),
    *[pytest.param(value, call, text.format(_as_float(value)), id=f"{name}-{_label(value)}")
      for name, call, text in [
          ("threshold_energy tol", lambda tol: threshold_energy(3, (0.5, 0.5), tol=tol),
           "tol must be > 0 and finite, got {}"),
          ("photon_constraint sigma_msg_sq", lambda sq: photon_constraint(3, 0.5, sq),
           "sigma_msg_sq must be finite and >= 0, got {}"),
          ("EncodingPlan.standard sigma_msg", lambda sigma: EncodingPlan.standard(3, sigma),
           "sigma_msg must be finite and > 0, got {}"),
      ] for value in HUGE],
])
def test_an_int_past_the_float_range_meets_the_real_valued_check(value, call, text):
    # each was an OverflowError ("int too large to convert to float")
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == text


_LONG = 10**5000  # 5,001 digits: str() of an int stops at 4,300 by default
_LONG_BITS = "a 16610-bit int"


@pytest.mark.parametrize("call, text", [
    (lambda: _mode_count(-_LONG),
     "the mode count must be a whole number >= 2, got a negative 16610-bit int"),
    (lambda: _mode_index(_LONG, 3),
     f"the mode index must be one of the modes 0..2, got {_LONG_BITS}"),
    (lambda: _grid_resolution(-_LONG),
     "grid_resolution must be a whole number >= 8, got a negative 16610-bit int"),
    (lambda: region_scan(3, 7.0, _LONG),
     f"a 3-mode scan at grid {_LONG_BITS} has more than 2^64 points, over the cap of 16,777,216"),
    (lambda: mutual_information_mc(_CHANNEL, -_LONG, 0),
     "samples must be a whole number >= 10000, got a negative 16610-bit int"),
    (lambda: mutual_information_mc(_CHANNEL, _LONG, 0),
     _CAP_TEXT.format(_LONG_BITS, "a 16583-bit int of")),  # 8 x 10^5000 B, in GiB
    (lambda: mutual_information_mc(_CHANNEL, 10_000, _LONG),
     f"seed must be a whole number in [0, 2^64), got {_LONG_BITS}"),
], ids=["mode count", "mode index", "grid", "grid points", "samples", "sample cap", "seed"])
def test_a_rule_shows_an_int_too_long_for_str_by_its_bit_length(call, text, monkeypatch):
    # each raised Python's "Exceeds the limit (4300 digits) for integer string conversion"
    # in place of its rule's text
    monkeypatch.setattr(dc_protocol.np.random, "default_rng", _refuse)
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == text


@pytest.mark.parametrize("argv, text", [
    (["threshold", "--modes", "1" * 4301],  # read exactly: was the int-to-str limit's text
     "--modes: the mode count has 14285 bits, past the float range"),
    (["scan", "--modes", "3", "--nbar", "7", "--grid", "1" + "0" * 5000],
     f"--grid: a 3-mode scan at grid {_LONG_BITS} has more than 2^64 points, over the cap of "
     "16,777,216"),
    (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--samples", "1" + "0" * 5000],
     "--samples: " + _CAP_TEXT.format(_LONG_BITS, "a 16583-bit int of")),
    (["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8", "--seed", "1" + "0" * 5000],
     f"--seed: seed must be a whole number in [0, 2^64), got {_LONG_BITS}"),
], ids=["modes", "grid", "samples", "seed"])
def test_a_flag_reads_an_integer_literal_of_any_length(argv, text, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {text}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("key, digits, text", [
    ("n_modes", 5001, "the mode count has 16610 bits, past the float range"),
    ("grid_resolution", 5001,
     f"a 3-mode scan at grid {_LONG_BITS} has more than 2^64 points, over the cap of 16,777,216"),
    ("nbar", 401, "nbar must be finite and >= 0, got inf"),
    ("nbar", 5001, "nbar must be finite and >= 0, got inf"),
], ids=["modes", "grid", "nbar-401-digits", "nbar-5001-digits"])
def test_region_metadata_reads_an_integer_literal_of_any_length(fmt, key, digits, text):
    # in JSON, each count got Python's int-to-str limit text from json.loads (CSV got the
    # rules' texts), and a budget past the float range an OverflowError
    data = serialize_region(region_scan(3, 7.0, 8), fmt)
    value = rb"\g<1>1" + b"0" * (digits - 1)
    data, found = re.subn(rb"(\b" + key.encode() + rb'"?[=:] ?)[0-9.]+', value, data, count=1)
    assert found == 1
    with pytest.raises(ValueError) as info:
        parse_region(data)
    assert str(info.value) == text


@pytest.mark.parametrize("rule, value, flag, argv", [
    ("mode count", 2.5, "modes", ["threshold", "--modes", "2.5"]),
    ("mode count", 1, "modes", ["breakeven", "--modes", "1", "--tau", "0.5"]),
    ("transmissivity", -0.1, "tau", ["capacity", "--modes", "3", "--tau", "0.5,-0.1",
                                     "--nbar", "8"]),
    ("transmissivity", 1.5, "tau", ["threshold", "--modes", "3", "--tau", "1.5,0.5"]),
    ("tau count", 1, "tau", ["capacity", "--modes", "3", "--tau", "0.5", "--nbar", "8"]),
    ("tau count", 3, "tau", ["ratio", "--modes", "3", "--tau", "0.5,0.5,0.5"]),
    ("nbar", -1.0, "nbar", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "-1"]),
    ("grid", 7, "grid", ["scan", "--modes", "3", "--nbar", "7", "--grid", "7"]),
    ("grid", 8.5, "grid", ["scan", "--modes", "3", "--nbar", "7", "--grid", "8.5"]),
    ("samples", 9_999, "samples", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar",
                                   "8", "--samples", "9999"]),
    ("ratio regime", 5.0, "squeezing", ["ratio", "--modes", "3", "--tau", "0.5,0.5",
                                        "--squeezing", "5"]),
    # whole numbers past the float range, read exactly: both were "must be finite"
    pytest.param("mode count size", 10**400, "modes",
                 ["capacity", "--modes", str(10**400), "--tau", "0.5", "--nbar", "1"],
                 id="mode count size-10^400-modes"),
    pytest.param("grid points", 10**400, "grid",
                 ["scan", "--modes", "3", "--nbar", "7", "--grid", str(10**400)],
                 id="grid points-10^400-grid"),
    # NaN, infinities and float literals past the float range: each was "must be finite"
    ("transmissivity", math.nan, "tau", ["threshold", "--modes", "3", "--tau", "0.5,nan"]),
    ("nbar", math.nan, "nbar", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "nan"]),
    ("nbar", math.inf, "nbar", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "inf"]),
    ("nbar", -math.inf, "nbar", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar=-inf"]),
    ("ratio regime", math.nan, "squeezing", ["ratio", "--modes", "3", "--tau", "0.5,0.5",
                                             "--squeezing", "nan"]),
    pytest.param("nbar", 10**400, "nbar",
                 ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", str(10**400)],
                 id="nbar-10^400-nbar"),
    ("mode count", math.inf, "modes", ["threshold", "--modes", "inf"]),
    ("grid", math.nan, "grid", ["scan", "--modes", "3", "--nbar", "7", "--grid", "nan"]),
    # counts that are no whole number: --samples's were "samples must be an integer"
    ("samples", math.nan, "samples", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar",
                                      "8", "--samples", "nan"]),
    ("samples", 10_000.5, "samples", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar",
                                      "8", "--samples", "10000.5"]),
    ("samples", math.inf, "samples", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar",
                                      "8", "--samples", "inf"]),
    # a value that starts with '-' meets its rule: argparse took each for a flag and said
    # "expected one argument"
    ("transmissivity", -0.1, "tau", ["capacity", "--modes", "3", "--tau", "-0.1,0.5",
                                     "--nbar", "8"]),
    ("nbar", -1e5, "nbar", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "-1e5"]),
    pytest.param("nbar", -math.inf, "nbar",
                 ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "-inf"],
                 id="nbar--inf-nbar-bare"),
    # the seed's rule is the library's: 2.5 was "must be an integer", -3 "expected one argument"
    ("seed", 2.5, "seed", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8",
                           "--seed", "2.5"]),
    ("seed", -3, "seed", ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "8",
                          "--seed", "-3"]),
    pytest.param("seed", 2**64, "seed", ["capacity", "--modes", "3", "--tau", "0.5,0.5",
                                         "--nbar", "8", "--seed", str(2**64)],
                 id="seed-2^64-seed"),
])
def test_every_flag_reports_the_library_text_under_its_name(rule, value, flag, argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --{flag}: {_text(rule, value)}\n"


def test_a_config_file_value_meets_its_flag_rule(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("modes = 3\ntau = 0.5,0.5\nnbar = inf\n")  # was "must be finite"
    assert main(["capacity", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --nbar: {_text('nbar', math.inf)}\n"


def test_a_sample_count_flag_is_any_spelling_of_a_whole_number(capsys):
    argv = ["capacity", "--modes", "4", "--tau", "0.5,0.5,0.5", "--nbar", "7", "--seed", "5"]
    outs = []
    for samples in ("100000", "1e5", "100000.0"):  # the last two were "must be an integer"
        assert main([*argv, "--samples", samples]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_a_seed_flag_is_any_spelling_of_a_whole_number(capsys):
    argv = ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "7", "--samples", "10000"]
    outs = []
    for seed in ("1000", "1e3"):  # 1e3 was "seed must be an integer"
        assert main([*argv, "--seed", seed]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[1] == outs[0]


# README's input rules: each row's rule and the arguments that place its message's value
_README_RULES = {
    "mode count": (_mode_count, lambda n: (n,)),
    "mode index": (_mode_index, lambda m: (m, 3)),
    "quadrature": (_quadrature, lambda q: (q,)),
    "transmissivity": (_transmissivity, lambda t: (t,)),
    "tau count": (_validated_taus, lambda k: (3, (0.5,) * k)),
    "squeezing r": (_squeezing, lambda r: (r,)),
    "budget nbar": (_budget, lambda nbar: (nbar,)),
    "samples": (_check_sample_count, lambda samples: (samples,)),
    "seed": (_check_seed, lambda seed: (seed,)),
    "grid": (_grid_resolution, lambda grid: (grid,)),
    "ratio regime": (_asymptotic_regime, lambda r: (r,)),
}
README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
_README_TABLE = re.findall(r"^\| ([^|`]+) \| `(\w+)` \| `([^`]+)`(.*)\|$", README, re.M)


def test_the_readme_input_rules_table_holds_every_rule():
    assert sorted(row[0] for row in _README_TABLE) == sorted(_README_RULES)


@pytest.mark.parametrize("name, owner, message, note", _README_TABLE,
                         ids=[row[0] for row in _README_TABLE])
def test_the_readme_input_rules_table_gives_each_rule_text(name, owner, message, note):
    rule, arguments = _README_RULES[name]
    assert rule.__module__ == f"cvdcnet.{owner}"
    shown = re.split(r"got |: ", message)[-1]  # the bad value, as the message spells it
    try:
        value = ast.literal_eval(shown)
    except ValueError:  # nan, inf
        value = float(shown)
    with pytest.raises(TypeError if "`TypeError`" in note else ValueError) as info:
        rule(*arguments(value))
    assert str(info.value) == message


# README's command-line examples of the rules: (flag and value, a command line that gives it)
_README_FLAGS = {
    "--modes 2.5": ["threshold", "--modes", "2.5"],
    "--nbar inf": ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "inf"],
    "--squeezing inf": ["ratio", "--modes", "3", "--tau", "0.5,0.5", "--squeezing", "inf"],
    "--nbar -inf": ["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "-inf"],
}


def test_the_readme_flag_examples_are_what_main_prints(capsys):
    examples = dict(re.findall(r"`(--\w+ [^`]+)` exits 1 with\s+`(error: [^`]+)`", README))
    assert sorted(examples) == sorted(_README_FLAGS)
    for flag, argv in _README_FLAGS.items():
        assert main(argv) == 1
        assert capsys.readouterr().err == examples[flag] + "\n"


def _static_text(node) -> str:
    """A message expression's literal text, each formatted or computed value as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_static_text(part) if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    if isinstance(node, ast.BinOp):
        return _static_text(node.left) + _static_text(node.right)
    return "{}"


def _raise_sites(tree: ast.Module):
    """(enclosing function, message text) of every raise of a call with a message."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and child.exc.args):
                yield function, _static_text(child.exc.args[0])
            yield from walk(child, function)

    return list(walk(tree, None))


# a rule's words, and other wordings a copy of the rule might use
_SPELLINGS = {
    "mode count": r"mode count must|n_modes must|at least \{\} modes?|at least one sender",
    "mode count size": r"past the float range",
    "mode index": r"mode.?index|out of range|senders hold",
    "quadrature": r"not a Quadrature",
    "transmissivity": r"must lie in \[0, 1\]",
    "tau count": r"transmissivities, got|taus length",
    "nbar": r"nbar must|budgets must",
    "r": r"squeezing strength|\br (and \w+ )?must",
    "grid": r"grid_resolution must|grid must",
    "grid points": r"more than 2\^64 points",
    "samples": r"at least \{\} samples|samples must be",
    "seed": r"seed must|unsigned 64-bit",
    "ratio regime": r"asymptotic regime|squeezing >=",
}


def test_each_rule_is_raised_at_one_site_in_its_owner():
    sites = [(path.stem, function, text) for path in sorted(PACKAGE.glob("*.py"))
             for function, text in _raise_sites(ast.parse(path.read_text()))]
    for rule, (module, function, text) in RULES.items():
        found = [(m, f) for m, f, t in sites if re.search(_SPELLINGS[rule], t)]
        assert found == [(module, function)], (rule, found)
        owned = [re.escape(t).replace(r"\{\}", ".*") for m, f, t in sites
                 if (m, f) == (module, function)]
        assert any(re.fullmatch(raised, _text(rule, 7)) for raised in owned), (rule, owned)


def test_the_raise_walk_reads_every_message_spelling():
    source = '''
def rule(n):
    if n:
        raise ValueError(f"need at least {n} modes, got {n!r}")
    raise ValueError("plain " + f"{n} joined")

class Spec:
    def __post_init__(self):
        raise ValueError("taus length does not match n_modes") from None
'''
    assert _raise_sites(ast.parse(source)) == [
        ("rule", "need at least {} modes, got {}"), ("rule", "plain {} joined"),
        ("__post_init__", "taus length does not match n_modes"),
    ]
