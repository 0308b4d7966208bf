"""The photon budget's whole domain, nbar >= 0: every entry point that takes a budget
answers each admissible value, of any numeric kind, with no error and no warning, and
the classical rate is right from nbar = 0 up for any number of senders."""

import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cvdcnet import (
    RegionScan,
    capacity,
    classical_capacity,
    main,
    optimal_params,
    quantum_advantage,
    region_scan,
    tau_boundaries,
)
from cvdcnet.dc_protocol import _classical_rates

# zero, the least subnormals, a subnormal, the least normal, where 1/x nears overflow,
# and a budget far below every threshold
NEAR_ZERO = (0.0, 5e-324, 1e-323, 2.5e-321, 1e-310, 2.2e-308, 1e-300, 1e-6)
SENDERS = (1, 2, 3, 31, 1000)


def _first_form(n_senders, nbar):
    """The rate as it was written before it covered x < 1e-300: the oracle of its bits
    from x = 1e-300 up."""
    x = nbar / n_senders
    m = x + (x < 1e-300) * (1e-300 - x)
    return n_senders * (x * (np.log1p(1.0 / m) + np.log(m / x)) + np.log1p(x))


def _best_chain(n_modes):
    """The taus of the lowest threshold: any advantage at a budget shows here first."""
    return (0.5,) + (0.0,) * (n_modes - 2)


@pytest.mark.parametrize("nbar", NEAR_ZERO)
def test_no_budget_near_zero_is_refused_warned_or_shown_an_advantage(nbar):
    # 5e-324 read C_cl = 0 in classical_capacity, and flagged every scan point; capacity,
    # quantum_advantage and tau_boundaries divided by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_modes in (2, 3, 4, 5):
            taus = _best_chain(n_modes)
            report = capacity(n_modes, taus, nbar)
            assert report.delta <= 0.0 and report.c_classical >= report.c_quantum, n_modes
            assert (report.c_classical > 0.0) == (nbar > 0.0)
            assert quantum_advantage(n_modes, taus, nbar) == report.delta
            scan = region_scan(n_modes, nbar, 8)
            assert scan.n_advantage == 0 and np.all(scan.deltas <= 0.0), n_modes
            again = RegionScan(n_modes, nbar, 8, scan.deltas)
            assert again.n_advantage == 0 and again.nbar == nbar
            for axis in range(n_modes - 1):
                assert tau_boundaries(n_modes, nbar, (0.5,) * axis).empty, (n_modes, axis)
        r, sigma_sq = optimal_params(3, nbar)
        assert 0.0 <= r <= nbar and 0.0 <= sigma_sq <= nbar
        for n_senders in SENDERS:
            c_cl = classical_capacity(n_senders, nbar)
            assert isinstance(c_cl, float) and (c_cl > 0.0) == (nbar > 0.0)
            budgets = classical_capacity(n_senders, np.array(NEAR_ZERO))
            assert budgets[NEAR_ZERO.index(nbar)] == c_cl


@pytest.mark.parametrize("nbar", [4, np.int64(4), np.float32(3.5), Fraction(7, 2),
                                  Decimal("3.5")], ids=lambda nbar: type(nbar).__name__)
def test_every_budget_kind_gives_what_its_float_gives(nbar):
    # capacity raised TypeError for a Fraction or a Decimal, which the others accepted
    value = float(nbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert capacity(3, (0.5, 0.5), nbar) == capacity(3, (0.5, 0.5), value)
        assert type(capacity(3, (0.5, 0.5), nbar).nbar) is float
        assert quantum_advantage(3, (0.5, 0.5), nbar) == quantum_advantage(3, (0.5, 0.5), value)
        assert classical_capacity(2, nbar) == classical_capacity(2, value)
        assert optimal_params(3, nbar) == optimal_params(3, value)
        for n_modes in (2, 3, 4, 5):
            for axis in range(n_modes - 1):
                got, want = (tau_boundaries(n_modes, b, (0.5,) * axis) for b in (nbar, value))
                assert got == want or got.empty and want.empty, (n_modes, axis)
            got, want = region_scan(n_modes, nbar, 8), region_scan(n_modes, value, 8)
            assert type(got.nbar) is float and got.nbar == value
            assert np.array_equal(got.deltas, want.deltas)
            again = RegionScan(n_modes, nbar, 8, want.deltas)
            assert type(again.nbar) is float and again.nbar == value


def test_classical_rate_matches_60_digits_from_zero_up_for_any_sender_count():
    # at 2 and 3 senders it was off by up to 746 ulps from 1e-323 to 1e-296, and at 31 and
    # 1,000 it read 0; the result is subnormal below ~1e-310, so within one step of 2^-1074
    mp = pytest.importorskip("mpmath")
    budgets = np.concatenate([NEAR_ZERO, np.geomspace(5e-324, 1e-290, 150),
                              np.geomspace(1e-290, 1e20, 60)])
    with mp.workdps(60), warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_senders in SENDERS:
            # where x = nbar / n crosses 1e-300, the rate changes form
            near_split = n_senders * np.geomspace(1e-302, 1e-298, 41)
            array = classical_capacity(n_senders, np.concatenate([budgets, near_split]))
            for nbar, from_array in zip(map(float, np.concatenate([budgets, near_split])), array):
                got = classical_capacity(n_senders, nbar)
                assert got == from_array
                x = mp.mpf(nbar) / n_senders
                exact = n_senders * ((1 + x) * mp.log1p(x) - x * mp.log(x)) if nbar else 0
                assert abs(mp.mpf(got) - exact) <= 1e-15 * exact + 2.0**-1074, (n_senders, nbar)


def test_classical_rate_keeps_its_bits_wherever_x_is_at_least_1e_minus_300():
    rng = np.random.default_rng(39)
    for n_senders in (1, 2, 3, 31, 10**12):
        budgets = 10.0 ** rng.uniform(-300.0, 300.0, 100_000)
        budgets = budgets[budgets / n_senders >= 1e-300]
        assert np.array_equal(_classical_rates(n_senders, budgets),
                              _first_form(n_senders, budgets)), n_senders
        for nbar in map(float, budgets[:2_000]):
            assert _classical_rates(n_senders, nbar) == _first_form(n_senders, nbar), nbar


def test_the_least_subnormal_budget_shows_no_advantage_through_the_cli(capsys):
    # the scan flagged all 64 rows true and exited 0; capacity ended in a traceback
    assert main(["scan", "--modes", "3", "--nbar", "5e-324", "--grid", "8"]) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert len(rows) == 65 and not [row for row in rows if row.endswith("true")]
    assert main(["capacity", "--modes", "3", "--tau", "0.5,0.5", "--nbar", "5e-324"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["delta"] < 0.0 < result["c_classical"]
    assert math.isclose(result["c_classical"], 3.686e-321, rel_tol=1e-3)
