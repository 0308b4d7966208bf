"""The energy law (README, Numerical notes): on a full-rank chain, delta falls and then rises
in the photon budget, so it crosses zero once; past the threshold it rises strictly, and
C_q/C_cl rises strictly at every budget.

Checked on seeded full-rank chains, n = 2..40, at budgets log-spaced over 1e-6..1e150. A sign
or a step counts only past the rounding bound on the computed delta that the README derives
from the kernel's error analysis: K ulps of max(C_cl, 1), K = 40 + 5 n + (n/4 + 4) |ln c_n|.
"""

import numpy as np
import pytest

from cvdcnet.advantage_analysis import quantum_advantage
from cvdcnet.dc_protocol import _classical_rates, _log_transfer, _quantum_rates

BUDGETS = np.logspace(-6, 150, 1000)
UNIT_ROUNDOFF = 2.0**-53


def _chains(rng, n, count):
    """count seeded full-rank n-mode chains, then the line (1/2, 0, ..., 0), as rows:
    tau_1 in [0.05, 0.95], each later tau in [0.02, 0.98] or, three times in ten, 0."""
    taus = rng.uniform(0.02, 0.98, (count, n - 1))
    taus[:, 0] = rng.uniform(0.05, 0.95, count)
    taus[:, 1:][rng.random((count, n - 2)) < 0.3] = 0.0
    return np.vstack([taus, [0.5] + [0.0] * (n - 2)])


def _rates(taus, budgets):
    """(C_q, C_cl), each (chains, budgets): the kernel's transfer pass on columns of taus,
    each budget's v = 1/x and u = 2g/x broadcast along the rows, as _quantum_rates takes
    one budget; the two paths agree to a few ulps (test_the_grid_is_the_kernel_pass)."""
    n = taus.shape[1] + 1
    gain = 2.0 * budgets * (budgets + n - 1) / ((n - 1) * n)
    x = 1.0 + 2.0 * gain
    log_p = _log_transfer(list(taus.T[:, :, None]), 1.0 / x, 2.0 * gain / x)
    return 0.5 * (n * np.log1p(2.0 * gain) + log_p), _classical_rates(n - 1, budgets)


def _bound(taus, c_cl):
    """The rounding bound on each computed delta, (chains, budgets)."""
    n = taus.shape[1] + 1
    log_cn = np.log(taus[:, 0]) + np.log1p(-taus[:, 0]) + np.log1p(-taus[:, 1:]).sum(axis=1)
    ulps = 40 + 5 * n + (n / 4 + 4) * np.abs(log_cn)
    return ulps[:, None] * np.spacing(np.maximum(c_cl, 1.0))


def _law_violations(delta, c_q, c_cl, bound):
    """The checks of the law that one chain's values at rising budgets fail, by name."""
    sign = np.where(delta > bound, 1, np.where(delta < -bound, -1, 0))
    signs = sign[sign != 0]
    failed = []
    if np.count_nonzero(np.diff(signs)) != 1 or signs[0] != -1:
        failed.append("one crossing, from below")
    # one run down, then one run up: nothing rises past the bound above the lowest value
    # so far before the minimum, nor falls below the highest value so far after it
    low = int(np.argmin(delta))
    rise = delta[:low + 1] - np.minimum.accumulate(delta[:low + 1])
    fall = np.maximum.accumulate(delta[low:]) - delta[low:]
    if (rise > 2 * bound[:low + 1]).any() or (fall > 2 * bound[low:]).any():
        failed.append("down, then up")
    first = np.argmax(sign > 0)
    past = bound[first:]  # the bound grows with C_cl, so with the budget
    if not (np.diff(delta[first:]) > past[:-1] + past[1:]).all():
        failed.append("delta rises past the threshold")
    ratio_bound = 3 * bound / c_cl + 2 * UNIT_ROUNDOFF  # C_q/C_cl <= 2 and its division
    if not (np.diff(c_q / c_cl) > ratio_bound[:-1] + ratio_bound[1:]).all():
        failed.append("C_q/C_cl rises")
    return failed


@pytest.mark.parametrize("n", range(2, 41))
def test_delta_falls_then_rises_and_crosses_once(n):
    taus = _chains(np.random.default_rng(n), n, 24)
    c_q, c_cl = _rates(taus, BUDGETS)
    bound = _bound(taus, c_cl)
    for row in range(len(taus)):
        failed = _law_violations(c_q[row] - c_cl, c_q[row], c_cl, bound[row])
        assert not failed, (n, tuple(taus[row]), failed)


@pytest.mark.parametrize("n", [2, 3, 17, 40])
def test_the_grid_is_the_kernel_pass(n):
    taus = _chains(np.random.default_rng(n), n, 2)
    c_q, c_cl = _rates(taus, BUDGETS)
    bound = _bound(taus, c_cl)
    for row in range(len(taus)):
        for j in range(0, len(BUDGETS), 37):
            scalar = _quantum_rates(tuple(taus[row]), float(BUDGETS[j]))
            assert abs(scalar - c_q[row, j]) <= bound[row, j]


@pytest.mark.parametrize("taus, lowest, delta_min", [
    ((0.5, 0.5), 1.28212865471, -0.823632674325),
    ((0.5, 0.5, 0.5), 2.44647355469, -1.33087259994),
])
def test_the_paper_examples_obey_the_law_with_their_lowest_delta_where_the_readme_says(
        taus, lowest, delta_min):
    chain = np.array([taus])
    c_q, c_cl = _rates(chain, BUDGETS)
    assert not _law_violations(c_q[0] - c_cl, c_q[0], c_cl, _bound(chain, c_cl)[0])
    n = len(taus) + 1
    at = quantum_advantage(n, taus, lowest)
    assert at == pytest.approx(delta_min, rel=1e-11)
    assert quantum_advantage(n, taus, lowest * (1 - 1e-3)) > at
    assert quantum_advantage(n, taus, lowest * (1 + 1e-3)) > at


def test_the_checks_see_each_kind_of_violation():
    c_cl = np.arange(1.0, 9.0)
    bound = np.full(8, 1e-9)
    laws = {
        "one crossing, from below": [-1, -2, -1, 1, -0.5, 2, 3, 4],
        "down, then up": [-1, -3, -2, -2.5, -1, 1, 2, 3],
        "delta rises past the threshold": [-1, -2, -1, 1, 2, 2, 3, 4],
    }
    for law, delta in laws.items():
        assert law in _law_violations(np.array(delta), c_cl + delta, c_cl, bound), law
    flat = np.array([-1.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    c_q = np.array([0.0, 0.0, 2.0, 5.0, 7.0, 9.0, 11.0, 13.0])  # C_q/C_cl stalls at 0
    assert _law_violations(flat, c_q, c_q - flat, bound) == ["C_q/C_cl rises"]
