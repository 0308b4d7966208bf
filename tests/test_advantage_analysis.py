import itertools
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdcnet.advantage_analysis import (
    BISECT_TOL,
    SEARCH_CAP_NBAR,
    NoAdvantageError,
    RegionScan,
    asymptotic_ratio,
    break_even_squeezing,
    classical_capacity,
    min_threshold_energy,
    quantum_advantage,
    region_scan,
    tau_boundaries,
    threshold_energy,
)
from cvdcnet import advantage_analysis, dc_protocol
from cvdcnet.dc_protocol import EncodingPlan, _log_transfer, build_channel, capacity
from cvdcnet.resource_prep import ResourceSpec

from helpers import (
    BREAK_EVEN3,
    BREAK_EVEN4,
    CAP3_BALANCED_815,
    CLASSICAL_2_815,
    CLASSICAL_3_AT_3,
    MIN_TH3,
    MIN_TH4,
    RATIO3_R20,
    RATIO3_SINGULAR_R30,
    RATIO4_R20,
    TH3_BALANCED,
    TH4_BALANCED,
    bisect_root,
    boundary3_tau1_literal,
    boundary3_tau2_literal,
    boundary4_tau1_literal,
    boundary4_tau2_literal,
    boundary4_tau3_literal,
    capacity3_closed,
    capacity4_closed,
    capacity_line_closed,
    classical_literal,
    classical_stable,
    exit_log_weights,
    mi_oracle,
    signal_gain,
    traced_peak,
)


# --- classical benchmark --------------------------------------------------------

def test_classical_capacity_frozen_points():
    assert classical_capacity(2, 8.15) == pytest.approx(CLASSICAL_2_815, rel=1e-13)
    assert classical_capacity(3, 3.0) == pytest.approx(CLASSICAL_3_AT_3, rel=1e-13)
    assert classical_capacity(2, 0.0) == 0.0
    assert classical_capacity(1, 1.0) == pytest.approx(2.0 * np.log(2.0), rel=1e-13)


def test_classical_capacity_array_input():
    budgets = np.array([0.0, 0.5, 3.0, 8.15, 120.0])
    vec = classical_capacity(2, budgets)
    assert vec.shape == budgets.shape
    for b, v in zip(budgets, vec):
        assert v == classical_capacity(2, float(b))


def test_classical_capacity_increasing_and_concave():
    grid = np.linspace(0.1, 80.0, 200)
    vals = classical_capacity(3, grid)
    first = np.diff(vals)
    assert np.all(first > 0)
    assert np.all(np.diff(first) < 0)


def test_classical_capacity_stable_at_extreme_budgets():
    # the textbook arrangement loses about one nat per sender out at
    # x ~ 1e17 where (1+x)ln(1+x) - x ln x cancels; the log1p form keeps it
    for n_s in (2, 3):
        big = 1e17 * n_s
        assert classical_capacity(n_s, big) > classical_literal(n_s, big) + 0.9 * n_s
        for nbar in (0.5, 3.0, 8.15, 50.0):
            assert classical_capacity(n_s, nbar) == pytest.approx(
                classical_literal(n_s, nbar), rel=1e-12
            )
            assert classical_capacity(n_s, nbar) == pytest.approx(
                classical_stable(n_s, nbar), rel=1e-14
            )


def test_classical_capacity_stays_finite_down_to_the_least_subnormal():
    # 1/x overflowed below x ~ 5.6e-309: capacity(3, (0.5, 0.5), 1e-320) read
    # c_classical = inf. The result is subnormal there too, so within one step
    # of its spacing, 2^-1074, where it is below the normal range
    mp = pytest.importorskip("mpmath")
    xs = np.concatenate([[5e-324, 1e-323, 1e-320, 5.5e-309, 5.6e-309, 1e-300],
                         np.geomspace(5e-324, 1e-250, 120), np.geomspace(1e-250, 1e20, 80)])
    with mp.workdps(60):
        for x in map(float, xs):
            exact = (1 + mp.mpf(x)) * mp.log1p(x) - x * mp.log(x)
            got = classical_capacity(1, x)
            assert abs(mp.mpf(got) - exact) <= 1e-15 * exact + 2.0**-1074, x
    report = capacity(3, (0.5, 0.5), 1e-320)  # a RuntimeWarning fails the test
    assert np.isfinite(report.c_classical) and report.c_classical > 0.0
    with mp.workdps(60):  # more senders: x = nbar / n underflows before nbar does
        for n_s in (2, 3, 31):
            for nbar in (1e-320, 5e-324, 1e-310, 1e-300):
                x = mp.mpf(nbar) / n_s
                exact = n_s * ((1 + x) * mp.log1p(x) - x * mp.log(x))
                got = capacity(n_s + 1, (0.5,) * n_s, nbar).c_classical
                assert abs(mp.mpf(got) - exact) <= 1e-15 * exact + 2.0**-1074, (n_s, nbar)


def test_classical_capacity_rejects_bad_input():
    with pytest.raises(ValueError, match="whole number >= 1, got 0"):
        classical_capacity(0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        classical_capacity(2, -1.0)
    with pytest.raises(ValueError, match="finite"):
        classical_capacity(2, np.array([1.0, np.inf]))


# --- advantage and thresholds ---------------------------------------------------

def test_quantum_advantage_frozen_point_and_sign_flip():
    d = quantum_advantage(3, (0.5, 0.5), 8.15)
    assert d == pytest.approx(CAP3_BALANCED_815 - CLASSICAL_2_815, abs=1e-13)
    assert d < 0
    assert quantum_advantage(3, (0.5, 0.5), 8.16) > 0


def test_threshold_energy_balanced_chains():
    assert threshold_energy(3, (0.5, 0.5)) == pytest.approx(TH3_BALANCED, abs=2e-6)
    assert threshold_energy(4, (0.5, 0.5, 0.5)) == pytest.approx(TH4_BALANCED, abs=2e-6)


def test_threshold_energy_brackets_the_sign_change():
    rng = np.random.default_rng(77)
    cases = [(3, tuple(rng.uniform(0.2, 0.8, size=2))) for _ in range(5)]
    cases += [(4, tuple(rng.uniform(0.2, 0.8, size=3))) for _ in range(3)]
    for n, taus in cases:
        th = threshold_energy(n, taus)
        assert quantum_advantage(n, taus, th - 0.01) < 0
        assert quantum_advantage(n, taus, th + 0.01) > 0


def test_threshold_energy_no_advantage_configuration():
    with pytest.raises(NoAdvantageError) as exc:
        threshold_energy(3, (0.0, 0.0))
    assert exc.value.search_cap == SEARCH_CAP_NBAR


@pytest.mark.parametrize("n_modes", [3, 4, 5])
def test_a_cut_chain_is_refused_from_its_taus_alone(n_modes, monkeypatch):
    # c_n = tau_1 (1 - tau_1) prod_{k>=2} (1 - tau_k) = 0 keeps C_q <= C_cl at every budget;
    # it cost a kernel pass at the cap, and the verdict named the cap, not the cut
    kernel, passes = dc_protocol._log_transfer, [0]

    def counted(*args):
        passes[0] += 1
        return kernel(*args)

    monkeypatch.setattr(dc_protocol, "_log_transfer", counted)
    cut = 0
    for taus in itertools.product((0.0, 0.5, 1.0), repeat=n_modes - 1):
        passes[0] = 0
        if taus[0] * (1.0 - taus[0]) * math.prod(1.0 - t for t in taus[1:]) > 0.0:
            assert threshold_energy(n_modes, taus) > 0.0 and passes[0] > 0, taus
            continue
        k = 0 if taus[0] == 0.0 else taus.index(1.0)  # the first tau that cuts the chain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoAdvantageError, match=re.escape(
                    f"no quantum advantage at any budget for {n_modes}-mode taus {taus}: "
                    f"tau_{k + 1} = {taus[k]:g} cuts the chain")) as exc:
                threshold_energy(n_modes, taus)
        assert passes[0] == 0 and exc.value.search_cap == SEARCH_CAP_NBAR, taus
        cut += 1
    assert cut == 3 ** (n_modes - 1) - 2 ** (n_modes - 2)  # all but tau_1 = 1/2, no later 1


def test_c_n_is_the_product_of_the_taus():
    # c_n = P(0) = det(M)^2 / 2^n = tau_1 (1 - tau_1) prod_{k>=2} (1 - tau_k): the r of each
    # slot step, on chains with exact 0s and 1s among their taus
    rng = np.random.default_rng(3007)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        taus = rng.uniform(size=n - 1)
        ends = rng.uniform(size=n - 1) < 0.2
        taus[ends] = rng.choice([0.0, 1.0], int(ends.sum()))
        taus = tuple(taus.tolist())
        c_n = taus[0] * (1.0 - taus[0]) * math.prod(1.0 - t for t in taus[1:])
        m = build_channel(ResourceSpec(n, 1.0, taus), EncodingPlan.standard(n, 1.0)).matrix
        with np.errstate(divide="ignore"):  # ln 0 on a cut chain
            kernel = float(np.exp(_log_transfer(taus, 0.0, 1.0)))
        assert np.linalg.det(m) ** 2 / 2**n == pytest.approx(c_n, abs=1e-14), taus
        assert kernel == pytest.approx(c_n, abs=1e-14), taus


def test_threshold_energy_input_validation():
    with pytest.raises(ValueError, match="transmissivities"):
        threshold_energy(3, (0.5,))
    with pytest.raises(ValueError, match="lie in"):
        threshold_energy(3, (0.5, 1.2))
    for tol in (float("nan"), 0.0, -1e-6, float("inf")):
        with pytest.raises(ValueError, match="tol must be > 0"):
            threshold_energy(3, (0.5, 0.5), tol=tol)
    # a tolerance below float resolution stops once the midpoint stops moving
    finest = threshold_energy(3, (0.5, 0.5), tol=5e-324)
    assert finest == pytest.approx(threshold_energy(3, (0.5, 0.5), tol=1e-12), abs=1e-12)


def _dense_delta(n_modes, taus):
    """delta from a dense slogdet of the build_channel matrix, not the transfer kernel."""
    m = build_channel(ResourceSpec(n_modes, 1.0, taus), EncodingPlan.standard(n_modes, 1.0)).matrix

    def delta(nbar):
        return mi_oracle(m, signal_gain(n_modes, nbar)) - float(classical_stable(n_modes - 1, nbar))

    return delta


def test_threshold_energy_matches_a_tight_bisection_of_the_dense_determinant():
    rng = np.random.default_rng(1515)
    cases = [(n, (tau1,) + (0.0,) * (n - 2)) for n in range(2, 20) for tau1 in (0.2, 0.5, 0.9)]
    cases += [(n, tuple(rng.uniform(size=n - 1))) for n in range(3, 9) for _ in range(3)]
    solved = 0
    for n, taus in cases:
        delta = _dense_delta(n, taus)
        if delta(SEARCH_CAP_NBAR) <= 0.0:
            with pytest.raises(NoAdvantageError):
                threshold_energy(n, taus)
            continue
        root = bisect_root(delta, 1e-6, SEARCH_CAP_NBAR, tol=1e-10)
        # within tol/2 of the truth, give or take the oracle's own 1e-10 bracket
        assert abs(threshold_energy(n, taus) - root) <= 0.5 * BISECT_TOL + 1e-10, (n, taus)
        solved += 1
    assert solved >= 50


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9])
def test_threshold_energy_certifies_the_sign_change_within_half_tol(tol):
    rng = np.random.default_rng(2718)
    cases = [(3, (0.5, 0.5)), (4, (0.5, 0.5, 0.5)), (12, (0.5,) + (0.0,) * 10)]
    cases += [(n, tuple(rng.uniform(0.2, 0.8, size=n - 1))) for n in range(3, 7)]
    for n, taus in cases:
        x = threshold_energy(n, taus, tol=tol)
        assert quantum_advantage(n, taus, x - tol / 2) <= 0.0 < quantum_advantage(
            n, taus, x + tol / 2
        ), (n, taus, tol)


def test_threshold_solver_needs_few_kernel_passes(monkeypatch):
    # draws as in the points benchmark: n in [3, 32], three in ten on the tau1 line
    kernel = dc_protocol._log_transfer
    passes = [0]

    def counted(*args, **kwargs):
        passes[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dc_protocol, "_log_transfer", counted)
    rng = np.random.default_rng(1104)
    per_call = []
    for _ in range(200):
        n = int(rng.integers(3, 33))
        if rng.uniform() < 0.3:
            taus = (float(rng.uniform()),) + (0.0,) * (n - 2)
        else:
            taus = tuple(float(t) for t in rng.uniform(size=n - 1))
        passes[0] = 0
        try:
            x = threshold_energy(n, taus)
        except NoAdvantageError:
            continue
        per_call.append(passes[0])
        assert quantum_advantage(n, taus, x - 0.5 * BISECT_TOL) <= 0.0 < quantum_advantage(
            n, taus, x + 0.5 * BISECT_TOL), (n, taus)
    assert len(per_call) >= 50
    assert np.median(per_call) <= 8
    assert max(per_call) < 35


def test_min_threshold_three_modes():
    result = min_threshold_energy(3)
    assert result.nbar_th == pytest.approx(MIN_TH3, abs=1e-6)
    assert result.taus == (0.5, 0.0)
    assert abs(result.taus[0] - 0.5) <= 1e-3
    assert result.taus[1] <= 1e-3
    nbar_th, taus = result  # tuple-style unpacking
    assert nbar_th == result.nbar_th and taus == result.taus


def test_min_threshold_four_modes():
    result = min_threshold_energy(4)
    assert result.nbar_th == pytest.approx(MIN_TH4, abs=1e-6)
    assert result.taus == (0.5, 0.0, 0.0)
    assert abs(result.taus[0] - 0.5) <= 1e-3
    assert max(result.taus[1:]) <= 1e-3


def _outcome(solve):
    """A solver's root, or the type and search cap of what it raised."""
    try:
        return solve()
    except Exception as exc:
        return type(exc), getattr(exc, "search_cap", None)


def test_min_threshold_is_the_fixed_taus_threshold_at_the_line_midpoint():
    # from n = 20 on the search cap decides; both calls must end alike, root or refusal
    for n in range(2, 23):
        midpoint = (0.5,) + (0.0,) * (n - 2)
        fixed = _outcome(lambda: threshold_energy(n, midpoint, tol=1e-9))
        assert _outcome(lambda: min_threshold_energy(n).nbar_th) == fixed, n


def test_tail_taus_never_raise_the_closed_form_capacity():
    # the reduction behind min_threshold_energy, from the hand-derived
    # 3- and 4-mode determinants: C(tau1, tail) <= C(tau1, 0, ...) <= C(1/2, 0, ...)
    axis = np.linspace(0.0, 1.0, 65)
    t1, t2 = np.meshgrid(axis, axis, indexing="ij")
    u1, u2, u3 = np.meshgrid(axis, axis, axis, indexing="ij")
    for nbar in (1.0, 5.38, 11.45, 30.0, 300.0, 1e4):
        on_line3 = capacity3_closed(t1, 0.0, nbar)
        assert np.all(capacity3_closed(t1, t2, nbar) <= on_line3 + 1e-12)
        assert np.all(on_line3 <= capacity3_closed(0.5, 0.0, nbar) + 1e-12)
        on_line4 = capacity4_closed(u1, 0.0, 0.0, nbar)
        assert np.all(capacity4_closed(u1, u2, u3, nbar) <= on_line4 + 1e-12)
        assert np.all(on_line4 <= capacity4_closed(0.5, 0.0, 0.0, nbar) + 1e-12)


def test_tail_taus_never_raise_delta_for_longer_chains():
    # dense build_channel path, not the batched kernel the search uses
    rng = np.random.default_rng(2024)
    for n in range(5, 13):
        for nbar in (1.0, 5.0, 30.0, 300.0):
            for _ in range(6):
                tau1 = float(rng.uniform())
                tail = tuple(rng.uniform(size=n - 2))
                on_line = quantum_advantage(n, (tau1,) + (0.0,) * (n - 2), nbar)
                assert quantum_advantage(n, (tau1,) + tail, nbar) <= on_line + 1e-12


def test_advantage_negative_at_the_search_floor():
    # the threshold solver's bracket starts at nbar = 1e-6 and never checks it
    for n in range(2, 65):
        for tau in (0.0, 0.5, 1.0):
            assert quantum_advantage(n, (tau,) * (n - 1), 1e-6) < 0


def test_line_closed_form_matches_the_channel():
    for n in (5, 8, 13, 24):
        for tau1, nbar in ((0.5, 3.0), (0.2, 40.0), (0.9, 700.0)):
            expected = capacity_line_closed(n, tau1, nbar) - classical_stable(n - 1, nbar)
            got = quantum_advantage(n, (tau1,) + (0.0,) * (n - 2), nbar)
            assert got == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


def test_min_threshold_longer_chains():
    # every n whose minimum is below the search cap: min_threshold_energy(19) = 7,526
    for n in range(2, 20):
        result = min_threshold_energy(n)

        def delta(nb, n=n):
            return capacity_line_closed(n, 0.5, nb) - float(classical_stable(n - 1, nb))

        assert result.nbar_th == pytest.approx(
            bisect_root(delta, 1e-3, SEARCH_CAP_NBAR, tol=1e-11), rel=1e-9, abs=0
        )
        assert result.taus == (0.5,) + (0.0,) * (n - 2)


def test_min_threshold_rejects_tiny_grids():
    with pytest.raises(TypeError, match="grid_resolution"):  # no grid is searched
        min_threshold_energy(3, grid_resolution=4)
    for n_modes in (1, 0):
        with pytest.raises(ValueError, match="mode count must be a whole number >= 2"):
            min_threshold_energy(n_modes)
    with pytest.raises(ValueError, match="whole number >= 2, got 2.5"):
        min_threshold_energy(2.5)


def test_break_even_squeezing_frozen_values():
    assert break_even_squeezing(3, (0.5, 0.5)) == pytest.approx(BREAK_EVEN3, abs=2e-7)
    assert break_even_squeezing(4, (0.5, 0.5, 0.5)) == pytest.approx(
        BREAK_EVEN4, abs=2e-7
    )


def test_asymptotic_ratio_of_a_singular_chain():
    # tau1 = 0 leaves the Gram singular; at r = 30 its rounding read 1.3306
    assert asymptotic_ratio(3, (0.0, 0.5), 30.0) == pytest.approx(
        RATIO3_SINGULAR_R30, rel=1e-12
    )


def test_rates_need_no_dense_determinant_nor_channel_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("C_q went through a dense determinant or a channel matrix")

    for owner, name in (
        (np.linalg, "slogdet"),
        (np.linalg, "det"),
        (np, "einsum"),
        (dc_protocol, "channel_matrix_batch"),
    ):
        monkeypatch.setattr(owner, name, forbidden)
    assert capacity(4, (0.5, 0.5, 0.5), 30.0).c_quantum > 0.0
    assert threshold_energy(3, (0.5, 0.5)) == pytest.approx(TH3_BALANCED, abs=2e-6)
    assert break_even_squeezing(3, (0.5, 0.5)) == pytest.approx(BREAK_EVEN3, abs=2e-7)
    assert min_threshold_energy(3).nbar_th == pytest.approx(MIN_TH3, abs=1e-6)
    assert not tau_boundaries(4, 20.0, (0.5,)).empty
    assert region_scan(3, 7.0, 16).n_advantage > 0
    assert asymptotic_ratio(3, (0.5, 0.5), 20.0) == pytest.approx(RATIO3_R20, rel=1e-12)


def test_asymptotic_ratio_frozen_and_monotone():
    assert asymptotic_ratio(3, (0.5, 0.5), 20.0) == pytest.approx(RATIO3_R20, rel=1e-12)
    assert asymptotic_ratio(4, (0.5, 0.5, 0.5), 20.0) == pytest.approx(
        RATIO4_R20, rel=1e-12
    )
    r3 = [asymptotic_ratio(3, (0.5, 0.5), r) for r in (15.0, 20.0, 25.0)]
    assert r3[0] < r3[1] < r3[2] < 1.5
    r4 = [asymptotic_ratio(4, (0.5, 0.5, 0.5), r) for r in (15.0, 20.0, 25.0)]
    assert r4[0] < r4[1] < r4[2] < 4.0 / 3.0
    for r_large in (9.0, np.nan):  # nan was reported as overflowing the photon budget
        with pytest.raises(ValueError, match="r_large"):
            asymptotic_ratio(3, (0.5, 0.5), r_large)
    assert asymptotic_ratio(3, (0.5, 0.5), 170.0) == pytest.approx(1.49623, abs=1e-5)
    # the budget overflows the channel determinant at r = 200, a double at 355
    with pytest.raises(ValueError, match="overflows"):
        asymptotic_ratio(3, (0.5, 0.5), 200.0)
    with pytest.raises(ValueError, match="finite"):
        asymptotic_ratio(3, (0.5, 0.5), 355.0)


@pytest.mark.parametrize("n_modes", [3, 4])
def test_asymptotic_ratio_gap_matches_its_expansion(n_modes):
    # relative gap x r -> k = (1 - ln 2 - a/n)/2, a = (n/2) ln((n-1)/n) + (1/2) ln c_n,
    # with c_n the last exit weight (1/8 at n = 3, 1/16 at n = 4)
    taus = (0.5,) * (n_modes - 1)
    ln_cn = exit_log_weights(n_modes, np.array([taus]))[-1, 0]
    assert np.exp(ln_cn) == pytest.approx(2.0 ** -n_modes, rel=1e-14)
    a = 0.5 * n_modes * np.log((n_modes - 1) / n_modes) + 0.5 * ln_cn
    k = (1.0 - np.log(2.0) - a / n_modes) / 2.0
    limit = n_modes / (n_modes - 1)
    for r in (20.0, 40.0, 80.0, 160.0):
        gap = (limit - asymptotic_ratio(n_modes, taus, r)) / limit
        assert abs(r * gap - k) <= 0.1 / r, (n_modes, r)


@pytest.mark.parametrize("n_modes, taus, c_n, constant", [
    (3, (0.5, 0.5), 1 / 8, -2.261624),
    (4, (0.5, 0.5, 0.5), 1 / 16, -3.287682),
    (20, (0.5,) + (0.0,) * 18, 1 / 4, -9.287575),  # on the line, c_n = tau1 (1 - tau1)
    (64, (0.5,) + (0.0,) * 62, 1 / 4, -23.978810),
])
def test_advantage_tends_to_ln_nbar_plus_its_full_rank_constant(n_modes, taus, c_n, constant):
    # c_n > 0: delta = ln nbar + c + o(1), with c_n = P(0), the kernel's v = 0 limit, and
    # c = (n/2) ln(4/(n(n-1))) + (1/2) ln c_n + (n-1) ln(n-1) - (n-1)
    n = n_modes
    ln_cn = float(_log_transfer(taus, 0.0, 1.0))
    assert ln_cn == pytest.approx(exit_log_weights(n, np.array([taus]))[-1, 0], rel=1e-14)
    assert np.exp(ln_cn) == pytest.approx(c_n, rel=1e-14)
    c = 0.5 * n * np.log(4.0 / (n * (n - 1))) + 0.5 * ln_cn + (n - 1) * np.log(n - 1) - (n - 1)
    assert c == pytest.approx(constant, abs=1e-6)
    nbar = 1e12
    assert abs(quantum_advantage(n, taus, nbar) - np.log(nbar) - c) <= 1e-9


def test_advantage_grows_with_budget_past_the_thresholds():
    # delta is not monotone near its dip at small nbar, so start at 3
    grid = np.linspace(3.0, 200.0, 60)
    configs = [
        (3, (0.5, 0.5)),
        (3, (0.5, 0.0)),
        (3, (0.3, 0.6)),
        (4, (0.5, 0.5, 0.5)),
        (4, (0.5, 0.0, 0.0)),
        (4, (0.4, 0.3, 0.2)),
    ]
    for n, taus in configs:
        deltas = [quantum_advantage(n, taus, nb) for nb in grid]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))


# --- region boundaries ----------------------------------------------------------

def test_boundary_intervals_match_bisected_roots():
    cases = [
        (3, 7.0, ()),
        (3, 12.0, ()),
        (4, 15.0, ()),
        (4, 30.0, ()),
        (3, 7.0, (0.5,)),
        (3, 10.0, (0.35,)),
        (4, 15.0, (0.5,)),
        (4, 15.0, (0.5, 0.2)),
        (4, 25.0, (0.6, 0.4)),
        (4, 1e3, (0.5, 0.2)),
        (2, 3.0, ()),
        (5, 30.0, ()),
        (5, 30.0, (0.5,)),
        (5, 30.0, (0.5, 0.2)),
        (5, 40.0, (0.5, 0.2, 0.2)),
        (8, 100.0, ()),
        (8, 120.0, (0.5,)),
        (8, 150.0, (0.5, 0.2)),
        (8, 150.0, (0.5, 0.2, 0.2)),
        (8, 200.0, (0.5, 0.2, 0.2, 0.2)),
        (8, 200.0, (0.5, 0.2, 0.2, 0.2, 0.2)),
        (8, 200.0, (0.5, 0.2, 0.2, 0.2, 0.2, 0.2)),
    ]
    for n, nbar, prefix in cases:
        interval = tau_boundaries(n, nbar, prefix)
        assert not interval.empty
        axis = len(prefix)
        pad = n - 2 - axis  # zero-filled completion after the free axis

        def delta_along(t):
            return quantum_advantage(n, prefix + (t,) + (0.0,) * pad, nbar)

        if axis == 0:
            assert 0.0 < interval.lo < interval.hi < 1.0
            mid = 0.5 * (interval.lo + interval.hi)
            lo_root = bisect_root(delta_along, 0.0, mid)
            hi_root = bisect_root(delta_along, mid, 1.0)
            assert interval.lo == pytest.approx(lo_root, abs=1e-8)
            assert interval.hi == pytest.approx(hi_root, abs=1e-8)
        else:
            assert interval.lo == 0.0
            assert delta_along(interval.lo) > 0
            root = bisect_root(delta_along, interval.lo, 1.0)
            assert interval.hi == pytest.approx(root, abs=1e-8)


def test_boundary_slice_determinant_is_affine_or_symmetric_quadratic():
    # L(t) = det(I + g Gram) = exp(2 C_q) along (prefix, t, 0, ..., 0): the
    # two-probe boundary formulas in tau_boundaries rest on this shape
    rng = np.random.default_rng(6)
    t = np.linspace(0.0, 1.0, 9)
    for n in range(3, 13):
        for axis in range(n - 1):
            prefix = tuple(rng.uniform(size=axis))
            pad = (0.0,) * (n - 2 - axis)
            for nbar in (7.0, 1e3):
                big_l = np.array([
                    np.exp(2.0 * capacity(n, prefix + (x,) + pad, nbar).c_quantum)
                    for x in t
                ])
                degree = 2 if axis == 0 else 1
                fit = np.polyval(np.polyfit(t, big_l, degree), t)
                assert np.max(np.abs(fit - big_l)) <= 1e-12 * np.max(big_l)
                if axis == 0:
                    assert_allclose(big_l[::-1], big_l, rtol=1e-12, atol=0.0)


def test_boundary_interval_consistent_with_sign_probes():
    for n, nbar, prefix in ((3, 8.0, ()), (4, 14.0, (0.45,)), (4, 20.0, (0.5, 0.3))):
        interval = tau_boundaries(n, nbar, prefix)
        pad = n - 2 - len(prefix)
        inside = 0.5 * (interval.lo + interval.hi)
        assert quantum_advantage(n, prefix + (inside,) + (0.0,) * pad, nbar) > 0
        if interval.hi < 1.0:
            past = prefix + (interval.hi + 1e-3,) + (0.0,) * pad
            assert quantum_advantage(n, past, nbar) < 0


@pytest.mark.parametrize(
    "n_modes, nbar", [(3, 5978.0), (3, 8829.0), (3, 1e6), (5, 2e4), (6, 7e3)]
)
def test_boundary_axis0_lo_keeps_relative_accuracy_at_large_budgets(n_modes, nbar):
    # lo falls toward 1e-11 here; 1/2 - half_width would keep only ~1 ulp of 1/2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        nb = mp.mpf(nbar)
        g = 2 * nb * (nb + n_modes - 1) / ((n_modes - 1) * n_modes)
        x = nb / (n_modes - 1)
        c_cl = (n_modes - 1) * (x * mp.log1p(1 / x) + mp.log1p(x))

        def delta(t):  # the line closed form, capacity_line_closed in 60 digits
            c_q = mp.log1p(2 * g * t) + mp.log1p(2 * g * (1 - t))
            return (c_q + (n_modes - 2) * mp.log1p(2 * g)) / 2 - c_cl

        root = mp.findroot(delta, (mp.mpf(0), mp.mpf("0.5")), solver="anderson")
    lo = tau_boundaries(n_modes, nbar).lo
    assert abs(lo - root) <= 1e-13 * root


def test_boundary_matches_literal_formulas_at_moderate_budgets():
    # the power-form excess overflows past nbar ~ 80; agree where it exists
    for nbar in (7.0, 10.0, 20.0, 35.0, 50.0):
        lo, hi = boundary3_tau1_literal(nbar)
        interval = tau_boundaries(3, nbar)
        assert interval.lo == pytest.approx(max(lo, 0.0), rel=1e-10)
        assert interval.hi == pytest.approx(min(hi, 1.0), rel=1e-10)
        for tau1 in (0.4, 0.5, 0.6):
            hi2 = boundary3_tau2_literal(nbar, tau1)
            got = tau_boundaries(3, nbar, (tau1,))
            assert got.hi == pytest.approx(min(hi2, 1.0), rel=1e-10)
    for nbar in (13.0, 20.0, 35.0, 50.0):
        lo, hi = boundary4_tau1_literal(nbar)
        interval = tau_boundaries(4, nbar)
        assert interval.lo == pytest.approx(max(lo, 0.0), rel=1e-10)
        assert interval.hi == pytest.approx(min(hi, 1.0), rel=1e-10)
        got2 = tau_boundaries(4, nbar, (0.5,))
        assert got2.hi == pytest.approx(
            min(boundary4_tau2_literal(nbar, 0.5), 1.0), rel=1e-10
        )
        got3 = tau_boundaries(4, nbar, (0.5, 0.2))
        hi3 = boundary4_tau3_literal(nbar, 0.5, 0.2)
        if hi3 < 0.0:  # slice closed at this budget (happens at nbar = 13)
            assert got3.empty
        else:
            assert got3.hi == pytest.approx(min(hi3, 1.0), rel=1e-10)


def test_boundary_empty_exactly_below_minimum_threshold():
    for nbar in np.linspace(5.0, 5.8, 9):
        assert tau_boundaries(3, float(nbar)).empty == (nbar < MIN_TH3)
    for nbar in np.linspace(11.0, 12.0, 9):
        assert tau_boundaries(4, float(nbar)).empty == (nbar < MIN_TH4)


def test_boundary_empty_interval_is_nan():
    interval = tau_boundaries(3, 2.0)
    assert interval.empty
    assert np.isnan(interval.lo) and np.isnan(interval.hi)
    assert isinstance(interval.lo, float) and isinstance(interval.empty, bool)


def test_boundary_second_axis_widest_near_balanced_split():
    widths = {
        t1: tau_boundaries(3, 7.0, (t1,)).hi for t1 in (0.3, 0.45, 0.5, 0.55, 0.7)
    }
    assert all(widths[0.5] > widths[t] for t in widths if t != 0.5)


def test_a_tail_splitter_at_one_cuts_the_chain_and_every_advantage():
    # why tau_boundaries needs no case for an advantage at a tail axis' edge:
    # tau = 1 there leaves c_n = 0, and then delta < 0 at every budget
    rng = np.random.default_rng(550)
    for _ in range(60):
        n = int(rng.integers(3, 13))
        taus = rng.uniform(size=n - 1)
        taus[rng.integers(1, n - 1)] = 1.0
        assert exit_log_weights(n, taus[None])[-1, 0] == -np.inf
        with np.errstate(divide="ignore"):  # the kernel at v = 0: ln P = ln c_n = ln 0
            assert _log_transfer(tuple(taus), 0.0, 1.0) == -np.inf
        for nbar in (1e-3, 1.0, 30.0, 1e4, 1e8, 1e12):
            assert quantum_advantage(n, tuple(taus), nbar) < 0.0, (n, taus, nbar)


def test_boundary_degenerate_prefix_gives_empty_slice():
    interval = tau_boundaries(3, 7.0, (0.0,))  # first splitter closed
    assert interval.empty


def test_boundary_region_projection_grows_with_budget():
    small = tau_boundaries(3, 7.0)
    large = tau_boundaries(3, 10.0)
    assert large.lo < small.lo and large.hi > small.hi


def test_boundary_intervals_are_never_clamped_and_their_edges_cut_the_chain():
    # tau_boundaries needs no clamp or empty branch past d_best > 0: each edge probe,
    # tau_1 = 0 before a zero tail or a later tau = 1, cuts the chain, so c_n = 0 there and
    # d_edge < 0 < d_best puts the crossing strictly inside the slice
    rng = np.random.default_rng(20_000)
    for _ in range(6_000):
        n = int(rng.integers(2, 65))
        nbar = float(10 ** rng.uniform(-3, 150))
        axis = int(rng.integers(0, n - 1))
        prefix = rng.uniform(size=axis)
        prefix[rng.uniform(size=axis) < 0.2] = 0.0
        prefix[rng.uniform(size=axis) < 0.2] = 1.0
        edge = tuple(prefix.tolist()) + (float(axis > 0),) + (0.0,) * (n - 2 - axis)
        with np.errstate(divide="ignore"):  # the kernel at v = 0: ln P = ln c_n = ln 0
            assert _log_transfer(edge, 0.0, 1.0) == -np.inf
        interval = tau_boundaries(n, nbar, tuple(prefix.tolist()))
        assert interval.clamped is False
        if interval.empty:
            assert np.isnan(interval.lo) and np.isnan(interval.hi)
        elif axis == 0:  # hi < 1 exactly; its share rounds to 1.0 once d_best is large
            assert 0.0 < interval.lo < 0.5 < interval.hi <= 1.0, (n, nbar)
        else:
            assert interval.lo == 0.0 < interval.hi <= 1.0, (n, nbar, prefix)
        assert type(interval.lo) is float and type(interval.hi) is float


def test_threshold_energy_takes_a_whole_mode_count():
    # these said "3.5-mode chain needs 2.5 transmissivities, got 2"
    for call in (threshold_energy, break_even_squeezing, dc_protocol.decoding_symplectic):
        with pytest.raises(ValueError, match="whole number >= 2, got 3.5"):
            call(3.5, (0.5, 0.5))
    assert threshold_energy(3.0, (0.5, 0.5)) == threshold_energy(3, (0.5, 0.5))


def test_boundary_input_validation():
    with pytest.raises(ValueError, match="mode count must be a whole number >= 2"):
        tau_boundaries(1, 7.0)
    with pytest.raises(ValueError, match="whole number >= 2, got 3.5"):  # was a bare TypeError
        tau_boundaries(3.5, 7.0)
    assert tau_boundaries(3.0, 7.0) == tau_boundaries(3, 7.0)
    with pytest.raises(ValueError, match="pins every"):
        tau_boundaries(3, 7.0, (0.5, 0.5))
    with pytest.raises(ValueError, match="nbar must be finite and >= 0, got -1.0"):
        tau_boundaries(3, -1.0)
    for prefix in ((), (0.5,)):  # no budget at all: no advantage, on either axis
        assert tau_boundaries(3, 0.0, prefix).empty
    with pytest.raises(ValueError, match="lie in"):
        tau_boundaries(3, 7.0, (1.5,))


# --- region scans ---------------------------------------------------------------

def test_region_scan_grid_layout():
    scan = region_scan(3, 7.0, 20)
    assert scan.n_points == 400
    assert scan.taus.shape == (400, 2)
    rows = [tuple(r) for r in scan.taus]
    assert rows == sorted(rows)  # lexicographic, first axis slowest
    assert_allclose(np.unique(scan.taus[:, 0]), np.linspace(0.0, 1.0, 20))
    assert not scan.taus.flags.writeable


def test_region_scan_flags_and_counts():
    below = region_scan(3, 5.0, 20)
    assert below.n_advantage == 0
    above = region_scan(3, 7.0, 64)
    assert above.n_advantage > 0
    hits = above.taus[above.flags]
    near_balanced = (np.abs(hits[:, 0] - 0.5) < 0.05) & (hits[:, 1] < 0.1)
    assert near_balanced.any()
    assert np.all(above.deltas[above.flags] > 0)
    assert np.all(above.deltas[~above.flags] <= 0)


def test_region_scan_nesting_in_budget():
    low = region_scan(3, 7.0, 32)
    high = region_scan(3, 10.0, 32)
    assert np.all(low.flags <= high.flags)
    assert high.n_advantage > low.n_advantage


def test_region_scan_four_modes():
    assert region_scan(4, 11.0, 12).n_advantage == 0
    scan = region_scan(4, 15.0, 12)
    assert scan.taus.shape == (12**3, 3)
    assert scan.n_advantage > 0


def test_region_scan_validation_and_strict_flags():
    with pytest.raises(ValueError, match="grid_resolution"):
        region_scan(3, 7.0, 4)
    with pytest.raises(ValueError, match="nbar"):
        region_scan(3, -1.0, 16)
    with pytest.raises(ValueError, match="overflows"):
        region_scan(3, 1e160, 8)
    for n_modes in (1, 0):
        with pytest.raises(ValueError, match="mode count must be a whole number >= 2"):
            region_scan(n_modes, 7.0, 8)
    with pytest.raises(ValueError, match="whole number >= 2, got 2.5"):
        region_scan(2.5, 7.0, 8)
    good = region_scan(3, 7.0, 8)
    for scan in (region_scan(3.0, 7.0, 8), RegionScan(3.0, 7.0, 8, good.deltas)):
        assert type(scan.n_modes) is int and np.array_equal(scan.deltas, good.deltas)
    assert np.array_equal(good.flags, good.deltas > 0)  # derived, never passed in
    assert not good.flags.flags.writeable
    with pytest.raises(ValueError):
        good.flags[0] = not good.flags[0]
    with pytest.raises(TypeError, match="flags"):
        RegionScan(3, 7.0, 8, good.deltas, flags=good.flags)
    with pytest.raises(ValueError, match=r"the grid has 64 points, deltas \(63,\)"):
        RegionScan(3, 7.0, 8, good.deltas[:-1])
    with pytest.raises(ValueError, match="grid_resolution"):  # region_scan's own minimum
        RegionScan(3, 7.0, 7, good.deltas[:49])
    for nbar in (-5.0, np.nan, np.inf):  # region_scan's own budget check
        with pytest.raises(ValueError, match="nbar must be finite and >= 0"):
            RegionScan(3, nbar, 8, good.deltas)


def test_region_scan_past_the_q_block_underflow():
    # at taus (1, 1, 1) the q block starts near v = 1/x, and v^2 underflowed from
    # nbar ~ 1e82 on: the scan held a -inf delta, with a RuntimeWarning
    scan = region_scan(4, 1e82, 8)
    assert np.isfinite(scan.deltas).all()
    assert scan.deltas[-1] == pytest.approx(quantum_advantage(4, (1.0,) * 3, 1e82), rel=1e-14)


def _two_pass_rows(n_modes, nbar, grid):
    """region_scan's deltas from one kernel call per end of every line at once:
    ln L(t) = ln L_0 + ln((1 - t) + t rho), log1p where t (1 - rho) < 1/2."""
    c_cl = classical_capacity(n_modes - 1, nbar)
    prefix = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, grid)] * (n_modes - 2),
                                  indexing="ij"), axis=-1).reshape(-1, n_modes - 2).T
    c0, c1 = (dc_protocol._quantum_rates([*prefix, end], nbar) for end in (0.0, 1.0))
    t = np.linspace(0.0, 1.0, grid)[1:-1]
    m = np.multiply.outer(np.expm1(2.0 * (c1 - c0)), t)  # -t (1 - rho)
    far = np.multiply.outer(np.exp(2.0 * (c1 - c0)), t) + (1.0 - t)
    rows = np.empty((len(c0), grid))
    rows[:, 1:-1] = 0.5 * np.where(m > -0.5, np.log1p(m), np.log(far)) + (c0 - c_cl)[:, None]
    rows[:, 0], rows[:, -1] = c0 - c_cl, c1 - c_cl
    return rows.ravel()


@pytest.mark.parametrize("n_modes, nbar, grid", [(3, 7.0, 300), (5, 40.0, 16), (2, 7.0, 300**2),
                                                 (4, 15.0, 100)])
def test_region_scan_chunks_match_one_kernel_call(n_modes, nbar, grid, monkeypatch):
    # 512-row chunks: more than 8 of them at each grid here (n = 2 and 4 at 2^14 too), and
    # one line a chunk at grid 300
    monkeypatch.setattr(advantage_analysis, "_CHUNK_ROWS", 2**9)
    scan = region_scan(n_modes, nbar, grid)
    # rows per chunk: a kernel call on a column of points for n = 2, else on the line
    # prefixes of whole lines of grid points, at least one line
    chunk = 2**9 if n_modes == 2 else max(2**9 // grid, 1) * grid
    assert scan.n_points > 8 * chunk  # more than 8 chunks
    c_cl = classical_capacity(n_modes - 1, nbar)
    per_point = dc_protocol._quantum_rates(scan.taus.T, nbar) - c_cl
    if n_modes == 2:
        assert np.array_equal(scan.deltas, per_point)
    else:  # the two-pass rows, chunked as in one call, and within 4e-16 C_cl of each point's
        assert np.array_equal(scan.deltas, _two_pass_rows(n_modes, nbar, grid))
        assert np.abs(scan.deltas - per_point).max() <= 4e-16 * c_cl


@pytest.mark.parametrize("n_modes, nbar, grid", [(2, 7.0, 3 * 2**14 + 5), (3, 10.0, 1000),
                                                 (4, 7.0, 100), (5, 30.0, 40), (8, 5.0, 8)])
def test_scan_chunks_are_whole_lines_and_the_scan_bit_for_bit(n_modes, nbar, grid):
    # the CLI streams the chunks that region_scan writes in place: the same bits either way
    chunks = list(advantage_analysis._scan_chunks(n_modes, nbar, grid))
    line = grid if n_modes > 2 else 1
    sizes = [len(chunk) for chunk in chunks]
    assert sizes[0] == max(advantage_analysis._CHUNK_ROWS // line, 1) * line
    assert set(sizes[:-1]) <= {sizes[0]} and 0 < sizes[-1] <= sizes[0] and sizes[-1] % line == 0
    assert np.concatenate(chunks).tobytes() == region_scan(n_modes, nbar, grid).deltas.tobytes()


@pytest.mark.parametrize("n_modes, nbar, grid", [(3, 7.0, 300), (4, 15.0, 12), (4, 1e82, 8),
                                                 (5, 30.0, 20), (8, 5.0, 8)])
def test_region_scan_line_ends_are_the_per_point_kernel_bit_for_bit(n_modes, nbar, grid):
    scan = region_scan(n_modes, nbar, grid)
    assert np.isfinite(scan.deltas).all()
    ends = np.concatenate([np.arange(0, scan.n_points, grid),  # last tau 0, then 1
                           np.arange(grid - 1, scan.n_points, grid)])
    c_cl = classical_capacity(n_modes - 1, nbar)
    per_point = dc_protocol._quantum_rates(scan.taus[ends].T, nbar) - c_cl
    assert np.array_equal(scan.deltas[ends], per_point)


@pytest.mark.parametrize("n_modes", range(3, 9))
def test_det_is_affine_in_the_last_tau(n_modes):
    # L = det(I + g M M^T) at t = 0.37 lies on the line through t = 0 and t = 1,
    # whatever the other taus: what region_scan's two passes a line rest on
    rng = np.random.default_rng(1100 + n_modes)
    for _ in range(20):
        prefix, nbar = tuple(rng.uniform(0.0, 1.0, n_modes - 2)), float(rng.uniform(1.0, 30.0))
        gain = signal_gain(n_modes, nbar)
        dense, kernel = [], []
        for t in (0.0, 1.0, 0.37):
            plan = EncodingPlan.standard(n_modes, 1.0)
            m = build_channel(ResourceSpec(n_modes, 1.0, prefix + (t,)), plan).matrix
            dense.append(np.exp(2.0 * mi_oracle(m, gain)))
            kernel.append(np.exp(2.0 * float(dc_protocol._quantum_rates(prefix + (t,), nbar))))
        for l0, l1, l_t in (dense, kernel):
            assert l_t == pytest.approx(0.63 * l0 + 0.37 * l1, rel=1e-14, abs=0.0)


def test_region_scan_refuses_grids_over_the_point_cap(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the tau grid was built before the size check")

    monkeypatch.setattr(np, "empty", no_grid)  # the deltas
    monkeypatch.setattr(advantage_analysis, "_grid_index", no_grid)
    monkeypatch.setattr(dc_protocol, "_log_transfer", no_grid)  # the kernel
    # 9 bytes per point: the deltas and the flags
    with pytest.raises(ValueError, match=r"grid 64 has 1,073,741,824 points \(about 9.66 GB\)"):
        region_scan(6, 7.0, 64)
    with pytest.raises(ValueError, match="16,785,409 points"):
        region_scan(3, 7.0, 4097)  # just over 2**24
    with pytest.raises(ValueError, match=r"has more than 2\^64 points"):
        region_scan(10**8, 7.0, 8)  # refused before 8**(10**8 - 1) is taken
    with pytest.raises(ValueError, match="float array holds at most 536,870,911 modes"):
        region_scan(10**9, 7.0, 8)  # the mode count's own rule comes first


def test_region_scan_freezes_copies_not_caller_arrays():
    deltas = np.linspace(-1.0, 1.0, 64)
    scan = RegionScan(3, 5.0, 8, deltas)
    assert deltas.flags.writeable
    assert not scan.deltas.flags.writeable and not scan.flags.flags.writeable
    assert np.array_equal(scan.deltas, deltas)
    assert np.array_equal(scan.flags, deltas > 0)
    deltas[0] = 0.25  # the caller may keep using its array
    assert scan.deltas[0] == -1.0 and not scan.flags[0]
    taus = scan.taus  # built from the grid on demand, and read-only too
    assert not taus.flags.writeable
    assert np.array_equal(taus, np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 8)] * 2,
                                                     indexing="ij"), axis=-1).reshape(64, 2))


def test_region_scan_keeps_its_fresh_deltas():
    # it froze a copy of the deltas it had just allocated: 8 MB of a 17.1 MB
    # traced peak for region_scan(3, 10, 1000)
    scan, peak = traced_peak(region_scan, 3, 10.0, 1000)
    assert peak < 17.1e6 - 7e6, f"peak {peak / 1e6:.1f} MB"
    assert not scan.deltas.flags.writeable
    deltas = np.array(scan.deltas)  # a public build still copies
    public = RegionScan(3, 10.0, 1000, deltas)
    deltas[:] = 1.0
    assert np.array_equal(public.deltas, scan.deltas) and public.n_advantage == scan.n_advantage


def test_two_mode_region_scan_memory_is_its_deltas_and_flags():
    # the deltas and the flags take 9 B a point; the scan held a whole linspace tau
    # axis beside them, 8 B a point more when the one axis is the whole grid
    scan, peak = traced_peak(region_scan, 2, 7.0, 2**20)
    assert peak - 9 * scan.n_points < 2e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("n_modes", range(2, 9))
def test_grid_index_is_unravel_index(n_modes):
    rng = np.random.default_rng(4400 + n_modes)
    top = int(2 ** (24 / (n_modes - 1)) + 1e-9)  # the largest grid under the point cap
    for grid in sorted({8, top, *rng.integers(8, top + 1, 6).tolist()}):
        n_points = grid ** (n_modes - 1)
        for _ in range(4):  # off the chunk and window boundaries, and across them
            start = int(rng.integers(0, n_points))
            stop = min(n_points, start + int(rng.integers(1, 3 * 2**14)))
            expected = np.stack(np.unravel_index(np.arange(start, stop), (grid,) * (n_modes - 1)),
                                axis=1)
            index = advantage_analysis._grid_index(n_modes, grid, start, stop)
            assert index.shape == (n_modes - 1, stop - start) and index.flags.c_contiguous
            assert np.array_equal(index.T, expected)
    scan = region_scan(n_modes, 7.0, 8)
    assert scan.taus.flags.c_contiguous and not scan.taus.flags.writeable
    assert scan.taus.shape == (scan.n_points, n_modes - 1)


@pytest.mark.parametrize("grid", [8, 9, 10, 100, 999, 1000, 3 * 2**14 + 5, 2**20])
def test_grid_taus_are_linspace_bit_for_bit(grid):
    axis = np.linspace(0.0, 1.0, grid)
    index = np.random.default_rng(grid).integers(grid, size=(500, 3))
    assert np.array_equal(advantage_analysis._grid_taus(np.arange(grid), grid), axis)
    assert np.array_equal(advantage_analysis._grid_taus(index, grid), axis[index])


def test_region_scan_memory_stays_near_its_deltas():
    scan, peak = traced_peak(region_scan, 3, 10.0, 1000)
    # the deltas and the flags (1.2 times the deltas); a frozen copy of the
    # deltas beside them took 2.1 times, a meshgrid and stacked taus 8.5 times
    assert peak < 3 * scan.deltas.nbytes, f"peak {peak / 1e6:.1f} MB"
