import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdcnet.advantage_analysis import (
    _SCAN_CHUNK_BYTES,
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


def test_classical_capacity_rejects_bad_input():
    with pytest.raises(ValueError, match="sender"):
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


def test_threshold_energy_input_validation():
    with pytest.raises(ValueError, match="transmissivities"):
        threshold_energy(3, (0.5,))
    with pytest.raises(ValueError, match="lie in"):
        threshold_energy(3, (0.5, 1.2))
    for tol in (float("nan"), 0.0, -1e-6):
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
            threshold_energy(n, taus)
        except NoAdvantageError:
            continue
        per_call.append(passes[0])
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


def test_min_threshold_is_the_fixed_taus_threshold_at_the_line_midpoint():
    for n in range(2, 20):
        midpoint = (0.5,) + (0.0,) * (n - 2)
        assert min_threshold_energy(n).nbar_th == threshold_energy(n, midpoint, tol=1e-9), n


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
    for n in range(5, 13):
        result = min_threshold_energy(n)

        def delta(nb, n=n):
            return capacity_line_closed(n, 0.5, nb) - float(classical_stable(n - 1, nb))

        assert result.nbar_th == pytest.approx(
            bisect_root(delta, 1.0, SEARCH_CAP_NBAR), abs=1e-6
        )
        assert result.taus == (0.5,) + (0.0,) * (n - 2)


def test_min_threshold_rejects_tiny_grids():
    with pytest.raises(TypeError, match="grid_resolution"):  # no grid is searched
        min_threshold_energy(3, grid_resolution=4)
    for n_modes in (1, 0):
        with pytest.raises(ValueError, match="need at least 2 modes"):
            min_threshold_energy(n_modes)


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
    with pytest.raises(ValueError, match="r_large"):
        asymptotic_ratio(3, (0.5, 0.5), 9.0)
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
    ln_cn = float(_log_transfer(taus, 0.0, 1.0)[0])
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
        with np.errstate(all="ignore"):  # the kernel at v = 0, where P = c_n = 0
            assert _log_transfer(tuple(taus), 0.0, 1.0)[0] == -np.inf
        for nbar in (1e-3, 1.0, 30.0, 1e4, 1e8, 1e12):
            assert quantum_advantage(n, tuple(taus), nbar) < 0.0, (n, taus, nbar)


def test_boundary_degenerate_prefix_gives_empty_slice():
    interval = tau_boundaries(3, 7.0, (0.0,))  # first splitter closed
    assert interval.empty


def test_boundary_region_projection_grows_with_budget():
    small = tau_boundaries(3, 7.0)
    large = tau_boundaries(3, 10.0)
    assert large.lo < small.lo and large.hi > small.hi


def test_boundary_input_validation():
    with pytest.raises(ValueError, match="at least 2 modes"):
        tau_boundaries(1, 7.0)
    with pytest.raises(ValueError, match="pins every"):
        tau_boundaries(3, 7.0, (0.5, 0.5))
    with pytest.raises(ValueError, match="nbar"):
        tau_boundaries(3, 0.0)
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
        with pytest.raises(ValueError, match="need at least 2 modes"):
            region_scan(n_modes, 7.0, 8)
    good = region_scan(3, 7.0, 8)
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


@pytest.mark.parametrize("n_modes, nbar, grid", [(3, 7.0, 300), (5, 40.0, 16)])
def test_region_scan_chunks_match_one_kernel_call(n_modes, nbar, grid):
    scan = region_scan(n_modes, nbar, grid)
    chunk = _SCAN_CHUNK_BYTES // (8 * (2 * n_modes + 8))  # points per kernel call
    assert scan.n_points > 8 * chunk  # more than 8 chunks
    whole = dc_protocol._quantum_rates(scan.taus.T, nbar) - classical_capacity(n_modes - 1, nbar)
    assert np.array_equal(scan.deltas, whole)


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
        region_scan(10**9, 7.0, 8)  # refused before 8**(10**9 - 1) is taken


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


def test_region_scan_memory_stays_near_its_deltas():
    tracemalloc.start()
    try:
        scan = region_scan(3, 10.0, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the deltas, their frozen copy and the flags (2.5 times the deltas);
    # a meshgrid and stacked taus beside them took 8.5 times
    assert peak < 3 * scan.deltas.nbytes, f"peak {peak / 1e6:.1f} MB"
