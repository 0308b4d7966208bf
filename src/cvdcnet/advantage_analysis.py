"""Quantum advantage: classical benchmark, thresholds, region geometry.

The benchmark is the best classical strategy at the same photon budget:
n_senders independent coherent-state channels sharing nbar photons. The
advantage delta(taus, nbar) = C_quantum - C_classical is negative at
small nbar (squeezing photons are pure overhead there) and grows without
bound, so each network has a threshold photon number where delta crosses
zero, and for fixed nbar the set {taus : delta > 0} is a bounded region
whose axis-aligned boundaries follow exactly from delta at two points of
each slice, for any number of modes.

Everything is computed from logs and delta differences, never from
e^(2 C_classical) itself: that factor grows like nbar^(2 nbar) and
overflows beyond nbar ~ 75 although every final result is modest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dc_protocol import (
    _grams,
    _half_log_dets,
    _quantum_rates,
    capacity,
    optimal_params,
)
from .phase_space import _frozen_array
from .resource_prep import _validated_taus

__all__ = [
    "SEARCH_CAP_NBAR",
    "BISECT_TOL",
    "COARSE_RESOLUTION",
    "TIE_TOL",
    "NoAdvantageError",
    "TauInterval",
    "MinThresholdResult",
    "RegionScan",
    "classical_capacity",
    "quantum_advantage",
    "threshold_energy",
    "min_threshold_energy",
    "tau_boundaries",
    "break_even_squeezing",
    "asymptotic_ratio",
    "region_scan",
]

SEARCH_CAP_NBAR = 1e4     # photon budgets beyond this are treated as "never"
BISECT_TOL = 1e-6         # absolute nbar tolerance for threshold roots
COARSE_RESOLUTION = 64    # tau1-line points solved alongside the global minimum
TIE_TOL = 1e-4            # line thresholds within this of the best line point are ties
_SCAN_MAX_POINTS = 2**24  # region_scan refuses larger grids
_SCAN_CHUNK_BYTES = 2**19  # (C, n, n) chain array per kernel chunk, sized to stay in cache


class NoAdvantageError(RuntimeError):
    """No photon budget up to the search cap yields a positive advantage."""

    def __init__(self, message: str, search_cap: float = SEARCH_CAP_NBAR):
        super().__init__(message)
        self.search_cap = float(search_cap)


def classical_capacity(n_senders: int, nbar):
    """Best classical rate for n_senders coherent channels sharing nbar.

    Equals n_senders * [(1+x) ln(1+x) - x ln x] with x = nbar/n_senders,
    evaluated as n_senders * [x ln(1 + 1/x) + ln(1 + x)]; the two are
    identical algebraically but the first cancels catastrophically for
    x beyond ~1e15. Continuous extension 0 at nbar = 0. Accepts a scalar
    or an array of budgets.
    """
    if n_senders < 1:
        raise ValueError(f"need at least one sender, got {n_senders}")
    arr = np.asarray(nbar, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("photon budgets must be finite and >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _classical_rates(n_senders, arr)
    val = np.where(arr / n_senders > 0, val, 0.0)
    return float(val) if arr.ndim == 0 else val


def _classical_rates(n_senders: int, nbar: np.ndarray) -> np.ndarray:
    """classical_capacity, unchecked: right only for budgets > 0."""
    x = nbar / n_senders
    return n_senders * (x * np.log1p(1.0 / x) + np.log1p(x))


def _delta_batch(n_modes: int, grams: np.ndarray, nbar) -> np.ndarray:
    """delta = C_quantum - C_classical for stacked channel Grams.

    nbar may be a scalar (shared budget) or one budget per Gram.
    """
    return _quantum_rates(n_modes, grams, nbar) - classical_capacity(n_modes - 1, nbar)


def quantum_advantage(n_modes: int, taus: Sequence[float], nbar: float) -> float:
    """delta(taus, nbar) = C_quantum - C_classical in nats."""
    return capacity(n_modes, taus, nbar).delta


def _thresholds(n_modes: int, grams: np.ndarray, tol: float) -> np.ndarray:
    """Threshold budget for each stacked channel Gram; inf where delta
    never turns positive up to SEARCH_CAP_NBAR.

    One shared bisection on [1e-6, SEARCH_CAP_NBAR] until hi - lo <= tol,
    or until no bracket still wider than tol has a midpoint strictly inside.
    The floor never holds an advantage: the Gram's eigenvalues are at
    most 2, so C_q <= n g = 2 nbar (1 + nbar/(n-1)), about 2e-6 at
    nbar = 1e-6, while C_cl >= nbar ln(1 + (n-1)/nbar) >= 1.38e-5 there.
    """
    thresholds = np.full(grams.shape[0], np.inf)
    # the cap is the largest budget tried and the floor is > 0: once delta at
    # the cap is checked, every budget the bisection tries is valid unchecked
    alive = _delta_batch(n_modes, grams, SEARCH_CAP_NBAR) > 0.0
    g_alive = grams[alive]
    lo = np.full(g_alive.shape[0], 1e-6)
    hi = np.full(g_alive.shape[0], SEARCH_CAP_NBAR)
    mid = 0.5 * (lo + hi)
    while ((hi - lo > tol) & (lo < mid) & (mid < hi)).any():
        delta = _half_log_dets(n_modes, g_alive, mid) - _classical_rates(n_modes - 1, mid)
        above = delta > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        mid = 0.5 * (lo + hi)
    thresholds[alive] = mid
    return thresholds


def threshold_energy(
    n_modes: int, taus: Sequence[float], tol: float = BISECT_TOL
) -> float:
    """Photon budget where the advantage turns positive for fixed taus.

    Bisects inside [1e-6, SEARCH_CAP_NBAR] to absolute tolerance tol.
    delta is strictly increasing in nbar over the relevant range, so the
    root is unique. Raises NoAdvantageError if delta never turns
    positive below the cap, and ValueError unless tol > 0.
    """
    taus = _validated_taus(n_modes, taus)
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    nbar_th = float(_thresholds(n_modes, _grams(n_modes, np.array([taus])), tol)[0])
    if not np.isfinite(nbar_th):
        raise NoAdvantageError(
            f"no quantum advantage up to nbar = {SEARCH_CAP_NBAR:g} "
            f"for {n_modes}-mode taus {taus}"
        )
    return nbar_th


@dataclass(frozen=True)
class MinThresholdResult:
    """Global minimum threshold budget and where it is attained.

    ties lists the points of the tau1 line (tau1, 0, ..., 0) whose
    thresholds came within TIE_TOL of the best line point; they sit
    symmetrically about tau1 = 1/2. Iterating yields (nbar_th, taus) for
    tuple-style unpacking.
    """

    nbar_th: float
    taus: tuple[float, ...]
    ties: tuple[tuple[float, ...], ...]

    def __iter__(self):
        yield self.nbar_th
        yield self.taus


def min_threshold_energy(
    n_modes: int, grid_resolution: int = COARSE_RESOLUTION
) -> MinThresholdResult:
    """Minimize the threshold budget over all chain transmissivities.

    The minimum is attained at taus = (1/2, 0, ..., 0) for every n:
    delta never rises with the tail transmissivities tau_2..tau_{n-1}
    (the same fact tau_boundaries relies on), and on the line
    (tau1, 0, ..., 0) the quantum rate is
    C_q = [ln(1 + 2g tau1) + ln(1 + 2g (1 - tau1)) + (n-2) ln(1 + 2g)] / 2,
    symmetric and strictly concave in tau1. So at every budget delta is
    largest at tau1 = 1/2, and the global threshold is the fixed-taus
    threshold there. One shared bisection solves it together with the
    grid_resolution points of the tau1 line, which give the ties.
    Raises NoAdvantageError if delta never turns positive below the cap.
    """
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    if grid_resolution < 8:
        raise ValueError("grid_resolution must be at least 8")
    line = np.zeros((grid_resolution + 1, n_modes - 1))
    line[:-1, 0] = np.linspace(0.0, 1.0, grid_resolution)
    line[-1, 0] = 0.5
    thresholds = _thresholds(n_modes, _grams(n_modes, line), tol=1e-9)
    nbar_th = float(thresholds[-1])
    if not np.isfinite(nbar_th):
        raise NoAdvantageError(
            f"no transmissivity choice gives an advantage below "
            f"nbar = {SEARCH_CAP_NBAR:g} for {n_modes} modes"
        )
    on_line = thresholds[:-1]
    tie_mask = on_line <= on_line.min() + TIE_TOL
    ties = tuple(tuple(float(t) for t in row) for row in line[:-1][tie_mask])
    return MinThresholdResult(nbar_th, (0.5,) + (0.0,) * (n_modes - 2), ties)


@dataclass(frozen=True)
class TauInterval:
    """One axis-aligned slice of the advantage region.

    empty means no value of the free transmissivity gives an advantage
    (lo and hi are NaN then); clamped means the analytic boundary fell
    outside [0, 1] and was cut back to the physical range.
    """

    lo: float
    hi: float
    empty: bool
    clamped: bool


def _interval(lo: float, hi: float) -> TauInterval:
    lo, hi = float(lo), float(hi)
    if not hi >= lo:
        return TauInterval(np.nan, np.nan, empty=True, clamped=False)
    clamped = bool(lo < 0.0 or hi > 1.0)
    lo_c, hi_c = max(lo, 0.0), min(hi, 1.0)
    if hi_c < lo_c:
        return TauInterval(np.nan, np.nan, empty=True, clamped=True)
    return TauInterval(lo_c, hi_c, empty=False, clamped=clamped)


def tau_boundaries(
    n_modes: int, nbar: float, fixed_prefix: Sequence[float] = ()
) -> TauInterval:
    """Exact extent of the advantage region along one tau axis.

    With the first len(fixed_prefix) transmissivities pinned, returns
    the interval of the next one for which some completion of the chain
    has delta > 0. Later transmissivities only ever shrink the
    advantage, so "some completion" means "the all-zeros completion",
    and the interval is exactly the region's projection onto this axis
    through the prefix.

    Along the slice (prefix, t, 0, ..., 0), L(t) = det(I + g Gram) is
    affine in t on every axis after the first; on the first it is
    (1 + 2gt)(1 + 2g(1 - t))(1 + 2g)^(n-2), symmetric about t = 1/2. So
    delta at the slice's best point (t = 1/2 on the first axis, t = 0 on
    the others) and at its edge fixes the interval exactly, for any n.
    """
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    if not np.isfinite(nbar) or nbar <= 0.0:
        raise ValueError(f"nbar must be finite and > 0, got {nbar}")
    prefix = tuple(fixed_prefix)
    axis = len(prefix)
    if axis >= n_modes - 1:
        raise ValueError("fixed_prefix pins every transmissivity; none left to bound")
    row = _validated_taus(n_modes, prefix + (0.0,) * (n_modes - 1 - axis))
    probes = np.array([row, row])
    probes[:, axis] = (0.5, 0.0) if axis == 0 else (0.0, 1.0)
    d_best, d_edge = _delta_batch(n_modes, _grams(n_modes, probes), nbar)
    if d_best <= 0.0:
        return TauInterval(np.nan, np.nan, empty=True, clamped=False)
    if axis > 0 and d_edge > 0.0:
        return TauInterval(0.0, 1.0, empty=False, clamped=False)
    # (L_best - e^(2 C_cl)) / (L_best - L_edge): the crossing's share of the
    # way from best point to edge (of the squared distance on the first axis)
    span = np.expm1(2.0 * (d_edge - d_best))
    frac = np.expm1(-2.0 * d_best) / span
    if axis == 0:
        # lo = 1/2 - half_width, without the cancellation when lo is tiny
        half_width = 0.5 * np.sqrt(frac)
        one_minus_frac = np.exp(-2.0 * d_best) * np.expm1(2.0 * d_edge) / span
        return _interval(0.25 * one_minus_frac / (0.5 + half_width), 0.5 + half_width)
    return _interval(0.0, frac)


def break_even_squeezing(n_modes: int, taus: Sequence[float]) -> float:
    """Squeezing strength in use exactly at the threshold budget: the
    optimal r evaluated at threshold_energy(n_modes, taus)."""
    return optimal_params(n_modes, threshold_energy(n_modes, taus)).r


def asymptotic_ratio(n_modes: int, taus: Sequence[float], r_large: float) -> float:
    """C_quantum / C_classical at the budget nbar = (n-1) e^r sinh r.

    At that budget the optimal squeezing equals r_large itself. The
    ratio approaches n/(n-1) from below as r grows; the approach is
    slow, the gap falls off like 1/r.
    """
    if r_large < 10.0:
        raise ValueError("asymptotic regime starts at r_large >= 10")
    half_senders = (n_modes - 1) / 2.0
    with np.errstate(over="ignore"):
        nbar = float(half_senders * np.expm1(2.0 * r_large))
    if not np.isfinite(nbar):
        r_max = 0.5 * np.log(np.finfo(float).max / max(half_senders, 1.0))
        raise ValueError(
            f"r = {r_large:g} overflows the photon budget, finite up to r = {r_max:.1f}"
        )
    report = capacity(n_modes, taus, nbar)
    return report.c_quantum / report.c_classical


@dataclass(frozen=True)
class RegionScan:
    """delta evaluated over a full lexicographic tau grid at one budget."""

    n_modes: int
    nbar: float
    grid_resolution: int
    taus: np.ndarray     # (G, n_modes - 1)
    deltas: np.ndarray   # (G,), nats
    flags: np.ndarray    # (G,), bool, flags == (deltas > 0)

    def __post_init__(self):
        taus = _frozen_array(self.taus)
        deltas = _frozen_array(self.deltas)
        flags = _frozen_array(self.flags, dtype=bool)
        g = taus.shape[0]
        if taus.shape != (g, self.n_modes - 1):
            raise ValueError(f"taus shape {taus.shape} inconsistent with n_modes")
        if deltas.shape != (g,) or flags.shape != (g,):
            raise ValueError("deltas/flags length mismatch")
        if not np.array_equal(flags, deltas > 0):
            raise ValueError("flags must equal (deltas > 0) exactly")
        object.__setattr__(self, "nbar", float(self.nbar))
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "flags", flags)

    @property
    def n_points(self) -> int:
        return self.taus.shape[0]

    @property
    def n_advantage(self) -> int:
        return int(np.count_nonzero(self.flags))


def region_scan(n_modes: int, nbar: float, grid_resolution: int) -> RegionScan:
    """Evaluate delta on the full [0,1]^(n-1) grid, lexicographic order.

    Rows are ordered with the first transmissivity slowest, matching
    sorted-tuple order, so serialized scans are directly comparable.
    The kernel runs on consecutive chunks of grid points whose
    (C, n, n) chain array fits _SCAN_CHUNK_BYTES; a grid of more than
    _SCAN_MAX_POINTS points raises ValueError before anything is
    allocated.
    """
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    if grid_resolution < 8:
        raise ValueError("grid_resolution must be at least 8")
    if not np.isfinite(nbar) or nbar < 0.0:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    n_points = grid_resolution ** (n_modes - 1)
    if n_points > _SCAN_MAX_POINTS:
        # the taus and the deltas alone take 8 n bytes per point
        raise ValueError(
            f"a {n_modes}-mode scan at grid {grid_resolution} has {n_points:,} points "
            f"(about {8 * n_modes * n_points / 1e9:.3g} GB), over the cap of "
            f"{_SCAN_MAX_POINTS:,}"
        )
    axes = [np.linspace(0.0, 1.0, grid_resolution)] * (n_modes - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    taus_grid = np.stack([m.ravel() for m in mesh], axis=1)
    chunk = _SCAN_CHUNK_BYTES // (8 * n_modes**2)
    deltas = np.empty(n_points)
    for start in range(0, n_points, chunk):
        rows = slice(start, start + chunk)
        deltas[rows] = _delta_batch(n_modes, _grams(n_modes, taus_grid[rows]), nbar)
    return RegionScan(
        n_modes=n_modes,
        nbar=nbar,
        grid_resolution=grid_resolution,
        taus=taus_grid,
        deltas=deltas,
        flags=deltas > 0,
    )
