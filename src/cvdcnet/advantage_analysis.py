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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dc_protocol import _quantum_rates, capacity, optimal_params
from .phase_space import _frozen_array
from .resource_prep import _validated_taus

__all__ = [
    "SEARCH_CAP_NBAR",
    "BISECT_TOL",
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
_SCAN_MAX_POINTS = 2**24  # region_scan refuses larger grids
_SCAN_CHUNK_BYTES = 2**20  # region_scan chunk working set: fastest of 256 KiB..2 MiB, n = 3..8


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


def quantum_advantage(n_modes: int, taus: Sequence[float], nbar: float) -> float:
    """delta(taus, nbar) = C_quantum - C_classical in nats."""
    return capacity(n_modes, taus, nbar).delta


def _threshold(n_modes: int, taus: tuple[float, ...], tol: float) -> float:
    """Threshold budget for one chain, within tol/2 of a proven sign change of
    delta; inf where delta stays <= 0 up to SEARCH_CAP_NBAR.

    Safeguarded Newton in u = ln nbar (README, Numerical notes) until a step in
    nbar is <= tol/4; delta at x -/+ tol/2 then certifies the root, or it is
    bisected until hi - lo <= tol. Each delta (and slope) is one O(n) transfer
    pass on Python floats. The floor 1e-6 never holds an advantage: P(v) <= 1, so
    C_q <= (n/2) ln(1 + 2g) <= n g = 2 nbar (1 + nbar/(n-1)), about 2e-6 there,
    while C_cl >= nbar ln(1 + (n-1)/nbar) >= 1.38e-5.
    """
    def delta_at(nbar):  # right for budgets in (0, SEARCH_CAP_NBAR]
        return _quantum_rates(taus, nbar) - _classical_rates(n_modes - 1, nbar)

    d_cap = float(delta_at(SEARCH_CAP_NBAR))
    if not d_cap > 0.0:
        return np.inf
    lo, hi = math.log(1e-6), math.log(SEARCH_CAP_NBAR)  # ln nbar where delta <= 0, > 0
    u = hi - d_cap if d_cap < hi - lo else 0.5 * (lo + hi)  # full rank: delta ~ u + c
    nbar = np.inf  # no step taken yet
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat delta: no Newton step
        while abs(math.exp(u) - nbar) > 0.25 * tol:  # until a step is <= tol/4 or u stops
            nbar = math.exp(u)
            half, slope = _quantum_rates(taus, nbar, slope=True)
            delta = half - _classical_rates(n_modes - 1, nbar)
            lo, hi = (lo, u) if delta > 0.0 else (u, hi)
            newton = float(u - delta / (slope - nbar * math.log1p((n_modes - 1) / nbar)))
            u = newton if lo < newton < hi or newton == u else 0.5 * (lo + hi)
    x, lo, hi = math.exp(u), math.exp(lo), math.exp(hi)
    if delta_at(min(x + 0.5 * tol, hi)) > 0.0 >= delta_at(max(x - 0.5 * tol, lo)):
        return x
    mid = 0.5 * (lo + hi)  # delta's rounding hides the root: bisect
    while hi - lo > tol and lo < mid < hi:
        lo, hi = (lo, mid) if delta_at(mid) > 0.0 else (mid, hi)
        mid = 0.5 * (lo + hi)
    return mid


def threshold_energy(
    n_modes: int, taus: Sequence[float], tol: float = BISECT_TOL
) -> float:
    """Photon budget where the advantage turns positive for fixed taus.

    Solved inside [1e-6, SEARCH_CAP_NBAR] to within tol/2 of a proven sign
    change of delta, by a safeguarded Newton iteration with a bisection
    fallback (_threshold). delta rises through zero only once, so the root is
    unique. Raises NoAdvantageError if delta never turns positive below the
    cap, and ValueError unless tol > 0.
    """
    taus = _validated_taus(n_modes, taus)
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    nbar_th = _threshold(n_modes, taus, tol)
    if not np.isfinite(nbar_th):
        raise NoAdvantageError(
            f"no quantum advantage up to nbar = {SEARCH_CAP_NBAR:g} "
            f"for {n_modes}-mode taus {taus}"
        )
    return nbar_th


@dataclass(frozen=True)
class MinThresholdResult:
    """Global minimum threshold budget and where it is attained.

    Iterating yields (nbar_th, taus) for tuple-style unpacking.
    """

    nbar_th: float
    taus: tuple[float, ...]

    def __iter__(self):
        yield self.nbar_th
        yield self.taus


def min_threshold_energy(n_modes: int) -> MinThresholdResult:
    """Minimize the threshold budget over all chain transmissivities.

    The minimum is attained at taus = (1/2, 0, ..., 0) for every n:
    delta never rises with the tail transmissivities tau_2..tau_{n-1}
    (the same fact tau_boundaries relies on), and on the line
    (tau1, 0, ..., 0) the quantum rate is
    C_q = [ln(1 + 2g tau1) + ln(1 + 2g (1 - tau1)) + (n-2) ln(1 + 2g)] / 2,
    symmetric and strictly concave in tau1. So at every budget delta is
    largest at tau1 = 1/2, and the global threshold is the fixed-taus
    threshold there, solved to tol 1e-9; no other point is searched.
    Raises NoAdvantageError if delta never turns positive below the cap.
    """
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    taus = (0.5,) + (0.0,) * (n_modes - 2)
    nbar_th = _threshold(n_modes, taus, tol=1e-9)
    if not np.isfinite(nbar_th):
        raise NoAdvantageError(
            f"no transmissivity choice gives an advantage below "
            f"nbar = {SEARCH_CAP_NBAR:g} for {n_modes} modes"
        )
    return MinThresholdResult(nbar_th, taus)


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

    Along the slice (prefix, t, 0, ..., 0), L(t) = det(I + g M M^T) is
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
    c_cl = _classical_rates(n_modes - 1, nbar)
    d_best, d_edge = (float(_quantum_rates(row[:axis] + (t,) + row[axis + 1:], nbar) - c_cl)
                      for t in ((0.5, 0.0) if axis == 0 else (0.0, 1.0)))
    if d_best <= 0.0:
        return TauInterval(np.nan, np.nan, empty=True, clamped=False)
    # past the first axis d_edge < 0: tau = 1 there cuts the chain, so c_n = 0,
    # and then C_q <= C_cl at every budget
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


def _grid_points(n_modes: int, grid_resolution: int) -> int:
    """Points of a scan grid; ValueError unless region_scan could make it."""
    if n_modes < 2:
        raise ValueError(f"need at least 2 modes, got {n_modes}")
    if grid_resolution < 8:
        raise ValueError("grid_resolution must be at least 8")
    if (n_modes - 1) * math.log2(grid_resolution) > 64:  # too far over the cap to count
        raise ValueError(f"a {n_modes}-mode scan at grid {grid_resolution} has more than "
                         f"2^64 points, over the cap of {_SCAN_MAX_POINTS:,}")
    n_points = grid_resolution ** (n_modes - 1)
    if n_points > _SCAN_MAX_POINTS:
        # the deltas and the flags take 9 bytes per point
        raise ValueError(
            f"a {n_modes}-mode scan at grid {grid_resolution} has {n_points:,} points "
            f"(about {9 * n_points / 1e9:.3g} GB), over the cap of {_SCAN_MAX_POINTS:,}"
        )
    return n_points


def _grid_index(n_modes: int, grid_resolution: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, n_modes - 1) positions on the tau axis of scan rows
    start..stop-1: lexicographic order, the first transmissivity slowest."""
    shape = (grid_resolution,) * (n_modes - 1)
    return np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)


@dataclass(frozen=True)
class RegionScan:
    """delta at one budget over the lexicographic grid, grid_resolution taus per axis."""

    n_modes: int
    nbar: float
    grid_resolution: int
    deltas: np.ndarray   # (n_points,), nats
    flags: np.ndarray = field(init=False)  # (n_points,), bool, read-only: deltas > 0

    def __post_init__(self):
        n_points = _grid_points(self.n_modes, self.grid_resolution)
        if not np.isfinite(self.nbar) or self.nbar < 0.0:
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")
        deltas = _frozen_array(self.deltas)
        if deltas.shape != (n_points,):
            raise ValueError(f"the grid has {n_points:,} points, deltas {deltas.shape}")
        flags = deltas > 0
        flags.flags.writeable = False
        object.__setattr__(self, "nbar", float(self.nbar))
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "flags", flags)

    @property
    def taus(self) -> np.ndarray:
        """(n_points, n_modes - 1) grid, read-only, built on each access."""
        index = _grid_index(self.n_modes, self.grid_resolution, 0, self.n_points)
        taus = np.linspace(0.0, 1.0, self.grid_resolution)[index]
        taus.flags.writeable = False
        return taus

    @property
    def n_points(self) -> int:
        return self.deltas.shape[0]

    @property
    def n_advantage(self) -> int:
        return int(np.count_nonzero(self.flags))


def region_scan(n_modes: int, nbar: float, grid_resolution: int) -> RegionScan:
    """Evaluate delta on the full [0,1]^(n-1) grid, lexicographic order.

    Rows are ordered with the first transmissivity slowest, matching
    sorted-tuple order, so serialized scans are directly comparable.
    The O(n) transfer kernel runs on (C,) columns of C consecutive points,
    whose working set (their (n - 1, C) taus and grid positions, about ten
    (C,) arrays of kernel state: 8 (2n + 8) bytes a point) fits
    _SCAN_CHUNK_BYTES; a grid of more than _SCAN_MAX_POINTS points raises
    ValueError before anything is allocated.
    """
    n_points = _grid_points(n_modes, grid_resolution)
    if not np.isfinite(nbar) or nbar < 0.0:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    chunk = _SCAN_CHUNK_BYTES // (8 * (2 * n_modes + 8))
    axis, deltas = np.linspace(0.0, 1.0, grid_resolution), np.empty(n_points)
    c_cl = classical_capacity(n_modes - 1, nbar)
    for start in range(0, n_points, chunk):
        index = _grid_index(n_modes, grid_resolution, start, min(start + chunk, n_points))
        deltas[start:start + chunk] = _quantum_rates(axis[index.T], nbar) - c_cl
    return RegionScan(n_modes, nbar, grid_resolution, deltas)
