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
from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .dc_protocol import _budget, _classical_rates, _quantum_rates, capacity, optimal_params
from .phase_space import _frozen_array, _is_whole, _mode_count, _real, _shown
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
_CHUNK_ROWS = 2**14  # scan rows a chunk: region_scan's kernel, the text writer, the CSV reader


class NoAdvantageError(RuntimeError):
    """No photon budget up to the search cap yields a positive advantage, or the chain is
    cut and no budget at all does."""

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
    n_senders = _mode_count(n_senders, least=1, scalar=True)
    arr = np.asarray(_real(nbar) if np.isscalar(nbar) else nbar, dtype=float)
    _budget(arr.min(initial=0.0))  # the budget rule at the extremes, where a NaN is too
    _budget(arr.max(initial=0.0))
    val = _classical_rates(n_senders, arr)
    return float(val) if arr.ndim == 0 else val


def quantum_advantage(n_modes: int, taus: Sequence[float], nbar: float) -> float:
    """delta(taus, nbar) = C_quantum - C_classical in nats."""
    return capacity(n_modes, taus, nbar).delta


def threshold_energy(
    n_modes: int, taus: Sequence[float], tol: float = BISECT_TOL
) -> float:
    """Photon budget where the advantage turns positive for fixed taus.

    Solved inside [1e-6, SEARCH_CAP_NBAR] to within tol/2 of a proven sign change
    of delta. delta rises through zero only once, so the root is unique. Safeguarded
    secant in u = ln nbar (README, Numerical notes), from the cap point, until a step
    in nbar is <= tol/4; delta at x -/+ tol/2 then certifies the root, or it is
    bisected until hi - lo <= tol. Each delta is one O(n) transfer pass on Python
    floats. The floor 1e-6 never holds an advantage: P(v) <= 1, so
    C_q <= (n/2) ln(1 + 2g) <= n g = 2 nbar (1 + nbar/(n-1)), about 2e-6 there,
    while C_cl >= nbar ln(1 + (n-1)/nbar) >= 1.38e-5. Raises NoAdvantageError if
    delta never turns positive below the cap, or with no kernel pass if the chain is cut:
    c_n = tau_1 (1 - tau_1) prod_{k>=2} (1 - tau_k) = 0 keeps C_q <= C_cl at every budget
    (README, Numerical notes). Raises ValueError unless tol is finite and > 0.
    """
    taus = _validated_taus(n_modes, taus)
    n_modes, tol = len(taus) + 1, _real(tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol}")
    if taus[0] == 0.0 or 1.0 in taus:  # c_n = 0: tau_1 is 0 or 1, or a later tau is 1
        cut = 0 if taus[0] == 0.0 else taus.index(1.0)
        raise NoAdvantageError(f"no quantum advantage at any budget for {n_modes}-mode taus "
                               f"{taus}: tau_{cut + 1} = {taus[cut]:g} cuts the chain")

    def delta_at(nbar):  # right for every budget in [0, SEARCH_CAP_NBAR]
        return float(_quantum_rates(taus, nbar) - _classical_rates(n_modes - 1, nbar))

    lo, hi = math.log(1e-6), math.log(SEARCH_CAP_NBAR)  # ln nbar where delta <= 0, > 0
    u_last, d_last = hi, delta_at(SEARCH_CAP_NBAR)  # the secant's previous point
    if not d_last > 0.0:
        raise NoAdvantageError(f"no quantum advantage up to nbar = {SEARCH_CAP_NBAR:g} "
                               f"for {n_modes}-mode taus {taus}")
    u = hi - d_last if d_last < hi - lo else 0.5 * (lo + hi)  # full rank: delta ~ u + c
    nbar = math.inf  # no step taken yet
    while abs(math.exp(u) - nbar) > 0.25 * tol:  # until a step is <= tol/4 or u stops
        nbar = math.exp(u)
        delta = delta_at(nbar)
        lo, hi = (lo, u) if delta > 0.0 else (u, hi)
        secant = u - delta * (u - u_last) / (delta - d_last) if delta != d_last else math.nan
        u_last, d_last = u, delta
        u = secant if lo < secant < hi or secant == u else 0.5 * (lo + hi)
    x, lo, hi = math.exp(u), math.exp(lo), math.exp(hi)
    if delta_at(min(x + 0.5 * tol, hi)) > 0.0 >= delta_at(max(x - 0.5 * tol, lo)):
        return x
    mid = 0.5 * (lo + hi)  # delta's rounding hides the root: bisect
    while hi - lo > tol and lo < mid < hi:
        lo, hi = (lo, mid) if delta_at(mid) > 0.0 else (mid, hi)
        mid = 0.5 * (lo + hi)
    return mid


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
    threshold there, threshold_energy at tol 1e-9; no other point is searched.
    Its NoAdvantageError, if delta never turns positive below the cap, names those taus.
    """
    n_modes = _mode_count(n_modes)
    taus = (0.5,) + (0.0,) * (n_modes - 2)
    return MinThresholdResult(threshold_energy(n_modes, taus, tol=1e-9), taus)


@dataclass(frozen=True)
class TauInterval:
    """One axis-aligned slice of the advantage region.

    empty means no value of the free transmissivity gives an advantage
    (lo and hi are NaN then). clamped is always False, kept for callers: the
    slice's edge cuts the chain, so the boundary never leaves [0, 1] (tau_boundaries).
    """

    lo: float
    hi: float
    empty: bool
    clamped: bool


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
    n_modes, nbar = _mode_count(n_modes), _budget(nbar)
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
    # Each edge probe cuts the chain (tau_1 = 0 before a zero tail, or a later tau = 1),
    # so c_n = 0 there and C_q <= C_cl at every budget: d_edge < 0 < d_best. The crossing's
    # share of the way from best point to edge (of the squared distance on the first axis),
    # (L_best - e^(2 C_cl)) / (L_best - L_edge), is in (0, 1): hi on a later axis
    span = np.expm1(2.0 * (d_edge - d_best))
    lo, hi = 0.0, float(np.expm1(-2.0 * d_best) / span)
    if axis == 0:  # lo = 1/2 - half_width, without the cancellation when lo is tiny
        half_width = 0.5 * math.sqrt(hi)
        one_minus_frac = float(np.exp(-2.0 * d_best) * np.expm1(2.0 * d_edge) / span)
        lo, hi = 0.25 * one_minus_frac / (0.5 + half_width), 0.5 + half_width
    return TauInterval(lo, hi, empty=False, clamped=False)


def break_even_squeezing(n_modes: int, taus: Sequence[float]) -> float:
    """Squeezing strength in use exactly at the threshold budget: the
    optimal r evaluated at threshold_energy(n_modes, taus)."""
    return optimal_params(n_modes, threshold_energy(n_modes, taus)).r


def _asymptotic_regime(r_large) -> float:
    """r_large as a float; ValueError unless it is >= 10, where asymptotic_ratio applies."""
    r_large = _real(r_large)
    if not r_large >= 10.0:
        raise ValueError(f"asymptotic regime starts at r_large >= 10, got {r_large}")
    return r_large


def asymptotic_ratio(n_modes: int, taus: Sequence[float], r_large: float) -> float:
    """C_quantum / C_classical at the budget nbar = (n-1) e^r sinh r.

    At that budget the optimal squeezing equals r_large itself. The
    ratio approaches n/(n-1) from below as r grows; the approach is
    slow, the gap falls off like 1/r.
    """
    n_modes, r_large = _mode_count(n_modes), _asymptotic_regime(r_large)
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


def _grid_resolution(grid_resolution) -> int:
    """grid_resolution as an int; ValueError unless it is a whole number >= 8."""
    if not (_is_whole(grid_resolution) and grid_resolution >= 8):
        raise ValueError(f"grid_resolution must be a whole number >= 8, "
                         f"got {_shown(grid_resolution)}")
    return int(grid_resolution)


def _grid_points(n_modes: int, grid_resolution: int) -> int:
    """Points of a scan grid; ValueError unless region_scan could make it."""
    n_modes, grid_resolution = _mode_count(n_modes), _grid_resolution(grid_resolution)
    if (n_modes - 1) * math.log2(grid_resolution) > 64:  # too far over the cap to count
        raise ValueError(f"a {n_modes}-mode scan at grid {_shown(grid_resolution)} has more than "
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
    """(n_modes - 1, stop - start) positions on the tau axes of scan rows start..stop-1,
    one contiguous row an axis: lexicographic order, the first transmissivity slowest."""
    index = np.tile(np.arange(start, stop), (n_modes - 1, 1))  # each axis's row: set below
    for axis in range(n_modes - 2, 0, -1):  # a scalar divisor: no divmod, no unravel_index
        np.floor_divide(index[axis], grid_resolution, out=index[axis - 1])
        index[axis] -= index[axis - 1] * grid_resolution
    return index


def _grid_taus(index: np.ndarray, grid_resolution: int) -> np.ndarray:
    """np.linspace(0.0, 1.0, grid_resolution)[index] bit for bit, with no whole axis."""
    taus = index * (1 / (grid_resolution - 1))
    taus[index == grid_resolution - 1] = 1.0
    return taus


@dataclass(frozen=True)
class RegionScan:
    """delta at one budget over the lexicographic grid, grid_resolution taus per axis."""

    n_modes: int
    nbar: float
    grid_resolution: int
    deltas: np.ndarray   # (n_points,), nats
    flags: np.ndarray = field(init=False)  # (n_points,), bool, read-only: deltas > 0
    _: KW_ONLY
    _adopt: InitVar[bool] = False  # keep deltas, a fresh float array no one else holds

    def __post_init__(self, _adopt):
        n_modes, grid = _mode_count(self.n_modes), _grid_resolution(self.grid_resolution)
        n_points, nbar = _grid_points(n_modes, grid), _budget(self.nbar)
        deltas = self.deltas if _adopt else _frozen_array(self.deltas)
        deltas.flags.writeable = False
        if deltas.shape != (n_points,):
            raise ValueError(f"the grid has {n_points:,} points, deltas {deltas.shape}")
        flags = deltas > 0
        flags.flags.writeable = False
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "nbar", nbar)
        object.__setattr__(self, "grid_resolution", grid)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "flags", flags)

    @property
    def taus(self) -> np.ndarray:
        """(n_points, n_modes - 1) grid, read-only, built on each access."""
        index = _grid_index(self.n_modes, self.grid_resolution, 0, self.n_points)
        taus = np.ascontiguousarray(_grid_taus(index, self.grid_resolution).T)
        taus.flags.writeable = False
        return taus

    @property
    def n_points(self) -> int:
        return self.deltas.shape[0]

    @property
    def n_advantage(self) -> int:
        return int(np.count_nonzero(self.flags))


def _scan_chunks(n_modes: int, nbar: float, grid: int, out=None) -> Iterator[np.ndarray]:
    """region_scan's deltas in row order, _CHUNK_ROWS rows at a time, for checked arguments;
    each chunk is a view of out, the whole scan's deltas, where out is given."""
    c_cl, line = classical_capacity(n_modes - 1, nbar), grid if n_modes > 2 else 1  # rows
    n_lines, step = grid ** (n_modes - 1) // line, max(_CHUNK_ROWS // line, 1)
    t = _grid_taus(np.arange(1, line - 1), grid)  # the last tau of a line's inner rows
    for first in range(0, n_lines, step):  # a line's prefix, or for n = 2 a point
        index = _grid_index(max(n_modes - 1, 2), grid, first, min(first + step, n_lines))
        rows = (np.empty((index.shape[1], line)) if out is None  # one grid line a row
                else out[first * line:(first + index.shape[1]) * line].reshape(-1, line))
        if line == 1:
            rows[:, 0] = _quantum_rates(_grid_taus(index, grid), nbar) - c_cl
        else:
            prefix = np.tile(_grid_taus(index, grid), 2)  # one kernel call: last tau 0, then 1
            ends = np.repeat([0.0, 1.0], len(rows))
            c0, c1 = _quantum_rates([*prefix, ends], nbar).reshape(2, -1)
            rows[:, 0], rows[:, -1], inner = c0 - c_cl, c1 - c_cl, rows[:, 1:-1]  # C_0, C_1
            m = np.multiply.outer(np.expm1(2.0 * (c1 - c0)), t)  # -t (1 - rho), rho = L_1 / L_0
            far = np.multiply.outer(np.exp(2.0 * (c1 - c0)), t) + (1.0 - t)  # (1 - t) + t rho
            np.log1p(m, out=inner)  # ln L(t) - ln L_0 where t (1 - rho) < 1/2, and elsewhere
            np.log(far, out=inner, where=m <= -0.5)  # from a sum of terms >= 0
            np.add(0.5 * inner, (c0 - c_cl)[:, None], out=inner)
        yield rows.reshape(-1)


def region_scan(n_modes: int, nbar: float, grid_resolution: int) -> RegionScan:
    """Evaluate delta on the full [0,1]^(n-1) grid, lexicographic order, the first tau slowest.

    For n >= 3, L = det(I + g M M^T) is affine in the last tau (README, Numerical notes): the
    O(n) transfer kernel runs on a (2C,) column of line prefixes, the last tau at 0 then at 1,
    for a chunk of whole lines (at least one) of at most _CHUNK_ROWS rows. A 2-mode scan, whose
    one tau is quadratic in L, runs it on (C,) columns of _CHUNK_ROWS points. A grid over
    _SCAN_MAX_POINTS points raises ValueError before anything is allocated.
    """
    n_modes, grid = _mode_count(n_modes), _grid_resolution(grid_resolution)
    n_points, nbar = _grid_points(n_modes, grid), _budget(nbar)
    deltas = np.empty(n_points)
    for _ in _scan_chunks(n_modes, nbar, grid, deltas):  # each chunk written in place
        pass
    return RegionScan(n_modes, nbar, grid, deltas, _adopt=True)
