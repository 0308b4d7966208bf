"""The scan-line law (README, Numerical notes): along each line of a region scan, the last tau
its fastest axis, delta never rises and the flags are one run from t = 0. The run ends at the
line's closed-form crossing t* = (1 - e^(2 (C_cl - C_0))) / (1 - rho), rho = e^(2 (C_1 - C_0)),
where C_0 and C_1 are the kernel's rates at the line's ends."""

import numpy as np
import pytest

from cvdcnet import dc_protocol
from cvdcnet.advantage_analysis import classical_capacity, min_threshold_energy, region_scan
from cvdcnet.cli_scan import parse_region, serialize_region


def _crossing_counts(n_modes, nbar, grid):
    """Per line, the grid taus below its crossing t*, from C_0, C_1 and C_cl alone."""
    axis = np.linspace(0.0, 1.0, grid)
    prefix = np.stack(np.meshgrid(*[axis] * (n_modes - 2), indexing="ij")).reshape(n_modes - 2, -1)
    c_cl = classical_capacity(n_modes - 1, nbar)
    d0, d1 = (dc_protocol._quantum_rates([*prefix, end], nbar) - c_cl for end in (0.0, 1.0))
    above = -np.expm1(-2.0 * d0)  # 1 - e^(2 (C_cl - C_0))
    fall = -np.expm1(2.0 * (d1 - d0))  # 1 - rho
    with np.errstate(divide="ignore", invalid="ignore"):  # a flat line: all or none
        t_star = np.where(fall > 0.0, above / fall, np.where(above > 0.0, np.inf, 0.0))
    return np.searchsorted(axis, t_star)


def _check_lines(scan, counts):
    rows, flags = scan.deltas.reshape(-1, scan.grid_resolution), scan.flags.reshape(len(counts), -1)
    rises = np.flatnonzero((np.diff(rows, axis=1) > 0.0).any(axis=1))
    assert rises.size == 0, f"delta rises along {rises.size} lines, the first {rises[0]}"
    run = np.count_nonzero(flags, axis=1)
    assert np.array_equal(flags, np.arange(scan.grid_resolution) < run[:, None])  # one run
    off = np.flatnonzero(run != counts)
    assert off.size == 0, f"{off.size} of {len(counts)} lines end their run off t*"


# (n_modes, nbar, grid, text): n = 3..8 at 1.5 times the minimum threshold, with their CSV
# and JSON round trips; n = 8's smallest grid has 2^21 rows, about 0.2 GB of CSV, so that
# scan is checked alone, as are three larger reference scans
@pytest.mark.parametrize("n_modes, nbar, grid, text", [
    (3, None, 300, True), (4, None, 48, True), (5, None, 16, True), (6, None, 10, True),
    (7, None, 8, True), (8, None, 8, False),
    (3, 10.0, 1000, False), (3, 17.3, 256, False), (5, 30.0, 40, False),
])
def test_each_scan_line_falls_and_flags_one_run_that_ends_at_its_crossing(n_modes, nbar, grid,
                                                                           text):
    nbar = 1.5 * min_threshold_energy(n_modes).nbar_th if nbar is None else nbar
    scan = region_scan(n_modes, nbar, grid)
    counts = _crossing_counts(n_modes, nbar, grid)
    assert counts.any()  # a nonempty region
    _check_lines(scan, counts)
    for fmt in ("csv", "json") if text else ():
        back = parse_region(serialize_region(scan, fmt))  # 12 digits: monotone, sign kept
        _check_lines(back, counts)
