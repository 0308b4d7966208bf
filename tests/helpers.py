"""Shared oracles and frozen reference constants for the test suite.

The constants below were computed by independent routes (tight bisection
on the closed-form advantage sign, determinant algebra done by hand,
classical-limit formulas) before the library was written. Tests compare
the library against these, not against itself.
"""

import tracemalloc

import numpy as np

# --- frozen reference values ------------------------------------------------

# sign-change bisection at 1e-9 absolute on the closed-form delta
TH3_BALANCED = 8.150914618279785         # threshold budget, taus (1/2, 1/2)
TH4_BALANCED = 24.867118126247078        # threshold budget, taus (1/2, 1/2, 1/2)
MIN_TH3 = 5.376816293690354              # global minimum, attained at (1/2, 0)
MIN_TH4 = 11.451757172588259             # global minimum, attained at (1/2, 0, 0)

# optimal squeezing evaluated exactly at the thresholds above
BREAK_EVEN3 = 1.1069269162869388
BREAK_EVEN4 = 1.4333263001057863

# capacity ratios at the budget nbar = (n-1) e^r sinh(r) for r = 20;
# they sit about 2 percent below the n/(n-1) limits
RATIO3_R20 = 1.4681384589510356
RATIO4_R20 = 1.3069600695604664

CAP3_BALANCED_815 = 5.037127048268097    # C(3 modes, (1/2,1/2), nbar=8.15), nats
CLASSICAL_2_815 = 5.037217642471155      # two-sender classical rate at 8.15
CLASSICAL_3_AT_3 = 6.0 * np.log(2.0)     # three senders, nbar=3: exactly 6 ln 2

# balanced-vs-(1/3, 1/2) capacity ordering flips below this budget
ORDERING_CROSSOVER3 = np.sqrt(10.0) - 1.0

# C_q of singular chains (a transmissivity exactly 0 or 1) at large budgets,
# from an 80-digit mpmath determinant of the chain (capacity_mp); the Gram
# route lost the third digit on the first two and overflowed on the third
CAP4_SINGULAR_1E8 = 53.614123843854931654      # taus (1, 0, 1/4), nbar = 1e8
CAP7_SINGULAR_1E8 = 86.081124690627240979      # taus (0, 1/4, 0, 1/4, 1, 1/4), 1e8
CAP3_SINGULAR_1E12 = 54.856577123750932034     # taus (0, 1/2), nbar = 1e12
RATIO3_SINGULAR_R30 = 0.99155012490836081488   # taus (0, 1/2), r = 30


# --- closed-form capacity oracles --------------------------------------------

def gain3(nbar):
    return nbar * (nbar + 2.0) / 3.0


def gain4(nbar):
    return nbar * (nbar + 3.0) / 6.0


def signal_gain(n_modes, nbar):
    """e^{2r} sigma^2 at the optimal working point."""
    return 2.0 * nbar * (nbar + n_modes - 1.0) / ((n_modes - 1.0) * n_modes)


def capacity3_closed(tau1, tau2, nbar):
    g = gain3(nbar)
    return 0.5 * np.log(
        (1 + 2 * g) * (1 + 2 * g * (1 - tau1)) * (1 + 2 * g * tau1 * (1 - tau2))
    )


def capacity4_closed(tau1, tau2, tau3, nbar):
    g = gain4(nbar)
    det13 = (1 + 2 * g) * (1 + 2 * g * tau1 * (1 - tau2))
    det24 = (1 + 2 * g * (1 - tau1)) * (1 + 2 * g * (1 - tau3)) \
        + 2 * g * tau1 * tau3 * (1 - tau2)
    return 0.5 * np.log(det13 * det24)


def capacity_line_closed(n_modes, tau1, nbar):
    """Capacity at taus = (tau1, 0, ..., 0) for any number of modes: the
    first splitter sets one factor pair, every other mode adds 1 + 2g."""
    g = signal_gain(n_modes, nbar)
    return 0.5 * (
        np.log1p(2 * g * tau1)
        + np.log1p(2 * g * (1 - tau1))
        + (n_modes - 2) * np.log1p(2 * g)
    )


def capacity3_balanced_closed(nbar):
    a = nbar * (nbar + 2.0)
    return 0.5 * np.log((a + 3) * (a + 6) * (2 * a + 3) / 54.0)


def capacity4_balanced_closed(nbar):
    b = nbar * (nbar + 3.0)
    return 0.5 * np.log((b + 3) * (b + 12) * (b * (2 * b + 27) + 72)) \
        - np.log(36.0 * np.sqrt(2.0))


def capacity4_mixed_closed(nbar):
    # taus (1/3, 1/4, 4/5)
    b = nbar * (nbar + 3.0)
    return 0.5 * np.log((b + 3) * (b + 12) * (2 * b * (b + 24) + 135)) \
        - np.log(18.0 * np.sqrt(15.0))


def capacity_mp(mp, n_modes, taus, nbar):
    """C_q = (1/2) ln det(I + g M M^T) in mpmath at its working precision,
    M built entry by entry: the adjoint chain on the identity, sqrt 2 where
    mode k measures the quadrature a message slot is carried in (p on even
    modes, q on odd ones). Row signs are left out; they cancel in M M^T."""
    o_t = mp.eye(n_modes)
    for k in reversed(range(n_modes - 1)):
        t, rfl = mp.sqrt(mp.mpf(taus[k])), mp.sqrt(1 - mp.mpf(taus[k]))
        for col in range(n_modes):
            upper, lower = o_t[k, col], o_t[k + 1, col]
            o_t[k, col], o_t[k + 1, col] = t * upper + rfl * lower, -rfl * upper + t * lower
    slots = [(0, "q"), (0, "p")] + [(k, "qp"[k % 2]) for k in range(1, n_modes - 1)]
    m = mp.matrix(n_modes, n_modes)
    for k in range(n_modes):
        for col, (mode, quad) in enumerate(slots):
            if quad == "pq"[k % 2]:
                m[k, col] = mp.sqrt(2) * o_t[k, mode]
    nb = mp.mpf(nbar)
    g = 2 * nb * (nb + n_modes - 1) / ((n_modes - 1) * n_modes)
    return mp.log(mp.det(mp.eye(n_modes) + g * m * m.T)) / 2


def exit_log_weights(n_modes, taus_grid):
    """ln c_j, shape (n_modes + 1, G), for a (G, n_modes - 1) grid of taus:
    det(I + g M M^T) = sum_j c_j (1 + 2g)^j, where c_j is the chance that j
    fermions leave the chain through slot modes (README, Numerical notes).
    The whole distribution, built by an O(n^2) recursion over it; the library
    evaluates the same sum at one x by an O(n) transfer product instead."""
    t = np.asarray(taus_grid, dtype=float).T
    r = 1.0 - t
    weights = np.zeros((n_modes + 1, t.shape[1]))
    weights[0] = 1.0
    for block in (0, 1):  # modes measured in p (0, 2, ...), then in q (1, 3, ...)
        in_0, in_1 = (t[0], r[0]) if block == 0 else (r[0], t[0])  # after BS_0; 0 is a slot
        empty, full = np.zeros_like(weights), in_1 * weights  # mode k + 1 empty/full
        empty[1:] = in_0 * weights[:-1]
        for k, (tk, rk) in enumerate(zip(t[1:], r[1:]), start=1):
            if (k + 1) % 2 == block:  # mode k + 1 starts full, mode k is a slot
                full[1:], full[0] = full[:-1] + tk * empty[1:], tk * empty[0]
                empty[1:], empty[0] = rk * empty[:-1], 0.0
            else:  # mode k + 1 starts empty, mode k is no slot
                empty += tk * full
                full *= rk
        weights = empty + full  # the q block starts from the p block's exits
    with np.errstate(divide="ignore"):
        return np.log(weights)


def log_det_from_exit_weights(log_weights, gain):
    """ln sum_j c_j x^j, x = 1 + 2 gain, per column of exit_log_weights. While
    x^n is finite it is log1p(sum_j c_j expm1(j ln x)): every term is >= 0, so it
    keeps full relative accuracy at small gains, where a logaddexp over j loses
    digits; past that, the logaddexp (then ln det >~ 700 absorbs its rounding)."""
    exits = np.arange(log_weights.shape[0])[:, None]
    log_x = np.log1p(2.0 * gain)
    if exits[-1, 0] * log_x < 700.0:
        return np.log1p(np.sum(np.exp(log_weights) * np.expm1(exits * log_x), axis=0))
    return np.logaddexp.reduce(log_weights + exits * log_x, axis=0)


def classical_stable(n_senders, nbar):
    x = np.asarray(nbar, dtype=float) / n_senders
    with np.errstate(divide="ignore", invalid="ignore"):
        val = n_senders * (x * np.log1p(1.0 / x) + np.log1p(x))
    return np.where(x > 0, val, 0.0)


def classical_literal(n_senders, nbar):
    """Textbook form (1+x)ln(1+x) - x ln x; cancels badly for x >~ 1e15."""
    x = nbar / n_senders
    if x == 0:
        return 0.0
    return n_senders * ((1 + x) * np.log(1 + x) - x * np.log(x))


def mi_oracle(m, gain):
    """Mutual information from a channel matrix and the scalar gain."""
    m = np.asarray(m, dtype=float)
    _, logdet = np.linalg.slogdet(np.eye(m.shape[0]) + gain * (m @ m.T))
    return 0.5 * logdet


# --- decoded-mean oracles -----------------------------------------------------

def decoded_mean_three(alpha, tau1, tau2):
    """Decoded displacement of the encoded three-mode resource,
    components (q1, p1, q2, p2, q3, p3), message order (a1x, a1y, a2y)."""
    a1x, a1y, a2y = alpha
    s = np.sqrt
    return np.array([
        s(2 * tau1) * a1x,
        s(2 * tau1) * a1y + s(2 * tau2 * (1 - tau1)) * a2y,
        s(2 * (1 - tau1)) * a1x,
        s(2 * (1 - tau1)) * a1y - s(2 * tau1 * tau2) * a2y,
        0.0,
        s(2 * (1 - tau2)) * a2y,
    ])


def decoded_measured_mean_four(alpha, tau1, tau2, tau3):
    """Measured-quadrature means (p1, q2, p3, q4) after decoding a
    four-mode network, message order (a1x, a1y, a2y, a3x)."""
    a1x, a1y, a2y, a3x = alpha
    s = np.sqrt
    return np.array([
        s(2 * tau1) * a1y + s(2 * tau2 * (1 - tau1)) * a2y,
        s(2 * (1 - tau1)) * a1x - s(2 * tau1 * tau3 * (1 - tau2)) * a3x,
        s(2 * (1 - tau2)) * a2y,
        s(2 * (1 - tau3)) * a3x,
    ])


# --- literal (overflow-prone) boundary formulas -------------------------------
# valid for nbar <= ~75; the library must match them there exactly

def _excess3(nbar):
    return nbar ** (-2.0 * nbar) * (nbar + 2.0) ** (2.0 * nbar + 4.0) / 16.0


def _excess4(nbar):
    return nbar ** (-2.0 * nbar) * (nbar + 3.0) ** (2.0 * nbar + 6.0) / 729.0


def boundary3_tau1_literal(nbar):
    g = gain3(nbar)
    disc = (1 + g) ** 2 - _excess3(nbar) / (1 + 2 * g)
    if disc < 0:
        return None
    half = np.sqrt(disc) / (2 * g)
    return 0.5 - half, 0.5 + half


def boundary3_tau2_literal(nbar, tau1):
    g = gain3(nbar)
    e = _excess3(nbar) / ((1 + 2 * g) * (1 + 2 * g * (1 - tau1)))
    return 1.0 + (1.0 - e) / (2 * g * tau1)


def boundary4_tau1_literal(nbar):
    g = gain4(nbar)
    disc = (1 + g) ** 2 - _excess4(nbar) / (1 + 2 * g) ** 2
    if disc < 0:
        return None
    half = np.sqrt(disc) / (2 * g)
    return 0.5 - half, 0.5 + half


def boundary4_tau2_literal(nbar, tau1):
    g = gain4(nbar)
    e = _excess4(nbar) / ((1 + 2 * g) ** 2 * (1 + 2 * g * (1 - tau1)))
    return 1.0 + (1.0 - e) / (2 * g * tau1)


def boundary4_tau3_literal(nbar, tau1, tau2):
    g = gain4(nbar)
    f = _excess4(nbar) / ((1 + 2 * g) * (1 + 2 * g * tau1 * (1 - tau2)))
    shared = 1 + 2 * g * (1 - tau1)
    return (shared * (1 + 2 * g) - f) / (2 * g * (shared - tau1 * (1 - tau2)))


# --- generic utilities ---------------------------------------------------------

def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of its traced allocations in bytes)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bisect_root(f, lo, hi, tol=1e-10):
    """Root of f by bisection; f(lo) and f(hi) must differ in sign."""
    flo = f(lo)
    if flo == 0:
        return lo
    if f(hi) * flo > 0:
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_symplectic(rng, n_modes, max_ops=6, max_r=1.5):
    """Random composition of squeezers and beam splitters."""
    from cvdcnet import Quadrature, beam_splitter, single_mode_squeezer

    s = single_mode_squeezer(n_modes, 0, 0.0, Quadrature.POSITION)
    for _ in range(int(rng.integers(1, max_ops + 1))):
        if n_modes > 1 and rng.uniform() < 0.5:
            i, j = rng.choice(n_modes, size=2, replace=False)
            s = beam_splitter(n_modes, int(i), int(j), float(rng.uniform())) @ s
        else:
            quad = Quadrature.POSITION if rng.uniform() < 0.5 else Quadrature.MOMENTUM
            mode = int(rng.integers(n_modes))
            s = single_mode_squeezer(
                n_modes, mode, float(rng.uniform(-max_r, max_r)), quad
            ) @ s
    return s


def dense_preparation(n_modes, r, taus):
    """Resource preparation as an explicit product of dense primitives:
    squeezers on every mode (momentum on even k, position on odd k), then
    beam splitters (0,1), (1,2), ... in chain order."""
    from cvdcnet import Quadrature, beam_splitter, single_mode_squeezer

    s = np.eye(2 * n_modes)
    for k in range(n_modes):
        quad = Quadrature.MOMENTUM if k % 2 == 0 else Quadrature.POSITION
        s = single_mode_squeezer(n_modes, k, r, quad).matrix @ s
    for k, tau in enumerate(taus):
        s = beam_splitter(n_modes, k, k + 1, float(tau)).matrix @ s
    return s


def dense_decoding(n_modes, taus):
    """Receiver transform as an explicit product: the transposed splitters
    in reverse order, then a sign flip of modes 1..n-1."""
    from cvdcnet import beam_splitter

    s = np.eye(2 * n_modes)
    for k, tau in enumerate(taus):
        s = s @ beam_splitter(n_modes, k, k + 1, float(tau)).matrix.T
    s[2:, :] *= -1.0
    return s


# --- Monte Carlo oracle -------------------------------------------------------

def mutual_information_mc_literal(channel, n_samples, seed):
    """mutual_information_mc as one whole-array pass: every message, noise
    and whitened sample held at once (a traced peak of about 4.4
    n_samples x n arrays at n = 5). The chunked library routine must match
    it bit for bit."""
    from numpy.linalg import LinAlgError

    from cvdcnet.dc_protocol import MC_MIN_SAMPLES, MCEstimate

    if n_samples < MC_MIN_SAMPLES:
        raise ValueError(f"samples must be a whole number >= {MC_MIN_SAMPLES}, got {n_samples}")
    try:
        msg_chol = np.linalg.cholesky(channel.msg_cov)
    except LinAlgError as exc:
        raise ValueError("msg_cov must be positive definite to sample from") from exc
    noise_chol = np.linalg.cholesky(channel.noise_cov)

    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, channel.n_messages))
    white_noise = rng.standard_normal((n_samples, channel.n_outputs))

    marg_cov = channel.noise_cov + channel.matrix @ channel.msg_cov @ channel.matrix.T
    marg_chol = np.linalg.cholesky(marg_cov)

    # beta = M L_msg z + L_noise w, whitened by the marginal Cholesky factor:
    # L_marg^{-1} beta = A z + B w with [A | B] = L_marg^{-1} [M L_msg | L_noise]
    ab = np.linalg.solve(marg_chol, np.hstack([channel.matrix @ msg_chol, noise_chol]))
    a, b = ab[:, : channel.n_messages], ab[:, channel.n_messages :]
    white_marg = z @ a.T + white_noise @ b.T

    # ln p(beta|alpha) - ln p(beta), Gaussian densities with shared 2 pi factors
    quad = 0.5 * (np.sum(white_marg**2, axis=1) - np.sum(white_noise**2, axis=1))
    log_det_ratio = float(np.sum(np.log(np.diag(marg_chol) / np.diag(noise_chol))))
    values = quad + log_det_ratio
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / np.sqrt(n_samples))
    return MCEstimate(estimate, std_error)


# --- scan text oracles ---------------------------------------------------------

def serialize_region_literal(scan, fmt="csv", units="nats"):
    """serialize_region written cell by cell: one format(x, '.12g') per
    float, one dict per JSON record."""
    import json

    from cvdcnet.resource_prep import CONVENTION_FINGERPRINT

    def fmt12(x):
        return format(float(x), ".12g")

    scale = 1.0 / np.log(2.0) if units == "bits" else 1.0
    meta = {
        "n_modes": scan.n_modes,
        "nbar": float(fmt12(scan.nbar)),
        "grid_resolution": scan.grid_resolution,
        "units": units,
        "convention": CONVENTION_FINGERPRINT,
    }
    if fmt == "csv":
        lines = [f"# {key}={value}" for key, value in meta.items()]
        tau_names = [f"tau{i + 1}" for i in range(scan.n_modes - 1)]
        lines.append(",".join(tau_names + [f"delta_{units}", "advantage"]))
        for row, delta, flag in zip(scan.taus, scan.deltas, scan.flags):
            cells = [fmt12(t) for t in row]
            cells.append(fmt12(delta * scale))
            cells.append("true" if flag else "false")
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode("utf-8")
    records = [
        {
            "taus": [float(fmt12(t)) for t in row],
            "delta": float(fmt12(delta * scale)),
            "advantage": bool(flag),
        }
        for row, delta, flag in zip(scan.taus, scan.deltas, scan.flags)
    ]
    return (json.dumps({"meta": meta, "records": records}, indent=2) + "\n").encode()


def parse_region_csv_literal(data):
    """CSV region text read line by line, one float() per cell; returns
    (meta, taus, deltas) with deltas in the file's units."""
    meta, header, tau_rows, delta_col = {}, None, [], []
    for line in data.decode("utf-8").splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        tau_rows.append([float(c) for c in cells[:-2]])
        delta_col.append(float(cells[-2]))
    return meta, np.array(tau_rows, dtype=float), np.array(delta_col, dtype=float)
