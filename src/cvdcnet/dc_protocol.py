"""Dense-coding protocol: encoding, decoding, channel, capacity.

Protocol shape for an N-mode network: N-1 senders each hold one mode of
the resource (modes 0..N-2), the receiver holds mode N-1 plus, after
transmission, every sender mode. The senders displace their modes to
carry N real message components in total: the first sender modulates both
quadratures of mode 0, each further sender modulates a single quadrature,
alternating momentum/position down the line. The receiver undoes the
beam-splitter chain and homodynes one quadrature per mode.

Because decoding inverts the preparation chain, the decoded covariance is
the product of the original single-mode squeezed vacua. Measuring each
mode's squeezed quadrature turns the protocol into a linear Gaussian
channel beta = M alpha + xi with independent noise of variance
e^{-2r}/2 on every output, for which the mutual information is

    I = (1/2) ln det(I + Sigma_noise^{-1} M Sigma_msg M^T).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError

from .phase_space import (
    GaussianState,
    Quadrature,
    SymplecticTransform,
    _frozen_array,
    _is_whole,
    _mode_count,
    _mode_index,
    _quadrature,
    _real,
    _shown,
    _symmetrized,
    apply_symplectic,
)
from .resource_prep import (
    ResourceSpec,
    _chain_adjoint,
    _squeezing,
    _validated_taus,
    alternating_pattern,
)

__all__ = [
    "EncodingPlan",
    "LinearGaussianChannel",
    "CapacityReport",
    "OptimalParams",
    "MCEstimate",
    "message_density",
    "encoding_matrix",
    "encode",
    "decoding_symplectic",
    "decode_transform",
    "decoded_quadrature_variances",
    "build_channel",
    "mutual_information",
    "mutual_information_mc",
    "photon_constraint",
    "optimal_params",
    "capacity",
    "channel_matrix_batch",
]

MC_MIN_SAMPLES = 10_000
MC_MAX_SAMPLES = 2**27  # 8 B of values per sample: at most 1 GiB
_MC_CHUNK_BYTES = 2**18  # each (chunk, k) sample array, sized to stay in cache
_TINY = float(np.finfo(float).tiny)  # a Python float, so scalar passes stay on floats


@dataclass(frozen=True)
class EncodingPlan:
    """Which (mode, quadrature) slots carry the message, and how loudly.

    components lists one slot per real message component, in message
    order. A valid plan for an n-mode network has exactly n components,
    all on sender modes 0..n-2 (the receiver's mode encodes nothing),
    with no slot used twice. sigma_msg > 0 sets the modulation scale:
    each component is drawn from a centered normal of variance
    sigma_msg^2 / 2.
    """

    n_modes: int
    sigma_msg: float
    components: tuple[tuple[int, Quadrature], ...]

    def __post_init__(self):
        n = _mode_count(self.n_modes)
        sigma = _real(self.sigma_msg)
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise ValueError(f"sigma_msg must be finite and > 0, got {sigma}")
        # the n - 1 senders hold modes 0..n-2: the receiver's mode carries no message
        comps = tuple((_mode_index(m, n - 1), _quadrature(q)) for m, q in self.components)
        if len(comps) != n:
            raise ValueError(
                f"{n}-mode plan needs exactly {n} message components, got {len(comps)}"
            )
        if len(set(comps)) != len(comps):
            raise ValueError("a (mode, quadrature) slot is used twice")
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "sigma_msg", sigma)
        object.__setattr__(self, "components", comps)

    @classmethod
    def standard(cls, n_modes: int, sigma_msg: float) -> "EncodingPlan":
        """The canonical plan: mode 0 carries both quadratures, mode k
        (1 <= k <= n-2) carries momentum for odd k, position for even k."""
        comps = [(0, Quadrature.POSITION), (0, Quadrature.MOMENTUM)]
        for k in range(1, _mode_count(n_modes) - 1):
            comps.append((k, Quadrature.MOMENTUM if k % 2 else Quadrature.POSITION))
        return cls(n_modes, sigma_msg, tuple(comps))


def message_density(plan: EncodingPlan, alpha) -> float:
    """Probability density of a message vector under the plan's prior.

    The prior is an isotropic centered normal with variance
    sigma_msg^2 / 2 per component:
    p(alpha) = (pi sigma^2)^(-n/2) exp(-|alpha|^2 / sigma^2).
    """
    a = np.asarray(alpha, dtype=float)
    n = len(plan.components)
    if a.shape != (n,):
        raise ValueError(f"message shape {a.shape}, expected ({n},)")
    var = plan.sigma_msg**2
    return float(np.exp(-np.dot(a, a) / var) / (np.pi * var) ** (n / 2))


def encoding_matrix(plan: EncodingPlan) -> np.ndarray:
    """Map message components to displacement shifts: one column per
    component, carrying sqrt(2) at the targeted flat quadrature index."""
    n = plan.n_modes
    e = np.zeros((2 * n, len(plan.components)))
    for col, (m, q) in enumerate(plan.components):
        e[2 * m + (q is Quadrature.MOMENTUM), col] = np.sqrt(2.0)
    return e


def encode(state: GaussianState, plan: EncodingPlan, alpha) -> GaussianState:
    """Displace the sender modes to imprint a message vector.

    Equivalent to one displace() per component with amplitude alpha_j
    (real for position slots, imaginary for momentum slots); the
    covariance is untouched.
    """
    if state.n_modes != plan.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes, plan expects {plan.n_modes}"
        )
    a = np.asarray(alpha, dtype=float)
    if a.shape != (len(plan.components),):
        raise ValueError(f"message shape {a.shape}, expected ({len(plan.components)},)")
    return GaussianState(
        state.n_modes,
        state.displacement + encoding_matrix(plan) @ a,
        state.covariance,
    )


def decoding_symplectic(n_modes: int, taus: Sequence[float]) -> SymplecticTransform:
    """The receiver's transform: adjoint beam-splitter chain, then a sign
    flip of both quadratures on modes 1..n-1.

    The chain adjoint alone inverts the preparation network; the extra
    flip (a pi phase-space rotation, i.e. the receiver's choice of local
    oscillator phase per mode) aligns the measured quadratures so every
    message component appears with a positive coefficient. It negates
    whole rows of the channel matrix, so capacities do not depend on it.
    """
    s = np.kron(_chain_adjoint(_validated_taus(n_modes, taus)), np.eye(2))
    s[2:, :] *= -1.0
    return SymplecticTransform(n_modes, s)


def decode_transform(state: GaussianState, taus: Sequence[float]) -> GaussianState:
    """Run the receiver's decoding network on a state."""
    return apply_symplectic(state, decoding_symplectic(state.n_modes, taus))


def decoded_quadrature_variances(n_modes: int, r: float) -> np.ndarray:
    """Diagonal of the decoded resource covariance, exactly.

    Decoding inverts the chain, so the decoded resource is the original
    product of squeezed vacua: variance e^{-2r}/2 on each mode's squeezed
    quadrature (alternating pattern), e^{2r}/2 on its conjugate. Computed
    in closed form because the numerically decoded covariance loses the
    small variances to e^{2r}-scale cancellation once r >~ 15.
    """
    n_modes, r = _mode_count(n_modes, least=1), _squeezing(r)
    v = np.full(2 * n_modes, 0.5 * np.exp(2.0 * r))
    v[alternating_pattern(n_modes).flat_indices()] = 0.5 * np.exp(-2.0 * r)
    return v


@dataclass(frozen=True)
class LinearGaussianChannel:
    """beta = matrix @ alpha + xi with xi ~ N(0, noise_cov) and the prior
    alpha ~ N(0, msg_cov)."""

    matrix: np.ndarray
    noise_cov: np.ndarray
    msg_cov: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("channel matrix must be 2-d")
        n_out, n_msg = m.shape
        noise = np.asarray(self.noise_cov, dtype=float)
        msg = np.asarray(self.msg_cov, dtype=float)
        if not all(np.isfinite(x).all() for x in (m, noise, msg)):
            raise ValueError("channel matrix and covariances must be finite")
        if noise.shape != (n_out, n_out):
            raise ValueError(f"noise_cov shape {noise.shape}, expected {(n_out, n_out)}")
        if msg.shape != (n_msg, n_msg):
            raise ValueError(f"msg_cov shape {msg.shape}, expected {(n_msg, n_msg)}")
        noise = _symmetrized(noise, "noise_cov")
        msg = _symmetrized(msg, "msg_cov")
        try:
            np.linalg.cholesky(noise)
        except LinAlgError as exc:
            raise ValueError("noise_cov must be positive definite") from exc
        if np.linalg.eigvalsh(msg).min() < -1e-12:
            raise ValueError("msg_cov must be positive semidefinite")
        object.__setattr__(self, "matrix", _frozen_array(m))
        object.__setattr__(self, "noise_cov", _frozen_array(noise))
        object.__setattr__(self, "msg_cov", _frozen_array(msg))

    @property
    def n_outputs(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_messages(self) -> int:
        return self.matrix.shape[1]


def build_channel(spec: ResourceSpec, plan: EncodingPlan) -> LinearGaussianChannel:
    """Assemble the end-to-end channel for a resource and encoding plan.

    The receiver homodynes the alternating pattern (the squeezed quadratures)
    at every r, r = 0 included: the matrix rows are those rows of
    S_decode @ E, the noise covariance their decoded variances.
    """
    if plan.n_modes != spec.n_modes:
        raise ValueError(
            f"plan expects {plan.n_modes} modes, resource has {spec.n_modes}"
        )
    rows = alternating_pattern(spec.n_modes).flat_indices()
    sdec = decoding_symplectic(spec.n_modes, spec.taus)
    m = (sdec.matrix @ encoding_matrix(plan))[rows, :]
    noise_cov = np.diag(decoded_quadrature_variances(spec.n_modes, spec.r)[rows])
    msg_cov = (plan.sigma_msg**2 / 2.0) * np.eye(len(plan.components))
    return LinearGaussianChannel(m, noise_cov, msg_cov)


def mutual_information(channel: LinearGaussianChannel) -> float:
    """Shannon mutual information of the channel in nats.

    I = (1/2) sum ln(1 + s^2) over the singular values s of L^{-1} M L_msg,
    with noise_cov = L L^T and msg_cov = L_msg L_msg^T: the whitened factor keeps
    its small singular values even when noise and signal differ by many orders
    of magnitude, or the channel is singular. Zero message power gives exactly 0.
    """
    k = np.linalg.solve(np.linalg.cholesky(channel.noise_cov), channel.matrix)
    lam, vecs = np.linalg.eigh(channel.msg_cov)
    s = np.linalg.svd(k @ (vecs * np.sqrt(np.clip(lam, 0.0, None))), compute_uv=False)
    info = 0.5 * float(np.sum(np.log1p(s**2)))
    if not np.isfinite(info):  # the whitened product overflowed
        raise ArithmeticError(f"information overflows: singular values up to {s.max():g}")
    return info


class MCEstimate(NamedTuple):
    """Monte Carlo estimate with its standard error (both in nats)."""

    estimate: float
    std_error: float


def _check_sample_count(n_samples) -> int:
    """n_samples as an int; ValueError unless it is a whole number in
    [MC_MIN_SAMPLES, MC_MAX_SAMPLES], an int past the float range included."""
    if not (_is_whole(n_samples) and n_samples >= MC_MIN_SAMPLES):
        raise ValueError(f"samples must be a whole number >= {MC_MIN_SAMPLES}, "
                         f"got {_shown(n_samples)}")
    if n_samples > MC_MAX_SAMPLES:
        tenths, rest = divmod(80 * int(n_samples), 2**30)  # GiB / 10 in ints, past any float
        gib = _shown(tenths // 10)
        gib += f".{tenths % 10}" if gib.isdecimal() else " of"  # or "a 16583-bit int of GiB"
        raise ValueError(
            f"{_shown(n_samples)} samples exceed the cap of {MC_MAX_SAMPLES}: at 8 B a sample, "
            f"their values would take {'over ' if rest else ''}{gib} GiB"
        )
    return int(n_samples)


def _check_seed(seed) -> int:
    """seed as an int; ValueError unless it is a whole number in [0, 2^64)."""
    if not (_is_whole(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be a whole number in [0, 2^64), got {_shown(seed)}")
    return int(seed)


def _row_sums(sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.sum(sq, axis=1, out=out), bit for bit, without a NumPy loop call per row."""
    if sq.shape[1] >= 8:  # NumPy's 8-way pairwise rule; rows this long pay for their call
        return np.sum(sq, axis=1, out=out)
    np.copyto(out, sq[:, 0])  # under 8 values NumPy adds a row left to right, as these passes do
    for column in sq.T[1:]:
        out += column
    return out


def mutual_information_mc(
    channel: LinearGaussianChannel, n_samples: int, seed: int
) -> MCEstimate:
    """Estimate the mutual information by direct sampling.

    Averages ln p(beta|alpha) - ln p(beta) over joint draws. The draw
    order is fixed (all messages first, then all noise, one PCG64 stream
    seeded with `seed`) so results are reproducible bit for bit across
    runs for the same channel, sample count and seed. A one-worker thread
    pool, shut down before the call ends, redraws the messages to reach the
    noise and works out the noise side a chunk ahead of the caller's message
    side; its errors are raised here, and an error or interrupt here cancels
    it.

    Samples are processed in chunks whose arrays fit _MC_CHUNK_BYTES, so
    memory is 8 bytes per sample (the per-sample values, kept for the
    standard error, which is worked out in them in place) plus a few fixed chunks.
    A sample count out of [MC_MIN_SAMPLES, MC_MAX_SAMPLES] (1 GiB of values) or a seed
    out of [0, 2^64), or either not whole, raises ValueError before any work or thread.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging, 8 ms: MC calls alone pay it
    n_samples, seed = _check_sample_count(n_samples), _check_seed(seed)
    try:
        msg_chol = np.linalg.cholesky(channel.msg_cov)
    except LinAlgError as exc:
        raise ValueError("msg_cov must be positive definite to sample from") from exc
    noise_chol = np.linalg.cholesky(channel.noise_cov)
    marg_cov = channel.noise_cov + channel.matrix @ channel.msg_cov @ channel.matrix.T
    marg_chol = np.linalg.cholesky(marg_cov)
    log_det_ratio = float(np.sum(np.log(np.diag(marg_chol) / np.diag(noise_chol))))
    # beta = M L_msg z + L_noise w whitened: L_marg^-1 beta = A z + B w, solved once
    ab = np.linalg.solve(marg_chol, np.hstack([channel.matrix @ msg_chol, noise_chol]))
    a_t, b_t = ab[:, : channel.n_messages].T, ab[:, channel.n_messages :].T

    # One chunk shape for every step, the last one included (its tail rows are
    # stale and dropped), so each sample meets the same BLAS kernels as in one
    # whole-array pass and the values match it bit for bit.
    width = max(channel.n_messages, channel.n_outputs)
    chunk = min(n_samples, max(1, _MC_CHUNK_BYTES // (8 * width)))
    spans = [(start, min(chunk, n_samples - start)) for start in range(0, n_samples, chunk)]
    # The noise follows all n_samples x n_messages message normals in the stream. On the
    # pool's one worker, its generator skips past them, then yields chunk after chunk of
    # white_noise @ b_t and squared norms (_row_sums); fills, BLAS and ufuncs drop the GIL.
    cancel = threading.Event()

    def noise_side():
        rng, white_noise = np.random.default_rng(seed), np.empty((chunk, channel.n_outputs))
        skip = np.empty((chunk, channel.n_messages))
        for _, m in spans:
            if cancel.is_set():
                return
            rng.standard_normal(out=skip[:m])
        for _, m in spans:
            rng.standard_normal(out=white_noise[:m])
            yield white_noise @ b_t, _row_sums(white_noise**2, np.empty(chunk))

    noise, pool = noise_side(), ThreadPoolExecutor(1, "mutual_information_mc noise")
    try:
        ahead = pool.submit(next, noise, None)  # one chunk ahead of the caller's
        msg_rng, z = np.random.default_rng(seed), np.empty((chunk, channel.n_messages))
        values, marg_sq = np.empty(n_samples), np.empty(chunk)
        for start, m in spans:
            msg_rng.standard_normal(out=z[:m])
            signal = z @ a_t
            noise_b, noise_sq = ahead.result()  # a worker error is raised here
            ahead = pool.submit(next, noise, None)  # None past the last chunk
            white_marg = signal + noise_b
            # ln p(beta|alpha) - ln p(beta), Gaussian densities with shared 2 pi factors
            quad = 0.5 * (_row_sums(white_marg**2, marg_sq) - noise_sq)
            values[start : start + m] = (quad + log_det_ratio)[:m]
    finally:  # stop a skip at its next chunk, drop a task not yet begun, join the worker
        cancel.set()
        pool.shutdown(cancel_futures=True)
    # np.mean, then np.std(ddof=1)'s own steps done in place: the same values bit for bit
    mean = np.mean(values)
    values -= mean
    np.square(values, out=values)
    std_error = np.sqrt(np.sum(values) / (n_samples - 1)) / np.sqrt(n_samples)
    return MCEstimate(float(mean), float(std_error))


def photon_constraint(n_modes: int, r: float, sigma_msg_sq: float) -> float:
    """Mean photon number spent by the senders:

        nbar = (n-1) sinh^2(r) + (n/2) sigma_msg_sq.

    Each of the n-1 sender modes carries sinh^2(r) squeezing photons;
    the n message components add sigma_msg_sq / 2 displacement photons
    apiece on average.
    """
    n_modes, r, sigma_msg_sq = _mode_count(n_modes, scalar=True), _squeezing(r), _real(sigma_msg_sq)
    if not 0.0 <= sigma_msg_sq < math.inf:
        raise ValueError(f"sigma_msg_sq must be finite and >= 0, got {sigma_msg_sq}")
    return float((n_modes - 1) * np.sinh(r) ** 2 + n_modes * sigma_msg_sq / 2.0)


class OptimalParams(NamedTuple):
    """Capacity-achieving squeezing and modulation variance."""

    r: float
    sigma_msg_sq: float


def _budget(nbar) -> float:
    """nbar as a float; ValueError unless it is finite and >= 0."""
    nbar = _real(nbar)
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    return nbar


def optimal_params(n_modes: int, nbar: float) -> OptimalParams:
    """Capacity-achieving (r, sigma_msg^2) under the photon budget nbar.

    r = (1/2) ln(1 + 2 nbar / (n-1)) and
    sigma^2 = (n-1) sinh(2r) / n; photon_constraint round-trips to nbar. Past
    nbar ~ 8.99e307, 2 nbar itself overflows: r = inf and sigma^2 = NaN.
    """
    n_modes, nbar = _mode_count(n_modes, scalar=True), _budget(nbar)
    x = 2.0 * nbar / (n_modes - 1)
    r = 0.5 * np.log1p(x)
    sinh_2r = x * (2.0 + x) / (2.0 * (1.0 + x))
    if not sinh_2r < math.inf:  # x (2 + x) overflows past x ~ 1.3e154, sinh 2r does not
        sinh_2r = 0.5 * x * ((2.0 + x) / (1.0 + x))
    return OptimalParams(float(r), float((n_modes - 1) * sinh_2r / n_modes))


@dataclass(frozen=True)
class CapacityReport:
    """Capacity of one network configuration, with the classical benchmark
    at the same photon budget and their difference delta (all in nats)."""

    n_modes: int
    taus: tuple[float, ...]
    nbar: float
    r: float
    sigma_msg_sq: float
    c_quantum: float
    c_classical: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "taus", _validated_taus(self.n_modes, self.taus))
        object.__setattr__(self, "n_modes", len(self.taus) + 1)  # an int, as capacity gives
        for name in ("nbar", "r", "sigma_msg_sq", "c_quantum", "c_classical", "delta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.c_quantum < 0 or self.c_classical < 0:
            raise ValueError("capacities cannot be negative")


def capacity(n_modes: int, taus: Sequence[float], nbar: float) -> CapacityReport:
    """Network capacity at photon budget nbar with optimal (r, sigma^2).

    C_q = (1/2) ln det(I + g M M^T) of the standard-plan channel, g = e^{2r}
    sigma^2 in closed form, from one O(n) transfer pass down the chain that
    builds no matrix; the classical benchmark rides along in the report.
    """
    taus = _validated_taus(n_modes, taus)
    n_modes, nbar = len(taus) + 1, _budget(nbar)
    r, sigma_sq = optimal_params(n_modes, nbar)
    c_q = max(0.0, float(_quantum_rates(taus, nbar)))
    c_cl = float(_classical_rates(n_modes - 1, nbar))
    report = object.__new__(CapacityReport)  # every field is checked above: no __post_init__
    report.__dict__.update(n_modes=n_modes, taus=taus, nbar=nbar, r=r, sigma_msg_sq=sigma_sq,
                           c_quantum=c_q, c_classical=c_cl, delta=c_q - c_cl)
    return report


def channel_matrix_batch(n_modes: int, taus_grid) -> np.ndarray:
    """(G, n_modes, n_modes) channel matrices for a (G, n_modes - 1) grid of taus: row g
    is the matrix of build_channel(ResourceSpec(n_modes, r, taus_grid[g]), standard plan)."""
    taus = np.asarray(taus_grid, dtype=float)
    if taus.ndim != 2 or taus.shape[1] != n_modes - 1:
        raise ValueError(f"taus_grid shape {taus.shape}, expected (G, {n_modes - 1})")
    plan = EncodingPlan.standard(n_modes, 1.0)  # sigma is irrelevant
    matrices = [build_channel(ResourceSpec(n_modes, 1.0, row), plan).matrix for row in taus]
    return np.array(matrices).reshape(len(taus), n_modes, n_modes)


def _log_transfer(taus, v, u):
    """ln P(v), where det(I + g M M^T) = x^n P(1/x), for n - 1 taus that are floats or
    (C,) columns, v = 1/x and u = 1 - v = 2g/x.

    P = P_p P_q (README, Numerical notes): per parity block, (e, f) = (mode k + 1
    empty, full) runs from (1, 0) down the chain by [[r, 0], [t v, 1]] where mode k is
    a slot, else by [[1, t], [0, r]], which keeps e + f. BS_0 is each block's first slot
    step. A slot step renormalizes its input to e + f = 1 and loses y = t u e of it, so
    1 - P = d, with d <- d + y (1 - d), to full relative accuracy: ln P = log1p(-d)
    where P > 1/2. v = 0 gives ln P(0) = ln c_n, c_n = tau_1 (1 - tau_1) prod_{k>=2} (1 - tau_k):
    the r of each slot step. That is ln 0 on a cut chain, which threshold_energy refuses first."""
    t1 = taus[0]
    log_p, d = 0.0, 0.0  # ln P and 1 - P so far
    for block, (t, r) in enumerate(((1.0 - t1, t1), (t1, 1.0 - t1))):  # BS_0 in the p, q block
        e, f = r, t * v  # BS_0, the block's first slot step, from (1, 0)
        d = d + t * u * (1.0 - d)
        for k in range(1, len(taus)):
            t = taus[k]
            r = 1.0 - t
            if (k + 1) % 2 == block:  # mode k is a slot: a fermion leaving it exits
                norm = e + f + _TINY  # > 0 at v = 0 too
                e, f = e / norm, f / norm
                y = t * u * e
                log_p, d = log_p + np.log(norm), d + y * (1.0 - d)
                e, f = r * e, f + t * v * e
            else:  # mode k + 1 starts empty, mode k is no slot
                e, f = e + t * f, r * f
        log_p = log_p + np.log(e + f)
    return np.where(d < 0.5, np.log1p(-np.minimum(d, 0.5)), log_p)


def _quantum_rates(taus, nbar: float):
    """C_q = (1/2) (n ln x + ln P(1/x)) at one budget per point of _log_transfer's taus,
    g = e^{2r} sigma^2 at the optimal working point. Exactly 0 at nbar = 0 (P = 1, no
    deficit); an overflowing gain (nbar beyond ~1e154) raises ValueError before the
    kernel runs."""
    n, nbar = len(taus) + 1, float(nbar)
    gain = 2.0 * nbar * (nbar + n - 1) / ((n - 1) * n)
    x = 1.0 + 2.0 * gain
    if not math.isfinite(x):
        raise ValueError(f"photon budget {nbar:g} overflows the determinant")
    return 0.5 * (n * math.log1p(2.0 * gain) + _log_transfer(taus, 1.0 / x, 2.0 * gain / x))


def _classical_rates(n_senders: int, nbar):
    """C_cl = n_senders [x log1p(1/x) + log1p(x)], x = nbar / n_senders, for checked budgets;
    0 at nbar = 0. Below x = 1e-300, where 1/x overflows and x loses digits, it is nbar (1 +
    ln(n_senders / nbar)) to O(x), taken from nbar itself: finite up to 8.9e284 senders."""
    x = nbar / n_senders
    tiny = x < 1e-300  # mixed as 0 or 1: from x = 1e-300 up, the first form's terms bit for bit
    a = np.log1p(tiny * (1e-300 * n_senders / (nbar + 1e-300 * (nbar == 0)) - 1.0)
                 + (1.0 - tiny) / (x + tiny))  # ln(1e-300 / x) where tiny, else log1p(1/x)
    return ((1.0 - tiny) * n_senders * (x * a + np.log1p(x))
            + tiny * nbar * (a + 691.7755278982137))  # 1 - ln(1e-300)
