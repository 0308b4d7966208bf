"""Gaussian phase-space primitives: states, symplectic maps, measurements.

Conventions used throughout the package:

* quadrature ordering (q1, p1, q2, p2, ..., qN, pN)
* hbar = 1, so the vacuum covariance is I/2
* displacing mode k by a complex amplitude a shifts
  <q_k> by sqrt(2) Re(a) and <p_k> by sqrt(2) Im(a)

A state is physical iff every symplectic eigenvalue of its covariance is
at least 1/2 (up to PHYSICALITY_TOL). The GaussianState constructor checks
only shape and symmetry so that candidate matrices can be built and then
interrogated with is_physical; operations in this package preserve
physicality, they do not re-check it.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.linalg import LinAlgError

__all__ = [
    "SYMMETRY_ATOL",
    "SYMPLECTIC_ATOL",
    "PHYSICALITY_TOL",
    "Quadrature",
    "QuadratureSelection",
    "GaussianState",
    "SymplecticTransform",
    "PhysicalityCheck",
    "symplectic_form",
    "vacuum",
    "apply_symplectic",
    "single_mode_squeezer",
    "beam_splitter",
    "displace",
    "marginal",
    "homodyne_moments",
    "wigner",
    "symplectic_eigenvalues",
    "is_physical",
]

SYMMETRY_ATOL = 1e-12        # covariance symmetry check, relative to largest entry
SYMPLECTIC_ATOL = 1e-10      # entrywise tolerance on S J S^T = J
PHYSICALITY_TOL = 1e-10      # slack below the vacuum bound 1/2


class Quadrature(enum.Enum):
    """Which quadrature of a mode is meant (position q or momentum p)."""

    POSITION = "q"
    MOMENTUM = "p"


def _frozen_array(values) -> np.ndarray:
    """A read-only float copy; the caller's array stays writeable."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _real(value) -> float:
    """value as a float; an int past the float range as the infinity of its sign."""
    try:
        return float(value)
    except OverflowError:  # that int's rule then refuses the infinity with its own text
        return np.inf if value > 0 else -np.inf


def _shown(value) -> str:
    """value as a rule's text shows it: an int too long for str() by its bit length."""
    try:
        return str(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"{'a negative' if value < 0 else 'a'} {value.bit_length()}-bit int"


def _is_whole(value) -> bool:
    """Whether value is a whole number, an int past the float range included."""
    return isinstance(value, int) or float(value).is_integer()


def _mode_count(n_modes, least: int = 2) -> int:
    """n_modes as an int; ValueError unless it is a whole number >= least that a float holds."""
    if not (_is_whole(n_modes) and n_modes >= least):
        raise ValueError(f"the mode count must be a whole number >= {least}, got {_shown(n_modes)}")
    if n_modes > sys.float_info.max:  # an int: mode counts take part in float arithmetic
        raise ValueError(f"the mode count has {n_modes.bit_length()} bits, past the float range")
    return int(n_modes)


def _mode_index(m, n_modes: int) -> int:
    """m as an int; ValueError unless it is one of the modes 0..n_modes - 1."""
    if not (_is_whole(m) and 0 <= m < n_modes):
        raise ValueError(f"the mode index must be one of the modes 0..{n_modes - 1}, "
                         f"got {_shown(m)}")
    return int(m)


def _quadrature(q) -> Quadrature:
    """q; TypeError unless it is a Quadrature."""
    if not isinstance(q, Quadrature):
        raise TypeError(f"not a Quadrature: {q!r}")
    return q


def _transmissivity(tau) -> float:
    """tau as a float; ValueError unless it lies in [0, 1]."""
    tau = _real(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {tau}")
    return tau


def _symmetrized(c: np.ndarray, name: str) -> np.ndarray:
    """(c + c^T)/2, after checking that c is symmetric to SYMMETRY_ATOL
    relative to its largest entry."""
    scale = max(1.0, float(np.abs(c).max()))
    if np.abs(c - c.T).max() > SYMMETRY_ATOL * scale:
        raise ValueError(f"{name} is not symmetric")
    return (c + c.T) / 2.0


@dataclass(frozen=True)
class QuadratureSelection:
    """One quadrature choice per mode, e.g. for a homodyne measurement."""

    choices: tuple[Quadrature, ...]

    def __post_init__(self):
        choices = tuple(map(_quadrature, self.choices))
        if not choices:
            raise ValueError("selection must cover at least one mode")
        object.__setattr__(self, "choices", choices)

    def __len__(self) -> int:
        return len(self.choices)

    def flat_indices(self) -> np.ndarray:
        """Index of each chosen quadrature in the flat (q1, p1, ...) layout."""
        return np.array(
            [2 * k + (c is Quadrature.MOMENTUM) for k, c in enumerate(self.choices)],
            dtype=int,
        )


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of an N-mode Gaussian state.

    displacement has length 2N, covariance is a symmetric 2N x 2N matrix,
    both in (q1, p1, ...) ordering. The covariance is symmetrized on input
    after the symmetry check, so downstream algebra sees an exactly
    symmetric matrix.
    """

    n_modes: int
    displacement: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        n = _mode_count(self.n_modes, least=1)
        d = np.asarray(self.displacement, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if d.shape != (2 * n,):
            raise ValueError(f"displacement shape {d.shape}, expected ({2 * n},)")
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"covariance shape {cov.shape}, expected ({2 * n}, {2 * n})")
        if not np.all(np.isfinite(d)) or not np.all(np.isfinite(cov)):
            raise ValueError("moments must be finite")
        cov = _symmetrized(cov, "covariance")
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "displacement", _frozen_array(d))
        object.__setattr__(self, "covariance", _frozen_array(cov))


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear map of the quadratures preserving the symplectic form.

    The constructor verifies S J S^T = J entrywise to SYMPLECTIC_ATOL.
    Composition: (A @ B) acts as B first, then A, matching matrix order.
    """

    n_modes: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _mode_count(self.n_modes, least=1)
        s = np.asarray(self.matrix, dtype=float)
        if s.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {s.shape}, expected ({2 * n}, {2 * n})")
        j = symplectic_form(n)
        defect = np.abs(s @ j @ s.T - j).max()
        if not np.isfinite(defect) or defect > SYMPLECTIC_ATOL:
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "matrix", _frozen_array(s))

    @property
    def inverse(self) -> "SymplecticTransform":
        # S^-1 = -J S^T J, cheaper and better conditioned than a solve
        j = symplectic_form(self.n_modes)
        return SymplecticTransform(self.n_modes, -j @ self.matrix.T @ j)

    def __matmul__(self, other: "SymplecticTransform") -> "SymplecticTransform":
        if not isinstance(other, SymplecticTransform):
            return NotImplemented
        if other.n_modes != self.n_modes:
            raise ValueError("mode count mismatch in composition")
        return SymplecticTransform(self.n_modes, self.matrix @ other.matrix)


class PhysicalityCheck(NamedTuple):
    """Result of an uncertainty-principle check; truthy iff the state passes."""

    ok: bool
    min_symplectic_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal J = diag([[0, 1], [-1, 0]], ...) for n_modes modes."""
    n_modes = _mode_count(n_modes, least=1)
    j = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


def vacuum(n_modes: int) -> GaussianState:
    """The n_modes-mode vacuum: zero mean, covariance I/2."""
    n_modes = _mode_count(n_modes, least=1)
    return GaussianState(
        n_modes, np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes)
    )


def apply_symplectic(state: GaussianState, transform: SymplecticTransform) -> GaussianState:
    """Map (d, sigma) -> (S d, S sigma S^T)."""
    if state.n_modes != transform.n_modes:
        raise ValueError("state and transform act on different mode counts")
    s = transform.matrix
    return GaussianState(state.n_modes, s @ state.displacement, s @ state.covariance @ s.T)


def single_mode_squeezer(
    n_modes: int, mode_index: int, r: float, squeezed_quadrature: Quadrature
) -> SymplecticTransform:
    """Squeezer on one mode, identity elsewhere.

    The squeezed quadrature's standard deviation shrinks by e^{-r} and its
    conjugate grows by e^{r}. Negative r is allowed and reverses the roles,
    so squeezer(r) @ squeezer(-r) is the identity.
    """
    n_modes = _mode_count(n_modes, least=1)
    squeezed = 2 * _mode_index(mode_index, n_modes)
    squeezed += _quadrature(squeezed_quadrature) is Quadrature.MOMENTUM
    diag = np.ones(2 * n_modes)
    diag[squeezed] = np.exp(-r)
    diag[squeezed ^ 1] = np.exp(r)  # the conjugate quadrature of the same mode
    return SymplecticTransform(n_modes, np.diag(diag))


def beam_splitter(n_modes: int, mode_i: int, mode_j: int, tau: float) -> SymplecticTransform:
    """Beam splitter of transmissivity tau between two modes.

    Acting on the (q_i, p_i, q_j, p_j) sub-block:

        [ sqrt(tau) I    -sqrt(1-tau) I ]
        [ sqrt(1-tau) I   sqrt(tau) I   ]

    tau = 1 is the identity; tau = 0 swaps the modes with one sign flip.
    The reflection phase is part of the package's calibrated convention
    (see resource_prep.CONVENTION_FINGERPRINT) and must not be changed
    independently of the resource-preparation and decoding code.
    """
    n_modes, tau = _mode_count(n_modes, least=1), _transmissivity(tau)
    mode_i, mode_j = _mode_index(mode_i, n_modes), _mode_index(mode_j, n_modes)
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    t = np.sqrt(tau)
    rfl = np.sqrt(1.0 - tau)
    s = np.eye(2 * n_modes)
    for off in (0, 1):
        a = 2 * mode_i + off
        b = 2 * mode_j + off
        s[a, a] = t
        s[a, b] = -rfl
        s[b, a] = rfl
        s[b, b] = t
    return SymplecticTransform(n_modes, s)


def displace(state: GaussianState, mode_index: int, alpha: complex) -> GaussianState:
    """Displace one mode by a complex amplitude.

    <q> shifts by sqrt(2) Re(alpha), <p> by sqrt(2) Im(alpha); the
    covariance is untouched.
    """
    mode_index, a = _mode_index(mode_index, state.n_modes), complex(alpha)
    d = np.array(state.displacement)
    d[2 * mode_index] += np.sqrt(2.0) * a.real
    d[2 * mode_index + 1] += np.sqrt(2.0) * a.imag
    return GaussianState(state.n_modes, d, state.covariance)


def marginal(state: GaussianState, kept_modes: Sequence[int]) -> GaussianState:
    """Reduced state on kept_modes (in the order given)."""
    kept = [_mode_index(m, state.n_modes) for m in kept_modes]
    if not kept:
        raise ValueError("must keep at least one mode")
    if len(set(kept)) != len(kept):
        raise ValueError("kept_modes contains duplicates")
    idx = np.array([2 * m + off for m in kept for off in (0, 1)], dtype=int)
    return GaussianState(
        len(kept),
        state.displacement[idx],
        state.covariance[np.ix_(idx, idx)],
    )


def homodyne_moments(
    state: GaussianState, selection: QuadratureSelection
) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance of one chosen quadrature per mode.

    Returns (mean, cov) of shape (n,) and (n, n) where n = state.n_modes.
    """
    if len(selection) != state.n_modes:
        raise ValueError(
            f"selection covers {len(selection)} modes, state has {state.n_modes}"
        )
    idx = selection.flat_indices()
    return state.displacement[idx], state.covariance[np.ix_(idx, idx)]


def wigner(state: GaussianState, point) -> float:
    """Wigner quasi-probability density at a phase-space point.

    For a Gaussian state this is the normalized Gaussian density

        exp(-(x - d)^T sigma^-1 (x - d) / 2) / ((2 pi)^N sqrt(det sigma)),

    which integrates to 1 and equals 1/pi at the origin for the
    single-mode vacuum. A singular covariance is an error; no
    regularization is applied on the caller's behalf.
    """
    x = np.asarray(point, dtype=float)
    if x.shape != (2 * state.n_modes,):
        raise ValueError(f"point shape {x.shape}, expected ({2 * state.n_modes},)")
    try:
        chol = np.linalg.cholesky(state.covariance)
    except LinAlgError as exc:
        raise ValueError(
            "covariance is singular or not positive definite; "
            "the Wigner density is not defined pointwise for it"
        ) from exc
    resid = np.linalg.solve(chol, x - state.displacement)
    log_norm = (
        -state.n_modes * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(chol)))
    )
    return float(np.exp(log_norm - 0.5 * resid @ resid))


def symplectic_eigenvalues(covariance) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, ascending.

    Uses the Cholesky route (singular values of L^T J L for sigma = L L^T),
    which is cheap and stable for positive-definite input; falls back to
    |Im eig(J sigma)| when the Cholesky factorization fails.
    """
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
        raise ValueError(f"covariance shape {cov.shape} is not (2N, 2N)")
    n = cov.shape[0] // 2
    j = symplectic_form(n)
    sym = (cov + cov.T) / 2.0
    try:
        chol = np.linalg.cholesky(sym)
        sv = np.linalg.svd(chol.T @ j @ chol, compute_uv=False)
        return np.sort(sv)[1::2]
    except LinAlgError:
        ev = np.linalg.eigvals(j @ sym)
        return np.sort(np.abs(ev.imag))[1::2]


def is_physical(state: GaussianState) -> PhysicalityCheck:
    """Check the uncertainty bound: every symplectic eigenvalue >= 1/2.

    Truthy result means physical. The minimum symplectic eigenvalue is
    reported either way so callers can see how close the state sits to
    the boundary.
    """
    nu_min = float(symplectic_eigenvalues(state.covariance)[0])
    return PhysicalityCheck(nu_min >= 0.5 - PHYSICALITY_TOL, nu_min)
