"""Preparation of the multimode entangled resource.

The resource for an N-mode network is built from N single-mode squeezed
vacua with alternating squeezed quadratures (mode 0 momentum-squeezed,
mode 1 position-squeezed, and so on), chained through N-1 beam splitters:
modes (0,1) first with transmissivity taus[0], then (1,2) with taus[1],
continuing down the line. The receiver holds the last mode.

The chain is written once, in _chain_adjoint: preparation, decoding and
the batched channel matrices all run it.

All senders share one squeezing strength r. For the three-mode family the
resulting covariance has a closed form, three_mode_reference_cov, computed
here independently of the circuit so tests can pin the sign conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_space import (
    GaussianState,
    Quadrature,
    QuadratureSelection,
    SymplecticTransform,
    apply_symplectic,
    vacuum,
)

__all__ = [
    "CONVENTION_FINGERPRINT",
    "ResourceSpec",
    "alternating_pattern",
    "preparation_transform",
    "prepare_resource",
    "three_mode_reference_cov",
]

# Stamped into every serialized output so files produced under a different
# sign convention can never be confused with ours.
CONVENTION_FINGERPRINT = (
    "order=q1p1..qNpN;vac=I/2;"
    "bs=[[rt(t),-rt(1-t)],[rt(1-t),rt(t)]];"
    "squeeze=p,q,p,q,...;decode=adjoint-chain,flip modes 2..N"
)


@dataclass(frozen=True)
class ResourceSpec:
    """Parameters of one resource state: mode count, squeezing, chain
    transmissivities (one per beam splitter, length n_modes - 1)."""

    n_modes: int
    r: float
    taus: tuple[float, ...]

    def __post_init__(self):
        n = int(self.n_modes)
        if n < 2:
            raise ValueError(f"need at least two modes, got {n}")
        taus = _validated_taus(n, self.taus)
        r = float(self.r)
        if not np.isfinite(r) or r < 0.0:
            raise ValueError(f"squeezing strength must be finite and >= 0, got {r}")
        object.__setattr__(self, "n_modes", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "taus", taus)


def alternating_pattern(n_modes: int) -> QuadratureSelection:
    """Squeezed quadrature per mode: momentum on even mode indices,
    position on odd ones."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return QuadratureSelection(
        tuple(
            Quadrature.MOMENTUM if k % 2 == 0 else Quadrature.POSITION
            for k in range(n_modes)
        )
    )


def _validated_taus(n: int, taus) -> tuple[float, ...]:
    """taus as a tuple of floats, checked: n - 1 of them, each in [0, 1]."""
    out = tuple(float(t) for t in taus)
    if len(out) != n - 1:
        raise ValueError(f"{n}-mode chain needs {n - 1} transmissivities, got {len(out)}")
    for t in out:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"transmissivity must lie in [0, 1], got {t}")
    return out


def _chain_adjoint(taus: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Apply O^T, O = BS_{n-2} ... BS_0, in place to (G, n, k) mode rows and
    return them; row block g gets the chain of taus[g], taus (G, n - 1).
    BS_k mixes modes (k, k+1) alike on q and p, so on quadratures the chain
    is O (x) I_2; its adjoint is the row update [[t, rfl], [-rfl, t]]."""
    if not np.all((taus >= 0.0) & (taus <= 1.0)):
        raise ValueError("transmissivities must lie in [0, 1]")
    ts, rfls = np.sqrt(taus)[:, :, None], np.sqrt(1.0 - taus)[:, :, None]
    for k in reversed(range(taus.shape[1])):
        t, rfl, upper, lower = ts[:, k], rfls[:, k], rows[:, k], rows[:, k + 1]
        upper[...], lower[...] = t * upper + rfl * lower, -rfl * upper + t * lower
    return rows


def preparation_transform(spec: ResourceSpec) -> SymplecticTransform:
    """Symplectic map taking the vacuum to the resource state: the
    squeezers, then the chain, S = C diag(squeeze)."""
    n = spec.n_modes
    chain = np.kron(_chain_adjoint(np.array([spec.taus]), np.eye(n)[None])[0].T, np.eye(2))
    squeeze = np.full(2 * n, np.exp(spec.r))
    squeeze[alternating_pattern(n).flat_indices()] = np.exp(-spec.r)
    return SymplecticTransform(n, chain * squeeze)


def prepare_resource(spec: ResourceSpec) -> GaussianState:
    """Squeeze the vacuum mode by mode, then run the beam-splitter chain."""
    return apply_symplectic(vacuum(spec.n_modes), preparation_transform(spec))


def three_mode_reference_cov(r: float, tau1: float, tau2: float) -> np.ndarray:
    """Closed-form covariance of the three-mode resource.

    Written out entry by entry, independent of the circuit code, as the
    calibration target for the beam-splitter reflection phase and the
    squeeze alternation. At tau1 = tau2 = 1 the first mode decouples as
    diag(e^{2r}, e^{-2r})/2; at r = 0 the whole matrix is I/2.
    """
    for name, t in (("tau1", tau1), ("tau2", tau2)):
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {t}")
    if r < 0.0:
        raise ValueError(f"squeezing strength must be >= 0, got {r}")
    e2r = np.exp(2.0 * r)
    em2r = np.exp(-2.0 * r)
    e4r_m1 = np.expm1(4.0 * r)
    s2r = np.sinh(2.0 * r)
    c2r = np.cosh(2.0 * r)

    a = 0.5 * em2r * (e4r_m1 * tau1 + 1.0)
    b = 0.5 * (em2r * tau1 + e2r * (1.0 - tau1))
    c = 0.5 * (s2r * (1.0 - 2.0 * tau1 * tau2) + c2r)
    d = 0.5 * em2r * (e4r_m1 * tau1 * tau2 + 1.0)
    e = 0.5 * (s2r * (1.0 - 2.0 * tau1 * (1.0 - tau2)) + c2r)
    f = 0.5 * em2r * (1.0 + e4r_m1 * tau1 * (1.0 - tau2))
    rr = np.sqrt(tau1 * tau2 * (1.0 - tau1)) * s2r
    ss = tau1 * np.sqrt(tau2 * (1.0 - tau2)) * s2r
    tt = np.sqrt(tau1 * (1.0 - tau1) * (1.0 - tau2)) * s2r

    return np.array(
        [
            [a, 0.0, rr, 0.0, tt, 0.0],
            [0.0, b, 0.0, -rr, 0.0, -tt],
            [rr, 0.0, c, 0.0, -ss, 0.0],
            [0.0, -rr, 0.0, d, 0.0, ss],
            [tt, 0.0, -ss, 0.0, e, 0.0],
            [0.0, -tt, 0.0, ss, 0.0, f],
        ]
    )
