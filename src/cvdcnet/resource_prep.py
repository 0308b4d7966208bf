"""Preparation of the multimode entangled resource.

The resource for an N-mode network is built from N single-mode squeezed
vacua with alternating squeezed quadratures (mode 0 momentum-squeezed,
mode 1 position-squeezed, and so on), chained through N-1 beam splitters:
modes (0,1) first with transmissivity taus[0], then (1,2) with taus[1],
continuing down the line. The receiver holds the last mode.

The chain is written once, in _chain_adjoint, for preparation and decoding.

All senders share one squeezing strength r. For the three-mode family the
resulting covariance has a closed form, three_mode_reference_cov, computed
here independently of the circuit so tests can pin the sign conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_space import (
    GaussianState,
    Quadrature,
    QuadratureSelection,
    SymplecticTransform,
    _mode_count,
    _real,
    _transmissivity,
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
        taus = _validated_taus(self.n_modes, self.taus)
        object.__setattr__(self, "n_modes", len(taus) + 1)
        object.__setattr__(self, "r", _squeezing(self.r))
        object.__setattr__(self, "taus", taus)


def alternating_pattern(n_modes: int) -> QuadratureSelection:
    """Squeezed quadrature per mode: momentum on even mode indices,
    position on odd ones."""
    return QuadratureSelection(
        tuple(
            Quadrature.MOMENTUM if k % 2 == 0 else Quadrature.POSITION
            for k in range(_mode_count(n_modes, least=1))
        )
    )


def _squeezing(r) -> float:
    """r as a float; ValueError unless it is finite and >= 0."""
    r = _real(r)
    if not 0.0 <= r < math.inf:
        raise ValueError(f"squeezing strength must be finite and >= 0, got {r}")
    return r


def _validated_taus(n, taus) -> tuple[float, ...]:
    """taus as a tuple of floats, checked: n whole and >= 2, each tau in [0, 1], n - 1 of them."""
    n, out = _mode_count(n), tuple(map(_transmissivity, taus))
    if len(out) != n - 1:
        raise ValueError(f"{n}-mode chain needs {n - 1} transmissivities, got {len(out)}")
    return out


def _chain_adjoint(taus) -> np.ndarray:
    """O^T as an n x n matrix, O = BS_{n-2} ... BS_0 for the n - 1 taus.
    BS_k mixes modes (k, k+1) alike on q and p, so on quadratures the chain
    is O (x) I_2; its adjoint is the row update [[t, rfl], [-rfl, t]]."""
    ts, rfls = np.sqrt(taus), np.sqrt(1.0 - np.asarray(taus))
    rows = np.eye(len(ts) + 1)
    for k in reversed(range(len(ts))):
        t, rfl, upper, lower = ts[k], rfls[k], rows[k], rows[k + 1]
        upper[...], lower[...] = t * upper + rfl * lower, -rfl * upper + t * lower
    return rows


def preparation_transform(spec: ResourceSpec) -> SymplecticTransform:
    """Symplectic map taking the vacuum to the resource state: the
    squeezers, then the chain, S = C diag(squeeze)."""
    n = spec.n_modes
    chain = np.kron(_chain_adjoint(spec.taus).T, np.eye(2))
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
    tau1, tau2, r = _transmissivity(tau1), _transmissivity(tau2), _squeezing(r)
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
