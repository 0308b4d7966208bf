"""Reference values and independent oracles for the benchmark's output checks.

The frozen constants and closed forms are copied from tests/helpers.py,
where they were computed by routes independent of the library. The
general-n channel oracle below rebuilds the channel Gram from the
documented beam-splitter convention with plain NumPy; nothing here calls
into cvdcnet.
"""

import numpy as np

# --- frozen reference values (tests/helpers.py) ------------------------------

TH3_BALANCED = 8.150914618279785
TH4_BALANCED = 24.867118126247078
MIN_TH3 = 5.376816293690354
MIN_TH4 = 11.451757172588259
BREAK_EVEN3 = 1.1069269162869388
BREAK_EVEN4 = 1.4333263001057863
RATIO3_R20 = 1.4681384589510356
RATIO4_R20 = 1.3069600695604664


# --- closed forms (tests/helpers.py) -----------------------------------------

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


def classical_stable(n_senders, nbar):
    x = np.asarray(nbar, dtype=float) / n_senders
    with np.errstate(divide="ignore", invalid="ignore"):
        val = n_senders * (x * np.log1p(1.0 / x) + np.log1p(x))
    return np.where(x > 0, val, 0.0)


def _excess3(nbar):
    return nbar ** (-2.0 * nbar) * (nbar + 2.0) ** (2.0 * nbar + 4.0) / 16.0


def _excess4(nbar):
    return nbar ** (-2.0 * nbar) * (nbar + 3.0) ** (2.0 * nbar + 6.0) / 729.0


# literal boundary formulas, valid for nbar <= ~75 (the powers overflow beyond)

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


# --- general-n channel oracle -------------------------------------------------

def channel_gram(n_modes, taus):
    """Gram M M^T of the n-mode channel matrix for one tau vector.

    The receiver applies the adjoint chain [[rt(t), rt(1-t)], [-rt(1-t),
    rt(t)]] per splitter (last splitter first onto the encoding columns)
    and measures each mode's squeezed quadrature. Row signs do not enter
    the Gram, so the receiver's sign flip is left out.
    """
    n = n_modes
    x = np.zeros((2 * n, n))
    x[0, 0] = x[1, 1] = np.sqrt(2.0)
    for k in range(1, n - 1):
        x[2 * k + (k % 2), k + 1] = np.sqrt(2.0)
    for k in reversed(range(n - 1)):
        t, rfl = np.sqrt(taus[k]), np.sqrt(1.0 - taus[k])
        up, lo = x[2 * k:2 * k + 2].copy(), x[2 * k + 2:2 * k + 4].copy()
        x[2 * k:2 * k + 2] = t * up + rfl * lo
        x[2 * k + 2:2 * k + 4] = -rfl * up + t * lo
    rows = [2 * k + 1 - (k % 2) for k in range(n)]
    m = x[rows]
    return m @ m.T


def quantum_capacity(n_modes, gram, nbar):
    sign, logdet = np.linalg.slogdet(
        np.eye(n_modes) + signal_gain(n_modes, nbar) * gram
    )
    return 0.5 * logdet if sign > 0 else np.nan


def advantage(n_modes, gram, nbar):
    """delta = C_quantum - C_classical at budget nbar, in nats."""
    return quantum_capacity(n_modes, gram, nbar) - float(
        classical_stable(n_modes - 1, nbar)
    )


def close(value, expected, rel, abs_tol=0.0):
    return bool(abs(value - expected) <= max(rel * abs(expected), abs_tol))
