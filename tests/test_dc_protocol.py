import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from cvdcnet import dc_protocol
from cvdcnet.dc_protocol import (
    _MC_CHUNK_BYTES,
    MC_MAX_SAMPLES,
    MC_MIN_SAMPLES,
    EncodingPlan,
    LinearGaussianChannel,
    _quantum_rates,
    build_channel,
    capacity,
    channel_matrix_batch,
    decode_transform,
    decoded_quadrature_variances,
    decoding_symplectic,
    encode,
    encoding_matrix,
    message_density,
    mutual_information,
    mutual_information_mc,
    optimal_params,
    photon_constraint,
)
from cvdcnet.phase_space import Quadrature, displace, symplectic_form
from cvdcnet.resource_prep import (
    ResourceSpec,
    _chain_adjoint,
    prepare_resource,
    preparation_transform,
)

from helpers import (
    CAP3_BALANCED_815,
    CAP3_SINGULAR_1E12,
    CAP4_SINGULAR_1E8,
    CAP7_SINGULAR_1E8,
    CLASSICAL_2_815,
    ORDERING_CROSSOVER3,
    capacity_mp,
    capacity3_balanced_closed,
    capacity3_closed,
    capacity4_balanced_closed,
    capacity4_closed,
    capacity4_mixed_closed,
    decoded_mean_three,
    decoded_measured_mean_four,
    dense_decoding,
    exit_log_weights,
    log_det_from_exit_weights,
    mutual_information_mc_literal,
    signal_gain,
)

Q = Quadrature.POSITION
P = Quadrature.MOMENTUM


# --- encoding -----------------------------------------------------------------

def test_standard_plan_layout():
    plan3 = EncodingPlan.standard(3, 1.0)
    assert plan3.components == ((0, Q), (0, P), (1, P))
    plan4 = EncodingPlan.standard(4, 1.0)
    assert plan4.components == ((0, Q), (0, P), (1, P), (2, Q))
    plan5 = EncodingPlan.standard(5, 1.0)
    assert plan5.components == ((0, Q), (0, P), (1, P), (2, Q), (3, P))


def test_plan_validation():
    with pytest.raises(ValueError, match="sigma_msg"):
        EncodingPlan.standard(3, 0.0)
    with pytest.raises(ValueError, match="components"):
        EncodingPlan(3, 1.0, ((0, Q), (0, P)))  # one short
    with pytest.raises(ValueError, match="modes 0..1"):
        EncodingPlan(3, 1.0, ((0, Q), (0, P), (2, P)))  # receiver mode used
    with pytest.raises(ValueError, match="twice"):
        EncodingPlan(3, 1.0, ((0, Q), (0, Q), (1, P)))


def test_message_density_matches_gaussian_and_normalizes():
    plan = EncodingPlan.standard(3, 1.4)
    var = plan.sigma_msg**2 / 2  # per-component variance
    a = np.array([0.3, -0.9, 0.5])
    direct = np.prod(np.exp(-a**2 / (2 * var)) / np.sqrt(2 * np.pi * var))
    assert message_density(plan, a) == pytest.approx(direct, rel=1e-12)
    # integrates to 1 over a generous box
    nodes, weights = leggauss(48)
    half = 6.0 * plan.sigma_msg
    xs, w = half * nodes, half * weights
    total = sum(
        w[i] * w[j] * w[k] * message_density(plan, np.array([xs[i], xs[j], xs[k]]))
        for i in range(48)
        for j in range(48)
        for k in range(48)
    )
    assert total == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        message_density(plan, np.zeros(2))


def test_encoding_matrix_three_modes():
    e = encoding_matrix(EncodingPlan.standard(3, 2.0))
    expected = np.zeros((6, 3))
    expected[0, 0] = expected[1, 1] = expected[3, 2] = np.sqrt(2)
    assert_allclose(e, expected)


def test_encode_equals_repeated_displacements():
    rng = np.random.default_rng(8)
    st = prepare_resource(ResourceSpec(4, 0.9, (0.2, 0.5, 0.8)))
    plan = EncodingPlan.standard(4, 1.0)
    a = rng.normal(size=4)
    direct = encode(st, plan, a)
    # same thing built from the single-mode displacement primitive
    via_displace = displace(st, 0, complex(a[0], a[1]))
    via_displace = displace(via_displace, 1, complex(0.0, a[2]))
    via_displace = displace(via_displace, 2, complex(a[3], 0.0))
    assert_allclose(direct.displacement, via_displace.displacement, atol=1e-14)
    assert_allclose(direct.covariance, st.covariance)
    with pytest.raises(ValueError):
        encode(st, EncodingPlan.standard(3, 1.0), np.zeros(3))


# --- decoding -----------------------------------------------------------------

def test_decoding_inverts_chain_up_to_sign_flip():
    taus = (0.35, 0.75)
    sdec = decoding_symplectic(3, taus)
    chain = preparation_transform(ResourceSpec(3, 0.0, taus))  # r=0: chain only
    product = sdec.matrix @ chain.matrix
    flip = np.diag([1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    assert_allclose(product, flip, atol=1e-12)


def test_decoding_symplectic_matches_dense_product():
    rng = np.random.default_rng(72)
    for n in range(2, 9):
        for _ in range(6):
            taus = rng.uniform(size=n - 1)
            taus[rng.uniform(size=n - 1) < 0.3] = 0.0
            taus[rng.uniform(size=n - 1) < 0.3] = 1.0
            s = decoding_symplectic(n, tuple(taus))
            assert_allclose(s.matrix, dense_decoding(n, taus), rtol=0, atol=1e-14)


def test_decoding_symplectic_bytes_match_kron_lift():
    # the quadrature lift is np.kron(O^T, I_2) byte for byte, signed zeros included
    rng = np.random.default_rng(74)
    for n in range(2, 17):
        taus = rng.uniform(size=n - 1)
        taus[rng.uniform(size=n - 1) < 0.3] = 0.0
        taus[rng.uniform(size=n - 1) < 0.3] = 1.0
        expected = np.kron(_chain_adjoint(taus[None], np.eye(n)[None])[0], np.eye(2))
        expected[2:, :] *= -1.0
        assert decoding_symplectic(n, tuple(taus)).matrix.tobytes() == expected.tobytes()


def test_decoded_displacement_three_modes_sign_exact():
    rng = np.random.default_rng(21)
    for _ in range(10):
        t1, t2 = rng.uniform(size=2)
        a = rng.normal(size=3)
        st = prepare_resource(ResourceSpec(3, 0.9, (t1, t2)))
        out = decode_transform(encode(st, EncodingPlan.standard(3, 1.0), a), (t1, t2))
        assert_allclose(out.displacement, decoded_mean_three(a, t1, t2), atol=1e-12)


def test_decoded_displacement_four_modes_measured_rows():
    rng = np.random.default_rng(22)
    for _ in range(10):
        t1, t2, t3 = rng.uniform(size=3)
        a = rng.normal(size=4)
        st = prepare_resource(ResourceSpec(4, 0.7, (t1, t2, t3)))
        out = decode_transform(
            encode(st, EncodingPlan.standard(4, 1.0), a), (t1, t2, t3)
        )
        measured = out.displacement[[1, 2, 5, 6]]  # p1, q2, p3, q4
        assert_allclose(measured, decoded_measured_mean_four(a, t1, t2, t3), atol=1e-12)


def test_decoded_covariance_is_diagonal_and_message_independent():
    rng = np.random.default_rng(14)
    for n in (3, 4):
        taus = tuple(rng.uniform(size=n - 1))
        r = 1.1
        st = prepare_resource(ResourceSpec(n, r, taus))
        plain = decode_transform(st, taus)
        expected = np.diag(decoded_quadrature_variances(n, r))
        assert_allclose(plain.covariance, expected, atol=1e-12)
        for _ in range(5):
            a = rng.normal(size=n, scale=3.0)
            enc = decode_transform(encode(st, EncodingPlan.standard(n, 2.0), a), taus)
            assert_allclose(enc.covariance, expected, atol=1e-12)


# --- channel ------------------------------------------------------------------

def test_channel_matrix_three_modes_closed_form():
    t1, t2 = 0.37, 0.81
    r = 0.9
    ch = build_channel(ResourceSpec(3, r, (t1, t2)), EncodingPlan.standard(3, 1.1))
    expected = np.array(
        [
            [0, np.sqrt(2 * t1), np.sqrt(2 * t2 * (1 - t1))],
            [np.sqrt(2 * (1 - t1)), 0, 0],
            [0, 0, np.sqrt(2 * (1 - t2))],
        ]
    )
    assert_allclose(ch.matrix, expected, atol=1e-14)
    assert_allclose(ch.noise_cov, 0.5 * np.exp(-2 * r) * np.eye(3), atol=1e-15)
    assert_allclose(ch.msg_cov, (1.1**2 / 2) * np.eye(3))


def test_channel_matrix_four_modes_closed_form():
    t1, t2, t3 = 0.45, 0.3, 0.7
    ch = build_channel(ResourceSpec(4, 0.8, (t1, t2, t3)), EncodingPlan.standard(4, 1.0))
    expected = np.array(
        [
            [0, np.sqrt(2 * t1), np.sqrt(2 * t2 * (1 - t1)), 0],
            [np.sqrt(2 * (1 - t1)), 0, 0, -np.sqrt(2 * t1 * t3 * (1 - t2))],
            [0, 0, np.sqrt(2 * (1 - t2)), 0],
            [0, 0, 0, np.sqrt(2 * (1 - t3))],
        ]
    )
    assert_allclose(ch.matrix, expected, atol=1e-14)


def test_channel_validation():
    with pytest.raises(ValueError, match="positive definite"):
        LinearGaussianChannel(np.eye(2), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="noise_cov shape"):
        LinearGaussianChannel(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        LinearGaussianChannel(np.eye(2), np.eye(2), -np.eye(2))
    lopsided = np.array([[1.0, 1e-9], [0.0, 1.0]])
    with pytest.raises(ValueError, match="noise_cov is not symmetric"):
        LinearGaussianChannel(np.eye(2), lopsided, np.eye(2))
    with pytest.raises(ValueError, match="msg_cov is not symmetric"):
        LinearGaussianChannel(np.eye(2), np.eye(2), lopsided)
    within_tol = LinearGaussianChannel(np.eye(2), np.eye(2) + 1e-13 * lopsided, np.eye(2))
    assert np.array_equal(within_tol.noise_cov, within_tol.noise_cov.T)
    with pytest.raises(ValueError, match="modes"):
        build_channel(
            ResourceSpec(3, 0.5, (0.5, 0.5)), EncodingPlan.standard(4, 1.0)
        )


def test_channel_matrix_batch_agrees_with_single_builds():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        taus_grid = rng.uniform(size=(40, n - 1))
        batch = channel_matrix_batch(n, taus_grid)
        for row in rng.choice(40, size=8, replace=False):
            ch = build_channel(
                ResourceSpec(n, 0.6, tuple(taus_grid[row])),
                EncodingPlan.standard(n, 1.0),
            )
            assert_allclose(batch[row], ch.matrix, atol=1e-13)


def test_chain_rejects_out_of_range_and_nan_transmissivities():
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError, match="lie in"):
            channel_matrix_batch(3, [[0.5, bad]])
        with pytest.raises(ValueError, match="lie in"):
            decoding_symplectic(3, (bad, 0.5))
        with pytest.raises(ValueError, match="lie in"):
            capacity(3, (0.5, bad), 5.0)


# --- information --------------------------------------------------------------

def test_mutual_information_closed_form_three_modes():
    rng = np.random.default_rng(40)
    for _ in range(300):
        t1, t2 = rng.uniform(size=2)
        r = rng.uniform(0.01, 2.0)
        sigma = rng.uniform(0.05, 3.0)
        ch = build_channel(ResourceSpec(3, r, (t1, t2)), EncodingPlan.standard(3, sigma))
        gain = np.exp(2 * r) * sigma**2
        expected = 0.5 * np.log(
            (1 + 2 * gain)
            * (1 + 2 * gain * (1 - t1))
            * (1 + 2 * gain * t1 * (1 - t2))
        )
        assert mutual_information(ch) == pytest.approx(expected, rel=1e-10)


def test_mutual_information_vanishing_message_power():
    m = np.array([[1.0, 0.5], [0.0, 2.0]])
    ch = LinearGaussianChannel(m, 0.3 * np.eye(2), np.zeros((2, 2)))
    assert mutual_information(ch) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["matrix", "noise_cov", "msg_cov"])
def test_channel_rejects_non_finite_entries(field, bad):
    args = {"matrix": np.eye(2), "noise_cov": np.eye(2), "msg_cov": np.eye(2)}
    args[field] = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        LinearGaussianChannel(**args)


@pytest.mark.parametrize("m", [[[1e200, 1e200], [1e200, -1e200]], [[1e200, 0.0], [0.0, 1.0]]])
def test_mutual_information_raises_when_the_determinant_overflows(m):
    # the whitened product overflows to nan (which max(0.0, .) would read as
    # 0.0) or to inf: neither is the information of this finite channel
    ch = LinearGaussianChannel(m, np.eye(2), np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ArithmeticError):
        mutual_information(ch)


def test_mc_estimate_within_three_sigma_and_reproducible():
    rng = np.random.default_rng(50)
    for _ in range(3):
        n = int(rng.integers(3, 5))
        taus = tuple(rng.uniform(0.1, 0.9, size=n - 1))
        r = float(rng.uniform(0.2, 1.2))
        sigma = float(rng.uniform(0.5, 2.0))
        ch = build_channel(ResourceSpec(n, r, taus), EncodingPlan.standard(n, sigma))
        truth = mutual_information(ch)
        est = mutual_information_mc(ch, 100_000, seed=99)
        assert abs(est.estimate - truth) <= 3 * est.std_error
        assert est.std_error < 0.05
        again = mutual_information_mc(ch, 100_000, seed=99)
        assert again.estimate == est.estimate  # same stream, same value
        other = mutual_information_mc(ch, 100_000, seed=100)
        assert other.estimate != est.estimate


@pytest.mark.parametrize("n, nbar", [(3, 1e4), (4, 1e6), (4, 1e10), (5, 1e12), (6, 1e14)])
def test_mc_estimate_at_high_squeezing(n, nbar):
    # the optimal working point, r from 4.6 up to 15.7: the measured noise
    # variances e^{-2r}/2 sit up to 27 orders of magnitude below the signal's
    r, sigma_sq = optimal_params(n, nbar)
    spec = ResourceSpec(n, r, (0.5,) * (n - 1))
    ch = build_channel(spec, EncodingPlan.standard(n, np.sqrt(sigma_sq)))
    est = mutual_information_mc(ch, 200_000, seed=61)
    assert abs(est.estimate - mutual_information(ch)) <= 5 * est.std_error


def test_mc_rejects_small_sample_counts():
    ch = build_channel(ResourceSpec(3, 0.5, (0.5, 0.5)), EncodingPlan.standard(3, 1.0))
    with pytest.raises(ValueError, match="samples"):
        mutual_information_mc(ch, 9_999, seed=0)


def _mc_sample_counts(width):
    """10,000, the first chunk boundary at or above the minimum count, one
    sample past it, and a count that ends on a short chunk."""
    chunk = _MC_CHUNK_BYTES // (8 * width)
    aligned = chunk * -(-MC_MIN_SAMPLES // chunk)
    return (MC_MIN_SAMPLES, aligned, aligned + 1, 100_003)


def test_mc_matches_whole_array_pass_bit_for_bit():
    rng = np.random.default_rng(51)
    channels = []
    for n in range(2, 7):
        taus = tuple(rng.uniform(0.05, 0.95, size=n - 1))
        spec = ResourceSpec(n, float(rng.uniform(0.1, 1.5)), taus)
        channels.append(build_channel(spec, EncodingPlan.standard(n, float(rng.uniform(0.3, 2.0)))))
    # rectangular, with correlated noise and correlated messages
    a, b = rng.normal(size=(4, 4)), rng.normal(size=(3, 3))
    channels.append(
        LinearGaussianChannel(rng.normal(size=(4, 3)), a @ a.T + 0.1 * np.eye(4),
                              b @ b.T + 0.2 * np.eye(3))
    )
    for ch in channels:
        for n_samples in _mc_sample_counts(max(ch.matrix.shape)):
            seed = int(rng.integers(2**32))
            got = mutual_information_mc(ch, n_samples, seed)
            want = mutual_information_mc_literal(ch, n_samples, seed)
            assert got.estimate == want.estimate, (ch.matrix.shape, n_samples)
            assert got.std_error == want.std_error, (ch.matrix.shape, n_samples)


def test_mc_memory_is_eight_bytes_per_sample_plus_a_chunk():
    # one 1e6-sample call at n = 5: the whole-array pass peaks near 216 MB
    ch = build_channel(ResourceSpec(5, 0.7, (0.5, 0.3, 0.6, 0.2)), EncodingPlan.standard(5, 1.3))
    tracemalloc.start()
    try:
        mutual_information_mc(ch, 1_000_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 1_000_000, f"peak {peak / 1e6:.1f} MB"


def test_mc_rejects_sample_counts_over_the_cap_before_any_work(monkeypatch):
    assert 8 * MC_MAX_SAMPLES <= 2**30  # the per-sample values fit 1 GiB

    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples past the cap")

    monkeypatch.setattr(dc_protocol.np.random, "default_rng", no_draws)
    ch = build_channel(ResourceSpec(3, 0.5, (0.5, 0.5)), EncodingPlan.standard(3, 1.0))
    with pytest.raises(ValueError, match=rf"{MC_MAX_SAMPLES + 1} samples exceed .* GiB"):
        mutual_information_mc(ch, MC_MAX_SAMPLES + 1, seed=0)


# --- working point ------------------------------------------------------------

def test_photon_constraint_and_optimal_params_round_trip():
    for n in range(2, 7):
        for nbar in (0.0, 0.3, 1.0, 8.15, 120.0, 1e4):
            r, sig_sq = optimal_params(n, nbar)
            assert photon_constraint(n, r, sig_sq) == pytest.approx(
                nbar, rel=1e-12, abs=1e-12
            )


def test_optimal_params_known_relations():
    n, nbar = 3, 5.0
    r, sig_sq = optimal_params(n, nbar)
    assert np.exp(2 * r) == pytest.approx(1 + 2 * nbar / (n - 1), rel=1e-12)
    assert sig_sq == pytest.approx((n - 1) * np.sinh(2 * r) / n, rel=1e-12)
    # the channel gain collapses to a polynomial in nbar
    assert np.exp(2 * r) * sig_sq == pytest.approx(signal_gain(n, nbar), rel=1e-12)
    with pytest.raises(ValueError):
        optimal_params(3, -1.0)
    with pytest.raises(ValueError):
        photon_constraint(3, -0.5, 1.0)


# --- capacity -----------------------------------------------------------------

def test_capacity_report_three_mode_balanced_frozen_point():
    rep = capacity(3, (0.5, 0.5), 8.15)
    assert rep.c_quantum == pytest.approx(CAP3_BALANCED_815, rel=1e-12)
    assert rep.c_classical == pytest.approx(CLASSICAL_2_815, rel=1e-12)
    assert rep.delta == pytest.approx(rep.c_quantum - rep.c_classical, abs=1e-15)
    assert rep.delta == pytest.approx(-9.0594203e-05, abs=1e-9)
    assert rep.n_modes == 3 and rep.taus == (0.5, 0.5) and rep.nbar == 8.15


def test_capacity_zero_budget_is_zero():
    rep = capacity(3, (0.5, 0.5), 0.0)
    assert rep.c_quantum == 0.0
    assert rep.c_classical == 0.0
    assert rep.r == 0.0 and rep.sigma_msg_sq == 0.0


def test_capacity_matches_dense_channel_information():
    # capacity's exit-count kernel against mutual_information of the channel
    # that build_channel assembles at the optimal (r, sigma^2)
    rng = np.random.default_rng(73)
    for n in range(2, 33):
        taus = rng.uniform(size=n - 1)
        taus[rng.uniform(size=n - 1) < 0.2] = 0.0
        taus[rng.uniform(size=n - 1) < 0.2] = 1.0
        inner = rng.uniform(0.05, 0.95, size=n - 1)  # full-rank Gram for r = 20
        r20_budget = (n - 1) * np.expm1(40.0) / 2.0
        cases = [(taus, nbar) for nbar in np.logspace(-1, 4, 6)] + [(inner, r20_budget)]
        for t, nbar in cases:
            r, sigma_sq = optimal_params(n, nbar)
            ch = build_channel(
                ResourceSpec(n, r, tuple(t)), EncodingPlan.standard(n, np.sqrt(sigma_sq))
            )
            assert capacity(n, tuple(t), nbar).c_quantum == pytest.approx(
                mutual_information(ch), rel=1e-10
            )
        # nbar = 0: no squeezing and no message power, so both are exactly 0
        assert optimal_params(n, 0.0) == (0.0, 0.0)
        ch = build_channel(ResourceSpec(n, 0.0, tuple(taus)), EncodingPlan.standard(n, 1.0))
        silent = LinearGaussianChannel(ch.matrix, ch.noise_cov, np.zeros((n, n)))
        assert mutual_information(silent) == 0.0
        assert capacity(n, tuple(taus), 0.0).c_quantum == 0.0


def test_unsqueezed_channel_homodynes_the_alternating_pattern():
    # at r = 0 both quadratures of a mode have variance 1/2; the receiver still
    # measures the alternating pattern, so I = (1/2) ln sum_j c_j (1 + 2 sigma^2)^j
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for taus in ((0.5,) * (n - 1), tuple(rng.uniform(size=n - 1))):
            for sigma in (0.3, 1.0, 2.5):
                plan = EncodingPlan.standard(n, sigma)
                info = mutual_information(build_channel(ResourceSpec(n, 0.0, taus), plan))
                terms = exit_log_weights(n, np.array([taus]))[:, 0] + np.arange(n + 1) * np.log1p(
                    2.0 * sigma**2
                )
                assert info == pytest.approx(0.5 * np.logaddexp.reduce(terms), rel=1e-12)
                # continuous in r: dI/dr = O(n), so r = 1e-12 moves I by about 1e-12 n
                near = build_channel(ResourceSpec(n, 1e-12, taus), plan)
                assert info == pytest.approx(mutual_information(near), rel=1e-10)
    balanced = build_channel(ResourceSpec(4, 0.0, (0.5,) * 3), EncodingPlan.standard(4, 1.0))
    assert mutual_information(balanced) == pytest.approx(1.475498, abs=1e-6)


def test_capacity_matches_closed_forms_on_random_grid():
    rng = np.random.default_rng(60)
    for _ in range(150):
        nbar = float(rng.uniform(0.05, 50.0))
        t1, t2 = rng.uniform(size=2)
        assert capacity(3, (t1, t2), nbar).c_quantum == pytest.approx(
            capacity3_closed(t1, t2, nbar), rel=1e-10
        )
        t1, t2, t3 = rng.uniform(size=3)
        assert capacity(4, (t1, t2, t3), nbar).c_quantum == pytest.approx(
            capacity4_closed(t1, t2, t3, nbar), rel=1e-10
        )


def test_capacity_special_configurations():
    for nbar in np.linspace(0.2, 60.0, 25):
        assert capacity(3, (0.5, 0.5), nbar).c_quantum == pytest.approx(
            capacity3_balanced_closed(nbar), rel=1e-11
        )
        assert capacity(4, (0.5, 0.5, 0.5), nbar).c_quantum == pytest.approx(
            capacity4_balanced_closed(nbar), rel=1e-11
        )
        assert capacity(4, (1 / 3, 1 / 4, 4 / 5), nbar).c_quantum == pytest.approx(
            capacity4_mixed_closed(nbar), rel=1e-11
        )


def test_capacity_increases_with_budget():
    grid = np.linspace(0.5, 60.0, 30)
    for taus, n in (((0.5, 0.5), 3), ((0.2, 0.7), 3), ((0.5, 0.5, 0.5), 4)):
        values = [capacity(n, taus, nb).c_quantum for nb in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_capacity_rejects_budgets_that_overflow():
    # the signal gain overflows near nbar ~ 1e154; C_q used to read 0.0 past it
    assert capacity(3, (0.5, 0.5), 1e150).c_quantum > 1000.0
    with pytest.raises(ValueError, match="1e\\+160 overflows"):
        capacity(3, (0.5, 0.5), 1e160)


@pytest.mark.parametrize(
    "n_modes, taus, nbar, expected",
    [
        (4, (1.0, 0.0, 0.25), 1e8, CAP4_SINGULAR_1E8),
        (7, (0.0, 0.25, 0.0, 0.25, 1.0, 0.25), 1e8, CAP7_SINGULAR_1E8),
        (3, (0.0, 0.5), 1e12, CAP3_SINGULAR_1E12),
    ],
)
def test_capacity_exact_for_singular_chains_at_large_budgets(n_modes, taus, nbar, expected):
    assert capacity(n_modes, taus, nbar).c_quantum == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "n_modes, taus, nbar",
    [
        (4, (1.0, 0.0, 0.25), 1e8),
        (7, (0.0, 0.25, 0.0, 0.25, 1.0, 0.25), 1e8),
        (3, (0.0, 0.5), 1e12),
    ],
)
def test_mutual_information_exact_on_singular_channels(n_modes, taus, nbar):
    # singular chains at large budgets: a log-det of I + K Sigma K^T loses their
    # small singular values (53.7014, 86.1114, and a zero determinant on the third)
    r, sigma_sq = optimal_params(n_modes, nbar)
    channel = build_channel(
        ResourceSpec(n_modes, r, taus), EncodingPlan.standard(n_modes, np.sqrt(sigma_sq))
    )
    assert mutual_information(channel) == pytest.approx(
        capacity(n_modes, taus, nbar).c_quantum, rel=1e-12
    )


def test_capacity_matches_60_digit_chain_for_2_to_64_modes():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2064)
    cases = [(n, nbar) for n in range(2, 13) for nbar in (0.37, 40.0, 1e12)]
    cases += [(24, 7.0), (24, 1e8), (40, 1e4), (64, 0.37), (64, 1e12)]
    for n, nbar in cases:
        taus = rng.uniform(size=n - 1)
        taus[rng.uniform(size=n - 1) < 0.3] = 0.0
        taus[rng.uniform(size=n - 1) < 0.3] = 1.0
        with mp.workdps(60):
            expected = capacity_mp(mp, n, taus, nbar)
        got = capacity(n, tuple(taus), nbar).c_quantum
        assert abs(got - expected) <= 1e-12 * expected, (n, nbar, tuple(taus))


def _dense_log_det(n, taus, gain):
    m = build_channel(ResourceSpec(n, 1.0, tuple(taus)), EncodingPlan.standard(n, 1.0)).matrix
    sign, log_det = np.linalg.slogdet(np.eye(n) + gain * m @ m.T)
    assert sign > 0
    return log_det


def test_exit_weights_are_a_distribution_that_gives_the_dense_determinant():
    rng = np.random.default_rng(412)
    for n in range(2, 13):
        taus = rng.uniform(size=(6, n - 1))
        taus[rng.uniform(size=taus.shape) < 0.25] = 0.0
        taus[rng.uniform(size=taus.shape) < 0.25] = 1.0
        weights = np.exp(exit_log_weights(n, taus))
        assert weights.shape == (n + 1, 6)
        assert (weights >= 0.0).all()
        assert_allclose(weights.sum(axis=0), 1.0, rtol=1e-14)
        for gain in (1e-3, 0.5, 30.0, 1e3):
            exits = np.arange(n + 1)[:, None]
            log_dets = np.log(np.sum(weights * (1.0 + 2.0 * gain) ** exits, axis=0))
            for row, log_det in zip(taus, log_dets):
                assert abs(log_det - _dense_log_det(n, row, gain)) <= 1e-12  # det to 1e-12 rel


def test_transfer_kernel_is_the_exit_weight_sum_at_one_x():
    # C_q = (1/2) ln det from the O(n) transfer kernel against (1/2) ln sum_j c_j x^j
    # from the O(n^2) exit-weight recursion, and its slope (E[j]/2) d ln x/d ln nbar
    # against the mean exit count E[j] under the weights c_j x^j
    rng = np.random.default_rng(1940)
    for n in range(2, 41):
        taus = rng.uniform(size=(6, n - 1))
        taus[rng.uniform(size=taus.shape) < 0.2] = 0.0
        taus[rng.uniform(size=taus.shape) < 0.2] = 1.0
        log_weights = exit_log_weights(n, taus)
        exits = np.arange(n + 1)[:, None]
        for target in (1e-3, 0.02, 0.5, 3.0, 70.0, 1e4, 1e8, 1e12):  # gains
            nbar = 0.5 * (np.sqrt((n - 1) ** 2 + 2.0 * target * (n - 1) * n) - (n - 1))
            gain = signal_gain(n, nbar)
            half, slope = _quantum_rates(taus.T, nbar, slope=True)
            assert_allclose(2.0 * half, log_det_from_exit_weights(log_weights, gain),
                            rtol=1e-14, atol=0.0)
            terms = log_weights + exits * np.log1p(2.0 * gain)
            mean_exits = np.sum(exits * np.exp(terms - np.logaddexp.reduce(terms)), axis=0)
            rate = 4.0 * nbar * (2.0 * nbar + n - 1) / ((n - 1) * n * (1.0 + 2.0 * gain))
            assert_allclose(slope, 0.5 * mean_exits * rate, rtol=1e-12, atol=0.0)
            for row, batched in zip(taus, half):  # one point, on Python floats
                one = _quantum_rates(tuple(float(t) for t in row), nbar)
                assert abs(one - batched) <= 1e-15 * batched, (n, target, tuple(row))


def test_capacity_of_a_cut_64_mode_chain_matches_60_digits():
    # a tail splitter at 1 cuts the chain, so c_n = P(0) = 0: ln P(v) runs to -inf
    # as v -> 0, and an overflowing gain (v = 0) must still raise, with no warning
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(6415)
    for nbar in (1e12, 1e15):
        taus = rng.uniform(size=63)
        taus[1 + rng.choice(62, size=24, replace=False)] = 1.0
        with mp.workdps(60):
            expected = capacity_mp(mp, 64, taus, nbar)
        got = capacity(64, tuple(taus), nbar).c_quantum
        assert abs(got - expected) <= 1e-12 * expected, (nbar, tuple(taus))
        assert capacity(64, tuple(taus), 0.0).c_quantum == 0.0
        with pytest.raises(ValueError, match="overflows the determinant"):
            capacity(64, tuple(taus), 1e160)


def test_parity_blocks_split_the_channel_and_are_affine_in_each_tau():
    # M has nonzeros only where a p-measuring (even) mode meets a p-carried
    # slot or a q-measuring (odd) mode meets a q-carried slot
    rng = np.random.default_rng(97)
    gain = 1.7
    for n in range(2, 9):
        plan = EncodingPlan.standard(n, 1.0)
        p_cols = [c for c, (_, q) in enumerate(plan.components) if q is P]
        q_cols = [c for c, (_, q) in enumerate(plan.components) if q is Q]

        def block_dets(taus):
            m = build_channel(ResourceSpec(n, 1.0, tuple(taus)), plan).matrix
            assert not m[0::2][:, q_cols].any() and not m[1::2][:, p_cols].any()
            blocks = (m[0::2][:, p_cols], m[1::2][:, q_cols])
            return np.array([np.linalg.det(np.eye(len(b)) + gain * b @ b.T) for b in blocks])

        taus = rng.uniform(size=n - 1)
        for k in range(n - 1):
            ends = []
            for t in (0.0, 1.0):
                taus[k] = t
                ends.append(block_dets(taus))
            for t in rng.uniform(size=3):
                taus[k] = t
                assert_allclose(block_dets(taus), (1 - t) * ends[0] + t * ends[1], rtol=1e-12)


def test_capacity_symmetric_in_tau1_when_suffix_zero():
    for nbar in (2.0, 7.0, 20.0):
        for t1 in (0.1, 0.3, 0.45):
            a = capacity(3, (t1, 0.0), nbar).c_quantum
            b = capacity(3, (1 - t1, 0.0), nbar).c_quantum
            assert a == pytest.approx(b, rel=1e-12)


def test_balanced_beats_unbalanced_above_crossover():
    # the balanced chain wins only beyond a known budget; below it the
    # ordering genuinely reverses, so both sides are asserted
    for nbar in np.linspace(2.2, 50.0, 25):
        assert (
            capacity(3, (0.5, 0.5), nbar).c_quantum
            > capacity(3, (1 / 3, 0.5), nbar).c_quantum
        )
    for nbar in (0.5, 1.0, 1.5, 2.0):
        assert nbar < ORDERING_CROSSOVER3
        assert (
            capacity(3, (0.5, 0.5), nbar).c_quantum
            < capacity(3, (1 / 3, 0.5), nbar).c_quantum
        )


def test_four_mode_balanced_beats_mixed_everywhere():
    for nbar in np.linspace(0.05, 50.0, 40):
        assert (
            capacity(4, (0.5, 0.5, 0.5), nbar).c_quantum
            > capacity(4, (1 / 3, 1 / 4, 4 / 5), nbar).c_quantum
        )


def test_decoding_transform_is_symplectic():
    for n in (2, 3, 4, 6):
        taus = tuple(np.linspace(0.2, 0.8, n - 1))
        s = decoding_symplectic(n, taus)
        j = symplectic_form(n)
        assert np.abs(s.matrix @ j @ s.matrix.T - j).max() < 1e-10
