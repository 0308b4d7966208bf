import numpy as np
import pytest
from numpy.testing import assert_allclose

from cvdcnet.phase_space import (
    Quadrature,
    is_physical,
    symplectic_eigenvalues,
    symplectic_form,
)
from cvdcnet.resource_prep import (
    CONVENTION_FINGERPRINT,
    ResourceSpec,
    _chain_adjoint,
    alternating_pattern,
    preparation_transform,
    prepare_resource,
    three_mode_reference_cov,
)

from helpers import dense_preparation


def test_spec_validation():
    with pytest.raises(ValueError):
        ResourceSpec(1, 0.5, ())
    with pytest.raises(ValueError):
        ResourceSpec(3, 0.5, (0.5,))  # needs two transmissivities
    with pytest.raises(ValueError):
        ResourceSpec(3, 0.5, (0.5, 1.5))
    with pytest.raises(ValueError):
        ResourceSpec(3, -0.1, (0.5, 0.5))
    with pytest.raises(ValueError, match="whole number >= 2, got 2.5"):  # was cut to 2 modes
        ResourceSpec(2.5, 0.1, (0.5,))
    spec = ResourceSpec(3, 0.5, [0.1, 0.9])  # lists are fine, stored as tuple
    assert spec.taus == (0.1, 0.9)
    assert ResourceSpec(3.0, 0.5, (0.1, 0.9)) == spec and type(spec.n_modes) is int


def test_alternating_pattern_takes_a_whole_mode_count():
    with pytest.raises(ValueError, match="whole number >= 1, got 2.5"):  # was a bare TypeError
        alternating_pattern(2.5)
    with pytest.raises(ValueError, match="whole number >= 1, got 0"):
        alternating_pattern(0)
    assert alternating_pattern(3.0) == alternating_pattern(3)
    assert alternating_pattern(1).choices == (Quadrature.MOMENTUM,)


def test_alternating_pattern_phases():
    pat = alternating_pattern(5)
    assert pat.choices == (
        Quadrature.MOMENTUM,
        Quadrature.POSITION,
        Quadrature.MOMENTUM,
        Quadrature.POSITION,
        Quadrature.MOMENTUM,
    )


def test_fingerprint_is_stable():
    # serialized files embed this string; changing it invalidates samples
    assert CONVENTION_FINGERPRINT == (
        "order=q1p1..qNpN;vac=I/2;"
        "bs=[[rt(t),-rt(1-t)],[rt(1-t),rt(t)]];"
        "squeeze=p,q,p,q,...;decode=adjoint-chain,flip modes 2..N"
    )


def test_two_mode_resource_is_two_mode_squeezed_vacuum():
    r = 0.8
    st = prepare_resource(ResourceSpec(2, r, (0.5,)))
    c = 0.5 * np.cosh(2 * r)
    s = 0.5 * np.sinh(2 * r)
    expected = np.array(
        [
            [c, 0, s, 0],
            [0, c, 0, -s],
            [s, 0, c, 0],
            [0, -s, 0, c],
        ]
    )
    assert_allclose(st.covariance, expected, atol=1e-14)
    assert_allclose(st.displacement, np.zeros(4))


def test_reference_cov_limits():
    r = 0.9
    # tau1 = tau2 = 1: mode 1 decouples, keeping its squeezed shape
    ref = three_mode_reference_cov(r, 1.0, 1.0)
    assert ref[0, 0] == pytest.approx(0.5 * np.exp(2 * r), rel=1e-12)
    assert ref[1, 1] == pytest.approx(0.5 * np.exp(-2 * r), rel=1e-12)
    assert_allclose(ref[0, 2:], np.zeros(4), atol=1e-15)
    # no squeezing: vacuum
    assert_allclose(three_mode_reference_cov(0.0, 0.3, 0.7), 0.5 * np.eye(6))
    with pytest.raises(ValueError):
        three_mode_reference_cov(0.5, -0.1, 0.5)
    with pytest.raises(ValueError):
        three_mode_reference_cov(-0.5, 0.5, 0.5)


def test_prepared_state_matches_reference_sample_grid():
    for r in np.linspace(0.0, 2.0, 5):
        for t1 in np.linspace(0.0, 1.0, 5):
            for t2 in np.linspace(0.0, 1.0, 5):
                st = prepare_resource(ResourceSpec(3, r, (t1, t2)))
                ref = three_mode_reference_cov(r, t1, t2)
                assert_allclose(st.covariance, ref, atol=1e-12)


def test_resource_is_pure_and_physical():
    rng = np.random.default_rng(42)
    for n in range(2, 7):
        for _ in range(20):
            spec = ResourceSpec(
                n, float(rng.uniform(0, 2)), tuple(rng.uniform(size=n - 1))
            )
            st = prepare_resource(spec)
            assert is_physical(st)
            assert_allclose(st.displacement, np.zeros(2 * n), atol=1e-15)
            # unit-determinant symplectic on the vacuum: still pure
            nus = symplectic_eigenvalues(st.covariance)
            assert_allclose(nus, np.full(n, 0.5), atol=1e-9)


def test_preparation_transform_is_symplectic_with_unit_det():
    spec = ResourceSpec(4, 1.2, (0.3, 0.6, 0.9))
    s = preparation_transform(spec)
    j = symplectic_form(4)
    assert np.abs(s.matrix @ j @ s.matrix.T - j).max() < 1e-10
    assert np.linalg.det(s.matrix) == pytest.approx(1.0, rel=1e-9)


def test_preparation_transform_matches_dense_product():
    rng = np.random.default_rng(71)
    for n in range(2, 9):
        for _ in range(6):
            taus = rng.uniform(size=n - 1)
            taus[rng.uniform(size=n - 1) < 0.3] = 0.0
            taus[rng.uniform(size=n - 1) < 0.3] = 1.0
            r = float(rng.uniform(0.0, 2.0))
            s = preparation_transform(ResourceSpec(n, r, tuple(taus)))
            assert_allclose(s.matrix, dense_preparation(n, r, taus), rtol=0, atol=1e-13)


def test_preparation_transform_bytes_match_kron_lift():
    # the quadrature lift is np.kron(O, I_2) byte for byte, signed zeros included
    rng = np.random.default_rng(73)
    for n in range(2, 17):
        taus = rng.uniform(size=n - 1)
        taus[rng.uniform(size=n - 1) < 0.3] = 0.0
        taus[rng.uniform(size=n - 1) < 0.3] = 1.0
        spec = ResourceSpec(n, float(rng.uniform(0.0, 2.0)), tuple(taus))
        squeeze = np.full(2 * n, np.exp(spec.r))
        squeeze[alternating_pattern(n).flat_indices()] = np.exp(-spec.r)
        o = _chain_adjoint(taus).T
        expected = np.kron(o, np.eye(2)) * squeeze
        assert preparation_transform(spec).matrix.tobytes() == expected.tobytes()
