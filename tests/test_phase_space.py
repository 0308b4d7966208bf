import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from cvdcnet.phase_space import (
    GaussianState,
    Quadrature,
    QuadratureSelection,
    SymplecticTransform,
    apply_symplectic,
    beam_splitter,
    displace,
    homodyne_moments,
    is_physical,
    marginal,
    single_mode_squeezer,
    symplectic_eigenvalues,
    symplectic_form,
    vacuum,
    wigner,
)

from helpers import random_symplectic

Q = Quadrature.POSITION
P = Quadrature.MOMENTUM


def test_symplectic_form_is_antisymmetric_square_root_of_minus_one():
    j = symplectic_form(3)
    assert j.shape == (6, 6)
    assert_allclose(j.T, -j)
    assert_allclose(j @ j, -np.eye(6))


def test_vacuum_moments():
    st_ = vacuum(2)
    assert_allclose(st_.displacement, np.zeros(4))
    assert_allclose(st_.covariance, 0.5 * np.eye(4))
    check = is_physical(st_)
    assert check
    assert check.min_symplectic_eigenvalue == pytest.approx(0.5, abs=1e-12)


def test_selection_flat_indices():
    sel = QuadratureSelection((P, Q, P))
    assert list(sel.flat_indices()) == [1, 2, 5]
    assert len(sel) == 3
    with pytest.raises(ValueError):
        QuadratureSelection(())
    with pytest.raises(TypeError):
        QuadratureSelection(("q",))


def test_state_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="displacement"):
        GaussianState(2, np.zeros(3), 0.5 * np.eye(4))
    with pytest.raises(ValueError, match="covariance"):
        GaussianState(2, np.zeros(4), 0.5 * np.eye(3))
    bad = 0.5 * np.eye(4)
    bad[0, 1] = 0.3  # not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(2, np.zeros(4), bad)
    with pytest.raises(ValueError, match="finite"):
        GaussianState(1, np.array([np.nan, 0.0]), 0.5 * np.eye(2))
    # unphysical but well-formed input is allowed; only is_physical flags it
    squeezed_too_far = GaussianState(1, np.zeros(2), 0.25 * np.eye(2))
    check = is_physical(squeezed_too_far)
    assert not check
    assert check.min_symplectic_eigenvalue == pytest.approx(0.25, abs=1e-12)


def test_transform_constructor_rejects_non_symplectic():
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticTransform(1, 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="symplectic"):
        SymplecticTransform(1, np.diag([np.e, np.e]))
    with pytest.raises(ValueError, match=r"matrix shape \(2, 2\), expected \(4, 4\)"):
        SymplecticTransform(2, np.eye(2))


def test_squeezer_at_zero_is_identity():
    s = single_mode_squeezer(2, 1, 0.0, Q)
    assert_allclose(s.matrix, np.eye(4))


def test_squeezer_shrinks_chosen_quadrature():
    r = 0.7
    st_ = apply_symplectic(vacuum(1), single_mode_squeezer(1, 0, r, P))
    assert_allclose(st_.covariance, np.diag([0.5 * np.exp(2 * r), 0.5 * np.exp(-2 * r)]))
    st_ = apply_symplectic(vacuum(1), single_mode_squeezer(1, 0, r, Q))
    assert_allclose(st_.covariance, np.diag([0.5 * np.exp(-2 * r), 0.5 * np.exp(2 * r)]))


@settings(deadline=None, max_examples=60)
@given(st.floats(-3.0, 3.0))
def test_squeezer_negative_strength_inverts(r):
    s = single_mode_squeezer(1, 0, r, P) @ single_mode_squeezer(1, 0, -r, P)
    assert_allclose(s.matrix, np.eye(2), atol=1e-12)


def test_beam_splitter_limits():
    assert_allclose(beam_splitter(2, 0, 1, 1.0).matrix, np.eye(4))
    swap = beam_splitter(2, 0, 1, 0.0).matrix
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = -1.0
    expected[2, 0] = expected[3, 1] = 1.0
    assert_allclose(swap, expected)


def test_beam_splitter_rejects_bad_arguments():
    with pytest.raises(ValueError):
        beam_splitter(2, 0, 0, 0.5)
    with pytest.raises(ValueError):
        beam_splitter(2, 0, 2, 0.5)
    with pytest.raises(ValueError):
        beam_splitter(2, 0, 1, 1.2)


def test_beam_splitter_preserves_vacuum_and_energy():
    bs = beam_splitter(2, 0, 1, 0.37)
    out = apply_symplectic(vacuum(2), bs)
    assert_allclose(out.covariance, 0.5 * np.eye(4), atol=1e-15)
    # photon number is quadrature power; an orthogonal mix must keep it
    st_ = displace(displace(vacuum(2), 0, 1.3 - 0.4j), 1, 0.2 + 0.9j)
    out = apply_symplectic(st_, bs)
    assert np.sum(out.displacement**2) == pytest.approx(
        np.sum(st_.displacement**2), rel=1e-12
    )


def test_displace_shifts_mean_only():
    st_ = displace(vacuum(2), 1, 0.75 - 1.5j)
    assert_allclose(
        st_.displacement, [0, 0, np.sqrt(2) * 0.75, -np.sqrt(2) * 1.5]
    )
    assert_allclose(st_.covariance, 0.5 * np.eye(4))
    with pytest.raises(ValueError):
        displace(vacuum(2), 2, 1.0)


def test_marginal_basics():
    rng = np.random.default_rng(11)
    s = random_symplectic(rng, 3)
    st_ = apply_symplectic(vacuum(3), s)
    st_ = displace(st_, 0, 0.3 + 0.1j)
    me = marginal(st_, [2, 0])
    assert me.n_modes == 2
    idx = [4, 5, 0, 1]
    assert_allclose(me.displacement, st_.displacement[idx])
    assert_allclose(me.covariance, st_.covariance[np.ix_(idx, idx)])
    # keeping every mode is the identity
    assert_allclose(marginal(st_, [0, 1, 2]).covariance, st_.covariance)
    with pytest.raises(ValueError):
        marginal(st_, [0, 0])
    with pytest.raises(ValueError):
        marginal(st_, [])


@settings(deadline=None, max_examples=50)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_displace_commutes_with_marginal(re, im):
    rng = np.random.default_rng(5)
    s = random_symplectic(rng, 3)
    base = apply_symplectic(vacuum(3), s)
    a = displace(marginal(base, [1]), 0, complex(re, im))
    b = marginal(displace(base, 1, complex(re, im)), [1])
    assert_allclose(a.displacement, b.displacement, atol=1e-12)
    assert_allclose(a.covariance, b.covariance, atol=1e-12)


def test_homodyne_moments_extracts_selected_rows():
    rng = np.random.default_rng(23)
    st_ = apply_symplectic(vacuum(2), random_symplectic(rng, 2))
    st_ = displace(st_, 0, 1.0 + 2.0j)
    mean, cov = homodyne_moments(st_, QuadratureSelection((P, Q)))
    assert_allclose(mean, st_.displacement[[1, 2]])
    assert_allclose(cov, st_.covariance[np.ix_([1, 2], [1, 2])])
    with pytest.raises(ValueError):
        homodyne_moments(st_, QuadratureSelection((P,)))


def test_wigner_vacuum_peak():
    assert wigner(vacuum(1), np.zeros(2)) == pytest.approx(1 / np.pi, rel=1e-12)
    assert wigner(vacuum(2), np.zeros(4)) == pytest.approx(1 / np.pi**2, rel=1e-12)
    # displacing moves the peak without changing its height
    st_ = displace(vacuum(1), 0, 1.0 + 1.0j)
    assert wigner(st_, st_.displacement) == pytest.approx(1 / np.pi, rel=1e-12)
    assert wigner(st_, np.zeros(2)) < 1 / np.pi


def test_wigner_matches_direct_gaussian():
    rng = np.random.default_rng(3)
    st_ = apply_symplectic(vacuum(2), random_symplectic(rng, 2))
    st_ = displace(st_, 1, 0.4 - 0.2j)
    x = rng.normal(size=4)
    dx = x - st_.displacement
    direct = np.exp(-0.5 * dx @ np.linalg.solve(st_.covariance, dx)) / (
        (2 * np.pi) ** 2 * np.sqrt(np.linalg.det(st_.covariance))
    )
    assert wigner(st_, x) == pytest.approx(direct, rel=1e-10)


def test_wigner_integrates_to_one():
    r = 0.5
    st_ = displace(
        apply_symplectic(vacuum(1), single_mode_squeezer(1, 0, r, P)), 0, 0.5 + 0.3j
    )
    nodes, weights = leggauss(80)
    half = 8.0
    xs = half * nodes
    w = half * weights
    grid = np.array([[wigner(st_, np.array([qv, pv])) for pv in xs] for qv in xs])
    integral = w @ grid @ w
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_wigner_rejects_singular_covariance():
    st_ = GaussianState(1, np.zeros(2), np.diag([0.5, 0.0]))
    with pytest.raises(ValueError, match="singular"):
        wigner(st_, np.zeros(2))
    with pytest.raises(ValueError):
        wigner(vacuum(1), np.zeros(4))


def test_symplectic_eigenvalues_known_cases():
    assert_allclose(symplectic_eigenvalues(0.5 * np.eye(2)), [0.5])
    assert_allclose(symplectic_eigenvalues(np.diag([2.0, 2.0])), [2.0])
    # diag(a, b) has symplectic eigenvalue sqrt(ab)
    assert_allclose(symplectic_eigenvalues(np.diag([2.0, 0.125]))[0], 0.5)
    # squeezing cannot change the spectrum
    r = 1.1
    assert_allclose(
        symplectic_eigenvalues(np.diag([0.5 * np.exp(2 * r), 0.5 * np.exp(-2 * r)])),
        [0.5],
        rtol=1e-12,
    )
    two = np.diag([0.7, 0.7, 3.0, 3.0])
    assert_allclose(symplectic_eigenvalues(two), [0.7, 3.0])
    for bad in (np.eye(3), np.ones((2, 4)), np.ones(4)):
        with pytest.raises(ValueError, match=r"is not \(2N, 2N\)"):
            symplectic_eigenvalues(bad)


def test_symplectic_eigenvalues_singular_input_uses_fallback():
    # not positive definite, so the Cholesky route cannot be used
    nus = symplectic_eigenvalues(np.diag([0.5, 0.0]))
    assert_allclose(nus, [0.0], atol=1e-12)


def test_is_physical_near_boundary():
    assert is_physical(vacuum(3))
    barely = GaussianState(1, np.zeros(2), (0.5 - 1e-12) * np.eye(2))
    assert is_physical(barely)  # inside the tolerance band
    broken = GaussianState(1, np.zeros(2), 0.4999 * np.eye(2))
    check = is_physical(broken)
    assert not check
    assert check.min_symplectic_eigenvalue == pytest.approx(0.4999, abs=1e-10)


def test_apply_symplectic_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_symplectic(vacuum(2), beam_splitter(3, 0, 1, 0.5))
    with pytest.raises(ValueError, match="mode count mismatch in composition"):
        beam_splitter(2, 0, 1, 0.5) @ beam_splitter(3, 0, 1, 0.5)
    with pytest.raises(TypeError, match="unsupported operand"):
        beam_splitter(2, 0, 1, 0.5) @ 2.0


def test_inverse_and_composition_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        s = random_symplectic(rng, n)
        assert_allclose((s @ s.inverse).matrix, np.eye(2 * n), atol=1e-9)
        assert np.linalg.det(s.matrix) == pytest.approx(1.0, abs=1e-9)


def test_random_compositions_preserve_physicality():
    rng = np.random.default_rng(1234)
    j2 = {n: symplectic_form(n) for n in (2, 3, 4)}
    for _ in range(200):
        n = int(rng.integers(2, 5))
        s = random_symplectic(rng, n)
        defect = np.abs(s.matrix @ j2[n] @ s.matrix.T - j2[n]).max()
        assert defect <= 1e-10
        out = apply_symplectic(vacuum(n), s)
        check = is_physical(out)
        assert check, f"unphysical output, nu_min={check.min_symplectic_eigenvalue}"
        # vacuum through any symplectic stays pure: every nu equals 1/2
        assert_allclose(
            symplectic_eigenvalues(out.covariance), np.full(n, 0.5), atol=1e-9
        )
