from fractions import Fraction

import numpy as np
import pytest

from crossover_dropout import matrix_kernels as mk
from crossover_dropout.dropout_model import load_mechanism, new_mechanism
from crossover_dropout.errors import ValidationError

from _oracles import SingularCovarianceError, surrogate_kernel, type_h_identity_check


def random_mechanism(rng, p=None, n=None, allow_first=False):
    p = p or int(rng.integers(2, 7))
    n = n or int(rng.integers(2, 25))
    a = rng.dirichlet(np.ones(p))
    if not allow_first:
        a[0] = 0.0
        a = a / a.sum()
    return new_mechanism(p, n, a)


def test_complete_experiment_coefficients():
    mech = new_mechanism(4, 8, (0, 0, 0, 1))
    assert mech.m == 4
    assert mech.alpha[3] == 1.0 and mech.beta[3] == 1.0
    assert all(mech.alpha[k - 1] == 0.0 and mech.beta[k - 1] == 0.0 for k in (1, 2, 3))


def test_half_half_mechanism_m():
    mech = new_mechanism(4, 16, (0, 0, 0.5, 0.5))
    assert mech.m == 3


def test_invalid_probability_vectors():
    with pytest.raises(ValidationError):
        new_mechanism(4, 4, (0.5, 0.6, -0.1, 0.0))
    with pytest.raises(ValidationError):
        new_mechanism(4, 4, (0.3, 0.3, 0.3, 0.3))
    with pytest.raises(ValidationError):
        new_mechanism(3, 4, (0.5, 0.5))
    with pytest.raises(ValidationError):
        new_mechanism(1, 4, (1.0,))
    with pytest.raises(ValidationError):
        new_mechanism(4, 1, (0, 0, 0, 1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_stay_probabilities_are_refused(bad):
    # NaN compares false, so it passed both the sign and the sum checks
    with pytest.raises(ValidationError, match="finite"):
        new_mechanism(4, 16, (0, 0, bad, 1))


def test_alpha_beta_half_half_exact():
    # independent oracle: exact rational evaluation of the defining formulas
    mech = new_mechanism(4, 16, (0, 0, 0.5, 0.5))
    eps = Fraction(1, 2) ** 17
    alpha3 = float((Fraction(17, 2) - eps) / 16)
    alpha4 = float((Fraction(15, 2) + eps) / 16)
    beta3 = float(Fraction(1, 2) + eps)
    beta4 = float(Fraction(1, 2) - eps)
    assert mech.alpha[2] == pytest.approx(alpha3, abs=1e-15)
    assert mech.alpha[3] == pytest.approx(alpha4, abs=1e-15)
    assert mech.beta[2] == pytest.approx(beta3, abs=1e-15)
    assert mech.beta[3] == pytest.approx(beta4, abs=1e-15)


def test_zero_probability_gives_zero_coefficients():
    rng = np.random.default_rng(5)
    for _ in range(100):
        mech = random_mechanism(rng)
        for k in range(1, mech.p + 1):
            if mech.a[k - 1] == 0.0:
                assert mech.alpha[k - 1] == 0.0
                assert mech.beta[k - 1] == 0.0
            assert mech.alpha[k - 1] >= -1e-12
            assert mech.beta[k - 1] >= -1e-12


def test_matrices_complete_reduction():
    mech = new_mechanism(5, 6, (0, 0, 0, 0, 1))
    a, b, v = mech.A, mech.B, surrogate_kernel(mech)
    np.testing.assert_array_equal(a, mk.centering(5))
    np.testing.assert_array_equal(b, mk.centering(5))
    np.testing.assert_allclose(v, np.kron(mk.centering(6), mk.centering(5)), atol=1e-15)


def test_matrices_psd_and_row_sums():
    rng = np.random.default_rng(11)
    for _ in range(100):
        mech = random_mechanism(rng, p=int(rng.integers(2, 5)), n=int(rng.integers(2, 7)))
        a, b, v = mech.A, mech.B, surrogate_kernel(mech)
        assert np.linalg.eigvalsh(a)[0] >= -1e-10
        assert np.linalg.eigvalsh(b)[0] >= -1e-10
        np.testing.assert_allclose(v, v.T, atol=1e-12)
        np.testing.assert_allclose(v.sum(axis=1), 0.0, atol=1e-10)


def test_matrices_half_half_assembly():
    mech = new_mechanism(4, 16, (0, 0, 0.5, 0.5))
    expect = mech.alpha[2] * mk.padded_centering(3, 4) + mech.alpha[3] * mk.padded_centering(4, 4)
    np.testing.assert_allclose(mech.A, expect, atol=1e-15)


def expected_projection_kernel(mech):
    """Exact expectation of the realized projection kernel.

    Closed form: (n / (n-1)) * centering(n) (x) sum_k d_k B^k_p with
    d_k = a_k - (a_{1k}^n - a_{1,k-1}^n) / n.  Independent oracle for
    expectation-level checks of the realized projection path.
    """
    n, p = mech.n, mech.p
    dmat = np.zeros((p, p))
    for k in range(1, p + 1):
        d_k = mech.a[k - 1] - (
            mech.partial_sum(1, k) ** n - mech.partial_sum(1, k - 1) ** n
        ) / n
        dmat += d_k * mk.padded_centering(k, p)
    return (n / (n - 1)) * np.kron(mk.centering(n), dmat)


def test_expected_projection_kernel_by_enumeration():
    # brute-force expectation of the projection over all stay-length vectors
    import warnings
    from itertools import product

    from _oracles import realized_projection

    for p, n, a in [(3, 4, (0.2, 0.3, 0.5)), (3, 4, (0.0, 0.4, 0.6)), (2, 3, (0.45, 0.55))]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            mech = new_mechanism(p, n, a)
        expect = np.zeros((n * p, n * p))
        for lengths in product(range(1, p + 1), repeat=n):
            weight = np.prod([a[k - 1] for k in lengths])
            if weight == 0.0:
                continue
            expect += weight * realized_projection(lengths, p)
        np.testing.assert_allclose(expect, expected_projection_kernel(mech), atol=1e-12)
        assert np.linalg.eigvalsh(expect)[0] >= -1e-10


def test_partial_sum_convention():
    with pytest.warns(UserWarning, match="stay length 1"):
        mech = new_mechanism(4, 5, (0.1, 0.2, 0.3, 0.4))
    assert mech.partial_sum(5, 4) == 0.0
    assert mech.partial_sum(1, 4) == pytest.approx(1.0)
    assert mech.partial_sum(2, 3) == pytest.approx(0.5)


def test_warns_on_period_one_mass():
    with pytest.warns(UserWarning):
        new_mechanism(3, 4, (0.5, 0.25, 0.25))


def test_mechanism_file_round_trip(tmp_path):
    path = tmp_path / "mech.json"
    path.write_text('{"p": 4, "n": 16, "a": [0, 0, 0.5, 0.5]}')
    mech = load_mechanism(path)
    assert mech.p == 4 and mech.n == 16 and mech.m == 3
    with pytest.raises(ValidationError):
        load_mechanism(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"p": 4}')
    with pytest.raises(ValidationError):
        load_mechanism(bad)


def test_type_h_identity_identity_case():
    assert type_h_identity_check(4, np.zeros(4), 0.0)


def test_type_h_identity_compound_symmetric():
    assert type_h_identity_check(4, np.zeros(4), 0.3)


def test_type_h_identity_random_eta():
    rng = np.random.default_rng(1)
    assert type_h_identity_check(5, rng.uniform(-0.2, 0.2, 5), 0.0)


def test_type_h_identity_hundred_random_cases():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        k = int(rng.integers(1, 7))
        eta = rng.uniform(-0.3, 0.3, k)
        b = float(rng.uniform(-0.3, 0.5))
        try:
            assert type_h_identity_check(k, eta, b, tol=1e-10)
        except SingularCovarianceError:
            continue
        checked += 1


def test_type_h_singular_block_reported():
    # eta = -1/2 on a 1x1 block zeroes the covariance entry
    with pytest.raises(SingularCovarianceError):
        type_h_identity_check(1, [-0.5], 0.0)
