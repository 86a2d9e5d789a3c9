import numpy as np
import pytest

from crossover_dropout import matrix_kernels as mk
from crossover_dropout.errors import ValidationError

from _oracles import proj_complement


def test_centering_order_one():
    np.testing.assert_array_equal(mk.centering(1), [[0.0]])


def test_centering_order_two():
    np.testing.assert_allclose(mk.centering(2), [[0.5, -0.5], [-0.5, 0.5]])


@pytest.mark.parametrize("k", range(1, 9))
def test_centering_annihilates_constants(k):
    np.testing.assert_allclose(mk.centering(k) @ np.ones(k), 0.0, atol=1e-12)


@pytest.mark.parametrize("k", range(2, 9))
def test_centering_eigenvalues(k):
    w = np.linalg.eigvalsh(mk.centering(k))
    np.testing.assert_allclose(w[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(w[1:], 1.0, atol=1e-12)


def test_centering_rejects_zero():
    with pytest.raises(ValidationError):
        mk.centering(0)


@pytest.mark.parametrize("p", range(1, 6))
def test_padded_centering_order_one_is_zero(p):
    np.testing.assert_allclose(mk.padded_centering(1, p), 0.0, atol=0.0)


@pytest.mark.parametrize("p", range(1, 7))
def test_padded_centering_full_block(p):
    np.testing.assert_allclose(mk.padded_centering(p, p), mk.centering(p))


def test_padded_centering_rejects_oversize():
    with pytest.raises(ValidationError):
        mk.padded_centering(5, 4)


def test_padded_centering_product_rule():
    # B^{m1} B^{m2} = B^{min(m1, m2)} within a common frame
    for p in range(1, 7):
        for m1 in range(1, p + 1):
            for m2 in range(1, p + 1):
                lhs = mk.padded_centering(m1, p) @ mk.padded_centering(m2, p)
                np.testing.assert_allclose(
                    lhs, mk.padded_centering(min(m1, m2), p), atol=1e-12
                )


def test_kron_block_diagonal():
    b2 = mk.centering(2)
    out = mk.kron(np.eye(2), b2)
    expect = np.zeros((4, 4))
    expect[:2, :2] = b2
    expect[2:, 2:] = b2
    np.testing.assert_allclose(out, expect)


def test_kron_scalar():
    g = np.arange(6.0).reshape(2, 3)
    np.testing.assert_allclose(mk.kron(np.array([[2.5]]), g), 2.5 * g)


@pytest.mark.parametrize("n,p", [(3, 4), (5, 2), (6, 6)])
def test_kron_centering_rank(n, p):
    rank = np.linalg.matrix_rank(mk.kron(mk.centering(n), mk.centering(p)))
    assert rank == (n - 1) * (p - 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_pinv_of_projector_is_itself(k):
    b = mk.centering(k)
    np.testing.assert_allclose(mk.pinv_sym(b), b, atol=1e-12)


def test_pinv_zero_and_diagonal():
    np.testing.assert_allclose(mk.pinv_sym(np.zeros((3, 3))), 0.0, atol=0.0)
    np.testing.assert_allclose(mk.pinv_sym(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(1, 31))
        g = rng.normal(size=(k, k))
        g = g + g.T
        if rng.random() < 0.5:
            # force rank deficiency
            w, v = np.linalg.eigh(g)
            w[: max(1, k // 3)] = 0.0
            g = (v * w) @ v.T
        gi = mk.pinv_sym(g)
        np.testing.assert_allclose(g @ gi @ g, g, atol=1e-10 * max(1, np.abs(g).max()))
        np.testing.assert_allclose(gi @ g @ gi, gi, atol=1e-10 * max(1, np.abs(gi).max()))
        np.testing.assert_allclose(g @ gi, (g @ gi).T, atol=1e-10)
        np.testing.assert_allclose(gi @ g, (gi @ g).T, atol=1e-10)


def test_pinv_batch_matches_single():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(7, 5, 5))
    stack = stack + np.swapaxes(stack, -1, -2)
    out = mk.pinv_sym_batch(stack)
    for i in range(stack.shape[0]):
        np.testing.assert_allclose(out[i], mk.pinv_sym(stack[i]), atol=1e-10)


def test_proj_complement_of_ones_is_centering():
    for k in range(1, 7):
        np.testing.assert_allclose(
            proj_complement(np.ones((k, 1))), mk.centering(k), atol=1e-12
        )


def test_proj_complement_of_identity_is_zero():
    np.testing.assert_allclose(proj_complement(np.eye(4)), 0.0, atol=1e-12)


def test_proj_complement_annihilates_columns():
    rng = np.random.default_rng(7)
    for _ in range(100):
        rows = int(rng.integers(2, 31))
        cols = int(rng.integers(1, min(rows, 10) + 1))
        g = rng.normal(size=(rows, cols))
        proj = proj_complement(g)
        np.testing.assert_allclose(proj @ g, 0.0, atol=1e-12 * max(1.0, np.abs(g).max()))
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
