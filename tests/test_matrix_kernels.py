import numpy as np
import pytest

from crossover_dropout import matrix_kernels as mk
from crossover_dropout.errors import ValidationError

from _oracles import pinv_sym, proj_complement


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


@pytest.mark.parametrize("n,p", [(3, 4), (5, 2), (6, 6)])
def test_kron_centering_rank(n, p):
    rank = np.linalg.matrix_rank(np.kron(mk.centering(n), mk.centering(p)))
    assert rank == (n - 1) * (p - 1)


@pytest.mark.parametrize("k", range(1, 7))
def test_pinv_of_projector_is_itself(k):
    b = mk.centering(k)
    np.testing.assert_allclose(mk.pinv_sym_batch(b[None])[0], b, atol=1e-12)


def test_pinv_zero_and_diagonal():
    np.testing.assert_allclose(mk.pinv_sym_batch(np.zeros((1, 3, 3))), 0.0, atol=0.0)
    np.testing.assert_allclose(mk.pinv_sym_batch(np.diag([2.0, 0.0])[None])[0], np.diag([0.5, 0.0]))


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
        gi = mk.pinv_sym_batch(g[None])[0]
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
        np.testing.assert_allclose(out[i], pinv_sym(stack[i]), atol=1e-10)


@pytest.mark.parametrize("k", range(1, 9))
def test_contrast_basis_is_orthonormal_complement_of_ones(k):
    h = mk.contrast_basis(k)
    assert h.shape == (k, k - 1)
    np.testing.assert_allclose(h.T @ h, np.eye(k - 1), atol=1e-14)
    np.testing.assert_allclose(h @ h.T, mk.centering(k), atol=1e-14)


def _psd_stack(rng, batch, m, lead, singular):
    """Stacked m x m PSD Grams; rows in ``singular`` get a rank-deficient leading block."""
    x = rng.normal(size=(batch, m + 2, m))
    x[singular, :, 0] = x[singular, :, 1] * 2.0  # a leading column repeats another
    x[singular[:1], :, :lead] = 0.0  # and one row has an all-zero leading block
    return x.transpose(0, 2, 1) @ x


def test_packed_columns_round_trip_and_end_with_the_trailing_block():
    rng = np.random.default_rng(23)
    for k in range(1, 8):
        x = rng.normal(size=(3, k + 2, k))
        g = x.transpose(0, 2, 1) @ x
        g = (g + g.transpose(0, 2, 1)) / 2.0
        packed = mk.pack_sym(g)
        assert packed.shape == (k * (k + 1) // 2, 3)
        np.testing.assert_array_equal(mk.unpack_sym(packed), g)
        np.testing.assert_array_equal(mk.packed_diagonal(packed), np.diagonal(g, axis1=1, axis2=2).T)
        for lead in range(k + 1):
            tail = mk.pack_sym(g[:, lead:, lead:])
            np.testing.assert_array_equal(packed[len(packed) - len(tail) :], tail)


def test_schur_complement_matches_pinv_reference_and_falls_back_per_row(monkeypatch):
    rng = np.random.default_rng(17)
    batch, m, lead = 64, 7, 4
    singular = np.array([3, 10, 11, 40])
    g = _psd_stack(rng, batch, m, lead, singular)
    fallback_rows = []
    original = mk.pinv_sym_batch

    def spy(stack):
        fallback_rows.append(len(stack))
        return original(stack)

    monkeypatch.setattr(mk, "pinv_sym_batch", spy)
    packed = mk.pack_sym(g)
    before = packed.copy()
    got = mk.unpack_sym(mk.schur_complement(packed, lead))
    assert fallback_rows == [len(singular)]  # one call, the singular rows only
    np.testing.assert_array_equal(packed, before)  # the input is left as it was
    for b in range(batch):
        a, bb, gl = g[b, lead:, lead:], g[b, lead:, :lead], g[b, :lead, :lead]
        want = a - bb @ pinv_sym(gl) @ bb.T
        np.testing.assert_allclose(got[b], want, rtol=1e-10, atol=1e-10 * np.abs(a).max())
    np.testing.assert_array_equal(got, np.swapaxes(got, 1, 2))


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
