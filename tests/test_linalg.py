"""Kernel-level tests: Kronecker products, traces, eigensolves, Haar draws.

Derived expectations are computed by independent oracles inside this file
(hand Gram-Schmidt, 2x2 eigenvalues by formula, brute-force reconstruction),
never by the code under test.
"""

import itertools
import string

import numpy as np
import pytest

from qdleak.errors import DegeneracyError, DimensionLimitError
from qdleak.linalg import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    haar_unitary,
    herm_eig,
    kron,
    orthonormalize_qr,
    partial_trace,
    random_complementary_projectors,
    reduced_density,
    trace_norm,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)


def random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim, rng, rank=None):
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------- kron

def test_kron_identity():
    np.testing.assert_allclose(kron(I2, I2), np.eye(4))


def test_kron_flips_first_qubit():
    state = np.kron(KET0, KET0)
    np.testing.assert_allclose(kron(X, I2) @ state, np.kron(KET1, KET0))


def test_kron_hadamard_pair_makes_uniform_amplitudes():
    # hand computation: (H (x) H)|00> has all four amplitudes 1/2
    out = kron(H, H) @ np.kron(KET0, KET0)
    np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-15)


def test_kron_dimension_limit():
    with pytest.raises(DimensionLimitError):
        kron(np.eye(2 ** 8), np.eye(2 ** 8))


def test_kron_takes_matrices_only():
    for a, b in ((KET0, I2), (I2, KET0), (np.ones((2, 2, 2)), I2)):
        with pytest.raises(ValueError):
            kron(a, b)


# ------------------------------------------------------- partial trace

def test_partial_trace_product_state():
    rho = np.outer(np.kron(KET0, KET1), np.kron(KET0, KET1).conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), {0}),
                               np.outer(KET0, KET0.conj()), atol=1e-14)


def test_partial_trace_bell_state_is_maximally_mixed():
    bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, (2, 2), {0}), I2 / 2, atol=1e-14)


@pytest.mark.parametrize("seed", range(20))
def test_partial_trace_factors_product_density(seed):
    rng = np.random.default_rng(1000 + seed)
    da, db = rng.choice([2, 3, 4]), rng.choice([2, 3])
    rho_a = random_density(da, rng)
    rho_b = random_density(db, rng)
    joint = np.kron(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (da, db), {0}), rho_a, atol=1e-10)
    np.testing.assert_allclose(partial_trace(joint, (da, db), {1}), rho_b, atol=1e-10)


def test_partial_trace_preserves_trace_and_order():
    rng = np.random.default_rng(7)
    rho = random_density(8, rng)
    red = partial_trace(rho, (2, 2, 2), {0, 2})
    assert red.shape == (4, 4)
    assert abs(np.trace(red) - 1.0) < 1e-12


def test_partial_trace_index_out_of_range():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), {2})
    with pytest.raises(ValueError):
        partial_trace(rho, (2, 2), set())
    with pytest.raises(ValueError, match="does not match dims"):
        partial_trace(rho, (2, 3), {0})


def test_partial_trace_keep_must_be_integers():
    rho = np.eye(4) / 4
    for keep in ((0.0,), (1.5,), (None,)):
        with pytest.raises(ValueError, match="integer"):
            partial_trace(rho, (2, 2), keep)
    np.testing.assert_array_equal(partial_trace(rho, (2, 2), (np.int64(1),)), np.eye(2) / 2)


def einsum_partial_trace(rho, dims, keep):
    """The einsum form partial_trace replaced, frozen as its reference."""
    n = len(dims)
    letters = string.ascii_lowercase + string.ascii_uppercase
    row = list(letters[:n])
    col = [letters[n + i] if i in keep else row[i] for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    d = int(np.prod([dims[i] for i in keep]))
    return np.einsum("".join(row) + "".join(col) + "->" + out,
                     rho.reshape(dims + dims)).reshape(d, d)


@pytest.mark.parametrize("dims", [(2,) * n for n in range(1, 8)]
                         + [(2, 3, 2), (3, 3), (2, 2, 3, 2), (4, 2, 3), (5,)])
def test_partial_trace_is_bit_identical_to_einsum(dims):
    rng = np.random.default_rng(len(dims))
    dim = int(np.prod(dims))
    rho = random_density(dim, rng)
    for size in range(1, len(dims) + 1):
        for keep in itertools.combinations(range(len(dims)), size):
            got = partial_trace(rho, dims, keep)
            ref = einsum_partial_trace(rho, list(dims), list(keep))
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (dims, keep)


def test_reduced_density_matches_partial_trace():
    rng = np.random.default_rng(11)
    psi = random_state(24, rng)
    dims = (2, 3, 4)
    rho = np.outer(psi, psi.conj())
    for keep in ({0}, {1}, {2}, {1, 2}):
        np.testing.assert_allclose(
            reduced_density(psi, dims, keep).matrix,
            partial_trace(rho, dims, keep), atol=1e-12)
    # only partial_trace keeps subsystems that are not adjacent
    with pytest.raises(ValueError):
        reduced_density(psi, dims, {0, 2})
    with pytest.raises(ValueError):
        StateVector(psi, dims).reduced({0, 2})


def test_reduced_density_keep_must_be_integers():
    psi = random_state(24, np.random.default_rng(11))
    dims = (2, 3, 4)
    for keep in ((0.0,), (1.5, 2), (None,)):
        with pytest.raises(ValueError, match="integer"):
            reduced_density(psi, dims, keep)
        with pytest.raises(ValueError, match="integer"):
            StateVector(psi, dims).reduced(keep)
    with pytest.raises(ValueError, match="at least one subsystem"):
        reduced_density(psi, dims, ())
    want = reduced_density(psi, dims, (1, 2))
    got = reduced_density(psi, dims, (np.int64(2), np.int64(1)))
    np.testing.assert_array_equal(got.matrix, want.matrix)


# ------------------------------------------------------------ herm_eig

def test_herm_eig_diagonal():
    w, v = herm_eig(np.diag([3.0, 1.0]).astype(complex))
    np.testing.assert_allclose(w, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_herm_eig_pauli_x():
    w, v = herm_eig(X)
    np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
    # eigenvectors are |+> and |-> up to phase
    for col, target in zip(v.T, (PLUS, (KET0 - KET1) / np.sqrt(2))):
        overlap = abs(np.vdot(col, target))
        assert abs(overlap - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(100))
def test_herm_eig_reconstructs_32x32(seed):
    rng = np.random.default_rng(2000 + seed)
    h = random_hermitian(32, rng)
    w, v = herm_eig(h)
    assert np.all(np.diff(w) <= 1e-12)  # descending
    residual = np.linalg.norm(v @ np.diag(w) @ v.conj().T - h)
    assert residual < 1e-9
    assert np.max(np.abs(v.conj().T @ v - np.eye(32))) < 1e-10


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))


# ---------------------------------------------------------- trace_norm

def test_trace_norm_known_spectrum():
    assert abs(trace_norm(np.diag([0.5, -0.5]).astype(complex)) - 1.0) < 1e-14


def test_trace_norm_of_density_matrix_is_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        assert abs(trace_norm(random_density(6, rng)) - 1.0) < 1e-11


def test_trace_norm_half_projector_difference():
    # hand oracle: 0.5|0><0| - 0.5|+><+| is 2x2 traceless with determinant
    # -(1/8), so its eigenvalues are +-sqrt(1/8) and the trace norm is 1/sqrt(2)
    m = 0.5 * np.outer(KET0, KET0.conj()) - 0.5 * np.outer(PLUS, PLUS.conj())
    det = np.linalg.det(m).real
    expected = 2.0 * np.sqrt(-det)
    assert abs(expected - 1 / np.sqrt(2)) < 1e-14
    assert abs(trace_norm(m) - 1 / np.sqrt(2)) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_trace_norm_unitary_invariance(seed):
    rng = np.random.default_rng(3000 + seed)
    h = random_hermitian(8, rng)
    u = haar_unitary(8, rng)
    assert abs(trace_norm(u @ h @ u.conj().T) - trace_norm(h)) < 1e-9


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(np.array([[0, 1], [0, 0]], dtype=complex))


# --------------------------------------------------- orthonormalize_qr

def gram_schmidt_positive(m):
    """Independent column-wise Gram-Schmidt with positive R diagonal."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[1]
    q = np.zeros_like(m)
    for j in range(n):
        v = m[:, j].copy()
        for i in range(j):
            v -= np.vdot(q[:, i], m[:, j]) * q[:, i]
        q[:, j] = v / np.linalg.norm(v)
    return q


def test_orthonormalize_identity_fixed_point():
    np.testing.assert_allclose(orthonormalize_qr(I2), I2, atol=1e-12)


def test_orthonormalize_unitary_fixed_point():
    rng = np.random.default_rng(5)
    u = haar_unitary(6, rng)
    np.testing.assert_allclose(orthonormalize_qr(u), u, atol=1e-10)


@pytest.mark.parametrize("seed", range(50))
def test_orthonormalize_matches_hand_gram_schmidt(seed):
    rng = np.random.default_rng(4000 + seed)
    m = rng.standard_normal((2, 2))
    if np.linalg.svd(m, compute_uv=False)[-1] <= 1e-6:
        pytest.skip("nearly singular draw")
    np.testing.assert_allclose(
        orthonormalize_qr(m), gram_schmidt_positive(m), atol=1e-10)


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    once = orthonormalize_qr(m)
    np.testing.assert_allclose(orthonormalize_qr(once), once, atol=1e-10)


def test_orthonormalize_rejects_rank_deficient():
    with pytest.raises(DegeneracyError):
        orthonormalize_qr(np.full((2, 2), 0.5))


# --------------------------------------------------------- haar_unitary

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(8)
    for _ in range(100):
        u = haar_unitary(8, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10


def test_haar_unitary_determinism_and_spread():
    a = haar_unitary(6, np.random.default_rng(123))
    b = haar_unitary(6, np.random.default_rng(123))
    assert np.array_equal(a, b)
    distinct = haar_unitary(6, np.random.default_rng(124))
    assert np.linalg.norm(a - distinct) > 0.1


def test_haar_first_entry_moment():
    # Haar moment: E|U_00|^2 = 1/dim. 10^5 draws at dim 4.
    rng = np.random.default_rng(9)
    n = 100_000
    z = (rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d)).conj()[:, None, :]
    mean = np.mean(np.abs(q[:, 0, 0]) ** 2)
    assert abs(mean - 0.25) < 0.01


def test_haar_unitary_sizes_must_be_integers():
    rng = np.random.default_rng(0)
    for dim, columns in ((2.0, None), (3.0, None), (4, 2.0), (4, 1.5)):
        with pytest.raises(ValueError, match="integer"):
            haar_unitary(dim, rng, columns)
    with pytest.raises(ValueError, match="dim must be >= 1"):
        haar_unitary(0, rng)
    assert haar_unitary(np.int64(3), rng, np.int64(2)).shape == (3, 2)


# ------------------------------------- random_complementary_projectors

def test_projector_pair_qubit_case():
    rng = np.random.default_rng(10)
    p0, p1 = random_complementary_projectors(2, 1, rng)
    np.testing.assert_allclose(p0 + p1, np.eye(2), atol=1e-10)
    np.testing.assert_allclose(p0 @ p1, np.zeros((2, 2)), atol=1e-10)
    np.testing.assert_allclose(p0 @ p0, p0, atol=1e-10)


@pytest.mark.parametrize("seed", range(100))
def test_projector_pair_spectrum_is_binary(seed):
    rng = np.random.default_rng(5000 + seed)
    p0, p1 = random_complementary_projectors(8, 3, rng)
    assert abs(np.trace(p0).real - 3.0) < 1e-10
    eigs = np.linalg.eigvalsh(p0)
    assert np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) < 1e-10)
    np.testing.assert_allclose(p0 + p1, np.eye(8), atol=1e-10)


def test_projector_rank_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_complementary_projectors(4, 0, rng)
    with pytest.raises(ValueError):
        random_complementary_projectors(4, 4, rng)


def test_projector_dims_must_be_integers():
    rng = np.random.default_rng(0)
    for dim, rank0 in ((4.0, 2), (4, 2.0), (4, None)):
        with pytest.raises(ValueError, match="integer"):
            random_complementary_projectors(dim, rank0, rng)
    p0, _ = random_complementary_projectors(np.int64(4), np.int64(2), rng)
    assert abs(np.trace(p0).real - 2.0) < 1e-10


# ------------------------------------------------------- state classes

def test_state_vector_validation_and_norm():
    sv = StateVector(np.kron(PLUS, KET0), (2, 2))
    assert abs(sv.norm() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        StateVector(np.zeros(3), (2, 2))


def test_state_vector_apply_keeps_norm():
    rng = np.random.default_rng(12)
    sv = StateVector(random_state(16, rng), (2, 2, 2, 2))
    u = haar_unitary(4, rng)
    moved = sv.apply(u, (1, 2))
    assert abs(moved.norm() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        sv.apply(u, (1, 3))


def test_apply_unitary_matches_dense_kron():
    rng = np.random.default_rng(13)
    psi = random_state(8, rng)
    u = haar_unitary(2, rng)
    dense = np.kron(np.kron(np.eye(2), u), np.eye(2)) @ psi
    np.testing.assert_allclose(apply_unitary(psi, (2, 2, 2), u, (1,)), dense,
                               atol=1e-12)
    v = haar_unitary(4, rng)
    dense2 = np.kron(np.eye(2), v)
    got = apply_unitary(psi, (2, 2, 2), v, (1, 2))
    np.testing.assert_allclose(got, dense2 @ psi, atol=1e-12)
    # targets in reversed order are no ascending run
    with pytest.raises(ValueError):
        apply_unitary(psi, (2, 2, 2), v, (2, 1))
    with pytest.raises(ValueError, match="does not match targets"):
        apply_unitary(psi, (2, 2, 2), v, (1,))


def test_apply_unitary_targets_must_be_integers():
    rng = np.random.default_rng(13)
    psi = random_state(8, rng)
    u = haar_unitary(2, rng)
    for targets in ((1.0,), (0.5,), (None,)):
        with pytest.raises(ValueError, match="integer"):
            apply_unitary(psi, (2, 2, 2), u, targets)
    np.testing.assert_array_equal(apply_unitary(psi, (2, 2, 2), u, (np.int64(1),)),
                                  apply_unitary(psi, (2, 2, 2), u, (1,)))
    # a target past the last subsystem is no run of them
    with pytest.raises(ValueError):
        apply_unitary(psi, (2, 2, 2), u, (3,))
    # the empty run scales the state by a 1x1 operator
    np.testing.assert_array_equal(apply_unitary(psi, (2, 2, 2), [[2.0]], ()), 2 * psi)


def test_density_matrix_validate():
    rng = np.random.default_rng(14)
    DensityMatrix(random_density(4, rng), (2, 2)).validate()
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4), (2, 2)).validate()  # trace 4
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]), (2,)).validate()
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(np.diag([1.5, -0.5]), (2,)).validate()
    with pytest.raises(ValueError, match="does not match dims"):
        DensityMatrix(np.eye(3) / 3, (2, 2))
    # a non-positive subsystem dimension is refused, as StateVector refuses it
    for mat, dims in ((np.eye(1), (-1, -1)), (np.zeros((0, 0)), (0,))):
        with pytest.raises(ValueError, match="subsystem dimensions must be positive"):
            DensityMatrix(mat, dims)
