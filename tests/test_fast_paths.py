"""Differential tests of the fast paths against the numpy code they replace.

`linalg.kron` on matrices must equal np.kron bit for bit, on its strided
route as well; the 2x2 `haar_unitary` and the noisy qubit unitary, formed
from scalars, must equal the numpy expressions they replace bit for bit;
the Hadamard-frame conditional, a product of conjugated 2x2 factors, must
match the dense conjugate H U H; `decoherence_factor`'s scalar overlap must
match the trace of matrix products; `StateVector.reduced` must form the
Schmidt factor once, and the guesses made with the factor attached where it
is a view must equal those of the thresholded factor it replaced; the closed-form
2x2 `orthonormalize_qr` must match LAPACK's QR with the positive-diagonal
phase fix and raise exactly where the SVD finds the input rank-deficient;
the larger `orthonormalize_qr`, which tests rank on R's diagonal, must equal
that QR bit for bit and still reject rank-deficient and non-finite input;
`apply_unitary` on an ascending run of subsystems, and the Schmidt factor
of a reduction to one, must equal the move-to-the-front route bit for bit;
`model.build_initial_state` must equal the Kronecker chain of its qubit
states bit for bit; the low-rank discrimination through Schmidt factors
must match the dense one on the bare matrices; a tall `orthonormalize_qr`
must be the thin LAPACK QR with the phase fix, and the thin Haar frame
(`haar_unitary(..., columns=c)`) the leading columns of the full one, so
that `nested_control_pguess`, which orthonormalizes only the columns its
proper ranks read, matches the antenna on the full unitary, and the antenna
with no frame is `helstrom_pguess` bit for bit; the
Hadamard-basis scenario must be the Hadamard frame of the computational
one, draw for draw. The references are written out here, not imported.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdleak import eavesdropper, experiments, linalg
from qdleak.eavesdropper import helstrom_pguess, nested_control_pguess, subspace_pguess
from qdleak.errors import DegeneracyError
from qdleak.linalg import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    haar_unitary,
    kron,
    orthonormalize_qr,
    reduced_density,
)
from qdleak.model import (
    BASES,
    COMPUTATIONAL,
    HADAMARD,
    HADAMARD_GATE,
    DecoherenceFactorParams,
    ScenarioSpec,
    _noisy_qubit_unitary,
    basis_states,
    build_initial_state,
    build_interaction_chain,
    cx,
    decoherence_factor,
    run_exchange,
    run_exchange_pair,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)

# finite reals, with both signed zeros drawn often
REALS = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@st.composite
def complex_matrices(draw, max_side=8):
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    parts = draw(st.lists(REALS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.empty((rows, cols), dtype=complex)
    # set the parts directly: arithmetic would flip the signs of zeros
    m.real = np.reshape(parts[::2], (rows, cols))
    m.imag = np.reshape(parts[1::2], (rows, cols))
    return m


def reference_qr(m):
    """LAPACK QR with every diagonal entry of R made real and positive."""
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def reference_haar(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return reference_qr(z / np.sqrt(2))


def smallest_singular_value(m):
    return np.linalg.svd(m, compute_uv=False)[-1]


# ---------------------------------------------------------------- kron

@PROPERTY
@given(complex_matrices(), complex_matrices())
def test_kron_is_bit_identical_to_numpy(a, b):
    got = kron(a, b)
    want = np.kron(a, b)
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def test_kron_wide_operand_is_bit_identical_to_numpy():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 128)) + 1j * rng.standard_normal((2, 128))
    a[0, :8] = -0.0
    b = np.array([[1, -0.0], [0.0, -1j]], dtype=complex)
    for x, y in ((a, b), (b, a)):
        assert np.array_equal(bits(kron(x, y)), bits(np.kron(x, y)))


def signed_zero_matrix(rng, shape):
    """Gaussian complex matrix with about a tenth of its parts set to +0.0 or -0.0."""
    parts = rng.standard_normal((2,) + shape)
    mask = rng.random(parts.shape) < 0.1
    parts[mask] = np.where(rng.random(mask.sum()) < 0.5, 0.0, -0.0)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = parts
    return m


@PROPERTY
@given(st.integers(0, 2 ** 32 - 1), st.integers(32, 64), st.integers(32, 48),
       st.integers(1, 2), st.integers(1, 2))
def test_strided_kron_is_bit_identical_to_numpy(seed, m, n, p, q):
    # a left operand of >= 1024 entries and a right one of 2..4 take the
    # strided route (a 1x1 one broadcasts as it is); swapped, the pair takes
    # the broadcast
    rng = np.random.default_rng(seed)
    large = signed_zero_matrix(rng, (m, n))
    small = signed_zero_matrix(rng, (p, q))
    assert large.size >= linalg._STRIDED_MIN_LEFT and small.size <= linalg._STRIDED_MAX_RIGHT
    for a, b in ((large, small), (small, large)):
        got = kron(a, b)
        assert got.shape == (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
        assert np.array_equal(bits(got), bits(np.kron(a, b)))


# ------------------------------------------- 2x2 Haar and noisy unitaries

def head_haar_2x2(rng):
    """The 2x2 Haar draw as numpy arrays: two (2, 2) normal draws, then z / sqrt(2)."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return orthonormalize_qr(z / np.sqrt(2))


def head_noisy_unitary(epsilon, rng):
    v = head_haar_2x2(rng)
    return orthonormalize_qr(epsilon * np.eye(2, dtype=complex) + (1.0 - epsilon) * v)


def outcome(draw, *args):
    try:
        return draw(*args)
    except DegeneracyError:
        return "degenerate"


def same_outcome(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return np.array_equal(bits(a), bits(b))


EPSILONS = st.one_of(st.sampled_from([0.0, 1.0, -0.0]), st.floats(0.0, 1.0))


@PROPERTY
@given(st.integers(0, 2 ** 64 - 1))
def test_2x2_haar_draw_is_bit_identical_to_the_numpy_expression(seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert np.array_equal(bits(haar_unitary(2, got_rng)), bits(head_haar_2x2(want_rng)))
    # the draw consumes the stream exactly as the two (2, 2) draws did
    assert got_rng.standard_normal() == want_rng.standard_normal()


@PROPERTY
@given(EPSILONS, st.integers(0, 2 ** 64 - 1))
def test_noisy_unitary_is_bit_identical_to_the_numpy_expression(eps, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = outcome(_noisy_qubit_unitary, eps, got_rng)
        want = outcome(head_noisy_unitary, eps, want_rng)
        assert same_outcome(got, want)


class ScriptedNormals:
    """Stands in for a Generator: standard_normal returns the scripted values in order."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, size):
        n = math.prod(np.atleast_1d(size))
        out, self.values = self.values[:n], self.values[n:]
        return np.reshape(np.array(out, dtype=float), size)


@PROPERTY
@given(st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0]), min_size=8, max_size=8),
       EPSILONS)
def test_draws_with_exact_zeros_are_bit_identical(normals, eps):
    # exact zeros, whose signs numpy's complex rules decide, in every position
    got = outcome(haar_unitary, 2, ScriptedNormals(normals))
    want = outcome(head_haar_2x2, ScriptedNormals(normals))
    assert same_outcome(got, want)
    got = outcome(_noisy_qubit_unitary, eps, ScriptedNormals(normals))
    want = outcome(head_noisy_unitary, eps, ScriptedNormals(normals))
    assert same_outcome(got, want)


# ------------------------------------------------------ Hadamard frame

def hadamard_power(n):
    h = np.eye(1)
    for _ in range(n):
        h = np.kron(h, HADAMARD_GATE)
    return h


@PROPERTY
@given(st.integers(1, 7), st.integers(1, 2), EPSILONS, st.integers(0, 2 ** 32 - 1))
def test_hadamard_conditional_is_the_dense_conjugate(ne, nl, eps, seed):
    assume(2 + nl * ne <= 14)
    spec = ScenarioSpec(basis=COMPUTATIONAL, key_bit=0, n_layers=nl, qubits_per_layer=ne,
                        epsilon=eps, seed=seed)
    comp = build_interaction_chain(spec)
    had = build_interaction_chain(replace(spec, basis=HADAMARD))
    h = hadamard_power(ne)
    for c, d in zip(comp, had):
        assert np.max(np.abs(d.rotation - h @ c.rotation @ h)) <= 1e-12
        for fc, fd in zip(c.factors, d.factors):
            assert np.max(np.abs(fd - HADAMARD_GATE @ fc @ HADAMARD_GATE)) <= 1e-15


# -------------------------------------------------- decoherence_factor

def matmul_decoherence_factor(spec):
    """prod_k |Tr(I rho0 f_k^dagger)| over the first link's factors."""
    link = build_interaction_chain(spec)[0]
    env0 = basis_states(spec.basis)[0]
    rho0 = np.outer(env0, env0.conj())
    gammas = [np.trace(np.eye(2) @ rho0 @ f.conj().T) for f in link.factors]
    return float(np.prod([abs(g) for g in gammas]))


@PROPERTY
@given(st.sampled_from(BASES), st.integers(1, 7), EPSILONS, st.integers(0, 2 ** 32 - 1))
def test_decoherence_factor_matches_the_matmul_form(basis, ne, eps, seed):
    spec = ScenarioSpec(basis=basis, key_bit=0, n_layers=1, qubits_per_layer=ne,
                        epsilon=eps, seed=seed)
    got = decoherence_factor(spec, DecoherenceFactorParams(pointer_basis=basis))
    assert abs(got - matmul_decoherence_factor(spec)) <= 1e-15


# ------------------------------------------------- 2x2 orthonormalize_qr

@PROPERTY
@given(st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_2x2_qr_matches_lapack_on_noisy_couplings(eps, seed):
    m = eps * np.eye(2) + (1.0 - eps) * reference_haar(seed)
    assume(smallest_singular_value(m) >= 1e-3)
    assert np.max(np.abs(orthonormalize_qr(m) - reference_qr(m))) <= 1e-12


@PROPERTY
@given(st.lists(REALS, min_size=8, max_size=8))
def test_2x2_qr_is_unitary_with_positive_real_r_diagonal(parts):
    m = np.array(parts[::2]).reshape(2, 2) + 1j * np.array(parts[1::2]).reshape(2, 2)
    scale = np.linalg.norm(m, 2)
    # well conditioned and away from the rank threshold
    assume(smallest_singular_value(m) >= max(1e-6 * scale, 1e-9))
    q = orthonormalize_qr(m)
    assert np.max(np.abs(q.conj().T @ q - np.eye(2))) <= 1e-12
    r = q.conj().T @ (m / scale)
    assert abs(r[1, 0]) <= 1e-12
    diag = np.diagonal(r)
    assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) <= 1e-12


def _raises_degeneracy(m):
    try:
        orthonormalize_qr(m)
    except DegeneracyError:
        return True
    return False


def test_2x2_qr_degeneracy_matches_svd_on_the_coupling_grid():
    eps_grid = [round(0.1 * i, 1) for i in range(11)] + [0.5 - 1e-13, 0.5 + 1e-13]
    for eps in eps_grid:
        for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
            m = eps * np.eye(2) + (1 - eps) * cx(alpha)
            assert _raises_degeneracy(m) == (smallest_singular_value(m) <= 1e-12), (eps, alpha)


def test_2x2_qr_rejects_the_zero_matrix():
    with pytest.raises(DegeneracyError):
        orthonormalize_qr(np.zeros((2, 2)))


@PROPERTY
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=8, max_size=8))
def test_2x2_qr_rejects_rank_one_outer_products(parts):
    u = np.array(parts[0:2]) + 1j * np.array(parts[2:4])
    v = np.array(parts[4:6]) + 1j * np.array(parts[6:8])
    m = np.outer(u, v)
    assert smallest_singular_value(m) <= 1e-12
    assert _raises_degeneracy(m)


# -------------------------------------------- n x n orthonormalize_qr

@PROPERTY
@given(st.integers(3, 16), st.integers(0, 2 ** 32 - 1))
def test_qr_is_bit_identical_to_lapack_on_gaussian_input(n, seed):
    rng = np.random.default_rng(seed)
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    assert np.array_equal(bits(orthonormalize_qr(m)), bits(reference_qr(m)))


def _degenerate_matrices(n):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zero_column = m.copy()
    zero_column[:, 1] = 0.0
    repeated_column = m.copy()
    repeated_column[:, -1] = m[:, 0]
    nan_entry = m.copy()
    nan_entry[n // 2, n // 2] = np.nan
    return {"zero column": zero_column, "repeated column": repeated_column,
            "rank one": np.outer(m[:, 0], m[0]), "nan entry": nan_entry}


@pytest.mark.parametrize("n", (4, 8))
@pytest.mark.parametrize("kind", ("zero column", "repeated column", "rank one", "nan entry"))
def test_qr_rejects_rank_deficient_and_nan_input(n, kind):
    with pytest.raises(DegeneracyError):
        orthonormalize_qr(_degenerate_matrices(n)[kind])


@pytest.mark.parametrize("n", (2, 4, 8))
@pytest.mark.parametrize("value", (np.inf, -np.inf, complex(0.0, np.inf)))
@pytest.mark.parametrize("where", ("diagonal", "corner"))
def test_qr_rejects_infinite_input(n, value, where):
    # LAPACK returns a NaN Q for inf on the diagonal and a finite Q for inf
    # in the top-right corner; both must raise
    m = np.eye(n, dtype=complex)
    m[(1, 1) if where == "diagonal" else (0, n - 1)] = value
    with pytest.raises(DegeneracyError):
        orthonormalize_qr(m)


def _gaussian(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@PROPERTY
@given(st.integers(2, 16), st.data(), st.integers(0, 2 ** 32 - 1))
def test_tall_qr_is_an_isometry_with_positive_r_diagonal(m, data, seed):
    n = data.draw(st.integers(1, m))
    z = _gaussian(np.random.default_rng(seed), (m, n))
    q = orthonormalize_qr(z)
    assert q.shape == (m, n)
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) <= 1e-12
    r = q.conj().T @ z
    assert np.max(np.abs(np.tril(r, -1)), initial=0.0) <= 1e-12
    assert np.all(np.diagonal(r).real > 0.0)
    assert np.max(np.abs(np.diagonal(r).imag)) <= 1e-12
    if (m, n) != (2, 2):
        assert np.array_equal(bits(q), bits(reference_qr(z)))


def _degenerate_tall_matrices(m, n):
    z = _gaussian(np.random.default_rng(m * n), (m, n))
    zero_column = z.copy()
    zero_column[:, -1] = 0.0
    repeated_column = z.copy()
    repeated_column[:, -1] = 2.0 * z[:, 0]
    nan_entry = z.copy()
    nan_entry[m // 2, n // 2] = np.nan
    inf_entry = z.copy()
    inf_entry[0, n - 1] = np.inf
    return {"zero column": zero_column, "repeated column": repeated_column,
            "rank one": np.outer(z[:, 0], z[0]), "nan entry": nan_entry,
            "inf entry": inf_entry}


@pytest.mark.parametrize("shape", ((3, 2), (8, 4), (16, 3)))
@pytest.mark.parametrize("kind", ("zero column", "repeated column", "rank one",
                                  "nan entry", "inf entry"))
def test_tall_qr_rejects_rank_deficient_and_non_finite_input(shape, kind):
    with pytest.raises(DegeneracyError):
        orthonormalize_qr(_degenerate_tall_matrices(*shape)[kind])


@pytest.mark.parametrize("shape", ((2, 3), (4, 8), (1, 2)))
def test_wide_qr_input_is_rejected(shape):
    with pytest.raises(ValueError):
        orthonormalize_qr(np.ones(shape, dtype=complex))


def _one_blas_thread_in_effect():
    threads = experiments._bundled_openblas()
    return threads is not None and threads[0]() == 1


@PROPERTY
@given(st.integers(1, 128), st.data(), st.integers(0, 2 ** 64 - 1))
def test_haar_columns_are_the_leading_columns_of_the_full_draw(dim, data, seed):
    columns = data.draw(st.integers(1, dim))
    rng_thin, rng_full = np.random.default_rng(seed), np.random.default_rng(seed)
    with experiments._one_blas_thread():
        thin = haar_unitary(dim, rng_thin, columns=columns)
        full = haar_unitary(dim, rng_full)[:, :columns]
        exact = _one_blas_thread_in_effect()
    assert thin.shape == (dim, columns)
    # the whole dim x dim draw is taken: the stream goes on where it did
    assert rng_thin.bit_generator.state == rng_full.bit_generator.state
    if exact:
        assert np.array_equal(bits(thin), bits(full))
    else:
        # several BLAS threads split the QR's column work by column count
        assert np.max(np.abs(thin - full)) <= 1e-13


@pytest.mark.parametrize("columns", (0, -1, 9))
def test_haar_columns_out_of_range_are_rejected(columns):
    with pytest.raises(ValueError):
        haar_unitary(8, np.random.default_rng(0), columns=columns)


# --------------------------------------------------------- apply_unitary

def reference_apply(amplitudes, dims, op, targets):
    """Move the targets to the front, multiply, move them back."""
    d_t = int(np.prod([dims[i] for i in targets]))
    moved = np.moveaxis(amplitudes.reshape(dims), targets, range(len(targets)))
    rest_shape = moved.shape[len(targets):]
    mat = op @ moved.reshape(d_t, -1)
    out = mat.reshape([dims[i] for i in targets] + list(rest_shape))
    return np.moveaxis(out, range(len(targets)), targets).reshape(-1)


@st.composite
def qubit_runs(draw):
    n = draw(st.integers(1, 10))
    start = draw(st.integers(0, n - 1))
    length = draw(st.integers(1, n - start))
    return n, list(range(start, start + length))


@PROPERTY
@given(qubit_runs(), st.integers(0, 2 ** 32 - 1))
def test_apply_unitary_on_a_run_is_bit_identical_to_moving_axes(run, seed):
    n, targets = run
    dims = [2] * n
    d_t = 2 ** len(targets)
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    op = rng.standard_normal((d_t, d_t)) + 1j * rng.standard_normal((d_t, d_t))
    got = apply_unitary(amp, dims, op, targets)
    assert np.array_equal(bits(got), bits(reference_apply(amp, dims, op, targets)))


def reference_schmidt_factor(amplitudes, dims, keep):
    """Move the kept subsystems to the front and flatten the rest."""
    d = int(np.prod([dims[i] for i in keep]))
    return np.moveaxis(amplitudes.reshape(dims), keep, range(len(keep))).reshape(d, -1)


@PROPERTY
@given(qubit_runs(), st.integers(0, 2 ** 32 - 1))
def test_schmidt_factor_of_a_run_is_bit_identical_to_moving_axes(run, seed):
    n, keep = run
    dims = [2] * n
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    got = linalg._run_matrix(amp, dims, tuple(keep))[0]
    assert np.array_equal(bits(got), bits(reference_schmidt_factor(amp, dims, keep)))
    # reduced_density attaches that matrix where it is a view of the amplitudes
    if keep[0] == 0 or keep[-1] == n - 1:
        factor = reduced_density(amp, dims, keep).factor
        assert np.shares_memory(factor, amp)
        assert np.array_equal(bits(factor), bits(got))


# ---------------------------------------------------- build_initial_state

def kron_chain_state(spec):
    k0, k1 = basis_states(spec.basis)
    amp = k1 if spec.key_bit else k0
    for _ in range(spec.n_qubits - 1):
        amp = np.kron(amp, k0)
    return amp


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("key_bit", (0, 1))
def test_initial_state_is_bit_identical_to_the_kron_chain(basis, key_bit):
    for nl in range(1, 9):
        for ne in range(1, 9):
            if 2 + nl * ne > 14:
                continue
            spec = ScenarioSpec(basis=basis, key_bit=key_bit, n_layers=nl,
                                qubits_per_layer=ne, epsilon=0.5)
            got = build_initial_state(spec).amplitudes
            assert np.array_equal(bits(got), bits(kron_chain_state(spec))), (nl, ne)


# ------------------------------------------------ low-rank discrimination

@st.composite
def layer_state_pairs(draw):
    """Eve's one-layer states for both key bits, as run_exchange_pair reduces them."""
    spec = ScenarioSpec(
        basis=draw(st.sampled_from(BASES)), key_bit=0, n_layers=1,
        qubits_per_layer=draw(st.integers(1, 7)), epsilon=draw(st.floats(0.0, 1.0)),
        alpha=draw(st.sampled_from([0.0, 0.3])), seed=draw(st.integers(0, 2 ** 32 - 1)))
    return run_exchange_pair(spec)


def check_route(rho0, rho1):
    # the rest of a one-layer chain is two qubits, so each factor has 4
    # columns: the low-rank route is taken exactly when 4 + 4 < dim
    low_rank = eavesdropper._signed_factor(rho0, rho1, rho0.dim)
    assert (low_rank is not None) == (rho0.dim > 8)


@PROPERTY
@given(layer_state_pairs())
def test_factor_reproduces_the_reduced_matrix_bit_for_bit(pair):
    for rho in pair:
        # the last layer's factor is a view, one column per basis state of the
        # 4-dimensional rest
        assert rho.factor.shape == (rho.dim, 4)
        assert np.array_equal(bits(rho.factor @ rho.factor.conj().T), bits(rho.matrix))


@PROPERTY
@given(layer_state_pairs())
def test_low_rank_helstrom_matches_dense(pair):
    rho0, rho1 = pair
    check_route(rho0, rho1)
    got = helstrom_pguess(rho0, rho1)
    want = helstrom_pguess(rho0.matrix, rho1.matrix)
    assert abs(got - want) <= 1e-12
    assert 0.5 <= got <= 1.0 + 1e-12
    # full access is the antenna on the whole layer, on either route
    for states in ((rho0, rho1), (rho0.matrix, rho1.matrix)):
        assert subspace_pguess(*states, None) == helstrom_pguess(*states)
        with pytest.raises(ValueError):
            subspace_pguess(*states, np.eye(2 * rho0.dim, 1))


@PROPERTY
@given(layer_state_pairs(), st.integers(0, 2 ** 32 - 1))
def test_low_rank_antennas_match_dense(pair, seed):
    rho0, rho1 = pair
    check_route(rho0, rho1)
    ks = range(int(math.log2(rho0.dim)) + 1)
    got = nested_control_pguess(rho0, rho1, ks, np.random.default_rng(seed))
    want = nested_control_pguess(rho0.matrix, rho1.matrix, ks, np.random.default_rng(seed))
    assert got.keys() == want.keys()
    for k in ks:
        assert abs(got[k] - want[k]) <= 1e-12, k
        assert 0.5 <= got[k] <= 1.0 + 1e-12
    # nested antennas: a larger subspace never loses trace norm
    values = [got[k] for k in ks]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def full_frame_nested_control(rho0, rho1, ks, rng):
    """The antenna on the full Haar unitary: its leading 2^k columns per rank."""
    dim = np.asarray(getattr(rho0, "matrix", rho0)).shape[0]
    u = haar_unitary(dim, rng)
    return {k: 0.5 if k == 0 else subspace_pguess(rho0, rho1, u[:, : 2 ** k])
            for k in sorted(set(ks))}


@st.composite
def antenna_cases(draw):
    """A layer-state pair from chains of 1-2 layers and any set of ranks."""
    nl = draw(st.integers(1, 2))
    ne = draw(st.integers(1, 7 if nl == 1 else 6))
    spec = ScenarioSpec(
        basis=draw(st.sampled_from(BASES)), key_bit=0, n_layers=nl, qubits_per_layer=ne,
        epsilon=draw(st.floats(0.0, 1.0)), alpha=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(0, 2 ** 32 - 1)), eve_layer=draw(st.integers(1, nl)))
    ks = draw(st.sets(st.integers(0, ne)))
    return (*run_exchange_pair(spec), ks)


# a 128-dimensional dense antenna costs milliseconds per rank
@settings(PROPERTY, max_examples=100)
@given(antenna_cases(), st.integers(0, 2 ** 64 - 1))
def test_thin_antenna_matches_the_full_frame(case, seed):
    rho0, rho1, ks = case
    full_rank = int(math.log2(rho0.dim))
    # the factor route (when the states carry factors), then the dense one
    for pair in ((rho0, rho1), (rho0.matrix, rho1.matrix)):
        got = nested_control_pguess(*pair, ks, np.random.default_rng(seed))
        want = full_frame_nested_control(*pair, ks, np.random.default_rng(seed))
        assert got.keys() == want.keys() == ks
        for k in ks:
            assert abs(got[k] - want[k]) <= 1e-12, k
        if full_rank in ks:
            # the whole layer is read with no frame, as helstrom_pguess reads it
            assert got[full_rank] == helstrom_pguess(*pair)


@pytest.mark.parametrize(
    "keep", ((2, 3, 4, 5, 6, 7, 8), (0, 1, 2, 3, 4), (1, 3, 5, 7, 8), (2, 3, 4)))
def test_reduced_forms_the_schmidt_factor_once(keep, monkeypatch):
    rng = np.random.default_rng(9)
    amp = rng.standard_normal(2 ** 9) + 1j * rng.standard_normal(2 ** 9)
    state = StateVector(amp / np.linalg.norm(amp), (2,) * 9)
    if keep != tuple(range(keep[0], keep[-1] + 1)):
        # only a run of adjacent subsystems has a reduction of its own
        with pytest.raises(ValueError):
            state.reduced(keep)
        return
    calls = []
    original = linalg._run_matrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(linalg, "_run_matrix", counted)
    rho = state.reduced(keep)
    assert len(calls) == 1
    monkeypatch.undo()
    want = reduced_density(state.amplitudes, state.dims, keep).matrix
    assert np.array_equal(bits(rho.matrix), bits(want))
    # a run at either end of the state is a view of it, and is attached; a
    # middle run would be a copy of the whole state, and is not
    touches_an_end = keep[0] == 0 or keep[-1] == len(state.dims) - 1
    assert (rho.factor is not None) == touches_an_end
    if touches_an_end:
        assert np.shares_memory(rho.factor, state.amplitudes)
        assert np.array_equal(bits(rho.factor @ rho.factor.conj().T), bits(want))


def test_factor_with_the_wrong_row_count_is_rejected():
    rho = np.eye(4) / 4
    for factor in (np.ones((2, 4)), np.ones((8, 1)), np.ones(4)):
        with pytest.raises(ValueError):
            DensityMatrix(rho, (2, 2), factor=factor)
    assert DensityMatrix(rho, (2, 2), factor=np.eye(4) / 2).factor.shape == (4, 4)


def threshold_then_reduce(state, keep):
    """The reduction reduced_density replaced, frozen as its reference.

    It formed the Schmidt factor F of the kept run and kept it on the
    DensityMatrix only when the kept dimension d had d * d > D.
    """
    keep = sorted(set(keep))
    k0, k1 = keep[0], keep[-1] + 1
    d = math.prod(state.dims[k0:k1])
    left = math.prod(state.dims[:k0])
    f = state.amplitudes.reshape(left, d, -1).transpose(1, 0, 2).reshape(d, -1)
    mat = f @ f.conj().T
    factor = f if d * d > state.amplitudes.size else None
    return DensityMatrix(mat, tuple(state.dims[i] for i in keep), factor=factor)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("nl", (1, 2, 3))
def test_always_attached_factor_keeps_every_guess_bit_for_bit(nl, basis):
    # the route that _signed_factor picks for the factor attached where it is
    # a view is the one the thresholded factor took, so every value is unchanged
    for ne in range(1, 8):
        if 2 + nl * ne > 14:
            continue
        spec = ScenarioSpec(basis=basis, key_bit=0, n_layers=nl, qubits_per_layer=ne,
                            epsilon=0.4, alpha=0.3, seed=1000 * nl + ne)
        states = [run_exchange(replace(spec, key_bit=b)) for b in (0, 1)]
        for layer in range(1, nl + 1):
            keep = spec.layer_qubits(layer)
            new = [reduced_density(s.amplitudes, s.dims, keep) for s in states]
            old = [threshold_then_reduce(s, keep) for s in states]
            assert helstrom_pguess(*new) == helstrom_pguess(*old), (ne, layer)
            ks = range(ne + 1)
            got = nested_control_pguess(*new, ks, np.random.default_rng(ne))
            want = nested_control_pguess(*old, ks, np.random.default_rng(ne))
            assert got == want, (ne, layer)


# ------------------------------------------------------ basis equivalence

@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.floats(0.0, 1.0),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2 ** 32 - 1))
def test_bases_agree_draw_for_draw(ne, nl, eps, alpha, seed):
    # 2 + nl * ne <= 14 on the whole range
    spec = ScenarioSpec(basis=COMPUTATIONAL, key_bit=0, n_layers=nl, qubits_per_layer=ne,
                        epsilon=eps, alpha=alpha, seed=seed)
    comp = run_exchange_pair(spec)
    had = run_exchange_pair(replace(spec, basis=HADAMARD))
    h = np.eye(1)
    for _ in range(ne):
        h = np.kron(h, HADAMARD_GATE)
    # the Hadamard scenario's layer states are the H-conjugates of the computational ones
    for c, d in zip(comp, had):
        want = h @ c.matrix @ h
        assert np.max(np.abs(d.matrix - want)) <= 1e-12
    p_comp = helstrom_pguess(*comp)
    p_had = helstrom_pguess(*had)
    assert abs(p_comp - p_had) <= 1e-12
