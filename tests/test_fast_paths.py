"""Differential tests of the fast paths against the numpy code they replace.

`linalg.kron` on matrices must equal np.kron bit for bit; the closed-form
2x2 `orthonormalize_qr` must match LAPACK's QR with the positive-diagonal
phase fix and raise exactly where the SVD finds the input rank-deficient;
the larger `orthonormalize_qr`, which tests rank on R's diagonal, must equal
that QR bit for bit and still reject rank-deficient and NaN input;
`apply_unitary` on an ascending run of subsystems must equal the
move-targets-to-the-front route bit for bit;
`model.build_initial_state` must equal the Kronecker chain of its qubit
states bit for bit; the low-rank discrimination through Schmidt factors
must match the dense one on the bare matrices; the Hadamard-basis scenario
must be the Hadamard frame of the computational one, draw for draw. The
references are written out here, not imported.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdleak import eavesdropper
from qdleak.eavesdropper import helstrom_pguess, nested_control_pguess
from qdleak.errors import DegeneracyError
from qdleak.linalg import DensityMatrix, apply_unitary, kron, orthonormalize_qr
from qdleak.model import (
    BASES,
    COMPUTATIONAL,
    HADAMARD,
    HADAMARD_GATE,
    ScenarioSpec,
    basis_states,
    build_initial_state,
    cx,
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
    out0, out1 = run_exchange_pair(spec)
    return out0.rho_eve_layer, out1.rho_eve_layer


def check_route(rho0, rho1):
    # the rest of a one-layer chain is two qubits, so each factor has 4
    # columns: the low-rank route is taken exactly when 4 + 4 < dim
    low_rank = eavesdropper._signed_factor(rho0, rho1, rho0.dim)
    assert (low_rank is not None) == (rho0.dim > 8)


@PROPERTY
@given(layer_state_pairs())
def test_factor_reproduces_the_reduced_matrix_bit_for_bit(pair):
    for rho in pair:
        # kept only when the layer outweighs the 4-dimensional rest
        assert (rho.factor is not None) == (rho.dim > 4)
        if rho.factor is not None:
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


def test_factor_with_the_wrong_row_count_is_rejected():
    rho = np.eye(4) / 4
    for factor in (np.ones((2, 4)), np.ones((8, 1)), np.ones(4)):
        with pytest.raises(ValueError):
            DensityMatrix(rho, (2, 2), factor=factor)
    assert DensityMatrix(rho, (2, 2), factor=np.eye(4) / 2).factor.shape == (4, 4)


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
        want = h @ c.rho_eve_layer.matrix @ h
        assert np.max(np.abs(d.rho_eve_layer.matrix - want)) <= 1e-12
    p_comp = helstrom_pguess(comp[0].rho_eve_layer, comp[1].rho_eve_layer)
    p_had = helstrom_pguess(had[0].rho_eve_layer, had[1].rho_eve_layer)
    assert abs(p_comp - p_had) <= 1e-12
