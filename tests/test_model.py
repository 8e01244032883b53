"""Exchange-model tests: couplings, chains, reduced states, decoherence."""

import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qdleak import model
from qdleak.errors import ContractError, DegeneracyError
from qdleak.linalg import orthonormalize_qr
from qdleak.model import (
    COMPUTATIONAL,
    HADAMARD,
    ChainLink,
    DecoherenceFactorParams,
    ScenarioSpec,
    basis_states,
    build_initial_state,
    build_interaction_chain,
    build_premeasurement,
    coupling_pq,
    cx,
    cz,
    decoherence_factor,
    decoherence_factor_from_state,
    q_prime,
    run_exchange,
    run_exchange_pair,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


def analytic_spec(**kw):
    base = dict(basis=COMPUTATIONAL, key_bit=0, n_layers=1, qubits_per_layer=1,
                epsilon=0.5, alpha=0.0, mode="analytic", seed=0)
    base.update(kw)
    return ScenarioSpec(**base)


def haar_spec(**kw):
    base = dict(basis=COMPUTATIONAL, key_bit=0, n_layers=1, qubits_per_layer=2,
                epsilon=0.5, alpha=0.0, mode="haar", seed=0)
    base.update(kw)
    return ScenarioSpec(**base)


# -------------------------------------------------------------- gates

def test_cx_endpoints():
    np.testing.assert_allclose(cx(0.0), X, atol=1e-15)
    np.testing.assert_allclose(cx(math.pi / 2), Z, atol=1e-15)


def test_cz_is_hadamard_frame_of_cx():
    np.testing.assert_allclose(cz(0.0), Z, atol=1e-15)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    for alpha in (0.0, 0.3, 1.2):
        np.testing.assert_allclose(cz(alpha), h @ cx(alpha) @ h, atol=1e-14)


@pytest.mark.parametrize("alpha", [0.0, 0.4, math.pi / 3, 2.0])
def test_cx_cz_unitary_for_all_angles(alpha):
    for gate in (cx(alpha), cz(alpha)):
        np.testing.assert_allclose(gate.conj().T @ gate, I2, atol=1e-12)


# ------------------------------------------------------------ q_prime

def test_q_prime_pure_identity_mixing():
    np.testing.assert_allclose(q_prime(1.0, 0.7), I2, atol=1e-15)


def test_q_prime_zero_mixing_is_rotation():
    np.testing.assert_allclose(q_prime(0.0, 0.0),
                               np.array([[0, -1], [1, 0]]), atol=1e-15)


def test_q_prime_degenerate_coupling():
    # p = 0.5 + 0.5*sin(3pi/2) = 0 and q = 0.5*cos(3pi/2) = 0
    with pytest.raises(DegeneracyError):
        q_prime(0.5, 3 * math.pi / 2)


@pytest.mark.parametrize("eps,alpha", [
    (2.0, 0.0), (-0.1, 0.0), (math.nan, 0.0), (0.5, math.inf), (0.5, -math.inf),
    (0.5, math.nan),
])
def test_coupling_refuses_epsilon_outside_unit_interval_and_nonfinite_alpha(eps, alpha):
    # p and q have one home, so the closed forms and q_prime refuse alike
    for coupling in (coupling_pq, q_prime):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]|alpha must be finite"):
            coupling(eps, alpha)


@pytest.mark.parametrize("eps,alpha", [
    (0.7, 0.0), (0.9, 0.0), (0.6, math.pi / 6), (0.8, math.pi / 4),
])
def test_q_prime_matches_qr_above_half_mixing(eps, alpha):
    # det(eps*I + (1-eps)*cx) = 2*eps - 1 > 0 here, so the QR column signs
    # agree with the closed form exactly.
    m = eps * I2 + (1 - eps) * cx(alpha)
    np.testing.assert_allclose(orthonormalize_qr(m), q_prime(eps, alpha),
                               atol=1e-10)


@pytest.mark.parametrize("eps,alpha", [
    (0.3, 0.0), (0.1, math.pi / 6), (0.0, math.pi / 4),
])
def test_q_prime_matches_qr_up_to_column_sign_below_half(eps, alpha):
    m = eps * I2 + (1 - eps) * cx(alpha)
    qr = orthonormalize_qr(m)
    closed = q_prime(eps, alpha)
    np.testing.assert_allclose(qr[:, 0], closed[:, 0], atol=1e-10)
    col_err = min(np.max(np.abs(qr[:, 1] - closed[:, 1])),
                  np.max(np.abs(qr[:, 1] + closed[:, 1])))
    assert col_err < 1e-10


def test_q_prime_half_mixing_closed_form_where_qr_degenerates():
    with pytest.raises(DegeneracyError):
        orthonormalize_qr(0.5 * I2 + 0.5 * cx(0.0))
    np.testing.assert_allclose(np.abs(q_prime(0.5, 0.0)),
                               np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)


# ----------------------------------------------------- premeasurement

def test_premeasurement_computational_is_cnot_at_zero():
    cnot = np.eye(4)[:, [0, 1, 3, 2]]
    np.testing.assert_allclose(build_premeasurement(haar_spec()).operator(), cnot,
                               atol=1e-14)


def test_premeasurement_hadamard_leaves_plus_plus():
    u = build_premeasurement(haar_spec(basis=HADAMARD)).operator()
    state = np.kron(PLUS, PLUS)
    np.testing.assert_allclose(u @ state, state, atol=1e-12)


def test_premeasurement_copies_one():
    u = build_premeasurement(haar_spec()).operator()
    np.testing.assert_allclose(u @ np.kron(KET1, KET0), np.kron(KET1, KET1),
                               atol=1e-14)


@pytest.mark.parametrize("basis", [COMPUTATIONAL, HADAMARD])
@pytest.mark.parametrize("alpha", [0.0, 0.5, math.pi / 4])
def test_premeasurement_unitary(basis, alpha):
    u = build_premeasurement(haar_spec(basis=basis, alpha=alpha)).operator()
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)


# ------------------------------------------------------ initial states

def test_initial_state_computational_zero():
    sv = build_initial_state(analytic_spec(key_bit=0))
    expected = np.zeros(8)
    expected[0] = 1.0
    np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-15)


def test_initial_state_hadamard_one():
    sv = build_initial_state(analytic_spec(basis=HADAMARD, key_bit=1))
    expected = np.kron(np.kron(MINUS, PLUS), PLUS)
    np.testing.assert_allclose(sv.amplitudes, expected, atol=1e-14)


@pytest.mark.parametrize("basis", [COMPUTATIONAL, HADAMARD])
@pytest.mark.parametrize("key_bit", [0, 1])
@pytest.mark.parametrize("mode,ne", [("analytic", 1), ("haar", 2)])
def test_initial_state_normalized_two_layers(basis, key_bit, mode, ne):
    spec = ScenarioSpec(basis=basis, key_bit=key_bit, n_layers=2,
                        qubits_per_layer=ne, epsilon=0.3, mode=mode, seed=1)
    assert abs(build_initial_state(spec).norm() - 1.0) < 1e-12


# -------------------------------------------------------------- chain

def test_analytic_chain_single_link_structure():
    spec = analytic_spec(epsilon=0.6, alpha=0.2)
    (link,) = build_interaction_chain(spec)
    expected = np.kron(np.diag([1.0, 0.0]), I2) + \
        np.kron(np.diag([0.0, 1.0]), q_prime(0.6, 0.2))
    np.testing.assert_allclose(link.operator(), expected, atol=1e-12)
    assert link.source == (1,) and link.target == (2,)


def test_hadamard_analytic_chain_conjugates_coupling():
    spec = analytic_spec(basis=HADAMARD, epsilon=0.6, alpha=0.2)
    (link,) = build_interaction_chain(spec)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    p_plus = np.outer(PLUS, PLUS.conj())
    p_minus = np.outer(MINUS, MINUS.conj())
    expected = np.kron(p_plus, I2) + np.kron(p_minus, h @ q_prime(0.6, 0.2) @ h)
    np.testing.assert_allclose(link.operator(), expected, atol=1e-12)


def test_haar_chain_is_identity_at_full_damping():
    spec = haar_spec(epsilon=1.0, n_layers=2, qubits_per_layer=2, seed=5)
    links = build_interaction_chain(spec)
    for link in links:
        np.testing.assert_allclose(link.rotation, np.eye(4), atol=1e-12)
        op = link.operator()
        np.testing.assert_allclose(op, np.eye(len(op)), atol=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_haar_chain_links_unitary(seed):
    spec = haar_spec(n_layers=2, qubits_per_layer=2, epsilon=0.4, seed=seed)
    for link in build_interaction_chain(spec):
        op = link.operator()
        assert np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))) < 1e-10


# ------------------------------------------------------- run_exchange

def test_full_damping_leaks_nothing_both_modes():
    for spec in (analytic_spec(epsilon=1.0), haar_spec(epsilon=1.0, seed=9)):
        rho0, rho1 = run_exchange_pair(spec)
        np.testing.assert_allclose(rho0.matrix, rho1.matrix, atol=1e-10)


def test_perfect_chain_copies_the_bit():
    spec = analytic_spec(epsilon=0.0, alpha=0.0)
    rho0, rho1 = run_exchange_pair(spec)
    np.testing.assert_allclose(rho0.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(rho1.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_exchange_deterministic_per_seed():
    spec = haar_spec(seed=77, n_layers=2)
    keep = spec.layer_qubits(spec.resolved_eve_layer())
    a = run_exchange(spec)
    b = run_exchange(spec)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(a.reduced(keep).matrix, b.reduced(keep).matrix)
    c = run_exchange(replace(spec, seed=78))
    assert not np.allclose(a.reduced(keep).matrix, c.reduced(keep).matrix)


@pytest.mark.parametrize("basis", [COMPUTATIONAL, HADAMARD])
@pytest.mark.parametrize("key_bit", [0, 1])
def test_accepted_round_system_never_decoheres(basis, key_bit):
    spec = ScenarioSpec(basis=basis, key_bit=key_bit, n_layers=2,
                        qubits_per_layer=2, epsilon=0.3, mode="haar", seed=21)
    state = run_exchange(spec)
    k = np.array([1, 0]) if key_bit == 0 else np.array([0, 1])
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    pointer = k if basis == COMPUTATIONAL else h @ k
    rho_s = state.reduced((0,)).matrix
    np.testing.assert_allclose(rho_s, np.outer(pointer, pointer.conj()),
                               atol=1e-10)


def test_exchange_outcome_reduced_states_are_physical():
    spec = haar_spec(n_layers=3, qubits_per_layer=2, epsilon=0.2, seed=4)
    state = run_exchange(spec)
    rho = run_exchange_pair(spec)[0]  # spec holds key bit 0
    state.reduced((1,)).validate()
    rho.validate()
    assert rho.dim == 4
    # the default eavesdropper reads the last layer
    want = state.reduced(spec.layer_qubits(3)).matrix
    assert np.array_equal(rho.matrix, want)
    assert abs(state.norm() - 1.0) < 1e-9


def test_eve_layer_override():
    spec = haar_spec(n_layers=3, qubits_per_layer=2, epsilon=0.2, seed=4,
                     eve_layer=1)
    want = run_exchange(spec).reduced(spec.layer_qubits(1)).matrix
    assert np.array_equal(run_exchange_pair(spec)[0].matrix, want)  # spec holds key bit 0
    with pytest.raises(ValueError):
        haar_spec(n_layers=2, eve_layer=3)


@pytest.mark.parametrize("eve_layer", [1, 2])
def test_layer_pair_keeps_a_run_state_only_as_a_factor_view(eve_layer, monkeypatch):
    # at nl = 2 layer 1 is a middle run of the state and layer 2 ends it
    buffers = []
    run = model.run_exchange

    def recorded(spec):
        state = run(spec)
        a = state.amplitudes
        buffers.append(weakref.ref(a if a.base is None else a.base))
        return state

    monkeypatch.setattr(model, "run_exchange", recorded)
    pair = run_exchange_pair(haar_spec(n_layers=2, qubits_per_layer=3, epsilon=0.3,
                                       seed=5, eve_layer=eve_layer))
    gc.collect()
    alive = [b() for b in buffers]
    assert len(alive) == 2
    if eve_layer == 1:
        assert alive == [None, None]
        assert [rho.factor for rho in pair] == [None, None]
    else:
        for rho, buffer in zip(pair, alive):
            assert np.shares_memory(rho.factor, buffer)


def test_norm_drift_after_a_link_is_a_contract_violation(monkeypatch):
    operator = ChainLink.operator
    monkeypatch.setattr(ChainLink, "operator", lambda link: 1.1 * operator(link))
    with pytest.raises(ContractError, match="norm drifted"):
        run_exchange(haar_spec())


def test_norm_drift_in_the_reduced_state_oracle_is_a_contract_violation(monkeypatch):
    operator = ChainLink.operator
    monkeypatch.setattr(ChainLink, "operator", lambda link: 1.1 * operator(link))
    with pytest.raises(ContractError, match="norm drifted"):
        decoherence_factor_from_state(haar_spec(), DecoherenceFactorParams(COMPUTATIONAL))


def test_bitflip_symmetry_of_perfect_analytic_chain():
    # at epsilon=0, alpha=0 the chain is an exact bit copy, so swapping the
    # key bit conjugates the leaked layer by X
    for n_layers in (1, 2, 3):
        spec = analytic_spec(epsilon=0.0, alpha=0.0, n_layers=n_layers)
        rho0, rho1 = run_exchange_pair(spec)
        np.testing.assert_allclose(X @ rho0.matrix @ X, rho1.matrix, atol=1e-10)


def test_basis_equivalence_per_seed():
    # the hadamard scenario is the Hadamard frame of the computational one,
    # draw for draw: the leaked states are H-conjugates of each other
    for seed in range(5):
        sc = haar_spec(seed=seed, n_layers=2, epsilon=0.4)
        sh = replace(sc, basis=HADAMARD)
        keep = sc.layer_qubits(sc.resolved_eve_layer())
        rc = run_exchange(sc).reduced(keep).matrix
        rh = run_exchange(sh).reduced(keep).matrix
        h2 = np.kron(np.array([[1, 1], [1, -1]]) / np.sqrt(2),
                     np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        np.testing.assert_allclose(h2 @ rc @ h2, rh, atol=1e-10)


def test_scenario_validation():
    with pytest.raises(ValueError):
        analytic_spec(qubits_per_layer=2)  # analytic needs single-qubit layers
    with pytest.raises(ValueError):
        haar_spec(n_layers=8, qubits_per_layer=2)  # 18 qubits > 14
    with pytest.raises(ValueError):
        haar_spec(epsilon=1.5)
    with pytest.raises(ValueError):
        haar_spec(basis="diagonal")
    with pytest.raises(ValueError, match="unknown basis"):
        basis_states("diagonal")
    with pytest.raises(ValueError):
        haar_spec(key_bit=2)
    with pytest.raises(ValueError, match="n_layers must be in 1..8"):
        haar_spec(n_layers=0)
    with pytest.raises(ValueError, match="mode must be one of"):
        haar_spec(mode="dense")
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        haar_spec(seed=2 ** 64)
    with pytest.raises(ValueError, match="out of range"):
        haar_spec().layer_qubits(2)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha"):
            haar_spec(alpha=alpha)


# ------------------------------------------------- decoherence factor

def test_gamma_is_one_without_interaction():
    spec = haar_spec(epsilon=1.0, qubits_per_layer=3, seed=8)
    params = DecoherenceFactorParams(pointer_basis=COMPUTATIONAL)
    assert abs(decoherence_factor(spec, params) - 1.0) < 1e-12


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.8])
def test_gamma_single_qubit_hand_value(eps):
    # conditional pair (I, Q'(eps, 0)) on |0>: gamma = |<0|Q'^dag|0>| = p/N
    spec = analytic_spec(epsilon=eps)
    params = DecoherenceFactorParams(pointer_basis=COMPUTATIONAL)
    p, q = eps, 1 - eps
    expected = p / math.hypot(p, q)
    assert abs(decoherence_factor(spec, params) - expected) < 1e-12


def test_gamma_range_and_monotone_in_monitored_fraction():
    for seed in range(20):
        spec = haar_spec(qubits_per_layer=4, epsilon=0.2, seed=seed)
        values = []
        for f in (0.0, 0.3, 0.6):
            params = DecoherenceFactorParams(pointer_basis=COMPUTATIONAL,
                                             intercepted_fraction=f)
            values.append(decoherence_factor(spec, params))
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)
        # fewer monitored qubits -> fewer |gamma| <= 1 factors -> larger product
        assert values[0] <= values[1] + 1e-12 <= values[2] + 2e-12


def test_gamma_rejects_mismatched_pointer_basis():
    spec = haar_spec(seed=3)
    with pytest.raises(ContractError):
        decoherence_factor(spec, DecoherenceFactorParams(pointer_basis=HADAMARD))


def test_gamma_params_validation():
    with pytest.raises(ValueError):
        DecoherenceFactorParams(pointer_basis=COMPUTATIONAL,
                                intercepted_fraction=1.0)
    params = DecoherenceFactorParams(pointer_basis=COMPUTATIONAL,
                                     intercepted_fraction=0.5)
    assert params.used_qubits(5) == 2  # floor(0.5 * 5)
    with pytest.raises(ValueError):
        params.used_qubits(1)  # floor(0.5 * 1) = 0 monitored qubits
    with pytest.raises(ValueError, match="requires all first-layer qubits"):
        decoherence_factor_from_state(haar_spec(), params)
    with pytest.raises(ValueError, match="pointer_basis must be one of"):
        DecoherenceFactorParams(pointer_basis="diagonal")


@pytest.mark.parametrize("basis", [COMPUTATIONAL, HADAMARD])
@pytest.mark.parametrize("eps", [0.0, 0.4, 0.9])
def test_gamma_product_and_state_paths_agree_analytic(basis, eps):
    spec = analytic_spec(basis=basis, epsilon=eps, alpha=0.3)
    params = DecoherenceFactorParams(pointer_basis=basis)
    a = decoherence_factor(spec, params)
    b = decoherence_factor_from_state(spec, params)
    assert abs(a - b) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_gamma_product_and_state_paths_agree_haar(seed):
    spec = haar_spec(qubits_per_layer=3, epsilon=0.35, seed=seed, n_layers=2)
    params = DecoherenceFactorParams(pointer_basis=COMPUTATIONAL)
    a = decoherence_factor(spec, params)
    b = decoherence_factor_from_state(spec, params)
    assert abs(a - b) < 1e-9


def test_gamma_hadamard_equals_computational_analytic():
    for eps in (0.2, 0.6):
        gc = decoherence_factor(analytic_spec(epsilon=eps),
                                DecoherenceFactorParams(COMPUTATIONAL))
        gh = decoherence_factor(analytic_spec(basis=HADAMARD, epsilon=eps),
                                DecoherenceFactorParams(HADAMARD))
        assert abs(gc - gh) < 1e-12
