"""Discrimination, partial control, information measures, closed forms."""

import math

import numpy as np
import pytest

from qdleak.eavesdropper import (
    analytic_key_rate,
    analytic_pguess,
    helstrom_pguess,
    key_rate,
    keyrate_variant_report,
    mutual_information,
    nested_control_pguess,
    sign_flipped_difference_keyrate,
    subset_pguess,
    subspace_pguess,
)
from qdleak.errors import DegeneracyError
from qdleak.linalg import haar_unitary
from qdleak.model import ScenarioSpec, run_exchange_pair

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)


def dm(vec):
    return np.outer(vec, vec.conj())


def random_density(dim, rng, rank=None):
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def binary_entropy(p):
    """Independent oracle via natural logs."""
    total = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            total -= x * math.log(x) / math.log(2.0)
    return total


# ------------------------------------------------------------ helstrom

def test_identical_states_are_coin_flips():
    rng = np.random.default_rng(0)
    rho = random_density(4, rng)
    assert abs(helstrom_pguess(rho, rho) - 0.5) < 1e-12


def test_orthogonal_states_are_certain():
    assert abs(helstrom_pguess(dm(KET0), dm(KET1)) - 1.0) < 1e-12


def test_zero_against_plus_hand_value():
    # eigenvalues of (|0><0| - |+><+|)/2 are +-1/(2 sqrt 2)
    expected = 0.5 + 1.0 / (2.0 * math.sqrt(2.0))
    assert abs(helstrom_pguess(dm(KET0), dm(PLUS)) - expected) < 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_helstrom_invariant_under_joint_conjugation(seed):
    rng = np.random.default_rng(100 + seed)
    rho0, rho1 = random_density(8, rng), random_density(8, rng)
    u = haar_unitary(8, rng)
    a = helstrom_pguess(rho0, rho1)
    b = helstrom_pguess(u @ rho0 @ u.conj().T, u @ rho1 @ u.conj().T)
    assert abs(a - b) < 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_helstrom_beats_sampled_measurements(seed):
    # brute-force oracle: no random two-outcome POVM outperforms the bound,
    # and the measurement along the difference eigenspaces attains it
    rng = np.random.default_rng(200 + seed)
    rho0, rho1 = random_density(4, rng, rank=2), random_density(4, rng)
    bound = helstrom_pguess(rho0, rho1)
    delta = 0.5 * rho0 - 0.5 * rho1
    for _ in range(200):
        v = haar_unitary(4, rng)
        m = v @ np.diag(rng.uniform(0, 1, size=4)) @ v.conj().T
        p_meas = 0.5 + np.trace(m @ delta).real
        assert p_meas <= bound + 1e-12
    w, vecs = np.linalg.eigh(delta)
    m_opt = vecs[:, w > 0] @ vecs[:, w > 0].conj().T
    assert abs((0.5 + np.trace(m_opt @ delta).real) - bound) < 1e-9


def test_query_validation():
    # every discrimination function checks for two square states of one dimension
    rng = np.random.default_rng(7)
    for rho0, rho1 in ((np.eye(2) / 2, np.eye(4) / 4), (np.ones((2, 4)), np.ones((2, 4))),
                       (np.ones(4), np.ones(4))):
        with pytest.raises(ValueError):
            helstrom_pguess(rho0, rho1)
        with pytest.raises(ValueError):
            subspace_pguess(rho0, rho1, np.eye(2)[:, :1])
        with pytest.raises(ValueError):
            subset_pguess(rho0, rho1, (0,))
        with pytest.raises(ValueError):
            nested_control_pguess(rho0, rho1, (0,), rng)


# ---------------------------------------------------- partial control

def test_full_rank_restriction_recovers_helstrom():
    rng = np.random.default_rng(1)
    rho0, rho1 = random_density(8, rng), random_density(8, rng)
    full = helstrom_pguess(rho0, rho1)
    got = nested_control_pguess(rho0, rho1, (3,), np.random.default_rng(5))[3]
    assert abs(got - full) < 1e-10
    assert abs(subset_pguess(rho0, rho1, (0, 1, 2)) - full) < 1e-10


def test_zero_control_is_pure_guessing():
    rng = np.random.default_rng(2)
    rho0, rho1 = random_density(4, rng), random_density(4, rng)
    assert nested_control_pguess(rho0, rho1, (0,), rng) == {0: 0.5}
    assert subset_pguess(rho0, rho1, ()) == 0.5


def test_nested_control_rejects_oversized_rank():
    rng = np.random.default_rng(3)
    rho0, rho1 = random_density(4, rng), random_density(4, rng)
    with pytest.raises(ValueError):
        nested_control_pguess(rho0, rho1, (1, 3), rng)


def test_subset_rejects_bad_indices_and_layer_dimension():
    rng = np.random.default_rng(3)
    rho0, rho1 = random_density(4, rng), random_density(4, rng)
    for subset in ((0, 0), (2,), (-1,)):
        with pytest.raises(ValueError):
            subset_pguess(rho0, rho1, subset)
    with pytest.raises(ValueError):
        subset_pguess(np.eye(3) / 3, np.eye(3) / 3, (0,))


def test_nested_control_monotone_per_draw():
    rng = np.random.default_rng(4)
    for seed in range(20):
        rho0, rho1 = random_density(8, rng), random_density(8, rng)
        per_k = nested_control_pguess(rho0, rho1, (0, 1, 2, 3),
                                      np.random.default_rng(seed))
        values = [per_k[k] for k in (0, 1, 2, 3)]
        assert values[0] == 0.5
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(3))
        full = helstrom_pguess(rho0, rho1)
        assert abs(values[-1] - full) < 1e-10


def test_qubit_subset_hand_case():
    # bit encoded in qubit 0 only: subset {0} is perfect, subset {1} is blind
    rho0 = dm(np.kron(KET0, KET0))
    rho1 = dm(np.kron(KET1, KET0))
    assert abs(subset_pguess(rho0, rho1, (0,)) - 1.0) < 1e-12
    assert abs(subset_pguess(rho0, rho1, (1,)) - 0.5) < 1e-12


def test_subspace_pguess_checks_dimensions():
    rng = np.random.default_rng(6)
    rho0, rho1 = random_density(4, rng), random_density(4, rng)
    with pytest.raises(ValueError):
        subspace_pguess(rho0, rho1, np.eye(8)[:, :2])


# ---------------------------------------------- information measures

def test_mutual_information_endpoints():
    assert mutual_information(0.5) == 0.0
    assert mutual_information(1.0) == 1.0


def test_key_rate_endpoints():
    assert key_rate(0.5) == 1.0
    assert key_rate(1.0) == 0.0
    assert math.copysign(1.0, key_rate(1.0)) == 1.0  # +0.0, not -0.0


def test_mutual_information_hand_value():
    p = 0.5 + 1.0 / (2.0 * math.sqrt(2.0))
    expected = 1.0 - binary_entropy(p)
    assert abs(mutual_information(p) - expected) < 1e-12
    assert abs(mutual_information(p) - 0.39912) < 5e-6


def test_identity_holds_exactly():
    for p in np.linspace(0.5, 1.0, 101):
        assert mutual_information(p) + key_rate(p) == 1.0
        assert abs(key_rate(p) - binary_entropy(p)) < 1e-12


def test_information_measures_reject_out_of_range():
    for bad in (0.4, 1.1, -0.2):
        with pytest.raises(ValueError):
            mutual_information(bad)
        with pytest.raises(ValueError):
            key_rate(bad)


# -------------------------------------------------------- closed forms

def test_analytic_pguess_perfect_chain():
    assert abs(analytic_pguess(1, 0.0, 0.0) - 1.0) < 1e-15


def test_analytic_pguess_no_interaction():
    for n in (1, 2, 5):
        assert abs(analytic_pguess(n, 1.0, 0.0) - 0.5) < 1e-15


def test_analytic_pguess_two_layer_hand_value():
    # p = q = 1/2: 1/2 + 1/2 * (1/2)^3 / (1/2)^{3/2} = 1/2 + 2^{-3/2}/2
    expected = 0.5 + 0.5 * (0.5 ** 3) / (0.5 ** 1.5)
    got = analytic_pguess(2, 0.5, 0.0)
    assert abs(got - expected) < 1e-15
    assert abs(got - 0.67678) < 5e-6


def test_analytic_pguess_single_layer_half_mixing():
    assert abs(analytic_pguess(1, 0.5, 0.0) - 0.8535533905932737) < 1e-12


def test_analytic_pguess_monotone_in_layers():
    for eps in (0.1, 0.5, 0.9):
        values = [analytic_pguess(n, eps, 0.0) for n in range(1, 7)]
        assert all(values[i] >= values[i + 1] - 1e-15 for i in range(5))


def test_analytic_degeneracy():
    with pytest.raises(DegeneracyError):
        analytic_pguess(2, 0.5, 3 * math.pi / 2)


def test_analytic_key_rate_values():
    assert abs(analytic_key_rate(1, 1.0, 0.0) - 1.0) < 1e-15
    assert abs(analytic_key_rate(1, 0.0, 0.0) - 0.0) < 1e-15
    p = analytic_pguess(1, 0.7, 0.0)
    assert abs(p - 0.69696) < 5e-5
    r = analytic_key_rate(1, 0.7, 0.0)
    assert abs(r - binary_entropy(p)) < 1e-12
    assert abs(r - 0.8849) < 5e-4


def test_analytic_key_rate_half_mixing():
    r = analytic_key_rate(1, 0.5, 0.0)
    assert abs(r - 0.60088) < 5e-6


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.1, 0.4, 0.8])
@pytest.mark.parametrize("alpha", [0.0, math.pi / 6])
def test_analytic_matches_simulation(n, eps, alpha):
    predicted = analytic_pguess(n, eps, alpha)
    spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=n,
                        qubits_per_layer=1, epsilon=eps, alpha=alpha,
                        mode="analytic", seed=0)
    out0, out1 = run_exchange_pair(spec)
    simulated = helstrom_pguess(out0.rho_eve_layer, out1.rho_eve_layer)
    assert abs(simulated - predicted) < 1e-9


# -------------------------------------------------- variant diagnostics

def test_sign_flipped_variant_is_negated_key_rate():
    for p in np.linspace(0.5, 1.0, 50):
        assert sign_flipped_difference_keyrate(p) == -key_rate(p)


def test_variant_report_flags_the_defective_forms():
    rep = keyrate_variant_report(2, 0.3, 0.0)
    # the sign-flipped difference equals exactly -canonical ...
    assert rep["deviation_sign_flipped"] == 0.0
    assert rep["sign_flipped_difference"] == -rep["canonical"]
    # ... while the other variants genuinely disagree with the canonical value
    assert rep["deviation_chain_form"] > 1e-3
    rep1 = keyrate_variant_report(1, 0.3, 0.0)
    assert rep1["deviation_single_layer"] > 1e-3


def test_variant_report_single_layer_coincides_at_equal_pq():
    # p = q at eps=0.5, alpha=0: the squared-term slip is invisible there
    rep = keyrate_variant_report(1, 0.5, 0.0)
    assert rep["deviation_single_layer"] < 1e-12


def test_variant_report_no_interaction_edge():
    rep = keyrate_variant_report(3, 1.0, 0.0)
    assert rep["canonical"] == 1.0
    assert rep["deviation_chain_form"] < 1e-12
