"""System-apparatus-environment model of a single BB84 exchange.

A round couples one signal qubit S to a measurement apparatus A, then lets
the apparatus state spread into an environment organized as n_layers layers
of qubits_per_layer qubits each. Information hops layer to layer through
conditional unitaries: each link reads its source register through a
complementary projector pair and rotates the next layer accordingly.

Two interaction modes are supported:

* ``analytic`` — single-qubit layers with the fixed conditional pair
  (identity, q_prime(epsilon, alpha)); this model has a closed-form guessing
  probability and is used as the exact oracle.
* ``haar`` — multi-qubit layers whose conditional rotations are per-qubit
  noisy unitaries QR(epsilon*I + (1-epsilon)*V) with V Haar-random, and whose
  interior projector pairs come from random real symmetric matrices.

Everything is drawn from a seeded generator in a fixed order, so a scenario
is a pure function of its spec.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DegeneracyError
from .linalg import (
    DensityMatrix,
    StateVector,
    haar_unitary,
    kron,
    kron_all,
    orthonormalize_qr,
    random_complementary_projectors,
)

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"
BASES = (COMPUTATIONAL, HADAMARD)

MODE_ANALYTIC = "analytic"
MODE_HAAR = "haar"
MODES = (MODE_ANALYTIC, MODE_HAAR)

HADAMARD_GATE = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def cx(alpha):
    """Rotated controlled-flip target block: a real reflection, X at alpha=0."""
    s, c = np.sin(alpha), np.cos(alpha)
    return np.array([[s, c], [c, -s]], dtype=complex)


def cz(alpha):
    """Hadamard-conjugated counterpart of cx: H @ cx(alpha) @ H, Z at alpha=0."""
    return HADAMARD_GATE @ cx(alpha) @ HADAMARD_GATE


def coupling_pq(epsilon, alpha):
    """(p, q, sqrt(p**2 + q**2)) of the noisy coupling; raises at p = q = 0.

    p = epsilon + (1-epsilon) sin(alpha), q = (1-epsilon) cos(alpha).
    """
    p = epsilon + (1.0 - epsilon) * math.sin(alpha)
    q = (1.0 - epsilon) * math.cos(alpha)
    n2 = p * p + q * q
    if n2 < 1e-24:
        raise DegeneracyError(
            f"degenerate coupling: p = q = 0 at epsilon={epsilon}, alpha={alpha}")
    return p, q, math.sqrt(n2)


def q_prime(epsilon, alpha):
    """Unitarized noisy coupling [[p, -q], [q, p]] / sqrt(p**2 + q**2).

    p = epsilon + (1-epsilon) sin(alpha), q = (1-epsilon) cos(alpha). This is
    the closed form of the orthonormal factor of epsilon*I + (1-epsilon)*cx(alpha)
    (up to the column-sign convention), and stays well defined even where that
    mixture is rank-deficient.
    """
    p, q, n = coupling_pq(epsilon, alpha)
    return np.array([[p, -q], [q, p]], dtype=complex) / n


def basis_states(basis):
    """The two pointer states of a basis, as column vectors."""
    if basis == COMPUTATIONAL:
        return _KET0.copy(), _KET1.copy()
    if basis == HADAMARD:
        return HADAMARD_GATE @ _KET0, HADAMARD_GATE @ _KET1
    raise ValueError(f"unknown basis {basis!r}")


def basis_projectors(basis):
    """Rank-1 projector pair onto the basis pointer states."""
    k0, k1 = basis_states(basis)
    return np.outer(k0, k0.conj()), np.outer(k1, k1.conj())


def build_premeasurement(basis, alpha):
    """4x4 unitary correlating the signal qubit with the apparatus.

    computational: P0 (x) I + P1 (x) cx(alpha); hadamard: P+ (x) I + P- (x) cz(alpha).
    At alpha = 0 these are the standard CNOT and its Hadamard-frame twin.
    """
    p0, p1 = basis_projectors(basis)
    cond = cx(alpha) if basis == COMPUTATIONAL else cz(alpha)
    return kron(p0, np.eye(2, dtype=complex)) + kron(p1, cond)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one exchange instance.

    basis is both the encoding and the measurement basis (only accepted,
    basis-matched rounds are modeled here). epsilon in [0, 1] limits every
    apparatus-environment and interlayer coupling (1 = no interaction).
    alpha rotates the analytic-mode interlayer coupling; in haar mode it
    rotates the premeasurement instead (the haar couplings carry their own
    randomness). eve_layer selects which layer the eavesdropper reads
    (1-based; None = last).
    """

    basis: str
    key_bit: int
    n_layers: int
    qubits_per_layer: int
    epsilon: float
    alpha: float = 0.0
    mode: str = MODE_HAAR
    seed: int = 0
    eve_layer: int | None = None

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.key_bit not in (0, 1):
            raise ValueError("key_bit must be 0 or 1")
        if not 1 <= self.n_layers <= 8:
            raise ValueError("n_layers must be in 1..8")
        if not 1 <= self.qubits_per_layer <= 8:
            raise ValueError("qubits_per_layer must be in 1..8")
        if 2 + self.n_layers * self.qubits_per_layer > 14:
            raise ValueError("total qubit count 2 + n_layers*qubits_per_layer exceeds 14")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == MODE_ANALYTIC and self.qubits_per_layer != 1:
            raise ValueError("analytic mode requires qubits_per_layer == 1")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.eve_layer is not None and not 1 <= self.eve_layer <= self.n_layers:
            raise ValueError("eve_layer must be in 1..n_layers")

    @property
    def n_qubits(self):
        return 2 + self.n_layers * self.qubits_per_layer

    @property
    def qubit_dims(self):
        return (2,) * self.n_qubits

    @property
    def layer_dim(self):
        return 2 ** self.qubits_per_layer

    def layer_qubits(self, layer):
        """Global qubit indices of a layer (1-based layer numbering)."""
        if not 1 <= layer <= self.n_layers:
            raise ValueError(f"layer {layer} out of range 1..{self.n_layers}")
        start = 2 + (layer - 1) * self.qubits_per_layer
        return tuple(range(start, start + self.qubits_per_layer))

    def resolved_eve_layer(self):
        return self.n_layers if self.eve_layer is None else self.eve_layer


@dataclass(frozen=True)
class ExchangeOutcome:
    """Final pure state plus the eavesdropper's reduced layer state."""

    global_state: StateVector
    rho_eve_layer: DensityMatrix


@dataclass(frozen=True)
class ChainLink:
    """One hop of the interaction chain.

    The link operator is projectors[0] (x) conditionals[0] +
    projectors[1] (x) conditionals[1], acting on source then target qubits.
    factors holds the per-qubit 2x2 factors of each conditional, which is a
    qubit-wise product.
    """

    source: tuple
    target: tuple
    projectors: tuple
    conditionals: tuple
    factors: tuple

    def operator(self):
        p0, p1 = self.projectors
        u0, u1 = self.conditionals
        op = kron(p0, u0)
        op += kron(p1, u1)
        return op


def _conjugate_all(mat, n_qubits):
    h = kron_all([HADAMARD_GATE] * n_qubits)
    return h @ mat @ h


def _noisy_qubit_unitary(epsilon, rng):
    v = haar_unitary(2, rng)
    return orthonormalize_qr(epsilon * np.eye(2, dtype=complex) + (1.0 - epsilon) * v)


def build_interaction_chain(spec, rng):
    """Ordered links A->E1, E1->E2, ..., E_{n-1}->E_n for a scenario.

    Analytic mode uses the fixed pair (identity, q_prime) and the basis
    projectors everywhere. Haar mode draws, per link, a conditional rotation
    of the target layer (branch 0 is the identity, branch 1 a per-qubit
    product of noisy unitaries) and, for interior links, a random
    complementary projector pair of half the layer dimension on the source.
    All operators are built in the computational frame and conjugated by
    Hadamards when the scenario basis is hadamard, which makes the two bases
    exactly unitarily equivalent draw for draw.
    """
    ne = spec.qubits_per_layer
    had = spec.basis == HADAMARD
    comp_proj = basis_projectors(COMPUTATIONAL)
    links = []
    for l in range(spec.n_layers):
        source = (1,) if l == 0 else spec.layer_qubits(l)
        target = spec.layer_qubits(l + 1)

        if l == 0:
            p0, p1 = comp_proj
        elif spec.mode == MODE_ANALYTIC:
            p0, p1 = comp_proj
        else:
            p0, p1 = random_complementary_projectors(
                spec.layer_dim, spec.layer_dim // 2, rng)

        ident = np.eye(spec.layer_dim, dtype=complex)
        if spec.mode == MODE_ANALYTIC:
            factors1 = [q_prime(spec.epsilon, spec.alpha)]
            u1 = factors1[0]
        else:
            factors1 = [_noisy_qubit_unitary(spec.epsilon, rng) for _ in range(ne)]
            u1 = kron_all(factors1)

        if had:
            p0 = _conjugate_all(p0, len(source))
            p1 = _conjugate_all(p1, len(source))
            u1 = _conjugate_all(u1, ne)
            factors1 = [_conjugate_all(f, 1) for f in factors1]

        factors = (tuple([np.eye(2, dtype=complex)] * ne), tuple(factors1))
        links.append(ChainLink(
            source=source, target=target, projectors=(p0, p1),
            conditionals=(ident, u1), factors=factors))
    return links


def build_initial_state(spec):
    """Product state |key_bit> (x) |ready apparatus> (x) fresh environment.

    computational: |b> (x) |0> (x) |0...0>; hadamard: the Hadamard frame of
    the same state, i.e. |+/-> (x) |+> (x) |+...+>.

    The amplitude of |i>|0...0> is sys[i] * k0[0] * ... * k0[0], multiplied
    left to right as the Kronecker chain sys (x) k0 (x) ... would. In the
    computational basis every other amplitude is zero; in the hadamard basis
    k0 = |+> has equal entries, so every amplitude whose first qubit is i
    equals that of |i>|0...0>.
    """
    k0, k1 = basis_states(spec.basis)
    sys = k1 if spec.key_bit else k0
    n = spec.n_qubits
    heads = []
    for head in sys:
        for _ in range(n - 1):
            head = head * k0[0]
        heads.append(head)
    if spec.basis == COMPUTATIONAL:
        amp = np.zeros(2 ** n, dtype=complex)
        amp[spec.key_bit << (n - 1)] = heads[spec.key_bit]
    else:
        amp = np.repeat(heads, 2 ** (n - 1))
    return StateVector(amp, spec.qubit_dims)


def run_exchange(spec):
    """Premeasure, run the interaction chain, and reduce.

    Returns the global pure state together with the state of the
    eavesdropper-accessible layer (spec.resolved_eve_layer()). Analytic mode uses the ideal (alpha = 0) premeasurement so the
    chain rotation is the only alpha dependence; haar mode premeasures with
    cx/cz(spec.alpha).
    """
    rng = np.random.default_rng(spec.seed)
    pm_alpha = 0.0 if spec.mode == MODE_ANALYTIC else spec.alpha
    state = build_initial_state(spec)
    state = state.apply(build_premeasurement(spec.basis, pm_alpha), (0, 1))
    for link in build_interaction_chain(spec, rng):
        state = state.apply(link.operator(), link.source + link.target)
        if abs(state.norm() - 1.0) > 1e-9:
            raise ContractError("state norm drifted beyond 1e-9 after a link")
    return ExchangeOutcome(
        global_state=state,
        rho_eve_layer=state.reduced(spec.layer_qubits(spec.resolved_eve_layer())),
    )


def run_exchange_pair(spec):
    """Run the same scenario for key bit 0 and key bit 1.

    Both runs share the seed, hence the same premeasurement and the same
    drawn chain — the physical device is identical, only the encoded bit
    differs. This is the state pair an eavesdropper must distinguish.
    """
    out0 = run_exchange(replace(spec, key_bit=0))
    out1 = run_exchange(replace(spec, key_bit=1))
    return out0, out1


@dataclass(frozen=True)
class DecoherenceFactorParams:
    """Settings for the collective decoherence factor.

    intercepted_fraction f removes the intercepted tail of the first-layer
    qubits from the product: only the first floor((1-f)*M) qubits count.
    pointer_basis must match the scenario's measurement basis; the monitored
    system is prepared in the uniform superposition of those pointer states
    (i.e. a rejected round).
    """

    pointer_basis: str
    intercepted_fraction: float = 0.0

    def __post_init__(self):
        if self.pointer_basis not in BASES:
            raise ValueError(f"pointer_basis must be one of {BASES}")
        if not 0.0 <= self.intercepted_fraction < 1.0:
            raise ValueError("intercepted_fraction must lie in [0, 1)")

    def used_qubits(self, available):
        used = math.floor((1.0 - self.intercepted_fraction) * available)
        if used < 1:
            raise ValueError(
                f"(1 - intercepted_fraction) * {available} qubits must be >= 1")
        return used


def _check_rejected_setup(spec, params):
    if params.pointer_basis != spec.basis:
        raise ContractError(
            "decoherence factor is defined for rejected rounds: pointer_basis "
            "must equal the scenario's measurement basis")


def decoherence_factor(spec, params):
    """Residual coherence of a rejected round after the first-layer coupling.

    The system is prepared in the uniform superposition of the measurement
    basis's pointer states, so its off-diagonal weights are |sigma_01| =
    |sigma_10| = 1/2. Each monitored qubit k of the first layer contributes
    the overlap gamma_k = Tr(U0_k rho0_k U1_k^dagger) between its two
    conditional evolutions; the result is

        sum_{i != j} |sigma_ij| * prod_k |gamma_ij_k|  =  prod_k |gamma_k|

    over the first floor((1-f)*M) qubits. 1 means no decoherence (epsilon=1),
    0 full decoherence. The chain is drawn from spec.seed.
    """
    _check_rejected_setup(spec, params)
    link = build_interaction_chain(spec, np.random.default_rng(spec.seed))[0]
    used = params.used_qubits(spec.qubits_per_layer)
    env0 = basis_states(spec.basis)[0]
    rho0 = np.outer(env0, env0.conj())
    gammas = [
        np.trace(f0 @ rho0 @ f1.conj().T)
        for f0, f1 in zip(link.factors[0][:used], link.factors[1][:used])
    ]
    sigma_off = 1.0  # |sigma_01| + |sigma_10| for the uniform superposition
    gamma_prod = float(np.prod([abs(g) for g in gammas]))
    return sigma_off * gamma_prod


def decoherence_factor_from_state(spec, params):
    """Same quantity, read off the simulated reduced state instead.

    Runs the rejected-round premeasurement plus only the first link, reduces
    to (system, apparatus), and sums the absolute off-diagonal elements
    between the pointer branches |i>|A_i>. Agrees with decoherence_factor
    whenever the premeasurement is ideal (always in analytic mode, alpha = 0
    in haar mode); a rotated premeasurement folds its own branch overlap in.
    """
    _check_rejected_setup(spec, params)
    if params.used_qubits(spec.qubits_per_layer) != spec.qubits_per_layer:
        raise ValueError(
            "state-based evaluation traces the whole first layer; "
            "it requires all first-layer qubits to be monitored")

    pm_alpha = 0.0 if spec.mode == MODE_ANALYTIC else spec.alpha
    k0, k1 = basis_states(spec.basis)
    sys = (k0 + k1) / np.sqrt(2.0)  # uniform pointer superposition
    env0 = basis_states(spec.basis)[0]
    amp = sys
    for _ in range(spec.n_qubits - 1):
        amp = np.kron(amp, env0)
    state = StateVector(amp, spec.qubit_dims)
    state = state.apply(build_premeasurement(spec.basis, pm_alpha), (0, 1))
    link = build_interaction_chain(spec, np.random.default_rng(spec.seed))[0]
    state = state.apply(link.operator(), link.source + link.target)

    rho_sa = state.reduced((0, 1)).matrix
    cond = cx(pm_alpha) if spec.basis == COMPUTATIONAL else cz(pm_alpha)
    branches = [np.kron(k0, env0), np.kron(k1, cond @ env0)]
    gamma = 0.0
    for i in (0, 1):
        for j in (0, 1):
            if i != j:
                gamma += abs(branches[i].conj() @ rho_sa @ branches[j])
    return float(gamma)
