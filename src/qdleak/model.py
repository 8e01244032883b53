"""System-apparatus-environment model of a single BB84 exchange.

A round is a sequence of hops, each a ChainLink P0 (x) I + P1 (x) U that
reads its source register through a complementary projector pair and
rotates its target. Hop 0, the premeasurement, couples the signal qubit S to
the apparatus A; the links after it spread the apparatus state layer to
layer into n_layers environment layers of qubits_per_layer qubits each. One
loop applies every hop and checks the norm after each.

Two interaction modes are supported:

* ``analytic`` — single-qubit layers with the fixed conditional pair
  (identity, q_prime(epsilon, alpha)); this model has a closed-form guessing
  probability and is used as the exact oracle.
* ``haar`` — multi-qubit layers whose conditional rotations are per-qubit
  noisy unitaries QR(epsilon*I + (1-epsilon)*V) with V Haar-random, and whose
  interior projector pairs come from random real symmetric matrices.

A basis is a frame, a 2x2 unitary whose columns are its pointer states (the
identity, or the Hadamard gate); it and its projector pair are built once and
shared read-only. A Hadamard-basis chain conjugates each 2x2 factor and takes
the conditional as their product; the decoherence factor reads each qubit's
overlap from the 2x2 entries.

build_initial_state, build_premeasurement and build_interaction_chain take
only the spec; the chain is drawn from a generator seeded with spec.seed in
a fixed order, so a scenario is a pure function of its spec.

run_exchange returns a round's global pure state, the tests' oracle;
run_exchange_pair returns the eavesdropper's two layer states, which keep no
copy of it (a factor is attached only where it is a view).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DegeneracyError
from .linalg import (
    StateVector,
    _integer,
    apply_unitary,
    haar_unitary,
    kron,
    kron_all,
    orthonormalize_qr,
    random_complementary_projectors,
    reduced_density,
)

COMPUTATIONAL = "computational"
HADAMARD = "hadamard"
BASES = (COMPUTATIONAL, HADAMARD)

MODE_ANALYTIC = "analytic"
MODE_HAAR = "haar"
MODES = (MODE_ANALYTIC, MODE_HAAR)


def _frozen(a):
    a.flags.writeable = False
    return a


# each basis's frame (columns |e0>, |e1>) and projector pair, built once and
# shared read-only; _EYE2 is also the identity term of every noisy coupling
HADAMARD_GATE = _frozen(np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2))
_EYE2 = _frozen(np.eye(2, dtype=complex))
_FRAMES = {COMPUTATIONAL: _EYE2, HADAMARD: HADAMARD_GATE}
_PROJECTORS = {basis: tuple(_frozen(np.outer(k, k.conj())) for k in frame.T)
               for basis, frame in _FRAMES.items()}


def cx(alpha):
    """Rotated controlled-flip target block: a real reflection, X at alpha=0."""
    s, c = np.sin(alpha), np.cos(alpha)
    return np.array([[s, c], [c, -s]], dtype=complex)


def cz(alpha):
    """Hadamard-conjugated counterpart of cx: H @ cx(alpha) @ H, Z at alpha=0."""
    return HADAMARD_GATE @ cx(alpha) @ HADAMARD_GATE


def _check_coupling(epsilon, alpha):
    """ValueError unless epsilon is in [0, 1] (NaN fails) and alpha is finite."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def coupling_pq(epsilon, alpha):
    """(p, q, sqrt(p**2 + q**2)) of the noisy coupling; raises at p = q = 0.

    p = epsilon + (1-epsilon) sin(alpha), q = (1-epsilon) cos(alpha).
    ValueError unless epsilon is in [0, 1] and alpha is finite.
    """
    _check_coupling(epsilon, alpha)
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
    """The two pointer states of a basis, its frame's columns, as fresh writable copies."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    return tuple(k.copy() for k in _FRAMES[basis].T)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full description of one exchange instance.

    basis is both the encoding and the measurement basis (only accepted,
    basis-matched rounds are modeled here). epsilon in [0, 1] limits every
    apparatus-environment and interlayer coupling (1 = no interaction).
    alpha rotates the analytic-mode interlayer coupling; in haar mode it
    rotates the premeasurement instead (the haar couplings carry their own
    randomness). eve_layer selects which layer the eavesdropper reads
    (1-based; None = last). The integer settings take Python or numpy
    integers; anything else, 2.0 and None included, raises ValueError, except
    that eve_layer may be None.
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
        for name in ("key_bit", "n_layers", "qubits_per_layer", "seed", "eve_layer"):
            if name != "eve_layer" or self.eve_layer is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.key_bit not in (0, 1):
            raise ValueError("key_bit must be 0 or 1")
        if not 1 <= self.n_layers <= 8:
            raise ValueError("n_layers must be in 1..8")
        if not 1 <= self.qubits_per_layer <= 8:
            raise ValueError("qubits_per_layer must be in 1..8")
        if self.n_qubits > 14:
            raise ValueError("total qubit count 2 + n_layers*qubits_per_layer exceeds 14")
        _check_coupling(self.epsilon, self.alpha)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == MODE_ANALYTIC and self.qubits_per_layer != 1:
            raise ValueError("analytic mode requires qubits_per_layer == 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.eve_layer is not None and not 1 <= self.eve_layer <= self.n_layers:
            raise ValueError("eve_layer must be in 1..n_layers")

    @property
    def n_qubits(self):
        return 2 + self.n_layers * self.qubits_per_layer

    @property
    def qubit_dims(self):
        return (2,) * self.n_qubits

    def layer_qubits(self, layer):
        """Global qubit indices of a layer (1-based layer numbering)."""
        if not 1 <= layer <= self.n_layers:
            raise ValueError(f"layer {layer} out of range 1..{self.n_layers}")
        start = 2 + (layer - 1) * self.qubits_per_layer
        return tuple(range(start, start + self.qubits_per_layer))

    def resolved_eve_layer(self):
        return self.n_layers if self.eve_layer is None else self.eve_layer


@dataclass(frozen=True)
class ChainLink:
    """One hop of a round: the premeasurement S->A or a link of the chain.

    The hop operator is projectors[0] (x) I + projectors[1] (x) rotation,
    acting on source then target qubits: branch 0 leaves the target alone,
    branch 1 rotates it. rotation is the qubit-wise product of the 2x2
    factors, one per target qubit.
    """

    source: tuple
    target: tuple
    projectors: tuple
    rotation: np.ndarray
    factors: tuple

    def operator(self):
        p0, p1 = self.projectors
        op = kron(p0, np.eye(len(self.rotation), dtype=complex))
        op += kron(p1, self.rotation)
        return op


def build_premeasurement(spec):
    """Hop 0: the link S->A, P0 (x) I + P1 (x) cx(a) (hadamard: P+, P-, cz(a)).

    a = 0 in analytic mode, whose chain rotation is its only alpha dependence,
    and spec.alpha in haar mode; at a = 0 this is CNOT or its Hadamard twin.
    """
    a = 0.0 if spec.mode == MODE_ANALYTIC else spec.alpha
    cond = cx(a) if spec.basis == COMPUTATIONAL else cz(a)
    return ChainLink(source=(0,), target=(1,), projectors=_PROJECTORS[spec.basis],
                     rotation=cond, factors=(cond,))


def _conjugate_all(mat, n_qubits):
    h = kron_all([HADAMARD_GATE] * n_qubits)
    return h @ mat @ h


def _noisy_qubit_unitary(epsilon, rng):
    """QR(epsilon*I + (1-epsilon)*V) for a Haar-random 2x2 V; numpy forms the sum."""
    return orthonormalize_qr(epsilon * _EYE2 + (1.0 - epsilon) * haar_unitary(2, rng))


def build_interaction_chain(spec):
    """Ordered links A->E1, E1->E2, ..., E_{n-1}->E_n, drawn from spec.seed.

    Analytic mode uses the fixed pair (identity, q_prime) and the basis
    projectors everywhere. Haar mode draws, per link, the rotation of the
    target layer's branch 1 (a per-qubit product of noisy unitaries; branch
    0 is the identity) and, for interior links, a random
    complementary projector pair of half the layer dimension on the source.
    All operators are drawn in the computational frame and conjugated by
    Hadamards when the scenario basis is hadamard, which makes the two bases
    unitarily equivalent draw for draw. The conjugated conditional is the
    product of the conjugated 2x2 factors, since H^(x)n (x)_k f_k H^(x)n =
    (x)_k H f_k H; it equals the dense conjugate of the computational one
    to rounding.
    """
    rng = np.random.default_rng(spec.seed)
    ne = spec.qubits_per_layer
    had = spec.basis == HADAMARD
    links = []
    for l in range(spec.n_layers):
        source = (1,) if l == 0 else spec.layer_qubits(l)
        target = spec.layer_qubits(l + 1)

        if l == 0 or spec.mode == MODE_ANALYTIC:
            p0, p1 = _PROJECTORS[COMPUTATIONAL]
        else:
            p0, p1 = random_complementary_projectors(2 ** ne, 2 ** (ne - 1), rng)

        if spec.mode == MODE_ANALYTIC:
            factors = [q_prime(spec.epsilon, spec.alpha)]
            rotation = factors[0]
        else:
            factors = [_noisy_qubit_unitary(spec.epsilon, rng) for _ in range(ne)]
            rotation = kron_all(factors)

        if had:
            p0 = _conjugate_all(p0, len(source))
            p1 = _conjugate_all(p1, len(source))
            factors = [_conjugate_all(f, 1) for f in factors]
            # replaces the computational-frame product, which is still built:
            # perfbench's traced kron counts (_chain_calls) include it
            rotation = kron_all(factors)

        links.append(ChainLink(
            source=source, target=target, projectors=(p0, p1),
            rotation=rotation, factors=tuple(factors)))
    return links


def build_initial_state(spec):
    """Product state |key_bit> (x) |ready apparatus> (x) fresh environment.

    computational: |b> (x) |0> (x) |0...0>; hadamard: the Hadamard frame of
    the same state, i.e. |+/-> (x) |+> (x) |+...+>.

    The system sys is the frame's column key_bit, every other qubit its
    column e0. The amplitude of |i>|0...0> is sys[i] * e0[0] * ... * e0[0],
    multiplied left to right as the Kronecker chain sys (x) e0 (x) ... would.
    In the computational basis every other amplitude is zero; in the hadamard
    basis e0 = |+> has equal entries, so every amplitude whose first qubit is
    i equals that of |i>|0...0>.
    """
    frame = _FRAMES[spec.basis]
    n = spec.n_qubits
    heads = []
    for head in frame[:, spec.key_bit]:
        for _ in range(n - 1):
            head = head * frame[0, 0]
        heads.append(head)
    if spec.basis == COMPUTATIONAL:
        amp = np.zeros(2 ** n, dtype=complex)
        amp[spec.key_bit << (n - 1)] = heads[spec.key_bit]
    else:
        amp = np.repeat(heads, 2 ** (n - 1))
    return StateVector(amp, spec.qubit_dims)


def _evolve(state, hops):
    """Hops run on the amplitude array, wrapped once; ContractError at norm drift > 1e-9."""
    amp, dims = state.amplitudes, state.dims
    for hop in hops:
        amp = apply_unitary(amp, dims, hop.operator(), hop.source + hop.target)
        if abs(np.linalg.norm(amp) - 1.0) > 1e-9:
            raise ContractError("state norm drifted beyond 1e-9 after a hop")
    return StateVector(amp, dims)


def run_exchange(spec):
    """The global pure state after the premeasurement and the interaction chain."""
    return _evolve(build_initial_state(spec),
                   (build_premeasurement(spec), *build_interaction_chain(spec)))


def run_exchange_pair(spec):
    """(rho0, rho1): the eavesdropper's layer state for key bit 0 and key bit 1.

    Both runs share the seed, hence the same premeasurement and the same
    drawn chain — the physical device is identical, only the encoded bit
    differs. This is the state pair an eavesdropper must distinguish, read
    at spec.resolved_eve_layer(); one global state is alive at a time.
    """
    keep = spec.layer_qubits(spec.resolved_eve_layer())
    def layer_state(key_bit):
        state = run_exchange(replace(spec, key_bit=key_bit))
        return reduced_density(state.amplitudes, state.dims, keep)
    return layer_state(0), layer_state(1)


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
    0 full decoherence. The chain is drawn from spec.seed. U0_k is the
    identity and U1_k = link.factors[k], so gamma_k = sum_ij rho0_ij
    conj(U1_k,ij), read from the 2x2 entries; the whole chain is still built.
    """
    _check_rejected_setup(spec, params)
    link = build_interaction_chain(spec)[0]
    used = params.used_qubits(spec.qubits_per_layer)
    # entries of |e0><e0|, the state of every fresh environment qubit
    (r00, r01), (r10, r11) = _PROJECTORS[spec.basis][0].tolist()
    gammas = []
    for f1 in link.factors[:used]:
        (a, b), (c, d) = f1.tolist()
        gammas.append(r00 * a.conjugate() + r01 * b.conjugate()
                      + r10 * c.conjugate() + r11 * d.conjugate())
    return math.prod(abs(g) for g in gammas)


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

    premeasurement = build_premeasurement(spec)
    # the uniform superposition of the two key bits' initial states
    amp = sum(build_initial_state(replace(spec, key_bit=b)).amplitudes for b in (0, 1))
    state = _evolve(StateVector(amp / np.sqrt(2.0), spec.qubit_dims),
                    (premeasurement, build_interaction_chain(spec)[0]))

    rho_sa = reduced_density(state.amplitudes, state.dims, (0, 1)).matrix
    # pointer branch i: the premeasured |i>|ready apparatus>
    k0, k1 = basis_states(spec.basis)
    b0, b1 = (premeasurement.operator() @ np.kron(k, k0) for k in (k0, k1))
    return float(abs(b0.conj() @ rho_sa @ b1) + abs(b1.conj() @ rho_sa @ b0))
