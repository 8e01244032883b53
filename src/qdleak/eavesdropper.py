"""Quantifying what the environment gives away about a key bit.

The eavesdropper holds one environment layer in one of two states (one per
key-bit value) and performs the optimal two-state discrimination. Full
access gives the textbook bound p = 1/2 + 1/2 ||lam*rho0 - (1-lam)*rho1||_1;
partial access is modeled either as a random rank-2^k subspace her antenna
resolves (optimal measurement inside, fair coin outside), as the optimal
such subspace, or as access to a subset of the layer's qubits.

The closed-form guessing probability and key rate for chains of single-qubit
layers live here too, next to the variant diagnostics that pin down the
self-consistent form of the key-rate formula.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import haar_unitary, partial_trace, trace_norm
from .model import coupling_pq

CONTROL_MODES = ("full", "rank_limited", "rank_spectral", "qubit_subset")


def _rho(x):
    return np.asarray(getattr(x, "matrix", x), dtype=complex)


@dataclass(frozen=True)
class ControlSpec:
    """How much of the leaked layer the eavesdropper can resolve.

    mode:
      full          — the whole layer.
      rank_limited  — a random 2^controlled_qubits-dimensional subspace
                      (an arbitrary antenna of that rank); needs an rng.
      rank_spectral — the best такой subspace: spanned by the top
                      |eigenvalue| directions of the weighted difference.
      qubit_subset  — the listed qubits of the layer, rest traced out.
    controlled_qubits = 0 means no access at all (guessing probability 1/2).
    """

    mode: str = "full"
    controlled_qubits: int = 0
    subset: tuple | None = None

    def __post_init__(self):
        if self.mode not in CONTROL_MODES:
            raise ValueError(f"mode must be one of {CONTROL_MODES}, got {self.mode!r}")
        if self.controlled_qubits < 0:
            raise ValueError("controlled_qubits must be >= 0")
        if self.mode == "qubit_subset":
            if self.subset is None:
                raise ValueError("qubit_subset mode requires a subset")
            subset = tuple(int(i) for i in self.subset)
            if len(set(subset)) != len(subset):
                raise ValueError("subset indices must be distinct")
            if len(subset) != self.controlled_qubits:
                raise ValueError("subset length must equal controlled_qubits")
            object.__setattr__(self, "subset", subset)

    @classmethod
    def full(cls):
        return cls(mode="full")

    @classmethod
    def rank_limited(cls, k):
        return cls(mode="rank_limited", controlled_qubits=k)

    @classmethod
    def rank_spectral(cls, k):
        return cls(mode="rank_spectral", controlled_qubits=k)

    @classmethod
    def qubit_subset(cls, subset):
        subset = tuple(subset)
        return cls(mode="qubit_subset", controlled_qubits=len(subset), subset=subset)


@dataclass(frozen=True)
class EavesdropQuery:
    """A two-state discrimination problem with a control model attached."""

    rho0: object
    rho1: object
    lam: float = 0.5
    control: ControlSpec = ControlSpec()

    def __post_init__(self):
        r0, r1 = _rho(self.rho0), _rho(self.rho1)
        if r0.shape != r1.shape or r0.ndim != 2 or r0.shape[0] != r0.shape[1]:
            raise ValueError("rho0 and rho1 must be square matrices of equal dimension")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")

    @property
    def dim(self):
        return _rho(self.rho0).shape[0]

    def delta(self):
        """Weighted difference lam*rho0 - (1-lam)*rho1."""
        return self.lam * _rho(self.rho0) - (1.0 - self.lam) * _rho(self.rho1)


def helstrom_pguess(query):
    """Optimal-measurement guessing probability with full layer access."""
    return 0.5 + 0.5 * trace_norm(query.delta())


def subspace_pguess(query, isometry):
    """Guessing probability when measurement is confined to a subspace.

    `isometry` is a (dim, r) matrix with orthonormal columns spanning the
    accessible subspace. The optimal strategy measures the compression of
    the weighted difference inside the subspace and answers at random for
    outcomes outside it, giving 1/2 + 1/2 ||V^† Delta V||_1.
    """
    v = np.asarray(isometry, dtype=complex)
    if v.shape[0] != query.dim:
        raise ValueError("isometry row dimension must match the states")
    compressed = v.conj().T @ query.delta() @ v
    return 0.5 + 0.5 * trace_norm(compressed)


def _layer_qubit_count(dim):
    n = int(round(math.log2(dim)))
    if 2 ** n != dim:
        raise ValueError(f"layer dimension {dim} is not a power of two")
    return n


def restricted_pguess(query, rng=None):
    """Guessing probability under the query's partial-control model.

    rank_limited draws the antenna subspace from `rng` (Haar-uniform among
    rank-2^k subspaces); rank_spectral takes the best one, i.e. keeps the
    2^k eigenvalues of largest magnitude of the weighted difference;
    qubit_subset traces both states down to the chosen qubits first.
    controlled_qubits = 0 always returns exactly 0.5.
    """
    control = query.control
    if control.mode == "full":
        raise ValueError("restricted_pguess needs a partial-control mode; "
                         "use helstrom_pguess for full access")
    dim = query.dim
    k = control.controlled_qubits
    if control.mode in ("rank_limited", "rank_spectral"):
        if 2 ** k > dim:
            raise ValueError(f"rank 2^{k} exceeds the layer dimension {dim}")
        if k == 0:
            return 0.5
        if control.mode == "rank_spectral":
            mu = np.abs(np.linalg.eigvalsh(query.delta()))
            mu.sort()
            return 0.5 + 0.5 * float(mu[-(2 ** k):].sum())
        if rng is None:
            raise ValueError("rank_limited control draws a random subspace: pass rng")
        v = haar_unitary(dim, rng)[:, : 2 ** k]
        return subspace_pguess(query, v)

    # qubit_subset
    n = _layer_qubit_count(dim)
    if k == 0:
        return 0.5
    subset = control.subset
    if max(subset) >= n or min(subset) < 0:
        raise ValueError(f"subset {subset} out of range for a {n}-qubit layer")
    dims = (2,) * n
    r0 = partial_trace(_rho(query.rho0), dims, subset)
    r1 = partial_trace(_rho(query.rho1), dims, subset)
    reduced = EavesdropQuery(r0, r1, lam=query.lam)
    return helstrom_pguess(reduced)


def nested_control_pguess(rho0, rho1, ks, rng, lam=0.5):
    """rank_limited guessing probabilities for several k at once.

    Draws one Haar unitary and uses its leading 2^k columns for every k, so
    the antennas are nested and the result is non-decreasing in k for the
    same draw (a compression to a smaller subspace can only lose trace norm).
    Returns {k: p_guess}.
    """
    query = EavesdropQuery(rho0, rho1, lam=lam)
    dim = query.dim
    ks = sorted(set(int(k) for k in ks))
    if ks and 2 ** ks[-1] > dim:
        raise ValueError(f"rank 2^{ks[-1]} exceeds the layer dimension {dim}")
    u = haar_unitary(dim, rng)
    out = {}
    for k in ks:
        out[k] = 0.5 if k == 0 else subspace_pguess(query, u[:, : 2 ** k])
    return out


def _signed_plog(p):
    """(1-p)*log2(1-p) + p*log2(p) with the 0*log0 = 0 convention."""
    s = 0.0
    if p > 0.0:
        s += p * math.log2(p)
    if p < 1.0:
        s += (1.0 - p) * math.log2(1.0 - p)
    return s


def _check_pguess(p):
    if not 0.5 - 1e-9 <= p <= 1.0 + 1e-9:
        raise ValueError(f"p_guess {p} outside [0.5, 1]")
    return min(max(p, 0.5), 1.0)


def mutual_information(p_guess):
    """Bits the eavesdropper learns about the key bit: 1 + (1-P)lg(1-P) + P lg P."""
    return 1.0 + _signed_plog(_check_pguess(p_guess))


def key_rate(p_guess):
    """Secret bits per sifted bit: the binary entropy of the guessing probability.

    This is 1 - mutual_information(p_guess); the two share the same log terms
    so the identity holds exactly in floating point.
    """
    return -_signed_plog(_check_pguess(p_guess))


@dataclass(frozen=True)
class EavesdropReport:
    """Guessing probability with its information-theoretic consequences."""

    p_guess: float
    mutual_information: float
    key_rate: float
    control: ControlSpec

    @classmethod
    def from_pguess(cls, p_guess, control):
        return cls(
            p_guess=float(p_guess),
            mutual_information=mutual_information(p_guess),
            key_rate=key_rate(p_guess),
            control=control,
        )


def evaluate_query(query, rng=None):
    """Full report for a query, dispatching on its control mode."""
    if query.control.mode == "full":
        p = helstrom_pguess(query)
    else:
        p = restricted_pguess(query, rng=rng)
    return EavesdropReport.from_pguess(p, query.control)


def analytic_pguess(n_layers, epsilon, alpha=0.0):
    """Closed-form guessing probability for n single-qubit layers.

    With p = epsilon + (1-epsilon) sin(alpha), q = (1-epsilon) cos(alpha):

        P(n) = 1/2 + 1/2 * (|q| / sqrt(p^2 + q^2))**(2n - 1)

    Each hop through a layer multiplies the leaked amplitude by q/sqrt(p^2+q^2)
    twice except the last, which contributes once. Matches the full-state
    simulation of the analytic mode exactly.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    p, q, n = coupling_pq(epsilon, alpha)
    t = abs(q) / n
    return 0.5 + 0.5 * t ** (2 * n_layers - 1)


def analytic_key_rate(n_layers, epsilon, alpha=0.0):
    """Key rate of the closed-form chain: binary entropy of analytic_pguess."""
    return key_rate(analytic_pguess(n_layers, epsilon, alpha))


def sign_flipped_difference_keyrate(p_guess):
    """The key-rate difference formula with its overall sign dropped.

    Evaluates (1-P)lg(1-P) + P lg P, i.e. exactly -key_rate(P). Kept as a
    regression diagnostic: a transcription of the difference formula that
    omits the leading 1 + ... of the mutual information produces this value.
    """
    return _signed_plog(_check_pguess(p_guess))


def keyrate_variant_report(n_layers, epsilon, alpha=0.0):
    """Canonical closed-form key rate next to three defective variants.

    The variants differ from the canonical value by a dropped sign, by a +
    where the binary-entropy expansion has a -, and (single layer only) by a
    q^2 where the derivation gives p^2. Their deviations are reported so the
    canonical form is pinned by data rather than by fiat.
    """
    p, q, n = coupling_pq(epsilon, alpha)
    pg = analytic_pguess(n_layers, epsilon, alpha)
    canonical = key_rate(pg)

    m = 2 * n_layers - 1
    t = abs(q) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_log = np.log2((n ** m + abs(q) ** m) / (n ** m - abs(q) ** m)) \
            if n ** m > abs(q) ** m else math.inf
        chain_plus_sign = float(
            1.0
            - 0.5 * np.log2((n ** (2 * m) - q ** (2 * m)) / n ** (2 * m))
            + 0.5 * t ** m * ratio_log)
        single_layer_q2 = None
        if n_layers == 1:
            single_layer_q2 = float(
                1.0 - 0.5 * (np.log2(q ** 2 / n ** 2) + t * ratio_log)) \
                if q != 0 else math.inf

    report = {
        "p_guess": pg,
        "canonical": canonical,
        "sign_flipped_difference": sign_flipped_difference_keyrate(pg),
        "chain_form_plus_sign": chain_plus_sign,
        "single_layer_q_squared": single_layer_q2,
    }
    report["deviation_sign_flipped"] = abs(
        report["sign_flipped_difference"] - (-canonical))
    report["deviation_chain_form"] = abs(chain_plus_sign - canonical)
    if single_layer_q2 is not None and math.isfinite(single_layer_q2):
        report["deviation_single_layer"] = abs(single_layer_q2 - canonical)
    return report
