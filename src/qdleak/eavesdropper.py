"""Quantifying what the environment gives away about a key bit.

The eavesdropper holds one environment layer in one of two states (one per
key-bit value) and performs the optimal two-state discrimination. BB84 key
bits are uniform, so the prior is 1/2 and full access gives the
equal-prior Helstrom bound p = 1/2 + 1/2 ||rho0/2 - rho1/2||_1; partial
access is modeled either as a random rank-2^k subspace her antenna
resolves (optimal measurement inside, fair coin outside;
nested_control_pguess) or as access to a subset of the layer's qubits
(subset_pguess). Full access is the antenna bound 1/2 + 1/2 ||V^† Delta V||_1
with V = I, so helstrom_pguess is subspace_pguess on the whole layer.

A reduced layer state of the simulation has rank at most the dimension of
the rest of the system, often far below the layer's. A last-layer state
carries its Schmidt factor (DensityMatrix.factor), a view of the global
state, and _signed_factor is the one place that picks the route: when the
two factors have fewer columns in total than the layer dimension, full and
antenna access are discriminated in the span of the two states, on matrices
of that column count; everything else takes the dense route.

The closed-form guessing probability and key rate for chains of single-qubit
layers live here too, next to the variant diagnostics that pin down the
self-consistent form of the key-rate formula.
"""

import math

import numpy as np

from .linalg import _integer, _integers, haar_unitary, partial_trace, trace_norm
from .model import coupling_pq


def _states(rho0, rho1):
    """The two states (DensityMatrix or array) as square arrays of equal dimension."""
    r0, r1 = (np.asarray(getattr(x, "matrix", x), dtype=complex) for x in (rho0, rho1))
    if r0.shape != r1.shape or r0.ndim != 2 or r0.shape[0] != r0.shape[1]:
        raise ValueError("rho0 and rho1 must be square matrices of equal dimension")
    return r0, r1


def _signed_factor(rho0, rho1, dim):
    """(B, J) with rho0/2 - rho1/2 = B diag(J) B^†, or None for the dense route.

    Needs factors F0, F1 on both states (DensityMatrix.factor) with
    r0 + r1 < dim columns; then B = sqrt(1/2) [F0, F1] and J is +1 on F0's
    columns and -1 on F1's.
    """
    f0 = getattr(rho0, "factor", None)
    f1 = getattr(rho1, "factor", None)
    if f0 is None or f1 is None or f0.shape[1] + f1.shape[1] >= dim:
        return None
    b = np.hstack((math.sqrt(0.5) * f0, math.sqrt(0.5) * f1))
    signs = np.concatenate((np.ones(f0.shape[1]), -np.ones(f1.shape[1])))
    return b, signs


def subspace_pguess(rho0, rho1, isometry):
    """Guessing probability when measurement is confined to a subspace.

    `isometry` is a (dim, r) matrix V with orthonormal columns spanning the
    accessible subspace, or None for the whole layer (V = I). The optimal
    strategy measures the compression of Delta = rho0/2 - rho1/2 inside the
    subspace and answers at random for outcomes outside it, giving
    1/2 + 1/2 ||V^† Delta V||_1.

    When both states carry factors of r0 + r1 < dim columns (last-layer
    states do), the norm is taken in their span: V^† Delta V = C J C^† with
    C = V^† B, and C = Q R gives the trace norm of the r x r matrix R J R^†
    (C itself when it has no more rows than columns). Otherwise Delta is
    formed densely.
    """
    r0, r1 = _states(rho0, rho1)
    v = None if isometry is None else np.asarray(isometry, dtype=complex)
    if v is not None and v.shape[0] != r0.shape[0]:
        raise ValueError("isometry row dimension must match the states")
    low_rank = _signed_factor(rho0, rho1, r0.shape[0])
    if low_rank is None:
        delta = 0.5 * r0 - 0.5 * r1
        if v is not None:
            delta = v.conj().T @ delta @ v
        return 0.5 + 0.5 * trace_norm(delta)
    c, signs = low_rank
    if v is not None:
        # (B^† V)^† conjugates the small B instead of V
        c = (c.conj().T @ v).conj().T
    if c.shape[0] > c.shape[1]:
        c = np.linalg.qr(c, mode="r")
    return 0.5 + 0.5 * trace_norm((c * signs) @ c.conj().T)


def helstrom_pguess(rho0, rho1):
    """Optimal-measurement guessing probability with full layer access.

    subspace_pguess on the whole layer (V = I), taken in the span of the
    two states when their factors allow it.
    """
    return subspace_pguess(rho0, rho1, None)


def subset_pguess(rho0, rho1, subset):
    """Guessing probability with access to only the listed qubits of a layer.

    Both states are traced down to the qubits in `subset` (indices into the
    layer, 0-based) before the optimal measurement; the empty subset gives
    exactly 1/2.
    """
    r0, r1 = _states(rho0, rho1)
    dim = r0.shape[0]
    n = int(round(math.log2(dim)))
    if 2 ** n != dim:
        raise ValueError(f"layer dimension {dim} is not a power of two")
    subset = _integers("subset", subset)
    if len(set(subset)) != len(subset):
        raise ValueError(f"subset indices must be distinct, got {subset}")
    if any(not 0 <= i < n for i in subset):
        raise ValueError(f"subset {subset} out of range for a {n}-qubit layer")
    if not subset:
        return 0.5
    dims = (2,) * n
    return helstrom_pguess(partial_trace(r0, dims, subset),
                           partial_trace(r1, dims, subset))


def nested_control_pguess(rho0, rho1, ks, rng):
    """Guessing probabilities with a random rank-2^k antenna, for several k.

    The antenna resolves a Haar-random 2^k-dimensional subspace of the layer
    (subspace_pguess); k = 0 gives exactly 1/2. One Haar unitary is drawn and
    its leading 2^k columns serve every k, so the antennas are nested and the
    result is non-decreasing in k for the same draw (a compression to a
    smaller subspace can only lose trace norm). Returns {k: p_guess}.

    Only the columns a proper rank 2^k < dim reads are orthonormalized
    (haar_unitary's `columns`, at least one, from the full draw). The full
    rank resolves the whole layer, where every orthonormal basis gives the
    same value, so it reads no frame and equals helstrom_pguess.
    """
    dim = _states(rho0, rho1)[0].shape[0]
    ks = sorted(set(_integers("ks", ks)))
    if ks and ks[0] < 0:
        raise ValueError(f"ranks 2^k need k >= 0, got k = {ks[0]}")
    if ks and 2 ** ks[-1] > dim:
        raise ValueError(f"rank 2^{ks[-1]} exceeds the layer dimension {dim}")
    proper = [2 ** k for k in ks if 1 <= k and 2 ** k < dim]
    u = haar_unitary(dim, rng, columns=max(proper, default=1))
    out = {}
    for k in ks:
        if k == 0:
            out[k] = 0.5
        else:
            out[k] = subspace_pguess(rho0, rho1, u[:, : 2 ** k] if 2 ** k < dim else None)
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
    so the identity holds exactly in floating point. Subtracting from +0.0
    rather than negating keeps key_rate(1.0) at +0.0 instead of -0.0.
    """
    return 0.0 - _signed_plog(_check_pguess(p_guess))


def analytic_pguess(n_layers, epsilon, alpha=0.0):
    """Closed-form guessing probability for n single-qubit layers.

    With p = epsilon + (1-epsilon) sin(alpha), q = (1-epsilon) cos(alpha):

        P(n) = 1/2 + 1/2 * (|q| / sqrt(p^2 + q^2))**(2n - 1)

    Each hop through a layer multiplies the leaked amplitude by q/sqrt(p^2+q^2)
    twice except the last, which contributes once. Matches the full-state
    simulation of the analytic mode exactly.
    """
    n_layers = _integer("n_layers", n_layers)
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
