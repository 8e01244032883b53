"""Anatomy of one accepted BB84 round seen as an open quantum process.

A signal qubit S is copied onto the apparatus A (premeasurement), and the
apparatus value then spreads into a layered environment through conditional
rotations. Whatever reaches the layer an eavesdropper can pick up determines
how well she can tell key bit 0 from key bit 1.
"""

import numpy as np

from qdleak import (
    ScenarioSpec,
    helstrom_pguess,
    key_rate,
    mutual_information,
    run_exchange,
    run_exchange_pair,
)

np.set_printoptions(precision=4, suppress=True)

spec = ScenarioSpec(basis="computational", key_bit=1, n_layers=1,
                    qubits_per_layer=2, epsilon=0.5, mode="haar", seed=2024)

state = run_exchange(spec)
print("one exchange, key bit 1, two-qubit layer, eps = 0.5")
print("global state dims:", state.dims, " norm:", round(state.norm(), 12))
print("apparatus state (should be the pointer state |1><1| - accepted")
print("rounds never decohere the encoded bit):")
print(state.reduced((1,)).matrix.real)
print("leaked layer state (4x4, generally mixed):")
print(np.round(state.reduced(spec.layer_qubits(1)).matrix.real, 4))

# The eavesdropper's problem: distinguish the bit-0 and bit-1 versions of
# that layer, produced by the *same* device (same seed, same couplings).
p = helstrom_pguess(*run_exchange_pair(spec))
print("\noptimal guessing probability:", round(p, 4))
print("mutual information leaked:", round(mutual_information(p), 4), "bits")
print("remaining key rate:", round(key_rate(p), 4), "bits per sifted bit")

print("\nguessing probability vs interaction damping (single seed):")
for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
    s = ScenarioSpec(basis="computational", key_bit=0, n_layers=1,
                     qubits_per_layer=2, epsilon=eps, mode="haar", seed=2024)
    p = helstrom_pguess(*run_exchange_pair(s))
    print(f"  eps = {eps:4.2f} -> p_guess = {p:.4f}")
print("eps = 1 means no interaction: the layer carries nothing, p = 1/2.")
