"""Decoherence of rejected rounds: how fast coherence dies in the first layer.

When preparation and measurement bases disagree (a rejected round), the
signal sits in a superposition of the measurement's pointer states and the
first environment layer erodes it. The decoherence factor is the surviving
off-diagonal weight: 1 when nothing happened (eps = 1), near 0 once the
environment has fully registered the outcome. More qubits in the layer means
more overlap factors below one, hence faster decoherence.
"""

import numpy as np

from qdleak import (
    DecoherenceFactorParams,
    ScenarioSpec,
    decoherence_factor,
    decoherence_factor_from_state,
    scenario_seed,
)

REPS = 60
BASE_SEED = 4


def mean_gamma(ne, eps):
    values = []
    for rep in range(REPS):
        for basis in ("computational", "hadamard"):
            seed = scenario_seed(BASE_SEED, basis, "haar", eps, 0.0, ne, rep)
            spec = ScenarioSpec(basis=basis, key_bit=0, n_layers=1,
                                qubits_per_layer=ne, epsilon=eps,
                                mode="haar", seed=seed)
            params = DecoherenceFactorParams(pointer_basis=basis)
            values.append(decoherence_factor(spec, params))
    return float(np.mean(values))


print(f"mean decoherence factor over {2 * REPS} rejected rounds")
print("layer qubits:   " + "   ".join(f"{ne}" for ne in range(1, 7)))
for eps in (0.0, 0.5, 0.75, 1.0):
    row = [mean_gamma(ne, eps) for ne in range(1, 7)]
    print(f"  eps = {eps:4.2f}: " + " ".join(f"{g:.3f}" for g in row))
print("reading: down a column, noise keeps coherence alive; along a row,")
print("a bigger layer kills it faster.")

# The factor can be computed two ways: from the per-qubit overlap product,
# or by actually simulating the round and reading the off-diagonals of the
# reduced state. They agree.
spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=1,
                    qubits_per_layer=3, epsilon=0.4, mode="haar", seed=7)
params = DecoherenceFactorParams(pointer_basis="computational")
a = decoherence_factor(spec, params)
b = decoherence_factor_from_state(spec, params)
print(f"\nproduct path {a:.12f} vs reduced-state path {b:.12f} "
      f"(diff {abs(a - b):.1e})")

# Intercepting part of the layer removes factors from the product: the
# remaining environment decoheres the apparatus less.
print("\nintercepted fraction f of a 4-qubit layer at eps = 0.3:")
spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=1,
                    qubits_per_layer=4, epsilon=0.3, mode="haar", seed=11)
for f in (0.0, 0.25, 0.5, 0.75):
    params = DecoherenceFactorParams(pointer_basis="computational",
                                     intercepted_fraction=f)
    print(f"  f = {f:4.2f} -> gamma = {decoherence_factor(spec, params):.4f}")
