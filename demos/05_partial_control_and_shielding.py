"""Eve's antenna size and the value of extra shielding layers.

Two practical questions. First: if the eavesdropper resolves only a random
2^k-dimensional patch of the leaked layer, how does her guessing probability
grow with k? (Answer: close to linearly in the controlled fraction of the
dimension.) Second: do additional environment layers between the apparatus
and her antenna help? (Yes, though with diminishing returns.)
"""

import numpy as np

from qdleak import (
    ScenarioSpec,
    helstrom_pguess,
    nested_control_pguess,
    run_exchange_pair,
)
from qdleak.experiments import control_seed, scenario_seed

REPS = 80
BASE_SEED = 314


def antenna_curve(ne):
    sums = None
    for rep in range(REPS):
        seed = scenario_seed(BASE_SEED, "computational", "haar", 0.0, 0.0, ne, rep)
        spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=1,
                            qubits_per_layer=ne, epsilon=0.0, mode="haar",
                            seed=seed)
        rng = np.random.default_rng(control_seed(seed))
        per_k = nested_control_pguess(*run_exchange_pair(spec), range(ne + 1), rng)
        if sums is None:
            sums = {k: 0.0 for k in per_k}
        for k, value in per_k.items():
            sums[k] += value
    return {k: total / REPS for k, total in sums.items()}


print(f"guessing probability vs controlled qubits k (eps = 0, {REPS} rounds)")
for ne in (3, 5):
    curve = antenna_curve(ne)
    print(f"  {ne}-qubit layer: " + "  ".join(
        f"k={k}:{curve[k]:.3f}" for k in sorted(curve)))
print("k = 0 is a fair coin; each extra controlled qubit roughly doubles")
print("the controlled dimension and the excess over 1/2 grows with it.")


def shielding(eps, layers, eve_layer):
    values = []
    for rep in range(REPS):
        seed = scenario_seed(BASE_SEED, "computational", "haar", eps, 0.0, 2, rep)
        spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=layers,
                            qubits_per_layer=2, epsilon=eps, mode="haar",
                            seed=seed, eve_layer=eve_layer)
        values.append(helstrom_pguess(*run_exchange_pair(spec)))
    return float(np.mean(values))


print("\nshielding with extra layers (two-qubit layers, eps = 0.5):")
print("  eavesdropper on the last layer (information must hop the chain):")
for layers in (1, 2, 3):
    print(f"    {layers} layer(s): p_guess = {shielding(0.5, layers, None):.3f}")
print("  eavesdropper stuck at the first layer (later hops only disturb it):")
for layers in (1, 2, 3):
    print(f"    {layers} layer(s): p_guess = {shielding(0.5, layers, 1):.3f}")
print("hops through random couplings erase most of the signal; a single")
print("extra layer is already a strong shield against a far antenna.")
