"""Exact agreement between the single-qubit-layer closed form and simulation.

For chains of single-qubit layers the leaked amplitude can be tracked by
hand: with p = eps + (1-eps) sin(alpha) and q = (1-eps) cos(alpha), the
guessing probability after n layers is 1/2 + 1/2 (q/sqrt(p^2+q^2))^(2n-1).
The simulator reproduces this to machine precision, which pins down both the
model and the formula. The key rate follows as the binary entropy of the
guessing probability; the variant report shows why the other circulating
forms of that formula cannot be right.
"""

from qdleak import (
    ScenarioSpec,
    analytic_key_rate,
    analytic_pguess,
    helstrom_pguess,
    keyrate_variant_report,
    run_exchange_pair,
)

print("layers   closed form   simulated      |difference|   key rate")
for n in range(1, 6):
    predicted = analytic_pguess(n, epsilon=0.5, alpha=0.0)
    spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=n,
                        qubits_per_layer=1, epsilon=0.5, mode="analytic", seed=0)
    out0, out1 = run_exchange_pair(spec)
    simulated = helstrom_pguess(out0.rho_eve_layer, out1.rho_eve_layer)
    rate = analytic_key_rate(n, epsilon=0.5, alpha=0.0)
    print(f"  {n}      {predicted:.10f}  {simulated:.10f}  "
          f"{abs(predicted - simulated):.2e}      {rate:.6f}")

print("\nEvery added layer multiplies the leaked amplitude twice over,")
print("so eavesdropping decays geometrically while the key rate recovers.")

rep = keyrate_variant_report(2, epsilon=0.3, alpha=0.0)
print("\nkey-rate variants at n=2, eps=0.3:")
print(f"  canonical (binary entropy)    : {rep['canonical']:.6f}")
print(f"  sign-flipped difference form  : {rep['sign_flipped_difference']:.6f}"
      f"   (= -canonical, deviation {rep['deviation_sign_flipped']:.1e})")
print(f"  chain form with + slip        : {rep['chain_form_plus_sign']:.6f}"
      f"   (deviation {rep['deviation_chain_form']:.3f})")
print("A key rate must lie in [0, 1]; only the canonical form does across")
print("the whole parameter range.")
