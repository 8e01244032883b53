"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The statistical criteria use the library's default base seed and
200 repetitions, so every number here is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from qdleak.eavesdropper import (
    analytic_pguess,
    helstrom_pguess,
    key_rate,
    mutual_information,
    sign_flipped_difference_keyrate,
)
from qdleak.errors import DegeneracyError
from qdleak.experiments import SweepConfig, run_and_write, run_experiment
from qdleak.linalg import orthonormalize_qr, trace_norm
from qdleak.model import ScenarioSpec, cx, q_prime, run_exchange_pair

EPS_GRID = tuple(round(0.1 * i, 1) for i in range(11))
ALPHA_GRID = (0.0, math.pi / 6, math.pi / 4)

# Published reference values reproduced statistically (criteria 3 and 4).
LAYER_TABLE = {
    (1, 0.5): 0.871, (1, 0.7): 0.658, (1, 0.9): 0.549,
    (2, 0.5): 0.823, (2, 0.7): 0.646, (2, 0.9): 0.536,
    (3, 0.5): 0.818, (3, 0.7): 0.645, (3, 0.9): 0.536,
}
FULL_CONTROL = {3: 0.967, 4: 0.983, 5: 0.995, 6: 0.997, 7: 0.998}
HALF_CONTROL = {3: 0.717, 4: 0.723, 5: 0.731, 6: 0.723, 7: 0.773}


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_matches_simulation():
    start = time.perf_counter()
    worst = 0.0
    points = 0
    for n in range(1, 6):
        for eps in EPS_GRID:
            for alpha in ALPHA_GRID:
                try:
                    predicted = analytic_pguess(n, eps, alpha)
                except DegeneracyError:
                    continue
                spec = ScenarioSpec(
                    basis="computational", key_bit=0, n_layers=n,
                    qubits_per_layer=1, epsilon=eps, alpha=alpha,
                    mode="analytic", seed=0)
                out0, out1 = run_exchange_pair(spec)
                simulated = helstrom_pguess(out0.rho_eve_layer, out1.rho_eve_layer)
                worst = max(worst, abs(simulated - predicted))
                points += 1
    elapsed = time.perf_counter() - start
    report(1, "closed form vs full-state simulation",
           worst <= 1e-9 and elapsed < 30.0,
           f"worst |sim - closed| = {worst:.3e} over {points} points, "
           f"{elapsed:.1f}s")


def test_criterion_2_qr_closed_form():
    worst_c0 = worst_c1 = 0.0
    checked = 0
    for eps in EPS_GRID:
        for alpha in ALPHA_GRID:
            m = eps * np.eye(2) + (1 - eps) * cx(alpha)
            if np.linalg.svd(m, compute_uv=False)[-1] <= 1e-12:
                with pytest.raises(DegeneracyError):
                    orthonormalize_qr(m)
                continue
            got = orthonormalize_qr(m)
            closed = q_prime(eps, alpha)
            worst_c0 = max(worst_c0, np.max(np.abs(got[:, 0] - closed[:, 0])))
            worst_c1 = max(worst_c1, min(
                np.max(np.abs(got[:, 1] - closed[:, 1])),
                np.max(np.abs(got[:, 1] + closed[:, 1]))))
            checked += 1
    report(2, "QR factor equals the closed-form coupling",
           worst_c0 <= 1e-10 and worst_c1 <= 1e-10,
           f"{checked} grid points; col0 err {worst_c0:.2e}, "
           f"col1 err (sign-aware) {worst_c1:.2e}")


def test_criterion_3_layer_table():
    start = time.perf_counter()
    rows = run_experiment(SweepConfig(experiment="layers_table"))
    elapsed = time.perf_counter() - start
    worst = 0.0
    for row in rows:
        worst = max(worst, abs(row.mean - LAYER_TABLE[(row.n_layers, row.epsilon)]))
    monotone = True
    for eps in (0.5, 0.7, 0.9):
        col = [r.mean for r in sorted((r for r in rows if r.epsilon == eps),
                                      key=lambda r: r.n_layers)]
        monotone &= all(col[i] >= col[i + 1] - 1e-12 for i in range(len(col) - 1))
    report(3, "multi-layer guessing-probability table",
           worst <= 0.05 and monotone and elapsed < 120.0,
           f"worst |mean - reference| = {worst:.4f}, columns monotone = "
           f"{monotone}, {elapsed:.1f}s (200 reps)")


def test_criterion_4_partial_control_table():
    start = time.perf_counter()
    rows = [r for r in run_experiment(
        SweepConfig(experiment="partial_control_table")) if not r.skip_reason]
    elapsed = time.perf_counter() - start
    worst_full = max(abs(r.mean - FULL_CONTROL[r.qubits_per_layer])
                     for r in rows if r.controlled_qubits == r.qubits_per_layer)
    worst_half = max(abs(r.mean - HALF_CONTROL[r.qubits_per_layer])
                     for r in rows if r.controlled_qubits == r.qubits_per_layer - 1)
    monotone = True
    for ne in (3, 4, 5, 6, 7):
        col = [r.mean for r in sorted((r for r in rows if r.qubits_per_layer == ne),
                                      key=lambda r: r.controlled_qubits)]
        monotone &= all(col[i] <= col[i + 1] + 1e-12 for i in range(len(col) - 1))
    report(4, "partial-control guessing-probability table",
           worst_full <= 0.03 and worst_half <= 0.06 and monotone
           and elapsed < 300.0,
           f"full-control err {worst_full:.4f} (cap 0.03), half-control err "
           f"{worst_half:.4f} (cap 0.06), monotone in k = {monotone}, "
           f"{elapsed:.1f}s (200 reps)")


def test_criterion_5_decoherence_trends():
    rows = run_experiment(SweepConfig(experiment="decoherence_sweep"))
    by = {(r.epsilon, r.qubits_per_layer): r.mean for r in rows}
    ne_values = sorted({r.qubits_per_layer for r in rows})
    eps_values = sorted({r.epsilon for r in rows})

    no_interaction = max(abs(by[(1.0, ne)] - 1.0) for ne in ne_values)
    dec_in_ne = all(
        by[(eps, ne_values[i])] >= by[(eps, ne_values[i + 1])] - 1e-12
        for eps in (0.0, 0.25, 0.5) for i in range(len(ne_values) - 1))
    inc_in_eps = all(
        by[(eps_values[i], ne)] <= by[(eps_values[i + 1], ne)] + 1e-12
        for ne in (2, 4, 6) for i in range(len(eps_values) - 1))
    report(5, "decoherence-factor sweep properties",
           no_interaction <= 1e-9 and dec_in_ne and inc_in_eps,
           f"|gamma(eps=1) - 1| = {no_interaction:.2e}, non-increasing in "
           f"layer size = {dec_in_ne}, non-decreasing in eps = {inc_in_eps}")


def test_criterion_6_pguess_curve_properties():
    rows = run_experiment(SweepConfig(experiment="pguess_vs_epsilon"))
    by = {(r.epsilon, r.qubits_per_layer): r.mean for r in rows}
    ne_values = sorted({r.qubits_per_layer for r in rows})
    eps_values = sorted({r.epsilon for r in rows})
    tail = [e for e in eps_values if e >= 0.5]

    endpoint = max(abs(by[(1.0, ne)] - 0.5) for ne in ne_values)
    tail_monotone = all(
        by[(tail[i], ne)] >= by[(tail[i + 1], ne)] - 1e-12
        for ne in ne_values for i in range(len(tail) - 1))
    worst_09 = max(by[(0.9, ne)] for ne in ne_values)
    report(6, "guessing-probability curve properties",
           endpoint <= 0.01 and tail_monotone and worst_09 < 0.65,
           f"|p(eps=1) - 0.5| = {endpoint:.2e}, tail monotone = "
           f"{tail_monotone}, max p(eps=0.9) = {worst_09:.3f} (< 0.65)")


def test_criterion_7_key_rate_identities():
    grid = np.linspace(0.5, 1.0, 10_000)
    worst_sum = worst_entropy = worst_flip = 0.0
    ln2 = math.log(2.0)
    for p in grid:
        mi = mutual_information(p)
        r = key_rate(p)
        worst_sum = max(worst_sum, abs(mi + r - 1.0))
        oracle = 0.0
        for x in (p, 1.0 - p):
            if x > 0.0:
                oracle -= x * math.log(x) / ln2
        worst_entropy = max(worst_entropy, abs(r - oracle))
        worst_flip = max(worst_flip, abs(sign_flipped_difference_keyrate(p) + r))
    endpoints_ok = key_rate(0.5) == 1.0 and key_rate(1.0) == 0.0
    report(7, "key-rate identity suite",
           worst_sum <= 1e-12 and worst_entropy <= 1e-12
           and worst_flip <= 1e-12 and endpoints_ok,
           f"max |MI + r - 1| = {worst_sum:.1e}, max |r - H2| = "
           f"{worst_entropy:.1e}, max |flipped + r| = {worst_flip:.1e}, "
           f"endpoints = {endpoints_ok}")


def test_criterion_8_discrimination_optimality():
    rng = np.random.default_rng(8080)
    dim, n_meas = 8, 1000
    worst_violation = -np.inf
    worst_gap = 0.0
    for _ in range(100):
        a0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho0 = a0 @ a0.conj().T
        rho0 /= np.trace(rho0).real
        rho1 = a1 @ a1.conj().T
        rho1 /= np.trace(rho1).real
        delta = 0.5 * rho0 - 0.5 * rho1
        bound = 0.5 + 0.5 * trace_norm(delta)

        z = rng.standard_normal((n_meas, dim, dim)) \
            + 1j * rng.standard_normal((n_meas, dim, dim))
        q, r = np.linalg.qr(z)
        phases = np.diagonal(r, axis1=1, axis2=2)
        q = q * (phases / np.abs(phases)).conj()[:, None, :]
        evals = rng.uniform(0.0, 1.0, size=(n_meas, dim))
        # p(measurement) = 1/2 + tr(M delta) for POVM element M = Q diag(u) Q^+
        traces = np.einsum("nij,nj,nkj,ki->n", q, evals, q.conj(), delta).real
        worst_violation = max(worst_violation, float(np.max(0.5 + traces) - bound))

        w, vecs = np.linalg.eigh(delta)
        m_opt = vecs[:, w > 0] @ vecs[:, w > 0].conj().T
        attained = 0.5 + np.trace(m_opt @ delta).real
        worst_gap = max(worst_gap, abs(attained - bound))
    report(8, "discrimination bound dominates sampled measurements",
           worst_violation <= 1e-12 and worst_gap <= 1e-9,
           f"max sampled excess = {worst_violation:.2e} over 100x1000 draws, "
           f"optimal-measurement gap = {worst_gap:.2e}")


def test_criterion_9_byte_identical_reruns(tmp_path):
    identical = True
    checked = []
    for experiment, overrides in (
        ("layers_table", dict(eps_grid=(0.5, 0.9), nl_grid=(1, 2))),
        ("partial_control_table", dict(ne_grid=(3, 4))),
        ("decoherence_sweep", dict(eps_grid=(0.0, 1.0), ne_grid=(2, 3))),
        ("pguess_vs_epsilon", dict(eps_grid=(0.0, 1.0), ne_grid=(3,))),
        ("conjecture_check", dict(eps_grid=(0.0, 0.7), nl_grid=(1, 3))),
    ):
        pair = []
        for tag in ("first", "second"):
            path = tmp_path / f"{experiment}_{tag}.csv"
            run_and_write(SweepConfig(
                experiment=experiment, repetitions=5, base_seed=424242,
                output_path=str(path), **overrides))
            pair.append(path.read_bytes())
        identical &= pair[0] == pair[1]
        checked.append(experiment)
    report(9, "re-runs are byte-identical",
           identical, f"verified for {', '.join(checked)}")
