"""Output checks for each workload, from closed forms and invariants.

Nothing here compares against stored output: every expected value is
computed below (series, quadrature, the single-qubit-chain formula, binary
entropy) or is an invariant between rows of the same run. The one input
taken from the program is the decoherence factor of each leak_curve device,
which the pure-state identity p = 1/2 + 1/2 sqrt(1 - gamma^2) ties to the
CSV's guessing probability.

The ε=0 means are tested within SIGMAS standard errors, with the standard
deviation taken as the larger of the CSV's sample value and the exact one.
Both distributions are strongly skewed at many qubits: a sample of 20-40
devices usually misses the rare low outliers, so its sample deviation is too
small, while a sample that holds one is rightly far from the mean in units of
the exact deviation. Either estimate alone fails on some seeds; the larger of
the two did not fail in 4e5 simulated samples per qubit count.

Each checker takes the workload, one parsed CSV (a list of row dicts, or
None when the command failed) per command and, for leak_curve, the
`program_gamma` of the run's base seed; it returns
{(command_index, point): [reasons]} for the points that fail.
"""

import csv
import functools
import io
import math
from collections import defaultdict

import numpy as np

from workloads import CONTROL_STEPS

EXACT = 1e-12        # identities that hold up to rounding
ANALYTIC = 1e-9      # simulated single-qubit chains against the closed form
SIGMAS = 5.0         # statistical checks: allowed standard errors


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _num(row, key):
    return float(row[key]) if row[key] != "" else None


# ---- closed forms -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def series_mean(ne, terms=10 ** 6):
    """1/2 + 1/2 sum_m C(1/2, m) (-1)^m (m+1)^-ne.

    E[sqrt(1 - prod_k x_k)] for ne independent uniform x_k, expanded in
    powers of the product: the exact ε=0 mean of one layer at α=0, where
    |<0|V|0>|^2 is uniform for a Haar 2x2 V. The tail beyond `terms` is
    added from c_m ~ -m^(-3/2) / (2 sqrt(pi)).
    """
    m = np.arange(1, terms + 1, dtype=float)
    c = np.cumprod((m - 1.5) / m)
    head = 1.0 + math.fsum(c * (m + 1.0) ** -ne)
    edge = terms + 0.5
    tail = -edge ** -(ne + 0.5) / ((ne + 0.5) * 2.0 * math.sqrt(math.pi))
    return 0.5 + 0.5 * (head + tail)


def quadrature_mean(ne, h=1.0 / 128, tmax=4.0):
    """The same mean by tanh-sinh quadrature over the product's density.

    prod_k x_k has density (-ln y)^(ne-1) / (ne-1)! on (0, 1), so the mean is
    1/2 + 1/2 int_0^1 sqrt(1 - y) (-ln y)^(ne-1) / (ne-1)! dy. With
    y = 1 / (1 + e^(-2u)), both -ln y and 1 - y are evaluated without
    cancellation near the end points.
    """
    t = np.arange(-tmax, tmax + h / 2, h)
    u = 0.5 * math.pi * np.sinh(t)
    minus_log_y = np.log1p(np.exp(-2.0 * u))
    one_minus_y = 1.0 / (1.0 + np.exp(2.0 * u))
    dy_dt = 0.5 * math.pi * np.cosh(t) / (2.0 * np.cosh(u) ** 2)
    f = np.sqrt(one_minus_y) * minus_log_y ** (ne - 1) / math.factorial(ne - 1)
    return 0.5 + 0.5 * h * math.fsum(f * dy_dt)


def chain_pguess(n_layers, epsilon, alpha):
    """1/2 + 1/2 (|q| / sqrt(p^2 + q^2))^(2n - 1) for single-qubit layers."""
    p = epsilon + (1.0 - epsilon) * math.sin(alpha)
    q = (1.0 - epsilon) * math.cos(alpha)
    return 0.5 + 0.5 * (abs(q) / math.hypot(p, q)) ** (2 * n_layers - 1)


def binary_entropy(p):
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def program_gamma(base_seed):
    """gamma(eps, ne, rep): qdleak's decoherence factor of one leak_curve device."""
    from qdleak import (DecoherenceFactorParams, ScenarioSpec,
                        decoherence_factor, scenario_seed)
    params = DecoherenceFactorParams(pointer_basis="computational")

    def gamma(eps, ne, rep):
        seed = scenario_seed(base_seed, "computational", "haar", eps, 0.0, ne, rep)
        spec = ScenarioSpec(basis="computational", key_bit=0, n_layers=1,
                            qubits_per_layer=ne, epsilon=eps, alpha=0.0,
                            mode="haar", seed=seed)
        return decoherence_factor(spec, params)
    return gamma


# ---- helpers ------------------------------------------------------------------

class _Failures:
    def __init__(self):
        self.points = defaultdict(list)

    def require(self, ok, key, reason):
        if not ok:
            self.points[key].append(reason)
        return ok


def _group(workload, tables, fails):
    """{command_index: {point: [rows]}}; missing tables fail all their points."""
    grouped = {}
    for i, (cmd, rows) in enumerate(zip(workload.commands, tables)):
        if rows is None:
            for p in cmd.points():
                fails.require(False, (i, p), "command failed")
            continue
        by_point = defaultdict(list)
        for row in rows:
            by_point[cmd.point_of(row)].append(row)
        grouped[i] = by_point
    return grouped


def _single_stat(fails, key, rows, statistic):
    """The one row of `statistic` at a point, or None (recorded as a failure)."""
    hits = [r for r in rows if r["statistic"] == statistic and not r["skip_reason"]]
    if fails.require(len(hits) == 1, key, f"expected one {statistic} row, got {len(hits)}"):
        return hits[0]
    return None


def _in_unit_half(fails, key, value):
    fails.require(0.5 - EXACT <= value <= 1.0 + EXACT, key, f"p={value} outside [1/2, 1]")


# ---- workloads ----------------------------------------------------------------

def check_leak_curve(workload, tables, gamma=None):
    """pguess-vs-epsilon (command 0) and partial-control-table (command 1)."""
    fails = _Failures()
    grouped = _group(workload, tables, fails)
    full_cmd, antenna_cmd = workload.commands
    full = {}
    if 0 in grouped:
        for point in full_cmd.points():
            key = (0, point)
            row = _single_stat(fails, key, grouped[0].get(point, []), "p_guess")
            if row is None:
                continue
            eps, ne = point
            mean, std, reps = _num(row, "mean"), _num(row, "std"), _num(row, "repetitions")
            full[point] = mean
            _in_unit_half(fails, key, mean)
            fails.require(reps == full_cmd.reps, key, f"repetitions {reps}")
            if eps == 1.0:
                fails.require(abs(mean - 0.5) <= EXACT, key, f"eps=1 mean {mean} != 1/2")
            if eps == 0.0:
                target = series_mean(ne)
                # sd of 1/2 + 1/2 sqrt(1 - Y) with E[Y] = 2^-ne
                exact_sd = 0.5 * math.sqrt(1.0 - 2.0 ** -ne - (2.0 * target - 1.0) ** 2)
                se = max(std, exact_sd) / math.sqrt(full_cmd.reps)
                fails.require(abs(mean - target) <= SIGMAS * se, key,
                              f"eps=0 mean {mean} vs {target} (se {se})")
            if gamma is not None:
                pure = [0.5 + 0.5 * math.sqrt(max(0.0, 1.0 - gamma(eps, ne, r) ** 2))
                        for r in range(full_cmd.reps)]
                expected = float(np.mean(pure))
                fails.require(abs(mean - expected) <= EXACT, key,
                              f"mean {mean} vs pure-state identity {expected}")
    if 1 in grouped:
        for point in antenna_cmd.points():
            key = (1, point)
            rows = grouped[1].get(point, [])
            eps, ne = point
            fails.require(len(rows) == CONTROL_STEPS, key,
                          f"expected {CONTROL_STEPS} antenna rows, got {len(rows)}")
            ranked = [(int(r["controlled_qubits"]), r) for r in rows]
            ranked.sort(key=lambda kr: kr[0])
            fed = [(k, _num(r, "mean")) for k, r in ranked if k >= 1]
            skipped = [r["skip_reason"] for k, r in ranked if k < 1]
            fails.require([k for k, _ in fed] == list(range(1, ne + 1)), key,
                          f"antenna ranks {[k for k, _ in fed]}")
            fails.require(all(s == "k_out_of_range" for s in skipped), key,
                          f"skip reasons {skipped}")
            if len(fed) != ne:
                continue
            for _, mean in fed:
                _in_unit_half(fails, key, mean)
                if eps == 1.0:
                    fails.require(abs(mean - 0.5) <= EXACT, key, f"eps=1 antenna mean {mean}")
            for (k0, m0), (k1, m1) in zip(fed, fed[1:]):
                fails.require(m0 <= m1 + EXACT, key, f"rank {k0} {m0} > rank {k1} {m1}")
            if point in full:
                fails.require(abs(fed[-1][1] - full[point]) <= EXACT, key,
                              f"full-rank antenna {fed[-1][1]} != full control {full[point]}")
            else:
                fails.require(False, key, "no full-control row on the same devices")
    return dict(fails.points)


def check_rejected_rounds(workload, tables, gamma=None):
    """decoherence-sweep over eps x qubits_per_layer, both bases."""
    fails = _Failures()
    grouped = _group(workload, tables, fails)
    (cmd,) = workload.commands
    if 0 not in grouped:
        return dict(fails.points)
    for point in cmd.points():
        key = (0, point)
        row = _single_stat(fails, key, grouped[0].get(point, []), "gamma")
        if row is None:
            continue
        eps, ne = point
        mean, std = _num(row, "mean"), _num(row, "std")
        fails.require(-EXACT <= mean <= 1.0 + EXACT, key, f"gamma={mean} outside [0, 1]")
        if eps == 1.0:
            fails.require(abs(mean - 1.0) <= EXACT, key, f"eps=1 gamma {mean} != 1")
        if eps == 0.0:
            # The row averages both bases: 2 * reps values, whatever the
            # repetitions column says.
            target = (2.0 / 3.0) ** ne
            exact_sd = math.sqrt(2.0 ** -ne - target ** 2)   # E[gamma^2] = 2^-ne
            se = max(std, exact_sd) / math.sqrt(2 * cmd.reps)
            fails.require(abs(mean - target) <= SIGMAS * se, key,
                          f"eps=0 gamma {mean} vs (2/3)^{ne} (se {se})")
    return dict(fails.points)


def check_layer_depth(workload, tables, gamma=None):
    """Haar layers-table read at layer 1, and the analytic conjecture-check."""
    fails = _Failures()
    grouped = _group(workload, tables, fails)
    for i, cmd in enumerate(workload.commands):
        if i not in grouped:
            continue
        if cmd.name == "layers-table":
            means = {}
            for point in cmd.points():
                row = _single_stat(fails, (i, point), grouped[i].get(point, []), "p_guess")
                if row is not None:
                    means[point] = _num(row, "mean")
                    _in_unit_half(fails, (i, point), means[point])
            for (eps, nl), mean in means.items():
                key = (i, (eps, nl))
                if nl == 2 and (eps, 1) in means:
                    # link 2 acts on layer 1 as a channel: data processing
                    fails.require(mean <= means[(eps, 1)] + EXACT, key,
                                  f"nl=2 {mean} > nl=1 {means[(eps, 1)]}")
                if nl > 2 and (eps, 2) in means:
                    # no link after the second touches layer 1
                    fails.require(abs(mean - means[(eps, 2)]) <= EXACT, key,
                                  f"nl={nl} {mean} != nl=2 {means[(eps, 2)]}")
        else:
            for point in cmd.points():
                key = (i, point)
                eps, alpha, nl = point
                rows = grouped[i].get(point, [])
                stats = {r["statistic"]: _num(r, "mean") for r in rows
                         if not r["skip_reason"]}
                if not fails.require(len(stats) == 5 == len(rows), key,
                                     f"expected 5 analytic rows, got {sorted(stats)}"):
                    continue
                target = chain_pguess(nl, eps, alpha)
                h = binary_entropy(target)
                for stat, want in (("analytic_p_guess", target), ("p_guess", target),
                                   ("key_rate", h), ("mutual_information", 1.0 - h)):
                    fails.require(abs(stats[stat] - want) <= ANALYTIC, key,
                                  f"{stat} {stats[stat]} vs {want}")
                fails.require(stats["deviation"] <= ANALYTIC, key,
                              f"deviation {stats['deviation']}")
    return dict(fails.points)


CHECKS = {
    "leak_curve": check_leak_curve,
    "rejected_rounds": check_rejected_rounds,
    "layer_depth": check_layer_depth,
}
