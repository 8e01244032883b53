"""Workload definitions: the qdleak command calls each workload makes.

A workload is a list of `Command`s run in order through `qdleak.cli.main`
with one base seed. Every command knows its grid points (one operation each)
and the call counts of the traced functions it implies, so the traced run
can prove that the tracer saw every call.
"""

from collections import Counter
from dataclasses import dataclass

BOTH_BASES = ("computational", "hadamard")

# partial-control-table tries ranks 2^(ne - j) for j = 0..6.
CONTROL_STEPS = 7

# Short keys used below -> traced metric names.
TRACED_NAMES = {
    "main": "cli.main",
    "run_experiment": "experiments.run_experiment",
    "write_csv": "experiments.write_csv",
    "derive_seed": "experiments.derive_seed",
    "run_exchange_pair": "model.run_exchange_pair",
    "run_exchange": "model.run_exchange",
    "build_interaction_chain": "model.build_interaction_chain",
    "decoherence_factor": "model.decoherence_factor",
    "apply_unitary": "linalg.apply_unitary",
    "apply_unitary_amplitudes": "linalg.apply_unitary.amplitudes",
    "random_complementary_projectors": "linalg.random_complementary_projectors",
    "haar_unitary": "linalg.haar_unitary",
    "orthonormalize_qr": "linalg.orthonormalize_qr",
    "kron": "linalg.kron",
    "trace_norm": "linalg.trace_norm",
    "helstrom_pguess": "eavesdropper.helstrom_pguess",
    "nested_control_pguess": "eavesdropper.nested_control_pguess",
}


@dataclass(frozen=True)
class Command:
    """One `qdleak <name>` call with pinned grids and repetitions."""

    name: str
    eps: tuple
    ne: tuple = (1,)
    nl: tuple = (1,)
    reps: int = 1
    alpha: float | None = 0.0
    eve_layer: int | None = None

    @property
    def csv_name(self):
        ne = "-".join(str(n) for n in self.ne)
        return f"{self.name}-ne{ne}-a{self.alpha}.csv"

    def argv(self, seed, out_path, jobs=1):
        args = [self.name, "--seed", str(seed), "--jobs", str(jobs),
                "--reps", str(self.reps), "--out", str(out_path),
                "--eps-grid", _join(self.eps), "--ne-grid", _join(self.ne),
                "--nl-grid", _join(self.nl)]
        if self.alpha is not None:
            args += ["--alpha", repr(self.alpha)]
        if self.eve_layer is not None:
            args += ["--eve-layer", str(self.eve_layer)]
        return args

    def points(self):
        """Grid points, keyed the way `point_of` keys CSV rows."""
        if self.name == "layers-table":
            return [(e, nl) for e in self.eps for nl in self.nl]
        if self.name == "conjecture-check":
            return [(e, self.alpha, nl) for e in self.eps for nl in self.nl]
        return [(e, ne) for e in self.eps for ne in self.ne]

    def point_of(self, row):
        eps = float(row["epsilon"])
        if self.name == "layers-table":
            return (eps, int(row["n_layers"]))
        if self.name == "conjecture-check":
            return (eps, float(row["alpha"]), int(row["n_layers"]))
        return (eps, int(row["qubits_per_layer"]))

    def expected_calls(self):
        """Calls of the traced functions implied by the grid and repetitions."""
        total = Counter(main=1, write_csv=1, run_experiment=1)
        for point in self.points():
            total.update(_point_calls(self, point))
        return Counter({TRACED_NAMES[k]: v for k, v in total.items()})


def _join(values):
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _chain_calls(n_layers, ne, analytic, hadamard):
    """Calls made by one model.build_interaction_chain."""
    c = Counter(build_interaction_chain=1)
    for link in range(n_layers):
        if analytic:
            continue
        if link > 0:
            c["random_complementary_projectors"] += 1
        c["haar_unitary"] += ne
        c["orthonormalize_qr"] += 2 * ne   # haar draw + noisy-unitary QR
        c["kron"] += ne                    # kron_all of the per-qubit factors
        if hadamard:
            source_qubits = 1 if link == 0 else ne
            c["kron"] += 2 * source_qubits + 2 * ne
    return c


def _exchange_pair_calls(n_layers, ne, analytic=False):
    """Calls made by one model.run_exchange_pair (two run_exchange)."""
    one = Counter(run_exchange=1, apply_unitary=1 + n_layers,
                  apply_unitary_amplitudes=(1 + n_layers) * 2 ** (2 + n_layers * ne),
                  kron=2 + 2 * n_layers)   # premeasurement + one operator per link
    one.update(_chain_calls(n_layers, ne, analytic, hadamard=False))
    pair = Counter(run_exchange_pair=1)
    for _ in range(2):
        pair.update(one)
    return pair


def _point_calls(cmd, point):
    c = Counter()
    if cmd.name == "decoherence-sweep":
        _, ne = point
        for _ in range(cmd.reps):
            for basis in BOTH_BASES:
                c.update(derive_seed=1, decoherence_factor=1)
                c.update(_chain_calls(1, ne, False, basis == "hadamard"))
        c["derive_seed"] += 1                              # row seed
    elif cmd.name == "conjecture-check":
        _, _, nl = point
        c.update(derive_seed=2, helstrom_pguess=1, trace_norm=1)
        c.update(_exchange_pair_calls(nl, 1, analytic=True))
    elif cmd.name == "layers-table":
        _, nl = point
        for _ in range(cmd.reps):
            c.update(derive_seed=1, helstrom_pguess=1, trace_norm=1)
            c.update(_exchange_pair_calls(nl, cmd.ne[0]))
        c["derive_seed"] += 1
    elif cmd.name == "pguess-vs-epsilon":
        _, ne = point
        for _ in range(cmd.reps):
            c.update(derive_seed=1, helstrom_pguess=1, trace_norm=1)
            c.update(_exchange_pair_calls(cmd.nl[0], ne))
        c["derive_seed"] += 1
    elif cmd.name == "partial-control-table":
        _, ne = point
        ranks = min(ne, CONTROL_STEPS)
        for _ in range(cmd.reps):
            # scenario and antenna seeds; one Haar antenna, one trace norm per rank
            c.update(derive_seed=2, nested_control_pguess=1, haar_unitary=1,
                     orthonormalize_qr=1, trace_norm=ranks)
            c.update(_exchange_pair_calls(cmd.nl[0], ne))
        c["derive_seed"] += CONTROL_STEPS
    else:
        raise ValueError(f"unknown command {cmd.name!r}")
    return c


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple

    def points(self):
        return [(i, p) for i, cmd in enumerate(self.commands) for p in cmd.points()]

    def expected_calls(self):
        total = Counter()
        for cmd in self.commands:
            total.update(cmd.expected_calls())
        return total


LEAK_EPS = (0.0, 0.5, 1.0)
LEAK_NE = (3, 4, 5, 6, 7)
LEAK_REPS = 20

REJECTED_EPS = (0.0, 0.25, 0.5, 0.75, 1.0)
REJECTED_NE = (1, 2, 3, 4, 5, 6, 7)
REJECTED_REPS = 20

DEPTH_EPS = (0.0, 0.5, 0.9)
DEPTH_REPS = 10
# qubits_per_layer -> deepest chain under the 14-qubit ceiling 2 + nl*ne <= 14
DEPTH_LAYERS = {2: 6, 3: 4, 4: 3}
CONJECTURE_EPS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
CONJECTURE_ALPHAS = (0.0, 0.5)
CONJECTURE_LAYERS = tuple(range(1, 9))

WORKLOADS = {
    # Accepted rounds through one layer: single-link state evolution and
    # 8-128 dimensional discrimination. Same seed, so both probe one device set.
    "leak_curve": Workload("leak_curve", (
        Command("pguess-vs-epsilon", LEAK_EPS, LEAK_NE, reps=LEAK_REPS),
        Command("partial-control-table", LEAK_EPS, LEAK_NE, reps=LEAK_REPS),
    )),
    # Chain draws only: no state vector and no eavesdropper.
    "rejected_rounds": Workload("rejected_rounds", (
        Command("decoherence-sweep", REJECTED_EPS, REJECTED_NE, reps=REJECTED_REPS,
                alpha=None),
    )),
    # Global states of up to 2^14 amplitudes behind 2-16 dimensional layers;
    # one layers-table call per qubits_per_layer, since the command reads
    # only the first --ne-grid value.
    "layer_depth": Workload("layer_depth", tuple(
        Command("layers-table", DEPTH_EPS, (ne,), tuple(range(1, deepest + 1)),
                reps=DEPTH_REPS, eve_layer=1)
        for ne, deepest in DEPTH_LAYERS.items()
    ) + tuple(
        Command("conjecture-check", CONJECTURE_EPS, (1,), CONJECTURE_LAYERS,
                alpha=alpha)
        for alpha in CONJECTURE_ALPHAS
    )),
}

# One tiny call of every command before timing starts: imports, LAPACK and
# first-call costs land in setup_s, and every traced function runs at least once.
WARMUP = (
    Command("decoherence-sweep", (0.5,), alpha=None),
    Command("pguess-vs-epsilon", (0.5,)),
    Command("partial-control-table", (0.5,)),
    Command("layers-table", (0.5,), nl=(2,), eve_layer=1),
    Command("conjecture-check", (0.5,)),
)
