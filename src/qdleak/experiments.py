"""Deterministic seed-averaged experiment sweeps with CSV output.

Each experiment evaluates a grid of scenarios, averaging every statistic
over `repetitions` independently seeded runs. Seeds are pure hashes of
(base_seed, scenario coordinates, repetition index), so re-running a sweep
reproduces its CSV byte for byte, grid points can be computed in any order
by a worker pool, and extending a grid never perturbs existing rows.

The repetition hash deliberately omits n_layers and the control rank: rows
that differ only in those reuse the same drawn couplings (one physical
device, probed at different depths / with different antennas), which makes
the documented monotonicity trends hold per repetition instead of merely on
average.

Every experiment runs the same job on each point of the product of its four
grids; a table per experiment names the grids its rows vary over, its
defaults, the devices (mode and bases) one point averages and the
measurement taken on each. A SweepConfig applies the table when it is built.
"""

import contextlib
import csv
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, fields
from functools import cache, partial

import numpy as np

from .eavesdropper import (
    analytic_pguess,
    helstrom_pguess,
    key_rate,
    mutual_information,
    nested_control_pguess,
    subset_pguess,
)
from .errors import DegeneracyError
from .linalg import _integer, _integers
from .model import (
    COMPUTATIONAL,
    HADAMARD,
    MODE_ANALYTIC,
    MODE_HAAR,
    DecoherenceFactorParams,
    ScenarioSpec,
    decoherence_factor,
    run_exchange_pair,
)

DEFAULT_BASE_SEED = 101
DEFAULT_REPETITIONS = 200

# partial-control models: the antenna's nested random ranks, or the first
# k qubits of the layer
CONTROL_RANK = "rank"
CONTROL_SUBSET = "subset"
CONTROL_MODES = (CONTROL_RANK, CONTROL_SUBSET)

# Table of control percentages: 100 / 2**j, j = 0..6. A cell is feasible
# when the implied rank 2**k has k >= 1.
CONTROL_PERCENT_STEPS = tuple(range(7))

# The grids of a sweep, in grid-point order, and the CSV column each fills.
_GRID_COLUMNS = {
    "eps_grid": "epsilon",
    "alpha_grid": "alpha",
    "nl_grid": "n_layers",
    "ne_grid": "qubits_per_layer",
}


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary hashable coordinates."""
    token = "|".join(f"{type(p).__name__}:{p!r}" for p in parts)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def scenario_seed(base_seed, basis, mode, epsilon, alpha, qubits_per_layer, rep):
    """Per-repetition seed; independent of n_layers and of the control rank."""
    return derive_seed(base_seed, "scenario", basis, mode, float(epsilon),
                       float(alpha), int(qubits_per_layer), int(rep))


def control_seed(seed_of_scenario):
    """Sub-stream for the eavesdropper's antenna subspace."""
    return derive_seed(seed_of_scenario, "control")


@dataclass(frozen=True)
class SweepConfig:
    """Grid, averaging and output settings for one experiment run.

    Building a config checks it whole, raising ValueError: types and ranges,
    then an optional setting (eve_layer, control_mode, basis) the experiment
    does not read; unset settings (None or an empty grid) then take the
    experiment's defaults, each grid is checked for repeats and its fixed or
    pinned value, and each point's seed-0 scenario is built. Integer settings
    and ne/nl grid entries take Python or numpy integers; only eve_layer may be None.
    """

    experiment: str
    eps_grid: tuple = ()
    ne_grid: tuple = ()
    nl_grid: tuple = ()
    alpha_grid: tuple = ()
    repetitions: int = DEFAULT_REPETITIONS
    base_seed: int = DEFAULT_BASE_SEED
    output_path: str | None = None
    jobs: int = 1
    eve_layer: int | None = None
    control_mode: str | None = None
    basis: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}")
        for name in ("repetitions", "base_seed", "jobs", "eve_layer"):
            if name != "eve_layer" or self.eve_layer is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.control_mode not in (None, *CONTROL_MODES):
            raise ValueError(f"control_mode must be one of {CONTROL_MODES}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not 0 <= self.base_seed < 2 ** 64:
            raise ValueError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        # + 0.0 turns -0.0 into 0.0: both name one point, whose seeds hash repr()
        object.__setattr__(self, "eps_grid", tuple(float(e) + 0.0 for e in self.eps_grid))
        for grid in ("ne_grid", "nl_grid"):
            object.__setattr__(self, grid, _integers(grid, getattr(self, grid)))
        object.__setattr__(self, "alpha_grid", tuple(float(a) + 0.0 for a in self.alpha_grid))
        # NaN fails both comparisons, so this also rejects non-finite values
        if not all(0.0 <= e <= 1.0 for e in self.eps_grid):
            raise ValueError(f"every epsilon must be finite and in [0, 1], got {self.eps_grid}")
        # the experiment's table; its refusals come before any scenario is built
        sweep = _SWEEPS[self.experiment]
        for name in ("eve_layer", "control_mode", "basis"):
            if getattr(self, name) is not None and name not in sweep.defaults:
                raise ValueError(f"{self.experiment} does not read {name}")
        for name, value in sweep.defaults.items():
            if getattr(self, name) in (None, ()):
                object.__setattr__(self, name, value)
        for grid, column in _GRID_COLUMNS.items():
            values = getattr(self, grid)
            if len(set(values)) != len(values):
                raise ValueError(f"{grid} repeats a value: {values}")
            if column not in sweep.axes and len(values) != 1:
                raise ValueError(f"{self.experiment} does not sweep {column}: "
                                 f"{grid} must hold one value, got {values}")
            if grid in sweep.pinned and values != sweep.defaults[grid]:
                raise ValueError(f"{self.experiment} runs only at {grid} = "
                                 f"{sweep.defaults[grid]}, got {values}")
        for point in _points(self):
            for basis in sweep.bases or (self.basis,):
                _scenario(self, point, basis, seed=0)


def _pguess(config, spec):
    return {(spec.qubits_per_layer, "p_guess"): helstrom_pguess(*run_exchange_pair(spec))}


def _partial_control(config, spec):
    ranks = [spec.qubits_per_layer - j for j in CONTROL_PERCENT_STEPS]
    ks = [k for k in ranks if k >= 1]
    rho0, rho1 = run_exchange_pair(spec)
    if config.control_mode == CONTROL_RANK:
        rng = np.random.default_rng(control_seed(spec.seed))
        per_k = nested_control_pguess(rho0, rho1, ks, rng)
    else:
        per_k = {k: subset_pguess(rho0, rho1, range(k)) for k in ks}
    return {(k, "p_guess"): per_k.get(k) for k in ranks}


def _gamma(config, spec):
    params = DecoherenceFactorParams(pointer_basis=spec.basis)
    return {(None, "gamma"): decoherence_factor(spec, params)}


def _conjecture(config, spec):
    stats = ("analytic_p_guess", "p_guess", "deviation", "key_rate",
             "mutual_information")
    try:
        predicted = analytic_pguess(spec.n_layers, spec.epsilon, spec.alpha)
    except DegeneracyError:
        return {(1, stat): None for stat in stats}
    simulated = _pguess(config, spec)[(1, "p_guess")]
    values = (predicted, simulated, abs(simulated - predicted),
              key_rate(predicted), mutual_information(predicted))
    return {(1, stat): value for stat, value in zip(stats, values)}


@dataclass(frozen=True)
class _Sweep:
    """How one experiment turns a grid point into rows.

    axes: the CSV columns its rows vary over, in row-seed order; the grids
    of the other columns hold one value, and the `pinned` ones only their
    default (a pinned alpha_grid leaves the alpha column empty). defaults:
    the value of each unset SweepConfig field, listing every optional
    setting (eve_layer, control_mode, basis) the sweep reads; one it does
    not list is refused. measure(config, spec): {(controlled_qubits,
    statistic): value} of one device; a None value makes that row a skipped
    one. A point averages one device per repetition and per basis of
    `bases` (None: the config's basis), all in `mode`; MODE_ANALYTIC draws
    nothing, so it averages one device.
    """

    axes: tuple
    defaults: dict
    measure: object
    skip_reason: str = ""
    pinned: tuple = ()
    mode: str = MODE_HAAR
    bases: tuple | None = None


_EPS_TENTHS = tuple(round(0.1 * i, 1) for i in range(11))

_SWEEPS = {
    # Rejected rounds are scored in both pointer bases; no eavesdropper reads them.
    "decoherence_sweep": _Sweep(
        ("epsilon", "qubits_per_layer"),
        dict(eps_grid=(0.0, 0.25, 0.5, 0.75, 1.0), ne_grid=(1, 2, 3, 4, 5, 6, 7),
             nl_grid=(1,), alpha_grid=(0.0,)),
        _gamma, pinned=("nl_grid", "alpha_grid"), bases=(COMPUTATIONAL, HADAMARD)),
    "pguess_vs_epsilon": _Sweep(
        ("epsilon", "qubits_per_layer"),
        dict(eps_grid=_EPS_TENTHS, ne_grid=(3, 4, 5, 6, 7), nl_grid=(1,),
             alpha_grid=(0.0,), eve_layer=None, basis=COMPUTATIONAL),
        _pguess),
    "partial_control_table": _Sweep(
        ("epsilon", "qubits_per_layer", "controlled_qubits"),
        dict(eps_grid=(0.0,), ne_grid=(3, 4, 5, 6, 7), nl_grid=(1,), alpha_grid=(0.0,),
             eve_layer=None, control_mode=CONTROL_RANK, basis=COMPUTATIONAL),
        _partial_control, skip_reason="k_out_of_range"),
    # The published multi-layer table reads the first layer: it is hit by
    # the first interlayer projector pair and untouched afterwards.
    "layers_table": _Sweep(
        ("epsilon", "n_layers"),
        dict(eps_grid=(0.5, 0.7, 0.9), ne_grid=(2,), nl_grid=(1, 2, 3), alpha_grid=(0.0,),
             eve_layer=1, basis=COMPUTATIONAL),
        _pguess),
    "conjecture_check": _Sweep(
        ("epsilon", "alpha", "n_layers"),
        dict(eps_grid=_EPS_TENTHS, ne_grid=(1,), nl_grid=(1, 2, 3, 4, 5),
             alpha_grid=(0.0, math.pi / 6, math.pi / 4), basis=COMPUTATIONAL),
        _conjecture, skip_reason="degenerate_coupling", pinned=("ne_grid",),
        mode=MODE_ANALYTIC),
}

EXPERIMENTS = tuple(_SWEEPS)


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: a seed-averaged statistic at one grid point."""

    experiment: str
    epsilon: float | None
    alpha: float | None
    n_layers: int | None
    qubits_per_layer: int | None
    controlled_qubits: int | None
    statistic: str
    mean: float | None
    std: float | None
    repetitions: int | None
    seed: int
    skip_reason: str = ""

    def to_csv(self):
        def fmt(x):
            return "" if x is None else (repr(x) if isinstance(x, float) else str(x))
        return [fmt(getattr(self, name)) for name in CSV_HEADER]

    def sort_key(self):
        """The columns up to the statistic, a None before any number."""
        values = (getattr(self, name) for name in CSV_HEADER[:7])
        return tuple(-math.inf if x is None else x for x in values)


CSV_HEADER = tuple(f.name for f in fields(ResultRow))


def _mean_std(values):
    if len(values) == 1:
        # the ddof=1 std of a single value is NaN
        return float(values[0]), 0.0
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1))


def _points(config):
    """The grid points (epsilon, alpha, n_layers, ne) of a config, in order."""
    return list(itertools.product(*(getattr(config, g) for g in _GRID_COLUMNS)))


def _scenario(config, point, basis, seed):
    epsilon, alpha, n_layers, ne = point
    return ScenarioSpec(
        basis=basis, key_bit=0, n_layers=n_layers, qubits_per_layer=ne,
        epsilon=epsilon, alpha=alpha, mode=_SWEEPS[config.experiment].mode, seed=seed,
        eve_layer=config.eve_layer)


def _grid_point_job(config, point):
    """The rows of one grid point (epsilon, alpha, n_layers, ne)."""
    sweep = _SWEEPS[config.experiment]
    epsilon, alpha, _, ne = point
    # the closed form reads one device; repetitions is still accepted there,
    # since callers run all five experiments from one SweepConfig
    reps = 1 if sweep.mode == MODE_ANALYTIC else config.repetitions
    samples = {}
    for rep, basis in itertools.product(range(reps), sweep.bases or (config.basis,)):
        seed = scenario_seed(config.base_seed, basis, sweep.mode, epsilon, alpha, ne, rep)
        spec = _scenario(config, point, basis, seed)
        for key, value in sweep.measure(config, spec).items():
            samples.setdefault(key, []).append(value)

    # Rows that share their axis coordinates share one seed.
    row_seed = cache(partial(derive_seed, config.base_seed, config.experiment))
    rows = []
    for (controlled, statistic), values in samples.items():
        columns = dict(zip(_GRID_COLUMNS.values(), point), controlled_qubits=controlled)
        if "alpha_grid" in sweep.pinned:
            columns["alpha"] = None
        seed = row_seed(*(columns[axis] for axis in sweep.axes))
        skipped = None in values
        mean, std = (None, None) if skipped else _mean_std(values)
        rows.append(ResultRow(
            config.experiment, statistic=statistic, mean=mean, std=std,
            repetitions=None if skipped else len(values), seed=seed,
            skip_reason=sweep.skip_reason if skipped else "", **columns))
    return rows


def _cpu_count():
    """CPUs this process may run on; an affinity mask can leave fewer than the host has."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_size(jobs, n_points, cpu_count):
    """Worker processes for a sweep: at most one per grid point and per CPU."""
    return max(1, min(jobs, n_points, cpu_count or 1))


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _bundled_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    libs = sorted(glob.glob(os.path.join(
        os.path.dirname(np.__file__), os.pardir, "numpy.libs",
        "libscipy_openblas64_*.so")))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread while a sweep runs, then restore it.

    The grid points are many small problems, so BLAS threads only compete
    with each other and with the worker pool, which inherits the setting
    when it forks. An explicit OPENBLAS_NUM_THREADS or OMP_NUM_THREADS wins,
    and a numpy without the bundled library is left alone.
    """
    threads = None
    if not any(var in os.environ for var in _BLAS_THREAD_VARS):
        threads = _bundled_openblas()
    if threads is None:
        yield
        return
    get_threads, set_threads = threads
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def run_experiment(config):
    """Evaluate a sweep and return its rows, stably sorted.

    The config was checked, every grid point included, when it was built.
    Numpy's bundled OpenBLAS runs one thread per process meanwhile, unless
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set. A worker that dies
    raises BrokenProcessPool rather than leaving the sweep waiting.
    """
    points = _points(config)
    bound = partial(_grid_point_job, config)
    workers = pool_size(config.jobs, len(points), _cpu_count())
    with _one_blas_thread():
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(workers) as pool:
                chunks = list(pool.map(bound, points))
        else:
            chunks = [bound(p) for p in points]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=ResultRow.sort_key)
    return rows


def _temp_path(path):
    return f"{path}.{os.getpid()}.tmp"


def write_csv(rows, path):
    """Write rows with the fixed schema: UTF-8, LF endings, '.' decimals.

    The rows go to a temporary file next to `path` that then replaces it, so
    a failed write leaves any earlier file at `path` untouched.
    """
    tmp = _temp_path(path)
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow(row.to_csv())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_and_write(config):
    """Run a sweep and write its CSV; returns (rows, path).

    Raises ValueError before any point runs when the path is empty, exists
    but is no regular file (write_csv's rename would replace a directory,
    FIFO or device node) or names a directory that does not exist, and
    OSError when write_csv's temporary file cannot be created next to it
    (the probe creates and removes it). None means `<experiment>.csv`.
    """
    path = config.output_path
    if path is None:
        path = f"{config.experiment}.csv"
    elif not path:
        raise ValueError("output path is empty")
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"output path {path!r} exists but is not a regular file")
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise ValueError(f"the directory of output path {path!r} does not exist")
    probe = _temp_path(path)
    with open(probe, "w", encoding="utf-8"):
        pass
    os.unlink(probe)
    rows = run_experiment(config)
    write_csv(rows, path)
    return rows, path
