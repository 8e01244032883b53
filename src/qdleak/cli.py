"""Command-line experiment runner.

    qdleak <experiment> [flags]

with experiments decoherence-sweep, pguess-vs-epsilon, partial-control-table,
layers-table and conjecture-check. Every flag can also be given in a flat
key = value config file (--config); flags override file values. Exit codes:
0 success, 2 configuration/argument error, 3 numerical contract violation.
"""

import argparse
import os
import sys

from .errors import QDLeakError
from .experiments import (
    DEFAULT_BASE_SEED,
    DEFAULT_REPETITIONS,
    SweepConfig,
    run_and_write,
)

_COMMANDS = {
    "decoherence-sweep": "decoherence_sweep",
    "pguess-vs-epsilon": "pguess_vs_epsilon",
    "partial-control-table": "partial_control_table",
    "layers-table": "layers_table",
    "conjecture-check": "conjecture_check",
}

_CONFIG_KEYS = ("seed", "reps", "jobs", "out", "alpha", "eve_layer",
                "control_mode", "eps_grid", "ne_grid", "nl_grid")


def _add_common_flags(parser):
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file; flags override it")
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help=f"base seed (default {DEFAULT_BASE_SEED})")
    parser.add_argument("--reps", type=int, default=None, metavar="N",
                        help=f"repetitions per grid point (default {DEFAULT_REPETITIONS})")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: logical core count)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output CSV path (default: <experiment>.csv)")
    parser.add_argument("--alpha", type=float, default=None, metavar="RADIANS",
                        help="coupling rotation angle (default 0)")
    parser.add_argument("--eve-layer", type=int, default=None, metavar="INDEX",
                        help="1-based layer the eavesdropper reads (default: last; "
                             "layers-table defaults to 1); not accepted by "
                             "decoherence-sweep and conjecture-check")
    parser.add_argument("--control-mode", choices=("rank", "subset"), default=None,
                        help="partial-control model (default rank); "
                             "partial-control-table only")
    parser.add_argument("--eps-grid", default=None, metavar="LIST",
                        help="comma-separated interaction degrees, e.g. 0,0.5,1")
    parser.add_argument("--ne-grid", default=None, metavar="LIST",
                        help="comma-separated qubits-per-layer values")
    parser.add_argument("--nl-grid", default=None, metavar="LIST",
                        help="comma-separated layer counts")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdleak",
        description="Seed-averaged simulations of key-bit leakage through a "
                    "layered decohering environment; results land in CSV files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sp = sub.add_parser(command, help=f"run the {command.replace('-', ' ')} experiment")
        _add_common_flags(sp)
    return parser


def parse_config_file(path):
    """Parse a flat `key = value` file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _grid(name, text, convert):
    """Comma list of `convert`ed values; () when not given.

    ValueError when any entry is blank: "", ",", "0.5,,0.7", "3,".
    """
    if text is None:
        return ()
    tokens = str(text).split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"{name} {text!r} holds no value in one of its entries")
    return tuple(convert(tok) for tok in tokens)


def _merged(args):
    """Flag > config file > built-in default."""
    file_values = parse_config_file(args.config) if args.config else {}

    def pick(flag_name, file_key, convert):
        flag = getattr(args, flag_name)
        if flag is not None:
            return flag
        if file_key in file_values:
            return convert(file_values[file_key])
        return None

    seed = pick("seed", "seed", int)
    reps = pick("reps", "reps", int)
    jobs = pick("jobs", "jobs", int)
    out = pick("out", "out", str)
    alpha = pick("alpha", "alpha", float)
    eve_layer = pick("eve_layer", "eve_layer", int)
    control_mode = pick("control_mode", "control_mode", str)
    eps_grid = pick("eps_grid", "eps_grid", str)
    ne_grid = pick("ne_grid", "ne_grid", str)
    nl_grid = pick("nl_grid", "nl_grid", str)

    return SweepConfig(
        experiment=_COMMANDS[args.command],
        eps_grid=_grid("eps_grid", eps_grid, float),
        ne_grid=_grid("ne_grid", ne_grid, int),
        nl_grid=_grid("nl_grid", nl_grid, int),
        alpha_grid=(float(alpha),) if alpha is not None else (),
        repetitions=reps if reps is not None else DEFAULT_REPETITIONS,
        base_seed=seed if seed is not None else DEFAULT_BASE_SEED,
        output_path=out,
        jobs=jobs if jobs is not None else (os.cpu_count() or 1),
        eve_layer=eve_layer,
        control_mode=control_mode,
    )


# glibc mallopt parameters, and the environment variables that set them
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20  # glibc's ceiling for its own dynamic threshold
_TOP_PAD = 32 << 20
_HEAP_VARS = ("GLIBC_TUNABLES", "MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_",
              "MALLOC_TRIM_THRESHOLD_")


def _libc_mallopt():
    """glibc's mallopt(int, int) through ctypes, or None without it."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _keep_freed_heap():
    """Keep freed heap memory mapped instead of returning it to the kernel.

    A sweep allocates and frees many numpy temporaries of a few KiB to a few
    MiB. By default glibc unmaps or trims such blocks as they are freed and
    maps them in again on the next allocation, page fault by page fault.
    A fixed mmap threshold and top pad keep them in the heap. The setting
    lasts for the process (mallopt has no getter and freezes glibc's own
    tuning), which is why the CLI, which owns its process, makes it; `--jobs`
    workers inherit it. Any malloc tuning in the environment wins.
    """
    if any(var in os.environ for var in _HEAP_VARS):
        return
    mallopt = _libc_mallopt()
    if mallopt is None:
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TOP_PAD, _TOP_PAD)


def main(argv=None):
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    try:
        config = _merged(args)
        rows, path = run_and_write(config)
    except (ValueError, OSError) as exc:
        print(f"qdleak: configuration error: {exc}", file=sys.stderr)
        return 2
    except QDLeakError as exc:
        print(f"qdleak: numerical contract violation: {exc}", file=sys.stderr)
        return 3
    emitted = sum(1 for r in rows if not r.skip_reason)
    skipped = len(rows) - emitted
    note = f" ({skipped} skipped)" if skipped else ""
    print(f"wrote {len(rows)} rows{note} to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
