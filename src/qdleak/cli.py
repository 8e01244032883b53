"""Command-line experiment runner.

    qdleak [flags] <command> [flags]

where <command> is an experiments.EXPERIMENTS name with "-" for "_". The
commands share one parser; flags, spelt in full, may also precede the command.
A flat key = value config file (--config) can give any flag; its entries are
parsed before the command line's own, so a flag wins. Exit codes: 0 success,
2 configuration/argument error, 3 numerical contract violation.
"""

import argparse
import os
import sys

from .errors import QDLeakError
from .experiments import (
    CONTROL_MODES,
    DEFAULT_BASE_SEED,
    DEFAULT_REPETITIONS,
    EXPERIMENTS,
    SweepConfig,
    run_and_write,
)

_COMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}

_CONFIG_KEYS = ("seed", "reps", "jobs", "out", "alpha", "eve_layer",
                "control_mode", "eps_grid", "ne_grid", "nl_grid")
# every flag but --help takes a value
_VALUE_FLAGS = {"--config"} | {"--" + key.replace("_", "-") for key in _CONFIG_KEYS}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qdleak", allow_abbrev=False,
        description="Seed-averaged simulations of key-bit leakage through a "
                    "layered decohering environment; results land in CSV files.")
    parser.add_argument("command", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key = value config file; flags override it")
    parser.add_argument("--seed", type=int, default=DEFAULT_BASE_SEED, metavar="U64",
                        help="base seed (default %(default)s)")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPETITIONS, metavar="N",
                        help="repetitions per grid point (default %(default)s; "
                             "conjecture-check's closed form always runs 1)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
                        help="worker processes (default: logical core count)")
    parser.add_argument("--out", metavar="PATH",
                        help="output CSV path (default: <experiment>.csv)")
    parser.add_argument("--alpha", type=float, metavar="RADIANS",
                        help="coupling rotation angle (default 0; conjecture-check "
                             "sweeps 0, pi/6 and pi/4)")
    parser.add_argument("--eve-layer", type=int, metavar="INDEX",
                        help="1-based layer the eavesdropper reads (default: last; "
                             "layers-table defaults to 1); not accepted by "
                             "decoherence-sweep and conjecture-check")
    parser.add_argument("--control-mode", choices=CONTROL_MODES,
                        help="partial-control model (default rank); "
                             "partial-control-table only")
    parser.add_argument("--eps-grid", metavar="LIST",
                        help="comma-separated interaction degrees, e.g. 0,0.5,1")
    parser.add_argument("--ne-grid", metavar="LIST",
                        help="comma-separated qubits-per-layer values")
    parser.add_argument("--nl-grid", metavar="LIST",
                        help="comma-separated layer counts")
    return parser


def _joined(argv):
    """argv with each `--flag value` of a value-taking flag as `--flag=value`.

    argparse takes a separate value that starts with "-" (say "-0.0,0.5")
    for an option; joined, it is read as the value. A following long flag is
    left alone, so `--out --jobs 2` still lacks its value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def parse_config_file(path):
    """Parse a flat `key = value` file; '#' starts a comment; a key is given once."""
    values, first_line = {}, {}
    with open(path, encoding="utf-8-sig") as fh:
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: key {key!r} is given again, "
                                 f"first on line {first_line[key]}")
            values[key] = value.strip()
            first_line[key] = lineno
    return values


def _grid(name, text, convert):
    """Comma list of `convert`ed values; () when not given.

    ValueError when any entry is blank: "", ",", "0.5,,0.7", "3,".
    """
    if text is None:
        return ()
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ValueError(f"{name} {text!r} holds no value in one of its entries")
    return tuple(convert(tok) for tok in tokens)


def _sweep_config(args):
    return SweepConfig(
        experiment=_COMMANDS[args.command],
        eps_grid=_grid("eps_grid", args.eps_grid, float),
        ne_grid=_grid("ne_grid", args.ne_grid, int),
        nl_grid=_grid("nl_grid", args.nl_grid, int),
        alpha_grid=() if args.alpha is None else (args.alpha,),
        repetitions=args.reps,
        base_seed=args.seed,
        output_path=args.out,
        jobs=args.jobs,
        eve_layer=args.eve_layer,
        control_mode=args.control_mode,
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
    parser = build_parser()
    argv = _joined(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    _keep_freed_heap()
    try:
        if args.config:
            # the file's settings go first, so a flag in argv wins
            file_flags = [f"--{key.replace('_', '-')}={value}"
                          for key, value in parse_config_file(args.config).items()]
            args = parser.parse_args(file_flags + argv)
        rows, path = run_and_write(_sweep_config(args))
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
