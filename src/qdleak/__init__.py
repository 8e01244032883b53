"""qdleak: how much of a BB84 key bit leaks into a layered environment.

Library layout:

* qdleak.linalg       — dense complex kernels, Haar sampling, state types
* qdleak.model        — premeasurement, interaction chains, exchanges,
                        decoherence factor
* qdleak.eavesdropper — optimal discrimination, partial control, key rates,
                        closed forms for single-qubit layers
* qdleak.experiments  — deterministic seed-averaged sweeps with CSV output
* qdleak.cli          — the `qdleak` command

The package namespace holds what the demos and the library tour use; every
other name is imported from its submodule.
"""

from .errors import DegeneracyError
from .linalg import orthonormalize_qr
from .model import (
    DecoherenceFactorParams,
    ScenarioSpec,
    cx,
    decoherence_factor,
    decoherence_factor_from_state,
    q_prime,
    run_exchange,
    run_exchange_pair,
)
from .eavesdropper import (
    analytic_key_rate,
    analytic_pguess,
    helstrom_pguess,
    key_rate,
    keyrate_variant_report,
    mutual_information,
    nested_control_pguess,
)
from .experiments import scenario_seed

__version__ = "0.1.0"
