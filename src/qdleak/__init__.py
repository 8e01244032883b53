"""qdleak: how much of a BB84 key bit leaks into a layered environment.

Library layout:

* qdleak.linalg       — dense complex kernels, Haar sampling, state types
* qdleak.model        — premeasurement, interaction chains, exchanges,
                        decoherence factor
* qdleak.eavesdropper — optimal discrimination, partial control, key rates,
                        closed forms for single-qubit layers
* qdleak.experiments  — deterministic seed-averaged sweeps with CSV output
* qdleak.cli          — the `qdleak` command
"""

from .errors import (
    ContractError,
    DegeneracyError,
    DimensionLimitError,
    QDLeakError,
)
from .linalg import (
    DIM_LIMIT,
    DensityMatrix,
    StateVector,
    apply_unitary,
    haar_unitary,
    herm_eig,
    kron,
    kron_all,
    orthonormalize_qr,
    partial_trace,
    random_complementary_projectors,
    reduced_density,
    trace_norm,
)
from .model import (
    BASES,
    COMPUTATIONAL,
    HADAMARD,
    MODE_ANALYTIC,
    MODE_HAAR,
    ChainLink,
    DecoherenceFactorParams,
    ExchangeOutcome,
    ScenarioSpec,
    basis_projectors,
    basis_states,
    build_initial_state,
    build_interaction_chain,
    build_premeasurement,
    cx,
    cz,
    decoherence_factor,
    decoherence_factor_from_state,
    q_prime,
    run_exchange,
    run_exchange_pair,
)
from .eavesdropper import (
    EavesdropQuery,
    analytic_key_rate,
    analytic_pguess,
    helstrom_pguess,
    key_rate,
    keyrate_variant_report,
    mutual_information,
    nested_control_pguess,
    sign_flipped_difference_keyrate,
    subset_pguess,
    subspace_pguess,
)
from .experiments import (
    CSV_HEADER,
    DEFAULT_BASE_SEED,
    DEFAULT_REPETITIONS,
    ResultRow,
    SweepConfig,
    derive_seed,
    run_and_write,
    run_experiment,
    scenario_seed,
    write_csv,
)

__version__ = "0.1.0"
