"""ddforge: dynamical-decoupling schedule compiler and exact small-bath simulator.

Builds ideal pi-pulse schedules (Uhrig, CPMG, periodic, concatenated and
Uhrig-over-Uhrig families) with exact rational timing, composes their exact
unitaries under dense qubit-bath models, extracts effective generators via
the principal matrix log, and fits decoherence-suppression orders.

The imports below are the public names, written once; ``import *`` takes
them and the submodules.
"""

from .analysis import (
    OrderFit,
    count_compare,
    crossover,
    default_t_grid,
    dephasing_bound_constant,
    evaluate_scan,
    fit_order,
    order_scan,
)
from .bath import (
    BathOperators,
    ModelSpec,
    alpha,
    build_model,
    spec_from_json,
    spec_to_json,
    spectral_norm,
    total_hamiltonian,
)
from .effective import (
    BranchAmbiguityError,
    EffectiveHamiltonian,
    error_functionals,
    magnus_cdd_predict,
    pauli_decompose,
    sequence_effective,
)
from .evolution import (
    UnitaryResult,
    control_product,
    entanglement_fidelity,
    pulse_unitary,
    sequence_unitary,
)
from .sequences import (
    FAMILIES,
    PauliAxis,
    Pulse,
    PulseSequence,
    a_n,
    build_sequence,
    cdd_count_estimate,
    cdd_full,
    cdd_xx,
    commensurate_grid,
    cpmg,
    cpmg_udd,
    cudd,
    cudd_count,
    d_approx,
    icpmg,
    pdd,
    schedule_from_json,
    schedule_to_json,
    spin_echo,
    udd2_approx,
    udd2_count,
    udd_instants,
    udd_sequence,
)

__version__ = "0.1.0"
