"""mzsim: statevector toolkit for Mach-Zehnder-style circuit experiments.

The package covers the full pipeline: exact simulation, seeded sampling
under a synthetic device-noise model, readout-error mitigation, basis-gate
transpilation with routing, OPENQASM 2.0 interchange, and the closed-form
predictions the experiments are checked against.
"""

from .analysis import (
    RunStatistics,
    argmax_gamma,
    binomial_standard_error,
    eta_from_counts,
    gamma_from_counts,
    run_statistics,
)
from .circuit import (
    Circuit,
    CircuitError,
    CountsHistogram,
    Instruction,
    simulate_ideal,
    unitary_of,
)
from .experiments import (
    ExperimentSpec,
    alpha_beta_from_theta,
    build_bomb,
    build_eraser,
    build_general_bomb,
    build_hardy,
    chain_angles_for_sweep,
    equal_angles,
    eta_equal_bs,
    eta_general,
    gamma_closed,
    gamma_diagonal,
    gamma_from_alpha_beta,
)
from .gates import GateDef, controlled, matrix_of
from .mitigation import (
    ConfusionMatrix,
    IllConditionedMatrixError,
    build_confusion_matrix,
    exact_confusion_matrix,
    mitigate,
    total_variation_distance,
)
from .noise import (
    DEVICE_PRESETS,
    DeviceModel,
    device_preset,
    ideal_counts,
    ideal_device,
    load_device,
    simulate_noisy,
    simulate_noisy_points,
    simulate_noisy_repeats,
)
from .qasm import QasmError, QasmParseError, QasmSemanticError, emit, parse
from .states import (
    StateVector,
    apply_unitary,
    equal_up_to_global_phase,
    init_state,
)
from .transpile import (
    CouplingGraph,
    TranspiledCircuit,
    decompose_to_basis,
    estimate_fidelity,
    fuse_single_qubit_runs,
    route,
    transpile,
)

__version__ = "0.1.0"
