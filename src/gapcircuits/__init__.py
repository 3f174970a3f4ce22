"""Reversible circuits whose acceptance probability encodes a counting gap.

Three search problems (orthogonal-vector pairs, zero-sum triples, and
negative-weight triangles) compile to circuits over {H, X, Z, CX, Toffoli,
multi-controlled bitmask, table load} such that the probability of the
all-zero / all-plus outcome equals gap^2 / 2^k exactly, where gap counts
solutions against non-solutions and k is fixed by the instance shape.

The package provides the builders, two exact simulators (path-sum and
dense signed basis words), brute-force oracles, a gate-count accountant with
closed-form per-step bounds, text and JSON file formats, and a CLI.
"""

from .arithmetic import ArithLayout, emit_adder, emit_comparator_ge, emit_comparator_gt
from .builders import (
    BuiltCircuit,
    Instance,
    InstanceError,
    MODE_EXPLICIT,
    MODE_QRAM,
    NwtInstance,
    OVInstance,
    PROBLEM_3SUM,
    PROBLEM_NWT,
    PROBLEM_OV,
    ThreeSumInstance,
    build_circuit,
    build_nwt_circuit,
    build_ov_circuit,
    build_threesum_circuit,
    build_w_matrix,
    denom_exponent,
    derive_index_width,
    derive_sum_width,
    derive_weight_width,
    hardness_time,
    qubit_formula,
    sentinel_value,
)
from .dataload import (
    DataTable,
    emit_equality_flag,
    emit_loader_unitary,
    emit_qram_load,
    qram_semantics,
)
from .instancefile import (
    BUDGETS,
    SCHEMA,
    generate,
    generate_nwt,
    generate_ov,
    generate_threesum,
    instance_from_dict,
    instance_from_text,
    instance_to_dict,
    instance_to_text,
    read_instance,
    stable_seed,
    write_instance,
)
from .ir import (
    BitString,
    CX,
    Circuit,
    CircuitError,
    Gate,
    H,
    MCBitmask,
    MeasurementPlan,
    QramLoad,
    Register,
    Toffoli,
    X,
    Z,
    mcx_toffoli_cost,
    new_circuit,
)
from .simulator import (
    BRANCH_CAP_DEFAULT,
    CapExceededError,
    SimOutcome,
    SimulationError,
    apply_gates,
    dense_acceptance,
    simulate_dense,
    simulate_pathsum,
)
from .textio import built_from_text, built_to_text, circuit_from_text, circuit_to_text
from .verification import (
    DENSE_TOLERANCE,
    GateCountReport,
    OracleCounts,
    VerifyResult,
    gate_accountant,
    oracle_counts,
    oracle_nwt,
    oracle_ov,
    oracle_threesum,
    predicted_pacc,
    render_report,
    step_gate_bounds,
    tally_gates,
    verify_built,
    verify_instance,
)

__version__ = "0.1.0"
