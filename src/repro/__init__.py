"""repro — reproduction of "A Block-Diagonal Structured Model Reduction
Scheme for Power Grid Networks" (Zhang, Hu, Cheng, Wong — DATE 2011).

The package implements the BDSM algorithm (block-diagonal structured model
order reduction), the full power-grid substrate it operates on (netlists,
MNA stamping, synthetic industrial-style benchmarks), the baseline reducers
it is compared against (PRIMA, SVDMOR, EKS, multi-point projection, PMTBR),
frequency/transient simulation of both full and reduced models, and the
passivity post-processing the paper sketches.  Every reducer returns one
ROM type, ``StructuredROM``; its modal (pole-residue) form serves transfer
queries and feeds the passivity test and enforcement, whose repaired model
is a ``StructuredROM`` again.

Quick start
-----------
>>> from repro import make_benchmark, bdsm_reduce, prima_reduce
>>> system = make_benchmark("ckt1", scale="smoke")
>>> rom, stats, seconds = bdsm_reduce(system, n_moments=4)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
scripts that regenerate every table and figure of the paper.
"""

from repro.analysis import (
    FrequencyAnalysis,
    FrequencySweepResult,
    IRDropResult,
    SourceBank,
    SweepEngine,
    TransientAnalysis,
    TransientResult,
    dynamic_ir_drop,
    dynamic_ir_drop_batch,
    ir_drop_analysis,
    ir_drop_batch,
)
from repro.circuit import (
    DescriptorSystem,
    GridRegion,
    Netlist,
    PowerGridSpec,
    assemble_mna,
    benchmark_names,
    build_power_grid,
    make_benchmark,
    make_multidomain_spec,
    parse_netlist,
    parse_netlist_file,
    write_netlist,
)
from repro.core import (
    BDSMOptions,
    BlockDiagonalROM,
    bdsm_reduce,
    multipoint_bdsm_reduce,
)
from repro.exceptions import (
    CircuitError,
    NetlistParseError,
    PartitionError,
    PassivityError,
    ReductionError,
    ReproError,
    ResourceBudgetExceeded,
    SimulationError,
    SingularSystemError,
    SolverBackendError,
    StampingError,
    ValidationError,
)
from repro.linalg import (
    FactorizationCache,
    SolverOptions,
    available_backends,
    block_orthonormalize,
    clear_default_cache,
    default_cache,
    get_solver,
)
from repro.partition import (
    GridPartitioner,
    PartitionedROM,
    PartitionResult,
    available_partitioners,
    partitioned_reduce,
)
from repro.obs import (
    disable_tracing,
    enable_tracing,
    span_tree_report,
    to_chrome_trace,
    to_prometheus,
    trace_span,
    tracing_enabled,
)
from repro.mor import (
    ReducedSystem,
    ReductionSummary,
    ResourceBudget,
    StructuredROM,
    eks_reduce,
    multipoint_prima_reduce,
    pmtbr_reduce,
    prima_reduce,
    svdmor_reduce,
)
from repro.passivity import (
    enforce_passivity,
    hamiltonian_passivity_test,
    laguerre_passivity_scan,
)
from repro.serve import (
    ModelRegistry,
    QueryPlanner,
    ServeError,
    ServingStats,
)
from repro.store import (
    ModelServer,
    ModelStore,
    QueryRequest,
    StoreStats,
    load_artifact,
    save_artifact,
)
from repro.validation import (
    count_matched_moments,
    max_relative_error,
    relative_error_curve,
    rom_structure_report,
    verify_moment_matching,
)

__version__ = "1.0.0"

__all__ = [
    "BDSMOptions",
    "BlockDiagonalROM",
    "CircuitError",
    "DescriptorSystem",
    "FactorizationCache",
    "FrequencyAnalysis",
    "FrequencySweepResult",
    "GridPartitioner",
    "GridRegion",
    "IRDropResult",
    "ModelRegistry",
    "ModelServer",
    "ModelStore",
    "Netlist",
    "NetlistParseError",
    "PartitionError",
    "PartitionResult",
    "PartitionedROM",
    "PassivityError",
    "PowerGridSpec",
    "QueryPlanner",
    "QueryRequest",
    "ReducedSystem",
    "ReductionError",
    "ReductionSummary",
    "ReproError",
    "ResourceBudget",
    "ResourceBudgetExceeded",
    "ServeError",
    "ServingStats",
    "SimulationError",
    "SingularSystemError",
    "SolverBackendError",
    "SolverOptions",
    "SourceBank",
    "StampingError",
    "StoreStats",
    "StructuredROM",
    "SweepEngine",
    "TransientAnalysis",
    "TransientResult",
    "ValidationError",
    "assemble_mna",
    "available_backends",
    "available_partitioners",
    "bdsm_reduce",
    "benchmark_names",
    "block_orthonormalize",
    "build_power_grid",
    "clear_default_cache",
    "count_matched_moments",
    "default_cache",
    "disable_tracing",
    "dynamic_ir_drop",
    "dynamic_ir_drop_batch",
    "eks_reduce",
    "enable_tracing",
    "enforce_passivity",
    "get_solver",
    "hamiltonian_passivity_test",
    "ir_drop_analysis",
    "ir_drop_batch",
    "laguerre_passivity_scan",
    "load_artifact",
    "make_benchmark",
    "make_multidomain_spec",
    "max_relative_error",
    "multipoint_bdsm_reduce",
    "multipoint_prima_reduce",
    "parse_netlist",
    "parse_netlist_file",
    "partitioned_reduce",
    "pmtbr_reduce",
    "prima_reduce",
    "relative_error_curve",
    "rom_structure_report",
    "save_artifact",
    "span_tree_report",
    "svdmor_reduce",
    "to_chrome_trace",
    "to_prometheus",
    "trace_span",
    "tracing_enabled",
    "verify_moment_matching",
    "write_netlist",
]
