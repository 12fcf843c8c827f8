"""Performance simulator and configuration search for sparse
mixture-of-experts training and inference on multi-dimensional parallel
clusters."""

from .balance import (
    AuxLossReport,
    BalanceRunResult,
    DropStats,
    Placement,
    RoutingTrace,
    TraceSpec,
    TraceStats,
    aux_loss,
    balance_window_tokens,
    capacity_drop_stats,
    contiguous_placement,
    device_load_stats,
    generate_trace,
    greedy_place,
    predict_loads,
    run_balance_simulation,
    trace_statistics,
)
from .cluster import CommGroup, HardwareDescription, collective_time, kernel_time
from .comm import CommEvent, DispatchVolumes, dispatch_volumes
from .configio import load_cluster, load_model, load_plan, load_space, load_trace_spec
from .errors import (
    DeadlockError,
    EmptySpaceError,
    EmptyWindowError,
    InfeasibleChunkingError,
    InfeasibleMemoryError,
    MoesimError,
    NonDivisibleError,
    ParseError,
    PlanError,
    SlotMismatchError,
    ZeroMeanError,
)
from .memory import (
    MemoryPlan,
    MemoryReport,
    activation_peak,
    memory_report,
    select_memory_plan,
    static_memory,
)
from .model import (
    DesignSpace,
    MlaDims,
    ModelConfig,
    ParameterCount,
    PruningRules,
    count_parameters,
    depth_width_hidden,
    enumerate_design_space,
    flops_per_token,
    model_id,
)
from .parallel import (
    ParallelPlan,
    PlanCheck,
    assign_chunks,
    micro_batch_count,
    partition_contiguous,
    require_valid,
    validate_plan,
)
from .pipeline import (
    ChunkCost,
    OverlapPolicy,
    ScheduleSlot,
    StepReport,
    analytic_bubble_ratio,
    build_1f1b_schedule,
    dataflow_parent,
    simulate_timeline,
    summarize,
    uniform_chunk_costs,
)
from .search import (
    CostReport,
    RankedCandidate,
    SearchOutcome,
    SimulationFeatures,
    inference_report,
    search_space,
    training_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
