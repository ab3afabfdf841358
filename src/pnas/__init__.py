"""Progressive cell-based architecture search with surrogate accuracy predictors."""

from .cells import (
    B_MAX,
    PNASNET_5_KEY,
    BlockSpec,
    CellKeyError,
    CellSpec,
    Operator,
    SpaceSize,
    canonical_blocks,
    canonicalize,
    cell_key,
    count_space,
    enumerate_blocks,
    is_canonical,
    one_block_cells,
    parse_cell_key,
    random_cell,
    validate_cell,
    validate_cell_array,
)
from .evaluators import (
    EvalRecord,
    EvalRequest,
    EvaluatorError,
    ExternalEvaluator,
    SyntheticOracle,
    SyntheticOracleConfig,
    TableLookupError,
    TableParseError,
    TabularEvaluator,
    WorkerProtocolError,
    WorkerTransportError,
    write_table,
)
from .harness import CorrelationReport, HarnessConfig, distinct_random_cells, predictor_harness
from .metrics import UndefinedCorrelationError, aggregate_curves, average_ranks, spearman, top_m_curve
from .network import (
    BuildError,
    CostReport,
    GraphContractError,
    NetworkGraph,
    StackPlan,
    build_network,
    count_costs,
    export_graph,
    op_cost,
)
from .predictors import (
    ENSEMBLE_SIZE,
    Ensemble,
    MLPPredictor,
    PredictorConfig,
    RNNPredictor,
    SlotCounts,
    ensemble_fit,
    gradient_check,
    new_predictor,
    snapshot_id,
)
from .search import (
    PREDICTOR_KINDS,
    LevelResult,
    NoSuccessfulEvaluationError,
    SearchConfig,
    SearchTrace,
    compute_cost,
    make_surrogate,
    plan_budget,
    pnas_search,
    random_search,
    top_m_table,
)
from .seeding import derive_seed
from .traceio import TraceWriter, read_trace, write_json, write_summary_csv

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
