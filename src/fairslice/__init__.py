"""fairslice: cake-cutting and chore-division simulation with exact query
accounting, dual-valuation reductions, and adversarial lower-bound games."""

from .adversary import (
    AdversarySession,
    CannotRefute,
    CompletedTree,
    GameReport,
    Refutation,
    STRATEGIES,
    replay_transcript,
    run_heavy_piece_game,
)
from .dual import (
    DualValuation,
    ReductionReport,
    dual_piece,
    dual_pwc_closed_form,
    reduction_pipeline,
)
from .errors import (
    BudgetExhausted,
    FairsliceError,
    InvalidInput,
    NonPositiveValuation,
    NumericalAmbiguity,
    PartitionViolation,
    PreconditionViolation,
    ProtocolViolation,
    ReplayMismatch,
    UnknownPlayer,
)
from .geometry import (
    Interval,
    Piece,
    as_scalar,
    normalize_piece,
    piece_union,
    scalar_str,
)
from .protocols import (
    Allocation,
    PROTOCOLS,
    check_proportional,
    count_light_pieces,
    count_narrow_pieces,
    cut_and_choose,
    even_paz,
    last_diminisher,
    verify_partition,
)
from .referee import PlayerView, QueryRecord, QueryReferee, replay_log
from .valuation import (
    DensityBounds,
    PiecewiseConstantValuation,
    Valuation,
    density_of_piece,
    random_dense_valuation,
    verify_dense,
)
from .valuetree import (
    BalancedValueTree,
    TreeParams,
    build_tree,
    leaf_profiles,
    low_heavy_density_cap,
    verify_labeling,
)

__version__ = "0.1.0"
