"""Transfer IR: programs as run lists, verified rewrite passes, and
cost-driven scheme selection over derived datatypes.

See :mod:`.ops` for the program (an ordered list of the run layer's
``ContigRun``/``StridedRuns``/``IrregularRuns``), :mod:`.lower` for
structural lowering, :mod:`.passes` for the rewrite pipeline, and
:mod:`.select` for pricing/advice.  ``docs/datatypes.md`` has the
narrative.
"""

from .lower import NAIVE_OP_LIMIT, LoweringError, lower
from .ops import Program, normalized_segments
from .passes import (
    MAX_ROUNDS,
    PASSES,
    ConvergenceError,
    PipelineResult,
    coalesce_copies,
    collapse_strides,
    fold_contiguous,
    program_cost,
    rows_to_vector,
    run_pipeline,
)
from .select import (
    AUTO_CANDIDATES,
    Advice,
    CandidatePrice,
    advise_datatype,
    advise_layout,
    select_scheme,
)

__all__ = [
    "AUTO_CANDIDATES",
    "Advice",
    "CandidatePrice",
    "ConvergenceError",
    "LoweringError",
    "MAX_ROUNDS",
    "NAIVE_OP_LIMIT",
    "PASSES",
    "PipelineResult",
    "Program",
    "advise_datatype",
    "advise_layout",
    "coalesce_copies",
    "collapse_strides",
    "fold_contiguous",
    "lower",
    "normalized_segments",
    "program_cost",
    "rows_to_vector",
    "run_pipeline",
    "select_scheme",
]
