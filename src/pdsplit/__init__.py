"""Asynchronous block-iterative primal-dual splitting for coupled monotone inclusions.

Two engines over a shared decomposition/coordination skeleton: a relaxed
half-space projection method (Fejer-monotone iterates) and an anchored
best-approximation variant.  Block activation and bounded read lags are
driven by deterministic, certifiable schedules, so every run is replayable.
"""

from .blockspace import BlockVector, CouplingMap, PrimalDualPoint, SpaceSignature, pd_norm
from .engine import (EngineState, IterationRecord, PerturbationRule, Rules, RunResult,
                     SolverConfig, advance, run)
from .errors import (ConfigError, DimensionError, InconsistencyError, NumericalError,
                     PdsplitError, SchemaError)
from .operators import (InexactnessBudget, MonotoneOp, affine_monotone, box_indicator, l1_norm,
                        normal_cone_box, quadratic, resolvent, zero)
from .schedule import ControlSchedule, periodic, random_admissible, synchronous, validate
from .separator import (GraphTable, KTResidual, ProblemSpec, SubspaceSpec, build_projector,
                        kt_residual)

__version__ = "0.1.0"
