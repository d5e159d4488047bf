"""Low-rank matrix recovery via bilinear factorization ADMM."""

from .config import Iterate, IterationRecord, SolveResult, SolverConfig
from .cpcp import solve_cpcp
from .datasets import PlantedProblem, RatingDataset, generate_planted, load_ratings
from .linalg import (
    PowerIterationError,
    QrFactors,
    ThinSvd,
    qr_thin,
    spectral_norm,
    svd_thin,
)
from .measurements import (
    ObservationMask,
    SubspaceOperator,
    draw_random_subspace,
    load_mask,
    mask_project,
)
from .metrics import auc, relative_error, rmse
from .prox import soft_threshold, svt
from .rmc import adjust_rank_once, solve_mc, solve_rmc, solve_rpca
from .textio import load_matrix, save_mask, save_matrix

__all__ = [
    "Iterate",
    "IterationRecord",
    "ObservationMask",
    "PlantedProblem",
    "PowerIterationError",
    "QrFactors",
    "RatingDataset",
    "SolveResult",
    "SolverConfig",
    "SubspaceOperator",
    "ThinSvd",
    "adjust_rank_once",
    "auc",
    "draw_random_subspace",
    "generate_planted",
    "load_mask",
    "load_matrix",
    "load_ratings",
    "mask_project",
    "qr_thin",
    "relative_error",
    "rmse",
    "save_mask",
    "save_matrix",
    "soft_threshold",
    "solve_cpcp",
    "solve_mc",
    "solve_rmc",
    "solve_rpca",
    "spectral_norm",
    "svd_thin",
    "svt",
]
