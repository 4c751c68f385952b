"""Two-phase spectral clustering of binary data.

Estimate cluster centers from one half of the rows (rank-k SVD, k-means,
then averaging the raw rows), nearest-center assign the other half, and
merge the two labelings by optimally matching the center sets.  Includes
seeded generators for Bernoulli-product mixtures and the bipartite block
model, recovery-condition reports, and a Monte-Carlo sweep harness.
"""

from .analysis import (
    AssignmentMargins,
    CenterErrorReport,
    ConditionReport,
    MarginBatch,
    RecoveryScore,
    assignment_margins,
    center_error_check,
    column_sum_check,
    condition_report,
    heuristic_verdicts,
    margin_batch,
    match_centers_to_means,
    overlap_check,
    score,
)
from .errors import ConvergenceError, InvalidInputError, SpeclusterError
from .kmeans import KMeansResult, kmeans
from .linalg import (
    RankKApprox,
    jacobi_svd,
    match_center_sets,
    spectral_norm,
    truncated_svd,
)
from .models import (
    BinaryDataset,
    BsbmParams,
    MixtureModel,
    bsbm_sigma_sq,
    bsbm_to_mixture,
    delta_v,
    expected_from_truth,
    indicator_model,
    load_dataset,
    min_symmetric_difference,
    noise_matrix,
    sample,
    save_dataset,
    separation,
)
from .pipeline import (
    CenterSet,
    CentersDetail,
    ClusterDetail,
    assign,
    cluster,
    cluster_detailed,
    find_centers,
    find_centers_detailed,
    split_halves,
)

__version__ = "0.1.0"

# The sweep harness imports multiprocessing, csv and hashlib, which only
# sweeps use, so its names load it on first access (PEP 562).
_HARNESS_NAMES = frozenset(
    "CellAggregate SweepResult SweepSpec TrialRecord cell_index derive run_sweep write_csv "
    "write_records_jsonl".split()
)


def __getattr__(name):
    if name in _HARNESS_NAMES:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AssignmentMargins",
    "BinaryDataset",
    "BsbmParams",
    "CellAggregate",
    "CenterErrorReport",
    "CenterSet",
    "CentersDetail",
    "ClusterDetail",
    "ConditionReport",
    "ConvergenceError",
    "InvalidInputError",
    "KMeansResult",
    "MarginBatch",
    "MixtureModel",
    "RankKApprox",
    "RecoveryScore",
    "SpeclusterError",
    "SweepResult",
    "SweepSpec",
    "TrialRecord",
    "assign",
    "assignment_margins",
    "bsbm_sigma_sq",
    "bsbm_to_mixture",
    "cell_index",
    "center_error_check",
    "cluster",
    "cluster_detailed",
    "column_sum_check",
    "condition_report",
    "delta_v",
    "derive",
    "expected_from_truth",
    "find_centers",
    "find_centers_detailed",
    "heuristic_verdicts",
    "indicator_model",
    "jacobi_svd",
    "kmeans",
    "load_dataset",
    "margin_batch",
    "match_center_sets",
    "match_centers_to_means",
    "min_symmetric_difference",
    "noise_matrix",
    "overlap_check",
    "run_sweep",
    "sample",
    "save_dataset",
    "score",
    "separation",
    "spectral_norm",
    "split_halves",
    "truncated_svd",
    "write_csv",
    "write_records_jsonl",
]
