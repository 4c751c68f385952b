"""Condition reports, recovery scoring, and bound-level diagnostics.

Quantities with explicit constants are evaluated as numbers that can be
compared directly.  Conditions whose statements hide polylogarithmic or
unspecified constants are reported as raw values and ratio shapes only;
:func:`heuristic_verdicts` can turn them into clearly-labeled advisory
booleans under a caller-chosen slack constant, never into hard pass/fail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, linear_sum_assignment, match_center_sets, spectral_norm, sq_dists
from .models import BinaryDataset, MixtureModel, delta_v, noise_matrix, separation
from .pipeline import CenterSet


@dataclass(frozen=True)
class ConditionReport:
    """Every quantity appearing in the recovery conditions, for one instance."""

    spectral_noise_sq: float
    spectral_threshold: float
    m_sigma_sq: float
    delta_mu: float
    sigma_over_wmin_sqrt: float
    bsbm_lhs: float | None = None
    bsbm_rhs_shape: float | None = None
    talagrand_ratio: float | None = None

    def to_json(self) -> dict:
        return asdict(self)


def report_model(dataset: BinaryDataset) -> MixtureModel:
    """The dataset's model, once the checks :func:`condition_report` makes
    first have passed: the dataset carries its model and truth labels, and
    the model has at least two components."""
    if dataset.model is None or dataset.truth is None:
        raise InvalidInputError("condition report needs model metadata and truth labels")
    if dataset.model.k < 2:
        raise InvalidInputError("condition report needs at least two components")
    return dataset.model


def condition_report(
    dataset: BinaryDataset, *, spectral_noise: float | None = None
) -> ConditionReport:
    """Evaluate all recovery-condition quantities on one dataset.

    Requires the dataset to carry its generating model and truth labels so
    the expectation matrix is computable.  ``spectral_noise`` may inject a
    precomputed value of ||A - E[A]|| to avoid repeating the dominant cost;
    the matrix's entries are then not read.  ``dataset`` is not modified.
    """
    model = report_model(dataset)
    m, n = dataset.m, dataset.n
    if spectral_noise is None:
        spectral_noise = spectral_norm(noise_matrix(dataset.matrix, model, dataset.truth))
    dm = separation(model)
    threshold = 0.01 * model.w_min * m * dm * dm / (50.0 * model.k)
    sigma_sq = model.sigma_sq
    bsbm_lhs = bsbm_rhs = None
    if dataset.bsbm is not None:
        params = dataset.bsbm
        gap = params.p - params.q
        dv = delta_v(params)
        if sigma_sq > 0 and dv > 0:
            bsbm_lhs = gap * gap / sigma_sq
            bsbm_rhs = model.k * (m + n) / (model.w_min * m * dv)
    talagrand = None
    if sigma_sq > 0:
        talagrand = spectral_noise * spectral_noise / (sigma_sq * (m + n))
    return ConditionReport(
        spectral_noise_sq=spectral_noise * spectral_noise,
        spectral_threshold=threshold,
        m_sigma_sq=m * sigma_sq,
        delta_mu=dm,
        sigma_over_wmin_sqrt=float(np.sqrt(sigma_sq / model.w_min)),
        bsbm_lhs=bsbm_lhs,
        bsbm_rhs_shape=bsbm_rhs,
        talagrand_ratio=talagrand,
    )


def heuristic_verdicts(report: ConditionReport, slack: float = 1.0) -> dict:
    """Advisory booleans for the report's conditions.

    Only ``spectral_condition_met`` compares explicitly-stated constants.
    The remaining entries depend on hidden constants and are heuristic:
    they test the condition shape against ``slack`` and must not be read
    as verdicts on the underlying guarantees.
    """
    out = {
        "spectral_condition_met": report.spectral_noise_sq <= report.spectral_threshold,
        "m_sigma_sq_heuristic": report.m_sigma_sq >= slack,
        "separation_heuristic": report.delta_mu >= slack * report.sigma_over_wmin_sqrt,
    }
    if report.bsbm_lhs is not None and report.bsbm_rhs_shape is not None:
        out["bsbm_heuristic"] = report.bsbm_lhs >= slack * report.bsbm_rhs_shape
    return out


@dataclass(frozen=True, eq=False)
class RecoveryScore:
    """Permutation-invariant agreement between a predicted and true labeling."""

    exact: bool
    accuracy: float
    confusion: np.ndarray
    permutation: np.ndarray

    def to_json(self) -> dict:
        return {
            "exact": self.exact,
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "permutation": self.permutation.tolist(),
        }


def score(predicted, truth, k: int) -> RecoveryScore:
    """Score a predicted labeling against ground truth up to label permutation.

    ``confusion[t, p]`` counts rows with truth label t and predicted label p;
    ``permutation[t]`` is the predicted label matched to truth label t by the
    accuracy-maximizing assignment.  Exactness is decided in integer
    arithmetic: exact iff the matched diagonal accounts for every row.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise InvalidInputError("predicted and truth labelings must be equal-length vectors")
    m = predicted.size
    if m == 0:
        raise InvalidInputError("cannot score an empty labeling")
    confusion, rows, cols = _matched_confusion(truth, predicted, k)
    permutation = np.empty(k, dtype=np.int64)
    permutation[rows] = cols
    matched = int(confusion[rows, cols].sum())
    return RecoveryScore(
        exact=matched == m,
        accuracy=matched / m,
        confusion=confusion,
        permutation=permutation,
    )


def _matched_confusion(truth: np.ndarray, predicted: np.ndarray, k: int):
    """The k x k truth-by-predicted count matrix and the (rows, cols) assignment
    maximizing its matched total; labels outside [0, k) raise InvalidInputError."""
    for name, lab in (("predicted", predicted), ("truth", truth)):
        if lab.size and (lab.min() < 0 or lab.max() >= k):
            raise InvalidInputError(f"{name} labels out of range [0, {k})")
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (truth, predicted), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return confusion, rows, cols


def match_centers_to_means(centers: CenterSet, model: MixtureModel) -> CenterSet:
    """Reorder estimated centers so row r estimates the model's mean r."""
    if centers.k != model.k or centers.n != model.n:
        raise InvalidInputError("center set and model dimensions differ")
    perm = match_center_sets(model.means, centers.centers)
    return CenterSet(centers.centers[perm], centers.cluster_sizes[perm])


@dataclass(frozen=True, eq=False)
class CenterErrorReport:
    """Per-cluster center estimation errors against the noise-driven bound.

    ``within_bound`` checks every error against
    ``7 sqrt(k / (w_min m)) * noise_norm``; ``within_tenth_separation``
    checks every error against a tenth of the model separation.
    """

    errors: np.ndarray
    bound: float
    tenth_separation: float
    within_bound: bool
    within_tenth_separation: bool

    @property
    def holds(self) -> bool:
        return self.within_bound and self.within_tenth_separation


def center_error_check(
    centers: CenterSet, model: MixtureModel, noise_norm: float, m: int
) -> CenterErrorReport:
    """Compare matched center errors with the spectral-noise bound.

    ``centers`` must already be aligned with the model means (see
    :func:`match_centers_to_means`); ``m`` is the number of rows the centers
    were estimated from.
    """
    if centers.k != model.k or centers.n != model.n:
        raise InvalidInputError("center set and model dimensions differ")
    errors = np.sqrt(np.sum((centers.centers - model.means) ** 2, axis=1))
    bound = 7.0 * np.sqrt(model.k / (model.w_min * m)) * noise_norm
    tenth = 0.1 * separation(model)
    return CenterErrorReport(
        errors=errors,
        bound=float(bound),
        tenth_separation=float(tenth),
        within_bound=bool(np.all(errors <= bound)),
        within_tenth_separation=bool(np.all(errors <= tenth)),
    )


def overlap_check(cluster_labels, truth, k: int) -> np.ndarray:
    """Best-matched overlap fraction of each truth cluster.

    Matches estimated clusters to truth clusters by maximizing total overlap,
    then returns |matched cluster ∩ truth cluster| / |truth cluster| per
    truth cluster.
    """
    cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if cluster_labels.shape != truth.shape:
        raise InvalidInputError("labelings must have equal length")
    overlap, rows, cols = _matched_confusion(truth, cluster_labels, k)
    counts = overlap.sum(axis=1)
    if np.any(counts == 0):
        raise InvalidInputError("every truth cluster must be nonempty")
    return overlap[rows, cols] / counts


def column_sum_check(matrix, sigma_sq: float) -> tuple[float, float]:
    """Largest column sum of the data and its ratio to m * sigma_sq."""
    a = as_matrix(matrix)
    max_sum = float(a.sum(axis=0).max()) if a.size else 0.0
    denom = a.shape[0] * sigma_sq
    ratio = max_sum / denom if denom > 0 else float("inf") if max_sum > 0 else 0.0
    return max_sum, ratio


@dataclass(frozen=True, eq=False)
class AssignmentMargins:
    """Decomposition terms behind nearest-center correctness for one sample.

    For each rival center s != r the three terms are the squared center gap
    ||c_r - c_s||^2, the center-estimation cross term |<mu_r - c_r, c_r - c_s>|,
    and the sample-noise cross term |<a - mu_r, c_r - c_s>|.  Correct
    assignment is implied when each cross term is below a quarter of the gap.
    """

    rivals: np.ndarray
    gap_sq: np.ndarray
    center_cross: np.ndarray
    sample_cross: np.ndarray
    degenerate: np.ndarray

    def part1_holds(self) -> np.ndarray:
        return self.center_cross < 0.25 * self.gap_sq

    def part2_holds(self) -> np.ndarray:
        return self.sample_cross < 0.25 * self.gap_sq


def assignment_margins(
    sample_row, true_index: int, centers: CenterSet, model: MixtureModel
) -> AssignmentMargins:
    """Margin terms for a single sample from component ``true_index``.

    ``centers`` must be aligned with the model means so that center r
    estimates mean r.
    """
    terms = _margin_terms(
        np.asarray(sample_row, dtype=np.float64)[None, :], true_index, centers, model
    )
    return replace(terms, sample_cross=terms.sample_cross[0])


def _margin_terms(
    rows: np.ndarray, r: int, centers: CenterSet, model: MixtureModel
) -> AssignmentMargins:
    """The margin terms of every row, as one sample from component ``r``
    each: ``sample_cross`` has a row per draw."""
    if centers.k != model.k or centers.n != model.n:
        raise InvalidInputError("center set and model dimensions differ")
    if rows.shape[1] != centers.n:
        raise InvalidInputError("sample dimension differs from centers")
    if not 0 <= r < centers.k:
        raise InvalidInputError("true_index out of range")
    c = centers.centers
    rivals = np.array([s for s in range(centers.k) if s != r], dtype=np.int64)
    direction = c[r][None, :] - c[rivals]
    gap_sq = np.sum(direction * direction, axis=1)
    return AssignmentMargins(
        rivals=rivals,
        gap_sq=gap_sq,
        center_cross=np.abs(direction @ (model.means[r] - c[r])),
        sample_cross=np.abs((rows - model.means[r]) @ direction.T),
        degenerate=gap_sq <= 0.0,
    )


@dataclass(frozen=True)
class MarginBatch:
    """Aggregated margin outcomes over a batch of fresh draws from one component."""

    draws: int
    correct: int
    part1_all: int
    part2_all: int
    degenerate: bool


def margin_batch(rows, true_index: int, centers: CenterSet, model: MixtureModel) -> MarginBatch:
    """Count, over fresh sample rows, nearest-center correctness and the
    per-draw validity of both quarter-gap margin inequalities (over all
    rivals)."""
    rows = as_matrix(rows, "rows")
    terms = _margin_terms(rows, true_index, centers, model)
    nearest = np.argmin(sq_dists(rows, centers.centers), axis=1)
    correct = int(np.count_nonzero(nearest == true_index))
    part1 = bool(np.all(terms.part1_holds()))
    part2_each = np.all(terms.part2_holds(), axis=1)
    return MarginBatch(
        draws=rows.shape[0],
        correct=correct,
        part1_all=rows.shape[0] if part1 else 0,
        part2_all=int(np.count_nonzero(part2_each)),
        degenerate=bool(np.any(terms.degenerate)),
    )
