"""Evaluation metrics: relative recovery error, RMSE on held-out ratings, AUC.

AUC ranks its scores in numpy, tied scores sharing their average rank, and
rejects a NaN score; importing this module loads no scipy subpackage.
"""

import numpy as np


def relative_error(l_hat, l_ref):
    """Frobenius distance normalized by the reference norm."""
    l_hat = np.asarray(l_hat, dtype=np.float64)
    l_ref = np.asarray(l_ref, dtype=np.float64)
    if l_hat.shape != l_ref.shape:
        raise ValueError(f"shape mismatch: {l_hat.shape} vs {l_ref.shape}")
    ref_norm = np.linalg.norm(l_ref)
    if ref_norm == 0:
        raise ValueError("reference matrix has zero norm")
    return float(np.linalg.norm(l_hat - l_ref) / ref_norm)


def rmse(predicted, test_triplets):
    """Root mean squared error of a prediction matrix over test triplets."""
    predicted = np.asarray(predicted, dtype=np.float64)
    if len(test_triplets) == 0:
        raise ValueError("empty test set")
    users, items, values = (np.asarray(column) for column in zip(*test_triplets))
    rows, cols = predicted.shape
    outside = (users < 0) | (users >= rows) | (items < 0) | (items >= cols)
    if outside.any():
        raise ValueError(f"test triplet {test_triplets[np.argmax(outside)]} "
                         f"outside the {rows}x{cols} prediction")
    return float(np.sqrt(np.mean((values - predicted[users, items]) ** 2)))


def _average_ranks(values):
    """1-based ranks of a 1-D array, each tie group given its mean rank.

    A group holding sorted positions start..end-1 (0-based) takes
    (start + 1 + end) / 2, a half-integer that float64 holds exactly.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1])))
    sizes = np.diff(starts, append=values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((2 * starts + sizes + 1) / 2.0, sizes)
    return ranks


def auc(scores, labels):
    """Area under the ROC curve, Mann-Whitney form with ties counted half.

    Equals the fraction of (positive, negative) pairs whose positive score
    is the larger, computed in O(n log n) from numpy ranks in which tied
    scores share their average rank. A NaN score is rejected: it has no
    place in the order. An infinite score ranks as the largest or smallest.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    ranks = _average_ranks(scores)
    u_stat = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))
