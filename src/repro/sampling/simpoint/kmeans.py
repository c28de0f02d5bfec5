"""K-means clustering with k-means++ seeding and BIC model selection.

Implements the clustering engine of the SimPoint methodology (Sherwood
et al. / Hamerly et al.): Basic Block Vectors are random-projected to a
low dimension, clustered with k-means for a range of k, and the best k
is chosen with the Bayesian Information Criterion — SimPoint picks the
smallest k whose BIC score reaches a fixed fraction of the best score.
Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


def random_projection(matrix: np.ndarray, dims: int = 15,
                      seed: int = 0) -> np.ndarray:
    """Project rows to ``dims`` dimensions with a seeded Gaussian map."""
    rng = np.random.default_rng(seed)
    if matrix.shape[1] <= dims:
        return matrix.astype(np.float64)
    projection = rng.standard_normal((matrix.shape[1], dims))
    projection /= np.sqrt(dims)
    return matrix @ projection


def _kmeans_pp_init(data: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    first = rng.integers(n)
    centers[0] = data[first]
    closest_sq = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            centers[i:] = data[rng.integers(n, size=k - i)]
            break
        probabilities = closest_sq / total
        choice = rng.choice(n, p=probabilities)
        centers[i] = data[choice]
        distance_sq = np.sum((data - centers[i]) ** 2, axis=1)
        np.minimum(closest_sq, distance_sq, out=closest_sq)
    return centers


@dataclass
class KmeansResult:
    """One clustering of the interval vectors."""

    k: int
    labels: np.ndarray          # cluster id per row
    centers: np.ndarray
    inertia: float              # sum of squared distances
    bic: float


def kmeans(data: np.ndarray, k: int, seed: int = 0,
           max_iterations: int = 50) -> KmeansResult:
    """Lloyd's algorithm with k-means++ seeding."""
    n, d = data.shape
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(data, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iterations):
        # squared distances to each center: (n, k)
        distances = ((data[:, None, :] - centers[None, :, :]) ** 2
                     ).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for cluster in range(k):
            members = data[labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
            else:
                # re-seed an empty cluster on the farthest point
                farthest = distances.min(axis=1).argmax()
                centers[cluster] = data[farthest]
    distances = ((data[:, None, :] - centers[None, :, :]) ** 2
                 ).sum(axis=2)
    labels = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), labels].sum())
    return KmeansResult(k=k, labels=labels, centers=centers,
                        inertia=inertia, bic=_bic(data, labels, centers,
                                                  inertia))


def _bic(data: np.ndarray, labels: np.ndarray, centers: np.ndarray,
         inertia: float) -> float:
    """BIC score of a clustering (spherical Gaussian model).

    Larger is better.  Follows the X-means/SimPoint formulation.
    """
    n, d = data.shape
    k = centers.shape[0]
    if n <= k:
        return -np.inf
    variance = inertia / (d * max(n - k, 1))
    variance = max(variance, 1e-12)
    log_likelihood = 0.0
    for cluster in range(k):
        size = int((labels == cluster).sum())
        if size <= 0:
            continue
        log_likelihood += (
            size * np.log(size / n)
            - size * d / 2.0 * np.log(2.0 * np.pi * variance)
            - (size - 1) * d / 2.0)
    parameters = k * (d + 1)
    return float(log_likelihood - parameters / 2.0 * np.log(n))


def choose_clustering(data: np.ndarray, max_k: int, seed: int = 0,
                      bic_threshold: float = 0.9,
                      candidate_ks: Optional[List[int]] = None,
                      min_k: Optional[int] = None) -> KmeansResult:
    """Run k-means over candidate k values; pick per SimPoint's rule.

    SimPoint picks the smallest k whose BIC reaches ``bic_threshold``
    of the best BIC observed.  The spherical-Gaussian BIC is U-shaped
    on long interval streams (k=1 scores spuriously well when most
    rows are near-duplicates), so for ``n`` intervals candidates start
    at ``min_k`` (default ``n // 100``) — degenerate tiny k values are
    never considered for long programs, matching the published
    SimPoint results where every benchmark uses tens of clusters.
    """
    n = data.shape[0]
    if min_k is None:
        min_k = max(1, n // 100)
    if candidate_ks is None:
        candidate_ks = sorted({max(k, min_k) for k in
                               (1, 2, 4, 8, 16, 24, 40, 60, max_k)
                               if max(k, min_k) <= min(max_k, n)})
        if not candidate_ks:
            candidate_ks = [min(max_k, n)]
    results = [kmeans(data, k, seed=seed + k) for k in candidate_ks]
    # a candidate with k >= n scores -inf; normalizing against it would
    # turn every score into NaN and silently select by argmax instead
    finite = [result for result in results if np.isfinite(result.bic)]
    if not finite:
        return results[0]
    bics = np.array([result.bic for result in finite])
    best = bics.max()
    worst = bics.min()
    if best == worst:
        return finite[0]
    scores = (bics - worst) / (best - worst)
    for result, score in zip(finite, scores, strict=True):
        if score >= bic_threshold:
            return result
    return finite[int(bics.argmax())]
