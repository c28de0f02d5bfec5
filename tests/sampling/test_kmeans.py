"""Tests for the SimPoint clustering machinery."""

import numpy as np
import pytest

from repro.sampling.simpoint.kmeans import (choose_clustering, kmeans,
                                            random_projection)
from repro.sampling.simpoint import select_simpoints, SimPointConfig


def blobs(centers, per_cluster=30, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for center in centers:
        rows.append(center + spread * rng.standard_normal(
            (per_cluster, len(center))))
    return np.vstack(rows)


def test_kmeans_recovers_separated_blobs():
    data = blobs([np.zeros(4), np.ones(4) * 5, np.ones(4) * -5])
    result = kmeans(data, 3, seed=1)
    assert result.k == 3
    # each true blob maps to exactly one label
    labels = result.labels
    for start in (0, 30, 60):
        assert len(set(labels[start:start + 30])) == 1
    assert result.inertia < kmeans(data, 1, seed=1).inertia


def test_kmeans_k_capped_by_points():
    data = blobs([np.zeros(3)], per_cluster=4)
    result = kmeans(data, 10, seed=0)
    assert result.k == 4


def test_kmeans_deterministic():
    data = blobs([np.zeros(5), np.ones(5) * 3], seed=2)
    a = kmeans(data, 4, seed=7)
    b = kmeans(data, 4, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_choose_clustering_prefers_enough_clusters():
    data = blobs([np.zeros(4), np.ones(4) * 5, np.ones(4) * -5,
                  np.array([5.0, -5.0, 5.0, -5.0])], per_cluster=40)
    result = choose_clustering(data, max_k=16, seed=0, min_k=1)
    assert result.k >= 4


def test_choose_clustering_skips_k_equal_to_interval_count():
    # 8 intervals in two far-apart pairs of close pairs: candidate k=8
    # equals the interval count (BIC -inf), k=2 reaches 90% of the
    # finite BIC range and must win over the argmax (k=4)
    rng = np.random.default_rng(1)
    centers = [(0.0, 0.0), (0.8, 0.0), (100.0, 0.0), (100.8, 0.0)]
    data = np.vstack([rng.normal(c, 0.2, size=(2, 2)) for c in centers])
    assert kmeans(data, 8, seed=8).bic == -np.inf
    assert kmeans(data, 4, seed=4).bic > kmeans(data, 2, seed=2).bic
    assert choose_clustering(data, max_k=8, seed=0).k == 2


def test_choose_clustering_min_k_floor():
    data = blobs([np.zeros(4)], per_cluster=400, spread=0.2)
    result = choose_clustering(data, max_k=40, seed=0)
    assert result.k >= 4  # 400 // 100


def test_random_projection_shape_and_determinism():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((50, 200))
    a = random_projection(data, dims=15, seed=3)
    b = random_projection(data, dims=15, seed=3)
    assert a.shape == (50, 15)
    assert np.array_equal(a, b)
    c = random_projection(data, dims=15, seed=4)
    assert not np.array_equal(a, c)


def test_random_projection_skips_when_small():
    data = np.ones((10, 5))
    assert random_projection(data, dims=15).shape == (10, 5)


def test_random_projection_roughly_preserves_distances():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((20, 500))
    projected = random_projection(data, dims=50, seed=1)
    original = np.linalg.norm(data[0] - data[1])
    mapped = np.linalg.norm(projected[0] - projected[1])
    assert 0.5 < mapped / original < 2.0


def test_select_simpoints_weights_sum_to_one():
    data = blobs([np.zeros(6), np.ones(6) * 4], per_cluster=50)
    config = SimPointConfig(max_clusters=8)
    selection = select_simpoints(data, config)
    total = sum(weight for _, weight in selection.points)
    assert total == pytest.approx(1.0)
    indices = [index for index, _ in selection.points]
    assert indices == sorted(indices)
    assert all(0 <= index < 100 for index in indices)


def test_select_simpoints_empty():
    selection = select_simpoints(np.zeros((0, 0)), SimPointConfig())
    assert selection.points == []
    assert selection.num_clusters == 0
