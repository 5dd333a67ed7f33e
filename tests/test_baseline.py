from __future__ import annotations

import numpy as np
import pytest

from cedkit import detect_random
from cedkit.errors import InvalidParamsError
from oracles import random_colored_cloud


class TestDetectRandom:
    def test_full_count_returns_every_index(self, rng):
        cloud = random_colored_cloud(rng, 50)
        keys = detect_random(cloud, 50, seed=0)
        assert keys.indices.tolist() == list(range(50))

    def test_deterministic_per_seed(self, rng):
        cloud = random_colored_cloud(rng, 500)
        a = detect_random(cloud, 40, seed=11)
        b = detect_random(cloud, 40, seed=11)
        c = detect_random(cloud, 40, seed=12)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, c.indices)

    def test_no_duplicates_ascending(self, rng):
        cloud = random_colored_cloud(rng, 300)
        keys = detect_random(cloud, 120, seed=2)
        assert len(keys) == 120
        assert np.all(np.diff(keys.indices) > 0)

    def test_count_bounds(self, rng):
        cloud = random_colored_cloud(rng, 20)
        with pytest.raises(InvalidParamsError):
            detect_random(cloud, 0, seed=0)
        with pytest.raises(InvalidParamsError):
            detect_random(cloud, 21, seed=0)

    def test_negative_seed_rejected(self, rng):
        cloud = random_colored_cloud(rng, 20)
        for seed in (-1, 1.5, 2.0, "3", None):
            with pytest.raises(InvalidParamsError, match="non-negative"):
                detect_random(cloud, 5, seed=seed)
        assert len(detect_random(cloud, 5, seed=np.int64(3))) == 5

    def test_selection_frequencies_uniform(self, rng):
        # 1000 draws of 100 from 10k: each index is a Bernoulli(0.01) per
        # trial. With a fixed seed the realized frequencies are deterministic;
        # nearly all must sit within 3 standard errors and none far outside.
        n, count, trials = 10_000, 100, 1000
        cloud = random_colored_cloud(rng, n)
        hits = np.zeros(n)
        for trial in range(trials):
            hits[detect_random(cloud, count, seed=trial).indices] += 1
        freq = hits / trials
        p = count / n
        se = np.sqrt(p * (1 - p) / trials)
        within = np.abs(freq - p) <= 3 * se
        assert within.mean() > 0.99
        assert np.abs(freq - p).max() <= 6 * se
        assert freq.mean() == pytest.approx(p)
