"""Jain's index, nearest-rank percentiles and latency summaries."""

import random

import pytest

from repro.metrics import LatencySummary, jains_index, percentile


class TestJainsIndex:
    def test_equal_shares_are_perfectly_fair(self):
        assert jains_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_scores_one_over_n(self):
        assert jains_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jains_index([7.0] + [0.0] * 7) == pytest.approx(1 / 8)

    def test_mild_skew_scores_between(self):
        value = jains_index([4.0, 5.0, 6.0, 5.0])
        assert 0.9 < value < 1.0

    def test_degenerate_samples_are_trivially_fair(self):
        assert jains_index([]) == 1.0
        assert jains_index([0.0, 0.0]) == 1.0

    def test_scale_invariant(self):
        sample = [1.0, 2.0, 3.0]
        assert jains_index(sample) == pytest.approx(
            jains_index([x * 1000 for x in sample])
        )


class TestPercentile:
    def test_nearest_rank_endpoints(self):
        sample = [3.0, 1.0, 2.0, 4.0]
        assert percentile(sample, 0) == 1.0
        assert percentile(sample, 100) == 4.0

    def test_median_of_even_sample_is_lower_middle(self):
        # Nearest-rank, not interpolated: small tag populations should
        # not pretend to sub-sample precision.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_p99_of_small_sample_is_the_max(self):
        assert percentile(list(range(8)), 99) == 7

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_p_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestLatencySummary:
    def test_summary_fields(self):
        summary = LatencySummary([0.4, 0.1, 0.2, 0.3])
        assert summary.count == 4
        assert summary.p50 == 0.2
        assert summary.p99 == 0.4
        assert summary.min == 0.1
        assert summary.max == 0.4
        assert summary.mean == pytest.approx(0.25)

    def test_as_dict_is_json_ready(self):
        row = LatencySummary([0.5]).as_dict()
        assert row == {
            "count": 1,
            "p50_seconds": 0.5,
            "p99_seconds": 0.5,
            "min_seconds": 0.5,
            "max_seconds": 0.5,
            "mean_seconds": 0.5,
        }

    def test_empty_sample_yields_none_fields(self):
        summary = LatencySummary([])
        assert summary.count == 0
        assert summary.as_dict()["p50_seconds"] is None
        assert "empty" in repr(summary)


class TestLatencySummaryMerge:
    def test_merge_of_empties_is_empty(self):
        merged = LatencySummary([]).merge(LatencySummary([]))
        assert merged.count == 0
        assert merged.p99 is None

    def test_merge_with_empty_is_identity(self):
        summary = LatencySummary([0.1, 0.2, 0.3])
        for merged in (
            summary.merge(LatencySummary([])),
            LatencySummary([]).merge(summary),
        ):
            assert merged.as_dict() == summary.as_dict()

    def test_single_sample_merge(self):
        merged = LatencySummary([0.5]) + LatencySummary([0.1])
        assert merged.count == 2
        assert merged.min == 0.1
        assert merged.max == 0.5

    def test_merged_percentiles_are_exact(self):
        """Shard-wise merge must equal summarizing the union directly."""
        shard_a = [0.001 * i for i in range(1, 60)]
        shard_b = [0.010 * i for i in range(1, 40)]
        shard_c = [5.0, 0.0005]
        merged = LatencySummary.merged(
            LatencySummary(part) for part in (shard_a, shard_b, shard_c)
        )
        direct = LatencySummary(shard_a + shard_b + shard_c)
        assert merged.as_dict() == direct.as_dict()
        assert merged.count == len(shard_a) + len(shard_b) + len(shard_c)

    @pytest.mark.parametrize("seed", range(6))
    def test_percentiles_match_percentile_function(self, seed):
        """p50/p99 come from the sorted sample once; they must equal
        :func:`percentile` over the raw sample, alone and merged."""
        rng = random.Random(seed)
        for size in (1, 2, 3, 99, 100, 101, rng.randrange(4, 500)):
            parts = [
                [rng.expovariate(20.0) for _ in range(rng.randrange(0, size + 1))]
                for _ in range(3)
            ]
            parts[0].append(rng.random())  # never an all-empty union
            union = [value for part in parts for value in part]
            for summary, sample in (
                (LatencySummary(parts[0]), parts[0]),
                (LatencySummary.merged(LatencySummary(p) for p in parts), union),
            ):
                assert summary.p50 == percentile(sample, 50.0)
                assert summary.p99 == percentile(sample, 99.0)
        for sample in ([0.25], [0.5, 0.25]):
            summary = LatencySummary.merged([LatencySummary(sample)])
            assert summary.p50 == percentile(sample, 50.0) == min(sample)
            assert summary.p99 == percentile(sample, 99.0) == max(sample)

    def test_merged_classmethod_of_nothing_is_empty(self):
        assert LatencySummary.merged([]).count == 0

    def test_merge_rejects_non_summary(self):
        with pytest.raises(TypeError):
            LatencySummary([0.1]).merge([0.2])  # type: ignore[arg-type]
