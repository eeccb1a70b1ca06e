"""Tests for deterministic RNG streams and samplers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import (
    EmpiricalDistribution,
    RngStreams,
    ZipfSampler,
    exponential,
    lognormal_from_mean_cv,
)


class TestRngStreams:
    def test_same_name_same_stream(self):
        streams = RngStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(7).stream("arrivals")
        b = RngStreams(7).stream("arrivals")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_independent(self):
        streams = RngStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_spawn_differs_from_parent(self):
        parent = RngStreams(7)
        child = parent.spawn("tao")
        assert parent.stream("x").random() != child.stream("x").random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("s").random() != RngStreams(2).stream("s").random()


class TestDistributions:
    def test_exponential_mean(self):
        rng = RngStreams(3).stream("exp")
        samples = [exponential(rng, 2.0) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.05)

    def test_exponential_invalid_mean(self):
        rng = RngStreams(3).stream("exp")
        with pytest.raises(ValueError):
            exponential(rng, 0.0)

    def test_lognormal_mean_and_positivity(self):
        rng = RngStreams(3).stream("ln")
        samples = [lognormal_from_mean_cv(rng, 150.0, 1.2) for _ in range(20000)]
        assert all(s > 0 for s in samples)
        assert sum(samples) / len(samples) == pytest.approx(150.0, rel=0.1)

    def test_lognormal_invalid_params(self):
        rng = RngStreams(3).stream("ln")
        with pytest.raises(ValueError):
            lognormal_from_mean_cv(rng, -1.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_from_mean_cv(rng, 1.0, 0.0)


class TestZipfSampler:
    def test_rank_one_most_popular(self):
        zipf = ZipfSampler(1000, 0.99)
        rng = RngStreams(5).stream("zipf")
        counts = {}
        for _ in range(20000):
            rank = zipf.sample(rng)
            counts[rank] = counts.get(rank, 0) + 1
        assert counts[1] == max(counts.values())

    def test_samples_in_range(self):
        zipf = ZipfSampler(50, 1.1)
        rng = RngStreams(5).stream("zipf")
        assert all(1 <= zipf.sample(rng) <= 50 for _ in range(2000))

    def test_hit_fraction_monotone(self):
        zipf = ZipfSampler(10000, 0.99)
        fractions = [zipf.hit_fraction(k) for k in (1, 10, 100, 1000, 10000)]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_hit_fraction_bounds(self):
        zipf = ZipfSampler(100, 0.9)
        assert zipf.hit_fraction(0) == 0.0
        assert zipf.hit_fraction(200) == 1.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.5)

    @given(n=st.integers(1, 500), s=st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_cdf_is_valid(self, n, s):
        zipf = ZipfSampler(n, s)
        cdf = zipf._cdf
        assert cdf[-1] == pytest.approx(1.0)
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))


@pytest.mark.parametrize("n", [1, 64, 2000, 200_000])
@pytest.mark.parametrize("s", [0.0, 0.7, 0.99, 1.3])
def test_zipf_cdf_equals_the_loop_reference(n, s):
    """The ``accumulate`` CDF is the sequential float sum, bit for bit."""
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    expected = []
    acc = 0.0
    for w in weights:
        acc += w / total
        expected.append(acc)
    expected[-1] = 1.0
    ZipfSampler._CDF_MEMO.pop((n, s), None)
    assert ZipfSampler(n, s)._cdf == expected


class TestEmpiricalDistribution:
    def test_sampling_respects_weights(self):
        dist = EmpiricalDistribution([10.0, 20.0], [0.9, 0.1])
        rng = RngStreams(9).stream("emp")
        samples = [dist.sample(rng) for _ in range(5000)]
        share_10 = samples.count(10.0) / len(samples)
        assert share_10 == pytest.approx(0.9, abs=0.03)

    def test_mean(self):
        dist = EmpiricalDistribution([10.0, 20.0], [0.5, 0.5])
        assert dist.mean() == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution([], [])
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0], [-1.0])
        with pytest.raises(ValueError):
            EmpiricalDistribution([1.0, 2.0], [0.0, 0.0])


class TestExponentialBatch:
    def test_matches_sequential_draw_order(self):
        from repro.sim.rng import exponential_batch

        a = RngStreams(21).stream("arrivals")
        b = RngStreams(21).stream("arrivals")
        batched = exponential_batch(a, 120.0, 64)
        sequential = [b.expovariate(120.0) for _ in range(64)]
        assert batched == sequential
        # The streams stay aligned afterwards, so a workload mixing
        # batched and single draws keeps its trace.
        assert a.random() == b.random()

    def test_validation(self):
        from repro.sim.rng import exponential_batch

        rng = RngStreams(1).stream("x")
        with pytest.raises(ValueError):
            exponential_batch(rng, 0.0, 10)
        with pytest.raises(ValueError):
            exponential_batch(rng, 10.0, 0)


class TestLognormalSampler:
    def test_draw_identical_to_function_form(self):
        from repro.sim.rng import LognormalSampler

        a = RngStreams(9).stream("sizes")
        b = RngStreams(9).stream("sizes")
        sampler = LognormalSampler(150.0, 1.2)
        via_sampler = [sampler.sample(a) for _ in range(200)]
        via_function = [lognormal_from_mean_cv(b, 150.0, 1.2) for _ in range(200)]
        assert via_sampler == via_function
        assert a.random() == b.random()  # streams stay aligned

    def test_batch_matches_sequential(self):
        from repro.sim.rng import LognormalSampler

        a = RngStreams(3).stream("x")
        b = RngStreams(3).stream("x")
        sampler = LognormalSampler(1.0, 0.5)
        assert sampler.sample_batch(a, 64) == [sampler.sample(b) for _ in range(64)]

    def test_parameters_match_closed_form(self):
        from repro.sim.rng import LognormalSampler

        sampler = LognormalSampler(150.0, 1.2)
        sigma2 = math.log(1.0 + 1.2 * 1.2)
        assert sampler.sigma == pytest.approx(math.sqrt(sigma2))
        assert sampler.mu == pytest.approx(math.log(150.0) - sigma2 / 2.0)

    def test_factory_memoizes(self):
        from repro.sim.rng import lognormal_sampler

        assert lognormal_sampler(2.0, 0.7) is lognormal_sampler(2.0, 0.7)
        assert lognormal_sampler(2.0, 0.7) is not lognormal_sampler(2.0, 0.8)

    def test_validation(self):
        from repro.sim.rng import LognormalSampler

        with pytest.raises(ValueError):
            LognormalSampler(0.0, 1.0)
        with pytest.raises(ValueError):
            LognormalSampler(1.0, -1.0)
        with pytest.raises(ValueError):
            LognormalSampler(1.0, 1.0).sample_batch(RngStreams(1).stream("x"), 0)


class TestWeightedChoice:
    def test_identical_to_random_choices(self):
        from repro.sim.rng import WeightedChoice

        names = ["page", "talk", "login", "edit"]
        weights = [0.70, 0.12, 0.10, 0.08]
        a = RngStreams(5).stream("endpoints")
        b = RngStreams(5).stream("endpoints")
        mix = WeightedChoice(names, weights)
        via_mix = [mix.sample(a) for _ in range(500)]
        via_choices = [b.choices(names, weights=weights)[0] for _ in range(500)]
        assert via_mix == via_choices
        assert a.random() == b.random()  # one draw per sample, aligned

    def test_validation(self):
        from repro.sim.rng import WeightedChoice

        with pytest.raises(ValueError):
            WeightedChoice([], [])
        with pytest.raises(ValueError):
            WeightedChoice(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            WeightedChoice(["a", "b"], [0.0, 0.0])


class TestSamplerFastPaths:
    def test_zipf_bisect_matches_linear_scan(self):
        zipf = ZipfSampler(500, 0.99)
        a = RngStreams(11).stream("keys")
        b = RngStreams(11).stream("keys")
        for _ in range(300):
            rank = zipf.sample(a)
            # Reference: the leftmost index whose CDF value is >= u.
            u = b.random()
            expected = next(
                i for i, c in enumerate(zipf._cdf) if c >= u
            ) + 1
            assert rank == expected

    def test_zipf_cdf_memoized_across_instances(self):
        assert ZipfSampler(1000, 0.99)._cdf is ZipfSampler(1000, 0.99)._cdf
        assert ZipfSampler(1000, 0.99)._cdf is not ZipfSampler(1000, 0.8)._cdf

    def test_empirical_bisect_matches_linear_scan(self):
        dist = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0], [0.1, 0.4, 0.4, 0.1])
        a = RngStreams(13).stream("sizes")
        b = RngStreams(13).stream("sizes")
        for _ in range(300):
            value = dist.sample(a)
            u = b.random()
            expected = dist.values[
                next(i for i, c in enumerate(dist._cdf) if c >= u)
            ]
            assert value == expected
