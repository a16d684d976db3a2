"""Sampling policies: always, never and deterministic 1-in-N rates."""

import pytest

from repro.runtime.sampling import AlwaysSample, NeverSample, RateSampler


class TestBasicPolicies:
    def test_always(self):
        policy = AlwaysSample()
        assert all(policy.should_sample("HashMap") for _ in range(10))

    def test_never(self):
        policy = NeverSample()
        assert not any(policy.should_sample("HashMap") for _ in range(10))


class TestRateSampler:
    def test_warmup_always_sampled(self):
        policy = RateSampler(rate=10, warmup=3)
        assert [policy.should_sample("T") for _ in range(3)] == [True] * 3

    def test_one_in_n_after_warmup(self):
        policy = RateSampler(rate=4, warmup=0)
        decisions = [policy.should_sample("T") for _ in range(8)]
        assert decisions == [True, False, False, False] * 2

    def test_rates_are_per_type(self):
        policy = RateSampler(rate=2, warmup=0)
        assert policy.should_sample("A") is True
        assert policy.should_sample("B") is True   # B's own counter
        assert policy.should_sample("A") is False

    def test_deterministic_across_instances(self):
        a = RateSampler(rate=3, warmup=1)
        b = RateSampler(rate=3, warmup=1)
        seq_a = [a.should_sample("T") for _ in range(20)]
        seq_b = [b.should_sample("T") for _ in range(20)]
        assert seq_a == seq_b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RateSampler(rate=0)
        with pytest.raises(ValueError):
            RateSampler(rate=1, warmup=-1)

