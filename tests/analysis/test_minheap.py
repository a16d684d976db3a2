"""Minimal-heap binary search."""

import pytest

from repro.analysis import experiments
from repro.analysis.minheap import (MinHeapResult, find_min_heap,
                                    measure_min_heap, min_heap_probe)
from repro.core.chameleon import Chameleon
from repro.collections.wrappers import ChameleonList
from repro.verify.oracle import reference_find_min_heap
from repro.workloads import BENCHMARKS, CONTROLS, TvlaWorkload
from repro.workloads.base import Workload
from repro.workloads.compiled import SCENARIOS, make_scenario


class TestFindMinHeap:
    def test_exact_threshold_search(self):
        threshold = 77_000
        attempts = []

        def attempt(limit):
            attempts.append(limit)
            return limit >= threshold

        found, probes = find_min_heap(attempt, low=1024, high=1 << 20,
                                      resolution=1024)
        assert threshold <= found < threshold + 1024
        assert probes == len(attempts)

    def test_grows_upper_bracket(self):
        found, _ = find_min_heap(lambda limit: limit >= 10_000,
                                 low=16, high=32, resolution=16)
        assert 10_000 <= found < 10_016

    def test_resolution_controls_probe_count(self):
        def attempt(limit):
            return limit >= 50_000
        _, coarse = find_min_heap(attempt, low=1024, high=1 << 20,
                                  resolution=16_384)
        _, fine = find_min_heap(attempt, low=1024, high=1 << 20,
                                resolution=256)
        assert coarse < fine

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            find_min_heap(lambda limit: True, low=100, high=100)

    def test_contradictory_bounds(self):
        with pytest.raises(ValueError, match="floor"):
            find_min_heap(lambda limit: True, low=1, high=2, floor=10,
                          ceiling=5)

    def test_invalid_width(self):
        """An empty frontier would never advance the plan."""
        with pytest.raises(ValueError, match="width"):
            find_min_heap(lambda limit: True, low=1, high=2,
                          attempt_many=lambda limits: [], width=0)

    def test_never_succeeding_run_raises(self):
        with pytest.raises(RuntimeError):
            find_min_heap(lambda limit: False, low=1, high=2,
                          resolution=1)


class TestLowerBracketVerification:
    """``low`` is probed, not assumed failing: a true minimum at or
    below the seed must still be found."""

    def test_finds_minimum_below_the_seed(self):
        threshold = 100
        attempts = []

        def attempt(limit):
            attempts.append(limit)
            return limit >= threshold

        found, probes = find_min_heap(attempt, low=1000, high=4000,
                                      resolution=8)
        assert threshold <= found < threshold + 8
        assert probes == len(attempts)

    def test_seed_equal_to_minimum(self):
        found, _ = find_min_heap(lambda limit: limit >= 1000,
                                 low=1000, high=4000, resolution=8)
        assert 1000 <= found < 1008

    def test_always_succeeding_attempt_bottoms_out(self):
        found, _ = find_min_heap(lambda limit: True, low=512, high=1024,
                                 resolution=64)
        assert found <= 64

    def test_failing_seed_skips_downward_probe(self):
        """When the doubling loop has already seen ``low`` fail, no
        downward probes are spent re-checking it."""
        attempts = []

        def attempt(limit):
            attempts.append(limit)
            return limit >= 100

        found, probes = find_min_heap(attempt, low=16, high=32,
                                      resolution=8)
        assert 100 <= found < 108
        assert probes == len(attempts)
        # Every probe below the first success came from the doubling
        # loop, none from the lower-bracket verification.
        assert min(attempts) == 32


class TestSpeculativeSearch:
    """The driver must return byte-identical results to the oracle's
    one-probe-at-a-time plan loop at any width, including the below-seed
    regression case."""

    # (low, high, resolution, threshold) covering: plain bisection,
    # upper-bracket doubling, the true-minimum-below-seed regression
    # from the lower-bracket verification fix, seed == minimum, an
    # always-succeeding attempt, and a coarse resolution.
    GRID = [
        (1024, 1 << 20, 1024, 77_000),
        (16, 32, 16, 10_000),
        (1000, 4000, 8, 100),
        (1000, 4000, 8, 1000),
        (512, 1024, 64, 0),
        (1024, 1 << 20, 16_384, 50_000),
    ]

    @pytest.mark.parametrize("low,high,resolution,threshold", GRID)
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
    def test_matches_serial_across_grid(self, low, high, resolution,
                                        threshold, width):
        def attempt(limit):
            return limit >= threshold

        def attempt_many(limits):
            return [attempt(limit) for limit in limits]

        serial = reference_find_min_heap(attempt, low=low, high=high,
                                         resolution=resolution)
        speculative = find_min_heap(attempt, low=low, high=high,
                                    resolution=resolution,
                                    attempt_many=attempt_many, width=width)
        assert speculative == serial

    @pytest.mark.parametrize("low,high,resolution,threshold", GRID)
    @pytest.mark.parametrize("width", range(1, 9))
    def test_bounds_skip_decided_limits(self, low, high, resolution,
                                        threshold, width):
        """With a floor and a ceiling around the threshold, no width
        evaluates a decided limit, the minimum is the oracle's, and
        ``probes`` counts only the oracle's undecided limits."""
        floor, ceiling = threshold * 3 // 4, threshold + threshold // 4 + 1
        reference = []

        def attempt(limit):
            reference.append(limit)
            return limit >= threshold

        evaluated = []

        def attempt_many(limits):
            evaluated.extend(limits)
            return [limit >= threshold for limit in limits]

        minimum, _ = reference_find_min_heap(attempt, low=low, high=high,
                                             resolution=resolution)
        undecided = [limit for limit in reference
                     if floor <= limit < ceiling]
        found = find_min_heap(attempt, low=low, high=high,
                              resolution=resolution,
                              attempt_many=attempt_many, width=width,
                              floor=floor, ceiling=ceiling)
        assert found == (minimum, len(undecided))
        assert all(floor <= limit < ceiling for limit in evaluated)
        if width == 1:
            assert evaluated == undecided

    def test_speculation_compresses_rounds(self):
        """Each round evaluates a batch, so the number of serial rounds
        drops well below the plan's probe count."""
        rounds = []

        def attempt_many(limits):
            rounds.append(list(limits))
            return [limit >= 77_000 for limit in limits]

        _, probes = find_min_heap(lambda limit: limit >= 77_000,
                                  low=1024, high=1 << 20, resolution=1024,
                                  attempt_many=attempt_many, width=4)
        assert len(rounds) < probes
        assert all(len(batch) <= 4 for batch in rounds)

    def test_never_succeeding_run_raises_speculatively(self):
        def attempt_many(limits):
            return [False for _ in limits]

        with pytest.raises(RuntimeError):
            find_min_heap(lambda limit: False, low=1, high=2, resolution=1,
                          attempt_many=attempt_many, width=4)

    def test_width_one_probes_the_reference_sequence(self):
        """Width 1 evaluates one limit per round, in exactly the order
        the oracle's plan loop probes them."""
        for low, high, resolution, threshold in self.GRID:
            reference = []

            def attempt(limit):
                reference.append(limit)
                return limit >= threshold

            rounds = []

            def attempt_many(limits):
                rounds.append(list(limits))
                return [limit >= threshold for limit in limits]

            expected = reference_find_min_heap(attempt, low=low, high=high,
                                               resolution=resolution)
            found = find_min_heap(attempt, low=low, high=high,
                                  resolution=resolution,
                                  attempt_many=attempt_many, width=1)
            assert found == expected
            assert rounds == [[limit] for limit in reference]
            assert len(rounds) == expected[1]


class GrowingWorkload(Workload):
    name = "growing"

    def run(self, vm):
        lst = ChameleonList(vm, initial_capacity=64)
        lst.pin()
        for i in range(self.scaled(200)):
            lst.add(vm.allocate_data("Item", int_fields=4))


class TestMeasureMinHeap:
    def test_min_heap_brackets_peak_live(self):
        tool = Chameleon()
        result = measure_min_heap(tool, GrowingWorkload(), resolution=1024)
        _, unconstrained = tool.plain_run(GrowingWorkload())
        assert isinstance(result, MinHeapResult)
        # The program cannot run below its live set, and the GC-overhead
        # guard keeps the answer within a small factor above it.
        assert result.min_heap_bytes >= unconstrained.peak_live_bytes
        assert result.min_heap_bytes <= result.unconstrained_peak * 1.6
        assert result.probes > 0
        assert result.headroom >= 0.9

    def test_at_minimum_is_the_run_at_the_minimum(self):
        tool = Chameleon()
        result = measure_min_heap(tool, GrowingWorkload(), resolution=1024)
        _, fresh = tool.plain_run(GrowingWorkload(),
                                  heap_limit=result.min_heap_bytes)
        assert result.at_minimum == fresh

    def test_deterministic(self):
        tool = Chameleon()
        first = measure_min_heap(tool, GrowingWorkload(), resolution=2048)
        second = measure_min_heap(tool, GrowingWorkload(), resolution=2048)
        assert first.min_heap_bytes == second.min_heap_bytes

    def test_scheduler_path_identical_to_serial(self):
        """measure_min_heap with a pooled Scheduler returns the same
        measurement (bytes AND probe count) as the serial path."""
        from repro.analysis.scheduler import Scheduler

        tool = Chameleon()
        serial = measure_min_heap(tool, GrowingWorkload(), resolution=2048)
        with Scheduler(jobs=3) as scheduler:
            parallel = measure_min_heap(tool, GrowingWorkload(),
                                        resolution=2048,
                                        scheduler=scheduler)
        assert parallel == serial

    def test_policy_changes_the_answer(self):
        """A smaller-footprint configuration needs a smaller heap."""
        from repro.core.apply import ReplacementMap
        from repro.runtime.vm import ImplementationChoice

        class ManySmallMaps(Workload):
            name = "maps"

            def run(self, vm):
                from repro.collections.wrappers import ChameleonMap
                holder = vm.allocate_data("H", ref_fields=1)
                vm.add_root(holder)
                def site():
                    return ChameleonMap(vm, src_type="HashMap")
                self._keys = []
                for _ in range(self.scaled(80)):
                    mapping = site()
                    holder.add_ref(mapping.heap_obj.obj_id)
                    for k in range(4):
                        mapping.put(k, k)
                    self._keys.append(mapping)

        tool = Chameleon()
        workload = ManySmallMaps()
        session = tool.profile(workload)
        policy = tool.build_policy(session.suggestions)
        assert len(policy) >= 1
        base = measure_min_heap(tool, workload, resolution=1024)
        optimized = measure_min_heap(tool, workload, policy=policy,
                                     resolution=1024)
        assert optimized.min_heap_bytes < base.min_heap_bytes


SCALE = 0.05


def _soundness_cases():
    """(label, workload, policy) for the paper's six benchmarks (base,
    auto and manual), the scenario library and the DaCapo controls."""
    tool = Chameleon()
    cases = []
    for workload_class in BENCHMARKS:
        session = tool.profile(workload_class(scale=SCALE))
        policy = tool.build_policy(session.suggestions)
        name = workload_class.name
        cases += [(f"{name}:base", workload_class(scale=SCALE), None),
                  (f"{name}:auto", workload_class(scale=SCALE), policy),
                  (f"{name}:manual",
                   workload_class(scale=SCALE, manual_fixes=True), None)]
    cases += [(name, make_scenario(name, scale=SCALE), None)
              for name in SCENARIOS]
    cases += [(workload_class.name, workload_class(scale=SCALE), None)
              for workload_class in CONTROLS]
    return cases


class TestDecidedProbes:
    """The two bounds the unconstrained run decides probes with, checked
    against real runs: a limit below the peak live set OOMs, and a limit
    at the total allocation replays the unconstrained run exactly."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _soundness_cases()

    def test_probe_below_peak_live_runs_out_of_memory(self, cases):
        tool = Chameleon()
        for label, workload, policy in cases:
            _, metrics = tool.plain_run(workload.fresh(), policy=policy)
            if metrics.peak_live_bytes == 0:
                continue  # floor 0: nothing below it to decide
            assert min_heap_probe(tool.config, workload, policy,
                                  metrics.peak_live_bytes - 1) is None, label

    def test_run_at_total_allocation_is_the_unconstrained_run(self, cases):
        tool = Chameleon()
        for label, workload, policy in cases:
            vm, metrics = tool.plain_run(workload.fresh(), policy=policy)
            bounded_vm, bounded = tool.plain_run(
                workload.fresh(), policy=policy,
                heap_limit=metrics.total_allocated_bytes)
            assert bounded == metrics, label
            assert bounded_vm.timeline.cycles == vm.timeline.cycles, label

    @pytest.mark.parametrize("workload_class", BENCHMARKS,
                             ids=lambda cls: cls.name)
    def test_search_matches_the_oracle_probing_every_limit(
            self, workload_class):
        """Same bytes as the oracle, which runs every probe; ``probes``
        is the number of oracle limits in ``[floor, ceiling)``."""
        resolution = 8192
        tool = Chameleon()
        workload = workload_class(scale=SCALE)
        _, metrics = tool.plain_run(workload.fresh())
        peak = max(metrics.peak_live_bytes, resolution)
        limits = []

        def attempt(limit):
            limits.append(limit)
            return min_heap_probe(tool.config, workload, None,
                                  limit) is not None

        minimum, _ = reference_find_min_heap(
            attempt, low=max(peak // 2, 1), high=peak * 2,
            resolution=resolution)
        result = measure_min_heap(tool, workload, resolution=resolution)
        assert result.min_heap_bytes == minimum
        assert result.probes == sum(
            metrics.peak_live_bytes <= limit < metrics.total_allocated_bytes
            for limit in limits)


class TestFig7Baseline:
    def test_baseline_is_a_fresh_run_at_the_minimum(self):
        """Fig. 7 takes its baseline from the search's run at the
        minimum; it must equal a fresh run under the same limit."""
        resolution = 8192
        bar = experiments._fig7_benchmark_job(TvlaWorkload, SCALE,
                                              resolution)
        tool = Chameleon()
        minimum = measure_min_heap(tool, TvlaWorkload(scale=SCALE),
                                   resolution=resolution).min_heap_bytes
        _, fresh = tool.plain_run(TvlaWorkload(scale=SCALE),
                                  heap_limit=minimum)
        assert (bar["baseline_ticks"], bar["baseline_gcs"]) == (
            fresh.ticks, fresh.gc_cycles)
