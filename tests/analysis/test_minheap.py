"""Minimal-heap binary search."""

import pytest

from repro.analysis.minheap import MinHeapResult, find_min_heap, measure_min_heap
from repro.core.chameleon import Chameleon
from repro.collections.wrappers import ChameleonList
from repro.verify.oracle import reference_find_min_heap
from repro.workloads.base import Workload


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
        assert isinstance(result, MinHeapResult)
        # The program cannot run below its live set, and the GC-overhead
        # guard keeps the answer within a small factor above it.
        assert result.min_heap_bytes >= result.unconstrained_peak * 0.9
        assert result.min_heap_bytes <= result.unconstrained_peak * 1.6
        assert result.probes > 0
        assert result.headroom >= 0.9

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
