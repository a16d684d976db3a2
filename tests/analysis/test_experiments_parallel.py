"""Determinism contract: the experiment suite is byte-identical at any
scheduler parallelism, and in any order a pool submits its jobs."""

from unittest import mock

import pytest

from repro.analysis import experiments
from repro.analysis.scheduler import Scheduler

SCALE = 0.05
RESOLUTION = 32768


@pytest.fixture(autouse=True)
def fresh_session_cache():
    experiments.reset_session_cache()
    yield
    experiments.reset_session_cache()


@pytest.fixture(scope="module")
def pool():
    with Scheduler(jobs=4) as scheduler:
        yield scheduler


class TestFig6Parallel:
    def test_rows_and_details_identical(self, pool):
        serial = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        experiments.reset_session_cache()
        parallel = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION,
                                        scheduler=pool)
        assert parallel.rows == serial.rows
        assert parallel.details == serial.details
        assert parallel.render() == serial.render()


class TestFig7Parallel:
    def test_ticks_and_gc_counts_identical(self, pool):
        serial = experiments.run_fig7(scale=SCALE, resolution=RESOLUTION)
        experiments.reset_session_cache()
        parallel = experiments.run_fig7(scale=SCALE, resolution=RESOLUTION,
                                        scheduler=pool)
        assert parallel.rows == serial.rows
        assert parallel.gc_cycles == serial.gc_cycles
        assert parallel.render() == serial.render()


class TestSessionCacheInteraction:
    def test_fig7_after_fig6_reuses_profiles(self):
        """In one process, Fig. 7 re-profiles nothing Fig. 6 already
        profiled."""
        experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        cache = experiments.get_session_cache()
        misses_after_fig6 = cache.misses
        experiments.run_fig7(scale=SCALE, resolution=RESOLUTION)
        assert cache.misses == misses_after_fig6
        assert cache.hits >= len(experiments.BENCHMARKS)

    def test_cached_rerun_is_identical(self):
        first = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        second = experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)
        assert experiments.get_session_cache().hits > 0
        assert second.render() == first.render()


class TestWarmPool:
    """A pool that has run the suite once submits the second pass longest
    job first, by the walls the first pass measured; both passes render
    what the serial reference renders.  Fig. 6 at resolution 2048, where
    its rows differ; Fig. 7 at the module's resolution, as the CI smoke
    legs run both (at 2048 Fig. 7's PMD bar runs out of memory)."""

    def _suite(self, scheduler=None):
        return [experiments.run_fig6(scale=SCALE, resolution=2048,
                                     scheduler=scheduler).render(),
                experiments.run_fig7(scale=SCALE, resolution=RESOLUTION,
                                     scheduler=scheduler).render()]

    def test_second_pass_longest_first_renders_serial_output(self):
        serial = self._suite()
        with Scheduler(jobs=2) as scheduler:
            experiments.reset_session_cache()
            assert self._suite(scheduler) == serial
            walls = dict(scheduler._last_walls)
            orders = []
            submission_order = scheduler._submission_order

            def recorded_order(graph):
                order = submission_order(graph)
                orders.append(([job.job_id for job in order],
                               graph.job_ids()))
                return order

            experiments.reset_session_cache()
            with mock.patch.object(scheduler, "_submission_order",
                                   side_effect=recorded_order):
                assert self._suite(scheduler) == serial
        assert len(orders) == 2
        for order, inserted in orders:
            assert set(inserted) <= set(walls)
            assert order == sorted(inserted, key=lambda job: -walls[job])
        # Fig. 6 inserts PMD, its longest searches, last.
        fig6_order, fig6_inserted = orders[0]
        assert fig6_order != fig6_inserted
