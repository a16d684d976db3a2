"""Tiny-scale smoke runs of the heavyweight experiment runners.

The shape assertions live in ``benchmarks/``; these tests only verify
that each runner completes, produces well-formed rows, and agrees with
its own accessors -- so a refactor cannot silently break the harness
between benchmark runs.
"""

import pytest

from repro.analysis import experiments

SCALE = 0.1
RESOLUTION = 16 * 1024


@pytest.fixture(scope="module")
def fig6():
    return experiments.run_fig6(scale=SCALE, resolution=RESOLUTION)


@pytest.fixture(scope="module")
def fig7():
    return experiments.run_fig7(scale=SCALE, resolution=RESOLUTION)


class TestFig6Runner:
    def test_two_rows_per_benchmark(self, fig6):
        names = {row.benchmark for row in fig6.rows}
        assert names == {"tvla", "soot", "findbugs", "bloat", "fop", "pmd"}
        assert len(fig6.rows) == 12

    def test_accessors_match_rows(self, fig6):
        for name in ("tvla", "pmd"):
            # At tiny scale a replacement that saves nothing (pmd) can
            # land a few bytes past base on GC-timing noise; allow
            # sub-half-percent slack but still catch real regressions.
            assert -0.005 <= fig6.auto_reduction(name) <= 1.0
            assert fig6.reduction(name) >= fig6.auto_reduction(name) - 1e-9

    def test_details_carry_byte_counts(self, fig6):
        detail = fig6.details["tvla"]
        assert detail["auto"] <= detail["base"]
        assert detail["manual"] <= detail["base"]

    def test_unknown_benchmark_raises(self, fig6):
        with pytest.raises(KeyError):
            fig6.reduction("quake")

    def test_render_mentions_paper_values(self, fig6):
        text = fig6.render()
        assert "min-heap saved" in text
        assert "53.9%" in text  # TVLA's paper number

    def test_directional_shape_even_at_tiny_scale(self, fig6):
        assert fig6.reduction("tvla") > fig6.reduction("pmd")
        assert fig6.reduction("bloat") > fig6.reduction("fop")


class TestFig7Runner:
    def test_one_row_per_benchmark(self, fig7):
        assert len(fig7.rows) == 6

    def test_speedup_accessor(self, fig7):
        assert fig7.speedup("tvla") >= 1.0
        with pytest.raises(KeyError):
            fig7.speedup("quake")

    def test_gc_cycles_recorded(self, fig7):
        base, optimized = fig7.gc_cycles["tvla"]
        assert base >= optimized

    def test_render(self, fig7):
        assert "original minimal heap" in fig7.render()


class TestFig7CoarseGrid:
    def test_optimized_oom_is_a_bar_not_a_crash(self):
        """On a 2048-byte grid PMD's original minimum is below what its
        policy-optimized run needs: that bar reports the OOM and the
        limit, and the other five bars still complete."""
        fig7 = experiments.run_fig7(scale=0.05, resolution=2048)
        assert len(fig7.rows) == 6
        pmd = next(row for row in fig7.rows if row.benchmark == "pmd")
        assert pmd.measured == 0.0
        assert pmd.note == ("optimized run OOM at the original min-heap "
                            "(22380 bytes)")
        assert "pmd" not in fig7.gc_cycles
        assert fig7.speedup("tvla") >= 1.0
        assert "OOM" in fig7.render()


class TestOverheadRunner:
    def test_modes_and_accessor(self):
        result = experiments.run_profiling_overhead(scale=SCALE)
        assert len(result.rows) == 3  # one workload, three postures
        assert result.overhead("tvla", "vm-only overhead") == 0.0
        assert result.overhead("tvla", "full-profiling overhead") > 0.0
        with pytest.raises(KeyError):
            result.overhead("tvla", "no-such-mode")

    def test_fresh_instance_per_posture(self):
        """Each posture must run a fresh workload instance: a workload
        whose work grows with instance reuse would otherwise report a
        phantom vm-only overhead."""
        from repro.workloads.base import Workload

        class StatefulWorkload(Workload):
            name = "stateful"

            def run(self, vm):
                self._runs = getattr(self, "_runs", 0) + 1
                for _ in range(self.scaled(40) * self._runs):
                    vm.allocate_data("Item", int_fields=2)

        result = experiments.run_profiling_overhead(
            scale=0.2, benchmarks=(StatefulWorkload,))
        assert result.overhead("stateful", "vm-only overhead") == 0.0


class TestOnlineRunner:
    def test_two_rows_per_benchmark(self):
        from repro.workloads import TvlaWorkload, PmdWorkload
        result = experiments.run_online(scale=SCALE,
                                        benchmarks=(TvlaWorkload,
                                                    PmdWorkload))
        assert len(result.rows) == 4
        assert result.slowdown("pmd") > result.slowdown("tvla") >= 1.0
