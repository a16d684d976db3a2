"""Profiling-session cache: keys, hit behavior, and disk spill."""

import os
import threading

import pytest

from repro.analysis import index as index_mod
from repro.analysis.index import SessionStore
from repro.core.chameleon import Chameleon, SessionCache
from repro.core.config import ToolConfig
from repro.rules.builtin import BUILTIN_RULES
from repro.workloads import TvlaWorkload


@pytest.fixture
def cache():
    return SessionCache()


@pytest.fixture
def tool(cache):
    return Chameleon(ToolConfig(), session_cache=cache)


class TestKey:
    def test_same_spec_same_key(self):
        config = ToolConfig()
        assert SessionCache.key(config, TvlaWorkload(scale=0.1)) \
            == SessionCache.key(config, TvlaWorkload(scale=0.1))

    def test_key_covers_workload_spec(self):
        config = ToolConfig()
        base = SessionCache.key(config, TvlaWorkload(scale=0.1))
        assert SessionCache.key(config, TvlaWorkload(scale=0.2)) != base
        assert SessionCache.key(config, TvlaWorkload(scale=0.1,
                                                     seed=7)) != base
        assert SessionCache.key(
            config, TvlaWorkload(scale=0.1, manual_fixes=True)) != base

    def test_key_covers_config_fingerprint(self):
        workload = TvlaWorkload(scale=0.1)
        assert SessionCache.key(ToolConfig(), workload) \
            != SessionCache.key(ToolConfig(gc_threshold_bytes=1024),
                                workload)


    def test_key_covers_the_rule_set(self):
        """A cache shared by engines with different rules must not hand
        one engine the other's suggestions."""
        cache = SessionCache()
        workload = TvlaWorkload(scale=0.05)
        full = Chameleon(session_cache=cache).profile(workload)
        assert len(full.suggestions) > 0
        uncached = Chameleon(rules=BUILTIN_RULES[:1]).profile(workload)
        one_rule = Chameleon(rules=BUILTIN_RULES[:1], session_cache=cache)
        assert one_rule.profile(workload).suggestions == uncached.suggestions
        assert cache.hits == 0

    def test_rule_origin_is_not_part_of_the_key(self):
        import dataclasses

        moved = [dataclasses.replace(spec, origin=("elsewhere.py", 1))
                 for spec in BUILTIN_RULES]
        assert Chameleon(rules=moved).rules_digest \
            == Chameleon().rules_digest


class TestProfileHook:
    def test_second_profile_hits(self, tool, cache):
        first = tool.profile(TvlaWorkload(scale=0.05))
        second = tool.profile(TvlaWorkload(scale=0.05))
        assert cache.misses == 1
        assert cache.hits == 1
        # The cached session is the same measurement, minus the live VM.
        assert second.vm is None
        assert second.metrics == first.metrics
        assert second.report.render_top_contexts(3) \
            == first.report.render_top_contexts(3)

    def test_policy_runs_bypass_the_cache(self, tool, cache):
        session = tool.profile(TvlaWorkload(scale=0.05))
        policy = tool.build_policy(session.suggestions)
        repeat = tool.profile(TvlaWorkload(scale=0.05), policy=policy)
        assert repeat.vm is not None
        assert cache.hits == 0
        assert len(cache) == 1

    def test_heap_limited_runs_bypass_the_cache(self, tool, cache):
        tool.profile(TvlaWorkload(scale=0.05), heap_limit=1 << 30)
        assert len(cache) == 0

    def test_no_cache_installed_keeps_vm(self):
        session = Chameleon(ToolConfig()).profile(TvlaWorkload(scale=0.05))
        assert session.vm is not None

    def test_clear_resets_counters(self, tool, cache):
        tool.profile(TvlaWorkload(scale=0.05))
        tool.profile(TvlaWorkload(scale=0.05))
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)


class TestDiskSpill:
    """Spilling a cache into a :class:`SessionStore` directory and
    reloading it in a fresh cache, as ``experiment --session-cache``
    does across invocations."""

    def test_save_load_roundtrip(self, tool, cache, tmp_path):
        fresh_session = tool.profile(TvlaWorkload(scale=0.05))
        store_dir = str(tmp_path / "store")
        assert SessionStore(store_dir).save_cache(cache) == 1

        other_cache = SessionCache()
        assert SessionStore(store_dir).load_cache(other_cache) == 1
        other_tool = Chameleon(ToolConfig(), session_cache=other_cache)
        reloaded = other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.hits == 1
        assert reloaded.metrics == fresh_session.metrics
        assert len(reloaded.suggestions) == len(fresh_session.suggestions)

    def test_load_missing_file_is_a_noop(self, cache, tmp_path):
        assert SessionStore(str(tmp_path / "absent")).load_cache(cache) == 0
        assert len(cache) == 0

    def test_load_does_not_clobber_existing_entries(self, tool, cache,
                                                    tmp_path):
        tool.profile(TvlaWorkload(scale=0.05))
        store = SessionStore(str(tmp_path / "store"))
        store.save_cache(cache)
        assert store.load_cache(cache) == 0
        assert len(cache) == 1


class TestBackingStore:
    """The content-addressed per-entry store behind the in-memory cache:
    puts write through, misses read through (and promote), so scheduler
    workers sharing one store directory share sessions."""

    def test_put_writes_through(self, tool, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store = SessionStore(str(tmp_path / "store"))
        cache.attach_store(store)
        assert cache.backing_store is store
        tool.profile(TvlaWorkload(scale=0.05))
        key = SessionCache.key(ToolConfig(), TvlaWorkload(scale=0.05))
        assert store.get(key) is not None

    def test_miss_reads_through_and_promotes(self, tool, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store_dir = str(tmp_path / "store")
        cache.attach_store(SessionStore(store_dir))
        first = tool.profile(TvlaWorkload(scale=0.05))

        # A different process's cache: empty memory, same store.
        other_cache = SessionCache()
        other_cache.attach_store(SessionStore(store_dir))
        other_tool = Chameleon(ToolConfig(), session_cache=other_cache)
        reloaded = other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.hits == 1
        assert other_cache.store_hits == 1
        assert reloaded.metrics == first.metrics
        assert len(other_cache) == 1  # promoted into memory
        other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.store_hits == 1  # second hit was in-memory

    def test_clear_keeps_the_store_attached(self, cache, tmp_path):
        from repro.analysis.index import SessionStore

        store = SessionStore(str(tmp_path / "store"))
        cache.attach_store(store)
        cache.clear()
        assert cache.backing_store is store
        assert cache.store_hits == 0

    def test_detach(self, cache, tmp_path):
        from repro.analysis.index import SessionStore

        cache.attach_store(SessionStore(str(tmp_path / "store")))
        cache.detach_store()
        assert cache.backing_store is None


class TestSpillDurability:
    """A torn, truncated, or concurrent spill must never take down
    later runs: a damaged entry loads as a miss with a warning, and
    every entry is written atomically, so readers only ever observe
    complete entries."""

    def _spill(self, store, key, session="session"):
        cache = SessionCache()
        cache._entries[key] = session
        return store.save_cache(cache)

    def test_truncated_spill_is_treated_as_empty(self, tool, cache,
                                                 tmp_path):
        tool.profile(TvlaWorkload(scale=0.05))
        store = SessionStore(str(tmp_path))
        store.save_cache(cache)
        [path] = tmp_path.iterdir()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        fresh = SessionCache()
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.load_cache(fresh) == 0
        assert len(fresh) == 0

    def test_failed_save_preserves_previous_spill(self, tmp_path,
                                                  monkeypatch):
        store = SessionStore(str(tmp_path))
        self._spill(store, ("k",))
        [path] = tmp_path.iterdir()
        original = path.read_bytes()

        def boom(entry, handle, protocol=None):
            handle.write(b"half a pi")
            raise OSError("disk full")

        monkeypatch.setattr(index_mod.pickle, "dump", boom)
        with pytest.raises(OSError):
            self._spill(store, ("other",))
        monkeypatch.undo()
        assert path.read_bytes() == original  # old entry untouched
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_saves_never_leave_a_torn_file(self, tmp_path,
                                                      monkeypatch):
        """Interleave two spills of one key: whatever rename wins, the
        entry on disk is some one writer's complete pickle."""
        store = SessionStore(str(tmp_path))
        real_replace = os.replace
        fired = []

        def interleaved_replace(src, dst):
            if not fired:
                fired.append(True)
                # A second writer completes first.
                self._spill(SessionStore(str(tmp_path)), ("k",), "two")
            real_replace(src, dst)

        monkeypatch.setattr(index_mod.os, "replace", interleaved_replace)
        self._spill(store, ("k",), "one")
        monkeypatch.undo()

        merged = SessionCache()
        assert store.load_cache(merged) == 1
        assert merged._entries[("k",)] == "one"
        assert len(list(tmp_path.iterdir())) == 1

    def test_threaded_save_hammer_yields_a_complete_spill(self, tmp_path):
        store = SessionStore(str(tmp_path))
        threads = [threading.Thread(target=self._spill,
                                    args=(store, (f"writer{i}",),
                                          "x" * (1000 * (i + 1))))
                   for i in range(4) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = SessionCache()
        assert store.load_cache(merged) == 4  # every writer's full entry
        assert len(list(tmp_path.iterdir())) == 4
