"""Profiling-session cache: keys, hit behavior, and the attached
session store."""

import os
import pathlib
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
    """Sessions written through to a :class:`SessionStore` directory and
    read back by a fresh cache attached to the same directory, as
    ``experiment --session-cache`` does across invocations."""

    KEY = SessionCache.key(ToolConfig(), TvlaWorkload(scale=0.05))

    def test_save_load_roundtrip(self, tool, cache, tmp_path):
        store_dir = str(tmp_path / "store")
        cache.attach_store(SessionStore(store_dir))
        fresh_session = tool.profile(TvlaWorkload(scale=0.05))
        assert len(SessionStore(store_dir)) == 1

        other_cache = SessionCache()
        other_cache.attach_store(SessionStore(store_dir))
        other_tool = Chameleon(ToolConfig(), session_cache=other_cache)
        reloaded = other_tool.profile(TvlaWorkload(scale=0.05))
        assert other_cache.hits == 1
        assert reloaded.metrics == fresh_session.metrics
        assert len(reloaded.suggestions) == len(fresh_session.suggestions)

    def test_load_missing_file_is_a_noop(self, cache, tmp_path):
        store = SessionStore(str(tmp_path / "absent"))
        assert store.sessions() == []
        cache.attach_store(store)
        assert cache.get(self.KEY) is None
        assert (len(cache), cache.misses) == (0, 1)

    def test_load_does_not_clobber_existing_entries(self, tool, cache,
                                                    tmp_path):
        store = SessionStore(str(tmp_path / "store"))
        cache.attach_store(store)
        session = tool.profile(TvlaWorkload(scale=0.05))
        original = pathlib.Path(store.path_for(self.KEY)).read_bytes()
        assert store.put(self.KEY, "a different session") is False
        cache.put(self.KEY, session)
        assert pathlib.Path(store.path_for(self.KEY)).read_bytes() \
            == original
        assert len(store) == 1


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

    def test_detach(self, tool, cache, tmp_path):
        cache.attach_store(SessionStore(str(tmp_path / "store")))
        tool.profile(TvlaWorkload(scale=0.05))
        cache.attach_store(None)
        assert cache.backing_store is None
        assert len(cache) == 1  # in-memory entries are kept


class TestSpillDurability:
    """A torn, truncated, or concurrent write must never take down
    later runs: a damaged entry reads as a miss with a warning, and
    every entry is written atomically, so readers only ever observe
    complete entries."""

    def test_truncated_spill_is_treated_as_empty(self, tool, cache,
                                                 tmp_path):
        store = SessionStore(str(tmp_path))
        cache.attach_store(store)
        tool.profile(TvlaWorkload(scale=0.05))
        [path] = tmp_path.iterdir()
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        fresh = SessionCache()
        fresh.attach_store(store)
        key = SessionCache.key(ToolConfig(), TvlaWorkload(scale=0.05))
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert fresh.get(key) is None
        assert (len(fresh), fresh.misses) == (0, 1)

    def test_failed_save_preserves_previous_spill(self, tmp_path,
                                                  monkeypatch):
        store = SessionStore(str(tmp_path))
        store.put(("k",), "session")
        [path] = tmp_path.iterdir()
        original = path.read_bytes()

        def boom(entry, handle, protocol=None):
            handle.write(b"half a pi")
            raise OSError("disk full")

        monkeypatch.setattr(index_mod.pickle, "dump", boom)
        with pytest.raises(OSError):
            store.put(("other",), "session")
        monkeypatch.undo()
        assert path.read_bytes() == original  # old entry untouched
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_saves_never_leave_a_torn_file(self, tmp_path,
                                                      monkeypatch):
        """Interleave two writes of one key: whatever rename wins, the
        entry on disk is some one writer's complete pickle."""
        store = SessionStore(str(tmp_path))
        real_replace = os.replace
        fired = []

        def interleaved_replace(src, dst):
            if not fired:
                fired.append(True)
                # A second writer completes first.
                SessionStore(str(tmp_path)).put(("k",), "two")
            real_replace(src, dst)

        monkeypatch.setattr(index_mod.os, "replace", interleaved_replace)
        store.put(("k",), "one")
        monkeypatch.undo()

        assert store.get(("k",)) == "one"
        assert len(list(tmp_path.iterdir())) == 1

    def test_threaded_save_hammer_yields_a_complete_spill(self, tmp_path):
        store = SessionStore(str(tmp_path))
        sessions = {(f"writer{i}",): "x" * (1000 * (i + 1))
                    for i in range(4)}
        threads = [threading.Thread(target=store.put, args=(key, session))
                   for key, session in sessions.items() for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Every writer's full entry, under its own key.
        assert {key: store.get(key) for key in sessions} == sessions
        assert len(list(tmp_path.iterdir())) == 4
