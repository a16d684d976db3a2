"""Cross-run experiment index: run directories and ``runs.sqlite``.

This module makes every ``experiment`` and ``perf`` invocation leave a
durable, queryable trace, following the run-directory + SQLite-index
experimentation layer of the ghostty-analysis pack (SNIPPETS.md) and
the search-over-benchmarks framing of Darwinian Data Structure
Selection (PAPERS.md):

* :class:`RunDirectory` -- one directory per invocation under a *runs
  root* (default ``benchmarks/runs/``), holding a ``manifest.json``
  (config fingerprint, git revision, ``PYTHONHASHSEED``, workload /
  scale / seed parameters, wall-clock and tick results, schema version)
  plus the invocation's artifacts (the BENCH document, rendered output).
* :class:`RunIndex` -- the ``runs.sqlite`` database at the runs root:
  one ``runs`` row per invocation, one ``benchmarks`` row per measured
  benchmark, upserted so re-indexing a run directory is idempotent.
* :func:`render_runs` / :func:`render_history` -- what the ``history``
  command prints: the indexed runs, or one benchmark's series.
* :class:`SessionStore` -- the content-addressed profiling-session
  store (``<runs-root>/store/``) attached behind a
  :class:`SessionCache`: one atomically-written pickle per cache entry,
  named by a digest of the entry's key, so a crash or a second writer
  can cost at most one entry.

Everything here is stdlib-only (``sqlite3``, ``json``, ``pickle``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import subprocess
import sys
import tempfile
import time
import uuid
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MANIFEST_SCHEMA", "MANIFEST_SCHEMA_VERSION", "INDEX_SCHEMA_VERSION",
    "MANIFEST_NAME", "INDEX_NAME", "STORE_DIRNAME",
    "git_revision", "interpreter_hashseed", "atomic_write_text",
    "validate_manifest", "RunDirectory", "RunIndex",
    "render_runs", "render_history", "SessionStore",
]

MANIFEST_SCHEMA = "chameleon-run-manifest"
MANIFEST_SCHEMA_VERSION = 1
#: ``PRAGMA user_version`` of ``runs.sqlite``; bumped on layout changes.
INDEX_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
INDEX_NAME = "runs.sqlite"
STORE_DIRNAME = "store"

#: Manifest fields every run directory must carry (validated on write
#: and by tests; ``git_rev`` may be null outside a checkout).
_MANIFEST_FIELDS = {
    "schema": str,
    "schema_version": int,
    "run_id": str,
    "kind": str,
    "started_at": (int, float),
    "wall_seconds": (int, float),
    "python": str,
    "pythonhashseed": str,
    "config_fingerprint": str,
    "command": list,
    "params": dict,
    "artifacts": list,
    "results": dict,
}


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """``git rev-parse HEAD`` of the source checkout (by default the
    tree this module lives in, so the recorded revision is independent
    of the caller's working directory), or ``None`` outside a repo."""
    if cwd is None:
        cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def interpreter_hashseed() -> str:
    """What pins this interpreter's str/bytes hashing, as recorded in
    manifests: the ``PYTHONHASHSEED`` the process was launched under, or
    ``"random"`` when hashing is randomised.  Metadata only: simulated
    results do not depend on it (the hash tables use Java hash codes).

    Note ``sys.flags.hash_randomization`` stays 1 for any nonzero seed,
    so the environment variable -- which spawn-started children also
    inherit -- is the authoritative signal here.
    """
    seed = os.environ.get("PYTHONHASHSEED")
    if seed:
        return seed
    return "random" if sys.flags.hash_randomization else "0"


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and
    ``os.replace``, so readers never observe a truncated file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def validate_manifest(manifest: object) -> None:
    """Raise ``ValueError`` describing every schema violation in
    ``manifest``; return silently when valid."""
    problems: List[str] = []
    if not isinstance(manifest, dict):
        raise ValueError("manifest must be a JSON object")
    for key, expected in _MANIFEST_FIELDS.items():
        if key not in manifest:
            problems.append(f"missing field {key!r}")
        elif not isinstance(manifest[key], expected):
            problems.append(f"field {key!r} has type "
                            f"{type(manifest[key]).__name__}")
    if manifest.get("schema") not in (None, MANIFEST_SCHEMA):
        problems.append(f"schema is {manifest['schema']!r}, expected "
                        f"{MANIFEST_SCHEMA!r}")
    if isinstance(manifest.get("schema_version"), int) \
            and manifest["schema_version"] > MANIFEST_SCHEMA_VERSION:
        problems.append(f"schema_version {manifest['schema_version']} is "
                        f"newer than supported {MANIFEST_SCHEMA_VERSION}")
    if "git_rev" not in manifest:
        problems.append("missing field 'git_rev'")
    if problems:
        raise ValueError("invalid run manifest: " + "; ".join(problems))


class RunDirectory:
    """One invocation's artifact directory under the runs root.

    Usage: :meth:`create`, then :meth:`add_artifact` for each produced
    file, then :meth:`finalize` once results are known -- the manifest
    is only written (atomically) at finalize time, so a crashed run
    leaves artifacts but no manifest and is ignored by indexing.
    """

    def __init__(self, root: str, run_id: str) -> None:
        self.root = root
        self.run_id = run_id
        self.path = os.path.join(root, run_id)
        self._manifest: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str, kind: str, *,
               command: Sequence[str] = (),
               params: Optional[Dict[str, Any]] = None,
               config_fingerprint: str = "") -> "RunDirectory":
        """Make a fresh run directory and start its manifest."""
        run_id = "{}-{}-{}".format(
            time.strftime("%Y%m%dT%H%M%S", time.gmtime()), kind,
            uuid.uuid4().hex[:8])
        run = cls(root, run_id)
        os.makedirs(run.path, exist_ok=True)
        run._manifest = {
            "schema": MANIFEST_SCHEMA,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run_id": run_id,
            "kind": kind,
            "started_at": time.time(),
            "wall_seconds": 0.0,
            "python": sys.version.split()[0],
            "pythonhashseed": interpreter_hashseed(),
            "git_rev": git_revision(),
            "config_fingerprint": config_fingerprint,
            "command": list(command),
            "params": dict(params or {}),
            "artifacts": [],
            "results": {},
        }
        return run

    @classmethod
    def open(cls, root: str, run_id: str) -> "RunDirectory":
        """Load an existing run directory's manifest (validated)."""
        run = cls(root, run_id)
        run._manifest = run.read_manifest()
        return run

    # ------------------------------------------------------------------
    @property
    def manifest(self) -> Dict[str, Any]:
        return self._manifest

    def manifest_path(self) -> str:
        return os.path.join(self.path, MANIFEST_NAME)

    def artifact_path(self, name: str) -> str:
        return os.path.join(self.path, name)

    def add_artifact(self, name: str, text: str) -> str:
        """Write one artifact file and record it in the manifest."""
        path = self.artifact_path(name)
        atomic_write_text(path, text)
        if name not in self._manifest["artifacts"]:
            self._manifest["artifacts"].append(name)
        return path

    def finalize(self, results: Optional[Dict[str, Any]] = None,
                 wall_seconds: Optional[float] = None) -> str:
        """Fill in results and write ``manifest.json`` atomically."""
        if results is not None:
            self._manifest["results"] = results
        if wall_seconds is not None:
            self._manifest["wall_seconds"] = wall_seconds
        else:
            self._manifest["wall_seconds"] = max(
                0.0, time.time() - self._manifest["started_at"])
        validate_manifest(self._manifest)
        atomic_write_text(
            self.manifest_path(),
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n")
        return self.manifest_path()

    def read_manifest(self) -> Dict[str, Any]:
        with open(self.manifest_path(), encoding="utf-8") as handle:
            manifest = json.load(handle)
        validate_manifest(manifest)
        return manifest


# ----------------------------------------------------------------------
# The SQLite index
# ----------------------------------------------------------------------
class RunIndex:
    """The ``runs.sqlite`` cross-run index at a runs root.

    ``runs`` holds one row per indexed invocation; ``benchmarks`` one
    row per measured benchmark of a run, both upserted on conflict so
    re-indexing the same run directory is idempotent.  All queries
    order newest-first by ``started_at`` (``rowid`` breaks ties).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        self._init_schema()

    @classmethod
    def at_root(cls, root: str) -> "RunIndex":
        """The index database conventionally placed at the runs root."""
        return cls(os.path.join(root, INDEX_NAME))

    def _init_schema(self) -> None:
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version > INDEX_SCHEMA_VERSION:
            raise ValueError(
                f"{self.path}: index schema version {version} is newer "
                f"than supported {INDEX_SCHEMA_VERSION}")
        with self._conn:
            self._conn.execute("""
                CREATE TABLE IF NOT EXISTS runs (
                    run_id TEXT PRIMARY KEY,
                    kind TEXT NOT NULL,
                    started_at REAL NOT NULL,
                    wall_seconds REAL,
                    git_rev TEXT,
                    pythonhashseed TEXT,
                    python TEXT,
                    config_fingerprint TEXT,
                    schema_version INTEGER NOT NULL,
                    params TEXT,
                    manifest_path TEXT
                )""")
            self._conn.execute("""
                CREATE TABLE IF NOT EXISTS benchmarks (
                    run_id TEXT NOT NULL REFERENCES runs(run_id),
                    name TEXT NOT NULL,
                    workload TEXT,
                    capture INTEGER,
                    wall_seconds REAL,
                    run_seconds REAL,
                    ticks INTEGER,
                    gc_cycles INTEGER,
                    allocated_objects INTEGER,
                    PRIMARY KEY (run_id, name)
                )""")
            self._conn.execute("""
                CREATE INDEX IF NOT EXISTS benchmarks_by_name
                ON benchmarks (name)""")
            self._conn.execute(
                f"PRAGMA user_version = {INDEX_SCHEMA_VERSION}")

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def record_run(self, manifest: Dict[str, Any],
                   manifest_path: Optional[str] = None) -> None:
        """Upsert one ``runs`` row from a validated manifest."""
        validate_manifest(manifest)
        with self._conn:
            self._conn.execute(
                """INSERT INTO runs (run_id, kind, started_at,
                       wall_seconds, git_rev, pythonhashseed, python,
                       config_fingerprint, schema_version, params,
                       manifest_path)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                   ON CONFLICT(run_id) DO UPDATE SET
                       kind=excluded.kind,
                       started_at=excluded.started_at,
                       wall_seconds=excluded.wall_seconds,
                       git_rev=excluded.git_rev,
                       pythonhashseed=excluded.pythonhashseed,
                       python=excluded.python,
                       config_fingerprint=excluded.config_fingerprint,
                       schema_version=excluded.schema_version,
                       params=excluded.params,
                       manifest_path=excluded.manifest_path""",
                (manifest["run_id"], manifest["kind"],
                 manifest["started_at"], manifest["wall_seconds"],
                 manifest.get("git_rev"), manifest["pythonhashseed"],
                 manifest["python"], manifest["config_fingerprint"],
                 manifest["schema_version"],
                 json.dumps(manifest["params"], sort_keys=True),
                 manifest_path))

    def record_benchmark(self, run_id: str, record: Dict[str, Any]) -> None:
        """Upsert one ``benchmarks`` row (a BENCH-document record, or a
        synthetic record with ``ticks=None`` for unticked measurements
        such as whole-experiment wall clocks)."""
        phases = record.get("phases") or {}
        with self._conn:
            self._conn.execute(
                """INSERT INTO benchmarks (run_id, name, workload,
                       capture, wall_seconds, run_seconds, ticks,
                       gc_cycles, allocated_objects)
                   VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
                   ON CONFLICT(run_id, name) DO UPDATE SET
                       workload=excluded.workload,
                       capture=excluded.capture,
                       wall_seconds=excluded.wall_seconds,
                       run_seconds=excluded.run_seconds,
                       ticks=excluded.ticks,
                       gc_cycles=excluded.gc_cycles,
                       allocated_objects=excluded.allocated_objects""",
                (run_id, record["name"], record.get("workload"),
                 None if record.get("capture") is None
                 else int(bool(record["capture"])),
                 record.get("wall_seconds"), phases.get("run"),
                 record.get("ticks"), record.get("gc_cycles"),
                 record.get("allocated_objects")))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def runs(self, kind: Optional[str] = None,
             last: Optional[int] = None) -> List[sqlite3.Row]:
        """Indexed runs, newest first."""
        sql = "SELECT * FROM runs"
        args: List[Any] = []
        if kind is not None:
            sql += " WHERE kind = ?"
            args.append(kind)
        sql += " ORDER BY started_at DESC, rowid DESC"
        if last is not None:
            sql += " LIMIT ?"
            args.append(last)
        return self._conn.execute(sql, args).fetchall()

    def benchmark_names(self) -> List[str]:
        """Every benchmark name with at least one indexed row."""
        rows = self._conn.execute(
            "SELECT DISTINCT name FROM benchmarks ORDER BY name")
        return [row["name"] for row in rows]

    def history(self, name: str,
                last: Optional[int] = None) -> List[sqlite3.Row]:
        """Indexed rows for one benchmark, newest first (joined with the
        owning run's metadata)."""
        sql = """SELECT b.*, r.started_at, r.git_rev, r.pythonhashseed
                 FROM benchmarks b JOIN runs r ON r.run_id = b.run_id
                 WHERE b.name = ?
                 ORDER BY r.started_at DESC, b.rowid DESC"""
        args: List[Any] = [name]
        if last is not None:
            sql += " LIMIT ?"
            args.append(last)
        return self._conn.execute(sql, args).fetchall()


# ----------------------------------------------------------------------
# Rendering for the ``history`` CLI subcommand
# ----------------------------------------------------------------------
def _seconds(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4f}"


def render_runs(index: RunIndex, last: Optional[int] = None) -> str:
    """The indexed runs, newest first, then every benchmark name that
    ``history NAME`` can show."""
    rows = index.runs(last=last)
    if not rows:
        return f"no indexed runs in {index.path}"
    lines = [f"{len(rows)} indexed run(s) in {index.path}, newest first",
             f"{'run id':<35} {'wall s':>9} {'hashseed':>8} {'git rev':>9}"]
    for row in rows:
        lines.append(
            f"{row['run_id']:<35} {_seconds(row['wall_seconds']):>9} "
            f"{row['pythonhashseed']:>8} {(row['git_rev'] or '-')[:9]:>9}")
    lines.append("benchmarks: " + (", ".join(index.benchmark_names())
                                   or "none"))
    return "\n".join(lines)


def render_history(index: RunIndex, name: str,
                   last: Optional[int] = None) -> str:
    """One benchmark's indexed series, newest first; a wall or run time
    the row does not carry (schema-v5 ``perf`` rows have neither) shows
    as ``-``."""
    rows = index.history(name, last=last)
    if not rows:
        return f"no indexed rows for benchmark {name!r}"
    lines = [f"{name}: {len(rows)} indexed run(s), newest first",
             f"{'run id':<35} {'wall s':>9} {'run s':>9} {'ticks':>12} "
             f"{'hashseed':>8} {'git rev':>9}"]
    for row in rows:
        ticks = "-" if row["ticks"] is None else row["ticks"]
        lines.append(
            f"{row['run_id']:<35} {_seconds(row['wall_seconds']):>9} "
            f"{_seconds(row['run_seconds']):>9} {ticks:>12} "
            f"{row['pythonhashseed']:>8} {(row['git_rev'] or '-')[:9]:>9}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Content-addressed session store
# ----------------------------------------------------------------------
class SessionStore:
    """Content-addressed profiling-session store directory.

    One pickle per cache entry, written atomically and named by a
    SHA-256 digest of the :class:`~repro.core.chameleon.SessionCache`
    key, so concurrent writers (parallel CI legs, scheduler workers)
    compose: identical keys collide onto identical deterministic
    content, distinct keys never clobber each other, and a torn write
    can never corrupt a neighbouring entry.  Corrupt entries, and
    entries filed under another key's name, are skipped with a warning,
    never fatal.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    @staticmethod
    def digest(key: tuple) -> str:
        """Stable content digest of a session-cache key (tuples of
        primitives, so ``repr`` is canonical)."""
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()

    def path_for(self, key: tuple) -> str:
        return os.path.join(self.root, self.digest(key) + ".pkl")

    def _entry_paths(self) -> List[str]:
        return [os.path.join(self.root, name)
                for name in sorted(os.listdir(self.root))
                if name.endswith(".pkl")]

    def __len__(self) -> int:
        return len(self._entry_paths())

    # ------------------------------------------------------------------
    def put(self, key: tuple, session: Any) -> bool:
        """Store one entry; returns whether a new file was written.

        An existing file for the key is left alone: sessions are
        deterministic functions of their key, so the bytes on disk are
        already what a rewrite would produce.
        """
        path = self.path_for(key)
        if os.path.exists(path):
            return False
        fd, tmp_path = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((key, session), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return True

    def get(self, key: tuple) -> Optional[Any]:
        """One entry's session, or ``None`` (missing, corrupt, or
        holding another key)."""
        entry = self._read_entry(self.path_for(key))
        return entry[1] if entry is not None else None

    def _read_entry(self, path: str) -> Optional[Tuple[tuple, Any]]:
        if not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                key, session = pickle.load(handle)
            if self.path_for(key) != path:
                raise ValueError(f"it holds key {key!r}, filed under "
                                 f"another key's name")
        except Exception as exc:
            warnings.warn(
                f"session-store entry {path!r} is corrupt or truncated; "
                f"skipping it ({type(exc).__name__}: {exc})",
                RuntimeWarning, stacklevel=2)
            return None
        return key, session

    def sessions(self) -> List[Any]:
        """Every readable session (what ``lint --drift`` consumes)."""
        out = []
        for path in self._entry_paths():
            entry = self._read_entry(path)
            if entry is not None:
                out.append(entry[1])
        return out
