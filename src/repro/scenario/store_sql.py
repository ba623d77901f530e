"""SQLite outcome-store backend: one file, indexed lookups, WAL writers.

:class:`SqliteOutcomeStore` implements the
:class:`~repro.scenario.store.OutcomeStore` interface on a single SQLite
file.  It exists because the directory backend pays one file per record:
fine for a few hundred grid cells, hostile to the scenario breadth the
roadmap heads toward (heterogeneous platforms and tech-node axes multiply
the grid by orders of magnitude).  Here every record is a row in one
B-tree indexed by ``spec_hash``, so a million-record store is still one
file and one page read per lookup.

Semantics are *identical* to the other backends (the test suite asserts
observational equivalence): ``put`` of a same-content record is a no-op,
a conflicting record (same key, different spec or summary) raises
:class:`~repro.errors.OutcomeStoreError`, and records round-trip their
summary rows bit-identically (canonical JSON, ``allow_nan=False``).

Concurrency: within one process a mutex serializes access to the shared
connection; across processes SQLite's WAL mode lets concurrent shards
append while readers replay (writers briefly serialize on the database
write lock; ``busy_timeout`` absorbs the contention).  The put-time
conflict check re-reads after ``INSERT OR IGNORE``, so two processes
racing the same key converge exactly like two shards racing an atomic
``os.replace`` in the directory backend: benign for same-content records,
a loud :class:`OutcomeStoreError` otherwise.

Schema evolution: the file carries ``schema_version`` in its ``meta``
table.  Opening a store whose version is behind :data:`SCHEMA_VERSION`
applies the registered :data:`MIGRATIONS` in order; a version *ahead* of
this code refuses to open (never silently read a future layout).  The
SQL sticks to the portable subset (TEXT columns, one primary key), so a
Postgres backend is the same schema with a different connection factory.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import OutcomeStoreError
from repro.scenario.store import OutcomeStore, StoredOutcome

#: Current on-disk schema version (see MIGRATIONS for the history).
SCHEMA_VERSION = 1

#: Cross-process write-lock patience (milliseconds).
BUSY_TIMEOUT_MS = 10_000

#: Ordered schema migrations: ``MIGRATIONS[v]`` upgrades a version-``v``
#: database to version ``v + 1``.  Version 0 is the empty database, so
#: the initial schema is itself migration 0 — a store created today and a
#: store upgraded from any older version go through the same code path.
MIGRATIONS: dict[int, Callable[[sqlite3.Connection], None]] = {}


def _migration(version: int) -> Callable[
    [Callable[[sqlite3.Connection], None]],
    Callable[[sqlite3.Connection], None],
]:
    """Register the upgrade step from `version` to ``version + 1``."""

    def register(
        func: Callable[[sqlite3.Connection], None],
    ) -> Callable[[sqlite3.Connection], None]:
        if version in MIGRATIONS:
            raise OutcomeStoreError(
                f"duplicate sqlite schema migration for version {version}"
            )
        MIGRATIONS[version] = func
        return func

    return register


@_migration(0)
def _initial_schema(connection: sqlite3.Connection) -> None:
    """Version 0 -> 1: the outcomes table and its metadata."""
    connection.execute(
        "CREATE TABLE IF NOT EXISTS outcomes ("
        " spec_hash TEXT PRIMARY KEY,"
        " spec TEXT NOT NULL,"
        " summary TEXT NOT NULL,"
        " provenance TEXT NOT NULL)"
    )


def _dump(payload: dict[str, Any]) -> str:
    """Canonical JSON for a record column (stable, NaN-rejecting)."""
    return json.dumps(
        payload, sort_keys=True, allow_nan=False, separators=(",", ":")
    )


def _enable_wal(connection: sqlite3.Connection) -> None:
    """Switch `connection`'s database to WAL, waiting out other writers.

    Leaving rollback-journal mode needs an exclusive lock, and while
    another connection holds the write lock sqlite reports "database is
    locked" at once instead of calling the busy handler (two stores
    opening one fresh file race exactly here).  Retry with bounded
    exponential backoff for up to :data:`BUSY_TIMEOUT_MS`, the patience
    every other statement gets from ``busy_timeout``.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_MS / 1000.0
    delay = 0.001
    while True:
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() + delay > deadline:
                raise
        time.sleep(delay)
        delay = min(2.0 * delay, 0.05)


class SqliteOutcomeStore(OutcomeStore):
    """A single-file SQLite outcome store (WAL mode, indexed by spec hash).

    Args:
        path: the database file; created (with parents) on first open.
            ``open_outcome_store`` routes ``sqlite:PATH`` URLs and
            ``*.sqlite`` / ``*.sqlite3`` / ``*.db`` paths here.

    Example::

        store = SqliteOutcomeStore("outcomes.sqlite")
        runner = ScenarioRunner(outcome_store=store)

    The store is thread-safe (one shared connection behind a mutex) and
    multi-process-safe (WAL + busy timeout + re-check-after-insert); see
    the module docstring for the exact guarantees.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mutex = threading.RLock()
        self._connection: sqlite3.Connection | None = None

    # -- connection / schema lifecycle -------------------------------------

    def _connect_locked(self) -> sqlite3.Connection:
        if self._connection is not None:
            return self._connection
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            connection = sqlite3.connect(
                self.path, check_same_thread=False, isolation_level=None
            )
        except (OSError, sqlite3.Error) as exc:
            raise OutcomeStoreError(
                f"cannot open sqlite outcome store {self.path}: {exc}"
            ) from exc
        try:
            connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS:d}")
            _enable_wal(connection)
            connection.execute("PRAGMA synchronous=NORMAL")
            self._ensure_schema_locked(connection)
        except sqlite3.Error as exc:
            connection.close()
            raise OutcomeStoreError(
                f"cannot open sqlite outcome store {self.path}: {exc}"
            ) from exc
        except BaseException:
            connection.close()
            raise
        self._connection = connection
        return connection

    def _ensure_schema_locked(self, connection: sqlite3.Connection) -> None:
        """Create or upgrade the schema under one cross-process lock.

        ``BEGIN IMMEDIATE`` takes the database write lock up front so two
        processes opening a fresh store do not interleave migrations; the
        version is re-read inside the transaction for the same reason.

        Raises:
            OutcomeStoreError: when the file's schema version is *newer*
                than this code (reading a future layout would be silent
                corruption) or a migration step is missing.
        """
        try:
            connection.execute("BEGIN IMMEDIATE")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            version = int(row[0]) if row is not None else 0
            if version > SCHEMA_VERSION:
                raise OutcomeStoreError(
                    f"sqlite outcome store {self.path} has schema version "
                    f"{version}, newer than this build's {SCHEMA_VERSION}; "
                    "upgrade the package (or migrate the store) instead of "
                    "reading a future layout"
                )
            while version < SCHEMA_VERSION:
                migrate = MIGRATIONS.get(version)
                if migrate is None:
                    raise OutcomeStoreError(
                        f"no sqlite schema migration from version {version} "
                        f"(store {self.path})"
                    )
                migrate(connection)
                version += 1
            connection.execute(
                "INSERT INTO meta(key, value) VALUES('schema_version', ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (str(version),),
            )
            connection.execute("COMMIT")
        except sqlite3.Error as exc:
            connection.execute("ROLLBACK")
            raise OutcomeStoreError(
                f"cannot initialize sqlite outcome store {self.path}: {exc}"
            ) from exc
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    def schema_version(self) -> int:
        """The store file's current schema version (tests, tooling)."""
        with self._mutex:
            connection = self._connect_locked()
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            return int(row[0]) if row is not None else 0

    def close(self) -> None:
        """Close the underlying connection (idempotent).

        A closed store reopens transparently on the next operation; this
        exists so tests and short-lived CLI commands (``protemp migrate``)
        release the file promptly.
        """
        with self._mutex:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "SqliteOutcomeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- record (de)serialization ------------------------------------------

    def _load(self, row: "tuple[str, str, str, str]") -> StoredOutcome:
        """Decode and validate one ``outcomes`` row (spec must hash to key)."""
        spec_hash = row[0]
        try:
            payload = {
                "spec_hash": spec_hash,
                "spec": json.loads(row[1]),
                "summary": json.loads(row[2]),
                "provenance": json.loads(row[3]),
            }
        except json.JSONDecodeError as exc:
            raise OutcomeStoreError(
                f"unreadable outcome record {self.path}:{spec_hash}: {exc}"
            ) from exc
        return StoredOutcome.from_dict(
            payload, source=f"{self.path}:{spec_hash}"
        )

    # -- OutcomeStore interface --------------------------------------------

    def get(self, spec_hash: str) -> StoredOutcome | None:
        """The record stored under `spec_hash`, or None.

        Raises:
            OutcomeStoreError: when the stored row is corrupt (its spec no
                longer hashes to the key) or the file is unreadable.
        """
        with self._observe("get"):
            with self._mutex:
                connection = self._connect_locked()
                try:
                    row = connection.execute(
                        "SELECT spec_hash, spec, summary, provenance "
                        "FROM outcomes WHERE spec_hash = ?",
                        (spec_hash,),
                    ).fetchone()
                except sqlite3.Error as exc:
                    raise OutcomeStoreError(
                        f"cannot read sqlite outcome store {self.path}: {exc}"
                    ) from exc
            if row is None:
                return None
            return self._load(row)

    def put(self, record: StoredOutcome) -> None:
        """Persist `record` (idempotent; conflicts raise).

        ``INSERT OR IGNORE`` plus a re-read makes the cross-process race
        safe: whichever writer loses the insert compares content with the
        row that won, exactly like the directory backend's atomic-replace
        race — a same-content duplicate is benign, anything else raises.

        Raises:
            OutcomeStoreError: when a different record already holds the
                key (spec-hash collision or conflicting duplicate).
        """
        with self._observe("put"):
            with self._mutex:
                connection = self._connect_locked()
                if self._check_put(record) is not None:
                    return
                try:
                    cursor = connection.execute(
                        "INSERT OR IGNORE INTO outcomes"
                        " (spec_hash, spec, summary, provenance)"
                        " VALUES (?, ?, ?, ?)",
                        (
                            record.spec_hash,
                            _dump(record.spec),
                            _dump(record.summary),
                            _dump(record.provenance),
                        ),
                    )
                except (sqlite3.Error, ValueError) as exc:
                    raise OutcomeStoreError(
                        f"cannot write to sqlite outcome store {self.path}: "
                        f"{exc}"
                    ) from exc
                if cursor.rowcount == 0:
                    # Lost a cross-process race since _check_put: re-read and
                    # apply the same benign-duplicate / conflict semantics.
                    self._check_put(record)

    def records(self) -> Iterator[StoredOutcome]:
        """Iterate every record, ordered by spec hash (deterministic)."""
        with self._mutex:
            connection = self._connect_locked()
            try:
                rows = connection.execute(
                    "SELECT spec_hash, spec, summary, provenance "
                    "FROM outcomes ORDER BY spec_hash"
                ).fetchall()
            except sqlite3.Error as exc:
                raise OutcomeStoreError(
                    f"cannot read sqlite outcome store {self.path}: {exc}"
                ) from exc
        for row in rows:
            yield self._load(row)

    def __len__(self) -> int:
        with self._mutex:
            connection = self._connect_locked()
            row = connection.execute(
                "SELECT COUNT(*) FROM outcomes"
            ).fetchone()
            return int(row[0])
