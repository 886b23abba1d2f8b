"""Versioned on-disk persistence for profiles, predictions, simulations.

The paper's whole premise is that the profile is a *one-time cost*
(Fig. 1): collect once, predict many design points.  This module makes
that literal across processes and across runs — a content-addressed
cache directory keyed by workload identity (suite benchmark, seed,
scale, chunking) and, for predictions/simulations, the configuration
fingerprint.

Layout: ``<root>/<kind>/<key>.<ext>`` where ``kind`` is ``profiles``
(JSON via ``WorkloadProfile.to_dict``), ``ilptables`` (JSON via
``ILPTable.to_dict``, content-addressed by micro-trace sample digest —
the profiling grid is configuration-independent, so one table serves
every design-space point), ``traces`` (raw-buffer ``.arena`` files,
mmapped back zero-copy and content-addressed by the full workload spec
— see :class:`TraceCache`; a ``.pkl`` trace left by an older build is a
miss that re-expands), ``predictions`` or ``simulations`` (pickled
result dataclasses).  Every artifact embeds ``SCHEMA_VERSION``;
stale-version, truncated or otherwise corrupt files are treated as
misses, so a cache survives arbitrary upgrades by silently
recomputing.

Keys are deterministic SHA-256 fingerprints of canonicalized
structures — Python's salted ``hash()`` is useless across processes,
which is exactly where the parallel pipeline needs stable keys.

Every write, listing, sweep and quarantine move goes through
:mod:`repro.files`, the layer the work queue and the fleet share; the
store keeps the counters and the strict/lenient policy.
``_save``/``_load`` are the one schema envelope of the JSON and pickle
kinds (traces keep their mmapped arena).  Only ``stats`` and the sweeps
``stat()`` what they list.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import mmap
import os
import pickle
import struct
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import files
from repro.counters import Counters
from repro.lru import LRUCache
from repro.profiler.profile import ILPTable, WorkloadProfile
from repro.testing.faults import FAULTS
from repro.workloads.engine import (
    ARENA_MAGIC,
    ExpansionEngine,
    default_engine,
    load_trace_arena,
    pack_trace_arena,
)
from repro.workloads.ir import WorkloadTrace
from repro.workloads.spec import WorkloadSpec

#: Bump when any persisted artifact's layout or producing algorithm
#: changes incompatibly; old entries then read as cache misses.
#: 2: ILP tables built by the lockstep batch engine (and persisted as
#: their own ``ilptables`` artifact kind).
SCHEMA_VERSION = 2

#: Environment variable overriding the default cache root.
CACHE_ENV = "REPRO_CACHE_DIR"

#: Store-generation stamp: ``<root>/GENERATION`` holds a monotonically
#: bumped integer.  Resident caches (the serving engine's LRUs) record
#: the generation they were filled under and drop their entries when a
#: newer one appears — the cross-process invalidation contract for a
#: shared artifact plane.  Consumers compare for *inequality* only, so
#: a lost increment under a write race merely delays nothing: any
#: successful bump still changes the value.
GENERATION_FILE = "GENERATION"

#: Store subdirectories that hold coordination state, not artifacts:
#: the work queue (``queue/jobs|leases|done|events``) and the serving
#: fleet's heartbeat files (``fleet/``).
_NON_ARTIFACT_DIRS = frozenset({"quarantine", "queue", "fleet"})

#: File suffixes of published artifacts (anything else in a kind
#: directory is a writer's ``*.tmp`` or foreign debris).
_ARTIFACT_SUFFIXES = (".json", ".pkl", ".arena")


_INF = float("inf")


def _json_float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it (``allow_nan``: NaN, Infinity)."""
    if x != x:
        return "NaN"
    if x == _INF or x == -_INF:
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


#: Exact scalar types and how ``json.dumps`` writes them.
_SCALARS: Dict[type, Any] = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}

#: Per class: ``(frozen, parts)`` for a dataclass, ``()`` otherwise.
#: ``parts`` is one ``(prefix, field name)`` per JSON key, sorted; the
#: ``"__dataclass__"`` tag is a whole constant prefix with no field.
_LAYOUTS: Dict[type, tuple] = {}


def _layout(cls: type) -> tuple:
    layout: tuple = ()
    if hasattr(cls, "__dataclass_fields__") and not issubclass(cls, type):
        names = {f.name for f in dataclasses.fields(cls)}
        layout = (cls.__dataclass_params__.frozen, tuple(
            (_json_str(key) + ":", key) if key in names
            else (_json_str(key) + ":" + _json_str(cls.__name__), None)
            for key in sorted(names | {"__dataclass__"})
        ))
    _LAYOUTS[cls] = layout
    return layout


def _encode(obj: Any, memo: Dict[int, tuple]) -> str:
    """Canonical JSON of ``obj`` in one pass (see :func:`fingerprint`).

    ``memo`` maps the ``id()`` of each frozen dataclass written so far
    in this call to ``(object, fragment)``; holding the object keeps
    its ``id()`` from being reused while the call runs.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    layout = _LAYOUTS.get(type(obj))
    if layout is None:
        layout = _layout(type(obj))
    if layout:
        frozen, parts = layout
        hit = memo.get(id(obj)) if frozen else None
        if hit is not None:
            return hit[1]
        fragment = "{" + ",".join([
            prefix if name is None
            else prefix + _encode(getattr(obj, name), memo)
            for prefix, name in parts
        ]) + "}"
        if frozen:
            memo[id(obj)] = (obj, fragment)
        return fragment
    if isinstance(obj, Enum):
        scalar = _SCALARS.get(type(obj.value))
        if scalar is not None:
            return scalar(obj.value)
        return json.dumps(obj.value, sort_keys=True, separators=(",", ":"))
    if isinstance(obj, dict):
        # Sorted as given first, so a later key wins a str() collision.
        canon = {str(k): v for k, v in sorted(obj.items())}
        return "{" + ",".join([
            _json_str(k) + ":" + _encode(canon[k], memo)
            for k in sorted(canon)
        ]) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_encode(v, memo) for v in obj]) + "]"
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _json_float(float.__float__(obj))
    return _json_str(repr(obj))


def fingerprint(obj: Any) -> str:
    """Stable SHA-256 hex digest of an arbitrary key structure.

    It hashes ``obj``'s canonical JSON: a dataclass is an object of its
    fields plus a ``"__dataclass__"`` class-name tag, an Enum is its
    value, dict keys are ``str()``-ed, a tuple is a list, scalars are
    written as ``json.dumps(sort_keys=True, separators=(",", ":"))``
    writes them, and anything else is its ``repr()``.  The bytes are
    those of the two-pass spec,
    :func:`repro.testing.specs.fingerprint_reference`, so persisted
    keys stay valid.
    """
    return hashlib.sha256(_encode(obj, {}).encode()).hexdigest()


def default_root() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def default_store() -> Optional["ProfileStore"]:
    """:meth:`ProfileStore.open_default` with its root made, or ``None``
    (cache in memory only) when the root is unusable: the one opener of
    ``report``'s :func:`~repro.experiments.suites.shared_cache` and
    ``repro serve``."""
    try:
        store = ProfileStore.open_default()
        store.root.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return store


def _tally(paths: List[Path]) -> Dict[str, int]:
    """File count + byte total of one listing."""
    entries = files.stat_each(paths)
    return {
        "artifacts": len(entries),
        "bytes": sum(st.st_size for _, st in entries),
    }


class StoreCounters(Counters):
    """Thread-safe health accounting for one :class:`ProfileStore`.

    Degradation must be *counted*, never silent: every corrupt or
    stale artifact, dropped write and I/O error lands here, and the
    serving plane surfaces the snapshot through ``/healthz`` and
    ``repro store stats``.  ``corruption_streak`` counts consecutive
    bad loads since the last good one — a rising streak is the
    error-budget signal for a rotting cache directory (bad disk,
    truncated rsync), distinct from a one-off torn write.
    ``duplicate_writes`` counts publishes that replaced an
    already-published artifact — in a multi-writer fleet, the
    duplicate computations the shared store absorbed (last-writer-wins
    is sound: both writers produced bit-identical content-addressed
    artifacts).
    """

    def __init__(self) -> None:
        super().__init__(
            "writes", "duplicate_writes", "dropped_writes", "io_errors",
            "corrupt", "schema_stale", "quarantined", "quarantine_failed",
            "corruption_streak", "max_corruption_streak",
        )

    def corruption(self, kind: str) -> None:
        """One bad artifact (``corrupt`` or ``schema_stale``) observed:
        count it and extend the streak."""
        with self._lock:
            counts = self._counts
            counts[kind] += 1
            counts["corruption_streak"] += 1
            counts["max_corruption_streak"] = max(
                counts["max_corruption_streak"], counts["corruption_streak"]
            )

    def healthy_load(self) -> None:
        """One artifact loaded intact: the streak is broken."""
        with self._lock:
            self._counts["corruption_streak"] = 0


class ProfileStore:
    """Content-addressed artifact store under one root directory.

    All loads are *best effort*: a missing file returns ``None`` and
    the caller recomputes (and usually re-saves, healing the cache).
    A file that *exists but cannot be trusted* — unparseable, failing
    its embedded digest, or carrying a stale schema — is **quarantined**
    (moved to ``<root>/quarantine/<kind>/``) and counted before the
    load reports a miss, so corruption is visible in ``store stats``
    and ``/healthz`` instead of masquerading as cold cache.  Writes go
    through :func:`repro.files.atomic_write` so concurrent workers
    never observe partial artifacts.

    With ``strict=False`` writes are best effort too: an unwritable
    root or a full disk degrades the store to a read-only (or no-op)
    cache instead of aborting the computation whose result was being
    saved — but every dropped write increments ``dropped_writes`` in
    :attr:`counters` — the mode :func:`~repro.experiments.suites.
    shared_cache` uses, since a report run must survive a broken
    cache directory.

    Chaos fault points (:mod:`repro.testing.faults`): ``store.read``
    fires on every artifact read (error or payload mutation);
    ``store.write`` and ``store.crash`` fire inside the atomic write,
    for artifacts and the generation stamp alike.
    """

    def __init__(
        self,
        root: Optional[os.PathLike] = None,
        strict: bool = True,
    ) -> None:
        self.root = Path(root) if root is not None else default_root()
        self.strict = strict
        self.counters = StoreCounters()

    @classmethod
    def open_default(
        cls, root: Optional[os.PathLike] = None
    ) -> "ProfileStore":
        """The canonical durable store: best-effort writes at the
        default root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).

        Non-strict because cache persistence must never abort the
        computation being cached — an unwritable root degrades to a
        read-only store with ``dropped_writes`` counted.  This is the
        constructor behind :meth:`repro.core.session.Session.from_store`
        and :func:`default_store`.
        """
        return cls(root=root, strict=False)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def profile_key(
        label: str, seed: int, scale: float, chunk: int
    ) -> str:
        return fingerprint({
            "kind": "profile",
            "schema": SCHEMA_VERSION,
            "label": label,
            "seed": seed,
            "scale": scale,
            "chunk": chunk,
        })

    @staticmethod
    def result_key(
        kind: str, label: str, seed: int, scale: float, config: Any
    ) -> str:
        return fingerprint({
            "kind": kind,
            "schema": SCHEMA_VERSION,
            "label": label,
            "seed": seed,
            "scale": scale,
            "config": config,
        })

    @staticmethod
    def trace_key(spec: WorkloadSpec) -> str:
        """Content address of an expanded trace: the full spec.

        Expansion is a pure function of the spec (seed included), so
        fingerprinting the spec structure — every epoch, memory
        pattern, branch spec and sync event — is exactly the identity
        under which a persisted trace may be reused.
        """
        return fingerprint({
            "kind": "trace",
            "schema": SCHEMA_VERSION,
            "spec": spec,
        })

    # -- plumbing -----------------------------------------------------------

    def _path(self, kind: str, key: str, ext: str) -> Path:
        return self.root / kind / f"{key}.{ext}"

    def list_keys(self, kind: str) -> list:
        """Keys of all persisted artifacts of one kind (best effort).

        Used by the serving layer's ``/v1/profiles`` inventory; a
        missing or unreadable kind directory is an empty store, not an
        error.
        """
        return sorted({
            stem for stem, ext in map(
                os.path.splitext, files.listing(self.root / kind)
            )
            if ext in _ARTIFACT_SUFFIXES
        })

    def _read(self, path: Path) -> Optional[bytes]:
        """Raw artifact bytes, or ``None`` (missing file = plain miss,
        I/O failure = counted miss).  ``store.read`` faults fire here,
        so injected I/O errors and bit flips hit every artifact kind.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            return FAULTS.fire("store.read", data)
        except FileNotFoundError:
            return None
        except OSError:
            self.counters.bump("io_errors")
            return None

    def _quarantine(self, path: Path, kind: str, reason: str) -> None:
        """Move a bad artifact to ``<root>/quarantine/<kind>/`` and count
        it under ``reason`` (``corrupt`` or ``schema_stale``).

        The load still reports a miss (the caller recomputes and
        re-saves, healing the cache), but the evidence is preserved
        and counted instead of being re-read — and re-mistrusted —
        forever (one that cannot be moved counts ``quarantine_failed``).
        """
        self.counters.corruption(reason)
        moved = files.quarantine(path, self.root / "quarantine" / kind)
        self.counters.bump("quarantined" if moved else "quarantine_failed")

    def _save(
        self, kind: str, key: str, ext: str, field: str, value: Any
    ) -> Path:
        """Publish ``value`` as ``field`` of a schema envelope (JSON for
        ``ext == "json"``, else pickle)."""
        path = self._path(kind, key, ext)
        envelope = {"schema": SCHEMA_VERSION, field: value}
        self._publish(path, (
            json.dumps(envelope).encode() if ext == "json"
            else pickle.dumps(envelope)
        ))
        return path

    def _load(
        self, kind: str, key: str, ext: str, field: str,
        decode: Callable[[Any], Any] = lambda value: value,
    ) -> Optional[Any]:
        """``decode(envelope[field])`` of a schema-checked envelope.

        A missing file is a plain miss; an envelope that does not
        parse, carries another schema or does not decode is
        quarantined, and an intact load breaks the corruption streak.
        """
        path = self._path(kind, key, ext)
        data = self._read(path)
        if data is None:
            return None
        try:
            envelope = (
                json.loads(data) if ext == "json" else pickle.loads(data)
            )
            if not isinstance(envelope, dict):
                raise ValueError("artifact envelope is not a mapping")
        except Exception:
            self._quarantine(path, kind, "corrupt")
            return None
        if envelope.get("schema") != SCHEMA_VERSION:
            self._quarantine(path, kind, "schema_stale")
            return None
        try:
            value = decode(envelope[field])
        except Exception:
            self._quarantine(path, kind, "corrupt")
            return None
        self.counters.healthy_load()
        return value

    def _write(self, path: Path, data: bytes) -> bool:
        """Publish ``data`` at ``path``; False when the write was dropped.

        A failed fsync still publishes and counts ``io_errors``; a failed
        publish raises when strict and counts ``dropped_writes`` when not.
        """
        try:
            durable = files.atomic_write(path, data)
        except OSError:
            if self.strict:
                raise
            self.counters.bump("dropped_writes")
            return False
        if not durable:
            self.counters.bump("io_errors")
        return True

    def _publish(self, path: Path, data: bytes) -> None:
        """:meth:`_write` an artifact and count it in ``writes``."""
        # Racy by nature: a publish over an existing artifact is another
        # writer's recompute, which the shared cache absorbs.
        duplicate = path.exists()
        if self._write(path, data):
            self.counters.bump("writes")
            if duplicate:
                self.counters.bump("duplicate_writes")

    # -- profiles and ILP tables (JSON) -------------------------------------

    def save_profile(self, key: str, profile: WorkloadProfile) -> Path:
        return self._save(
            "profiles", key, "json", "profile", profile.to_dict()
        )

    def load_profile(self, key: str) -> Optional[WorkloadProfile]:
        return self._load(
            "profiles", key, "json", "profile", WorkloadProfile.from_dict
        )

    def save_ilp_table(self, key: str, table: ILPTable) -> Path:
        """ILP tables are content-addressed by micro-trace sample digest."""
        return self._save("ilptables", key, "json", "table", table.to_dict())

    def load_ilp_table(self, key: str) -> Optional[ILPTable]:
        return self._load(
            "ilptables", key, "json", "table", ILPTable.from_dict
        )

    # -- traces (raw-buffer arena, mmap-loaded) -----------------------------

    def save_trace(self, key: str, trace: WorkloadTrace) -> Path:
        """Persist a trace in the raw-buffer arena layout.

        The arena is the only on-disk trace format: loads mmap it and
        build ``TraceBlock`` views straight over the mapping (no
        pickle copy on the hot read path).  The schema version and
        content digest travel in the arena's metadata header.
        """
        path = self._path("traces", key, "arena")
        payload = pack_trace_arena(trace, meta={
            "schema": SCHEMA_VERSION,
            "digest": trace.content_digest(),
        })
        self._publish(path, payload)
        return path

    def load_trace(self, key: str) -> Optional[WorkloadTrace]:
        """Zero-copy arena load: mmap + ``TraceBlock`` views over it.

        The mapping is read-only (``ACCESS_READ``), so every column
        comes out ``writeable=False`` — a consumer mutating a view
        raises instead of corrupting the mapping other processes
        share.  The digest check pages the columns in once but copies
        nothing; the mapping stays alive through the arrays' ``.base``
        chain after the file descriptor closes.
        """
        path = self._path("traces", key, "arena")
        try:
            with open(path, "rb") as fh:
                # Error-type ``store.read`` faults apply to this path
                # too (payload-mutation faults cannot touch a shared
                # read-only mapping and pass through).
                FAULTS.fire("store.read", b"")
                buf = mmap.mmap(
                    fh.fileno(), 0, access=mmap.ACCESS_READ
                )
        except FileNotFoundError:
            return None
        except OSError:
            self.counters.bump("io_errors")
            return None
        except ValueError:  # zero-length file cannot be mapped
            self._quarantine(path, "traces", "corrupt")
            return None
        try:
            meta, trace = load_trace_arena(buf)
            if meta.get("schema") != SCHEMA_VERSION:
                self._quarantine(path, "traces", "schema_stale")
                return None
            trace.validate()
            if trace.content_digest() != meta.get("digest"):
                raise ValueError("trace content digest mismatch")
        except Exception:
            self._quarantine(path, "traces", "corrupt")
            return None
        self.counters.healthy_load()
        return trace

    # -- predictions / simulations (pickle) ---------------------------------

    def save_result(self, kind: str, key: str, result: Any) -> Path:
        return self._save(kind, key, "pkl", "result", result)

    def load_result(self, kind: str, key: str) -> Optional[Any]:
        return self._load(kind, key, "pkl", "result")

    # -- inventory / garbage collection -------------------------------------

    def kinds(self) -> list:
        """Artifact kinds present under the store root.

        ``quarantine`` (bad-artifact evidence), ``queue`` (work-queue
        coordination state) and ``fleet`` (serving-fleet heartbeats)
        are not artifact kinds — they are excluded here and reported
        separately by :meth:`stats` / :meth:`health`.
        """
        return [
            name for name in files.listing(self.root, dirs=True)
            if name not in _NON_ARTIFACT_DIRS
        ]

    def _quarantine_dirs(self) -> List[Path]:
        qroot = self.root / "quarantine"
        return [qroot / name for name in files.listing(qroot, dirs=True)]

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind artifact counts and byte totals (best effort).

        Quarantined artifacts appear as ``quarantine/<kind>`` entries
        so a rotting cache is visible from ``repro store stats``;
        work-queue state (jobs, leases, done markers) appears as
        ``queue/<sub>`` entries and fleet heartbeats as ``fleet`` so
        coordination debris is just as visible.
        """
        out: Dict[str, Dict[str, int]] = {}
        for kind in self.kinds():
            out[kind] = _tally([
                path for path in files.paths(self.root / kind)
                if path.suffix in _ARTIFACT_SUFFIXES
            ])
        for qdir in self._quarantine_dirs():
            out[f"quarantine/{qdir.name}"] = _tally(files.paths(qdir))
        for name in (
            "queue/jobs", "queue/leases", "queue/done", "queue/events",
            "fleet",
        ):
            if (self.root / name).is_dir():
                out[name] = _tally(files.paths(self.root / name))
        return out

    def health(self) -> Dict[str, Any]:
        """Counter snapshot + quarantine inventory for ``/healthz``.

        Lists only the quarantine tree, so its cost does not grow with
        the number of stored artifacts.
        """
        out: Dict[str, Any] = self.counters.snapshot()
        out["generation"] = self.generation()
        out["quarantine"] = {
            qdir.name: len(files.listing(qdir))
            for qdir in self._quarantine_dirs()
        }
        return out

    # -- generation stamp ---------------------------------------------------

    def generation(self) -> int:
        """The store's current generation stamp (0 when unstamped)."""
        try:
            raw = (self.root / GENERATION_FILE).read_text().strip()
            return int(raw) if raw else 0
        except (OSError, ValueError):
            return 0

    def bump_generation(self) -> int:
        """Advance the generation stamp (atomic temp-file + rename).

        Called when persisted artifacts change under resident caches
        (a prune, an out-of-band store rewrite): engines polling
        :meth:`generation` drop their LRUs on the next check.  A lost
        increment under a concurrent bump is harmless — consumers
        compare for inequality, and any successful bump changes the
        value they saw.
        """
        gen = self.generation() + 1
        self._write(self.root / GENERATION_FILE, str(gen).encode())
        return gen

    def _artifact_schema(self, path: Path) -> Optional[int]:
        """Embedded schema of one artifact; None when unreadable."""
        try:
            with open(path, "rb") as fh:
                if path.suffix == ".arena":
                    if fh.read(len(ARENA_MAGIC)) != ARENA_MAGIC:
                        return None
                    (hlen,) = struct.unpack("<Q", fh.read(8))
                    header = pickle.loads(fh.read(hlen))
                    payload = header.get("meta", {})
                elif path.suffix == ".json":
                    payload = json.load(fh)
                else:
                    payload = pickle.load(fh)
            schema = payload.get("schema")
            return schema if isinstance(schema, int) else None
        except Exception:
            return None

    def prune(
        self,
        kinds: Optional[list] = None,
        older_than_s: Optional[float] = None,
        stale_only: bool = False,
        dry_run: bool = False,
    ) -> Dict[str, Dict[str, int]]:
        """Garbage-collect artifacts; returns per-kind removal stats.

        ``kinds`` restricts the sweep (default: every kind present;
        pass ``"quarantine"`` explicitly to empty the quarantine tree
        — the default sweep preserves it as evidence — and ``"queue"``
        to sweep aged work-queue debris, see :meth:`prune_queue`).
        ``older_than_s`` keeps artifacts younger than the cutoff;
        ``stale_only`` removes only artifacts whose embedded schema is
        not the current :data:`SCHEMA_VERSION` (or that cannot be read
        at all) — the entries every load already treats as misses.
        ``dry_run`` reports what would be removed without unlinking.

        Orphaned ``*.tmp`` files left behind by crashed writers are
        swept from every visited kind regardless of ``stale_only`` —
        they are unreachable debris by construction — but only once
        older than :data:`repro.files.TMP_MIN_AGE_S`, so a live writer
        between its temp write and its rename keeps its temp.  The
        whole sweep tolerates concurrent writers: a file vanishing
        between the listing and its ``stat()``/``unlink()`` is
        skipped, not an error.

        A sweep that actually removed artifacts bumps the store
        generation (see :meth:`bump_generation`), so resident engine
        LRUs across the fleet drop entries derived from the pruned
        artifacts on their next generation check.
        """
        out: Dict[str, Dict[str, int]] = {}
        for kind in kinds if kinds is not None else self.kinds():
            if kind == "quarantine":
                out[kind] = files.sweep([
                    path for qdir in self._quarantine_dirs()
                    for path in files.paths(qdir)
                ], older_than_s, dry_run)
            elif kind == "queue":
                out.update(self.prune_queue(
                    older_than_s=older_than_s, dry_run=dry_run
                ))
            else:
                out[kind] = files.sweep([
                    path for path in files.paths(self.root / kind)
                    if path.name.endswith(".tmp") or (
                        path.suffix in _ARTIFACT_SUFFIXES and not (
                            stale_only and self._artifact_schema(path)
                            == SCHEMA_VERSION
                        )
                    )
                ], older_than_s, dry_run)
        # Queue debris is coordination state, not artifacts — sweeping
        # it invalidates nothing resident.
        if not dry_run and any(
            entry["removed"] for kind, entry in out.items()
            if not kind.startswith("queue/")
        ):
            self.bump_generation()
        return out

    def prune_queue(
        self,
        older_than_s: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict[str, Dict[str, int]]:
        """Sweep aged work-queue debris under ``<root>/queue/``.

        Two classes of debris accumulate under a long-lived queue:

        * **aged done markers** (``done/<key>.json``) — the
          exactly-once dedup record; safe to drop once old enough that
          nothing will re-enqueue the job (a re-run then simply
          recomputes into the content-addressed store);
        * **orphaned leases** (``leases/<key>.lease``) — left behind
          when a worker died after its job file was consumed (or the
          job was completed by a successor): a lease with *no matching
          job file* can never be released by the normal protocol, nor
          can a ``<key>.steal-<pid>-<seq>`` whose stealer died between
          renaming an expired lease to it and unlinking it.

        Both sweeps honor ``older_than_s`` as an age guard; orphaned
        leases additionally require being older than one default lease
        period, so a claim racing this sweep (job unlinked between our
        two scans) is never swept.  Plain filesystem logic — no
        dependency on :mod:`repro.experiments.workqueue`, which
        imports back into this module's consumers.
        """
        qroot = self.root / "queue"
        out: Dict[str, Dict[str, int]] = {}
        out["queue/done"] = files.sweep(
            files.paths(qroot / "done", "*.json"), older_than_s or 0.0,
            dry_run,
        )
        # Orphaned leases: no pending job file shares the lease's key.
        # Job files are named ``p<priority>-<key>.json``.
        job_keys = {
            path.stem.split("-", 1)[1]
            for path in files.paths(qroot / "jobs", "*.json")
            if "-" in path.stem
        }
        # Never race an in-flight claim: a just-acquired lease whose
        # job file we happened to miss must age past a full lease
        # period (plus the caller's cutoff) before it is debris.
        out["queue/leases"] = files.sweep([
            path for path in files.paths(qroot / "leases")
            if ".steal-" in path.name
            or path.name.endswith(".lease") and path.stem not in job_keys
        ], max(older_than_s or 0.0, 60.0), dry_run)
        # Crashed enqueuers' temps (``*.tmp-<owner>-<pid>`` from older
        # builds), behind the sweep's temp guard.
        out["queue/tmp"] = files.sweep([
            path for sub in ("jobs", "leases", "done", "events")
            for path in files.paths(qroot / sub, "*.tmp*")
        ], older_than_s, dry_run)
        return out


#: Traces a :class:`TraceCache` keeps resident, and the size above which
#: an expanded trace stays in memory only: a guard against unbounded
#: store growth from huge one-off scales (``repro store prune``
#: reclaims what does get persisted).
MAX_TRACES = 64
MAX_PERSIST_BYTES = 64 << 20


class TraceCache:
    """Content-addressed, byte-bounded LRU over expanded traces.

    The trace analogue of the ILP table cache: resolution is
    in-process LRU -> on-disk ``"traces"`` store kind -> the columnar
    expansion engine (:mod:`repro.workloads.engine`), with
    write-through persistence for engine-expanded traces when a store
    is attached.  Keys are :meth:`ProfileStore.trace_key` fingerprints
    of the full workload spec, so every layer — the profiler, the
    bench harness, the experiment pipeline, the simulator and the
    serving engine — agrees on trace identity and re-pays expansion at
    most once per distinct ``(spec, seed, scale)`` per process (and,
    with a store, per machine).

    Thread-safe.  Concurrent misses on the same key may expand twice;
    both expansions are bit-identical, so last-writer-wins is sound.
    """

    def __init__(
        self,
        store: Optional[ProfileStore] = None,
        max_bytes: int = 512 << 20,
        engine: Optional[ExpansionEngine] = None,
    ) -> None:
        self.store = store
        self.engine = engine if engine is not None else default_engine()
        self._lru = LRUCache(
            MAX_TRACES, max_bytes, counters=("store_hits", "store_saves")
        )

    @staticmethod
    def key(spec: WorkloadSpec) -> str:
        """Content address of ``spec``, memoized on the spec object.

        Fingerprinting a suite-sized spec (hundreds of nested segment
        plans, ~97 KB of canonical JSON) costs 1.4-1.9 ms on a 2-vCPU
        host, about a thousand warm cache hits, so the fingerprint is
        computed once per spec object.  Specs are treated as immutable
        everywhere once built; mutating one after its first cache
        lookup would poison its content address.
        """
        key = getattr(spec, "_trace_key", None)
        if key is None:
            key = ProfileStore.trace_key(spec)
            try:
                spec._trace_key = key
            except AttributeError:  # exotic spec types without __dict__
                pass
        return key

    def get(self, spec: WorkloadSpec) -> WorkloadTrace:
        """The expanded trace of ``spec`` (LRU -> store -> engine)."""
        key = self.key(spec)
        trace = self._lru.get(key)
        if trace is not None:
            return trace
        if self.store is not None:
            trace = self.store.load_trace(key)
        if trace is not None:
            self._lru.count("store_hits")
        else:
            trace = self.engine.expand(spec)
            if self.store is not None and trace.nbytes <= MAX_PERSIST_BYTES:
                self.store.save_trace(key, trace)
                self._lru.count("store_saves")
        self._lru.put(key, trace)
        return trace

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> Dict[str, int]:
        return self._lru.stats()
