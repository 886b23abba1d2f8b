"""One filesystem layer under the store root.

The artifact store, the work queue and the fleet's heartbeats write,
list, sweep and quarantine their files only through here.  Callers
keep their own counters and strict or lenient policy: this module
raises or reports and counts nothing.  The ``store.write`` fault point
fires before every atomic write, ``store.crash`` between its temp
write and its rename (:mod:`repro.testing.faults`).
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import time
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.testing.faults import FAULTS, SimulatedCrash

#: Age below which :func:`sweep` leaves a temp file (``*.tmp*``) alone,
#: whatever cutoff its caller passed: a writer between its temp write
#: and its rename must never lose the temp, or its rename fails.
TMP_MIN_AGE_S = 60.0


def atomic_write(path: Path, data: bytes) -> bool:
    """Publish ``data`` at ``path`` (temp file, fsync, rename, directory
    fsync); False when an fsync failed, which still publishes the file.

    ``OSError`` means nothing was published and the temp file is gone;
    a ``SimulatedCrash`` at ``store.crash`` leaves the temp behind, as
    a real crash would, for :func:`sweep`.
    """
    data = FAULTS.fire("store.write", data)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            # Without the fsync a power loss after the rename can
            # surface a zero-length or torn file at the final path.
            fh.flush()
            durable = _fsync(fh.fileno())
        FAULTS.fire("store.crash")
        os.replace(tmp, path)
    except SimulatedCrash:
        raise  # a real crash runs no cleanup
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    # The rename lives in the directory entry: without this a power
    # loss can forget the publication of a file whose bytes are safe.
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
        return durable
    try:
        fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        return _fsync(fd) and durable
    finally:
        os.close(fd)


def _fsync(fd: int) -> bool:
    try:
        os.fsync(fd)
    except OSError:
        return False
    return True


def listing(
    directory: Path, pattern: str = "*", dirs: bool = False
) -> List[str]:
    """Sorted names of the regular files (the subdirectories with
    ``dirs``) in ``directory`` that match the glob ``pattern``, typed by
    ``os.scandir`` without a ``stat()`` each.  A missing or unreadable
    directory lists empty.
    """
    try:
        with os.scandir(directory) as scan:
            entries = list(scan)
    except OSError:
        return []
    out = []
    for entry in entries:
        if pattern != "*" and not fnmatchcase(entry.name, pattern):
            continue
        try:
            if entry.is_dir() if dirs else entry.is_file():
                out.append(entry.name)
        except OSError:
            continue
    out.sort()
    return out


def paths(directory: Path, pattern: str = "*") -> List[Path]:
    """:func:`listing`'s files as paths."""
    return [directory / name for name in listing(directory, pattern)]


def stat_each(paths: List[Path]) -> List[Tuple[Path, os.stat_result]]:
    """``(path, stat)`` of each file still there to ``stat()``."""
    out = []
    for path in paths:
        try:
            out.append((path, path.stat()))
        except OSError:
            continue
    return out


def sweep(
    paths: List[Path], min_age_s: Optional[float] = None,
    dry_run: bool = False,
) -> Dict[str, int]:
    """Unlink each file at least ``min_age_s`` old (``None``: any age;
    a temp file only once :data:`TMP_MIN_AGE_S` old) and count what
    went; ``dry_run`` counts without unlinking.

    A file unlinked by someone else after the listing, before its
    ``stat()`` or its ``unlink()``, is skipped and not counted.
    """
    now = time.time()
    removed = nbytes = 0
    for path, st in stat_each(paths):
        age = now - st.st_mtime
        if (min_age_s is not None and age < min_age_s) or (
            ".tmp" in path.name and age < TMP_MIN_AGE_S
        ):
            continue
        if not dry_run:
            try:
                path.unlink()
            except OSError:
                continue
        removed += 1
        nbytes += st.st_size
    return {"removed": removed, "bytes": nbytes}


def quarantine(path: Path, directory: Path) -> Optional[bool]:
    """Move an untrusted file into ``directory``: True when moved, False
    when it could only be unlinked, None when it is still in place.

    Moved or unlinked, the file leaves its reader's view: a poisoned
    artifact is not re-read on every load, and a job no worker can
    parse does not stay pending.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
        os.replace(path, directory / path.name)
        return True
    except OSError:
        pass
    try:
        path.unlink()
    except OSError:
        return None
    return False
