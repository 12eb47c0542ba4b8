"""Shared plumbing: the config error, stateless seeded RNG derivation,
atomic file writes, the usable-core count."""

from __future__ import annotations

import hashlib
import os
import uuid

import numpy as np


class ConfigError(ValueError):
    """A config value or flag the run cannot use; the CLI exits 2 on it."""


def seeded_rng(*keys) -> np.random.Generator:
    """Derive an independent PCG64 generator from a tuple of ints/strings.

    Stateless by construction: the same key tuple always yields the same
    stream, so training loops can re-derive per-step randomness after a
    resume instead of persisting generator state.
    """
    h = hashlib.sha256()
    for k in keys:
        if isinstance(k, (int, np.integer)):
            h.update(b"i" + int(k).to_bytes(16, "little", signed=True))
        elif isinstance(k, str):
            h.update(b"s" + k.encode("utf-8"))
        else:
            raise TypeError(f"rng key must be int or str, got {type(k)!r}")
        h.update(b"\x00")
    digest = h.digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def atomic_write(path: str, data: bytes | str) -> None:
    """Write data (str as UTF-8) to a temporary file beside path, then rename
    it over path, so a reader never sees a partial file.  The directory of
    path is created if missing.  The file gets the mode open() would give it:
    0666 less the umask."""
    blob = data.encode("utf-8") if isinstance(data, str) else data
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # not tempfile.mkstemp, whose mode 0600 ignores the umask
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form; keeps metrics CSVs bitwise reproducible."""
    return repr(float(x))


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the OS has one,
    else the CPU count.  A chunked decode and the SFT helper thread each need
    two."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
