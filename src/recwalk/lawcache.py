"""Binary cache for computed laws.

One law per `.npy` file, one 1-D float64 array [kmax, leaked, P(0), P(2),
..., P(lmax), crc] written by `np.save`, crc the `zlib.crc32` of the bytes
before it; a loaded law equals the saved law, bit for bit.  Files are
keyed by (lmax, kmax), which fix the law and its error bound, so a cache
hit reproduces the run that wrote it byte for byte; a file that holds
another key, anything but such an array, or a wrong crc, is refused.  The
name carries `f64`, so the 80-bit files of former versions, named without
it, are never opened.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

import numpy as np

from .return_laws import ReturnPositionLaw, return_position_law


class CacheCorruptionError(ValueError):
    """A cache file that cannot be read; the CLI reports it as a usage error."""


def position_law_path(cache_dir, lmax: int, kmax: int) -> Path:
    return Path(cache_dir) / f"return_position_L{lmax}_K{kmax}_f64.npy"


def save_position_law(law: ReturnPositionLaw, cache_dir) -> Path:
    """Write the law to its cache file and return the file's path.

    The array goes to a temporary file in the same directory, which then
    replaces the cache file in one step, so an interrupted write never
    leaves a partial file behind for the next lookup to read.
    """
    path = position_law_path(cache_dir, law.hi, law.kmax)
    path.parent.mkdir(parents=True, exist_ok=True)
    # l >= 0 only: the law is symmetric
    stored = np.concatenate(([law.kmax, law.leaked], law.entries[law.hi // 2 :], [0.0]))
    stored[-1] = zlib.crc32(stored[:-1])  # exact: below 2^32
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:  # a file object: np.save would append .npy to a name
            np.save(f, stored, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_position_law(path) -> ReturnPositionLaw:
    """Read a cache file, a 1-D float64 array of 4 entries or more, kmax an
    integer below 2^53, the rest in [0, 1], then their crc; mirror P(0..lmax)
    onto -lmax..lmax.  The file is mapped, so a header that claims more
    entries than the file holds is refused before anything is allocated."""
    try:
        stored = np.load(path, mmap_mode="r", allow_pickle=False)
        if stored.dtype != np.float64 or stored.ndim != 1 or len(stored) < 4:
            raise ValueError("not a 1-D float64 array of 4 entries or more")
        kmax, masses = stored[0], np.array(stored[1:-1])
        if not (0 <= kmax < 2**53 and kmax == np.floor(kmax)):  # a nan fails
            raise ValueError(f"kmax {kmax} is not an integer in [0, 2^53)")
        if not np.all((masses >= 0) & (masses <= 1)):
            raise ValueError("an entry or the leaked mass is not in [0, 1]")
        if zlib.crc32(stored[:-1]) != stored[-1]:
            raise ValueError("the entries do not match their checksum")
    except OSError:
        raise  # not the file's content: the CLI reports an unusable --cache-dir
    except Exception as exc:  # numpy's header parser raises ValueError, EOFError, SyntaxError, ...
        raise _corrupted(path, exc) from exc
    half = masses[1:]
    lmax = 2 * (len(half) - 1)
    return ReturnPositionLaw(
        -lmax, np.concatenate((half[:0:-1], half)), float(masses[0]), kmax=int(kmax)
    )


def _corrupted(path, reason) -> CacheCorruptionError:
    return CacheCorruptionError(
        f"law cache {path} is corrupted ({reason}); delete the file and rerun"
    )


def load_or_compute_position_law(cache_dir, lmax: int, kmax: int) -> tuple[ReturnPositionLaw, bool]:
    """Return (law, cache_hit).

    A freshly computed law is returned as built and not saved: the caller
    saves it once it has accepted it, and the file reads back to the same
    law, so downstream output is byte-identical whether or not the cache
    was warm.
    """
    path = position_law_path(cache_dir, lmax, kmax)
    if path.exists():
        law = load_position_law(path)
        if (law.hi, law.kmax) != (lmax, kmax):  # a file stored under another key
            raise _corrupted(path, f"it holds lmax={law.hi}, kmax={law.kmax}")
        return law, True
    return return_position_law(lmax, kmax), False
