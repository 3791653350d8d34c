"""CSV cache for computed laws.

One law per file: a header line (kind, parameters) followed by
(index, probability) rows.  Every number is printed with the fewest
digits that read back to the same 80-bit value, so a loaded law equals
the law that was saved, bit for bit.  Files are keyed by (lmax, kmax),
which fix the law and its error bound, so a cache hit reproduces the run
that wrote it byte for byte; a file whose header holds another key is
refused, and a file in a former format is rebuilt.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .return_laws import LONG, ReturnPositionLaw, return_position_law

FORMAT_VERSION = "recwalk-law-4"
#: version 1 printed 18 digits, too few to read back exactly, version 2
#: repeated the error bound as a third header field, and version 3 stored
#: the error bound and the k-tail flag, which kmax alone fixes; a lookup
#: rebuilds such a file, and load_position_law refuses it
FORMER_VERSIONS = ("recwalk-law-1", "recwalk-law-2", "recwalk-law-3")


class CacheCorruptionError(ValueError):
    """A cache file that cannot be read; the CLI reports it as a usage error."""


def _fmt(x) -> str:
    return np.format_float_scientific(LONG(x), unique=True)


def position_law_path(cache_dir, lmax: int, kmax: int) -> Path:
    return Path(cache_dir) / f"return_position_L{lmax}_K{kmax}.csv"


def save_position_law(law: ReturnPositionLaw, cache_dir) -> Path:
    """Write the law to its cache file and return the file's path.

    The rows go to a temporary file in the same directory, which then
    replaces the cache file in one step, so an interrupted write never
    leaves a partial file behind for the next lookup to read.
    """
    path = position_law_path(cache_dir, law.hi, law.kmax)
    path.parent.mkdir(parents=True, exist_ok=True)
    param = f"lmax={law.hi};kmax={law.kmax};tail={_fmt(law.leaked)};v={FORMAT_VERSION}"
    lines = [f"return-position,{param}"]
    for t, p in enumerate(law.entries[law.hi // 2 :]):  # l >= 0; the law is symmetric
        lines.append(f"{2 * t},{_fmt(p)}")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_position_law(path) -> ReturnPositionLaw:
    """Read a cache file, whose rows must be l = 0, 2, ..., lmax in order and,
    like the tail mass, finite and >= 0, and mirror them onto -lmax..lmax."""
    path = Path(path)
    try:
        lines = path.read_text().strip().splitlines()
        kind, param = lines[0].split(",")
        if kind != "return-position":
            raise ValueError(f"unexpected law kind {kind!r}")
        fields = dict(kv.split("=", 1) for kv in param.split(";"))
        if fields.get("v") != FORMAT_VERSION:
            raise ValueError(f"unknown format version {fields.get('v')!r}")
        lmax, kmax = int(fields["lmax"]), int(fields["kmax"])
        half = np.empty(lmax // 2 + 1, dtype=LONG)
        if len(lines) - 1 != len(half):
            raise ValueError(f"expected {len(half)} rows, found {len(lines) - 1}")
        for t, line in enumerate(lines[1:]):
            idx, prob = line.split(",")
            if int(idx) != 2 * t:
                raise ValueError(f"row {t + 1} is l = {idx}, expected l = {2 * t}")
            half[t] = LONG(prob)
        masses = np.append(half, LONG(fields["tail"]))
        if not np.all((masses >= 0) & (masses < np.inf)):  # a nan fails both
            raise ValueError("an entry or the tail mass is not finite and >= 0")
        return ReturnPositionLaw(
            -lmax, np.concatenate((half[:0:-1], half)), float(masses[-1]), kmax=kmax
        )
    except (ValueError, KeyError, IndexError) as exc:
        raise _corrupted(path, exc) from exc


def _corrupted(path, reason) -> CacheCorruptionError:
    return CacheCorruptionError(
        f"law cache {path} is corrupted ({reason}); delete the file and rerun"
    )


def load_or_compute_position_law(cache_dir, lmax: int, kmax: int) -> tuple[ReturnPositionLaw, bool]:
    """Return (law, cache_hit).

    A freshly computed law is written to the cache and returned as built:
    the file reads back to the same law, so downstream output is
    byte-identical whether or not the cache was warm.
    """
    path = position_law_path(cache_dir, lmax, kmax)
    if path.exists() and not _in_former_format(path):
        law = load_position_law(path)
        if (law.hi, law.kmax) != (lmax, kmax):  # a file stored under another key
            raise _corrupted(path, f"it holds lmax={law.hi}, kmax={law.kmax}")
        return law, True
    law = return_position_law(lmax, kmax)
    save_position_law(law, cache_dir)  # replaces a file in a former format
    return law, False


def _in_former_format(path: Path) -> bool:
    """Whether the header declares a former version, read before the header
    is unpacked: versions 1 and 2 put a third comma field after `v=`."""
    with open(path, errors="replace") as f:  # undecodable bytes are for load_position_law
        fields = f.readline().strip().replace(",", ";").split(";")
    return any(f"v={version}" in fields for version in FORMER_VERSIONS)
