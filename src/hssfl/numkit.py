"""Float64 matrix validation, array files, the CSV matrix codec for dataset
files, and splittable, counter-based random streams.

Matrices are plain 2-D ``numpy.ndarray`` values in row-major float64;
``as_matrix`` validates shapes and finiteness where values enter, and
``check_finite`` raises ``NumericalFailureError`` on a computed result that
is not finite. Randomness is organized as value-like streams: a
:class:`RngStream` is an immutable key (master seed plus client/round/epoch/
purpose coordinates) from which a fresh counter-based generator is derived on
every use, so identical keys always reproduce identical sequences no matter
how many workers run concurrently or in what order.

Model files and checkpoints go through ``save_arrays``/``load_arrays`` (one
``.npz`` file each). The CSV codec serves dataset files only:
``save_matrix_csv`` and ``load_matrix_csv`` write and read them a row at a
time, through the one row formatter and parser that ``matrix_to_csv`` and
``matrix_from_csv`` use for text in memory.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import numbers
import os
import zipfile
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, NumericalFailureError, ParseError, ShapeError

Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a finite, 2-D float64 array; raise ShapeError otherwise."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeError(f"{name} contains non-finite entries")
    return m


def check_finite(m: Matrix, name: str = "result") -> Matrix:
    """m itself; a computed result with NaN/Inf raises NumericalFailureError.
    A Python float is tested without a trip through numpy."""
    if not (math.isfinite(m) if isinstance(m, float) else np.isfinite(m).all()):
        raise NumericalFailureError(name)
    return m


def as_int(value, name: str) -> int:
    """value as an int. An integral float becomes its int; a bool, a
    non-integral number or a non-number raises ConfigError."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and float(value).is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Immutable key for a counter-based random stream.

    The stream identity is ``(master_seed, client, round, epoch, purpose)``.
    Deriving a generator hashes the full key, so distinct keys yield
    statistically independent streams and the same key always yields the
    same sequence. Streams are values: pass them around freely, no state
    is consumed by use.
    """

    master_seed: int
    client: int = 0
    round: int = 0
    epoch: int = 0
    purpose: str = ""

    def child(self, **coords) -> "RngStream":
        """Derived stream with some coordinates replaced."""
        return replace(self, **coords)

    def with_purpose(self, purpose: str) -> "RngStream":
        return replace(self, purpose=purpose)

    def sub(self, tag: str) -> "RngStream":
        """Independent sub-stream scoped under the current purpose."""
        return RngStream(self.master_seed, self.client, self.round, self.epoch,
                         f"{self.purpose}/{tag}")

    def _key(self) -> int:
        raw = f"{self.master_seed}|{self.client}|{self.round}|{self.epoch}|{self.purpose}"
        digest = hashlib.sha256(raw.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "little")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this key; repeated calls restart the sequence.

        The state equals ``Philox(key=self._key())``'s; handing the key over
        as a seed sequence skips the OS-entropy ``SeedSequence`` that
        ``Philox(key=...)`` builds and then ignores."""
        return np.random.Generator(np.random.Philox(_PhiloxKey(self._key())))


class _PhiloxKey(ISeedSequence):
    """A fixed 128-bit Philox key posing as a seed sequence: Philox asks for
    two uint64 words and uses them, low word first, as its key."""

    __slots__ = ("words",)

    def __init__(self, key: int):
        self.words = np.array([key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return self.words


def _csv_lines(m: Matrix) -> Iterator[str]:
    """The lines of m's CSV text, one row per line, each ending in a newline:
    comma-separated, shortest round-trip floats, so parsing is exact. A
    matrix with no rows is one empty line."""
    if not len(m):
        yield "\n"
    for row in m:
        yield ",".join(map(repr, row.tolist())) + "\n"


def _parse_csv(lines: Iterable[str], text: Callable[[], str]) -> Matrix:
    """The matrix in the non-blank ``lines``, parsed by np.loadtxt. A
    ParseError names the 1-based line of a bad row, blank lines counted;
    loadtxt counts data rows instead, so only on failure is that line found
    by a scan of the whole ``text()``."""
    rows = (line for line in lines if line.strip())
    first = next(rows, None)
    if first is None:
        raise ParseError("no rows found")
    try:
        table = np.loadtxt(itertools.chain((first,), rows), dtype=np.float64,
                           delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        _raise_at_bad_line(text())
        # a cell float() reads but loadtxt does not, such as 1_000
        raise ParseError(f"unreadable cell ({exc})") from None
    return as_matrix(table)


def matrix_to_csv(m: Matrix) -> str:
    """One row per line, comma-separated, '.'-decimal, no header.

    Uses shortest round-trip float formatting so serialize/parse is exact.
    """
    return "".join(_csv_lines(as_matrix(m)))


def matrix_from_csv(text: str) -> Matrix:
    """The matrix ``matrix_to_csv`` wrote; blank lines are skipped."""
    return _parse_csv(text.splitlines(), lambda: text)


def _raise_at_bad_line(text: str) -> None:
    """A ParseError at the first line with a cell float() cannot read or a
    width other than the first row's; nothing if there is none."""
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            for c in cells:
                float(c)
        except ValueError as exc:
            raise ParseError(f"non-numeric cell ({exc})", line=lineno) from None
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError(
                f"expected {width} columns, got {len(cells)}", line=lineno
            )


def save_matrix_csv(m: Matrix, path) -> None:
    """The bytes of ``matrix_to_csv(m)``, written a row at a time; a matrix
    that is not finite raises before the file is opened."""
    m = as_matrix(m)
    with io.open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_lines(m))


def load_matrix_csv(path) -> Matrix:
    """The matrix ``save_matrix_csv`` wrote, read a line at a time; the text
    is read whole again only to name a bad line."""
    with io.open(path, "r", encoding="utf-8") as fh:
        def text() -> str:
            fh.seek(0)
            return fh.read()
        return _parse_csv(fh, text)


_META = "meta"


def save_arrays(path: str, arrays: Mapping[str, np.ndarray], meta: dict) -> None:
    """Named tensors plus a JSON ``meta`` entry in one ``.npz`` file, written
    to ``path + ".tmp"`` and published by one atomic rename, so a reader sees
    the old file or the new one, never a mix. Equal inputs give equal bytes."""
    with open(path + ".tmp", "wb") as fh:
        np.savez(fh, **{_META: np.array(json.dumps(meta, sort_keys=True))}, **arrays)
    os.replace(path + ".tmp", path)


def load_arrays(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` as ``save_arrays`` wrote them; nothing is unpickled
    and a tensor that is not finite float64 is rejected."""
    try:
        # np.load is handed an open file: given a path, it leaks the handle
        # when the zip is torn
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays.pop(_META)))
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except (KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ParseError(f"{path} is not an array file ({exc!r})") from None
    for name, a in arrays.items():
        if a.dtype != np.float64 or not np.all(np.isfinite(a)):
            raise ParseError(f"{path}: entry {name!r} is not finite float64")
    return meta, arrays
