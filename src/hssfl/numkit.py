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

``decode_npy`` is the one npy decoder, of wire payloads and of array files.
Model files and checkpoints go through ``save_arrays``/``load_arrays``: one
``.npz`` each, an index and one packed float64 vector. Only dataset files are
CSV, written and read a row at a time (``save_matrix_csv``,
``load_matrix_csv``) through the row formatter and parser that
``matrix_to_csv`` and ``matrix_from_csv`` use for text in memory.
``one_blas_thread`` holds the loaded OpenBLAS to one thread for a block.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple

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


def all_finite(m: np.ndarray) -> bool:
    """Whether no entry of m is NaN or infinite: ``np.isfinite(m).all()``
    without the Python wrapper of ``all``, about 1 µs less a call, which a
    training step makes several times."""
    return bool(np.logical_and.reduce(np.isfinite(m), axis=None))


def check_finite(m: Matrix, name: str = "result") -> Matrix:
    """m itself; a computed result with NaN/Inf raises NumericalFailureError.
    A Python float is tested without a trip through numpy."""
    if not (math.isfinite(m) if isinstance(m, float) else all_finite(m)):
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
        ``Philox(key=...)`` builds and then ignores, and the zero counter
        given as words skips its conversion from an int."""
        return np.random.Generator(np.random.Philox(_PhiloxKey(self._key()),
                                                    counter=_ZERO_COUNTER))


_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox copies it, never writes it


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


_MEMBERS = ["index.npy", "data.npy"]


def decode_npy(buf, shape: Optional[Tuple[int, ...]] = None, descr: str = "<f8") -> np.ndarray:
    """A view of the C-order ``descr`` array of ``shape`` (None: a vector of
    any length) that np.save wrote into the bytes-like ``buf``, whose npy 1.0
    header must be np.save's; a ValueError says what differs. np.load parses
    headers with ast.literal_eval, which is not thread-safe on CPython 3.11."""
    hlen = int.from_bytes(buf[8:10], "little")
    header = bytes(buf[10:10 + hlen]).decode("latin1").rstrip()
    dtype = np.dtype(descr)
    if shape is None:
        shape = ((len(buf) - 10 - hlen) // dtype.itemsize,)
    if (bytes(buf[:8]) != b"\x93NUMPY\x01\x00"
            or header != f"{{'descr': '{descr}', 'fortran_order': False, 'shape': {shape!r}, }}"):
        raise ValueError(f"is not a {dtype} array of shape {shape}: {header!r}")
    data = np.frombuffer(buf, dtype, offset=10 + hlen)
    if data.size != math.prod(shape):
        raise ValueError(f"holds {data.size} numbers, not the {math.prod(shape)} of shape {shape}")
    return data.reshape(shape)


def save_arrays(path: str, arrays: Mapping[str, np.ndarray], meta: dict) -> None:
    """Float64 tensors and JSON ``meta`` in one ``.npz`` of two members:
    ``index`` (the JSON of meta and each tensor's name and shape, in order)
    and ``data`` (every tensor raveled, in that order, in one float64 vector),
    published by one atomic rename, so a reader sees the old file or the new
    one, never a mix. Equal inputs give equal bytes."""
    index = {"meta": meta, "entries": [[name, list(np.shape(a))] for name, a in arrays.items()]}
    data = np.concatenate([np.zeros(0), *map(np.ravel, arrays.values())], casting="no")
    with open(path + ".tmp", "wb") as fh:
        np.savez(fh, index=np.frombuffer(json.dumps(index, sort_keys=True).encode(), np.uint8),
                 data=data)
    os.replace(path + ".tmp", path)


def load_arrays(path: str) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(meta, arrays)`` as ``save_arrays`` wrote them, views of the data
    vector, both members read by ``decode_npy`` (nothing is unpickled). Any
    other file, one member per tensor as earlier layouts wrote included, an
    index that does not fit the data, a meta that is not a JSON object or a
    non-finite tensor raises ParseError."""
    try:
        with zipfile.ZipFile(path) as zf:
            if zf.namelist() != _MEMBERS:
                raise ParseError(f"{path} is not a packed array file of members {_MEMBERS}")
            index, data = map(zf.read, _MEMBERS)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}") from None
    except (zipfile.BadZipFile, EOFError, OSError) as exc:
        raise ParseError(f"{path} is not an array file ({exc!r})") from None
    try:
        index, data = json.loads(decode_npy(index, descr="|u1").tobytes()), decode_npy(data)
        meta, arrays, end = index["meta"], {}, 0
        for name, shape in index["entries"]:
            start, end = end, end + math.prod(shape)
            arrays[name] = data[start:end].reshape(shape)
        if end != data.size or len(arrays) != len(index["entries"]):
            raise ValueError(f"{len(index['entries'])} entries of {end} numbers")
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path} is not an index and its float64 data ({exc})") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: meta is {json.dumps(meta)[:40]}, not a JSON object")
    if not np.isfinite(data).all():
        bad = next(name for name, a in arrays.items() if not np.isfinite(a).all())
        raise ParseError(f"{path}: entry {bad!r} is not finite")
    return meta, arrays


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """The thread-count getter and setter of the OpenBLAS this process has
    loaded, found through its memory map; None where there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


@contextmanager
def one_blas_thread() -> Iterator[bool]:
    """Hold the loaded OpenBLAS to one thread for the block, and give its
    count back after, a raise included; yields whether it found one. The
    count is process-wide state, and a child forked inside the block starts
    with one thread too."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield True
    finally:
        put(before)
