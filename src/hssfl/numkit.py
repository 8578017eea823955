"""Float64 matrix validation, array files, the CSV matrix codec for dataset
files, the checkpoint-pair Lipschitz estimator, and splittable, counter-based
random streams.

Matrices are plain 2-D ``numpy.ndarray`` values in row-major float64;
``as_matrix`` validates shapes and finiteness where values enter, and
``check_finite`` raises ``NumericalFailureError`` on a computed result that
is not finite. Randomness is organized as value-like streams: a
:class:`RngStream` is an immutable key (master seed plus client/round/epoch/
purpose coordinates) from which a fresh counter-based generator is derived on
every use, so identical keys always reproduce identical sequences no matter
how many workers run concurrently or in what order.

Every array the simulator stores goes through ``save_arrays``/``load_arrays``
(one ``.npz`` file); ``matrix_to_csv`` and its kin serve dataset files only.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import ConfigError, NumericalFailureError, ParseError, ShapeError

Matrix = np.ndarray


def as_matrix(values, name: str = "matrix") -> Matrix:
    """Coerce to a finite, 2-D float64 array; raise ShapeError otherwise."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ShapeError(f"{name} contains non-finite entries")
    return m


def check_finite(m: Matrix, name: str = "result") -> Matrix:
    """m itself; a computed result with NaN/Inf raises NumericalFailureError."""
    if not np.all(np.isfinite(m)):
        raise NumericalFailureError(name)
    return m


def lipschitz_ratios(
    points: Sequence[np.ndarray], values: Sequence[np.ndarray]
) -> List[float]:
    """||v_a - v_b|| / ||x_a - x_b|| for every pair a < b in order, skipping
    pairs whose points coincide."""
    ratios = []
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            dx = float(np.linalg.norm(np.asarray(points[a], dtype=float)
                                      - np.asarray(points[b], dtype=float)))
            if dx == 0.0:
                continue
            dv = float(np.linalg.norm(np.asarray(values[a], dtype=float)
                                      - np.asarray(values[b], dtype=float)))
            ratios.append(dv / dx)
    return ratios


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
        return replace(self, purpose=f"{self.purpose}/{tag}")

    def _key(self) -> int:
        raw = f"{self.master_seed}|{self.client}|{self.round}|{self.epoch}|{self.purpose}"
        digest = hashlib.sha256(raw.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "little")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this key; repeated calls restart the sequence."""
        return np.random.Generator(np.random.Philox(key=self._key()))


def matrix_to_csv(m: Matrix) -> str:
    """One row per line, comma-separated, '.'-decimal, no header.

    Uses shortest round-trip float formatting so serialize/parse is exact.
    """
    m = as_matrix(m)
    lines = [",".join(repr(v) for v in row) for row in m.tolist()]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> Matrix:
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"non-numeric cell ({exc})", line=lineno) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"expected {width} columns, got {len(row)}", line=lineno
            )
        rows.append(row)
    if not rows:
        raise ParseError("no rows found")
    return as_matrix(rows)


def save_matrix_csv(m: Matrix, path) -> None:
    with io.open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(matrix_to_csv(m))


def load_matrix_csv(path) -> Matrix:
    with io.open(path, "r", encoding="utf-8") as fh:
        return matrix_from_csv(fh.read())


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
