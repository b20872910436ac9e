"""Independent checks of what the program prints.

Nothing here calls the program: relations are read straight from the
snapshot JSON, reductions use an exact int32 product, and chains,
antichains and monotone sequences are validated with numpy.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import NamedTuple, Optional, Sequence

import numpy as np

EDGE_LINE = re.compile(r'^\s*"(\d+)" -> "(\d+)";$')

# The one defect the benchmark knows at this commit: the kernel composes
# relations with a uint8 product, which wraps modulo 256, so on domains
# above 256 elements a pair with a multiple of 256 intermediates looks
# like a covering pair to transitive_reduction.
UINT8_WRAP = "transitive_reduction uint8 product wraps modulo 256"


class Failure(NamedTuple):
    reason: str
    known_defect: Optional[str] = None


def ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1 if n > 0 else 0


def read_matrix(path: str) -> np.ndarray:
    """Relation of a snapshot file as a reflexive boolean matrix."""
    with open(path, "rb") as fh:
        return _parse_matrix(fh.read())


@functools.lru_cache(maxsize=8)
def _parse_matrix(raw: bytes) -> np.ndarray:
    # Cached by content: later passes re-read the same inputs and runs.
    obj = json.loads(raw)
    m = np.eye(obj["domain_size"], dtype=bool)
    pairs = np.asarray(obj["pairs"], dtype=np.int64).reshape(-1, 2)
    m[pairs[:, 0], pairs[:, 1]] = True
    return m


def _reduction(matrix: np.ndarray, dtype) -> np.ndarray:
    strict = matrix.copy()
    np.fill_diagonal(strict, False)
    s = strict.astype(dtype)
    return strict & ~((s @ s) > 0)


def exact_reduction(matrix: np.ndarray) -> np.ndarray:
    """Covering pairs; the int32 count of intermediates cannot wrap."""
    return _reduction(matrix, np.int32)


def uint8_reduction(matrix: np.ndarray) -> np.ndarray:
    """What a reduction through a wrapping uint8 product reports."""
    return _reduction(matrix, np.uint8)


def dot_edges(text: str, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=bool)
    for line in text.splitlines():
        match = EDGE_LINE.match(line)
        if match:
            out[int(match.group(1)), int(match.group(2))] = True
    return out


def check_reduction(text: str, matrix: np.ndarray) -> Optional[Failure]:
    got = dot_edges(text, matrix.shape[0])
    want = exact_reduction(matrix)
    if np.array_equal(got, want):
        return None
    wrong = int(np.count_nonzero(got ^ want))
    reason = f"reduction differs from the exact one in {wrong} pairs"
    if matrix.shape[0] > 256 and np.array_equal(got, uint8_reduction(matrix)):
        return Failure(reason, UINT8_WRAP)
    return Failure(reason)


def chain_valid(matrix: np.ndarray, elements: Sequence[int]) -> bool:
    idx = np.asarray(elements, dtype=np.int64)
    sub = matrix[np.ix_(idx, idx)]
    return len(set(elements)) == len(elements) and bool((sub | sub.T).all())


def antichain_valid(matrix: np.ndarray, elements: Sequence[int]) -> bool:
    idx = np.asarray(elements, dtype=np.int64)
    sub = matrix[np.ix_(idx, idx)] | matrix[np.ix_(idx, idx)].T
    np.fill_diagonal(sub, False)
    return len(set(elements)) == len(elements) and not bool(sub.any())


def sequence_valid(matrix: np.ndarray, direction: str, elements: Sequence[int]) -> bool:
    """Ascending: x < y as numbers forces x <= y in the order; descending
    forces y <= x."""
    if list(elements) != sorted(set(elements)):
        return False
    idx = np.asarray(elements, dtype=np.int64)
    sub = matrix[np.ix_(idx, idx)]
    if direction == "descending":
        sub = sub.T
    elif direction != "ascending":
        return False
    return bool(np.triu(sub).sum() == len(idx) * (len(idx) + 1) // 2)


def check_solution(out: dict, principle: str, matrix: np.ndarray) -> Optional[Failure]:
    elements = out.get("elements", [])
    n = matrix.shape[0]
    if principle == "cac":
        kind = out.get("kind")
        valid = (
            chain_valid(matrix, elements)
            if kind == "chain"
            else kind == "antichain" and antichain_valid(matrix, elements)
        )
    else:
        valid = sequence_valid(matrix, out.get("direction"), elements)
    if not valid:
        return Failure(f"{principle} answer is not a valid {out.get('kind') or out.get('direction')}")
    if len(elements) < ceil_sqrt(n):
        return Failure(f"{principle} answer has {len(elements)} < ceil(sqrt({n})) elements")
    return None
