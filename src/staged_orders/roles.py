"""Numbering of the named elements the constructions partition ω into.

Each role is one integer code. Two numberings, one per construction
style, both total bijections with ℕ so that snapshots produced by
independent implementations agree byte for byte. The code helpers map
indices to a code; the decoders map a code back to a tuple naming its
role and indices; the labels print that role.

Separation roles (five constants plus three indexed families):
  a,b,c,f,l -> 0..4; for n >= 5 let m = n-5, q = m div 3, r = m mod 3;
  r=0 -> b_q; r=1 -> a_{i,k} with q = i(i+1)/2 + k, k <= i;
  r=2 -> c_{i,k} with q = i(i-1)/2 + k, k < i.

Spectrum roles (four constants plus vertices and guess gadgets):
  a,g,r0,r1 -> 0..3; for n >= 4 let m = n-4: even m -> a_{m/2};
  odd m -> g_{i,j,k} where (m-1)/2 Cantor-unpairs to (p, k) and p
  ranks (i,j) in the lexicographic enumeration of {(i,j): i < j},
  p = j(j-1)/2 + i.

The ragged families a_{i,k} (k <= i) and c_{i,k} (k < i) use triangular
ranking instead of Cantor pairing so no code is ever invalid.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List

SIGMA2_CONSTANTS = ("a", "b", "c", "f", "l")
SPECTRUM_CONSTANTS = ("a", "g", "r0", "r1")


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def _tri_row_leq(q: int) -> int:
    # largest i with i(i+1)/2 <= q
    return (math.isqrt(8 * q + 1) - 1) // 2


def sigma2_a_code(i: int, k: int) -> int:
    """Code of a_{i,k}, for 0 <= k <= i."""
    return 5 + 3 * (_tri(i) + k) + 1


def sigma2_b_code(x: int) -> int:
    """Code of b_x, for x >= 0."""
    return 5 + 3 * x


def sigma2_c_code(i: int, k: int) -> int:
    """Code of c_{i,k}, for 0 <= k < i."""
    return 5 + 3 * (i * (i - 1) // 2 + k) + 2


def sigma2_decode(n: int) -> tuple:
    """What code n names: (name,) for a constant, ("b", x) for b_x,
    ("a", i, k) for a_{i,k} and ("c", i, k) for c_{i,k}."""
    if n < 0:
        raise ValueError("codes are naturals")
    if n < 5:
        return (SIGMA2_CONSTANTS[n],)
    q, r = divmod(n - 5, 3)
    if r == 0:
        return ("b", q)
    if r == 1:
        i = _tri_row_leq(q)
        return ("a", i, q - _tri(i))
    # rows of c_{i,k} have i entries, offsets i(i-1)/2 = tri(i-1)
    i = _tri_row_leq(q) + 1
    return ("c", i, q - i * (i - 1) // 2)


def sigma2_label(code: int) -> str:
    role = sigma2_decode(code)
    if len(role) == 1:
        return role[0]
    if len(role) == 2:
        return "b_%d" % role[1]
    return "%s_{%d,%d}" % role


def cantor_pair(p: int, k: int) -> int:
    return _tri(p + k) + k


def cantor_unpair(t: int) -> tuple:
    w = _tri_row_leq(t)
    k = t - _tri(w)
    return w - k, k


def pair_rank(i: int, j: int) -> int:
    # rank of (i, j), i < j, in lexicographic order of all such pairs
    return j * (j - 1) // 2 + i


def pair_unrank(p: int) -> tuple:
    j = _tri_row_leq(p) + 1
    return p - j * (j - 1) // 2, j


def spectrum_vertex_code(i: int) -> int:
    """Code of a_i, for i >= 0."""
    return 4 + 2 * i


def spectrum_gadget_code(i: int, j: int, k: int) -> int:
    """Code of g_{i,j,k}, for 0 <= i < j and k >= 0."""
    return 5 + 2 * cantor_pair(pair_rank(i, j), k)


def spectrum_decode(n: int) -> tuple:
    """What code n names: (name,) for a constant, ("a", i) for a_i and
    ("g", i, j, k) for g_{i,j,k}."""
    if n < 0:
        raise ValueError("codes are naturals")
    if n < 4:
        return (SPECTRUM_CONSTANTS[n],)
    m = n - 4
    if m % 2 == 0:
        return ("a", m // 2)
    p, k = cantor_unpair((m - 1) // 2)
    i, j = pair_unrank(p)
    return ("g", i, j, k)


def spectrum_label(code: int) -> str:
    role = spectrum_decode(code)
    if len(role) == 1:
        return role[0]
    if len(role) == 2:
        return "a_%d" % role[1]
    return "%s_{%d,%d,%d}" % role


def _tabulated(table: list, fn: Callable, n: int) -> list:
    """[fn(0), ..., fn(n - 1)] from `table`, which holds fn of every code
    below the largest n asked for so far, so each is computed once. The
    tables stay no longer than the largest domain a process builds."""
    table.extend(map(fn, range(len(table), n)))
    return table[:n]


_SIGMA2_ROLES: List[tuple] = []
_SIGMA2_LABELS: List[str] = []
_SPECTRUM_LABELS: List[str] = []


def _sigma2_roles(n: int) -> List[tuple]:
    """sigma2_decode of every code below n."""
    return _tabulated(_SIGMA2_ROLES, sigma2_decode, n)


def _sigma2_labels(n: int) -> Dict[int, str]:
    """sigma2_label of every code below n, by code."""
    return dict(enumerate(_tabulated(_SIGMA2_LABELS, sigma2_label, n)))


def _spectrum_labels(n: int) -> Dict[int, str]:
    """spectrum_label of every code below n, by code."""
    return dict(enumerate(_tabulated(_SPECTRUM_LABELS, spectrum_label, n)))
