"""Numbering of the named elements the constructions partition ω into.

Two families of roles, one per construction style. Both encodings are
total bijections with ℕ so that snapshots produced by independent
implementations agree byte for byte.

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
from typing import Union

from .kernel import Record

SIGMA2_CONSTANTS = ("a", "b", "c", "f", "l")
SPECTRUM_CONSTANTS = ("a", "g", "r0", "r1")


class Sigma2Const(Record):
    name: str

    def __post_init__(self):
        if self.name not in SIGMA2_CONSTANTS:
            raise ValueError(f"unknown constant {self.name!r}")


class Sigma2A(Record):
    i: int
    k: int

    def __post_init__(self):
        if not (0 <= self.k <= self.i):
            raise ValueError(f"a_{{i,k}} requires 0 <= k <= i, got ({self.i}, {self.k})")


class Sigma2B(Record):
    x: int

    def __post_init__(self):
        if self.x < 0:
            raise ValueError(f"b_x requires x >= 0, got {self.x}")


class Sigma2C(Record):
    i: int
    k: int

    def __post_init__(self):
        if not (0 <= self.k < self.i):
            raise ValueError(f"c_{{i,k}} requires 0 <= k < i, got ({self.i}, {self.k})")


Sigma2Role = Union[Sigma2Const, Sigma2A, Sigma2B, Sigma2C]


class SpectrumConst(Record):
    name: str

    def __post_init__(self):
        if self.name not in SPECTRUM_CONSTANTS:
            raise ValueError(f"unknown constant {self.name!r}")


class SpectrumA(Record):
    i: int

    def __post_init__(self):
        if self.i < 0:
            raise ValueError(f"a_i requires i >= 0, got {self.i}")


class SpectrumG(Record):
    i: int
    j: int
    k: int

    def __post_init__(self):
        if not (0 <= self.i < self.j) or self.k < 0:
            raise ValueError(f"g_{{i,j,k}} requires 0 <= i < j, k >= 0, got {self!r}")


SpectrumRole = Union[SpectrumConst, SpectrumA, SpectrumG]


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


def sigma2_encode(role: Sigma2Role) -> int:
    if isinstance(role, Sigma2Const):
        return SIGMA2_CONSTANTS.index(role.name)
    if isinstance(role, Sigma2B):
        return sigma2_b_code(role.x)
    if isinstance(role, Sigma2A):
        return sigma2_a_code(role.i, role.k)
    if isinstance(role, Sigma2C):
        return sigma2_c_code(role.i, role.k)
    raise TypeError(f"not a separation role: {role!r}")


def sigma2_decode(n: int) -> Sigma2Role:
    if n < 0:
        raise ValueError("codes are naturals")
    if n < 5:
        return Sigma2Const(SIGMA2_CONSTANTS[n])
    m = n - 5
    q, r = divmod(m, 3)
    if r == 0:
        return Sigma2B(q)
    if r == 1:
        i = _tri_row_leq(q)
        return Sigma2A(i, q - _tri(i))
    # rows of c_{i,k} have i entries, offsets i(i-1)/2 = tri(i-1)
    i = _tri_row_leq(q) + 1
    return Sigma2C(i, q - i * (i - 1) // 2)


def sigma2_label(role_or_code) -> str:
    role = sigma2_decode(role_or_code) if isinstance(role_or_code, int) else role_or_code
    if isinstance(role, Sigma2Const):
        return role.name
    if isinstance(role, Sigma2B):
        return f"b_{role.x}"
    if isinstance(role, Sigma2A):
        return f"a_{{{role.i},{role.k}}}"
    if isinstance(role, Sigma2C):
        return f"c_{{{role.i},{role.k}}}"
    raise TypeError(f"not a separation role: {role!r}")


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


def spectrum_encode(role: SpectrumRole) -> int:
    if isinstance(role, SpectrumConst):
        return SPECTRUM_CONSTANTS.index(role.name)
    if isinstance(role, SpectrumA):
        return spectrum_vertex_code(role.i)
    if isinstance(role, SpectrumG):
        return spectrum_gadget_code(role.i, role.j, role.k)
    raise TypeError(f"not a spectrum role: {role!r}")


def _spectrum_indices(n: int) -> tuple:
    """What code n names: () for a constant, (i,) for a_i, (i, j, k) for g_{i,j,k}."""
    if n < 0:
        raise ValueError("codes are naturals")
    if n < 4:
        return ()
    m = n - 4
    if m % 2 == 0:
        return (m // 2,)
    p, k = cantor_unpair((m - 1) // 2)
    return pair_unrank(p) + (k,)


def spectrum_decode(n: int) -> SpectrumRole:
    indices = _spectrum_indices(n)
    if not indices:
        return SpectrumConst(SPECTRUM_CONSTANTS[n])
    if len(indices) == 1:
        return SpectrumA(*indices)
    return SpectrumG(*indices)


def spectrum_label(role_or_code) -> str:
    code = role_or_code if isinstance(role_or_code, int) else spectrum_encode(role_or_code)
    indices = _spectrum_indices(code)
    if not indices:
        return SPECTRUM_CONSTANTS[code]
    if len(indices) == 1:
        return f"a_{indices[0]}"
    return "g_{%d,%d,%d}" % indices
