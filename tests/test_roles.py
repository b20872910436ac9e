import pytest
from hypothesis import given, settings, strategies as st

from staged_orders.roles import (
    SIGMA2_CONSTANTS,
    SPECTRUM_CONSTANTS,
    Sigma2A,
    Sigma2B,
    Sigma2C,
    Sigma2Const,
    SpectrumA,
    SpectrumConst,
    SpectrumG,
    cantor_pair,
    cantor_unpair,
    pair_rank,
    pair_unrank,
    sigma2_decode,
    sigma2_encode,
    sigma2_label,
    spectrum_decode,
    spectrum_encode,
    spectrum_label,
)


def test_sigma2_frozen_codes():
    assert [sigma2_encode(Sigma2Const(c)) for c in SIGMA2_CONSTANTS] == [0, 1, 2, 3, 4]
    assert sigma2_encode(Sigma2B(0)) == 5
    assert sigma2_encode(Sigma2A(0, 0)) == 6
    assert sigma2_encode(Sigma2C(1, 0)) == 7
    assert sigma2_encode(Sigma2B(1)) == 8
    assert sigma2_encode(Sigma2A(1, 0)) == 9


def test_spectrum_frozen_codes():
    assert [spectrum_encode(SpectrumConst(c)) for c in SPECTRUM_CONSTANTS] == [0, 1, 2, 3]
    assert spectrum_encode(SpectrumA(0)) == 4
    assert spectrum_encode(SpectrumG(0, 1, 0)) == 5
    assert spectrum_encode(SpectrumA(1)) == 6


def test_sigma2_codec_is_a_bijection_on_a_long_prefix():
    seen = set()
    for code in range(100_000):
        role = sigma2_decode(code)
        assert sigma2_encode(role) == code
        assert role not in seen
        seen.add(role)


def test_spectrum_codec_is_a_bijection_on_a_long_prefix():
    seen = set()
    for code in range(100_000):
        role = spectrum_decode(code)
        assert spectrum_encode(role) == code
        assert role not in seen
        seen.add(role)


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_cantor_pair_round_trip(t):
    p, k = cantor_unpair(t)
    assert cantor_pair(p, k) == t


@given(st.integers(0, 10**9))
@settings(max_examples=300, deadline=None)
def test_pair_rank_round_trip(p):
    i, j = pair_unrank(p)
    assert i < j
    assert pair_rank(i, j) == p


@given(st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=200, deadline=None)
def test_sigma2_a_roles_round_trip(i, k):
    role = Sigma2A(i, min(i, k))
    assert sigma2_decode(sigma2_encode(role)) == role


def test_role_validation():
    with pytest.raises(ValueError):
        Sigma2A(1, 2)  # column beyond the row
    with pytest.raises(ValueError):
        Sigma2C(1, 1)  # strictly fewer links than row elements
    with pytest.raises(ValueError):
        Sigma2B(-1)
    with pytest.raises(ValueError):
        SpectrumG(1, 1, 0)  # needs i < j
    with pytest.raises(ValueError):
        Sigma2Const("z")
    with pytest.raises(ValueError):
        SpectrumConst("q")


def test_labels_read_naturally():
    assert sigma2_label(Sigma2Const("a")) == "a"
    assert sigma2_label(Sigma2B(0)) == "b_0"
    assert sigma2_label(Sigma2A(0, 0)) == "a_{0,0}"
    assert sigma2_label(Sigma2C(1, 0)) == "c_{1,0}"
    assert sigma2_label(7) == "c_{1,0}"
    assert spectrum_label(SpectrumConst("r0")) == "r0"
    assert spectrum_label(SpectrumA(0)) == "a_0"
    assert spectrum_label(SpectrumG(0, 1, 0)) == "g_{0,1,0}"
    assert spectrum_label(3) == "r1"


def test_spectrum_labels_of_codes_and_roles_agree():
    for code in range(10_000):
        assert spectrum_label(code) == spectrum_label(spectrum_decode(code))
