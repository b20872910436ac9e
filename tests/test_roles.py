import pytest
from hypothesis import given, settings, strategies as st

from staged_orders.roles import (
    SIGMA2_CONSTANTS,
    SPECTRUM_CONSTANTS,
    cantor_pair,
    cantor_unpair,
    pair_rank,
    pair_unrank,
    sigma2_a_code,
    sigma2_b_code,
    sigma2_c_code,
    sigma2_decode,
    sigma2_label,
    spectrum_decode,
    spectrum_gadget_code,
    spectrum_label,
    spectrum_vertex_code,
)


def test_sigma2_frozen_codes():
    assert [sigma2_decode(code) for code in range(5)] == [(c,) for c in SIGMA2_CONSTANTS]
    assert sigma2_b_code(0) == 5
    assert sigma2_a_code(0, 0) == 6
    assert sigma2_c_code(1, 0) == 7
    assert sigma2_b_code(1) == 8
    assert sigma2_a_code(1, 0) == 9


def test_spectrum_frozen_codes():
    assert [spectrum_decode(code) for code in range(4)] == [(c,) for c in SPECTRUM_CONSTANTS]
    assert spectrum_vertex_code(0) == 4
    assert spectrum_gadget_code(0, 1, 0) == 5
    assert spectrum_vertex_code(1) == 6


def _sigma2_encode(role):
    if len(role) == 1:
        return SIGMA2_CONSTANTS.index(role[0])
    if role[0] == "b":
        return sigma2_b_code(role[1])
    _, i, k = role
    assert 0 <= k <= i if role[0] == "a" else 0 <= k < i
    return (sigma2_a_code if role[0] == "a" else sigma2_c_code)(i, k)


def _spectrum_encode(role):
    if len(role) == 1:
        return SPECTRUM_CONSTANTS.index(role[0])
    if role[0] == "a":
        return spectrum_vertex_code(role[1])
    _, i, j, k = role
    assert 0 <= i < j and k >= 0
    return spectrum_gadget_code(i, j, k)


def test_sigma2_codec_is_a_bijection_on_a_long_prefix():
    seen = set()
    for code in range(100_000):
        role = sigma2_decode(code)
        assert _sigma2_encode(role) == code
        assert role not in seen
        seen.add(role)


def test_spectrum_codec_is_a_bijection_on_a_long_prefix():
    seen = set()
    for code in range(100_000):
        role = spectrum_decode(code)
        assert _spectrum_encode(role) == code
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
    k = min(i, k)
    assert sigma2_decode(sigma2_a_code(i, k)) == ("a", i, k)


def test_role_validation():
    for decode in (sigma2_decode, spectrum_decode):
        with pytest.raises(ValueError, match="codes are naturals"):
            decode(-1)


def test_labels_read_naturally():
    assert sigma2_label(0) == "a"
    assert sigma2_label(sigma2_b_code(0)) == "b_0"
    assert sigma2_label(sigma2_a_code(0, 0)) == "a_{0,0}"
    assert sigma2_label(sigma2_c_code(1, 0)) == "c_{1,0}"
    assert sigma2_label(sigma2_c_code(12, 3)) == "c_{12,3}"
    assert spectrum_label(2) == "r0"
    assert spectrum_label(spectrum_vertex_code(0)) == "a_0"
    assert spectrum_label(spectrum_gadget_code(0, 1, 0)) == "g_{0,1,0}"
    assert spectrum_label(spectrum_gadget_code(3, 10, 7)) == "g_{3,10,7}"
    assert spectrum_label(3) == "r1"


def test_sigma2_labels_of_codes_and_roles_agree():
    formats = {1: "{}", 2: "{}_{}", 3: "{}_{{{},{}}}"}
    for code in range(10_000):
        role = sigma2_decode(code)
        assert sigma2_label(code) == formats[len(role)].format(*role)


def test_spectrum_labels_of_codes_and_roles_agree():
    formats = {1: "{}", 2: "{}_{}", 4: "{}_{{{},{},{}}}"}
    for code in range(10_000):
        role = spectrum_decode(code)
        assert spectrum_label(code) == formats[len(role)].format(*role)


def test_a_row_is_every_third_code():
    """sigma2.build_run removes a row a_{i,0}..a_{i,i} as a range of codes."""
    for i in range(40):
        row = [sigma2_a_code(i, k) for k in range(i + 1)]
        assert row == list(range(sigma2_a_code(i, 0), sigma2_a_code(i, i) + 1, 3))
