"""Scalar coercion and exact rendering."""

import re
from fractions import Fraction as F

import pytest

from infocost import numeric


def test_rational_parsing_forms():
    assert numeric.scalar("3/7") == F(3, 7)
    assert numeric.scalar("0.49") == F(49, 100)
    assert numeric.scalar(5) == F(5)
    assert numeric.scalar(0.25) == F(1, 4)
    assert numeric.scalar(F(2, 6)) == F(1, 3)


def test_rational_float_goes_through_repr():
    # json numbers arrive as floats; the shortest repr keeps 0.1 exact
    assert numeric.scalar(0.1) == F(1, 10)


def test_rational_rejects_non_finite():
    with pytest.raises(ValueError):
        numeric.scalar(float("nan"))
    with pytest.raises(ValueError):
        numeric.scalar(float("inf"))


@pytest.mark.parametrize("text", ["1e11", "-1e-11", "12345678901", "0.00000000001"])
def test_a_value_beyond_the_digit_limit_is_refused(monkeypatch, text):
    """Under a limit of 10 digits, each of these needs 11 and is refused
    with a message naming it and the limit; the process-wide limit is
    only read."""
    monkeypatch.setattr(numeric.sys, "get_int_max_str_digits", lambda: 10)
    with pytest.raises(ValueError, match=f"scalar '{text}' has more than 10 digits"):
        numeric.scalar(text)
    assert numeric.scalar("9999999999") == 9999999999
    assert numeric.scalar("1e-9") == F(1, 10**9)


def test_no_digit_limit_refuses_nothing(monkeypatch):
    monkeypatch.setattr(numeric.sys, "get_int_max_str_digits", lambda: 0)
    assert numeric.scalar("1e5000") == 10**5000
    assert numeric.scalar("-1e-5000") == F(-1, 10**5000)


def test_a_long_value_is_truncated_in_the_message(monkeypatch):
    monkeypatch.setattr(numeric.sys, "get_int_max_str_digits", lambda: 10)
    shown = re.escape("'0." + "1" * 18 + "...'")
    with pytest.raises(ValueError, match=f"^scalar {shown} has more than 10 digits"):
        numeric.scalar("0." + "1" * 40)


def test_bool_is_not_a_scalar():
    with pytest.raises(TypeError):
        numeric.scalar(True)


def test_format_scalar():
    assert numeric.format_scalar(F(3, 7)) == "3/7"
    assert numeric.format_scalar(F(4)) == "4"
    assert numeric.format_scalar(F(-1, 2)) == "-1/2"
    assert numeric.format_scalar(sum([])) == "0"  # an empty sum is the int 0


def test_exact_comparisons_in_rational_mode():
    tiny = numeric.scalar("1e-30")
    assert tiny == F(1, 10**30)
    assert tiny > 0
    assert -tiny < 0


def test_zero_denominator_raises_value_error_naming_the_text():
    with pytest.raises(ValueError, match="'1/0'"):
        numeric.scalar("1/0")


def test_approx_is_the_nearest_float():
    assert numeric.approx(F(1, 3)) == 1 / 3
    assert numeric.approx(F(-7, 2)) == -3.5
    assert numeric.approx(F(1, 10**400)) == 0.0


def test_approx_outside_float_range_raises_value_error():
    for x in (F(10) ** 400, -F(10) ** 400, F(10**5000, 3)):
        with pytest.raises(ValueError, match="outside float range"):
            numeric.approx(x)


def test_scaled_puts_values_over_their_least_common_denominator():
    assert numeric.scaled([F(1, 4), F(-1, 6), 2]) == (12, [3, -2, 24])
    assert numeric.scaled([]) == (1, [])
