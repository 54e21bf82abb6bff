import pytest

from blocaudit.rationals import (
    ONE,
    ZERO,
    RationalsOver,
    decimal_string,
    floor_rational,
    parse_rational,
    rational,
)


def test_rational_exactness():
    assert rational(1, 3) + rational(1, 3) + rational(1, 3) == ONE
    assert rational(1, 10) * 10 == ONE
    total = sum((rational(1, 7) for _ in range(7)), ZERO)
    assert total == ONE


def test_floor_rational():
    assert floor_rational(rational(7, 2)) == 3
    assert floor_rational(rational(-7, 2)) == -4
    assert floor_rational(rational(6, 2)) == 3
    assert floor_rational(ZERO) == 0


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", rational(3)),
        ("1/100", rational(1, 100)),
        ("0.25", rational(1, 4)),
        ("-2/5", rational(-2, 5)),
        ("1.5", rational(3, 2)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


def test_parse_rational_rejects_junk():
    for bad in ("", "abc", "1/0", "1//2", "2.5.1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_decimal_string_truncates_toward_zero():
    assert decimal_string(rational(1, 3)) == "0.33333"
    assert decimal_string(rational(2, 3)) == "0.66666"
    assert decimal_string(rational(-1, 3)) == "-0.33333"
    assert decimal_string(rational(5)) == "5.00000"
    assert decimal_string(rational(1, 3), places=0) == "0"
    assert decimal_string(rational(833)) == "833.00000"


def test_rationals_over_reads_integers_over_one_denominator():
    nums = [3, 0, -4]
    row = RationalsOver(nums, 6)
    nums[0] = 99  # the mapping keeps its own snapshot
    assert list(row) == [0, 1, 2]
    assert len(row) == 3
    assert row == dict(row) == {0: rational(1, 2), 1: ZERO, 2: rational(-2, 3)}
    for key in (-1, 3, "0"):
        with pytest.raises(KeyError):
            row[key]
    first, again = row[0], row[0]
    assert first == again
    assert type(first) is type(again) is type(ONE)
