"""Exact rational arithmetic helpers.

gmpy2's mpq is used when available because it is faster;
fractions.Fraction is the drop-in fallback. Both expose
.numerator/.denominator and mix freely with ints, which is all the package
relies on.
"""

from __future__ import annotations

import fractions
from collections.abc import Mapping

try:
    from gmpy2 import mpq as Rational

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - depends on the environment
    from fractions import Fraction as Rational

    HAVE_GMPY2 = False

ZERO = Rational(0)
ONE = Rational(1)


def rational(numerator, denominator=1):
    """Build an exact rational from integers."""
    return Rational(numerator, denominator)


class RationalsOver(Mapping):
    """The read-only mapping {i: rational(nums[i], den) for i in range(len(nums))}.

    Scottish STV, Meek and EAR count in integers over one denominator, and a
    Round's totals (and Meek's keep factors) are this mapping of them, its
    quota and exhausted weight a one-entry one: a rational is built only when
    an entry is read. Only a count asked for its round log builds these; a
    search probe runs the count without one and builds none. nums is copied
    so a Round never changes, to a list, since freed short tuples linger on
    CPython's tuple free list.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, nums, den):
        self._nums = list(nums)
        self._den = den

    def __getitem__(self, i):
        if isinstance(i, int) and 0 <= i < len(self._nums):
            return rational(self._nums[i], self._den)
        raise KeyError(i)

    def __iter__(self):
        return iter(range(len(self._nums)))

    def __len__(self):
        return len(self._nums)

    def __repr__(self):
        return f"{type(self).__name__}({dict(self)!r})"


def floor_rational(x) -> int:
    """Largest integer <= x."""
    return int(x.numerator // x.denominator)


def parse_rational(text: str):
    """Parse '3', '1/100', or '0.25' into an exact rational."""
    try:
        f = fractions.Fraction(text.strip())
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    return Rational(f.numerator, f.denominator)


def decimal_string(x, places: int = 5) -> str:
    """Render an exact value as a decimal string truncated toward zero.

    Accepts anything with .numerator/.denominator, ints included.
    """
    n, d = int(x.numerator), int(x.denominator)
    sign = "-" if n < 0 else ""
    scale = 10**places
    scaled = abs(n) * scale // d
    whole, frac = divmod(scaled, scale)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"
