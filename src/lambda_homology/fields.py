"""Exact scalar arithmetic: rationals and prime fields.

Scalars are plain Python values.  Over the rationals a scalar is an ``int``
when its value is an integer and a ``Fraction`` otherwise; every shipped
construction has integer structure constants.  Elimination over Q is
fraction-free: it clears a row's denominators once, keeps rows as
primitive integer dicts, and divides a pivot row by its pivot only when
the row is done, so a ``Fraction`` appears only where the reduced form is
not integral.  ``fractions`` (which loads ``decimal``) is imported on
first use.  Arithmetic may still yield an integral ``Fraction``, which
compares, hashes and prints like the equal ``int``, so no code needs to
tell the two apart.  Over a prime field a scalar is an int kept in one
range of representatives, balanced about zero for large p (see
``PrimeField``), and printed in ``[0, p)``.  The field objects supply
scalar arithmetic, parsing of ``"a/b"`` strings, and the plain row
kernels the elimination code runs hot; the elimination keeps its own
index of which rows hold which column.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ValidationError, spec_ints


def _read_literal(s):
    """The rational value of a scalar literal such as ``"-3"`` or ``"2/3"``:
    an ``int`` when ``int`` reads it, so integer literals load no
    ``fractions``, else a ``Fraction``."""
    try:
        return int(str(s))
    except ValueError:
        pass
    from fractions import Fraction
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {s!r}", literal=str(s)) from exc


#: Miller-Rabin with the first twelve primes as bases decides primality of
#: every n below the bound (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every p below ``_MR_BOUND``;
    ``PrimeField`` rejects any p from the bound on before calling it."""
    if p < 2 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers with exact arithmetic.

    Integral values are ``int`` and the others ``Fraction``: ``zero``,
    ``one`` and ``parse`` of an integer literal give ints;
    ``inv`` gives an int for +-1 and a ``Fraction`` otherwise.  Sums and
    products of ints stay ints and run no gcd; elimination multiplies
    instead of dividing, so integer inputs are eliminated on ints
    throughout.
    """

    kind = "Q"
    p = None
    zero = 0
    one = 1

    def parse(self, s: str):
        x = _read_literal(s)
        return x.numerator if x.denominator == 1 else x

    def fmt(self, x) -> str:
        return str(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return int(a)
        from fractions import Fraction
        # 1 / a would be a float for an int a
        return 1 / Fraction(a)

    def axpy_row(self, dst: dict, src: dict, c) -> None:
        """dst += c * src, deleting entries that cancel to zero."""
        get = dst.get
        for k, v in src.items():
            w = get(k, 0) + c * v
            if w:
                dst[k] = w
            elif k in dst:
                del dst[k]

    # Elimination keeps rows as primitive integer dicts and divides only
    # once a pivot row is done (Bareiss 1968, fraction-free elimination).

    def make_integral(self, row: dict) -> None:
        """Scale a row in place to a primitive integer row if it holds a
        ``Fraction``; a row of ints is left as it is."""
        dens = [v.denominator for v in row.values() if type(v) is not int]
        if not dens:
            return
        scale = lcm(*dens)
        for k, v in row.items():
            row[k] = int(v * scale)
        self._divide_content(row)

    @staticmethod
    def _divide_content(row: dict) -> None:
        g = gcd(*row.values())
        if g > 1:
            for k, v in row.items():
                row[k] = v // g

    def pivot_key(self, pv):
        """What ``cancel`` needs of a pivot besides its row: nothing over Q,
        where ``cancel`` reads the pivot off the row."""
        return None

    def cancel(self, dst: dict, src: dict, col: int, key) -> None:
        """Clear column ``col`` of ``dst`` with the pivot row ``src``:
        dst <- (pv/g) dst - (f/g) src for pv = src[col], f = dst[col] and
        g = gcd(pv, f), divided by its content if it was scaled."""
        pv, f = src[col], dst[col]
        g = gcd(pv, f)
        a, b = pv // g, f // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            for k, v in dst.items():
                dst[k] = a * v
        self.axpy_row(dst, src, -b)
        if a != 1 and dst:
            self._divide_content(dst)

    def unit_pivot(self, row: dict, col: int) -> None:
        """Divide an integer row by its entry at ``col``: an entry stays an
        ``int`` where the division is exact and becomes a ``Fraction``
        (importing ``fractions``) only where it is not."""
        pv = row[col]
        if pv == 1:
            return
        frac = None
        for k, v in row.items():
            q, r = divmod(v, pv)
            if r:
                if frac is None:
                    from fractions import Fraction as frac
                row[k] = frac(v, pv)
            else:
                row[k] = q

    def to_json(self) -> dict:
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field with p elements, p prime.

    A scalar is the one int in (h - p, h] of its residue class, and every
    operation reduces its result there inline (w % p, then w - p if
    w > h).  For p from 2**15 on h = p // 2, so the range is balanced
    about zero: -1 is stored as -1, and the +-1 structure constants of the
    shipped constructions stay ints of one 30-bit digit, where p - 1 can
    take two.  Below 2**15 h = p - 1, the range is [0, p), and every
    product of two representatives already fits one digit.  ``fmt``
    prints the value in [0, p) either way.
    """

    kind = "Fp"

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise ValidationError(
                f"{p} is not below {_MR_BOUND}, where the exact primality test stops",
                p=p, bound=_MR_BOUND,
            )
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime", p=p)
        self.p = p
        self.h = p // 2 if p >= 1 << 15 else p - 1
        self.zero = 0
        self.one = 1 % p

    def parse(self, s: str):
        frac = _read_literal(s)
        den = frac.denominator % self.p
        if den == 0:
            raise ValidationError(
                f"denominator of {s!r} vanishes modulo {self.p}",
                literal=str(s),
                p=self.p,
            )
        p = self.p
        w = frac.numerator * pow(den, -1, p) % p
        return w - p if w > self.h else w

    def fmt(self, x) -> str:
        return str(x % self.p)

    def add(self, a, b):
        w = (a + b) % self.p
        return w - self.p if w > self.h else w

    def mul(self, a, b):
        w = a * b % self.p
        return w - self.p if w > self.h else w

    def neg(self, a):
        w = -a % self.p
        return w - self.p if w > self.h else w

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        w = pow(a, -1, self.p)
        return w - self.p if w > self.h else w

    def axpy_row(self, dst: dict, src: dict, c) -> None:
        p, h = self.p, self.h
        get = dst.get
        for k, v in src.items():
            w = (get(k, 0) + c * v) % p
            if w:
                dst[k] = w - p if w > h else w
            elif k in dst:
                del dst[k]

    def make_integral(self, row: dict) -> None:
        """Nothing to clear: scalars are already ints."""

    def pivot_key(self, pv):
        """-1/pv, so that ``cancel`` finds its factor with one product; a
        pivot row's pivot entry never changes, so one key serves it."""
        p = self.p
        w = -pow(pv, -1, p) % p
        return w - p if w > self.h else w

    def cancel(self, dst: dict, src: dict, col: int, key) -> None:
        """Clear column ``col`` of ``dst``: dst += (dst[col] key) src."""
        p = self.p
        w = dst[col] * key % p
        self.axpy_row(dst, src, w - p if w > self.h else w)

    def unit_pivot(self, row: dict, col: int) -> None:
        """Divide a row by its entry at ``col``."""
        pv = row[col]
        if pv != 1:
            p, h = self.p, self.h
            c = pow(pv, -1, p)
            for k, v in row.items():
                w = v * c % p
                row[k] = w - p if w > h else w

    def to_json(self) -> dict:
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


RATIONALS = Rationals()


def field_from_json(obj) -> Rationals | PrimeField:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError("field spec must be an object with a 'kind' key", got=obj)
    kind = obj["kind"]
    if kind == "Q":
        return RATIONALS
    if kind == "Fp":
        if "p" not in obj:
            raise ValidationError("prime field spec needs 'p'", got=obj)
        return PrimeField(spec_ints(obj["p"], "p"))
    raise ValidationError(f"unknown field kind {kind!r}", got=obj)


def field_of(spec: dict, override=None) -> Rationals | PrimeField:
    """The field a spec is read over: ``override`` if given, else the
    spec's own ``"field"``, else Q."""
    if override is not None:
        return override
    return field_from_json(spec["field"]) if "field" in spec else RATIONALS


def parse_field_flag(flag: str) -> Rationals | PrimeField:
    """Parse a CLI field override: 'q' or 'fp:<prime>'."""
    low = flag.strip().lower()
    if low == "q":
        return RATIONALS
    if low.startswith("fp:"):
        try:
            p = int(low[3:])
        except ValueError as exc:
            raise ValidationError(f"bad field flag {flag!r}", flag=flag) from exc
        return PrimeField(p)
    raise ValidationError(f"bad field flag {flag!r} (expected 'q' or 'fp:<p>')", flag=flag)
