"""Scalar arithmetic: rationals, prime fields, parsing, JSON round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lambda_homology.errors import ValidationError
from lambda_homology.fields import (
    _MR_BOUND,
    PrimeField,
    Rationals,
    field_from_json,
    field_of,
    is_prime,
    parse_field_flag,
)


def test_is_prime_small_values():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_matches_trial_division_below_200000():
    small = [d for d in range(2, 448) if all(d % q for q in range(2, d))]

    def by_trial_division(n):
        return n >= 2 and all(n % d for d in small if d * d <= n)

    assert all(is_prime(n) == by_trial_division(n) for n in range(200_000))


def test_is_prime_large_values():
    assert is_prime(2147483647) and is_prime(2147483629)
    # strong pseudoprimes to the bases 2, 3, 5 and to 2, 3, ..., 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_prime_field_refuses_p_beyond_the_exact_test():
    assert PrimeField(_MR_BOUND - 20).p == _MR_BOUND - 20  # the largest prime below
    for p in (_MR_BOUND, 2**89 - 1):
        with pytest.raises(ValidationError) as err:
            PrimeField(p)
        assert err.value.details == {"p": p, "bound": _MR_BOUND}


def test_rationals_parse_and_fmt_round_trip():
    q = Rationals()
    for s in ["0", "1", "-3", "2/3", "-7/5", "10/4"]:
        x = q.parse(s)
        assert q.parse(q.fmt(x)) == x
    assert q.fmt(q.parse("10/4")) == "5/2"


def test_rationals_keep_integral_values_as_int():
    q = Rationals()
    assert type(q.zero) is int and type(q.one) is int
    for s in ["0", "-3", "10/5", "-6/3"]:
        assert type(q.parse(s)) is int
    for s in ["2/3", "-7/5", "10/4"]:
        assert type(q.parse(s)) is Fraction
    for a in [1, -1, Fraction(1), Fraction(-1)]:
        assert type(q.inv(a)) is int and q.inv(a) == a
    for a in [2, -3, Fraction(2, 3), Fraction(4, 2)]:
        x = q.inv(a)
        assert type(x) is Fraction and x * a == 1


def test_rationals_rejects_garbage():
    q = Rationals()
    with pytest.raises(ValidationError):
        q.parse("one half")


@pytest.mark.parametrize("field", [Rationals(), PrimeField(7)], ids=["Q", "F7"])
def test_parse_reads_literals_as_fraction_does(field):
    """Integer literals are read by ``int``, the others by ``Fraction``:
    the values and the error messages are those of ``Fraction`` alone."""
    for s in [" 3 ", "+3", "1_000", "-0", "-12", 5, "3.0", "1e3", "10/4",
              "-7/5", "0.5"]:
        x = Fraction(str(s))
        if field.p is None:
            want = x.numerator if x.denominator == 1 else x
        else:
            want = x.numerator * pow(x.denominator, -1, 7) % 7
        got = field.parse(s)
        assert got == want and type(got) is type(want)
    for s in ["abc", "1/0", "3.0.1", "1__0", "", True]:
        with pytest.raises(ValidationError) as err:
            field.parse(s)
        assert err.value.message == f"bad rational literal {s!r}"


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValidationError):
        PrimeField(6)
    with pytest.raises(ValidationError):
        PrimeField(1)
    assert PrimeField(2).p == 2


def test_prime_field_parse_inverts_denominator():
    f = PrimeField(7)
    assert f.parse("3/2") == (3 * 4) % 7  # 2^{-1} = 4 mod 7
    assert f.parse("-1") == 6


def test_prime_field_rejects_vanishing_denominator():
    with pytest.raises(ValidationError) as err:
        PrimeField(2).parse("1/2")
    assert "denominator" in err.value.message


def test_parse_field_flag():
    assert isinstance(parse_field_flag("q"), Rationals)
    assert parse_field_flag("fp:11").p == 11
    with pytest.raises(ValidationError):
        parse_field_flag("fp:9")
    with pytest.raises(ValidationError):
        parse_field_flag("real")


def test_field_json_round_trip():
    for f in [Rationals(), PrimeField(5)]:
        assert field_from_json(f.to_json()) == f


def test_field_rule_override_then_spec_then_q():
    f5 = {"field": {"kind": "Fp", "p": 5}}
    assert field_of(f5, PrimeField(7)) == PrimeField(7)
    assert field_of(f5) == PrimeField(5)
    assert field_of({"dim": 1}) == Rationals()
    with pytest.raises(ValidationError):
        field_of({"field": None})


small_q = st.fractions(min_value=-50, max_value=50, max_denominator=20)


small_int = st.integers(-50, 50)


@given(st.one_of(small_int, small_q), st.one_of(small_int, small_q))
def test_rationals_field_laws(a, b):
    q = Rationals()
    assert q.add(a, b) == a + b
    assert q.mul(a, b) == a * b
    assert q.neg(a) == -a
    if b != 0:
        assert isinstance(q.inv(b), (int, Fraction))
        assert q.mul(b, q.inv(b)) == Fraction(1)


@given(st.integers(0, 6), st.integers(0, 6))
def test_prime_field_laws(a, b):
    f = PrimeField(7)
    assert f.add(a, b) == (a + b) % 7
    assert f.mul(a, b) == (a * b) % 7
    assert f.neg(a) == (-a) % 7
    if b:
        assert f.mul(b, f.inv(b)) == 1


@pytest.mark.parametrize("p", [2, 7, 2147483629])
@given(st.data())
def test_prime_field_keeps_one_range_of_representatives(p, data):
    """Every operation returns a scalar in (h - p, h]: [0, p) below 2**15,
    balanced about zero from there on; ``fmt`` prints it in [0, p)."""
    f = PrimeField(p)
    assert f.h == (p - 1 if p < 2**15 else p // 2)
    seen = []

    def held(*xs):
        seen.extend(xs)
        return all(type(x) is int and f.h - p < x <= f.h for x in xs)

    big = st.integers(-2 * p, 2 * p)

    def units(lo, hi):
        """The integers in [lo * p, hi * p) prime to p, drawn unfiltered as
        a residue in [1, p) plus a multiple of p."""
        return st.builds(lambda r, k: r + k * p, st.integers(1, p - 1),
                         st.integers(lo, hi - 1))

    unit = units(-2, 2)
    raw = data.draw(st.lists(big, min_size=3, max_size=3))
    a, b, c = (f.parse(str(x)) for x in raw)
    assert [x % p for x in (a, b, c)] == [x % p for x in raw]
    den = data.draw(units(0, 2))
    assert held(a, b, c, f.zero, f.one, f.parse(f"{raw[0]}/{den}"))
    assert held(f.add(a, b), f.mul(a, b), f.neg(a))
    if a:
        assert held(f.inv(a), f.pivot_key(a))
    rows = st.dictionaries(st.integers(0, 5), unit.map(lambda x: f.add(0, x)),
                           min_size=1, max_size=6)
    dst, src = data.draw(rows), data.draw(rows)
    f.axpy_row(dst, src, c)
    assert held(*dst.values())
    col = min(src)
    dst.setdefault(col, f.one)
    f.cancel(dst, src, col, f.pivot_key(src[col]))
    assert col not in dst and held(*dst.values())
    f.unit_pivot(src, col)
    assert src[col] == 1 and held(*src.values())
    for x in seen:
        assert f.fmt(x) == str(x % p) and 0 <= int(f.fmt(x)) < p


@given(st.dictionaries(st.integers(0, 9), st.integers(-5, 5).filter(bool),
                       max_size=6),
       st.dictionaries(st.integers(0, 9), st.integers(-5, 5).filter(bool),
                       max_size=6),
       st.integers(-4, 4))
def test_axpy_row_matches_dense(dst_ints, src_ints, c_int):
    q = Rationals()
    dst = {k: Fraction(v) for k, v in dst_ints.items()}
    src = {k: Fraction(v) for k, v in src_ints.items()}
    c = Fraction(c_int)
    expect = {}
    for k in range(10):
        v = dst.get(k, Fraction(0)) + c * src.get(k, Fraction(0))
        if v:
            expect[k] = v
    q.axpy_row(dst, src, c)
    assert dst == expect
