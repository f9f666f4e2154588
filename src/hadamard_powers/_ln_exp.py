"""Correctly rounded ln and exp of decimals, from Python integers.

ln(s, p) and exp(y, p) return the Decimal that decimal.Context(prec=p).ln(s)
and .exp(y) return, rounded half even to p significant digits with the same
coefficient and exponent, or None when they cannot decide it; the caller then
asks decimal, which stays the reference.

Each works in binary fixed point, w bits past the point: p log2(10) bits of
the answer, GUARD_BITS more, and the bits its error bound takes. It
computes an integer V and a bound E on its error, so the value lies in
[V - E, V + E] 2^-w. When both ends round half up to one p-digit decimal,
so does every point between them, since rounding is monotone, and no tie
lies above the lower end. The value is never a tie: ln s and e^y are
transcendental at rational s != 1 and y != 0 (Lindemann-Weierstrass), and a
tie is rational. So it rounds half even to that decimal too. When the ends
round apart the call returns None (Ziv's test: Ziv 1991, ACM TOMS 17).
"""

import decimal
import functools
import math

#: bits past the answer's p log2(10) and its error bound's: about one call
#: in 2^GUARD_BITS meets a rounding boundary and defers
GUARD_BITS = 24
#: exp halves its reduced argument this many times and squares the sum
#: back, h bits finer
EXP_HALVINGS = 12
#: most |k| in e^y = 2^k e^r: past it (|y| > about 2^17 ln 2) exp defers
MAX_K = 2**17

_LOG2_10 = math.log2(10)
_LOG10_2 = math.log10(2)
_LN2 = math.log(2)
#: scaleb in it keeps a coefficient of any length as it is
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _bits(p):
    """Bits past the point that carry p significant digits, plus the guard."""
    return int(p * _LOG2_10) + 1 + GUARD_BITS


@functools.lru_cache(maxsize=256)
def _power(base, e):
    """base^e, for the powers of 5 and 10 that scale decimals."""
    return base**e


def _integer_ratio(x):
    """(c, e): a finite Decimal x = c 10^e, read off its string."""
    mantissa, _, e = str(x).partition("E")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(e or 0) - len(fraction)


@functools.lru_cache(maxsize=32)
def _ln2_at(w):
    """ln 2 as 2 atanh(1/3) = sum 2 / ((2i + 1) 3^(2i + 1)), at w + 20 bits.

    Each power is the exact floor of 2^(w + 20) / 3^(2i + 1), and each term
    floors it once more, so the sum of K terms falls short by under
    K + 1.2 units; twice that, shifted down 20 bits, by under 2 units of
    2^-w while K < 2^18."""
    power = (1 << (w + 20)) // 3
    total, i = 0, 1
    while power:
        total += power // i
        power //= 9
        i += 2
    return (2 * total) >> 20


def _ln2(w):
    """ln 2 at w bits, under 2 units of 2^-w below it: read off a width
    rounded up to 64 bits, so a few widths serve every call."""
    top = -(-w // 64) * 64
    return _ln2_at(top) >> (top - w)


def _exp_fixed(y, k, w):
    """(x, error): e^(y 2^-w) = x 2^(k - w) (1 + delta), |delta| <= error 2^-w,
    for integers y and k with |y 2^-w - k ln 2| <= 0.35 and |k| <= MAX_K.

    r = y - k ln 2 is within 2|k| units (the ln 2 of _ln2), and the work
    runs h bits finer, at wh = w + h, where r is r / 2^h. e^(r / 2^h) is
    the Taylor series as s0 + r s1, s0 and s1 its terms of even and odd
    order over r^0 (mpmath's exp_basecase): each term within 2 units, so
    the sum within 2i + 2, i the last divisor, and e^(r / 2^h) >= 0.99.
    h squarings double its relative error h times, each adding under 1.5
    units of 2^-wh (every square is at least e^-0.35 >= 0.7): 2i + 5 units
    of 2^-w in all, and the last shift adds 1.5."""
    h = EXP_HALVINGS
    wh = w + h
    r = y - k * _ln2(w)
    r2 = r * r >> wh
    even = odd = 1 << wh
    term, i = r2, 2
    while term:
        term //= i
        even += term
        term //= i + 1
        odd += term
        i += 2
        term = term * r2 >> wh
    x = even + (odd * r >> wh)
    for _ in range(h):
        x = x * x >> wh
    return x >> h, 3 * i + 10 + 2 * abs(k)


def _halves(a, b, e):
    """floor(2 a 2^b / 10^e), a > 0: the halves of 10^e in a 2^b."""
    shift = b - e + 1
    if e < 0:
        a *= _power(5, -e)
        return a << shift if shift >= 0 else a >> -shift
    den = _power(5, e)
    return (a << shift) // den if shift >= 0 else a // (den << -shift)


def _decide(value, error, b, p, negative):
    """The Decimal, signed, that every magnitude in
    [value - error, value + error] 2^b but a tie at the lower end rounds to
    at p digits; None if the ends round half up apart, or the interval
    meets zero or a power of 10."""
    if value <= error:
        return None
    low, high = _power(10, p - 1), _power(10, p)
    e = math.floor(math.log10(value) + b * _LOG10_2) - p + 1
    for _ in range(3):  # the float estimate is off by at most one
        lo, hi = _halves(value - error, b, e), _halves(value + error, b, e)
        if hi >> 1 < low:
            e -= 1
        elif lo >> 1 >= high:
            e += 1
        elif lo >> 1 < low or hi >> 1 >= high:
            return None
        else:
            break
    else:
        return None
    q = (lo + 1) >> 1
    if q != (hi + 1) >> 1:
        return None
    if q == high:
        q, e = low, e + 1
    return decimal.Decimal(-q if negative else q).scaleb(e, _EXACT)


def ln(s, p):
    """ln s correctly rounded to p digits, s a positive finite Decimal; None
    where decimal must decide (s = 1, whose ln decimal gives as an exact 0,
    s <= 0, non-finite s, or a rounding too close to call).

    ln s = -y 2^-w + ln(1 + u), y 2^-w a float near -ln s and
    1 + u = s e^(y 2^-w) (_exp_fixed) within 2^-40 of 1, and
    ln(1 + u) = 2 atanh(z), z = u / (2 + u)."""
    if not s.is_finite() or s <= 0 or s == 1:
        return None
    n, e = _integer_ratio(s)
    if e < 0:
        d = _power(10, -e)
    else:
        n, d = n * _power(10, e), 1
    # ln s is about 2^-near_one: w carries that many more bits
    near_one = d.bit_length() - abs(n - d).bit_length()
    guess = math.log1p((n - d) / d) if near_one > 2 else math.log(n) - math.log(d)
    k = round(-guess / _LN2)
    w = _bits(p) + 8 + max(near_one, 0) + k.bit_length()
    a, b = guess.as_integer_ratio()
    y = (-a << w) // b
    x, error = _exp_fixed(y, k, w)
    # v = s x 2^k = 2^w s e^(y 2^-w) / (1 + delta), within one unit
    if k >= 0:
        v = (n * x << k) // d
    else:
        v = n * x // (d << -k)
    u = v - (1 << w)
    z = (abs(u) << w) // ((2 << w) + u)
    z2 = z * z >> w
    total = power = z
    i = 3
    while power:
        power = power * z2 >> w
        total += power // i
        i += 2
    # u is within 1.01 error + 1 units, and ln(1 + u) within 1.01 times
    # that; from the u computed, z is within one unit, each term within 2
    # and the tail under 1.1, so 2 atanh(z) is within 2i of its ln(1 + u)
    value = 2 * total if u > 0 else -2 * total
    value -= y
    return _decide(abs(value), 2 * error + 2 * i + 8, -w, p, value < 0)


def exp(y, p):
    """e^y correctly rounded to p digits, y a nonzero finite Decimal; None
    where decimal must decide (y = 0, whose exp decimal gives as an exact
    1, |y| past about MAX_K ln 2 or below 10^-(p + 20), or a rounding too
    close to call)."""
    if not y.is_finite() or not y or not -p - 20 <= y.adjusted() <= 6:
        return None
    n, e = _integer_ratio(y)
    k = round((n * _power(10, e) if e >= 0 else n / _power(10, -e)) / _LN2)
    if abs(k) > MAX_K:
        return None
    w = _bits(p) + 8 + k.bit_length()
    # y 2^w within one unit below; its error adds 1.01 units relative
    fixed = (n << w) * _power(10, e) if e >= 0 else (n << w) // _power(10, -e)
    x, error = _exp_fixed(fixed, k, w)
    # x (1 +- eps) = e^y 2^(w - k), so e^y 2^(w - k) is within 2 x eps of x
    # for eps <= 1/2
    return _decide(x, (x * (error + 2) >> (w - 1)) + 1, k - w, p, False)
