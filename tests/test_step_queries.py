"""Step-valuation eval/cut answers equal the segment scans of ``oracles``.

Equality is exact and the answer type is checked too: every answer is a
``Fraction`` (or ``None`` for a cut past the remaining mass), whatever the
number of segments and however large the common denominators of the
breakpoints and of the segment masses get.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fairslice.valuation import PiecewiseConstantValuation

from oracles import scan_cut, scan_eval

#: primes above 64, so that breakpoints k/p_i are distinct and their
#: common denominator is the product of the primes used
PRIMES = (67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
          149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
          229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311,
          313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401,
          409, 419, 421)
DEEP = 3**20


@st.composite
def step_valuations(draw):
    k = draw(st.integers(1, 64))
    if draw(st.booleans()):
        # Coprime denominators: the breakpoint and mass tables get large.
        interior = [Fraction(draw(st.integers(1, p - 1)), p) for p in PRIMES[: k - 1]]
    else:
        den = draw(st.sampled_from((64, 1000, DEEP)))
        interior = [Fraction(i, den) for i in draw(st.sets(st.integers(1, den - 1), min_size=k - 1, max_size=k - 1))]
    bps = [Fraction(0), *sorted(set(interior)), Fraction(1)]
    k = len(bps) - 1
    weights = draw(st.lists(
        st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 7, 11, 13))),
        min_size=k, max_size=k,
    ))
    if not any(weights):
        weights[draw(st.integers(0, k - 1))] = Fraction(1)
    total = sum(w * (b - a) for a, b, w in zip(bps, bps[1:], weights))
    return PiecewiseConstantValuation(bps, [w / total for w in weights])


def points(v):
    return st.one_of(
        st.sampled_from((Fraction(0), Fraction(1))),
        st.sampled_from(v.breakpoints),
        st.builds(Fraction, st.integers(0, DEEP), st.just(DEEP)),
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
    )


def masses(rest):
    """Cut targets for a start point with ``rest`` mass after it: zero, the
    exact rest, just above it, and fractions of it."""
    return st.one_of(
        st.just(Fraction(0)),
        st.just(rest),
        st.just(rest + Fraction(1, DEEP)),
        st.builds(lambda i: rest * Fraction(i, DEEP), st.integers(0, DEEP)),
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
    )


@settings(deadline=None)
@given(data=st.data())
def test_answers_equal_scans(data):
    v = data.draw(step_valuations())
    for _ in range(4):
        x, y = sorted(data.draw(points(v)) for _ in range(2))
        got = v.eval(x, y)
        assert got == scan_eval(v, x, y)
        assert type(got) is Fraction

        x = data.draw(points(v))
        r = data.draw(masses(scan_eval(v, x, 1)))
        got = v.cut(x, r)
        assert got == scan_cut(v, x, r)
        assert got is None or type(got) is Fraction


@settings(deadline=None)
@given(data=st.data())
def test_cut_edges(data):
    v = data.draw(step_valuations())
    x = data.draw(points(v))
    assert v.cut(x, 0) == x
    assert type(v.cut(x, 0)) is Fraction
    rest = v.eval(x, 1)
    assert v.cut(x, rest + Fraction(1, DEEP)) is None
    end = v.cut(x, rest)
    assert end == scan_cut(v, x, rest)
    assert v.eval(x, end) == rest
    assert v.cut(1, 0) == 1
    assert v.cut(1, Fraction(1, DEEP)) is None


@st.composite
def edge_zero_valuations(draw):
    """:func:`step_valuations`, with the first or last segment (or both)
    often set to density 0, the valuation rescaled to total mass 1."""
    v = draw(step_valuations())
    dens = list(v.densities)
    for i in draw(st.sampled_from(((0,), (-1,), (0, -1), ()))):
        zeroed = dens.copy()
        zeroed[i] = Fraction(0)
        if any(zeroed):
            dens = zeroed
    total = sum(d * (b - a) for a, b, d in zip(v.breakpoints, v.breakpoints[1:], dens))
    return PiecewiseConstantValuation(v.breakpoints, [d / total for d in dens])


@settings(deadline=None)
@given(data=st.data())
def test_queries_at_zero_and_one_equal_scans(data):
    # position 0 skips the segment search, the scans do not
    v = data.draw(edge_zero_valuations())
    x, y = data.draw(points(v)), data.draw(points(v))
    rs = (data.draw(masses(Fraction(1))), scan_eval(v, 0, y))
    cases = [
        (v.eval(0, y), scan_eval(v, 0, y)),
        (v.eval(x, 1), scan_eval(v, x, 1)),
        (v.eval(0, 1), scan_eval(v, 0, 1)),
        *((v.cut(0, r), scan_cut(v, 0, r)) for r in rs),
        *((v.cut(1, r), scan_cut(v, 1, r)) for r in rs),
    ]
    for got, want in cases:
        assert got == want
        assert type(got) is type(want)
    assert v.eval(0, 1) == 1
