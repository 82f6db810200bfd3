"""Valuation functions over [0, 1] and the exact piecewise-constant family.

A valuation is non-negative, additive, divisible and normalized
(``eval(0, 1) == 1``).  Protocols interact with valuations through two
query types only:

* ``eval(x, y)`` -- the value of the interval [x, y];
* ``cut(x, r)`` -- the smallest ``y`` with ``eval(x, y) == r``, or ``None``
  when the mass after ``x`` is below ``r`` (so for every exact ``r > 1``);
  ``r`` is checked by the one mass rule, :func:`~fairslice.geometry.cut_mass`.

``PiecewiseConstantValuation`` answers both queries in exact rational
arithmetic.  Tree-backed valuations (see ``valuetree``) answer in floats.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import InvalidInput, NonPositiveValuation
from .geometry import (
    CUT_START,
    EVAL_RANGE,
    ONE,
    ZERO,
    Piece,
    ScalarLike,
    as_scalar,
    cut_mass,
    scalar_str,
    unit_ratios,
)

Real = Union[Fraction, float]


def encode_real(value) -> object:
    """JSON encoding for query answers: rationals as "p/q" strings, floats
    as numbers, and None (no answer) as null."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return scalar_str(value)
    return float(value)


def is_heavy(width: Real, value: Real, n: int) -> bool:
    """The heavy-piece rule: ``width <= 1/n`` and ``value >= 1/(2n)``.

    Exact for ``Fraction``, ``float`` and ``int`` alike: each side is
    compared as the integer ratio it holds (denominators are positive),
    so no float bound rounds the verdict and no ``Fraction`` is built.
    Dualizing swaps width and value, so ``is_heavy(value, width, n)`` is
    the rule for a *light* piece.  A NaN or infinity is refused with
    :class:`InvalidInput`.

    >>> is_heavy(Fraction(1, 3), Fraction(1, 6), 3), is_heavy(0.25, float(Fraction(1, 6)), 3)
    (True, False)
    """
    try:
        wn, wd = width.as_integer_ratio()
        vn, vd = value.as_integer_ratio()
    except (OverflowError, ValueError):
        raise InvalidInput(f"heaviness needs finite numbers, got {width!r}, {value!r}") from None
    return wn * n <= wd and 2 * n * vn >= vd


class Valuation(ABC):
    """Abstract eval/cut interface."""

    @abstractmethod
    def eval(self, x: ScalarLike, y: ScalarLike) -> Real:
        """Value of [x, y]; requires 0 <= x <= y <= 1."""

    @abstractmethod
    def cut(self, x: ScalarLike, r: Real) -> Optional[Real]:
        """Smallest y with eval(x, y) == r, or None if eval(x, 1) < r (so for
        every r > 1); r is checked by :func:`~fairslice.geometry.cut_mass`."""

    @property
    def is_positive(self) -> bool:
        """True when every non-empty subinterval has positive value."""
        return False

    def take_reveals(self) -> tuple:
        """What the last answer revealed, handed over once: the query
        record's ``reveals``, ``(path, kinds)`` pairs.  Only an adversary
        session reveals anything."""
        return ()

    def value_of_piece(self, piece: Piece) -> Real:
        """The sum of ``eval`` over the piece's intervals; a one-interval
        piece's value is its ``eval``, with no sum to normalise."""
        if len(piece.intervals) == 1:
            (iv,) = piece.intervals
            return self.eval(iv.left, iv.right)
        total: Real = ZERO
        for iv in piece.intervals:
            total = total + self.eval(iv.left, iv.right)
        return total


@dataclass(frozen=True)
class DensityBounds:
    """An admissible density band [alpha, beta]; ``beta=None`` means +inf."""

    alpha: Fraction
    beta: Optional[Fraction]

    def __post_init__(self):
        alpha = as_scalar(self.alpha)
        beta = None if self.beta is None else as_scalar(self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        if not (ZERO <= alpha <= ONE):
            raise InvalidInput("need 0 <= alpha <= 1")
        if beta is not None and beta < ONE:
            raise InvalidInput("need beta >= 1 (or None for unbounded)")


#: what a step valuation's cut memo holds for a mass not asked yet
_UNASKED = object()


class PiecewiseConstantValuation(Valuation):
    """Step-density valuation with exact rational breakpoints and densities.

    ``breakpoints`` runs ``0 = b_0 < b_1 < ... < b_k = 1`` and segment ``i``
    carries constant density ``densities[i-1]``.  The densities must
    integrate to exactly 1; this is checked at construction.

    Every query is answered from two integer tables: ``_bkey[i] = b_i * G``
    over the common denominator ``G`` of the breakpoints, and
    ``_ckey[i] = eval(0, b_i) * L`` over the common denominator ``L`` of the
    segment masses (``_ckey[-1] == L`` is the mass check).  The prefix mass
    ``F(t) = eval(0, t)`` is linear between table entries, so ``eval`` and
    ``cut`` each take one ``bisect``, with no loop over segments, and
    position 0 takes none: ``cut(0, r)`` inverts ``r`` itself and
    ``eval(0, y)`` is ``y``'s prefix alone.  They read
    each argument's integer ratio once (positions through
    :func:`~fairslice.geometry.unit_ratios`, the one range rule, and the
    mass through ``as_integer_ratio``), run ``_prefix`` and ``_inverse`` on
    integers, and build one ``Fraction``: the answer.

    The tables are the only state that answers, ``==`` and ``hash`` depend
    on: ``breakpoints`` and ``densities`` are derived from them, and ``==``
    and ``hash`` compare them, which is exact since every source hands over
    canonical tables (entries with no common factor): the constructor's
    over the lcm of the given denominators,
    :func:`random_dense_valuation`'s divided by their gcds, and
    :func:`dual_pwc_closed_form`'s swapped.  All pass through ``_store``,
    which checks them on integers and is the only place they are set.

    Beside them ``_cuts`` remembers each ``cut(0, r)`` answer, ``None``
    included, by ``r``'s exact ratio: an answer never changes, and a dual
    asks its endpoints ``cut(0, t)`` over and over.  ``cut`` is its only
    writer, and nothing but ``cut`` reads it, so a warmed valuation
    compares, hashes and serializes as a fresh one.  It sits below the
    referee, which still counts and logs every repeated query.
    """

    __slots__ = ("_bkey", "_ckey", "_positive", "_cuts")

    def __init__(self, breakpoints: Sequence[ScalarLike], densities: Sequence[ScalarLike]):
        bps = tuple(as_scalar(b) for b in breakpoints)
        dens = tuple(as_scalar(d) for d in densities)
        if len(bps) != len(dens) + 1:
            raise InvalidInput("need exactly one more breakpoint than densities")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise InvalidInput("breakpoints must start at 0 and end at 1")
        bden = lcm(*(b.denominator for b in bps))
        masses = [d * (b - a) for a, b, d in zip(bps, bps[1:], dens)]
        mden = lcm(*(m.denominator for m in masses))
        self._store(
            tuple(b.numerator * (bden // b.denominator) for b in bps),
            (0, *accumulate(m.numerator * (mden // m.denominator) for m in masses)),
            mden,
        )

    def _store(self, bkey, ckey, mass_den: int) -> None:
        """Check the integer tables and set every slot.

        ``bkey`` must be strictly ascending, ``ckey`` must not descend (a
        segment of negative mass has a negative density) and must end at
        ``mass_den`` (total mass exactly 1).  A segment of zero mass makes
        the valuation not positive.
        """
        if any(a >= b for a, b in zip(bkey, bkey[1:])):
            raise InvalidInput("breakpoints must be strictly ascending")
        lowest = min(b - a for a, b in zip(ckey, ckey[1:]))
        if lowest < 0:
            raise InvalidInput("densities must be non-negative")
        if ckey[-1] != mass_den:
            raise InvalidInput(f"total mass must be exactly 1, got {Fraction(ckey[-1], mass_den)}")
        self._bkey = bkey
        self._ckey = ckey
        self._positive = lowest > 0
        #: cut(0, r) answers by the pairing of r's ratio (see cut)
        self._cuts: dict[int, Optional[Fraction]] = {}

    @classmethod
    def from_segments(cls, segments: Iterable[tuple[ScalarLike, ScalarLike]]) -> "PiecewiseConstantValuation":
        """Build from (end, density) pairs; the first segment starts at 0."""
        ends, dens = [], []
        for end, density in segments:
            ends.append(end)
            dens.append(density)
        return cls([ZERO, *ends], dens)

    @classmethod
    def uniform(cls) -> "PiecewiseConstantValuation":
        return cls((ZERO, ONE), (ONE,))

    @property
    def is_positive(self) -> bool:
        return self._positive

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """``0 = b_0 < b_1 < ... < b_k = 1``, each ``b_i = _bkey[i] / G``."""
        bkey = self._bkey
        return tuple(Fraction(b, bkey[-1]) for b in bkey)

    @property
    def densities(self) -> tuple[Fraction, ...]:
        """Each segment's mass over its width, ``(dc * G) / (db * L)`` for its
        rows ``db``, ``dc`` of the breakpoint and mass tables."""
        bkey, ckey = self._bkey, self._ckey
        return tuple(
            Fraction((c1 - c0) * bkey[-1], (b1 - b0) * ckey[-1])
            for b0, b1, c0, c1 in zip(bkey, bkey[1:], ckey, ckey[1:])
        )

    def segments(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """(left, right, density) triples."""
        bps = self.breakpoints
        return list(zip(bps, bps[1:], self.densities))

    def _prefix(self, p: int, q: int) -> tuple[int, int]:
        """``eval(0, p/q)`` as an unreduced (numerator, denominator) pair;
        ``(0, 1)`` at 0, with no segment search."""
        if not p:
            return 0, 1
        bkey, ckey = self._bkey, self._ckey
        # Segment i holds t: bkey[i] <= t * G < bkey[i + 1], or the last one.
        i = bisect_right(bkey, p * bkey[-1] // q, 0, len(bkey) - 1) - 1
        left, width = bkey[i], bkey[i + 1] - bkey[i]
        mass = ckey[i + 1] - ckey[i]
        return ckey[i] * width * q + mass * (p * bkey[-1] - left * q), ckey[-1] * width * q

    def _inverse(self, num: int, den: int) -> Optional[Fraction]:
        """Smallest t with ``eval(0, t) == num/den``, or None past the total
        mass; needs ``num/den > 0``, or a first segment of positive mass."""
        bkey, ckey = self._bkey, self._ckey
        # The first breakpoint k whose prefix mass reaches the target ends
        # segment k - 1, which has positive mass and holds the answer.
        k = bisect_left(ckey, -(-num * ckey[-1] // den), 1)
        if k == len(ckey):
            return None
        left, width = bkey[k - 1], bkey[k] - bkey[k - 1]
        mass = ckey[k] - ckey[k - 1]
        return Fraction(left * mass * den + width * (num * ckey[-1] - ckey[k - 1] * den), bkey[-1] * mass * den)

    def eval(self, x: ScalarLike, y: ScalarLike) -> Fraction:
        xn, xd, yn, yd = unit_ratios(x, y, EVAL_RANGE)
        xn, xd = self._prefix(xn, xd)
        yn, yd = self._prefix(yn, yd)
        return Fraction(yn * xd - xn * yd, yd * xd)

    def cut(self, x: ScalarLike, r: Real) -> Optional[Fraction]:
        # a dual asks every base cut from the constant ZERO, in range by construction
        xn, xd, _, _ = (0, 1, 0, 1) if x is ZERO else unit_ratios(x, ONE, CUT_START)
        # exact for a float too, so an r above 1 runs past the total mass in _inverse
        rn, rd = cut_mass(r).as_integer_ratio()
        if not rn:
            # x itself: the smallest t with eval(0, t) == eval(0, x) lies
            # before x when a zero-density run ends at x.
            return Fraction(xn, xd)
        if xn:
            xn, xd = self._prefix(xn, xd)
            return self._inverse(xn * rd + rn * xd, xd * rd)
        # cut(0, r) from memory: the Cantor pairing of (rn, rd) is one int
        # per ratio, a key that holds no container for the collector to track
        key = (rn + rd) * (rn + rd + 1) // 2 + rd
        answer = self._cuts.get(key, _UNASKED)
        if answer is _UNASKED:
            answer = self._cuts[key] = self._inverse(rn, rd)
        return answer

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewiseConstantValuation):
            return NotImplemented
        return self._bkey == other._bkey and self._ckey == other._ckey

    def __hash__(self) -> int:
        return hash((self._bkey, self._ckey))

    def __repr__(self) -> str:
        body = ", ".join(
            f"[{a},{b}]:{d}" for a, b, d in self.segments()
        )
        return f"PiecewiseConstantValuation({body})"

    def to_json(self) -> dict:
        return {
            "type": "piecewise_constant",
            "segments": [
                {"end": scalar_str(end), "density": scalar_str(d)}
                for _, end, d in self.segments()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PiecewiseConstantValuation":
        if obj.get("type") != "piecewise_constant":
            raise InvalidInput(f"expected type 'piecewise_constant', got {obj.get('type')!r}")
        segments = obj.get("segments")
        if not isinstance(segments, list) or not segments:
            raise InvalidInput("'segments' must be a non-empty list")
        pairs = []
        for j, seg in enumerate(segments):
            try:
                end = as_scalar(seg["end"])
                density = as_scalar(seg["density"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise InvalidInput(f"segments[{j}]: bad 'end'/'density': {exc}") from exc
            pairs.append((end, density))
        if pairs[-1][0] != ONE:
            raise InvalidInput("final segment end must be '1'")
        return cls.from_segments(pairs)


def verify_dense(valuation: PiecewiseConstantValuation, bounds: DensityBounds) -> bool:
    """Exact density-band check.

    For a step density the extremal subinterval density is attained inside a
    single segment, so checking each segment density is exhaustive.  Segment
    i has density ``(dc / L) / (db / G)`` for its rows ``db``, ``dc`` of the
    breakpoint and mass tables, so each band test is one integer
    cross-product against the band's numerator and denominator.
    """
    bkey, ckey = valuation._bkey, valuation._ckey
    alpha, beta = bounds.alpha, bounds.beta
    low_c, low_b = bkey[-1] * alpha.denominator, ckey[-1] * alpha.numerator
    # an unbounded band tests dc * 0 > db, which no segment passes
    high_c, high_b = (0, 1) if beta is None else (bkey[-1] * beta.denominator, ckey[-1] * beta.numerator)
    for b0, b1, c0, c1 in zip(bkey, bkey[1:], ckey, ckey[1:]):
        db, dc = b1 - b0, c1 - c0
        if dc * low_c < db * low_b or dc * high_c > db * high_b:
            return False
    return True


def dual_pwc_closed_form(valuation: PiecewiseConstantValuation) -> PiecewiseConstantValuation:
    """Exact dual of a positive step valuation: its two tables swapped.

    The dual's breakpoints are the base's prefix masses and the other way
    round, so a segment of width w and density d turns into one of width
    d*w and density 1/d, in the same order, and swapping twice is the
    identity.
    """
    if not valuation.is_positive:
        raise NonPositiveValuation("closed-form dual needs a positive valuation")
    dual = object.__new__(PiecewiseConstantValuation)
    dual._store(valuation._ckey, valuation._bkey, valuation._bkey[-1])
    return dual


#: draws :func:`random_dense_valuation` makes before it rejects the band
MAX_DRAW_ATTEMPTS = 10_000


def random_dense_valuation(
    n_segments: int,
    bounds: DensityBounds,
    seed: int,
) -> PiecewiseConstantValuation:
    """Seeded generator of normalized step valuations inside a density band.

    Draws random integer densities from 60 to 140 on a random breakpoint
    grid, so every drawn density is positive, rescales exactly to total
    mass 1, and rejects draws that leave the band, so the result passes
    :func:`verify_dense` by construction.  Deterministic in ``seed``, an
    ``int`` (not a ``bool``, nor ``None``, which draws from OS entropy).
    Breakpoint ``k / grid`` keeps its grid index ``k`` and segment ``i``
    the integer mass ``raw[i] * (k[i+1] - k[i])`` over their sum ``total``,
    so the band test runs in integers and the valuation's tables are these
    integers reduced by their gcds, as the constructor would compute them.
    No ``Fraction`` is built.
    """
    if n_segments.__class__ is not int:
        raise InvalidInput(f"n_segments must be an int, got {n_segments!r}")
    if n_segments < 1:
        raise InvalidInput("need at least one segment")
    if seed.__class__ is not int:
        raise InvalidInput(f"seed must be an int, got {seed!r}")
    if not isinstance(bounds, DensityBounds):
        raise InvalidInput(f"bounds must be a DensityBounds, got {bounds!r}")
    rng = random.Random(seed)
    grid = max(8 * n_segments, 16)
    alpha, beta = bounds.alpha, bounds.beta
    for _ in range(MAX_DRAW_ATTEMPTS):
        ks = (0, *sorted(rng.sample(range(1, grid), n_segments - 1)), grid)
        raw = [rng.randint(60, 140) for _ in range(n_segments)]
        masses = [r * (b - a) for a, b, r in zip(ks, ks[1:], raw)]
        # the raw mass is total / grid, so density i is raw[i] * grid / total
        total = sum(masses)
        if min(raw) * grid * alpha.denominator < alpha.numerator * total:
            continue
        if beta is not None and max(raw) * grid * beta.denominator > beta.numerator * total:
            continue
        # the gcd of the masses divides total, as the gcd of ks divides grid
        kg, mg = gcd(*ks), gcd(*masses)
        valuation = object.__new__(PiecewiseConstantValuation)
        valuation._store(
            tuple(k // kg for k in ks),
            (0, *accumulate(m // mg for m in masses)),
            total // mg,
        )
        return valuation
    raise InvalidInput(
        f"could not draw a valuation inside {bounds} after {MAX_DRAW_ATTEMPTS} attempts"
    )
