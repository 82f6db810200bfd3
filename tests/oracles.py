"""Independent oracles used to derive expected test values.

These deliberately avoid the library's own integration/inversion logic:
``grid_integral`` is a plain midpoint Riemann sum over the raw segment
description, ``bisect_cut`` inverts it by bisection,
``leaf_sum_value`` re-derives tree values from per-leaf densities, and
``max_revealed_heavy`` / ``revealed_critical_nodes`` /
``revealed_is_connected`` recount an adversary session's revealed labels
by full traversal, and ``critical_margin`` / ``rich_margin`` restate the
per-size density tests from ``math.log(beta)`` and
``math.log(1.5 - beta/2)``.  Slow and approximate by
design; exact expected values asserted in tests were first cross-checked
against these.  ``exact_verdicts`` and ``exact_piece_value`` are exact
instead: ``Fraction`` arithmetic on the rational labels ``H`` (the float
heavy label, exactly), ``L = (1 - H)/2`` and ``T = 1/3``, which sum to 1.
``scan_eval`` and ``scan_cut`` are exact too: segment-by-segment scans
of a step valuation, kept as the reference its table lookups must match
answer for answer, and ``fraction_dense_draw`` is
the step generator as first written in ``Fraction`` arithmetic, which the
integer generator must match draw for draw, with ``admits``, the band test
of one density, which ``verify_dense``'s integer test must match.  ``divmod_digits_of_index``
is the digit conversion as first written, one ``divmod`` per digit, which
the chunked ``index_path`` must match.  ``even_paz_order`` and
``reference_even_paz`` are Even-Paz's mark order and block recursion as
first written, with ``Fraction`` sort keys, which the float-first keys of
``order_marks`` must match.  ``transcript_lines_as_first_written`` is an
adversary session's transcript as first written, one ``json.dumps`` per
record, which the session's fragment encoder must match line for line.
``full_depth_prefix`` and ``full_depth_cut`` are a tree's prefix walk and
cut as first written, reading every level down to a leaf, which the
walks that stop once their float is settled must match float for float.
``PerNodeSession`` is an adversary session with its reveal rule as first
written, one call and one reveal per new node as a walk reaches it,
which the chain reveals must match reveal for reveal.
``dual_image`` and ``density`` are the piece dualization and the
value-per-width of a piece, computed from ``eval`` alone, and
``segment_loop_dual`` is the closed-form step dual as first written, a
``Fraction`` loop over segments, which the table swap must match.
"""

from __future__ import annotations

import json
import math
import random
import weakref
from bisect import bisect_right
from fractions import Fraction

from fairslice.adversary import AdversarySession
from fairslice.geometry import Interval, normalize_piece
from fairslice.valuation import PiecewiseConstantValuation
from fairslice.valuetree import _HEAVY_AT, HEAVY, TernaryTreeValuation, index_path, leaf_path


def grid_integral(segments, x, y, steps=200_000):
    """Midpoint-rule integral of a step density over [x, y].

    ``segments`` is a list of (left, right, density) triples covering [0,1].
    """
    x, y = float(x), float(y)
    if y <= x:
        return 0.0
    segments = [(float(left), float(right), float(density)) for left, right, density in segments]
    width = (y - x) / steps
    total = 0.0
    for k in range(steps):
        t = x + (k + 0.5) * width
        for left, right, density in segments:
            if left <= t < right:
                total += density * width
                break
        else:
            if t >= segments[-1][1]:  # t == 1 edge
                total += segments[-1][2] * width
    return total


def scan_eval(valuation, x, y):
    """Exact value of [x, y] under a step valuation, summed one segment
    at a time from the segment holding x."""
    bps, dens = valuation.breakpoints, valuation.densities
    x, y = Fraction(x), Fraction(y)
    if x == y:
        return Fraction(0)
    i = min(bisect_right(bps, x) - 1, len(dens) - 1)
    total = Fraction(0)
    while i < len(dens) and bps[i] < y:
        lo = max(bps[i], x)
        hi = min(bps[i + 1], y)
        if hi > lo:
            total += dens[i] * (hi - lo)
        i += 1
    return total


def scan_cut(valuation, x, r):
    """Smallest y with scan_eval(valuation, x, y) == r, or None, by a scan
    that accumulates segment masses from the segment holding x."""
    bps, dens = valuation.breakpoints, valuation.densities
    x, r = Fraction(x), Fraction(r)
    acc = Fraction(0)
    # Zero-density runs advance position without advancing mass; the
    # smallest answer sits at the start of such a run.
    earliest = x
    i = min(bisect_right(bps, x) - 1, len(dens) - 1)
    while i < len(dens):
        lo = max(bps[i], x)
        hi = bps[i + 1]
        density = dens[i]
        if density > 0 and hi > lo:
            if acc == r:
                return earliest
            gain = density * (hi - lo)
            if acc + gain >= r:
                return lo + (r - acc) / density
            acc += gain
            earliest = hi
        i += 1
    if acc == r:
        return earliest
    return None


def admits(bounds, density):
    """Whether one density lies in the band: ``alpha <= density``, and
    ``density <= beta`` unless the band is unbounded."""
    return bounds.alpha <= density and (bounds.beta is None or density <= bounds.beta)


def fraction_dense_draw(n_segments, bounds, seed, max_attempts=10_000):
    """(breakpoints, densities) of ``random_dense_valuation``'s draw, with
    the total mass, the rescaling and the band test done in ``Fraction``s."""
    rng = random.Random(seed)
    grid = max(8 * n_segments, 16)
    for _ in range(max_attempts):
        if n_segments == 1:
            bps = (Fraction(0), Fraction(1))
        else:
            interior = sorted(rng.sample(range(1, grid), n_segments - 1))
            bps = (Fraction(0), *(Fraction(k, grid) for k in interior), Fraction(1))
        raw = [Fraction(rng.randint(60, 140)) for _ in range(n_segments)]
        total = sum(r * (b - a) for a, b, r in zip(bps, bps[1:], raw))
        dens = [r / total for r in raw]
        if all(admits(bounds, d) for d in dens):
            return bps, tuple(dens)
    raise ValueError(f"no draw inside {bounds} after {max_attempts} attempts")


def dual_image(valuation, piece):
    """Image of a piece under ``t -> valuation.eval(0, t)``: its width is the
    piece's value, and its value under the dual is the piece's width."""
    return normalize_piece(
        Interval(valuation.eval(0, iv.left), valuation.eval(0, iv.right)) for iv in piece.intervals
    )


def density(valuation, piece):
    """Value per width of a piece of positive width."""
    return valuation.value_of_piece(piece) / piece.width


def segment_loop_dual(valuation):
    """Exact dual of a positive step valuation, built segment by segment: a
    segment of width w and density d becomes one of width d*w and density
    1/d, in the same order."""
    breakpoints = [Fraction(0)]
    densities = []
    for left, right, d in valuation.segments():
        breakpoints.append(breakpoints[-1] + d * (right - left))
        densities.append(1 / d)
    return PiecewiseConstantValuation(breakpoints, densities)


def bisect_cut(segments, x, r, tol=1e-12):
    """Smallest y with integral over [x, y] equal to r, by bisection.

    Returns None when even [x, 1] carries less than r (up to tol).
    """
    x, r = float(x), float(r)
    if grid_integral(segments, x, 1.0) < r - 1e-6:
        return None
    lo, hi = x, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if grid_integral(segments, x, mid, steps=20_000) < r:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def leaf_densities(tree):
    """Density of every leaf, derived from path label counts only.

    Walks each root-to-leaf digit path with the tree's labelling rule and
    applies the exponent formula directly, bypassing the tree's own value
    bookkeeping.
    """
    params = tree.params
    out = {}
    for index in range(params.n):
        digits = []
        rem = index
        for _ in range(params.depth):
            digits.append(rem % 3)
            rem //= 3
        digits.reverse()
        leaf = tree.node(bytes(digits))
        density = math.exp(
            leaf.h * math.log(params.beta)
            + leaf.q * math.log(1.5 - params.beta / 2.0)
        )
        out[index] = density
    return out


#: each tree's leaf densities, computed on its first leaf sum
_LEAF_DENSITIES = weakref.WeakKeyDictionary()


def leaf_sum_value(tree, x, y):
    """Tree value of [x, y] as a sum of per-leaf uniform contributions.

    Only practical for small trees; independent of the tree's prefix-descent
    evaluation.  Leaves outside ``[x, y]`` add nothing, so only leaves
    ``floor(x n)`` to ``ceil(y n) - 1`` are summed, in ascending order.
    """
    n = tree.params.n
    densities = _LEAF_DENSITIES.get(tree)
    if densities is None:
        densities = _LEAF_DENSITIES[tree] = leaf_densities(tree)
    x, y = Fraction(x), Fraction(y)
    total = 0.0
    for index in range(math.floor(x * n), math.ceil(y * n)):
        left = Fraction(index, n)
        right = Fraction(index + 1, n)
        lo = max(left, x)
        hi = min(right, y)
        if hi > lo:
            total += densities[index] * float(hi - lo)
    return total


def max_revealed_heavy(revealed):
    """Maximum number of revealed heavy edges on any root-to-leaf path, by a
    full traversal of the revealed labels (unrevealed subtrees contribute
    nothing).  ``revealed`` maps node-path bytes to label-kind triples."""
    best = 0
    stack = [(b"", 0)]
    while stack:
        path, heavies = stack.pop()
        kinds = revealed.get(path)
        if kinds is None:
            best = max(best, heavies)
            continue
        for c, kind in enumerate(kinds):
            stack.append((path + bytes((c,)), heavies + (1 if kind == "H" else 0)))
    return best


def _log_density(params, h, q):
    """log of beta^h * (3/2 - beta/2)^q, from the two logs directly."""
    return h * math.log(params.beta) + q * math.log(1.5 - params.beta / 2.0)


def critical_margin(params, h, q):
    """log(D * beta) - log 2 for density D at (h, q); positive is critical."""
    return _log_density(params, h + 1, q) - math.log(2.0)


def rich_margin(params, h, q):
    """log D - log(1/2) for density D at (h, q); positive is rich."""
    return _log_density(params, h, q) + math.log(2.0)


def exact_labels(params):
    """Exact value of each label kind: H, L = (1 - H)/2 and T = 1/3."""
    heavy = Fraction(params.heavy_label)
    return {"H": heavy, "L": (1 - heavy) / 2, "T": Fraction(1, 3)}


def exact_verdicts(params, h, q):
    """(critical, rich) at h heavy and q light edges, in ``Fraction``
    arithmetic: the exact density D = (3H)^h * (3L)^q (any 1/3 edges
    contribute 3T = 1) is critical when D * 3H > 2 and rich when D >= 1/2.
    Each test moves (3L)^q to the right-hand side, so no product is reduced
    to lowest terms."""
    labels = exact_labels(params)
    heavy, light = 3 * labels["H"], (3 * labels["L"]) ** q
    return heavy ** (h + 1) > 2 / light, heavy**h >= Fraction(1, 2) / light


def exact_piece_value(tree, piece):
    """Exact value of ``piece`` under ``tree``: each leaf's value is the
    product of the exact labels of the edges on its root path, read one
    node at a time from ``tree.node(prefix).label_kinds``, and it counts
    n times the width of the piece inside the leaf's cell."""
    params = tree.params
    n = params.n
    labels = exact_labels(params)
    leaves = {
        index
        for iv in piece.intervals
        for index in range(math.floor(iv.left * n), math.ceil(iv.right * n))
    }
    total = Fraction(0)
    for index in sorted(leaves):
        left, right = Fraction(index, n), Fraction(index + 1, n)
        overlap = sum(max(min(iv.right, right) - max(iv.left, left), 0) for iv in piece.intervals)
        digits = divmod_digits_of_index(index, params.depth)
        value = Fraction(1)
        for level, digit in enumerate(digits):
            value *= labels[tree.node(bytes(digits[:level])).label_kinds[digit]]
        total += value * overlap * n
    return total


def revealed_critical_nodes(revealed, params):
    """Revealed nodes whose density D satisfies D * beta > 2, by a
    traversal that counts heavy and light edges from the root and applies
    the density formula directly."""
    out = set()
    stack = [(b"", 0, 0)]
    while stack:
        path, h, q = stack.pop()
        kinds = revealed.get(path)
        if kinds is None:
            continue
        if critical_margin(params, h, q) > 0:
            out.add(path)
        for c, kind in enumerate(kinds):
            stack.append((path + bytes((c,)), h + (kind == "H"), q + (kind == "L")))
    return out


def revealed_is_connected(revealed):
    """Every revealed node's parent is revealed (or it is the root), by a
    scan of every revealed node path."""
    return all(path == b"" or path[:-1] in revealed for path in revealed)


def divmod_digits_of_index(index, depth):
    """Base-3 digits of ``index``, most significant first, one ``divmod``
    per digit."""
    digits = []
    for _ in range(depth):
        index, digit = divmod(index, 3)
        digits.append(digit)
    digits.reverse()
    return tuple(digits)


def even_paz_order(marks, mode):
    """Players by mark as Even-Paz first sorted them: ``(mark, player)``
    keys in cake mode and ``(-mark, player)`` in chore mode."""
    if mode == "cake":
        return sorted(marks, key=lambda p: (marks[p], p))
    return sorted(marks, key=lambda p: (-marks[p], p))


def reference_even_paz(valuations, mode):
    """Even-Paz on the valuations directly, ordered by ``even_paz_order``:
    the ``(left, right)`` block each player ends with, in player order."""
    blocks = [None] * len(valuations)

    def divide(players, a, b):
        if len(players) == 1:
            blocks[players[0]] = (a, b)
            return
        k = len(players) // 2
        marks = {
            p: valuations[p].cut(a, valuations[p].eval(a, b) * k / len(players))
            for p in players
        }
        ordered = even_paz_order(marks, mode)
        x = marks[ordered[k - 1]]
        divide(ordered[:k], a, x)
        divide(ordered[k:], x, b)

    divide(list(range(len(valuations))), Fraction(0), Fraction(1))
    return blocks


def transcript_lines_as_first_written(session):
    """An adversary session's log as JSON-lines: each record without its
    player, plus its reveals as path-digit and label lists, dumped by one
    compact ``json.dumps``."""
    lines = []
    for rec in session.log:
        obj = rec.to_json_obj()
        del obj["player"]
        obj["reveals"] = [{"path": list(path), "labels": list(kinds)} for path, kinds in rec.reveals]
        lines.append(json.dumps(obj, separators=(",", ":")))
    return lines


def full_depth_prefix(tree, t):
    """Mass of [0, t] by the prefix walk as first written: down t's whole
    leaf path, every level, reading ``tree._labels`` and adding the stored
    masses of the left siblings, then the share of t's leaf cell left of
    t."""
    t = Fraction(t)
    if t <= 0:
        return 0.0
    if t >= 1:
        return 1.0
    params = tree.params
    index, rem = divmod(t.numerator * params.n, t.denominator)
    path = bytes(divmod_digits_of_index(index, params.depth))
    sig = params.root
    mass = 0.0
    for i, c in enumerate(path):
        table = sig.table(tree._labels(path[:i], sig))
        if c:
            mass += table[0]
            if c == 2:
                mass += table[1]
        sig = table[2 + c]
    return mass + sig.value * (rem / t.denominator)


def full_depth_cut(tree, x, r):
    """``tree.cut(x, r)`` as first written: x's prefix mass by
    ``full_depth_prefix``, then a descent that reads ``tree._labels`` at
    every level down to a leaf and answers ``index / n + (1 / n) *
    within``, clamped at ``float(x)``; ``None`` past the end, and for every
    ``r > 1``."""
    x = Fraction(x)
    start = full_depth_prefix(tree, x)
    if r > 1:
        return None
    r = float(r)
    if r == 0:
        return float(x)
    target = start + r
    if target > 1.0 + 1e-12:
        return None
    params = tree.params
    n = params.n
    sig = params.root
    remaining = min(target, 1.0)
    index = 0
    path = b""
    for _ in range(params.depth):
        table = sig.table(tree._labels(path, sig))
        if table[0] >= remaining:
            chosen = 0
        else:
            remaining -= table[0]
            if table[1] >= remaining:
                chosen = 1
            else:
                remaining -= table[1]
                chosen = 2
        sig = table[2 + chosen]
        path += bytes((chosen,))
        index = index * 3 + chosen
    within = min(max(remaining / sig.value, 0.0), 1.0) if sig.value > 0 else 0.0
    return max(index / n + (1 / n) * within, float(x))


class PerNodeSession(AdversarySession):
    """An adversary session revealing level by level, as first written:
    each new node is revealed on its own, as a walk reaches it -- an eval
    endpoint's by a checker walking the endpoint's leaf path, with the
    on-path edge light and the heavy edge leftmost off it, a descent's by
    its reader, with the heavy edge left of the answer when the heavy
    child's mass falls short of the remaining mass, right of it otherwise
    -- keeping the books from that node's own signature.  Every endpoint
    walks its whole leaf path, even at t = 0 or 1 and on the leaf grid,
    independent of the session's chain reveals."""

    def _descent_labels(self, path, sig, remaining):
        heavy_first = sig.table(_HEAVY_AT[0])
        return self._reveal_node(path, sig, _HEAVY_AT[0 if heavy_first[0] < remaining else 2])

    def _reveal_node(self, path, sig, kinds):
        if path and path[:-1] not in self.revealed:
            self._orphans += 1
        self.revealed[path] = kinds
        self._heavy = max(self._heavy, sig.h + (HEAVY in kinds))
        return kinds

    def _prefix(self, t):
        key = (t.numerator, t.denominator)
        if key not in self._masses:
            leaf = leaf_path(t, self.params.depth)

            def reveal(path, sig):
                kinds = self.revealed.get(path)
                if kinds is None:
                    kinds = self._reveal_node(path, sig, _HEAVY_AT[1 if leaf[len(path)] == 0 else 0])
                return kinds

            self._walk(leaf, reveal)
        if 0 < t.numerator < t.denominator:
            return TernaryTreeValuation._prefix(self, t)
        self._masses[key] = float(t)
        return float(t)

    def _prefix_node(self, num, den, index, rem):
        return index_path(index, self.params.depth)

    def _settle_level(self, scale):
        # the mass walk reads every level, as first written
        return self.params.depth
