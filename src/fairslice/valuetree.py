"""Balanced ternary value-tree valuations.

A tree of depth d partitions [0, 1] into 3^d equal leaf cells.  Each
internal node splits its interval into thirds and labels the three child
edges so the labels sum to 1; a node's value is the product of the edge
labels on its root path, and leaves are uniform inside their cell.  Two
labelings occur:

* an ordinary node carries one *heavy* edge (label ``H = beta/3``) and two
  *light* edges (label ``(1 - H)/2``), where ``beta = 2**(6/ln n)``;
* a *critical* node -- one whose density D satisfies ``D * beta > 2`` --
  labels all three edges 1/3, which freezes the density from there down.

This keeps every subinterval's density in (0, 2] while letting short heavy
runs build density quickly: a leaf can only reach density >= 1/2 (or
criticality) when its path carries more than ``ln(n)/6 - 1`` heavy edges.
That threshold is what the adversary module exploits.

The node lookup, prefix masses, eval and cut all come from two walks of
:class:`TernaryTreeValuation`: a path walk along known digits, reading
labels through the reader its caller hands it, and a descent to a target
prefix mass.  Hashed trees, completions and the adversary session differ
only in their label source, so on shared labels they give the same floats
by construction.

A node path is the ``bytes`` of its base-3 digits, one byte per digit
(the root is ``b""``), in and out: one object is the dict key and the
blake2b label input, a session transcript writes its digits straight
from it, and each level's path that a walk hands its label reader is a C
slice of the leaf's bytes.
:func:`leaf_path` and :func:`index_path` make one from a position or a
leaf index, and every public method that takes a path refuses anything
else with :class:`InvalidInput`.  Each tree remembers the prefix mass of
every exact position it has walked, since protocols ask the same tree
about the same point again (Even-Paz evaluates a block's left end, then cuts from it).
That is sound because a node's labels never change once read: hashed and
completed labels are functions of the path, and a session binds every node
a walk reveals, so a second walk to the same point would return the same
float.  A prefix walk goes down t's leaf path, except that a t on the
leaf grid (``t * 3**depth`` an integer) stops at the largest node t is the
left end of, whose path is the leaf path without its trailing 0 digits:
a digit-0 level adds no mass, so the float is the full walk's.  In lowest
terms such a t is ``k / 3**j`` with ``j <= depth``, and that node's path
is made from k's own j base-3 digits, so a coarse position like
``k / 3**9`` converts 9 digits, not the depth's, and walks at most 9
levels.  A prefix walk and a descent also stop at the first node below
which no label can change their float, by the rounding arguments of
:meth:`~TernaryTreeValuation._walk` and :meth:`~TernaryTreeValuation._descend`:
for a position or mass in [1/10, 9/10] that is about 35 levels down, at
depth 60 or 200 alike.  An adversary session still reveals every
endpoint's whole leaf path before its prefix walk, which then stops
where its float is settled, and descends to a leaf.

What depends only on the tree's size is :class:`TreeParams`'s: label
values, the density and its log, the density tests, the adversary's query
threshold, and the root :class:`Signature` (a node's edge counts,
criticality and value).  :meth:`Signature.step` is the one per-edge rule:
it makes every child signature, and every tree, completion and session
of one size shares its signatures.  A walk reads a node's children from the
:class:`ChildTable` its signature keeps for the node's label kinds: the
masses ``value * label`` of children 0 and 1 and the three child
signatures, built once per (signature, kinds) from ``step``.  Node values
are per signature, so no walk multiplies values down a path; a prefix
mass adds the stored masses of the left siblings one at a time, in path
order.  A hashed tree's walk and descent keep one copy of its keyed
blake2b state, read each node's heavy edge from its digest and feed it
the digit taken; a single-node label read copies the keyed state and feeds
it the whole path.  Both give the digest of a fresh keyed hash of the path.
Any other walk reads first the labels its tree keeps by path -- a
session's revealed labels, or a completion's -- and calls its reader only
for a node not among them, when the reader is the tree's own
(:meth:`~TernaryTreeValuation._known_labels`); a checker, or a reader a
subclass overrides, is called at every node.

Answers are floats, but every criticality and richness verdict is exact
and every node value is correctly rounded: both come from the rational
labels ``H`` (the float heavy label, exactly), ``L = (1 - H)/2`` and
``T = 1/3``, which sum to exactly 1.  A verdict is one integer
comparison, a value one integer division, each once per signature.  A
heaviness verdict reads no float either: :meth:`~TernaryTreeValuation.leaf_masses`
gives a narrow piece's mass in each leaf it overlaps as a ``Fraction``,
from the leaf signature's exact value.  Log densities, leaf profiles and
the low-heavy density cap come from the same labels.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from hashlib import blake2b
from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .errors import InvalidInput, PreconditionViolation
from .geometry import CUT_START, EVAL_RANGE, ONE, Piece, above_one, cut_mass, unit_span
from .valuation import Valuation, is_heavy

LN3 = math.log(3.0)
#: tree levels per binary order of magnitude
_LOG3_2 = math.log(2.0) / LN3
#: the lowest level :meth:`TernaryTreeValuation._settle_level` gives a
#: position below 1, whose float has a binary exponent of at most 0
_SETTLE_FLOOR = int(53 * _LOG3_2) - 2

HEAVY = "H"
LIGHT = "L"
THIRD = "T"

#: label kinds of an ordinary node whose heavy edge is child i, and of a critical node
_HEAVY_AT = ((HEAVY, LIGHT, LIGHT), (LIGHT, HEAVY, LIGHT), (LIGHT, LIGHT, HEAVY))
_THIRDS = (THIRD, THIRD, THIRD)

#: path bytes of one step to child 0, 1 or 2
_STEP = (b"\x00", b"\x01", b"\x02")

#: no known labels: what a walk reads first when its reader is not a tree's own
_NO_LABELS: Mapping[bytes, tuple[str, str, str]] = MappingProxyType({})

#: minimum depth for the density guarantees to hold (gives beta/3 < 1/2)
STRICT_MIN_DEPTH = 11

#: permissive floor: below depth 4 the light label (1 - beta/3)/2 goes negative
PERMISSIVE_MIN_DEPTH = 4

#: largest depth for which whole-tree enumeration is supported (3^11 leaves)
EAGER_MAX_DEPTH = 11

#: sup over n of the density reachable with at most ln(n)/6 heavy edges
LOW_HEAVY_DENSITY_LIMIT = 2.0 ** (1.5 - 3.0 / LN3)


@dataclass(frozen=True)
class TreeParams:
    """Size-derived constants and density tests of a balanced value tree.

    The depth fixes everything else: the leaf count ``n``, ``beta``, the
    label values, log density factors, threshold and root signature are made on
    first use and kept on the instance; equality and hashing see only the
    two fields, so equal params share one root signature.
    """

    depth: int
    permissive: bool = False

    def __post_init__(self):
        depth = self.depth
        _check_depth(depth)
        if depth < PERMISSIVE_MIN_DEPTH:
            raise InvalidInput(
                f"depth {depth} < {PERMISSIVE_MIN_DEPTH}: edge labels would not be positive"
            )
        if depth < STRICT_MIN_DEPTH and not self.permissive:
            raise InvalidInput(
                f"depth {depth} < {STRICT_MIN_DEPTH}: density guarantees need "
                f"n >= 3^{STRICT_MIN_DEPTH} (pass permissive=True for unit-test sizes)"
            )
        if not self.permissive and not (1.0 / 3.0 <= self.heavy_label < 0.5):
            raise InvalidInput(f"heavy label beta/3 = {self.heavy_label} outside [1/3, 1/2)")

    @classmethod
    def from_depth(cls, depth: int, permissive: bool = False) -> "TreeParams":  # only the benchmark and tests call this
        return cls(depth, permissive)

    @cached_property
    def n(self) -> int:
        """Leaf count, 3^depth."""
        return 3**self.depth

    @cached_property
    def beta(self) -> float:
        """The heavy-edge factor 2**(6/ln n)."""
        return 2.0 ** (6.0 / (self.depth * LN3))

    @cached_property
    def heavy_label(self) -> float:
        return self.beta / 3.0

    @cached_property
    def light_label(self) -> float:
        """``(1 - H)/2`` for the heavy label ``H``, correctly rounded."""
        a, den = self.heavy_label.as_integer_ratio()
        return (den - a) / (2 * den)

    @cached_property
    def label_values(self) -> dict[str, float]:
        """Edge-label value of each label kind, read by the tree walks."""
        return {HEAVY: self.heavy_label, LIGHT: self.light_label, THIRD: 1.0 / 3.0}

    @cached_property
    def threshold(self) -> int:
        """Queries the adversary's refutation guarantee covers: the largest m,
        or 0, at which 2m heavy edges give no critical node and no rich leaf
        (``critical_counts(2m, 0)``, ``rich_counts(2m, depth - 2m)``); both grow with m."""
        h = 2
        while not (self.critical_counts(h, 0) or self.rich_counts(h, self.depth - h)):
            h += 2
        return h // 2 - 1

    @cached_property
    def _grid_levels(self) -> dict[int, int]:
        """The level j of each denominator ``3**j`` with ``1 <= j <= depth``,
        the denominators in lowest terms of the positions inside (0, 1) on
        the leaf grid."""
        return {3**j: j for j in range(1, self.depth + 1)}

    @cached_property
    def _density_factors(self) -> tuple[int, int, int]:
        """(3a, 3(2^e - a), e) for the heavy label ``H = a/2^e`` taken
        exactly: ``3H = 3a/2^e`` and ``3L = 3(2^e - a)/2^(e+1)``."""
        a, den = self.heavy_label.as_integer_ratio()
        return 3 * a, 3 * (den - a), den.bit_length() - 1

    @cached_property
    def _log_factors(self) -> tuple[float, float]:
        """``(log 3H, log 3L)``, each the ``log1p`` of the correctly rounded
        ``3H - 1`` or ``3L - 1``."""
        heavy, light, e = self._density_factors
        one = 1 << e
        return math.log1p((heavy - one) / one), math.log1p((light - 2 * one) / (2 * one))

    def log_density(self, h: float, q: float) -> float:
        """log of the density ``(3H)^h * (3L)^q`` at ``h`` heavy and ``q``
        light edges; real ``h`` and ``q`` interpolate it."""
        log_heavy, log_light = self._log_factors
        return h * log_heavy + q * log_light

    def _scaled_density(self, h: int, q: int) -> tuple[int, int]:
        """(m, s) with ``(3H)^h * (3L)^q == m / 2^s`` exactly."""
        heavy, light, e = self._density_factors
        return heavy**h * light**q, e * h + (e + 1) * q

    def critical_counts(self, h: int, q: int) -> bool:
        """D * 3H > 2 for the exact density D at (h, q).

        >>> TreeParams(11).critical_counts(1, 0), TreeParams(11).critical_counts(2, 0)
        (False, True)
        """
        m, s = self._scaled_density(h + 1, q)
        return m > 1 << (s + 1)

    @cached_property
    def root(self) -> "Signature":
        """Signature of the root, shared by every params equal to this one."""
        root = _ROOTS.get(self)
        if root is None:
            root = _ROOTS[self] = Signature(self, 0, 0, 0, self.critical_counts(0, 0), {})
        return root

    def rich_counts(self, h: int, q: int) -> bool:
        """The exact density at (h, q) is at least 1/2."""
        m, s = self._scaled_density(h, q)
        return m << 1 >= 1 << s

    def classify(self, h: int, q: int, critical: bool) -> str:
        """'critical', 'rich' (non-critical, density >= 1/2) or 'neither'
        for a leaf with ``h`` heavy and ``q`` light edges."""
        if critical:
            return "critical"
        return "rich" if self.rich_counts(h, q) else "neither"


class ChildTable(NamedTuple):
    """One node's children under one label-kind triple, as the walks read
    them: the masses ``value * label`` of children 0 and 1, and the three
    child signatures."""

    mass0: float
    mass1: float
    sig0: "Signature"
    sig1: "Signature"
    sig2: "Signature"


class Signature:
    """What the edge kinds on a node's root path fix: its ``h`` heavy, ``q``
    light and ``z`` 1/3 edges, whether it is critical (inherited, or else
    tested at its own counts), and its ``value``, the correctly rounded
    float of :attr:`exact_value`, ``H^h * L^q * T^z``.  Interned per tree
    size by the first four -- a session may reveal ordinary labels below a
    critical node, so equal counts can differ in the flag -- and reached from
    :attr:`TreeParams.root`; ``children`` holds the steps taken so far, and
    ``tables`` the :class:`ChildTable` of each label-kind triple a walk has
    read here (at most four: three heavy placements and the thirds).
    """

    __slots__ = ("h", "q", "z", "critical", "value", "children", "tables", "_params", "_interned", "_own")

    def __init__(self, params: TreeParams, h: int, q: int, z: int, critical: bool, interned: dict):
        self.h, self.q, self.z, self.critical = h, q, z, critical
        m, s = params._scaled_density(h, q)  # (3H)^h * (3L)^q == m / 2^s, exactly
        self.value = m / (3 ** (h + q + z) << s)
        self.children: dict[str, Signature] = {}
        self.tables: dict[tuple[str, str, str], ChildTable] = {}
        self._params, self._interned = params, interned
        self._own: Optional[bool] = None
        interned[h, q, z, critical] = self

    @property
    def own_critical(self) -> bool:
        """The density test at this node's own counts, not the inherited
        flag; run at most once per signature.  A flag that is not set was
        decided by that very test (in :meth:`step`, or at the root), so only
        a critical signature runs it here: below a critical node a lighter
        child inherits the flag but may fail the test itself."""
        own = self._own
        if own is None:
            own = self._own = self.critical and self._params.critical_counts(self.h, self.q)
        return own

    @property
    def exact_value(self) -> Fraction:
        """``H^h * L^q * T^z`` as a ``Fraction``, made on each read (no walk
        pays for it): the number :attr:`value` is rounded from.

        >>> heavy = Fraction(TreeParams(11).heavy_label)
        >>> sig = TreeParams(11).root.step(HEAVY).step(LIGHT)
        >>> sig.exact_value == heavy * (1 - heavy) / 2
        True
        >>> float(sig.exact_value) == sig.value
        True
        """
        m, s = self._params._scaled_density(self.h, self.q)
        return Fraction(m, 3 ** (self.h + self.q + self.z) << s)

    def step(self, kind: str) -> "Signature":
        """Signature of the child across an edge of ``kind``: the one place
        an edge is counted.  A new child tests criticality unless it
        inherits it."""
        child = self.children.get(kind)
        if child is None:
            h, q, z = self.h, self.q, self.z
            if kind == HEAVY:
                h += 1
            elif kind == LIGHT:
                q += 1
            else:
                z += 1
            key = (h, q, z, self.critical or self._params.critical_counts(h, q))
            child = self._interned.get(key) or Signature(self._params, *key, self._interned)
            self.children[kind] = child
        return child

    def table(self, kinds: tuple[str, str, str]) -> ChildTable:
        """The :class:`ChildTable` of this node labeled ``kinds``, built on
        first use: each child mass is the one product ``value * label`` a
        walk would form, and each child comes from :meth:`step`."""
        table = self.tables.get(kinds)
        if table is None:
            label_of, value = self._params.label_values, self.value
            table = self.tables[kinds] = ChildTable(
                value * label_of[kinds[0]],
                value * label_of[kinds[1]],
                *map(self.step, kinds),
            )
        return table


#: root signature of each tree size.  Keyed by the params value, so params
#: read back separately with equal values still share every signature.
_ROOTS: dict[TreeParams, Signature] = {}


def _check_depth(depth: int) -> None:
    if depth.__class__ is not int or depth < 0:
        raise InvalidInput(f"depth must be an int >= 0, got {depth!r}")


def leaf_path(t: Fraction, depth: int) -> bytes:
    """Node path of the leaf whose cell contains t (t=1 maps to the last
    leaf).  A t outside [0, 1], or a depth not an ``int >= 0``, is refused."""
    _check_depth(depth)
    t, _ = unit_span(t, ONE, "leaf position needs 0 <= t <= 1, got {x}")
    n = 3**depth
    return _index_path(min(math.floor(t * n), n - 1), depth)


def _piece_leaves(piece: Piece, n: int) -> list[int]:
    """Sorted indices of the leaf cells a piece overlaps with positive width."""
    leaves = set()
    for iv in piece.intervals:
        lo, hi = math.floor(iv.left * n), math.ceil(iv.right * n) - 1
        leaves.update(range(max(lo, 0), min(hi, n - 1) + 1))
    return sorted(leaves)


#: digits per chunk of :func:`index_path`, and the path bytes of every
#: chunk value, built on first use
_CHUNK_DIGITS = 6
_CHUNK = 3**_CHUNK_DIGITS
_CHUNK_PATHS: list[bytes] = []


def index_path(index: int, depth: int) -> bytes:
    """Node path of leaf ``index`` at ``depth``: its base-3 digits, most
    significant first.  An index not an ``int`` (a bool is not) or outside
    ``[0, 3**depth)``, or a bad depth, is refused.

    >>> index_path(5, 3)
    b'\\x00\\x01\\x02'
    """
    _check_depth(depth)
    if index.__class__ is not int:
        raise InvalidInput(f"leaf index must be an int, got {index!r}")
    if not 0 <= index < 3**depth:
        raise InvalidInput(f"leaf index {index} outside [0, 3**{depth})")
    return _index_path(index, depth)


def _index_path(index: int, depth: int) -> bytes:
    """:func:`index_path` unchecked, converted six digits per step."""
    table = _CHUNK_PATHS or _chunk_paths()
    chunks = -(-depth // _CHUNK_DIGITS)
    parts = [b""] * chunks
    for i in range(chunks - 1, -1, -1):
        index, low = divmod(index, _CHUNK)
        parts[i] = table[low]
    return b"".join(parts)[chunks * _CHUNK_DIGITS - depth :]


def _chunk_paths() -> list[bytes]:
    _CHUNK_PATHS.extend(map(bytes, product(range(3), repeat=_CHUNK_DIGITS)))
    return _CHUNK_PATHS


def _node_key(path: bytes, depth: int) -> bytes:
    """``path`` itself, refused unless it is node-path bytes of at most
    ``depth`` digits, each 0, 1 or 2."""
    if not isinstance(path, bytes):
        raise InvalidInput(f"a node path is bytes of base-3 digits, got {path!r}")
    if len(path) > depth or path.strip(b"\x00\x01\x02"):
        raise InvalidInput(
            f"bad node path {path!r}: needs at most {depth} digits, each 0, 1 or 2"
        )
    return path


class NodeVisit(NamedTuple):
    """One node: what :meth:`TernaryTreeValuation.node` returns and
    :meth:`TernaryTreeValuation.iter_nodes` yields."""

    depth: int
    h: int  # heavy edges on the root path
    q: int  # light edges
    z: int  # 1/3 edges below a critical ancestor
    critical: bool
    value: float
    label_kinds: Optional[tuple[str, str, str]]  # None for leaves

    @property
    def is_leaf(self) -> bool:
        return self.label_kinds is None


class TernaryTreeValuation(Valuation, ABC):
    """Shared eval/cut and node bookkeeping over any edge-label source.

    Subclasses decide the label kinds of a node's child edges via
    :meth:`_labels`, from its path and :class:`Signature`; everything else
    (the per-node lookup :meth:`node`, prefix masses, query answering) is
    derived here from two walks: :meth:`_walk` follows a known node path,
    reading the labels its caller hands it (:meth:`_path_labels` for a
    query, the read-only :meth:`_labels` for :meth:`node`, a checker for
    :func:`verify_labeling`), and :meth:`_descend` a target prefix mass,
    reading :meth:`_descent_labels`.  Fixed labelings alias both query
    hooks to :meth:`_labels`.  The public methods check a path once with
    :func:`_node_key`; the walks and their readers pass paths the walks
    made themselves, unchecked.
    """

    #: whether :meth:`_descend` reads every level down to a leaf, as an
    #: adversary session's must to reveal the answer's leaf path, and not
    #: only down to where its float is settled
    _descends_to_leaf = False

    def __init__(self, params: TreeParams):
        self.params = params
        #: prefix mass of each position walked, keyed by (numerator, denominator)
        self._masses: dict[tuple[int, int], float] = {}

    # -- labeling ----------------------------------------------------------

    @abstractmethod
    def _labels(self, path: bytes, sig: Signature, step=None) -> tuple[str, str, str]:
        """Edge-label kinds (HEAVY/LIGHT/THIRD) of the three children of the
        node at ``path``, whose :class:`Signature` is ``sig``: the label
        source, read-only; a path walk's ``step`` is ignored."""

    @abstractmethod
    def _path_labels(self, path: bytes, sig: Signature, step=None) -> tuple[str, str, str]:
        """Labels a query's prefix walk reads at ``path`` before stepping
        to child ``step``."""

    @abstractmethod
    def _descent_labels(self, path: bytes, sig: Signature, remaining: float) -> tuple[str, str, str]:
        """Labels a mass descent reads at ``path`` with ``remaining`` mass to pass."""

    def _running_state(self, labels):
        """For a walk reading ``labels``: a blake2b state holding the keyed
        hash of the path so far, whose digest gives a non-critical node's
        heavy edge as :meth:`BalancedValueTree._labels` reads it, and which
        the walk feeds one digit per level in place of calling ``labels``;
        or None, the default, for a walk that calls ``labels`` at every node."""
        return None

    def _known_labels(self, labels) -> Mapping[bytes, tuple[str, str, str]]:
        """For a walk reading ``labels`` without a running state: the labels
        by node path that ``labels`` returns as they are, which the walk
        reads first and calls ``labels`` only for a node not in it -- a
        session's revealed labels, or a completion's, when ``labels`` is the
        tree's own reader.  Empty, the default, for any other reader, so a
        checker or an override still sees every node."""
        return _NO_LABELS

    # -- the two walks -------------------------------------------------------

    def _walk(self, node: bytes, labels, settle: Optional[int] = None) -> tuple[float, Signature]:
        """(prefix mass, signature) of the node at path ``node``, reading
        each node passed from the :meth:`_running_state` the tree keeps for
        ``labels``, or else from its :meth:`_known_labels` for that reader,
        calling ``labels(path, sig, step)`` only for a node not there; the
        mass adds, level by level, the stored masses of the left siblings from
        the node's :class:`ChildTable`, child 0 before child 1.

        Given a level ``settle``, the walk stops at the first node at that
        level or deeper with ``sig.value * 2 < ulp(mass)`` and ``mass > 0``,
        and returns that node's (mass, signature).  Every term the rest of
        the walk would add -- a left sibling's stored mass, and the
        caller's leaf share ``sig.value * (rem / den)`` -- is a correctly
        rounded product of a factor at most 1 and the value of this node or
        a descendant, which is rounded from a smaller exact product; so
        each term is at most ``sig.value``, below half an ulp of ``mass``,
        and round to nearest leaves ``mass`` as it is, term after term.
        Without
        ``settle`` (node lookups, ``leaf_masses``, ``verify_labeling``) the
        walk reads every level and returns the node's own signature.
        """
        sig = self.params.root
        mass = 0.0
        if settle is None:
            settle = len(node)
        keyed = self._running_state(labels)
        if keyed is None:
            known = self._known_labels(labels)
        for i, c in enumerate(node):
            if i >= settle and mass > 0 and sig.value * 2 < math.ulp(mass):
                break
            if keyed is None:
                kinds = known.get(path := node[:i]) or labels(path, sig, c)
            elif sig.critical:
                kinds = _THIRDS
            else:
                # BalancedValueTree._labels of node[:i], which keyed has
                # been fed; every node below a critical one is critical and
                # reads no digest, so the state is fed only here
                kinds = _HEAVY_AT[sum(keyed.digest()) % 3]
                keyed.update(_STEP[c])
            # sig.table(kinds) with the lookup inlined, as it runs at every
            # level; entries by index
            table = sig.tables.get(kinds) or sig.table(kinds)
            if c:
                mass += table[0]
                if c == 2:
                    mass += table[1]
            sig = table[2 + c]
        return mass, sig

    def _descend(self, target: float) -> float:
        """Leftmost point whose prefix mass is ``target``.

        Tracks the remaining mass incrementally; the test of a child's
        stored mass ``value * label >= remaining`` (from the node's
        :class:`ChildTable`) is the only comparison, so a lazy labeling that
        decides a node by the same stored mass routes the descent exactly
        where it intends.  The answer is ``index / n + (1 / n) * within``
        for the chosen leaf ``index``: int true division rounds correctly,
        so this is the float of the leaf's exact left end plus its width
        times the fraction ``within``.

        Unless :attr:`_descends_to_leaf`, from level :meth:`_settle_level`
        of the target on, the descent stops at the node covering leaves
        ``[lo, lo + span)`` once ``lo / n == (lo + span - 1) / n`` and ``2 *
        (1 / n) < ulp(lo / n)``, and answers ``lo / n``: int true division
        is correctly rounded and monotone, so ``index / n`` is that float
        for every leaf below, and ``(1 / n) * within <= 1 / n`` is under
        half its ulp, so the sum rounds back to it.
        """
        params = self.params
        n, depth = params.n, params.depth
        sig = params.root
        remaining = target
        index = 0
        path = b""
        settle = depth if self._descends_to_leaf else self._settle_level(target)
        labels = self._descent_labels
        keyed = self._running_state(labels)
        if keyed is None:
            known = self._known_labels(labels)
        for i in range(depth):
            if i >= settle:
                span = 3 ** (depth - i)
                lo = index * span
                left = lo / n
                if left == (lo + span - 1) / n and 2 * (1 / n) < math.ulp(left):
                    return left
            if keyed is None:
                kinds = known.get(path) or labels(path, sig, remaining)  # as in _walk
            elif sig.critical:
                kinds = _THIRDS
            else:
                kinds = _HEAVY_AT[sum(keyed.digest()) % 3]  # as in _walk
            table = sig.tables.get(kinds) or sig.table(kinds)  # as in _walk
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
            if keyed is None:
                path += _STEP[chosen]
            else:
                keyed.update(_STEP[chosen])
            index = index * 3 + chosen
        within = min(max(remaining / sig.value, 0.0), 1.0) if sig.value > 0 else 0.0
        return index / n + (1 / n) * within

    def node(self, path: bytes) -> NodeVisit:
        """The node at ``path``, as :meth:`iter_nodes` would yield it: one
        path walk reading :meth:`_labels`, plus the node's own labels unless
        it is a leaf."""
        node = _node_key(path, self.params.depth)
        _, sig = self._walk(node, self._labels)
        kinds = None if len(node) == self.params.depth else self._labels(node, sig)
        return NodeVisit(len(node), sig.h, sig.q, sig.z, sig.critical, sig.value, kinds)

    def classify_leaf(self, path: bytes) -> str:
        """'critical', 'rich' (non-critical, density >= 1/2) or 'neither'."""
        depth = len(_node_key(path, self.params.depth))
        if depth != self.params.depth:
            raise InvalidInput(f"not a leaf path: depth {depth} != {self.params.depth}")
        leaf = self.node(path)
        return self.params.classify(leaf.h, leaf.q, leaf.critical)

    # -- valuation interface ---------------------------------------------------

    @property
    def is_positive(self) -> bool:
        return True  # all edge labels are positive

    def _prefix(self, t: Fraction) -> float:
        """Mass of [0, t], walked the first time t is asked for: the prefix
        mass of the node :meth:`_prefix_node` picks, plus the part of t's
        leaf cell left of t (nothing when t starts that node)."""
        num, den = t.numerator, t.denominator
        if num <= 0:
            return 0.0
        if num >= den:
            return 1.0
        mass = self._masses.get((num, den))
        if mass is None:
            # t * n = index + rem / den: t lies rem / den of the way into
            # leaf cell ``index``
            index, rem = divmod(num * self.params.n, den)
            mass = self._walk_prefix(num, den, rem, self._prefix_node(num, den, index, rem))
        return mass

    def _walk_prefix(self, num: int, den: int, rem: int, node: bytes) -> float:
        """The prefix mass of ``t = num / den``, ``0 < t < 1``, walked to
        ``node``, its :meth:`_prefix_node`, and remembered: the node's
        prefix mass plus the part ``rem / den`` of its leaf cell left of t."""
        # a node above the lowest settle level is read to its end anyway
        settle = self._settle_level(num / den) if len(node) > _SETTLE_FLOOR else None
        mass, sig = self._walk(node, self._path_labels, settle)
        mass += sig.value * (rem / den)
        self._masses[num, den] = mass
        return mass

    def _prefix_node(self, num: int, den: int, index: int, rem: int) -> bytes:
        """Path of the node a prefix walk ends at, for ``t = num / den`` in
        lowest terms, ``0 < t < 1``, lying ``rem / den`` of the way into
        leaf cell ``index``: the leaf, or, for the left end of the leaf
        (``rem == 0``), the largest node t starts -- the leaf path without
        its trailing 0 digits.  There ``den == 3**j`` with ``j <= depth``,
        and that path is num's own j base-3 digits, whose last is not 0, as
        3 does not divide num.  Both walks give the same float: a digit-0
        level adds no mass, and the term after the walk is ``sig.value *
        0.0`` either way."""
        if rem:
            return _index_path(index, self.params.depth)
        return _index_path(num, self.params._grid_levels[den])

    def _settle_level(self, scale: float) -> int:
        """Level from which a prefix walk to a position near ``scale``, or a
        descent to the target mass ``scale``, tests whether its float is
        settled.  A node at level i has a value of about ``density * 3**-i``
        (density in (0, 2]) and covers ``3**-i`` of [0, 1], so neither test
        can pass much before the level where ``3**-i`` falls under an ulp
        of ``scale``: ``log3(2**53 / scale)``, taken here two levels early.
        Only the tests decide where a walk stops; this level only spares
        the levels above it from them.  For a position below 1 it is at
        least ``_SETTLE_FLOOR``, so a prefix walk to a shorter node skips
        it; an override may raise the level, not lower it."""
        return int((53 - math.frexp(scale)[1]) * _LOG3_2) - 2

    def eval(self, x, y) -> float:
        x, y = unit_span(x, y, EVAL_RANGE)
        start = self._prefix(x)
        return max(self._prefix(y) - start, 0.0)

    def cut(self, x, r) -> Optional[float]:
        x, _ = unit_span(x, ONE, CUT_START)
        r = cut_mass(r)
        start = self._prefix(x)  # walked even for r == 0 or r > 1: a session reveals x's path
        if above_one(r):  # on the exact r, which float(r) could round to 1 or overflow
            return None
        r = float(r)
        if r == 0:
            return float(x)
        target = start + r
        if target > 1.0 + 1e-12:
            return None
        # the answer is at least x, so a descent below float(x) is rounding
        return max(self._descend(min(target, 1.0)), float(x))

    # -- whole-tree enumeration --------------------------------------------------

    def iter_nodes(self) -> Iterator[NodeVisit]:
        """Preorder walk over every node; depth capped at 3^11 leaves."""
        params = self.params
        if params.depth > EAGER_MAX_DEPTH:
            raise InvalidInput(
                f"whole-tree enumeration supports depth <= {EAGER_MAX_DEPTH}; "
                f"use lazy node queries at depth {params.depth}"
            )
        stack: list[tuple[bytes, Signature]] = [(b"", params.root)]
        while stack:
            path, sig = stack.pop()
            depth = len(path)
            kinds = None if depth == params.depth else self._labels(path, sig)
            yield NodeVisit(depth, sig.h, sig.q, sig.z, sig.critical, sig.value, kinds)
            if kinds is not None:
                table = sig.table(kinds)
                stack.extend((path + _STEP[c], table[2 + c]) for c in (2, 1, 0))

    # -- heavy-piece post-processing ----------------------------------------------

    def leaf_masses(self, piece: Piece) -> list[tuple[bytes, Signature, Fraction]]:
        """``(path, signature, mass)`` of each leaf the piece overlaps with
        positive width, in leaf order: ``mass`` is the exact part of the
        piece's value in that leaf, the leaf's :attr:`Signature.exact_value`
        times n times the overlap.  Each leaf takes one path walk reading
        :meth:`_labels`, so a session raises :class:`PreconditionViolation`
        at an unrevealed leaf.  A piece wider than 1/n, which at 3^60 could
        cover 3^57 leaves, is refused the same way.
        """
        n, depth = self.params.n, self.params.depth
        if piece.width * n > 1:
            raise PreconditionViolation(f"piece of width {piece.width} is wider than 1/{n}")
        out = []
        for i in _piece_leaves(piece, n):
            left, right = Fraction(i, n), Fraction(i + 1, n)
            overlap = sum(
                max(min(iv.right, right) - max(iv.left, left), 0) for iv in piece.intervals
            )
            path = _index_path(i, depth)
            _, sig = self._walk(path, self._labels)
            out.append((path, sig, sig.exact_value * overlap * n))
        return out

    def extract_candidate_leaf(self, piece: Piece) -> bytes:
        """From a heavy piece, locate a leaf of density >= 1/2.

        The piece's density is the average of the densities of the leaves
        it overlaps, weighted by overlap, so the densest of them reaches
        1/2 when the piece is heavy; that leaf, returned, classifies as rich
        or critical.  Heaviness is decided exactly, on the sum of
        :meth:`leaf_masses`; a piece of zero width, or one
        :func:`~fairslice.valuation.is_heavy` rejects, raises
        :class:`PreconditionViolation`.
        """
        n = self.params.n
        leaves = self.leaf_masses(piece)
        width, total = piece.width, sum(mass for _, _, mass in leaves)
        if width == 0 or not is_heavy(width, total, n):
            raise PreconditionViolation(
                f"piece of width {width} and value {float(total)} is not heavy: "
                f"need 0 < width <= 1/{n} and value >= 1/(2*{n})"
            )
        return max(leaves, key=lambda leaf: leaf[1].exact_value)[0]


class BalancedValueTree(TernaryTreeValuation):
    """Fully labeled tree: heavy-edge placement is a keyed hash of the node
    path, so trees are reproducible from (depth, seed) without storing any
    per-node state.

    The keyed hash state is built once.  A walk or descent reading this
    tree's own labels copies it once and feeds it one digit per level (see
    :meth:`_running_state`); :meth:`_labels`, the one-node read that
    lookups, completions and :func:`verify_labeling` call, copies it and
    feeds it the path.  Either gives the digest of a fresh keyed hash bit
    for bit.
    """

    def __init__(self, params: TreeParams, seed: int):
        if seed.__class__ is not int:
            raise InvalidInput(f"seed must be an int, got {seed!r}")
        super().__init__(params)
        self.seed = seed
        self._keyed = blake2b(key=(seed & (2**64 - 1)).to_bytes(8, "little"), digest_size=8)

    def _labels(self, path, sig, step=None):
        if sig.critical:
            return _THIRDS
        state = self._keyed.copy()
        state.update(path)
        # the digest's big-endian integer mod 3, as the sum of its bytes:
        # 256 is 1 mod 3
        return _HEAVY_AT[sum(state.digest()) % 3]

    # a fixed labeling ignores the walk's step
    _path_labels = _descent_labels = _labels

    def _running_state(self, labels):
        """A copy of the keyed state when ``labels`` is this tree's own
        :meth:`_labels` (not an override), which :meth:`~TernaryTreeValuation._walk`
        and :meth:`~TernaryTreeValuation._descend` then feed the path one digit
        at a time: the digest at each node is the one :meth:`_labels` reads."""
        if getattr(labels, "__func__", None) is BalancedValueTree._labels and labels.__self__ is self:
            return self._keyed.copy()
        return None

    def to_json(self) -> dict:
        return {
            "type": "balanced_value_tree",
            "k": self.params.depth,
            "seed": self.seed,
            "permissive": self.params.permissive,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BalancedValueTree":
        if obj.get("type") != "balanced_value_tree":
            raise InvalidInput(f"expected type 'balanced_value_tree', got {obj.get('type')!r}")
        depth, seed = _json_int(obj, "k"), _json_int(obj, "seed")
        permissive = obj.get("permissive", False)
        if permissive.__class__ is not bool:
            raise InvalidInput(f"'permissive' must be a JSON boolean, got {permissive!r}")
        return cls(TreeParams(depth, permissive), seed)


def _json_int(obj: dict, key: str) -> int:
    """``obj[key]``, refused unless it is a JSON integer (a bool is not)."""
    value = obj.get(key)
    if value.__class__ is not int:
        raise InvalidInput(f"{key!r} must be a JSON integer, got {value!r}")
    return value


def build_tree(params: TreeParams, seed: int) -> BalancedValueTree:
    return BalancedValueTree(params, seed)


@dataclass(frozen=True)
class LeafProfileClass:
    """A realizable (h, q, z) leaf signature and its classification."""

    h: int
    q: int
    z: int
    classification: str  # "critical" | "rich" | "neither"


def leaf_profiles(params: TreeParams) -> list[LeafProfileClass]:
    """Every (h, q, z) leaf signature a labeling can reach, classified,
    sorted by ``(h, z > 0, q)``: the signatures :meth:`Signature.step`
    reaches level by level from the root, stepping a non-critical node
    across a heavy and a light edge and a critical node across a 1/3 edge.
    """
    level = {params.root}
    for _ in range(params.depth):
        level = {
            sig.step(kind)
            for sig in level
            for kind in ((THIRD,) if sig.critical else (HEAVY, LIGHT))
        }
    leaves = sorted(level, key=lambda sig: (sig.h, sig.z > 0, sig.q))
    return [
        LeafProfileClass(sig.h, sig.q, sig.z, params.classify(sig.h, sig.q, sig.critical))
        for sig in leaves
    ]


def low_heavy_density_cap(depth: int) -> float:
    """Largest leaf density achievable with at most ln(n)/6 heavy edges on a
    depth-``depth`` tree (that many heavy, the rest light); increasing in
    depth with limit :data:`LOW_HEAVY_DENSITY_LIMIT` (~0.426), so below 1/2.
    """
    heavy = depth * LN3 / 6.0
    return math.exp(TreeParams(depth, permissive=True).log_density(heavy, depth - heavy))


def verify_labeling(
    source: TernaryTreeValuation,
    paths: Iterable[bytes] = (),
    sample_count: int = 50,
    sample_seed: int = 0,
) -> int:
    """Check labeling rules along given and randomly sampled root-leaf paths.

    Verifies, node by node: labels sum to 1 (within 1e-12), critical nodes
    label all edges 1/3, and non-critical nodes carry exactly one heavy and
    two light edges.  Raises InvalidInput on the first violation; returns the
    number of nodes checked.  (Exhaustive verification is impossible for
    astronomically large trees; callers choose the paths that matter.)
    An adversary session's unrevealed node raises PreconditionViolation.
    """
    params = source.params
    rng = random.Random(sample_seed)
    all_paths = [_node_key(p, params.depth) for p in paths]
    for _ in range(sample_count):
        all_paths.append(index_path(rng.randrange(params.n), params.depth))

    label_of = params.label_values

    def check(path, sig, step=None):
        # the walk's label reader: the label source's own kinds, checked
        # before the walk uses them, so an unknown kind is a typed error
        kinds = source._labels(path, sig)
        if sig.critical:
            if kinds != (THIRD, THIRD, THIRD):
                raise InvalidInput(f"critical node {tuple(path)} not labeled (1/3,1/3,1/3): {kinds}")
        elif kinds not in _HEAVY_AT:
            raise InvalidInput(
                f"non-critical node {tuple(path)} needs one heavy and two light edges: {kinds}"
            )
        total = sum(label_of[k] for k in kinds)
        if abs(total - 1.0) > 1e-12:
            raise InvalidInput(f"labels at {tuple(path)} sum to {total}, not 1")
        return kinds

    checked = 0
    for leaf in all_paths:
        source._walk(leaf, check)
        checked += len(leaf)
    return checked
