"""Interactive adversary over a lazily labeled balanced value tree.

The session answers eval/cut queries without ever committing to a full
tree.  Instead it reveals edge labels just-in-time, always keeping the
query's root paths *light*:

* for an eval endpoint, each newly revealed node labels the on-path edge
  light and hangs the single heavy edge on the leftmost off-path child;
* for a cut answer, the descent toward the answer point places the heavy
  edge left of the answer when the remaining mass fraction gamma exceeds
  beta/3, and right of it otherwise -- since beta/3 < 1/2, the edge the
  answer passes through is light either way.

Each query therefore adds heavy edges to at most two root chains, so after
m queries no root-to-leaf path holds more than 2m revealed heavy edges.
While m is at most :attr:`TreeParams.threshold`, ``floor((ln(n)/6 - 1)/2)``,
that is below the heavy-edge count a rich or critical leaf needs, and *any*
claimed heavy piece is refuted by one completion: the revealed labels, light
edges along the claim's leaf paths, and the keyed-hash fill at seed 0.  The
revealed labels and the claim alone fix it, so anyone can rebuild it, and
the claim's value under it is summed exactly from its leaves' rational
masses, so the verdict does not rest on a float that cancels at 3^60.

The session is itself a tree valuation, answering through the walks that
hashed trees and completions use with a label source that reveals nodes as
its queries reach them, so a referee can hold sessions as players.  The
session builds no query record: the referee module's
:func:`~fairslice.referee.ask_eval`/``ask_cut`` record each query with the
reveals its answer made, for the referee's log in a game, or for the
session's own :attr:`AdversarySession.log` when it is asked through
``answer_eval``/``answer_cut``.  A completion keeps every revealed label,
so it replays those records exactly.  Only ``eval`` and ``cut`` reveal,
by construction, as only a query's prefix and descent reveal: the node
lookups a session inherits (``node``, ``classify_leaf``, ``iter_nodes``)
and ``verify_labeling`` read revealed nodes and raise
:class:`PreconditionViolation` at an unrevealed one; an internal node must
be revealed itself, a leaf needs its parent revealed.

Revealed labels are kept, in reveal order, in
:attr:`AdversarySession.revealed`, a dict keyed by node-path bytes, the one
path form of :mod:`.valuetree`; a query's reveals are the ``(path, kinds)``
items it added.  The session's walks read that dict inline, before any
label hook, so a known node costs one dict lookup and no call.  New nodes
are revealed a chain at a time by ``_reveal``, the one writer of
``revealed``, in one dict update; it keeps the heavy-edge maximum, read
off the chain's deepest node, as every revealed node carries one heavy
edge.  ``revealed`` is prefix-closed, so the first ask of an eval
endpoint reveals its leaf path below the first unrevealed node as one
chain: every node there is new, with the on-path edge light.  A cut's
descent decides each new node as it reaches it and reveals them together
when the cut returns: at permissive depths the heavy label can reach 1/2,
and the descent can cross a heavy edge.  A node is revealed only after its
parent, which ``_reveal`` checks at each chain's first node.  The critical
nodes, which no answer reads, are derived from ``revealed`` when asked.

Coordinates stay exact rationals (denominators 3^depth), so sessions run
happily at n = 3^60 and beyond; only touched nodes are stored.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import BudgetExhausted, InvalidInput, PreconditionViolation, ProtocolViolation
from .geometry import ONE, ZERO, Piece, as_scalar, scalar_str
from .referee import PlayerView, QueryRecord, QueryReferee, ask_cut, ask_eval, compact_json, replay_log
from .valuation import is_heavy
from .valuetree import (
    THIRD,
    BalancedValueTree,
    TernaryTreeValuation,
    TreeParams,
    _HEAVY_AT,
    _STEP,
    _node_key,
    _piece_leaves,
    index_path,
)

Kinds = tuple[str, str, str]


class AdversarySession(TernaryTreeValuation):
    """Lazy adversarial valuation with partially revealed edge labels.

    Revealed labels are binding, and a walk reveals any other node it
    reaches by the module's rule for its step -- an eval endpoint's path
    walk, or a cut answer's mass descent.  :meth:`take_reveals` hands the
    reveals of the last ``eval``/``cut`` to the query's record.  Any other
    walk reads revealed labels only, and raises
    :class:`PreconditionViolation` at an unrevealed node.

    An eval endpoint's new nodes are revealed as one chain, in level order,
    below the last node its leaf path shares with earlier reveals:

    >>> session = AdversarySession(TreeParams(4, permissive=True))
    >>> _ = session.eval(Fraction(1, 3), Fraction(5, 9))
    >>> [list(path) for path, _ in session.take_reveals()]
    [[], [1], [1, 0], [1, 0, 0], [1, 2], [1, 2, 0]]
    """

    def __init__(self, params: TreeParams):
        super().__init__(params)
        #: the revealed labels by node path, which the walks read first
        self.revealed: dict[bytes, Kinds] = {}
        self._known = self.revealed
        #: the records of the queries asked through answer_eval/answer_cut;
        #: a referee keeps those asked through it
        self.log: list[QueryRecord] = []
        #: max_revealed_heavy() after each answered query
        self.heavy_trace: list[int] = []
        self._taken = 0  # len(revealed) when the last answer began, or its reveals were taken
        self._heavy = 0  # most revealed heavy edges on a root path
        self._orphans = 0  # revealed nodes whose parent was not revealed
        # a cut's new nodes in descent order, and the heavy count of the last
        self._descent: dict[bytes, Kinds] = {}
        self._descent_heavy = 0

    @property
    def m(self) -> int:
        """Queries answered so far, with or without a referee."""
        return len(self.heavy_trace)

    # -- labels: revealed, or revealed now --------------------------------

    def _labels(self, path, sig):
        kinds = self.revealed.get(path)
        if kinds is None:
            raise PreconditionViolation(
                f"node {tuple(path)} is not revealed; only eval and cut reveal nodes"
            )
        return kinds

    def _descent_labels(self, path, sig, remaining):
        # a node the descent reads past revealed: gamma > beta/3, on the
        # very heavy-child mass the descent compares; sig.table(_HEAVY_AT[0])
        # with the lookup inlined, as in _walk
        table = sig.tables.get(_HEAVY_AT[0]) or sig.table(_HEAVY_AT[0])
        kinds = _HEAVY_AT[0 if table[0] < remaining else 2]
        # revealed when the cut returns
        self._descent[path] = kinds
        self._descent_heavy = sig.h + 1
        return kinds

    def _reveal(self, chain: dict[bytes, Kinds], heavy: int) -> None:
        """Reveal ``chain``'s labels at its nodes, none of them revealed
        yet: the one writer of :attr:`revealed`, in one ``update``.  The
        nodes, in ``chain``'s order, form a chain, each the child of the one
        before, and ``heavy`` is the heavy-edge count of the deepest, its
        own heavy edge counted: along a chain the count never falls.  Only
        the first node's parent is looked up for the connectivity check."""
        revealed = self.revealed
        first = next(iter(chain))
        if first and first[:-1] not in revealed:
            self._orphans += 1
        revealed.update(chain)
        if heavy > self._heavy:
            self._heavy = heavy

    def _prefix(self, t: Fraction) -> float:
        key = (t.numerator, t.denominator)
        mass = self._masses.get(key)
        if mass is None:
            # the first ask of t reveals its whole leaf path, even at t = 0
            # or 1 (mass exactly t): revealed is prefix-closed, so below its
            # first unrevealed node every node is new, with the on-path edge
            # light; the mass walk then reads revealed labels only, down to
            # where its float is settled
            num, den = key
            n, depth = self.params.n, self.params.depth
            if num <= 0:
                leaf = bytes(depth)
            elif num >= den:
                leaf = _STEP[2] * depth
            else:
                # the leaf itself, or on the leaf grid the node t starts,
                # whose leaf path goes on by 0 digits
                index, rem = divmod(num * n, den)
                node = self._prefix_node(num, den, index, rem)
                leaf = node.ljust(depth, _STEP[0])
            revealed = self.revealed
            if leaf[:-1] not in revealed:
                level = 0
                while leaf[:level] in revealed:
                    level += 1
                _, sig = self._walk(leaf[:level])
                chain = {leaf[:i]: _ENDPOINT_LABELS[leaf[i]] for i in range(level, depth)}
                self._reveal(chain, sig.h + 1)  # on-path edges light
            if 0 < num < den:
                mass = self._walk_prefix(num, den, rem, node)  # the node found above
            else:
                mass = self._masses[key] = super()._prefix(t)
        return mass

    # a session's reveals are its transcript, so its descents go the full
    # depth even where the float is settled
    _descends_to_leaf = True

    # -- queries ----------------------------------------------------------

    def _answer(self, query, x, arg) -> Optional[float]:
        # reveals a query left untaken go, so they never reach a later record
        self._taken = len(self.revealed)
        answer = query(self, x, arg)
        if self._descent:
            self._reveal(self._descent, self._descent_heavy)
            self._descent = {}
        self.heavy_trace.append(self._heavy)
        return answer

    def eval(self, x, y) -> float:
        return self._answer(TernaryTreeValuation.eval, x, y)

    def cut(self, x, r) -> Optional[float]:
        return self._answer(TernaryTreeValuation.cut, x, r)

    def take_reveals(self) -> tuple[tuple[bytes, Kinds], ...]:
        """The ``(path, kinds)`` pairs the last ``eval``/``cut`` added to
        :attr:`revealed`, in order, handed over once; read from the end, in
        time proportional to their number."""
        revealed = self.revealed
        new, self._taken = len(revealed) - self._taken, len(revealed)
        return tuple(islice(reversed(revealed.items()), new))[::-1]

    # -- a session asked without a referee --------------------------------

    def answer_eval(self, x, y) -> float:
        """``eval``, recorded in :attr:`log` by the referee's ``ask_eval``."""
        rec = ask_eval(self, 0, x, y)
        self.log.append(rec)
        return rec.answer

    def answer_cut(self, x, r) -> Optional[float]:
        """``cut``, recorded in :attr:`log` by the referee's ``ask_cut``."""
        rec = ask_cut(self, 0, x, r)
        self.log.append(rec)
        return rec.answer

    # -- invariants (verification helpers) ------------------------------------

    def max_revealed_heavy(self) -> int:
        """Maximum number of revealed heavy edges on any root-to-leaf path
        (unrevealed subtrees contribute nothing): the last entry of
        :attr:`heavy_trace`."""
        return self.heavy_trace[-1] if self.heavy_trace else 0

    def revealed_is_connected(self) -> bool:
        """Every revealed node's parent was revealed before it (or it is the
        root), as checked at each reveal."""
        return self._orphans == 0

    def revealed_critical_nodes(self) -> list[bytes]:
        """Revealed nodes whose own density test says critical (not the
        inherited flag), in reveal order, each node's signature read from
        its parent's child table; a node revealed before its parent, which
        no walk does, is skipped with the nodes below it.

        Empty while the heavy-edge budget holds; the reveal strategy never
        labels a node's edges as thirds, so a critical node here means the
        session was driven past its guarantee.
        """
        params, tables, critical = self.params, {}, []
        for path, kinds in self.revealed.items():
            if not path:
                sig = params.root
            elif path[:-1] in tables:
                sig = tables[path[:-1]][2 + path[-1]]
            else:
                continue  # revealed before its parent
            tables[path] = sig.table(kinds)
            if sig.critical and params.critical_counts(sig.h, sig.q):
                critical.append(path)
        return critical

    def transcript_lines(self) -> list[str]:
        """The log as JSON-lines: the referee's record format without the
        player, plus the reveals each answer made."""
        lines = []
        for rec in self.log:
            obj = rec.to_json_obj()
            del obj["player"]
            # the record head without its closing brace, then the reveals
            head = compact_json(obj)[:-1]
            reveals = _reveals_json(rec.reveals)
            lines.append(f'{head},"reveals":[{reveals}]}}')
        return lines

    # -- completion and refutation ----------------------------------------------

    def complete_labeling(
        self, seed: int, light_leaves: Iterable[bytes] = ()
    ) -> "CompletedTree":
        """A full labeling agreeing with everything revealed so far.

        Unrevealed critical nodes follow the 1/3 rule; other unrevealed
        nodes take a keyed-hash heavy placement, except that on root paths
        of ``light_leaves`` the heavy edge is steered away from those paths
        whenever possible.  The snapshot is immutable: later session queries
        do not affect an existing completion.
        """
        return CompletedTree(
            self.params,
            revealed=dict(self.revealed),
            seed=seed,
            light_leaves=light_leaves,
        )

    def refute_claim(self, piece: Piece) -> Union["Refutation", "CannotRefute"]:
        """Try to disprove that ``piece`` is heavy (width <= 1/n and value
        >= 1/(2n), decided exactly by :func:`~fairslice.valuation.is_heavy`).

        Width violations refute outright.  Otherwise the session builds one
        completion, the targeted one: the revealed labels, the claim's leaf
        paths kept light, and the keyed-hash fill at seed 0, so the
        revealed labels and the claim alone fix it.  The piece's value under
        it is the exact sum of :meth:`~TernaryTreeValuation.leaf_masses`.
        Within ``params.threshold`` queries that value always falls short;
        past it the piece may stay heavy, and ``CannotRefute`` says so.  A
        claim that is not a ``Piece`` is refused with :class:`InvalidInput`.
        """
        if not isinstance(piece, Piece):
            raise InvalidInput(f"a heavy-piece claim must be a Piece, got {piece!r}")
        n = self.params.n
        width = piece.width
        refutation = partial(
            Refutation, claim=piece, width=width, width_bound=Fraction(1, n), value_bound=Fraction(1, 2 * n)
        )
        if not is_heavy(width, ONE, n):
            # too wide to be heavy at any value
            return refutation(value=None, violated="width", completion=None)
        if width == 0:
            raise PreconditionViolation("an empty piece cannot be a heavy-piece claim")
        completion = self.complete_labeling(0, light_leaves=claim_leaves(piece, self.params))
        value = sum(mass for _, _, mass in completion.leaf_masses(piece))
        if is_heavy(width, value, n):
            return CannotRefute(reason="piece stayed heavy under the targeted completion")
        return refutation(value=float(value), violated="value", completion=completion)


#: the labels an eval endpoint's path reveals at a node it leaves by
#: child 0, 1 or 2: the on-path edge light, the heavy edge leftmost off it
_ENDPOINT_LABELS = (_HEAVY_AT[1], _HEAVY_AT[0], _HEAVY_AT[0])

#: ASCII digit of each node-path byte
_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"012")

#: what follows a reveal's path digits: the path's close, then the compact
#: JSON array of the label-kind triple, for each triple a node can carry
_LABELS_TAIL = {
    kinds: '],"labels":' + compact_json(list(kinds)) + "}"
    for kinds in (*_HEAVY_AT, (THIRD, THIRD, THIRD))
}

#: each digit as the first of a path, and after an earlier digit
_FIRST_DIGIT = ("0", "1", "2")
_NEXT_DIGIT = (",0", ",1", ",2")


def _path_digits(path: bytes) -> str:
    """The comma-joined ASCII digits of a node path."""
    # replacing "" puts a comma between every two digits and at both ends
    return path.translate(_DIGITS).decode().replace("", ",")[1:-1]


def _reveals_json(reveals: Iterable[tuple[bytes, Kinds]]) -> str:
    """A record's reveals as a transcript writes them, comma-joined, in
    one pass: each is the compact ``json.dumps`` of ``{"path": list(path),
    "labels": list(kinds)}``, character for character, from string
    fragments.  A walk reveals each node after its parent, so a reveal
    whose path extends the one before by a digit extends that one's digit
    string by the same digit; any other reveal, such as the first of a
    walk, is written from scratch.  Each reveal adds its digits and tail;
    the ``{"path":[`` that opens it comes with the separator of the join.

    >>> _reveals_json([(b"", ("H", "L", "L")), (b"\\x02\\x00", ("L", "H", "L"))])
    '{"path":[],"labels":["H","L","L"]},{"path":[2,0],"labels":["L","H","L"]}'
    >>> import json
    >>> walk = [(b"", _HEAVY_AT[1]), (b"\\x01", _HEAVY_AT[0]), (b"\\x01\\x02", _HEAVY_AT[0])]
    >>> reveals = walk + [(b"\\x00", _HEAVY_AT[1])]
    >>> _reveals_json(reveals) == ",".join(
    ...     json.dumps({"path": list(p), "labels": list(k)}, separators=(",", ":")) for p, k in reveals
    ... )
    True
    >>> _reveals_json([])
    ''
    """
    parts = []
    last, digits = None, ""
    for path, kinds in reveals:
        if path[:-1] == last and path:
            digits = digits + _NEXT_DIGIT[path[-1]] if last else _FIRST_DIGIT[path[-1]]
        else:
            digits = _path_digits(path)
        parts.append(digits + _LABELS_TAIL[kinds])
        last = path
    return '{"path":[' + ',{"path":['.join(parts) if parts else ""


def claim_leaves(piece: Piece, params: TreeParams) -> list[bytes]:
    """Node paths of every leaf the piece overlaps with positive width."""
    return [index_path(i, params.depth) for i in _piece_leaves(piece, params.n)]


class CompletedTree(TernaryTreeValuation):
    """A fully labeled tree extending a session's revealed state.

    Label precedence at each node: revealed labels are binding; otherwise a
    critical node takes thirds; otherwise, if the node sits on a preferred
    light path, the heavy edge moves to the leftmost child off every such
    path (when one exists); otherwise heavy placement is the keyed hash of
    the node path.  ``revealed``, keyed by node-path bytes, is the
    completion's known labels, read first by its walks.
    """

    def __init__(
        self,
        params: TreeParams,
        revealed: dict[bytes, Kinds],
        seed: int,
        light_leaves: Iterable[bytes] = (),
    ):
        super().__init__(params)
        self._known = revealed
        self.seed = seed
        self._hashed = BalancedValueTree(params, seed)
        self._light_prefixes: set[bytes] = set()
        for leaf in light_leaves:
            leaf = _node_key(leaf, params.depth)
            for i in range(1, len(leaf) + 1):
                self._light_prefixes.add(leaf[:i])

    def _labels(self, path, sig):
        kinds = self._known.get(path)
        if kinds is not None:
            return kinds
        if self._light_prefixes and not sig.critical:
            protected = [c for c in (0, 1, 2) if path + _STEP[c] in self._light_prefixes]
            if protected and len(protected) < 3:
                return _HEAVY_AT[min(c for c in (0, 1, 2) if c not in protected)]
        return self._hashed._labels(path, sig)


class Refutation(NamedTuple):
    """Evidence that a claimed piece is not heavy: either its width exceeds
    1/n outright, or the targeted completion gives it a value below
    1/(2n); ``value`` is the correctly rounded float of that exact value."""

    claim: Piece
    width: Fraction
    width_bound: Fraction
    value: Optional[float]
    value_bound: Fraction
    violated: str  # "width" | "value"
    completion: Optional[CompletedTree]

    def to_json(self) -> dict:
        return {
            "refuted": True,
            "claimed_piece": self.claim.to_pairs(),
            "width": scalar_str(self.width),
            "width_bound": scalar_str(self.width_bound),
            "value": self.value,
            "value_bound": float(self.value_bound),
            "violated": self.violated,
        }


class CannotRefute(NamedTuple):
    """The piece stayed heavy under the targeted completion (a truthful
    negative past the threshold, not a proof of heaviness)."""

    reason: str

    def to_json(self) -> dict:
        return {"refuted": False, "reason": self.reason}


def replay_transcript(
    session_log: Sequence[QueryRecord], completion: CompletedTree, tol: float = 1e-9
) -> bool:
    """Check that a completion reproduces every logged session answer within
    ``tol``; raises :class:`ReplayMismatch` at the first it does not."""
    return replay_log(session_log, (completion,), tol)


# -- built-in heavy-piece finder strategies -------------------------------------
#
# A finder gets a referee's view of the session (its only oracle), the
# public tree params, a query budget and a seed, and must return a claimed
# heavy piece.  The referee counts its queries and refuses one past the
# budget before the session answers it.  These exist to drive the
# lower-bound demonstration: against the adversary none of them can do
# better than chance within the threshold.


def _clamped_cell(start: Fraction, params: TreeParams) -> Piece:
    width = Fraction(1, params.n)
    start = min(max(start, ZERO), ONE - width)
    return Piece.of((start, start + width))


def finder_blind(player: PlayerView, params: TreeParams, budget: int, seed: int) -> Piece:
    """No queries: claims a seeded 1/n-wide cell."""
    rng = random.Random(seed)
    index = rng.randrange(params.n)
    return _clamped_cell(Fraction(index, params.n), params)


def finder_greedy_dense(player: PlayerView, params: TreeParams, budget: int, seed: int) -> Piece:
    """Ternary descent into the densest-looking third, two evals per level;
    claims a 1/n-wide piece at the left edge of the final block."""
    left, right = ZERO, ONE
    block_mass = 1.0
    for _ in range(budget // 2):
        if right - left <= Fraction(1, params.n):
            break
        third = (right - left) / 3
        m0 = player.eval(left, left + third)
        m1 = player.eval(left + third, left + 2 * third)
        masses = [m0, m1, max(block_mass - m0 - m1, 0.0)]
        best = max(range(3), key=lambda j: masses[j])
        left = left + best * third
        right = left + third
        block_mass = masses[best]
    return _clamped_cell(left, params)


def finder_mass_split(player: PlayerView, params: TreeParams, budget: int, seed: int) -> Piece:
    """Cut queries at evenly spaced mass quantiles; claims a 1/n-wide piece
    inside the narrowest quantile gap (where mass is densest)."""
    if budget < 1:
        return finder_blind(player, params, budget, seed)
    points = [ZERO]
    for j in range(1, budget + 1):
        answer = player.cut(ZERO, Fraction(j, budget + 1))
        points.append(as_scalar(answer))
    points.append(ONE)
    gaps = [(points[i + 1] - points[i], i) for i in range(len(points) - 1)]
    _, best = min(gaps)
    return _clamped_cell(points[best], params)


STRATEGIES = {
    "blind": finder_blind,
    "greedy-dense": finder_greedy_dense,
    "mass-split": finder_mass_split,
}


class GameReport(NamedTuple):
    """Outcome of one finder-vs-adversary game; ``threshold`` is the tree
    size's :attr:`TreeParams.threshold`."""

    depth: int
    strategy: str
    budget: int
    threshold: int
    queries_used: int
    claim: Piece
    outcome: Union[Refutation, CannotRefute]
    max_revealed_heavy_trace: tuple[int, ...]

    @property
    def refuted(self) -> bool:
        return isinstance(self.outcome, Refutation)

    def to_json(self) -> dict:
        return {
            "k": self.depth,
            "n": f"3^{self.depth}",
            "strategy": self.strategy,
            "budget": self.budget,
            "threshold": self.threshold,
            "threshold_vacuous": self.threshold == 0,
            "within_threshold": self.queries_used <= self.threshold,
            "queries_used": self.queries_used,
            "claim": self.claim.to_pairs(),
            "max_revealed_heavy_trace": list(self.max_revealed_heavy_trace),
            "outcome": self.outcome.to_json(),
        }


def run_heavy_piece_game(
    params: TreeParams, strategy: str, budget: int, seed: int
) -> GameReport:
    """Play one game: the finder queries the adversary, claims a piece, and
    the adversary tries to refute the claim.  A budget that is not an
    ``int >= 0`` (a bool is not one) is refused before any query."""
    if strategy not in STRATEGIES:
        raise InvalidInput(f"unknown strategy {strategy!r}; have {sorted(STRATEGIES)}")
    if budget.__class__ is not int or budget < 0:
        raise InvalidInput(f"budget must be an int >= 0, got {budget!r}")
    session = AdversarySession(params)
    referee = QueryReferee([session], budget=budget)
    try:
        claim = STRATEGIES[strategy](referee.view(0), params, budget, seed)
    except BudgetExhausted:
        raise ProtocolViolation(
            f"strategy {strategy} used {budget + 1} > {budget} queries"
        ) from None
    outcome = session.refute_claim(claim)
    return GameReport(
        depth=params.depth,
        strategy=strategy,
        budget=budget,
        threshold=params.threshold,
        queries_used=referee.total,
        claim=claim,
        outcome=outcome,
        max_revealed_heavy_trace=tuple(session.heavy_trace),
    )
