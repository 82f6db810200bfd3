"""Batch experiment harness.

Four subcommands, all deterministic under a fixed configuration:

* ``divide``    -- run a division protocol under a referee, report the
                   allocation, proportionality and query counts;
* ``reduce``    -- run the chore-to-cake reduction pipeline and report the
                   verified heavy-piece certificates;
* ``scaling``   -- measured query counts over a range of n, as CSV;
* ``adversary`` -- play a heavy-piece finder against the adversarial
                   session and report the refutation outcome.

Exit codes: 0 success; 3 property violation, on a ``ProtocolViolation``
(a ``PartitionViolation`` among them) or a ``ReplayMismatch`` -- a guarantee
that should hold by construction failed, a bug surfaced loudly; 2 on any
other ``FairsliceError``, chiefly ``InvalidInput`` for a bad configuration,
a bad or unreadable input file, or an output file that cannot be written.
The library raises these where it finds the failure, and
``main`` maps the type to the code; the commands convert nothing.  Reports
carry no timestamps, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .adversary import STRATEGIES, run_heavy_piece_game
from .dual import reduction_pipeline
from .errors import FairsliceError, InvalidInput, ProtocolViolation, ReplayMismatch
from .protocols import PROTOCOLS, check_proportional
from .referee import QueryReferee
from .valuation import (
    DensityBounds,
    PiecewiseConstantValuation,
    Valuation,
    random_dense_valuation,
)
from .valuetree import BalancedValueTree, TreeParams

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PROPERTY = 3


def load_valuation(obj: dict, where: str) -> Valuation:
    if not isinstance(obj, dict):
        raise InvalidInput(f"{where}: expected an object, got {type(obj).__name__}")
    kind = obj.get("type")
    try:
        if kind == "piecewise_constant":
            return PiecewiseConstantValuation.from_json(obj)
        if kind == "balanced_value_tree":
            return BalancedValueTree.from_json(obj)
    except InvalidInput as exc:
        raise InvalidInput(f"{where}: {exc}") from exc
    raise InvalidInput(f"{where}: unknown valuation type {kind!r}")


def load_valuations_file(path: str) -> list[Valuation]:
    try:
        with open(path, encoding="utf-8") as fp:
            data = json.load(fp)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if isinstance(data, dict) and "valuations" in data:
        data = data["valuations"]
    if not isinstance(data, list) or not data:
        raise InvalidInput(f"{path}: expected a non-empty list under 'valuations'")
    return [
        load_valuation(item, f"{path}: valuations[{i}]") for i, item in enumerate(data)
    ]


def _generated_valuations(n: int, seed: int, segments: int, bounds: DensityBounds) -> list:
    return [
        random_dense_valuation(segments, bounds, seed=seed * 100_003 + i)
        for i in range(n)
    ]


def _resolve_valuations(args, bounds: DensityBounds) -> list[Valuation]:
    if args.valuations:
        vals = load_valuations_file(args.valuations)
        if args.n is not None and args.n != len(vals):
            raise InvalidInput(
                f"--n {args.n} disagrees with {len(vals)} valuations in {args.valuations}"
            )
        return vals
    if args.n is None:
        raise InvalidInput("need --valuations FILE or --n N")
    if args.n < 1:
        raise InvalidInput("--n must be at least 1")
    return _generated_valuations(args.n, args.seed, args.segments, bounds)


def _emit(payload: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fp:
                fp.write(payload)
        except OSError as exc:
            raise InvalidInput(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def cmd_divide(args) -> int:
    valuations = _resolve_valuations(args, DensityBounds(Fraction(0), None))
    referee = QueryReferee(valuations, budget=args.budget)
    protocol = PROTOCOLS[args.protocol]
    allocation = protocol(referee, args.mode)
    exact = all(isinstance(v, PiecewiseConstantValuation) for v in valuations)
    report = check_proportional(
        allocation, valuations, args.mode, tol=0 if exact else 1e-9
    )
    payload = {
        "command": "divide",
        "protocol": args.protocol,
        "mode": args.mode,
        "n": len(valuations),
        "allocation": allocation.to_json(),
        "proportionality": report.to_json(),
        "query_counts": {"total": referee.total, "per_player": list(referee.counts)},
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if not report.ok:
        raise ProtocolViolation("protocol output failed its proportionality bound")
    return EXIT_OK


def cmd_reduce(args) -> int:
    valuations = _resolve_valuations(args, DensityBounds(Fraction(0), Fraction(2)))
    report = reduction_pipeline(valuations, PROTOCOLS[args.protocol], budget=args.budget)
    payload = {"command": "reduce", "protocol": args.protocol, **report.to_json()}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    if len(report.certificates) < report.required_certificates:
        raise ProtocolViolation(
            f"only {len(report.certificates)} heavy certificates; "
            f"needed {report.required_certificates}"
        )
    return EXIT_OK


def cmd_scaling(args) -> int:
    ns = _parse_int_list(args.ns, "--ns")
    for n in ns:
        if n < 1:
            raise InvalidInput(f"--ns values must be at least 1, got {n}")
    seeds = _resolve_seeds(args)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    for name in protocols:
        if name not in PROTOCOLS:
            raise InvalidInput(f"unknown protocol {name!r}; have {sorted(PROTOCOLS)}")
    rows = []
    for name in protocols:
        mode = args.mode
        if name == "last-diminisher":
            mode = "cake"  # chore variant intentionally not provided
        for n in ns:
            for seed in seeds:
                valuations = _generated_valuations(
                    n, seed, args.segments, DensityBounds(Fraction(0), None)
                )
                referee = QueryReferee(valuations)
                allocation = PROTOCOLS[name](referee, mode)
                report = check_proportional(allocation, valuations, mode)
                if not report.ok:
                    raise ProtocolViolation(f"{name} with n={n} broke proportionality")
                q = referee.total
                nlogn = n * math.ceil(math.log2(n)) if n > 1 else 1
                rows.append(
                    {
                        "n": n,
                        "protocol": name,
                        "mode": mode,
                        "seed": seed,
                        "queries": q,
                        "ratio_nlog2n": round(q / nlogn, 6),
                        "ratio_n2": round(q / (n * n), 6),
                    }
                )
    if args.format == "json":
        payload = json.dumps({"command": "scaling", "rows": rows}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=["n", "protocol", "mode", "seed", "queries", "ratio_nlog2n", "ratio_n2"],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        payload = buf.getvalue()
    _emit(payload, args.out)
    return EXIT_OK


def cmd_adversary(args) -> int:
    params = TreeParams(args.k, args.permissive_n)
    budget = params.threshold if args.budget is None else args.budget
    seeds = _resolve_seeds(args)
    games = [
        run_heavy_piece_game(params, args.strategy, budget, seed) for seed in seeds
    ]
    if len(games) == 1:
        payload = {"command": "adversary", **games[0].to_json()}
    else:
        payload = {
            "command": "adversary",
            "games": [g.to_json() for g in games],
            "summary": {
                "total": len(games),
                "refuted": sum(1 for g in games if g.refuted),
                "threshold": games[0].threshold,
            },
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    escaped = [
        g for g in games if g.queries_used <= g.threshold and not g.refuted
    ]
    if escaped:
        raise ProtocolViolation(
            f"{len(escaped)} claim(s) within the query threshold survived refutation"
        )
    return EXIT_OK


def _resolve_seeds(args) -> list[int]:
    if args.seeds:
        return _parse_int_list(args.seeds, "--seeds")
    return [args.seed]


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidInput(f"{flag}: expected comma-separated integers: {exc}") from exc
    if not values:
        raise InvalidInput(f"{flag}: empty list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairslice",
        description="Cake-cutting and chore-division experiments with exact query accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="number of players")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--valuations", metavar="FILE", help="JSON valuations file")
        p.add_argument("--segments", type=int, default=8, help="segments per generated valuation")
        p.add_argument("--budget", type=int, default=None, help="total query budget")
        p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
        p.add_argument("--protocol", default="even-paz", choices=sorted(PROTOCOLS))

    p = sub.add_parser("divide", help="run one division protocol")
    common(p)
    p.add_argument("--mode", default="chore", choices=("cake", "chore"))
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("reduce", help="run the chore-to-cake reduction pipeline")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("scaling", help="query-count scaling table")
    p.add_argument("--ns", default="3,9,27,81,243", help="comma-separated n values")
    p.add_argument("--protocols", default="even-paz,last-diminisher")
    p.add_argument("--mode", default="chore", choices=("cake", "chore"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", help="comma-separated seeds (one row per seed)")
    p.add_argument("--segments", type=int, default=8)
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("adversary", help="heavy-piece finder vs. the adversary")
    p.add_argument("--k", type=int, required=True, help="tree depth; n = 3^k")
    p.add_argument("--strategy", default="greedy-dense", choices=sorted(STRATEGIES))
    p.add_argument("--budget", type=int, default=None, help="finder query budget (default: the threshold)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", help="comma-separated seeds (one game per seed)")
    p.add_argument("--permissive-n", action="store_true", help="allow depths below 11 (no guarantees)")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_adversary)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolViolation, ReplayMismatch) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except FairsliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
