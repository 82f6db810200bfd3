import csv
import io
import json
import math
from fractions import Fraction

import pytest

from fairslice import cli
from fairslice.adversary import STRATEGIES
from fairslice.cli import main
from fairslice.errors import ReplayMismatch
from fairslice.valuation import PiecewiseConstantValuation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_divide_even_paz_chore(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "divide", "--protocol", "even-paz", "--mode", "chore",
        "--n", "81", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n"] == 81
    assert report["proportionality"]["proportional"] is True
    for share in report["proportionality"]["shares"]:
        assert Fraction(share["value"]) <= Fraction(1, 81)
    assert report["query_counts"]["total"] <= 2 * 81 * 7


def test_divide_cut_and_choose_uses_two_queries(capsys):
    code, out, _ = run_cli(capsys, "divide", "--protocol", "cut-and-choose", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert report["query_counts"]["total"] == 2


def test_divide_loads_valuations_file(capsys, tmp_path):
    vfile = tmp_path / "vals.json"
    vfile.write_text(json.dumps({
        "valuations": [
            {"type": "piecewise_constant",
             "segments": [{"end": "1/2", "density": "3/2"}, {"end": "1", "density": "1/2"}]},
            {"type": "piecewise_constant",
             "segments": [{"end": "1", "density": "1"}]},
        ]
    }))
    code, out, _ = run_cli(
        capsys, "divide", "--protocol", "cut-and-choose", "--mode", "chore",
        "--valuations", str(vfile),
    )
    assert code == 0
    report = json.loads(out)
    assert report["allocation"]["pieces"][1] == [["0", "1/3"]]


def test_divide_rejects_unnormalized_file(capsys, tmp_path):
    vfile = tmp_path / "bad.json"
    vfile.write_text(json.dumps([
        {"type": "piecewise_constant", "segments": [{"end": "1", "density": "2"}]}
    ]))
    code, _, err = run_cli(capsys, "divide", "--n", "1", "--valuations", str(vfile))
    assert code == 2
    assert "valuations[0]" in err


def test_divide_reports_json_syntax_position(capsys, tmp_path):
    vfile = tmp_path / "syntax.json"
    vfile.write_text('{"valuations": [}')
    code, _, err = run_cli(capsys, "divide", "--valuations", str(vfile))
    assert code == 2
    assert "line 1" in err


def test_reduce_meets_certificate_floor(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "9", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["certificates"] >= report["required"] == 3
    assert report["query_counts"]["base_protocol"] == 2 * report["query_counts"]["dual"]


def test_reduce_at_243_within_ten_seconds(capsys):
    import time

    start = time.time()
    code, out, _ = run_cli(capsys, "reduce", "--n", "243", "--seed", "1")
    elapsed = time.time() - start
    assert code == 0
    report = json.loads(out)
    assert report["certificates"] >= 81
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_reduce_rejects_out_of_band_valuations(capsys, tmp_path):
    vfile = tmp_path / "spiky.json"
    spiky = PiecewiseConstantValuation(
        [0, Fraction(1, 8), 1], [Fraction(4), Fraction(4, 7)]
    )
    uniform = PiecewiseConstantValuation.uniform()
    vfile.write_text(json.dumps([spiky.to_json(), uniform.to_json(), uniform.to_json()]))
    code, _, err = run_cli(capsys, "reduce", "--valuations", str(vfile))
    assert code == 2
    assert "rejected" in err


def test_scaling_csv(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--ns", "3,9,27", "--protocols", "even-paz,last-diminisher",
        "--mode", "chore", "--seed", "1",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["protocol"] for row in rows} == {"even-paz", "last-diminisher"}
    for row in rows:
        n = int(row["n"])
        if row["protocol"] == "even-paz":
            assert float(row["ratio_nlog2n"]) <= 2.0
            assert int(row["queries"]) <= 2 * n * math.ceil(math.log2(n))
        else:
            assert float(row["ratio_n2"]) <= 1.0


def test_scaling_single_n(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--ns", "9", "--protocols", "even-paz")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1


def test_scaling_multiple_seeds_and_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--ns", "9", "--protocols", "even-paz",
        "--seeds", "1,2,3", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["seed"] for row in rows] == [1, 2, 3]


def test_scaling_cut_and_choose_takes_two_players_only(capsys):
    code, out, err = run_cli(capsys, "scaling", "--ns", "3", "--protocols", "cut-and-choose")
    assert code == 2 and out == ""
    assert "two-player" in err
    code, out, _ = run_cli(capsys, "scaling", "--ns", "2", "--protocols", "cut-and-choose")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(row["n"], row["queries"]) for row in rows] == [("2", "2")]


@pytest.mark.parametrize("bad", ["0", "-2"])
def test_scaling_rejects_n_below_one_by_flag(capsys, bad):
    code, _, err = run_cli(capsys, "scaling", "--ns", f"3,{bad}")
    assert code == 2
    assert err == f"error: --ns values must be at least 1, got {bad}\n"


def test_adversary_multiple_seeds_summary(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--k", "60", "--strategy", "mass-split",
        "--budget", "4", "--seeds", "1,2,3,4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["summary"] == {"total": 4, "refuted": 4, "threshold": 4}


def test_adversary_within_threshold_refutes(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--k", "60", "--strategy", "greedy-dense",
        "--budget", "4", "--seed", "7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 4
    assert report["within_threshold"] is True
    assert report["outcome"]["refuted"] is True


def test_adversary_budget_zero(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--k", "60", "--strategy", "blind", "--budget", "0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["queries_used"] == 0
    assert report["outcome"]["refuted"] is True


def test_adversary_k11_threshold_vacuous(capsys):
    code, out, _ = run_cli(capsys, "adversary", "--k", "11", "--strategy", "blind")
    assert code == 0
    report = json.loads(out)
    assert report["threshold"] == 0
    assert report["threshold_vacuous"] is True


def test_adversary_small_k_needs_permissive_flag(capsys):
    code, _, err = run_cli(capsys, "adversary", "--k", "8", "--strategy", "blind")
    assert code == 2
    code, out, _ = run_cli(
        capsys, "adversary", "--k", "8", "--strategy", "blind", "--permissive-n",
    )
    assert code == 0


def test_unknown_strategy_rejected(capsys):
    with pytest.raises(SystemExit):  # argparse choices
        main(["adversary", "--k", "60", "--strategy", "psychic"])


def test_property_violation_exits_three(capsys, monkeypatch):
    # a protocol that breaks its proportionality promise must surface as a
    # property violation (exit 3), not as bad input
    import fairslice.cli as cli
    from fairslice.geometry import Piece
    from fairslice.protocols import Allocation

    def broken(referee, mode):
        n = referee.n_players
        return Allocation((Piece.of((0, 1)),) + tuple(Piece() for _ in range(n - 1)))

    monkeypatch.setitem(cli.PROTOCOLS, "even-paz", broken)
    code, _, err = run_cli(capsys, "reduce", "--n", "3", "--seed", "1")
    assert code == 3
    assert "property violation" in err


def test_deterministic_outputs(capsys):
    code1, out1, _ = run_cli(capsys, "reduce", "--n", "9", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "reduce", "--n", "9", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_overspending_finder_exits_3(capsys, monkeypatch):
    def overspend(player, params, budget, seed):
        for _ in range(budget + 1):
            player.eval(0, Fraction(1, 3))
        return STRATEGIES["blind"](player, params, budget, seed)

    monkeypatch.setitem(STRATEGIES, "overspend", overspend)
    code, _, err = run_cli(capsys, "adversary", "--k", "60", "--strategy", "overspend", "--budget", "2")
    assert code == 3
    assert "used 3 > 2 queries" in err


def test_replay_mismatch_exits_3(capsys, monkeypatch):
    def mismatch(*args):
        raise ReplayMismatch("record 0 (eval (0, 1)): logged 1.0, replay 0.5")

    monkeypatch.setattr(cli, "run_heavy_piece_game", mismatch)
    code, _, err = run_cli(capsys, "adversary", "--k", "60", "--strategy", "blind")
    assert code == 3
    assert err.startswith("property violation: record 0")


@pytest.mark.parametrize(
    "argv",
    [
        ["divide", "--n", "3", "--budget", "-1"],
        ["divide", "--n", "3", "--segments", "0"],
        ["divide", "--protocol", "cut-and-choose", "--n", "3"],
        ["divide", "--protocol", "last-diminisher", "--mode", "chore", "--n", "3"],
        ["scaling", "--ns", "0"],
        ["scaling", "--ns", "3", "--segments", "0"],
        ["reduce", "--n", "4", "--segments", "0"],
        ["reduce", "--n", "3", "--protocol", "last-diminisher"],
        ["adversary", "--k", "60", "--strategy", "blind", "--budget", "-1"],
    ],
    ids=" ".join,
)
def test_invalid_config_exits_2(capsys, argv):
    # main must turn every bad configuration into exit 2 and an error line,
    # with no exception escaping it
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["divide", "reduce"])
def test_non_partition_exits_3(capsys, monkeypatch, command):
    # overlapping pieces are a broken protocol guarantee, not bad input
    from fairslice.geometry import Piece
    from fairslice.protocols import Allocation

    def overlapping(referee, mode):
        return Allocation(tuple(Piece.of((0, 1)) for _ in range(referee.n_players)))

    monkeypatch.setitem(cli.PROTOCOLS, "even-paz", overlapping)
    code, _, err = run_cli(capsys, command, "--n", "3", "--seed", "1")
    assert code == 3
    assert err.startswith("property violation: ")
