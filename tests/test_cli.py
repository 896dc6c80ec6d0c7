import csv
import time

import pytest

from hermseq.cli import EXIT_OK, EXIT_USAGE, main, parse_sequence_values
from hermseq.complexity import Exact, PerVariable, nonlinear_complexity
from hermseq.field import FieldContext, element_from_str
from hermseq.sequence import build_sequence


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------

def test_sequence_csv_q2(tmp_path):
    out = tmp_path / "seq.csv"
    assert main(["sequence", "--p", "2", "--ell", "2", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert rows[0] == ["index", "i", "j", "value"]
    assert len(rows) == 5  # header + q(q^2-2) = 4 terms
    # row order is i-major, j-minor, 1-based index
    assert [r[:3] for r in rows[1:]] == [
        ["1", "1", "1"], ["2", "1", "2"], ["3", "2", "1"], ["4", "2", "2"],
    ]
    # known four-term sequence on the default line x = z over GF(4)
    assert [r[3] for r in rows[1:]] == ["1:0", "0:1", "1:1", "1:1"]


def test_sequence_explicit_a_and_modulus(tmp_path):
    out = tmp_path / "seq.csv"
    code = main([
        "sequence", "--p", "2", "--e", "1", "--modulus", "1:1:1",
        "--a", "1:0", "--ell", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert len(rows) == 5
    assert all(r[3] != "0:0" for r in rows[1:])


def test_sequence_csv_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (first, second):
        assert main(["sequence", "--p", "3", "--ell", "3",
                     "--out", str(out)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_sequence_usage_errors(tmp_path):
    assert main(["sequence", "--ell", "2"]) == EXIT_USAGE          # missing --p
    assert main(["sequence", "--p", "2"]) == EXIT_USAGE            # missing --ell
    assert main(["sequence", "--p", "4", "--ell", "2"]) == EXIT_USAGE
    assert main(["sequence", "--p", "2", "--ell", "3"]) == EXIT_USAGE
    assert main(["sequence", "--p", "2", "--ell", "2",
                 "--a", "0:0"]) == EXIT_USAGE                      # a = 0
    assert main(["sequence", "--p", "2", "--ell", "2",
                 "--modulus", "1:0:1"]) == EXIT_USAGE              # reducible
    assert main(["nonsense"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------

def test_complexity_csv_matches_in_process(tmp_path):
    out = tmp_path / "cx.csv"
    code = main([
        "complexity", "--p", "2", "--ell", "2", "--mode", "per-variable",
        "--k-range", "1:2", "--n-range", "1:4", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert rows[0] == ["n", "k", "mode", "result_kind", "value_or_lo", "hi"]
    ctx = FieldContext(2, 1)
    seq = build_sequence(ctx, 2)
    assert len(rows) == 1 + 4 * 2
    for row in rows[1:]:
        n, k = int(row[0]), int(row[1])
        result = nonlinear_complexity(ctx, seq.prefix(n), PerVariable(k))
        assert row[2] == "per-variable"
        assert row[3] == "exact"
        assert int(row[4]) == result.value
        assert int(row[5]) == result.value


def test_complexity_bracket_row(tmp_path):
    out = tmp_path / "cx.csv"
    # budget 2 cannot even afford the three m=1 monomials at k=2
    code = main([
        "complexity", "--p", "2", "--ell", "2", "--mode", "per-variable",
        "--k", "2", "--n", "4", "--budget", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert rows[1][3] == "bracket"
    assert rows[1][4] == "1" and rows[1][5] == "3"


def test_complexity_usage(tmp_path):
    assert main(["complexity", "--p", "2", "--ell", "2",
                 "--n", "1"]) == EXIT_USAGE                        # no k
    assert main(["complexity", "--p", "2", "--ell", "2", "--k", "1",
                 "--k-range", "1:2", "--n", "1"]) == EXIT_USAGE    # both
    assert main(["complexity", "--p", "2", "--ell", "2", "--k", "1",
                 "--n", "9"]) == EXIT_USAGE                        # n too big
    assert main(["complexity", "--p", "2", "--ell", "2", "--k", "1",
                 "--n", "2", "--budget", "0"]) == EXIT_USAGE


def test_sequence_round_trip(tmp_path):
    seq_out = tmp_path / "seq.csv"
    main(["sequence", "--p", "3", "--ell", "2", "--out", str(seq_out)])
    ctx = FieldContext(3, 1)
    parsed = parse_sequence_values(seq_out.read_text(), ctx)
    built = build_sequence(ctx, 2)
    assert parsed == list(built.terms)
    # feeding the re-parsed terms through the engine matches the in-process path
    for n in (5, 13, 21):
        for k in (1, 2):
            assert nonlinear_complexity(ctx, parsed[:n], PerVariable(k)) == \
                nonlinear_complexity(ctx, built.prefix(n), PerVariable(k))


def test_parse_sequence_values_rejects_garbage():
    ctx = FieldContext(2, 1)
    with pytest.raises(ValueError):
        parse_sequence_values("nope", ctx)


# ---------------------------------------------------------------------------
# bounds and figures
# ---------------------------------------------------------------------------

def test_bounds_csv(tmp_path):
    out = tmp_path / "b.csv"
    code = main([
        "bounds", "--p", "2", "--e", "5", "--k", "5",
        "--n-range", "32704:32704", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = _read_csv(out)
    assert rows[0][:5] == ["n", "k", "ell", "r1", "r2"]
    row = rows[1]
    assert row[:5] == ["32704", "5", "32", "31", "32"]
    by_name = dict(zip(rows[0], row))
    assert by_name["N_collinear"] == "170.171875"
    assert by_name["N_refined"] == "92.909091"


def test_figures_fig1(tmp_path):
    from fractions import Fraction

    out = tmp_path / "fig1.csv"
    assert main(["figures", "--preset", "fig1", "--out", str(out)]) == EXIT_OK
    rows = _read_csv(out)
    assert rows[0] == ["n", "N1", "N2", "N1_exact", "N2_exact"]
    assert rows[1][0] == "1023"
    assert rows[-1][0] == "32704"
    # exact columns are normalized num/den; compare as rationals
    assert Fraction(rows[-1][3]) == Fraction(32673, 192)
    assert Fraction(rows[-1][4]) == Fraction(31682, 341)


def test_figures_bad_preset():
    assert main(["figures", "--preset", "fig3"]) == EXIT_USAGE
    assert main(["figures"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# usage errors shared by every subcommand
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["bounds", "--p", "4", "--k", "1", "--n", "5"],                # p not prime
    ["bounds", "--p", "3", "--k", "1", "--n", "0"],                # n out of range
    ["bounds", "--p", "3", "--k", "1", "--n", "7", "--ell", "9"],  # ell > q
    ["bounds", "--p", "2", "--k", "3", "--n", "1"],                # k > q^2 - 2
    ["complexity", "--p", "3", "--ell", "2", "--k", "0", "--n", "5"],
])
def test_usage_error_writes_nothing(argv, tmp_path, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["figures", "--preset", "fig1", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_field_too_large_refused_quickly(capsys):
    start = time.perf_counter()
    assert main(["sequence", "--p", "1000003", "--ell", "2"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too many to tabulate" in captured.err


def test_bounds_large_prime_quickly(capsys):
    start = time.perf_counter()
    assert main(["bounds", "--p", "1000000007", "--k", "1", "--n", "1"]) == EXIT_OK
    assert time.perf_counter() - start < 1.0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2 and rows[1][:3] == ["1", "1", "1000000007"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_field_passes(capsys):
    # restricted to q = 4: structural groups only at this size
    code = main(["verify", "--p", "2", "--e", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "RESULT:" in captured.out
    assert "FAIL" not in captured.out


def test_help_exits_zero():
    assert main(["--help"]) == 0
