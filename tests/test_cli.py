import csv
import gzip
import io
import itertools
import time
import tracemalloc
from pathlib import Path

import pytest

from hermseq.bounds import bound, decimal_string, figure_rows, floor_ratios
from hermseq.cli import EXIT_OK, EXIT_USAGE, main
from hermseq.complexity import PerVariable, TotalDegree, nonlinear_complexity
from hermseq.field import Element, FieldContext, element_from_str, element_to_str
from hermseq.sequence import build_sequence


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
DATA = Path(__file__).resolve().parent / "data"


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def parse_sequence_values(text: str, ctx: FieldContext) -> list[Element]:
    """Re-read the value column of a `sequence` CSV."""
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0][:1] != ["index"]:
        raise ValueError("not a sequence CSV: missing header")
    return [element_from_str(row[3], ctx) for row in rows[1:] if row]


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
        result = nonlinear_complexity(ctx, seq[:n], PerVariable(k))
        assert row[2] == "per-variable"
        assert row[3] == "exact"
        assert int(row[4]) == result
        assert int(row[5]) == result


def test_complexity_usage(tmp_path):
    assert main(["complexity", "--p", "2", "--ell", "2",
                 "--n", "1"]) == EXIT_USAGE                        # no k
    assert main(["complexity", "--p", "2", "--ell", "2", "--k", "1",
                 "--k-range", "1:2", "--n", "1"]) == EXIT_USAGE    # both
    assert main(["complexity", "--p", "2", "--ell", "2", "--k", "1",
                 "--n", "9"]) == EXIT_USAGE                        # n too big
    assert main(["complexity", "--p", "2", "--ell", "2", "--k", "1",
                 "--n", "0"]) == EXIT_USAGE                        # n too small


def test_complexity_rows_independent_of_n_grid(tmp_path, capsys):
    # every n grid reads the same per-k profiles: its rows are those of the
    # full range at its own n
    base = ["complexity", "--p", "2", "--e", "2", "--ell", "4",
            "--mode", "total-degree", "--k-range", "1:2"]

    def rows(*grid):
        assert main(base + list(grid)) == EXIT_OK
        return list(csv.reader(capsys.readouterr().out.splitlines()))

    full = rows("--n-range", "1:56")
    assert len(full) == 1 + 56 * 2
    by_n = {}
    for row in full[1:]:
        by_n.setdefault(int(row[0]), []).append(row)
    for grid, ns in ((("--n-range", "5:56:7"), range(5, 57, 7)), (("--n", "37"), [37])):
        got = rows(*grid)
        assert got[0] == full[0]
        assert got[1:] == [row for n in ns for row in by_n[n]]
    out = tmp_path / "out.csv"
    assert main(base + ["--n", "57", "--out", str(out)]) == EXIT_USAGE
    assert "n must be in 1..56" in capsys.readouterr().err
    assert not out.exists()


def test_sequence_round_trip(tmp_path):
    seq_out = tmp_path / "seq.csv"
    main(["sequence", "--p", "3", "--ell", "2", "--out", str(seq_out)])
    ctx = FieldContext(3, 1)
    parsed = parse_sequence_values(seq_out.read_text(), ctx)
    built = build_sequence(ctx, 2)
    assert parsed == list(built)
    # feeding the re-parsed terms through the engine matches the in-process path
    for n in (5, 13, 21):
        for k in (1, 2):
            assert nonlinear_complexity(ctx, parsed[:n], PerVariable(k)) == \
                nonlinear_complexity(ctx, built[:n], PerVariable(k))


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


def test_bounds_memory_does_not_grow_with_rows(tmp_path):
    # rows stream to --out, so 1,200 rows peak no higher than 300 do; a
    # list of the rows would hold about 0.3 MB more
    out = str(tmp_path / "b.csv")
    argv = ["bounds", "--p", "2", "--e", "3", "--n-range", "1:300", "--out", out]
    assert main(argv + ["--k", "1"]) == EXIT_OK  # imports and caches
    peaks = []
    for k_range in ("1:1", "1:4"):
        tracemalloc.start()
        try:
            assert main(argv + ["--k-range", k_range]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(_read_csv(out)) == 1 + 1200
    assert peaks[1] < peaks[0] + 50_000, peaks


def test_bounds_usage_error_at_the_far_end_writes_nothing(tmp_path, capsys):
    # the first row is valid and the last is not; nothing is written
    out = tmp_path / "b.csv"
    for grid in (["--k", "1", "--n-range", "1:57"], ["--k-range", "13:15", "--n", "1"]):
        argv = ["bounds", "--p", "2", "--e", "2", *grid, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_figures_csv_renders_every_row(preset, tmp_path):
    # the CLI renders once per (r1, r2) class; here every n is rendered
    out = tmp_path / f"{preset}.csv"
    assert main(["figures", "--preset", preset, "--out", str(out)]) == EXIT_OK
    _, classes = figure_rows(preset)
    label = "N" if preset == "fig1" else "L"
    want = [["n", f"{label}1", f"{label}2", f"{label}1_exact", f"{label}2_exact"]]
    want += [[str(n), decimal_string(own), decimal_string(rival), str(own), str(rival)]
             for ns, own, rival in classes for n in ns]
    assert _read_csv(out) == want


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
    ["complexity", "--p", "2", "--ell", "2", "--k", "1", "--n", "9"],  # n > q(q^2-2)
    ["sequence", "--p", "2", "--ell", "2", "--a", "0:0"],            # a = 0
    # p = 2^89 - 1 is too large for an exact primality test
    ["sequence", "--p", "618970019642690137449562111", "--ell", "2"],
    ["bounds", "--p", "618970019642690137449562111", "--k", "1", "--n", "1"],
    ["bounds", "--p", "3", "--e", "200000", "--k", "1", "--n", "1"],  # q too large
    ["bounds", "--p", "2", "--e", "-3", "--k", "1", "--n", "1"],     # e < 1
    # grid ranges are checked without being listed
    ["complexity", "--p", "2", "--ell", "2", "--k", "1",
     "--n-range", "1:1000000000000"],
    ["bounds", "--p", "2", "--k", "1", "--n-range", "1:1000000000000"],
    ["complexity", "--p", "2", "--ell", "2", "--k-range", "0:1000000000000",
     "--n", "1"],
    ["sequence", "--p", "2", "--ell", "2", "--a", "2:1"],            # digit > p - 1
    ["sequence", "--p", "3", "--ell", "2", "--a", "1"],              # too few digits
])
def test_usage_error_writes_nothing(argv, tmp_path, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["complexity", "--p", "3", "--k", "1", "--n", "5"],
     "the following arguments are required: --ell"),
    (["complexity", "--ell", "2", "--k", "1", "--n", "5"],
     "the following arguments are required: --p"),
    (["complexity", "--p", "2", "--ell", "2", "--n", "1"],
     "one of the arguments --k --k-range is required"),
    (["bounds", "--p", "2", "--k", "1", "--n", "1", "--n-range", "1:2"],
     "argument --n-range: not allowed with argument --n"),
    (["figures"], "the following arguments are required: --preset"),
    (["bounds", "--p", "2", "--k", "1", "--n-range", "5:1"],
     "argument --n-range: range '5:1' is empty"),
    (["sequence", "--p", "2", "--ell", "2", "--modulus", "1:x:1"],
     "argument --modulus: bad value '1:x:1'"),
], ids=["no-ell", "no-p", "no-k", "n-and-n-range", "no-preset",
        "empty-n-range", "bad-modulus"])
def test_grammar_error_is_argparse_usage(argv, message, tmp_path, capsys):
    # missing, conflicting or malformed options are refused by argparse:
    # its usage line, exit 2 and nothing written
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hermseq")
    assert f"error: {message}" in captured.err
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_bounds_has_no_modulus_option(capsys):
    # bounds builds no field, so a --modulus would be silently ignored
    argv = ["bounds", "--p", "2", "--modulus", "7:7:7:7", "--k", "1", "--n", "1"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["figures", "--preset", "fig1", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_field_too_large_refused_quickly(capsys):
    for p in ("1000003", "2305843009213693951"):   # the second is 2^61 - 1
        start = time.perf_counter()
        assert main(["sequence", "--p", p, "--ell", "2"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too many to tabulate" in captured.err


def test_bounds_large_prime_quickly(capsys):
    for p, e in ((1000000007, 1), (2305843009213693951, 1), (1000000007, 2)):
        start = time.perf_counter()
        assert main(["bounds", "--p", str(p), "--e", str(e),
                     "--k", "1", "--n", "1"]) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 2 and rows[1][:3] == ["1", "1", str(p ** e)]


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


@pytest.mark.parametrize("reference,argv", [
    ("verify-default/verify.txt", ["verify"]),
    ("prove-q4/verify.txt", ["verify", "--p", "2", "--e", "2"]),
    ("profile-q4/complexity.csv",
     ["complexity", "--p", "2", "--e", "2", "--ell", "4", "--mode", "total-degree",
      "--k-range", "1:2", "--n-range", "1:56"]),
    ("emit-q32/sequence.csv", ["sequence", "--p", "2", "--e", "5", "--ell", "32"]),
    ("emit-q32/fig1.csv", ["figures", "--preset", "fig1"]),
    ("emit-q32/fig2.csv", ["figures", "--preset", "fig2"]),
], ids=["verify-default", "prove-q4", "profile-q4", "emit-q32-sequence",
        "emit-q32-fig1", "emit-q32-fig2"])
def test_output_matches_reference(reference, argv, capsys):
    # every output the benchmark checks, byte for byte; the .gz files are
    # only read, never written
    assert main(argv) == EXIT_OK
    got = capsys.readouterr().out
    with gzip.open(REFERENCE / f"{reference}.gz", "rt", newline="") as fh:
        want = fh.read()
    if got != want:  # name the first differing line: a full diff takes minutes
        pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
        line = next((i for i, (a, b) in enumerate(pairs, 1) if a != b), "end")
        pytest.fail(f"{reference} differs from the output at line {line}")


# ---------------------------------------------------------------------------
# the line writer against csv.writer
# ---------------------------------------------------------------------------

def _sequence_cells():
    ctx = FieldContext(3, 1)
    steps = ctx.order - 2
    return [["index", "i", "j", "value"]] + [
        [idx, (idx - 1) // steps + 1, (idx - 1) % steps + 1, element_to_str(term, ctx)]
        for idx, term in enumerate(build_sequence(ctx, 3), start=1)]


def _figure_cells():
    _, classes = figure_rows("fig1")
    return [["n", "N1", "N2", "N1_exact", "N2_exact"]] + [
        [n, decimal_string(own), decimal_string(rival), own, rival]
        for ns, own, rival in classes for n in ns]


def _bounds_cells():
    header = ["n", "k", "ell", "r1", "r2", "N_collinear", "L_collinear",
              "N_twopoint", "L_twopoint", "N_refined", "L_refined"]
    rows = [header]
    for n in range(1, 30, 4):
        for k in (1, 2, 3):
            rows.append([n, k, 3, *floor_ratios(4, n)]
                        + [decimal_string(bound(name, 4, k, 3, n)) for name in header[5:]])
    return rows


def _complexity_cells():
    ctx = FieldContext(2, 1)
    terms = build_sequence(ctx, 2)
    rows = [["n", "k", "mode", "result_kind", "value_or_lo", "hi"]]
    for n in range(1, 5):
        for k in (1, 2):
            value = nonlinear_complexity(ctx, terms[:n], TotalDegree(k))
            rows.append([n, k, "total-degree", "exact", value, value])
    return rows


@pytest.mark.parametrize("argv,cells", [
    (["sequence", "--p", "3", "--ell", "3"], _sequence_cells),
    (["figures", "--preset", "fig1"], _figure_cells),
    (["bounds", "--p", "2", "--e", "2", "--ell", "3", "--k-range", "1:3",
      "--n-range", "1:29:4"], _bounds_cells),
    (["complexity", "--p", "2", "--ell", "2", "--mode", "total-degree",
      "--k-range", "1:2", "--n-range", "1:4"], _complexity_cells),
], ids=["sequence", "figures", "bounds", "complexity"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_lines_match_csv_writer(argv, cells, to_file, tmp_path, capsys):
    # the subcommands write unquoted comma-joined lines; csv.writer renders
    # the same cells from the library functions to the same bytes
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(cells())
    out = tmp_path / "out.csv"
    assert main(argv + (["--out", str(out)] if to_file else [])) == EXIT_OK
    printed = capsys.readouterr().out
    if to_file:
        assert printed == ""
        with open(out, newline="") as handle:
            printed = handle.read()
    assert printed == want.getvalue()


def test_bounds_matches_pinned_grid(capsys):
    # every bound formula over a q = 3 grid, recorded with csv.writer, and
    # over a q = 32 grid at ell = 17 < q, recorded from the Fraction
    # formulas, where the (q - ell) terms do not vanish and many values
    # are negative
    for pinned, argv in [
        ("bounds_q3.csv", ["--p", "3", "--k-range", "1:7", "--n-range", "1:21"]),
        ("bounds_q32_ell17.csv", ["--p", "2", "--e", "5", "--ell", "17",
                                  "--k-range", "1:1022:101", "--n-range", "1:32704:2047"]),
    ]:
        assert main(["bounds", *argv]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / pinned).read_text(), pinned


@pytest.mark.parametrize("pinned,argv", [
    ("complexity_q5_ell5_per_variable.csv",
     ["--p", "5", "--ell", "5", "--mode", "per-variable", "--n-range", "1:115"]),
    ("complexity_q7_ell7_total_degree.csv",
     ["--p", "7", "--ell", "7", "--mode", "total-degree", "--n-range", "1:120"]),
    ("complexity_q8_ell8_total_degree.csv",
     ["--p", "2", "--e", "3", "--ell", "8", "--mode", "total-degree", "--n-range", "1:120"]),
    ("complexity_q9_ell9_total_degree.csv",
     ["--p", "3", "--e", "2", "--ell", "9", "--mode", "total-degree", "--n-range", "1:120"]),
], ids=["q5", "q7", "q8", "q9"])
def test_complexity_matches_pinned_profile(pinned, argv, capsys):
    # exact profiles over GF(25), GF(49) and GF(64), recorded from the
    # code-table solver and now solved in byte vectors, and over GF(81),
    # which solves on code tables: a wrong "infeasible" in either vector
    # form moves a value
    assert main(["complexity", *argv, "--k-range", "1:2"]) == EXIT_OK
    assert capsys.readouterr().out == (DATA / pinned).read_text()


def test_verify_e_without_p_is_usage_error(capsys):
    # without --p the default suite would run and silently ignore --e
    assert main(["verify", "--e", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_help_exits_zero():
    assert main(["--help"]) == 0
