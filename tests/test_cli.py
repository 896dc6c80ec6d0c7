import csv
import gzip
import io
import itertools
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from hermseq import cli
from hermseq.bounds import bound, decimal_string, figure_rows, floor_ratios
from hermseq.cli import EXIT_OK, EXIT_USAGE, main
from hermseq.complexity import PerVariable, TotalDegree, nonlinear_complexity
from hermseq.field import Element, FieldContext, element_from_str, element_to_str
from hermseq.sequence import build_sequence


ROOT = Path(__file__).resolve().parent.parent


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


def test_sequence_modulus_is_read_monic(tmp_path):
    # 2z^2 + 2 names the same field as z^2 + 1 over F_3
    outs = [tmp_path / "non-monic.csv", tmp_path / "monic.csv"]
    for modulus, out in zip(("2:0:2", "1:0:1"), outs):
        assert main(["sequence", "--p", "3", "--modulus", modulus, "--ell", "2",
                     "--out", str(out)]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


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


def test_complexity_builds_only_the_rows_it_reads(monkeypatch, capsys):
    # n = 3..15 at q = 4 reads two rows of q^2 - 2 = 14 terms; the n check
    # still names the full length
    built = []

    def spy(ctx, ell, a=None, length=None):
        terms = build_sequence(ctx, ell, a, length)
        built.append(len(terms))
        return terms

    monkeypatch.setattr(cli, "build_sequence", spy)
    base = ["complexity", "--p", "2", "--e", "2", "--ell", "2", "--k", "1"]
    assert main([*base, "--n", "3:15"]) == EXIT_OK
    assert built == [28]
    assert main([*base, "--n", "57"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: n must be in 1..56, got 57\n"


def test_complexity_usage(tmp_path):
    assert main(["complexity", "--p", "2", "--ell", "2",
                 "--n", "1"]) == EXIT_USAGE                        # no k
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
     "the following arguments are required: --k/--k-range"),
    (["figures"], "the following arguments are required: --preset"),
    (["bounds", "--p", "2", "--k", "1", "--n-range", "5:1"],
     "argument --n/--n-range: range '5:1' is empty"),
    (["sequence", "--p", "2", "--ell", "2", "--modulus", "1:x:1"],
     "argument --modulus: bad value '1:x:1'"),
    (["complexity", "--p", "2", "--ell", "2", "--k", "1:2:3:4", "--n", "1"],
     "argument --k/--k-range: bad range '1:2:3:4'; expected LO:HI[:STEP]"),
    (["complexity", "--p", "2", "--ell", "2", "--k", "1:5:0", "--n", "1"],
     "argument --k/--k-range: bad range '1:5:0'; step must be >= 1"),
], ids=["no-ell", "no-p", "no-k", "no-preset", "empty-n-range", "bad-modulus",
        "four-part-range", "zero-step"])
def test_grammar_error_is_argparse_usage(argv, message, tmp_path, capsys):
    # missing or malformed options are refused by argparse:
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
# pinned outputs
# ---------------------------------------------------------------------------

# (argv, pinned file): the benchmark's references, read and never written,
# and tests/data.  verify's text is pinned at every field the CI entry-point
# step runs.  The bounds grids: every formula at q = 3, recorded with
# csv.writer, and at q = 32, ell = 17 < q, recorded from the Fraction
# formulas, where the (q - ell) terms do not vanish and many values are
# negative.  The complexity profiles over GF(25), GF(49) and GF(64) are
# solved in byte vectors; those over GF(81), GF(121), GF(256) and GF(251^2)
# were recorded on the code tables the digit lanes replaced, one per lane
# layout: four 4-bit digits, two 8-bit and two 16-bit digits, and the code
# in characteristic 2.  The one over GF(3^10), ten 4-bit digits in 64-bit
# lanes, the widest the lanes take, was recorded before the byte form
# became the lanes' one-byte case.  The two wide-k profiles at q = 5, k up
# to 24 per variable, where exponents cap at q^2 - 1, and up to 48 = 2(q^2 -
# 1) in total degree, were recorded when each k walked its own chain.  A
# wrong "infeasible" moves a value
PINS = {
    "verify-default": (["verify"], "perfbench/reference/verify-default/verify.txt.gz"),
    "prove-q4": (["verify", "--p", "2", "--e", "2"],
                 "perfbench/reference/prove-q4/verify.txt.gz"),
    "profile-q4": (["complexity", "--p", "2", "--e", "2", "--ell", "4", "--mode",
                    "total-degree", "--k-range", "1:2", "--n-range", "1:56"],
                   "perfbench/reference/profile-q4/complexity.csv.gz"),
    "emit-q32-sequence": (["sequence", "--p", "2", "--e", "5", "--ell", "32"],
                          "perfbench/reference/emit-q32/sequence.csv.gz"),
    "emit-q32-fig1": (["figures", "--preset", "fig1"],
                      "perfbench/reference/emit-q32/fig1.csv.gz"),
    "emit-q32-fig2": (["figures", "--preset", "fig2"],
                      "perfbench/reference/emit-q32/fig2.csv.gz"),
    "verify-q3": (["verify", "--p", "3"], "tests/data/verify_p3.txt"),
    "verify-q5": (["verify", "--p", "5"], "tests/data/verify_p5.txt"),
    "verify-q7": (["verify", "--p", "7"], "tests/data/verify_p7.txt"),
    "verify-q8": (["verify", "--p", "2", "--e", "3"], "tests/data/verify_p2_e3.txt"),
    "verify-q9": (["verify", "--p", "3", "--e", "2"], "tests/data/verify_p3_e2.txt"),
    "verify-q11": (["verify", "--p", "11"], "tests/data/verify_p11.txt"),
    "verify-q16": (["verify", "--p", "2", "--e", "4"], "tests/data/verify_p2_e4.txt"),
    "verify-q32": (["verify", "--p", "2", "--e", "5"], "tests/data/verify_p2_e5.txt"),
    "bounds-q3": (["bounds", "--p", "3", "--k-range", "1:7", "--n-range", "1:21"],
                  "tests/data/bounds_q3.csv"),
    "bounds-q32-ell17": (["bounds", "--p", "2", "--e", "5", "--ell", "17", "--k-range",
                          "1:1022:101", "--n-range", "1:32704:2047"],
                         "tests/data/bounds_q32_ell17.csv"),
    "complexity-q5": (["complexity", "--p", "5", "--ell", "5", "--mode", "per-variable",
                       "--k-range", "1:2", "--n-range", "1:115"],
                      "tests/data/complexity_q5_ell5_per_variable.csv"),
    "complexity-q5-k24": (["complexity", "--p", "5", "--ell", "5", "--mode", "per-variable",
                           "--k-range", "1:24", "--n-range", "1:115"],
                          "tests/data/complexity_q5_ell5_per_variable_k24.csv"),
    "complexity-q5-k48": (["complexity", "--p", "5", "--ell", "5", "--mode", "total-degree",
                           "--k-range", "1:48", "--n-range", "1:115"],
                          "tests/data/complexity_q5_ell5_total_degree_k48.csv"),
    "complexity-q7": (["complexity", "--p", "7", "--ell", "7", "--mode", "total-degree",
                       "--k-range", "1:2", "--n-range", "1:120"],
                      "tests/data/complexity_q7_ell7_total_degree.csv"),
    "complexity-q8": (["complexity", "--p", "2", "--e", "3", "--ell", "8", "--mode",
                       "total-degree", "--k-range", "1:2", "--n-range", "1:120"],
                      "tests/data/complexity_q8_ell8_total_degree.csv"),
    "complexity-q9": (["complexity", "--p", "3", "--e", "2", "--ell", "9", "--mode",
                       "total-degree", "--k-range", "1:2", "--n-range", "1:120"],
                      "tests/data/complexity_q9_ell9_total_degree.csv"),
    "complexity-q11": (["complexity", "--p", "11", "--ell", "11", "--mode", "total-degree",
                        "--k-range", "1:2", "--n-range", "1:120"],
                       "tests/data/complexity_q11_ell11_total_degree.csv"),
    "complexity-q16": (["complexity", "--p", "2", "--e", "4", "--ell", "16", "--mode",
                        "total-degree", "--k-range", "1:2", "--n-range", "1:120"],
                       "tests/data/complexity_q16_ell16_total_degree.csv"),
    "complexity-q251": (["complexity", "--p", "251", "--ell", "2", "--mode", "per-variable",
                         "--k", "1", "--n-range", "1:20"],
                        "tests/data/complexity_q251_ell2_per_variable.csv"),
    "complexity-q243": (["complexity", "--p", "3", "--e", "5", "--ell", "2", "--mode",
                         "per-variable", "--k", "1", "--n-range", "1:30"],
                        "tests/data/complexity_q243_ell2_per_variable.csv"),
}


@pytest.mark.parametrize("argv,pinned", list(PINS.values()), ids=list(PINS))
def test_output_matches_reference(argv, pinned, capsys):
    # every pinned output, byte for byte
    assert main(argv) == EXIT_OK
    got = capsys.readouterr().out
    path = ROOT / pinned
    with (gzip.open if path.suffix == ".gz" else open)(path, "rt", newline="") as fh:
        want = fh.read()
    if got != want:  # name the first differing line: a full diff takes minutes
        pairs = itertools.zip_longest(got.splitlines(), want.splitlines())
        line = next((i for i, (a, b) in enumerate(pairs, 1) if a != b), "end")
        pytest.fail(f"{pinned} differs from the output at line {line}")


# ---------------------------------------------------------------------------
# the line writer against csv.writer
# ---------------------------------------------------------------------------

def _sequence_cells():
    ctx = FieldContext(3, 1)
    steps = ctx.order - 2
    return [["index", "i", "j", "value"]] + [
        [idx, (idx - 1) // steps + 1, (idx - 1) % steps + 1, element_to_str(term, ctx)]
        for idx, term in enumerate(build_sequence(ctx, 3), start=1)]


def _figure_cells(preset):
    # the CLI renders once per (r1, r2) class; here every n is rendered
    _, classes = figure_rows(preset)
    label = "N" if preset == "fig1" else "L"
    return [["n", f"{label}1", f"{label}2", f"{label}1_exact", f"{label}2_exact"]] + [
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
    (["figures", "--preset", "fig1"], lambda: _figure_cells("fig1")),
    (["figures", "--preset", "fig2"], lambda: _figure_cells("fig2")),
    (["bounds", "--p", "2", "--e", "2", "--ell", "3", "--k-range", "1:3",
      "--n-range", "1:29:4"], _bounds_cells),
    (["complexity", "--p", "2", "--ell", "2", "--mode", "total-degree",
      "--k-range", "1:2", "--n-range", "1:4"], _complexity_cells),
], ids=["sequence", "figures", "figures-fig2", "bounds", "complexity"])
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


def test_grid_axis_names_are_one_option(capsys):
    # --k and --k-range (and --n and --n-range) are two names for one
    # option: either spelling, a range or one integer, gives the same bytes,
    # and an axis given twice keeps its last value
    pinned = (ROOT / "tests" / "data" / "bounds_q3.csv").read_text()
    for grid in (["--k", "1:7", "--n", "1:21"], ["--k-range", "1:7", "--n-range", "1:21"]):
        assert main(["bounds", "--p", "3", *grid]) == EXIT_OK
        assert capsys.readouterr().out == pinned
    base = ["complexity", "--p", "2", "--e", "2", "--ell", "4", "--k", "1:2"]
    outs = []
    for n in (["--n", "37"], ["--n-range", "37"], ["--n-range", "37:37"],
              ["--n", "5", "--n-range", "37"]):
        assert main(base + n) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0].count("\n") == 3 and outs[1:] == outs[:1] * 3


def test_option_prefixes_are_usage_errors(tmp_path, capsys):
    # argparse's prefix matching is off, so a shortened option name is
    # refused with the usage code and nothing written, while both names of
    # each grid axis still parse
    out = tmp_path / "x.csv"
    base = ["complexity", "--p", "2", "--ell", "2"]
    for grid in (["--k-r", "1:2", "--n-r", "1:4", "--ou", str(out)],
                 ["--k-r", "1:2", "--n", "1:4", "--out", str(out)],
                 ["--k", "1:2", "--n-r", "1:4", "--out", str(out)],
                 ["--k", "1:2", "--n", "1:4", "--ou", str(out)]):
        assert main(base + grid) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage: hermseq")
        assert not out.exists()
    outs = []
    for grid in (["--k", "1:2", "--n", "1:4"], ["--k-range", "1:2", "--n-range", "1:4"]):
        assert main(base + grid + ["--out", str(out)]) == EXIT_OK
        outs.append(out.read_text())
    assert outs[0].count("\n") == 9 and outs[1] == outs[0]


def test_verify_e_without_p_is_usage_error(capsys):
    # without --p the default suite would run and silently ignore --e
    assert main(["verify", "--e", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("argv,code", [
    (["bounds", "--p", "2", "--k", "1", "--n", "1"], EXIT_OK),
    (["sequence", "--p", "2", "--ell", "3"], EXIT_USAGE),
], ids=["ok", "usage"])
def test_entrypoint_exits_with_mains_code(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hermseq", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entrypoint()
    assert exited.value.code == code == main(argv)
