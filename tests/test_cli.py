import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from incseq import cli, geometry, groebner, interpolation, oracle
from incseq.cli import main
from incseq.combinatorics import count_increasing, increasing_sequences
from incseq.field import Field, field_from_string
from incseq.poly import format_polynomial, mono_to_str, monomials_up_to_degree, parse_order


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_spec_example(capsys):
    code, out, _ = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "gf:3",
                       "--embedding", "grid:-1", "--order", "deglex", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"basis": 4, "sm": 6, "points": 6}
    assert payload["reduced"] is True
    assert set(payload) == {"kind", "n", "q", "order", "basis", "standard_monomials", "counts", "reduced"}


def test_gb_defaults_match_explicit(capsys):
    code1, out1, _ = run(capsys, "gb", "--n", "2", "--q", "3")
    code2, out2, _ = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "gf:3",
                         "--embedding", "grid:-1", "--order", "deglex")
    assert code1 == code2 == 0
    assert out1 == out2


def test_byte_determinism(capsys):
    args = ["gb", "--n", "3", "--q", "3", "--field", "rational", "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_gb_downset_roundtrip(tmp_path, capsys):
    f = tmp_path / "downset.txt"
    f.write_text("1,1\n1,2\n2,2\n")
    code, out, _ = run(capsys, "gb", "--n", "2", "--q", "3", "--kind", "downset",
                       "--downset-file", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["standard_monomials"]) == ["1", "x1", "x2"]
    assert "reduced" in payload


def test_sm_subcommand(capsys):
    code, out, _ = run(capsys, "sm", "--n", "2", "--q", "3", "--kind", "strict", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"]["sm"] == 3


def test_hilbert_subcommand(capsys):
    code, out, _ = run(capsys, "hilbert", "--n", "2", "--q", "3", "--format", "json")
    assert code == 0
    values = json.loads(out)["values"]
    assert [v["value"] for v in values] == [1, 3, 6]
    code, out, _ = run(capsys, "hilbert", "--n", "2", "--q", "3", "--s", "9", "--format", "json")
    assert json.loads(out)["values"] == [{"s": 9, "value": 6, "closed_form": False}]


@pytest.mark.parametrize("n,q", [("0", "3"), ("2", "0"), ("-3", "3")])
def test_hilbert_refuses_empty_sizes(capsys, n, q):
    for kind in ("full", "strict"):
        code, out, err = run(capsys, "hilbert", "--n", n, "--q", q, "--kind", kind)
        assert code == 2 and out == ""
        assert err == "error: n and q must be >= 1\n"


def test_default_embedding_of_extension_fields(capsys):
    # characteristic >= q: the default is the grid at offset -1, images 0..q-1
    for field, grid in (("gf:5^2", "grid:[4,0]"), ("gf:3^2", "grid:[2,0]")):
        default = run(capsys, "gb", "--n", "2", "--q", "3", "--field", field)
        explicit = run(capsys, "gb", "--n", "2", "--q", "3", "--field", field, "--embedding", grid)
        assert default == explicit and default[0] == 0 and default[1]
    # characteristic < q: the field's first q elements
    default = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "gf:2^2")
    explicit = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "gf:2^2", "--embedding", "list:[0,0],[1,0],[0,1]")
    assert default == explicit and default[0] == 0
    code, out, err = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "gf:2")
    assert code == 2 and out == "" and err == "error: field GF(2) cannot embed [3]\n"


def test_interp_point_and_factored(capsys):
    code, out, _ = run(capsys, "interp", "--n", "5", "--q", "5", "--field", "rational",
                       "--embedding", "grid:0", "--point", "1,2,2,4,4", "--factored", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 4
    assert payload["factored"]["scalar"] == "-1/2"
    assert len(payload["factored"]["factors"]) == 4


def test_interp_values_csv(tmp_path, capsys):
    f = tmp_path / "values.csv"
    rows = ["1,1,1", "1,2,1", "1,3,1", "2,2,1", "2,3,1", "3,3,1"]
    f.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "interp", "--n", "2", "--q", "3", "--field", "rational",
                       "--values", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["polynomial"] == "1"


GF7_VALUES = ["1,1,3", "1,2,0", "2,2,5"]  # n = 2, q = 2


@pytest.mark.parametrize("row", ["2,1,5", "9,9,9,5"])
def test_interp_values_rejects_foreign_row(tmp_path, capsys, row):
    f = tmp_path / "values.csv"
    f.write_text("\n".join(GF7_VALUES + [row]) + "\n")
    code, out, err = run(capsys, "interp", "--n", "2", "--q", "2", "--field", "gf:7", "--values", str(f))
    assert code == 2 and out == ""
    assert "not a nondecreasing sequence" in err


def test_interp_values_rejects_repeated_row(tmp_path, capsys):
    f = tmp_path / "values.csv"
    f.write_text("\n".join(GF7_VALUES + ["1,1,4"]) + "\n")
    code, out, err = run(capsys, "interp", "--n", "2", "--q", "2", "--field", "gf:7", "--values", str(f))
    assert code == 2 and out == ""
    assert "repeats sequence (1, 1)" in err


def test_nonvanish(capsys):
    code, out, _ = run(capsys, "nonvanish", "--poly", "x1 - x2", "--n", "2", "--q", "3",
                       "--field", "gf:3", "--format", "json")
    assert code == 0
    assert json.loads(out)["witness"] == "0,1"
    code, out, _ = run(capsys, "nonvanish", "--poly", "0", "--n", "2", "--q", "3", "--format", "json")
    assert code == 0 and json.loads(out)["zero"] is True
    # degree above the bound is a usage error, found before the embedding is built
    code, _, err = run(capsys, "nonvanish", "--poly", "x1^3", "--n", "2", "--q", "3")
    assert code == 2 and "error" in err
    code, out, err = run(capsys, "nonvanish", "--poly", "x1^3", "--n", "2", "--q", "3", "--embedding", "list:0,0,1")
    assert (code, out, err) == (2, "", "error: degree 3 exceeds the bound 2 for kind 'full'\n")


def test_oracle_builtin(capsys):
    code, out, _ = run(capsys, "oracle", "sm", "--builtin", "jnq:2,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"]["sm"] == 6
    code, out, _ = run(capsys, "oracle", "vanish", "--builtin", "jnq:2,3", "--maxdeg", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["vanishing"] is None
    code, out, _ = run(capsys, "oracle", "sm", "--builtin", "sjnq:2,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"]["sm"] == 3


def test_oracle_points_file(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("0,0\n0,1\n1,1\n")
    code, out, _ = run(capsys, "oracle", "sm", "--points", str(f), "--n", "2", "--q", "3",
                       "--field", "gf:3", "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["standard_monomials"]) == ["1", "x1", "x2"]


@pytest.mark.parametrize("order_name", ["deglex", "lex"])
def test_oracle_points_file_rational(tmp_path, capsys, order_name):
    # a points file over Q, with a repeated point, gives the library's answer
    rows = ["0,0", "1/2,-3", "2,5/7", "1/2,-3", "-1,1", "3,0"]
    f = tmp_path / "pts.txt"
    f.write_text("\n".join(rows) + "\n")
    field, order = field_from_string("rational"), parse_order(order_name)
    pts = [tuple(field.parse_element(x) for x in row.split(",")) for row in rows]
    argv = ["--points", str(f), "--n", "2", "--q", "3", "--field", "rational",
            "--order", order_name, "--format", "json"]
    code, out, _ = run(capsys, "oracle", "sm", *argv)
    assert code == 0
    sm = sorted(oracle.standard_monomials(pts, order), key=order.key)
    assert json.loads(out) == {"standard_monomials": [mono_to_str(m) for m in sm],
                               "counts": {"sm": 5, "points": 5}}
    code, out, _ = run(capsys, "oracle", "vanish", *argv, "--maxdeg", "2")
    assert code == 0
    vp = oracle.vanishing_polynomial(pts, 2, order)
    assert json.loads(out) == {"vanishing": format_polynomial(vp, order), "degree": vp.degree()}


def test_kakeya_paper_example(capsys):
    code, out, _ = run(capsys, "kakeya", "paper-example", "--verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 10 and payload["verified"] is True and payload["bound"] == 10


def test_kakeya_build_and_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 7 and payload["size_bound"] == 9
    f = tmp_path / "t.txt"
    f.write_text("\n".join(payload["points"]) + "\n")
    code, out, _ = run(capsys, "kakeya", "verify", "--in", str(f), "--n", "2", "--q", "3",
                       "--threshold", "3", "--format", "json")
    assert code == 0 and json.loads(out)["ok"] is True
    # damaged set fails with exit 1 and a witness direction
    f.write_text("\n".join(p for p in payload["points"] if p != "0,1") + "\n")
    code, out, _ = run(capsys, "kakeya", "verify", "--in", str(f), "--n", "2", "--q", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["failed_direction"] == "0,1"


def test_kakeya_default_field_is_prime_power(capsys):
    code, out, _ = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 13


def test_nikodym_verify(tmp_path, capsys):
    _, out, _ = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "3", "--format", "json")
    f = tmp_path / "t.txt"
    f.write_text("\n".join(json.loads(out)["points"]) + "\n")
    code, out, _ = run(capsys, "nikodym", "verify", "--in", str(f), "--n", "2", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["size"] == 7 and payload["bound"] == 3
    f.write_text("0,0\n")
    code, out, _ = run(capsys, "nikodym", "verify", "--in", str(f), "--n", "2", "--q", "3", "--format", "json")
    assert code == 1 and json.loads(out)["ok"] is False


def test_nikodym_verify_scans_once(tmp_path, capsys, monkeypatch):
    # the bound check takes the certificate the verdict came from
    _, out, _ = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "3", "--format", "json")
    f = tmp_path / "t.txt"
    f.write_text("\n".join(json.loads(out)["points"]) + "\n")
    calls = []
    verify = geometry.verify_nikodym
    monkeypatch.setattr(geometry, "verify_nikodym", lambda *args: calls.append(args) or verify(*args))
    code, _, _ = run(capsys, "nikodym", "verify", "--in", str(f), "--n", "2", "--q", "3")
    assert code == 0 and len(calls) == 1


def test_cover_search_and_verify(tmp_path, capsys):
    code, out, _ = run(capsys, "cover", "search", "--n", "2", "--q", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == 3
    f = tmp_path / "planes.txt"
    f.write_text("\n".join(payload["witness"]) + "\n")
    code, out, _ = run(capsys, "cover", "verify", "--n", "2", "--q", "3", "--planes", str(f), "--format", "json")
    assert code == 0 and json.loads(out)["covered"] is True
    code, out, _ = run(capsys, "cover", "search", "--n", "2", "--q", "3", "--exclude", "1,1", "--format", "json")
    assert json.loads(out)["minimum"] == 2
    # a non-cover exits 1 with the uncovered witness
    f.write_text("1,0;0\n")
    code, out, _ = run(capsys, "cover", "verify", "--n", "2", "--q", "3", "--planes", str(f), "--format", "json")
    assert code == 1 and json.loads(out)["covered"] is False


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "float:64")
    assert code == 2 and "error" in err
    # grid embedding over too-small characteristic is rejected at parse time
    code, _, err = run(capsys, "gb", "--n", "2", "--q", "3", "--field", "gf:2", "--embedding", "grid:-1")
    assert code == 2 and "characteristic" in err
    code, _, _ = run(capsys, "gb", "--q", "3")  # missing --n
    assert code == 2
    code, _, _ = run(capsys, "gb", "--n", "2")  # missing --q
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_oversized_basis_refused_up_front(capsys, tmp_path):
    # 834,451,800 terms: refused before a single block is built
    code, out, err = run(capsys, "gb", "--n", "12", "--q", "12", "--field", "gf:13")
    assert code == 2 and out == ""
    assert "834451800 terms" in err and f"cap {cli.EXPANSION_CAP}" in err
    # sm builds no basis; it is refused by the 12 exponents of each of the
    # 1,352,078 standard monomials it would list
    code, out, err = run(capsys, "sm", "--n", "12", "--q", "12", "--field", "gf:13")
    assert code == 2 and out == ""
    assert "16224936 exponents in its standard monomials" in err and f"cap {cli.EXPANSION_CAP}" in err
    # n, q = 8, 9 expands to 1,307,504 terms; 8, 8 to 490,314
    code, _, _ = run(capsys, "gb", "--n", "8", "--q", "9", "--kind", "strict")
    assert code == 0
    code, out, _ = run(capsys, "sm", "--n", "8", "--q", "9")
    assert code == 0 and out.startswith("standard monomials (12870): 1 x8 ") and out.endswith(" x1^8\n")
    # a downset's count is its size times n
    f = tmp_path / "F.txt"
    f.write_text("1,1\n")
    code, out, _ = run(capsys, "sm", "--n", "2", "--q", "3", "--kind", "downset", "--downset-file", str(f))
    assert code == 0 and out == "standard monomials (1): 1\n"


def test_sm_counts_the_exponents_it_lists(capsys):
    # 1,000 standard monomials of 999 exponents: under the cap, and listed
    # without a recursion level per variable
    code, out, err = run(capsys, "sm", "--n", "999", "--q", "2")
    assert (code, err) == (0, "") and out.startswith("standard monomials (1000): 1 x999 x998 ")
    # 501,501 standard monomials of 1,000 exponents each are refused
    code, out, err = run(capsys, "sm", "--n", "1000", "--q", "3")
    assert (code, out) == (2, "")
    assert err == ("error: the full basis for n=1000, q=3 has 501501000 exponents in its standard monomials, "
                   f"above the cap {cli.EXPANSION_CAP}\n")


@pytest.mark.parametrize("argv", [["--n", "10000", "--q", "10000"], ["--n", "100000", "--q", "100000", "--s", "99999"]])
def test_hilbert_refuses_values_too_long_to_print(capsys, argv):
    code, out, err = run(capsys, "hilbert", *argv)
    assert (code, out, err) == (2, "", f"error: the full Hilbert function for n={argv[1]}, q={argv[3]} reaches at "
                                       "least 10^4300, too long to print\n")


def test_hilbert_prints_every_value_below_the_print_limit(capsys):
    # h(s) = binom(2s, s) at n = s: the last s below 10^4300 prints in full
    s = next(s for s in range(7000, 8000) if count_increasing(s, s + 1) >= 10**4300) - 1
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "hilbert", "--n", str(s), "--q", str(s + 1), "--s", str(s), "--format", fmt)
        assert (code, err) == (0, "") and str(count_increasing(s, s + 1)) in out
    code, _, err = run(capsys, "hilbert", "--n", str(s + 1), "--q", str(s + 2), "--s", str(s + 1))
    assert code == 2 and "too long to print" in err


HUGE_Q = 10**18
ODD_Q = 1000000016000000063  # (10^9 + 7)(10^9 + 9), not a prime power
HUGE = ["--n", "1", "--q", str(HUGE_Q)]
ENUMERATION_REFUSAL = "refusing to enumerate more than 10000000 sequences"
# counts with millions of digits: a cap row bounds them instead of working them out
WIDE = ["--n", "10000000", "--q", "10000000"]
WIDE_SIZES = "n=10000000, q=10000000"


@pytest.mark.parametrize("argv,message", [
    (["gb", "--n", "1", "--q", str(HUGE_Q)],
     f"the full basis for n=1, q={HUGE_Q} expands to {HUGE_Q + 1} terms, above the cap {cli.EXPANSION_CAP}"),
    (["kakeya", "build-t", "--n", "1", "--q", str(ODD_Q)],
     f"the line star for n=1, q={ODD_Q} may hold {ODD_Q} points, above the cap {cli.VERIFY_WORK_CAP}"),
    (["interp", "--n", "1", "--q", str(HUGE_Q), "--point", "1"],
     f"{HUGE_Q} sequences for n=1, q={HUGE_Q} exceed the interpolation cap {cli.INTERPOLATION_CAP}"),
    (["oracle", "sm", "--builtin", f"jnq:1,{HUGE_Q}"],
     f"{HUGE_Q} points exceed the oracle cap {cli.ORACLE_POINT_CAP}"),
    (["nonvanish", *HUGE, "--poly", "x1"], ENUMERATION_REFUSAL),
    (["cover", "search", *HUGE], ENUMERATION_REFUSAL),
    (["cover", "verify", *HUGE, "--planes", os.devnull], ENUMERATION_REFUSAL),
    (["hilbert", *HUGE],
     f"the full Hilbert function for n=1, q={HUGE_Q} has {HUGE_Q} values, above the cap 100000; "
     "pass --s for one of them"),
    (["kakeya", "verify", "--n", "100000", "--q", "3"],
     f"kakeya verify for n=100000, q=3 may test at least 10^4300 points, above the cap {cli.VERIFY_WORK_CAP}"),
    (["nikodym", "verify", "--n", "100000000", "--q", "3"],
     f"nikodym verify for n=100000000, q=3 may test at least 10^4300 points, above the cap {cli.VERIFY_WORK_CAP}"),
    (["gb", *WIDE], f"the full basis for {WIDE_SIZES} expands to at least 10^4300 terms, above the cap 1000000"),
    (["sm", *WIDE],
     f"the full basis for {WIDE_SIZES} has at least 10^4300 exponents in its standard monomials, above the cap 1000000"),
    (["interp", *WIDE, "--point", "1"],
     f"at least 10^4300 sequences for {WIDE_SIZES} exceed the interpolation cap {cli.INTERPOLATION_CAP}"),
    (["oracle", "sm", "--builtin", "jnq:10000000,10000000"],
     f"at least 10^4300 points exceed the oracle cap {cli.ORACLE_POINT_CAP}"),
    (["kakeya", "build-t", *WIDE],
     f"the line star for {WIDE_SIZES} may hold at least 10^4300 points, above the cap {cli.VERIFY_WORK_CAP}"),
    (["nonvanish", *WIDE, "--poly", "x1"], ENUMERATION_REFUSAL),
    (["cover", "verify", *WIDE, "--planes", os.devnull], ENUMERATION_REFUSAL),
    (["cover", "search", *WIDE], ENUMERATION_REFUSAL),
    # the embedding would build 9,000,000 images; the degree is checked first
    (["nonvanish", "--n", "1", "--q", "9000000", "--poly", "x1^99999999"],
     "degree 99999999 exceeds the bound 8999999 for kind 'full'"),
], ids=["gb", "kakeya-build-t", "interp", "oracle-sm", "nonvanish", "cover-search", "cover-verify", "hilbert",
        "kakeya-verify-wide", "nikodym-verify-wide", "gb-wide", "sm-wide", "interp-wide", "oracle-sm-wide",
        "kakeya-build-t-wide", "nonvanish-wide", "cover-verify-wide", "cover-search-wide", "nonvanish-degree"])
def test_caps_checked_before_the_field(argv, message):
    # the default field of a huge q is found by trial division, which
    # would run for hours; a cap that needs only n and q is checked first,
    # on a count that is never worked out once it is known to be too
    # long to print
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "incseq.cli", *argv], capture_output=True, text=True,
                            env=env, timeout=10)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n,q", [(1, 1), (2, 3), (1, HUGE_Q), (7, 8), (300, 2), (2000, 3000), (8000, 8000),
                                 (10000, 3), (14285, 2)])
def test_cap_counts_exact_below_the_print_limit(n, q):
    # below 10^4300 a row's count is worked out in full, so it prints as it
    # always did; from there on it is 10^4300, printed as a lower bound,
    # whether a cheap bound or the count itself shows it
    rows = {
        ("gb", "full"): groebner.expanded_terms("full", n, q),
        ("sm", "strict"): n * count_increasing(n, q, True) if q >= n else None,
        ("interp", None): count_increasing(n, q),
        ("oracle sm", "strict"): count_increasing(n, q, True),
        ("oracle vanish", "full"): count_increasing(n, q),
        ("kakeya build-t", None): geometry.line_star_size_bound(n, q),
        ("kakeya verify", None): count_increasing(n, q) * q**n,
        ("nikodym verify", None): count_increasing(n, q) * (q**n - 1),
        ("nonvanish", "strict"): count_increasing(n, q, True),
        ("cover search", None): count_increasing(n, q),
    }
    for (row, kind), want in rows.items():
        if want is None:
            continue
        args = argparse.Namespace(n=n, q=q, subcommand=row.split()[0], kind=kind, downset_file=None)
        count, _, _ = cli._CAPS[row](args)
        assert count == (want if want < 10**4300 else cli._HUGE), (row, kind)


def test_cover_plane_cap_checked_before_tables(capsys, monkeypatch):
    # F^2 over GF(2003) has 2004 * 2003 canonical planes; the index tables
    # would be 2003 x 2003, so they must not be built for a refusal
    def refuse(field):
        raise AssertionError("index tables built before the plane cap check")

    monkeypatch.setattr(Field, "tables", refuse)
    code, out, err = run(capsys, "cover", "search", "--n", "2", "--q", "2", "--field", "gf:2003")
    assert code == 2 and out == ""
    assert err == f"error: hyperplane count 4014012 exceeds the cap {geometry.COVER_PLANE_CAP}\n"


def test_oversized_cover_search_refused_up_front(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "increasing_sequences", lambda *a: pytest.fail("enumerated"))
    # n = 8, q = 19 has 1,562,275 targets; GF(19)^8 has 19 (19^8 - 1) / 18 canonical planes
    code, out, err = run(capsys, "cover", "search", "--n", "8", "--q", "19")
    assert code == 2 and out == ""
    assert err == f"error: hyperplane count 17927094320 exceeds the cap {geometry.COVER_PLANE_CAP}\n"
    code, out, err = run(capsys, "cover", "search", "--n", "2", "--q", "3", "--field", "rational")
    assert code == 2 and out == "" and err == "error: cannot enumerate an infinite field\n"


def test_interp_factored_needs_point(capsys, tmp_path):
    values = tmp_path / "values.csv"
    values.write_text("1,1,1\n")
    argv = ["interp", "--n", "2", "--q", "1", "--values", str(values)]
    code, out, err = run(capsys, *argv, "--factored")
    assert code == 2 and out == ""
    assert err == "error: --factored applies to --point, not --values\n"
    assert run(capsys, *argv) == (0, "polynomial: 1\n", "")


def test_oversized_interp_refused_up_front(capsys, monkeypatch):
    enumerate_ = interpolation.increasing_sequences
    monkeypatch.setattr(interpolation, "increasing_sequences", lambda *a: pytest.fail("enumerated"))
    # n = q = 11 has 352,716 sequences
    argv = ["interp", "--n", "11", "--q", "11", "--field", "rational", "--point", ",".join("1" * 11)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == ("error: 352716 sequences for n=11, q=11 exceed the interpolation cap "
                   f"{cli.INTERPOLATION_CAP}\n")
    # the cap itself is accepted: N = 35 at n = q = 4
    monkeypatch.setattr(interpolation, "increasing_sequences", enumerate_)
    monkeypatch.setattr(cli, "INTERPOLATION_CAP", 35)
    code, _, _ = run(capsys, "interp", "--n", "4", "--q", "4", "--field", "rational", "--point", "1,1,1,1")
    assert code == 0
    code, _, err = run(capsys, "interp", "--n", "4", "--q", "5", "--field", "rational", "--point", "1,1,1,1")
    assert code == 2 and "70 sequences" in err


def test_oversized_oracle_refused_up_front(capsys, monkeypatch, tmp_path):
    from incseq import cli

    enumerate_ = cli.increasing_sequences
    monkeypatch.setattr(cli, "increasing_sequences", lambda *a: pytest.fail("enumerated"))
    # jnq:8,8 has 6,435 points and sjnq:9,18 has 48,620
    for op, spec, count in ((["sm"], "jnq:8,8", 6435), (["vanish", "--maxdeg", "2"], "sjnq:9,18", 48620)):
        code, out, err = run(capsys, "oracle", *op, "--builtin", spec, "--field", "gf:19")
        assert code == 2 and out == ""
        assert err == f"error: {count} points exceed the oracle cap {cli.ORACLE_POINT_CAP}\n"
    # a points file is counted after parsing (repeated lines are one point);
    # the cap itself is accepted
    monkeypatch.setattr(cli, "increasing_sequences", enumerate_)
    monkeypatch.setattr(cli, "ORACLE_POINT_CAP", 3)
    points = tmp_path / "points.txt"
    points.write_text("1,2\n2,3\n1,2\n3,3\n")
    code, out, _ = run(capsys, "oracle", "sm", "--points", str(points), "--n", "2", "--q", "3",
                         "--field", "gf:7")
    assert code == 0 and out == "standard monomials (3): 1 x2 x1\n"
    points.write_text("1,2\n2,3\n3,3\n4,4\n")
    code, out, err = run(capsys, "oracle", "sm", "--points", str(points), "--n", "2", "--q", "3",
                         "--field", "gf:7")
    assert code == 2 and out == "" and err == "error: 4 points exceed the oracle cap 3\n"
    code, _, err = run(capsys, "oracle", "sm", "--builtin", "jnq:2,3", "--field", "gf:7")
    assert code == 2 and err == "error: 6 points exceed the oracle cap 3\n"


def test_oracle_points_need_no_q(capsys, tmp_path):
    # no embedding is used with --points, so --q only names a default field
    points = tmp_path / "points.txt"
    points.write_text("1,2\n2,3\n3,3\n5,0\n")
    for op in (["sm"], ["vanish", "--maxdeg", "2"]):
        argv = ["oracle", *op, "--points", str(points), "--n", "2", "--field", "gf:7"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert run(capsys, *argv, "--q", "3") == (0, out, "")
    code, out, err = run(capsys, "oracle", "sm", "--points", str(points), "--n", "2")
    assert code == 2 and out == "" and err == "error: --field is required with --points\n"


@pytest.mark.parametrize("op", [["sm"], ["vanish", "--maxdeg", "2"]])
def test_oracle_points_refuse_embedding(capsys, tmp_path, op):
    # a point file is used as given, so an embedding would be ignored
    points = tmp_path / "points.txt"
    points.write_text("1,2\n2,3\n")
    argv = ["oracle", *op, "--points", str(points), "--n", "2", "--q", "3", "--field", "gf:7"]
    for spec in ("garbage", "grid:0"):
        code, out, err = run(capsys, *argv, "--embedding", spec)
        assert code == 2 and out == "" and err == "error: --embedding is not used with --points\n"
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("op", [["sm"], ["vanish", "--maxdeg", "2"]])
def test_oracle_points_refuse_builtin(capsys, tmp_path, op):
    # both name the point set, so one of them would be ignored
    points = tmp_path / "points.txt"
    points.write_text("1,2\n2,3\n")
    argv = ["oracle", *op, "--points", str(points), "--n", "2", "--field", "gf:7"]
    for spec in ("jnq:2,3", "sjnq:2,3", "garbage"):
        code, out, err = run(capsys, *argv, "--builtin", spec)
        assert code == 2 and out == "" and err == "error: pass --points FILE or --builtin jnq:n,q, not both\n"
    assert run(capsys, *argv)[0] == 0


def _work(*argv):
    """The work count of the cap row that checks argv."""
    return cli._CAPS[" ".join(argv[:2])](cli.build_parser().parse_args(argv))[0]


@pytest.mark.parametrize("kind", ["kakeya", "nikodym"])
def test_oversized_verify_refused_up_front(capsys, monkeypatch, tmp_path, kind):
    def refuse(*args):
        pytest.fail("read or verified the set")

    monkeypatch.setattr(geometry, "parse_points", refuse)
    monkeypatch.setattr(geometry, f"verify_{kind}", refuse)
    # n = 3, q = 101: 176,851 sequences, each with about 101^3 points to test
    argv = [kind, "verify", "--n", "3", "--q", "101", "--in", str(tmp_path / "none.txt")]
    work = _work(kind, "verify", "--n", "3", "--q", "101")
    assert work > cli.VERIFY_WORK_CAP
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"error: {kind} verify for n=3, q=101 may test {work} points, "
                   f"above the cap {cli.VERIFY_WORK_CAP}\n")
    # the cap itself is accepted
    monkeypatch.undo()
    star = tmp_path / "star.txt"
    code, out, _ = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "5")
    star.write_text("\n".join(out.splitlines()[1:]) + "\n")
    monkeypatch.setattr(cli, "VERIFY_WORK_CAP", _work(kind, "verify", "--n", "2", "--q", "5"))
    assert run(capsys, kind, "verify", "--n", "2", "--q", "5", "--in", str(star))[0] == 0
    monkeypatch.setattr(cli, "VERIFY_WORK_CAP", _work(kind, "verify", "--n", "2", "--q", "5") - 1)
    assert run(capsys, kind, "verify", "--n", "2", "--q", "5", "--in", str(star))[0] == 2


def test_oversized_line_star_refused_up_front(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "line_star", lambda *a: pytest.fail("built the line star"))
    bound = geometry.line_star_size_bound(3, 101)
    assert bound == 17675101 > cli.VERIFY_WORK_CAP
    code, out, err = run(capsys, "kakeya", "build-t", "--n", "3", "--q", "101")
    assert code == 2 and out == ""
    assert err == (f"error: the line star for n=3, q=101 may hold {bound} points, "
                   f"above the cap {cli.VERIFY_WORK_CAP}\n")
    # the cap itself is accepted
    monkeypatch.undo()
    monkeypatch.setattr(cli, "VERIFY_WORK_CAP", geometry.line_star_size_bound(2, 5))
    assert run(capsys, "kakeya", "build-t", "--n", "2", "--q", "5")[0] == 0
    monkeypatch.setattr(cli, "VERIFY_WORK_CAP", geometry.line_star_size_bound(2, 5) - 1)
    assert run(capsys, "kakeya", "build-t", "--n", "2", "--q", "5")[0] == 2


@pytest.mark.parametrize("field", [[], ["--field", "gf:3"]], ids=["default-field", "gf3"])
def test_line_star_refuses_q_zero(capsys, field):
    # as every other sized subcommand does, before the field or the embedding
    code, out, err = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "0", *field)
    assert (code, out, err) == (2, "", "error: n and q must be >= 1\n")


def test_oversized_tables_refused_before_building(capsys, monkeypatch, tmp_path):
    from incseq import field as field_module

    # n = 1, q = 3001 passes the verify cap (9,006,001 points) but would
    # need 3001 x 3001 tables; refused before any row is built
    assert _work("kakeya", "verify", "--n", "1", "--q", "3001") <= cli.VERIFY_WORK_CAP
    monkeypatch.setattr(field_module.PrimeField, "elements", lambda *a: pytest.fail("tabulated"))
    points = tmp_path / "points.txt"
    points.write_text("0\n")
    code, out, err = run(capsys, "kakeya", "verify", "--n", "1", "--q", "3001", "--in", str(points))
    assert code == 2 and out == ""
    assert err == f"error: GF(3001) has 3001 elements, above the cap {field_module.TABLE_SIZE_CAP} for q x q tables\n"
    # the cap itself is accepted
    monkeypatch.undo()
    monkeypatch.setattr(field_module, "_INTERNED", {})
    monkeypatch.setattr(field_module, "TABLE_SIZE_CAP", 5)
    assert run(capsys, "kakeya", "build-t", "--n", "2", "--q", "5")[0] == 0
    monkeypatch.setattr(field_module, "_INTERNED", {})
    monkeypatch.setattr(field_module, "TABLE_SIZE_CAP", 4)
    code, _, err = run(capsys, "kakeya", "build-t", "--n", "2", "--q", "5")
    assert code == 2 and err == "error: GF(5) has 5 elements, above the cap 4 for q x q tables\n"


@pytest.mark.parametrize("kind,q,count", [("full", 10, 55), ("strict", 10, 45)])
def test_enumeration_cap_covers_both_kinds(capsys, monkeypatch, kind, q, count):
    from incseq import combinatorics

    assert combinatorics.count_increasing(2, q, kind == "strict") == count
    argv = ["nonvanish", "--kind", kind, "--n", "2", "--q", str(q), "--field", "gf:11", "--poly", "x1"]
    monkeypatch.setattr(combinatorics, "ENUMERATION_CAP", count - 1)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: refusing to enumerate more than {count - 1} sequences\n"
    monkeypatch.setattr(combinatorics, "ENUMERATION_CAP", count)
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("spec", ["jnq", "jnq:3", "jnq:a,b", "jnq:2,3,4", "jnq:2,-3", "kjnq:2,3"])
def test_oracle_builtin_misuse_names_the_form(capsys, spec):
    code, out, err = run(capsys, "oracle", "sm", "--builtin", spec)
    assert code == 2 and out == ""
    assert err == f"error: bad builtin {spec!r}: expected jnq:n,q or sjnq:n,q\n"


@pytest.mark.parametrize("flags,message", [
    (["--n", "9"], "--n disagrees with the builtin spec"),
    (["--q", "4"], "--q disagrees with the builtin spec"),
    (["--n", "9", "--q", "4"], "--q disagrees with the builtin spec"),
])
def test_oracle_builtin_disagreeing_size_refused(capsys, flags, message):
    code, out, err = run(capsys, "oracle", "sm", "--builtin", "jnq:2,3", *flags)
    assert code == 2 and out == "" and err == f"error: {message}\n"
    # sizes that agree with the builtin change nothing
    assert (run(capsys, "oracle", "sm", "--builtin", "jnq:2,3", "--n", "2", "--q", "3")
            == run(capsys, "oracle", "sm", "--builtin", "jnq:2,3"))


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-n", "2", "--max-q", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 9
    assert all(item["passed"] for item in payload)
    # criteria 1, 4 and 8 have budgets; the fields hold the times their details print
    budgets = {1: 5.0, 4: 30.0, 8: 10.0}
    for item in payload:
        assert set(item) == {"index", "name", "passed", "detail", "elapsed_s", "budget_s"}
        assert item["budget_s"] == budgets.get(item["index"])
        if item["budget_s"] is None:
            assert item["elapsed_s"] is None
        else:
            digits = 1 if item["index"] == 4 else 2
            assert 0 <= item["elapsed_s"] < item["budget_s"]
            assert f"{item['elapsed_s']:.{digits}f}s (budget {item['budget_s']:g}s)" in item["detail"]


# SHA-256 of `incseq gb` stdout for full, strict, downset-file and
# minimized downset bases, both term orders and three field kinds.
# Pinned from the implementation before the raw-payload kernels, so any
# change to the bytes of `gb` shows up here.
GB_EMBEDDINGS = {
    "gf:7": "list:2,6,0,3,5",
    "gf:3^2": "list:[1,0],[0,1],[2,1],[1,2],[0,2]",
    "rational": "list:-3/4,2,0,5,1/3",
}
GB_DOWNSET = ["1,1,1", "1,1,2", "1,2,2", "2,2,2", "1,1,3", "1,2,3", "1,1,4", "2,2,3"]
GB_PINS = {
    ("full", "deglex", "gf:7", "text"): "517c0d1bbcbd22a5c09650f3f52852b8dec23470b829fcef6bbc72128e92ca35",
    ("full", "deglex", "gf:7", "json"): "a2b49c6c5989fa3242ff1b462b12231ffdc18ea9c759b7e5b431f75efdd85fd8",
    ("full", "deglex", "gf:3^2", "text"): "4e657e2b157fd2566c21f3d30f67f293ac8d73aec3db89d8eb8b62f380f40a4d",
    ("full", "deglex", "gf:3^2", "json"): "3f9639b8e419fc2f2c638bff8a2ad98b005dbdf723ed73f5787b35d1aff6657f",
    ("full", "deglex", "rational", "text"): "5761eb6b0ed5e6377785d5d54f61c6ae77c69d023a518506d68dd8d9528d9853",
    ("full", "deglex", "rational", "json"): "7ce2157798c8881df4ea82d9a665aaecab731d0c40f30bcba43737415a1d6d68",
    ("full", "lex", "gf:7", "text"): "50503bdd4da1efcb923ea996420b6a771f9fd73e4990b1b904f9da4db9141e2c",
    ("full", "lex", "gf:7", "json"): "61ebd54d6e2373487f82a6bc4036924cd3082436403f782b1032626ec805304c",
    ("full", "lex", "gf:3^2", "text"): "72cc3bf1e913d5f5d5ec4869c4c076b67b6f1158be92db79d10274e3e2b9281d",
    ("full", "lex", "gf:3^2", "json"): "db4d7457a655a8b61a5b0b6e9da74afd5a9c6f45d0bbc4b87573db1acc914979",
    ("full", "lex", "rational", "text"): "e1875ebe72f1bfbb83440e076526d4fa740cc4c0f39f74aa6d3fd9bcf614d354",
    ("full", "lex", "rational", "json"): "f52a9b882fdeaec48a5332f68f46a3f6a6e9587d96a08486b1ec11f63134efed",
    ("strict", "deglex", "gf:7", "text"): "997321e1099b2ccbbb2b996573295c6e000c81c2ed3237eee8423814a29f26f8",
    ("strict", "deglex", "gf:7", "json"): "3d2eb872cd9a5bbe60f8a56b65315e9c8c3fcd358e23136b17894ac824db8922",
    ("strict", "deglex", "gf:3^2", "text"): "aae8bd21b8de3c3f07f91481352cff7ed503ee6079c09fc04a882e6d8e7bf159",
    ("strict", "deglex", "gf:3^2", "json"): "4c04735f5162883af7edbb9a3fba0cee79040c3c01cb7985223d722fe78670cb",
    ("strict", "deglex", "rational", "text"): "c42aec649fabaeaf0b71a4ed3a519d0113608fee0553469e50f9b8ad9c86848d",
    ("strict", "deglex", "rational", "json"): "64e528d7e3b2dd0b0590497a11671bbe49376703d6cfa64aad4e284da6a9c677",
    ("strict", "lex", "gf:7", "text"): "11d9a3ffe3630dbf980a088cdd6683e63bf823b2b9de0648856aed12b1f11631",
    ("strict", "lex", "gf:7", "json"): "9879164d8f8098776b8eb942e58ce1f78ccbc1304a5c9ab68bc2d38cf65e665a",
    ("strict", "lex", "gf:3^2", "text"): "1b711ed0bb92461980e82ce8a09f791ef96aea7d89b2b58d1e2b38f3e0b3a215",
    ("strict", "lex", "gf:3^2", "json"): "d99d0886e92b23577a7f22172f328089dcf6050f3f4ccfdd49a55f85f6ca223f",
    ("strict", "lex", "rational", "text"): "fe17e1a70296c0576f70d57041fcf6d3715c7fd049dcbab147f4ddb906b16d12",
    ("strict", "lex", "rational", "json"): "e7bc150151916475ed65534ac77bda9cb88cbb0f51a499e12405de7b2c030603",
    ("downset", "deglex", "gf:7", "text"): "00d4c94d457b455f22064b11542b2cf26fcb8fbc1cc61ba5717be24580ba4d09",
    ("downset", "deglex", "gf:7", "json"): "7281137eb87dc0378ae8f6e623749c1cbcefdc5d37003cdfe1287f8861804594",
    ("downset", "deglex", "gf:3^2", "text"): "861ff0766a4bcbbc8284dfb02ca3dd799e26373627aa95d478520dd4f6a50537",
    ("downset", "deglex", "gf:3^2", "json"): "ae5364dc8a050f185f6b6f94601198e31a6817716e9003dfa07252c5644f818d",
    ("downset", "deglex", "rational", "text"): "c19bfb61c5b7089af916e364ca90d9f9f3b15095ffd5f4f1e2e0b3b8171b74cb",
    ("downset", "deglex", "rational", "json"): "ced619945c6d6b1a2c73d726bcc01d286f6d45e60e7dcee27ee91bd98bb9c48a",
    ("downset", "lex", "gf:7", "text"): "03078c961706fb0ed2899c654cd76169673d1f9ac4ef6af4a1f2123342b1dfa3",
    ("downset", "lex", "gf:7", "json"): "f2f7becac33a0687d0fbbc8c269d3c87f2328f25c263c87763b2ebf32be29075",
    ("downset", "lex", "gf:3^2", "text"): "c8e63e2536d6e0ceb1751a2ff5508a5923e54a2521e4c527851e75b8db8bf188",
    ("downset", "lex", "gf:3^2", "json"): "279bfd39141a60b35587ac2025aa9dd053f83a4bac6f96e06d8139c3353f6823",
    ("downset", "lex", "rational", "text"): "a40fe96f01a03be6490c3439b08a08b9634f479330f87384d4819b23baf3e4d8",
    ("downset", "lex", "rational", "json"): "d8ce9323b996ee46eedf1164461eca54d944808c3e455deb70eca32acc3ec34c",
    ("minimize", "deglex", "gf:7", "text"): "64129f65bfac2bbba06366d7b80bc792d46cb763fa921565f546ec7cba61a9e7",
    ("minimize", "deglex", "gf:7", "json"): "47f2ea37a02466aec6b05c3e8935d5979793ed479802ef93f98490efd2e5ea8b",
    ("minimize", "deglex", "gf:3^2", "text"): "354d108f5b084536133ed335c83b3bd7ae986af52b759c5bc96bb77cbe894c38",
    ("minimize", "deglex", "gf:3^2", "json"): "231c8f6706991289618d51201a9d65a35d5f740f2df03031a7b4ac537c856112",
    ("minimize", "deglex", "rational", "text"): "c1fffc8f068480300e20b0d761f8249b4faf2c0f85aa99598ed23fbe8ca5ecfd",
    ("minimize", "deglex", "rational", "json"): "ad6164bec1d99e0b9acd1d312f318ddbf1b7229191787e0925121c61baf8a856",
    ("minimize", "lex", "gf:7", "text"): "e3e6687b46e0c88b99173978c69a34cf183342ec50e8f923f73f0cd3bd5d9990",
    ("minimize", "lex", "gf:7", "json"): "07d8dfebc8da28a98d2d7bdbc506fb2abe5dda7530e0bcdad16d3070354dcc33",
    ("minimize", "lex", "gf:3^2", "text"): "724119c53ff5018f80513c571c58bc4ea7616630c51e668299b6ccf08953ef74",
    ("minimize", "lex", "gf:3^2", "json"): "294991fe709a43f5a0f40dc8d71e4e11e90ee2f6043a78ddd2730a0d43dcc463",
    ("minimize", "lex", "rational", "text"): "7ddada56c9b762d8df01d1f5222c6492d6c06ec59e04ecb1eb1c34a80b66633d",
    ("minimize", "lex", "rational", "json"): "a7813079219ed34c732fb7d1bd819e9d21838019ae05ba82f08e24a22d00dc2b",
}


def gb_argv(kind, order, field, fmt, downset_file):
    argv = ["gb", "--n", "3", "--q", "5", "--field", field, "--embedding", GB_EMBEDDINGS[field],
            "--order", order, "--format", fmt]
    if kind == "full" or kind == "strict":
        return argv + ["--kind", kind]
    argv += ["--kind", "downset", "--downset-file", str(downset_file)]
    return argv + ["--minimize"] if kind == "minimize" else argv


@pytest.mark.parametrize("kind,order,field,fmt", sorted(GB_PINS))
def test_gb_bytes_pinned(tmp_path, capsys, kind, order, field, fmt):
    downset_file = tmp_path / "downset.txt"
    downset_file.write_text("\n".join(GB_DOWNSET) + "\n")
    code, out, _ = run(capsys, *gb_argv(kind, order, field, fmt, downset_file))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GB_PINS[(kind, order, field, fmt)]


def outcome_digest(code, out, err):
    return hashlib.sha256(f"exit {code}\n{out}\n{err}".encode()).hexdigest()


# SHA-256 of the exit code, stdout and stderr of `incseq sm` on the GB_PINS
# inputs, and of `incseq hilbert` over the whole range or at s = q, past
# the degree bound of both kinds; strict at (4, 3) is refused.  Pinned
# before full and strict bases were built from one degree bound.
SM_PINS = {
    ("full", "deglex", "gf:7", "text"): "9f73100043e834efd299d1ee6e484d6f3844ea2c4bf91e69ef9effa61e97cac0",
    ("full", "deglex", "gf:7", "json"): "28cdd702481c63d98c93b8490c1ed4c2b0d1a78275fc9557435d47017f4df951",
    ("full", "deglex", "gf:3^2", "text"): "9f73100043e834efd299d1ee6e484d6f3844ea2c4bf91e69ef9effa61e97cac0",
    ("full", "deglex", "gf:3^2", "json"): "28cdd702481c63d98c93b8490c1ed4c2b0d1a78275fc9557435d47017f4df951",
    ("full", "deglex", "rational", "text"): "9f73100043e834efd299d1ee6e484d6f3844ea2c4bf91e69ef9effa61e97cac0",
    ("full", "deglex", "rational", "json"): "28cdd702481c63d98c93b8490c1ed4c2b0d1a78275fc9557435d47017f4df951",
    ("full", "lex", "gf:7", "text"): "81a38d043054325b19492d5c85243353896c656fbb7a958a200fb73387132fb0",
    ("full", "lex", "gf:7", "json"): "b698daebb751a8a7bb0bfbb1eea9e3ae073d83059db92b3413c0734f1109d926",
    ("full", "lex", "gf:3^2", "text"): "81a38d043054325b19492d5c85243353896c656fbb7a958a200fb73387132fb0",
    ("full", "lex", "gf:3^2", "json"): "b698daebb751a8a7bb0bfbb1eea9e3ae073d83059db92b3413c0734f1109d926",
    ("full", "lex", "rational", "text"): "81a38d043054325b19492d5c85243353896c656fbb7a958a200fb73387132fb0",
    ("full", "lex", "rational", "json"): "b698daebb751a8a7bb0bfbb1eea9e3ae073d83059db92b3413c0734f1109d926",
    ("strict", "deglex", "gf:7", "text"): "b2f1b6570260dc7e711cbb0895e8ca74e6263f26e290079417d5cedb6acc490b",
    ("strict", "deglex", "gf:7", "json"): "d6940da4e0a81ee466ba077b6d0bcb4d7ffb5960eb71f85954fba823a8c804cf",
    ("strict", "deglex", "gf:3^2", "text"): "b2f1b6570260dc7e711cbb0895e8ca74e6263f26e290079417d5cedb6acc490b",
    ("strict", "deglex", "gf:3^2", "json"): "d6940da4e0a81ee466ba077b6d0bcb4d7ffb5960eb71f85954fba823a8c804cf",
    ("strict", "deglex", "rational", "text"): "b2f1b6570260dc7e711cbb0895e8ca74e6263f26e290079417d5cedb6acc490b",
    ("strict", "deglex", "rational", "json"): "d6940da4e0a81ee466ba077b6d0bcb4d7ffb5960eb71f85954fba823a8c804cf",
    ("strict", "lex", "gf:7", "text"): "955bddb4b744cc70a64d4cd7ee91db149a9ffb450751d1140e855eb53f905df6",
    ("strict", "lex", "gf:7", "json"): "8c5d9ff03b3323e4d087c41696484cce7d15eeff4a30f70a9ca1eff7d75c83bd",
    ("strict", "lex", "gf:3^2", "text"): "955bddb4b744cc70a64d4cd7ee91db149a9ffb450751d1140e855eb53f905df6",
    ("strict", "lex", "gf:3^2", "json"): "8c5d9ff03b3323e4d087c41696484cce7d15eeff4a30f70a9ca1eff7d75c83bd",
    ("strict", "lex", "rational", "text"): "955bddb4b744cc70a64d4cd7ee91db149a9ffb450751d1140e855eb53f905df6",
    ("strict", "lex", "rational", "json"): "8c5d9ff03b3323e4d087c41696484cce7d15eeff4a30f70a9ca1eff7d75c83bd",
}
HILBERT_PINS = {
    ("full", 2, 3, False, "text"): "76c59d881d63df52dbf777fbc61ad74a5b6c9234328fa4e6d75416916da5aa08",
    ("full", 2, 3, False, "json"): "82d65ad454e32762ef199dd473a10df99aec98d275efc3a23b2215d346b5b1a8",
    ("full", 2, 3, True, "text"): "5d92b9c4a6f012eb6317b41ecd28b11e14955c8eceac22138773f83119fe86a3",
    ("full", 2, 3, True, "json"): "f61e6c0b07e3719ddbf7645753437505c1694e4250b76660e2082a2c9f67973c",
    ("full", 3, 5, False, "text"): "fee26157955d928eafdd1f1ccbd1eb0d4a118bdb531c35e53d00d20ebce4c011",
    ("full", 3, 5, False, "json"): "76bc72a403c14ba1aa42c0c8dfbe13416892dc2fffe4ee23965ee7620876a062",
    ("full", 3, 5, True, "text"): "609a494328e5d1f4c2888d518225129b5a7f6fbfa222a904b4bc5035d949c817",
    ("full", 3, 5, True, "json"): "f7e6b21e628e7b79d7c613d62e6a8013f6973e4bd7707164e035a2bda2179362",
    ("full", 4, 3, False, "text"): "12a7d21a43ef4edd632174589a6a30889d91e3f66a8e9c2bcd7534e07de00956",
    ("full", 4, 3, False, "json"): "9a2a7b243136a1a6b214906673ed22f2db57d1e1d19105458c435975b16ab78f",
    ("full", 4, 3, True, "text"): "cead66ee718889420afdf62f4790d7644f0bef925195829b476fc6857509f557",
    ("full", 4, 3, True, "json"): "a5188987e9bc86f53c2e108852fd73591d6a42be2a399dffd5afc0e38c926afb",
    ("strict", 2, 3, False, "text"): "d17b563dee9287731f4cd3404a9a950424243c0bcc2c55b2d1c60f5941737950",
    ("strict", 2, 3, False, "json"): "0d140a0a0769ceba1428373eae0b7dae6a0c042222d306cdd56db04df7a27163",
    ("strict", 2, 3, True, "text"): "f8789e881d21bf235b8810eefed1b05245e7a4c71ae7f33af50ce65666829203",
    ("strict", 2, 3, True, "json"): "5a59b5b95b6ee0f1fcf79f64888a5f0ad3d85b695e9ece95a98abd071565fc2f",
    ("strict", 3, 5, False, "text"): "8713d06be466b4b4b2c11e9444b6e8ca29667f1f8e62a29b6017d9463c910f12",
    ("strict", 3, 5, False, "json"): "8540b3eb0b9588e88839f663e348481e6cad70e0dc13ab71ecdcd305f458e026",
    ("strict", 3, 5, True, "text"): "e38d38f21a4bc1d11c00c22c05a339c8258ab45facdd0e10a08ea68c78faf594",
    ("strict", 3, 5, True, "json"): "236a4c4f96f461951f80a983122f0b01f627716bd1c35f088deaacc948379572",
    ("strict", 4, 3, False, "text"): "86be69c8bbccffda8600df8472b6ef54e5b39da904480ac966c70a79b42baa29",
    ("strict", 4, 3, False, "json"): "86be69c8bbccffda8600df8472b6ef54e5b39da904480ac966c70a79b42baa29",
    ("strict", 4, 3, True, "text"): "86be69c8bbccffda8600df8472b6ef54e5b39da904480ac966c70a79b42baa29",
    ("strict", 4, 3, True, "json"): "86be69c8bbccffda8600df8472b6ef54e5b39da904480ac966c70a79b42baa29",
}


@pytest.mark.parametrize("kind,order,field,fmt", sorted(SM_PINS))
def test_sm_bytes_pinned(capsys, kind, order, field, fmt):
    argv = ["sm"] + gb_argv(kind, order, field, fmt, None)[1:]
    assert outcome_digest(*run(capsys, *argv)) == SM_PINS[(kind, order, field, fmt)]


@pytest.mark.parametrize("kind,n,q,past,fmt", sorted(HILBERT_PINS))
def test_hilbert_bytes_pinned(capsys, kind, n, q, past, fmt):
    argv = ["hilbert", "--kind", kind, "--n", str(n), "--q", str(q), "--format", fmt]
    argv += ["--s", str(q)] if past else []
    assert outcome_digest(*run(capsys, *argv)) == HILBERT_PINS[(kind, n, q, past, fmt)]


def test_verify_all_text_pinned(capsys):
    code, out, err = run(capsys, "verify-all")
    assert code == 0 and err == ""
    assert re.sub(r"\d+\.\d+s \(budget", "#s (budget", out) == """\
PASS  criterion 1 (groebner): 32 (n,q,field) instances verified in #s (budget 5s)
PASS  criterion 2 (oracle equivalence): 59 standard-monomial sets agree exactly
PASS  criterion 3 (hilbert): 110 (kind,n,q,s) values equal binom(n+s,s) exactly
PASS  criterion 4 (interpolation): 17 (n,q) families delta-exact; worked 4-factor form reproduced; #s (budget 30s)
PASS  criterion 5 (nullstellensatz): 26 nullspaces empty at the degree bounds
PASS  criterion 6 (kakeya): 10-point optimum certified; F_3^2 minimum 6 found; |T(2,3)|=7, |T(3,3)|=13, |T(2,4)|=13
PASS  criterion 7 (nikodym): T(2,3): size 7 >= bound 3; T(3,3): size 13 >= bound 4
PASS  criterion 8 (covers): minima 3/2 exact, sharp covers verified, 12 planes pair-checked in #s (budget 10s)
PASS  criterion 9 (properties): 10^4 order triples, 10^3 reductions, 6 exhaustive field tables, bijection n,q<=6: zero failures
"""


# SHA-256 of `incseq interp` stdout: an indicator with its factored form
# (`--point ... --factored`) and an interpolant from a `--values` CSV, for
# three field kinds, grid and list embeddings, text and json.  Pinned from
# the implementation that inverted the dense evaluation matrix, so the
# triangular solve must reproduce its bytes.  GF(3^2) has characteristic
# 3, so its grid embedding covers [3] only.
INTERP_EMBEDDINGS = {
    ("rational", "grid"): (5, "grid:-1"),
    ("rational", "list"): (5, "list:-3/4,2,0,5,1/3"),
    ("gf:7", "grid"): (5, "grid:2"),
    ("gf:7", "list"): (5, "list:2,6,0,3,5"),
    ("gf:3^2", "grid"): (3, "grid:[1,1]"),
    ("gf:3^2", "list"): (5, "list:[1,0],[0,1],[2,1],[1,2],[0,2]"),
}
INTERP_PINS = {
    ("point", "rational", "grid", "text"): "d96028f264a69e52e12f316cee03974713babdba9292a289496d85ac18e8e58f",
    ("point", "rational", "grid", "json"): "9e9118475c15301d4b107fa71d3ff79391324405472cb9423165f62615b750b3",
    ("point", "rational", "list", "text"): "492e6fbb7fb3e5a816ece0b1715f6a72ebdadf941b92b730d80391bb6f58df0c",
    ("point", "rational", "list", "json"): "401529c65309c76b7e10e68b120e9c3a614b704161fba9feb3b8709acc295bf2",
    ("point", "gf:7", "grid", "text"): "7cab418a83363369bf4436ba2990c51157eeb132213579247ad0df0f80fa9de8",
    ("point", "gf:7", "grid", "json"): "e247843f6a6aca099a8645ae5918fcd36e11b5d3ccf0e52b2b52cf49eab19ba7",
    ("point", "gf:7", "list", "text"): "595e0ea2305bed7af1eb08f4f201024e9ae69224a9d8fe9e8228e39049b7dfad",
    ("point", "gf:7", "list", "json"): "7484e240327adba6f9d941fe82e7d1fcfb9878184de5e7502daa7fa84daa75d4",
    ("point", "gf:3^2", "grid", "text"): "684a220a89e78d159f26710f7c892aafb5b574e6d9d54a35287dd5d262534f4f",
    ("point", "gf:3^2", "grid", "json"): "4911fe7bedb50b22c94fa8c1c336bba615fb9445202f5d46eddeb262dce42391",
    ("point", "gf:3^2", "list", "text"): "8f0d87f4745320fc671abdedbacb3017a3a00657d7e910e9f853d842f3c1d9f5",
    ("point", "gf:3^2", "list", "json"): "b31256e6df75e7ce0f2c5a5ddecc967e31e7321e657b0d4df373ee198407da70",
    ("values", "rational", "grid", "text"): "d3d2a157b570b91d31a2c54cd9a68ccfaac10194dcd9c270e933171a0d773b70",
    ("values", "rational", "grid", "json"): "5bd4b9e373c03e87e287aae00e1efcf5745fe2762552b7ca5303e2fb7bce2b4e",
    ("values", "rational", "list", "text"): "9c95a07616a13141b3b64676487abb61bc9e5a7660d8ef79f407e4dc5394847d",
    ("values", "rational", "list", "json"): "172fb0f287ca465b4e3f1180d9c479db52bca14bb06dab683b0fafac3b392f11",
    ("values", "gf:7", "grid", "text"): "55c8b519aa0f437ecf7ce9eda10ff2d22bbcbfa03ec500772abb6b61b1940d5a",
    ("values", "gf:7", "grid", "json"): "76663cf563d0acb65cecc72a0dff3e9c9a68a2224a9b416143436bcb8a60d11e",
    ("values", "gf:7", "list", "text"): "1d70681c4debb40ba2cf14ecd1fc49ea1288b39ea78b6efb153be91fd7783a43",
    ("values", "gf:7", "list", "json"): "b2a6c7cef005fc72b9c70250e1d3635a4c9e9df039c3f5ce11dfd6f031aec39d",
    ("values", "gf:3^2", "grid", "text"): "49a45bc83436121fd5da6a07e62a99273b5cfcfb5a70f16a5e786602a222e9b6",
    ("values", "gf:3^2", "grid", "json"): "eafc517fb56e0f8dce590aa7ddb0be0338c7f826f347db1803a14c799685f78b",
    ("values", "gf:3^2", "list", "text"): "c4390ea49822fbbd969ed9e0acae186320deeedfdc7e5168cc95b31b102a0395",
    ("values", "gf:3^2", "list", "json"): "c6489518eb33977e49c2c044297c7547b9dd6c48e94be66fa78109884f2948be",
}


def interp_value(field, seq):
    k = (3 * seq[0] + 5 * seq[1] * seq[1] + 7 * seq[2]) % 11 - 5
    if field == "rational":
        return f"{k}/{seq[0] + 1}"
    if field == "gf:7":
        return str(k % 7)
    return f'"[{k % 3},{(k * k + seq[1]) % 3}]"'  # quoted: the element holds a comma


def interp_argv(mode, field, emb, fmt, values_file):
    q, spec = INTERP_EMBEDDINGS[(field, emb)]
    argv = ["interp", "--n", "3", "--q", str(q), "--field", field, "--embedding", spec, "--format", fmt]
    if mode == "point":
        return argv + ["--point", "2,2,3", "--factored"]
    rows = [",".join(map(str, s)) + "," + interp_value(field, s)
            for s in increasing_sequences(3, q)]
    values_file.write_text("\n".join(rows) + "\n")
    return argv + ["--values", str(values_file)]


@pytest.mark.parametrize("mode,field,emb,fmt", sorted(INTERP_PINS))
def test_interp_bytes_pinned(tmp_path, capsys, mode, field, emb, fmt):
    code, out, _ = run(capsys, *interp_argv(mode, field, emb, fmt, tmp_path / "values.csv"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INTERP_PINS[(mode, field, emb, fmt)]


def test_interp_n7_q7_bytes_pinned(capsys):
    """N = 1716 over Q: the stdout of the solve that built the N x N row
    table of P_g(h), pinned before the per-coordinate sweeps replaced it."""
    code, out, _ = run(capsys, "interp", "--n", "7", "--q", "7", "--field", "rational",
                       "--point", "1,2,2,3,5,5,7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9d8021245f1283433ceb1de0918040bd8c63267032ad8d613c04eb4e6f6559fe")


# SHA-256 of `incseq oracle sm` and `incseq oracle vanish` stdout: the
# builtin J(3,5) and strict J(3,5) point sets and a `--points` file with
# a repeated point, both term orders, three field kinds, text and json.
# Pinned from the implementation that ran a dense elimination per
# candidate monomial, so the raw-payload scan must reproduce its bytes.
# That implementation sorted the points of a `--points` file by element
# index, which an infinite field cannot do, so the rational field is
# pinned through the builtins only; test_oracle_points_file_rational
# checks a rational points file against the library.
ORACLE_VALUES = {
    "gf:7": [str(v) for v in range(7)],
    "gf:3^2": [f"[{a},{b}]" for b in range(3) for a in range(3)],
}
ORACLE_SOURCES = {"jnq": ("--builtin", "jnq:3,5", 5), "sjnq": ("--builtin", "sjnq:3,5", 3),
                  "points": ("--points", None, 3)}
ORACLE_PINS = {
    ('jnq', 'sm', 'deglex', 'gf:7', 'text'): "77eb8c1617b01f4361700430c823d4afcaf83fec6e793f3555756eb75014389e",
    ('jnq', 'sm', 'deglex', 'gf:7', 'json'): "b6af88394aff2fe403e117e24953a391dc5cf45190fce991ec9bcfdaf2252223",
    ('jnq', 'sm', 'deglex', 'gf:3^2', 'text'): "77eb8c1617b01f4361700430c823d4afcaf83fec6e793f3555756eb75014389e",
    ('jnq', 'sm', 'deglex', 'gf:3^2', 'json'): "b6af88394aff2fe403e117e24953a391dc5cf45190fce991ec9bcfdaf2252223",
    ('jnq', 'sm', 'deglex', 'rational', 'text'): "77eb8c1617b01f4361700430c823d4afcaf83fec6e793f3555756eb75014389e",
    ('jnq', 'sm', 'deglex', 'rational', 'json'): "b6af88394aff2fe403e117e24953a391dc5cf45190fce991ec9bcfdaf2252223",
    ('jnq', 'sm', 'lex', 'gf:7', 'text'): "a0efa784f19e8c2c8b167881d7125efa8e638fa7fb193b74c52f23c664ecc6cb",
    ('jnq', 'sm', 'lex', 'gf:7', 'json'): "955942bc96662ff80d5cabf6f2e39544462cf1a095f8ba37910e73400591c7e2",
    ('jnq', 'sm', 'lex', 'gf:3^2', 'text'): "a0efa784f19e8c2c8b167881d7125efa8e638fa7fb193b74c52f23c664ecc6cb",
    ('jnq', 'sm', 'lex', 'gf:3^2', 'json'): "955942bc96662ff80d5cabf6f2e39544462cf1a095f8ba37910e73400591c7e2",
    ('jnq', 'sm', 'lex', 'rational', 'text'): "a0efa784f19e8c2c8b167881d7125efa8e638fa7fb193b74c52f23c664ecc6cb",
    ('jnq', 'sm', 'lex', 'rational', 'json'): "955942bc96662ff80d5cabf6f2e39544462cf1a095f8ba37910e73400591c7e2",
    ('jnq', 'vanish', 'deglex', 'gf:7', 'text'): "e1d391e720d26ce72a9d97f35b66e98fdb253cd3859f348a3e625f9768fc67ff",
    ('jnq', 'vanish', 'deglex', 'gf:7', 'json'): "7235ec87a54d34de19972d264078a56a6709d867ec884b74150a52ead7fba82c",
    ('jnq', 'vanish', 'deglex', 'gf:3^2', 'text'): "adc10fe1e052715bc161dc1f0c137179a32a928d6e66968be5162b58475aa318",
    ('jnq', 'vanish', 'deglex', 'gf:3^2', 'json'): "46482a5205b6ca423cff599478e7161e66f56db6b7855680977f4ebf1e90d7af",
    ('jnq', 'vanish', 'deglex', 'rational', 'text'): "13881673bf5931a7805562f6559bd1478799602f8bf6873ac068afe2f6f9fbaf",
    ('jnq', 'vanish', 'deglex', 'rational', 'json'): "5ed017081d25eca7770dbc265a1884978733a91d40070bcbb9229d3632573055",
    ('jnq', 'vanish', 'lex', 'gf:7', 'text'): "e1d391e720d26ce72a9d97f35b66e98fdb253cd3859f348a3e625f9768fc67ff",
    ('jnq', 'vanish', 'lex', 'gf:7', 'json'): "7235ec87a54d34de19972d264078a56a6709d867ec884b74150a52ead7fba82c",
    ('jnq', 'vanish', 'lex', 'gf:3^2', 'text'): "adc10fe1e052715bc161dc1f0c137179a32a928d6e66968be5162b58475aa318",
    ('jnq', 'vanish', 'lex', 'gf:3^2', 'json'): "46482a5205b6ca423cff599478e7161e66f56db6b7855680977f4ebf1e90d7af",
    ('jnq', 'vanish', 'lex', 'rational', 'text'): "13881673bf5931a7805562f6559bd1478799602f8bf6873ac068afe2f6f9fbaf",
    ('jnq', 'vanish', 'lex', 'rational', 'json'): "5ed017081d25eca7770dbc265a1884978733a91d40070bcbb9229d3632573055",
    ('sjnq', 'sm', 'deglex', 'gf:7', 'text'): "6516333f3c73149ba9fff4f3060c14655e94c2a37272c6e540e05695da98f874",
    ('sjnq', 'sm', 'deglex', 'gf:7', 'json'): "63dc2bddc0304db317599a75f58f81ec5253e2fb7a91770a9bcf0821050797da",
    ('sjnq', 'sm', 'deglex', 'gf:3^2', 'text'): "6516333f3c73149ba9fff4f3060c14655e94c2a37272c6e540e05695da98f874",
    ('sjnq', 'sm', 'deglex', 'gf:3^2', 'json'): "63dc2bddc0304db317599a75f58f81ec5253e2fb7a91770a9bcf0821050797da",
    ('sjnq', 'sm', 'deglex', 'rational', 'text'): "6516333f3c73149ba9fff4f3060c14655e94c2a37272c6e540e05695da98f874",
    ('sjnq', 'sm', 'deglex', 'rational', 'json'): "63dc2bddc0304db317599a75f58f81ec5253e2fb7a91770a9bcf0821050797da",
    ('sjnq', 'sm', 'lex', 'gf:7', 'text'): "89de2fbef2079d77fdc930420ca62c69205b5d21244bcca5f450db2c9e403be3",
    ('sjnq', 'sm', 'lex', 'gf:7', 'json'): "707567b94fa289fa343e944521dd3bfdc11b477f46268f7bbca81f9b06bbb72d",
    ('sjnq', 'sm', 'lex', 'gf:3^2', 'text'): "89de2fbef2079d77fdc930420ca62c69205b5d21244bcca5f450db2c9e403be3",
    ('sjnq', 'sm', 'lex', 'gf:3^2', 'json'): "707567b94fa289fa343e944521dd3bfdc11b477f46268f7bbca81f9b06bbb72d",
    ('sjnq', 'sm', 'lex', 'rational', 'text'): "89de2fbef2079d77fdc930420ca62c69205b5d21244bcca5f450db2c9e403be3",
    ('sjnq', 'sm', 'lex', 'rational', 'json'): "707567b94fa289fa343e944521dd3bfdc11b477f46268f7bbca81f9b06bbb72d",
    ('sjnq', 'vanish', 'deglex', 'gf:7', 'text'): "ac69193b235d7a08726530c226821a8773eaeff2e7826689583ac4c93cda9d55",
    ('sjnq', 'vanish', 'deglex', 'gf:7', 'json'): "619420815389060f22feb068869a74b540108f20aef506b792eafda97ddb7327",
    ('sjnq', 'vanish', 'deglex', 'gf:3^2', 'text'): "2bcb0111e4f59af58e4943aac2d93142c3728bd648e23918af7b9171e7b50e84",
    ('sjnq', 'vanish', 'deglex', 'gf:3^2', 'json'): "0a1d750f5f9a675366629a57565f2a33ddc1fde87bf11c8139171509f78daddb",
    ('sjnq', 'vanish', 'deglex', 'rational', 'text'): "c692ec3d2034c9e73ef419fe6c450ec0d54063d223c1c4c68f92c0e184e27f7a",
    ('sjnq', 'vanish', 'deglex', 'rational', 'json'): "e8b860101dcdfcf03eeddb02d6a369ee308c97b19ccc7a8148e8dbee185d5bab",
    ('sjnq', 'vanish', 'lex', 'gf:7', 'text'): "ac69193b235d7a08726530c226821a8773eaeff2e7826689583ac4c93cda9d55",
    ('sjnq', 'vanish', 'lex', 'gf:7', 'json'): "619420815389060f22feb068869a74b540108f20aef506b792eafda97ddb7327",
    ('sjnq', 'vanish', 'lex', 'gf:3^2', 'text'): "2bcb0111e4f59af58e4943aac2d93142c3728bd648e23918af7b9171e7b50e84",
    ('sjnq', 'vanish', 'lex', 'gf:3^2', 'json'): "0a1d750f5f9a675366629a57565f2a33ddc1fde87bf11c8139171509f78daddb",
    ('sjnq', 'vanish', 'lex', 'rational', 'text'): "c692ec3d2034c9e73ef419fe6c450ec0d54063d223c1c4c68f92c0e184e27f7a",
    ('sjnq', 'vanish', 'lex', 'rational', 'json'): "e8b860101dcdfcf03eeddb02d6a369ee308c97b19ccc7a8148e8dbee185d5bab",
    ('points', 'sm', 'deglex', 'gf:7', 'text'): "9db7d3a373d7071201ea2f2b16fbc8448f3da94501df90668ec88b73fd3db9cc",
    ('points', 'sm', 'deglex', 'gf:7', 'json'): "a9f0e41565e8e83b1e4705de41526f1fd231ab3218ee7dfa51aaa6c58599ef01",
    ('points', 'sm', 'deglex', 'gf:3^2', 'text'): "a47ca4d57e1479de196a2e9ef1b2a1eac4e1fb45846b70729712b6153fd1bd89",
    ('points', 'sm', 'deglex', 'gf:3^2', 'json'): "c3cca43e351076fc8921e915435dd292c06e566ce14fa690b8a6251eca57b9e8",
    ('points', 'sm', 'lex', 'gf:7', 'text'): "4404e526293f2eeb9aabc7d24492f2a5bc4eb0302ed574db56d49921f8a07a24",
    ('points', 'sm', 'lex', 'gf:7', 'json'): "4c0679e4365518bb78c3dfc5e52d1cdb38def50143b2b39555b65c05484301a4",
    ('points', 'sm', 'lex', 'gf:3^2', 'text'): "c84247135a2d3159f0ba5ebccb98b4b1d202b8d7957d628d766b512a088fdba5",
    ('points', 'sm', 'lex', 'gf:3^2', 'json'): "803e87e33d18da435925973b6d28f89858f625544aad8b6a1088a4f6c68b94ec",
    ('points', 'vanish', 'deglex', 'gf:7', 'text'): "ca30959280eb17ab73ea5d35d084845c3fe194d416e23961f03577406dc689ed",
    ('points', 'vanish', 'deglex', 'gf:7', 'json'): "2413f828d3b3151e2b64ffeb8eeb53c61bd20671aa5e20aa221c5b22dd40d6dd",
    ('points', 'vanish', 'deglex', 'gf:3^2', 'text'): "0d9830c9f99a3d859f1090480662de154a25e34fdaa3fdba65262cf7b1703743",
    ('points', 'vanish', 'deglex', 'gf:3^2', 'json'): "fbf3cd26666f1f4edab633ffcd44224e14eeea9a4023bbf2487854cf1228749a",
    ('points', 'vanish', 'lex', 'gf:7', 'text'): "cf10e25a788825557a6fa9f7fa9c5a171fc24c8623bc4dd9ca015bd8212b6410",
    ('points', 'vanish', 'lex', 'gf:7', 'json'): "97682d83c5b0cc811eeb30fb4c67977134f0eeb0a1f5d51a6f30b6edda55cbde",
    ('points', 'vanish', 'lex', 'gf:3^2', 'text'): "05392ce88c4f950aa8339c4a5867317be16db25294fd0c2329e4900531ed2ba3",
    ('points', 'vanish', 'lex', 'gf:3^2', 'json'): "c3e7580536b376527a4e27484884cf64862a840d64cfaa2c037039859915a59f",
}


def oracle_points_text(field):
    vals = ORACLE_VALUES[field]
    rows = [(vals[k % len(vals)], vals[(k * k + 1) % len(vals)], vals[(k // 3 + 2 * k) % len(vals)])
            for k in range(12)]
    return "\n".join(",".join(r) for r in rows + rows[4:5]) + "\n"


def oracle_argv(source, op, order, field, fmt, points_file):
    flag, spec, maxdeg = ORACLE_SOURCES[source]
    placed = ["--embedding", GB_EMBEDDINGS[field]]
    if spec is None:
        points_file.write_text(oracle_points_text(field))
        spec, placed = str(points_file), []  # a point file takes no embedding
    argv = ["oracle", op, flag, spec, "--n", "3", "--q", "5", "--field", field, *placed,
            "--order", order, "--format", fmt]
    return argv + ["--maxdeg", str(maxdeg)] if op == "vanish" else argv


@pytest.mark.parametrize("source,op,order,field,fmt", sorted(ORACLE_PINS))
def test_oracle_bytes_pinned(tmp_path, capsys, source, op, order, field, fmt):
    code, out, _ = run(capsys, *oracle_argv(source, op, order, field, fmt, tmp_path / "points.txt"))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_PINS[(source, op, order, field, fmt)]


# SHA-256 of `gb`, `interp --point` and `oracle sm|vanish` stdout over two
# more extension fields: GF(2^3), where -1 = 1, and GF(5^2), an odd
# characteristic other than 3.  n = 3, q = 5 on a list embedding (neither
# field has a grid of 5 points) and, for `oracle --points`, on twelve
# points taken from every element with one repeated.  Pinned from the
# implementation whose GF(p^k) payloads were coefficient tuples.
EXTENSION_EMBEDDINGS = {
    "gf:2^3": "list:[0,1,0],[1,1,0],[0,0,0],[1,0,1],[0,1,1]",
    "gf:5^2": "list:[2,1],[0,3],[4,4],[1,0],[3,2]",
}
EXTENSION_PINS = {
    ("gb-downset", "gf:2^3", "json"): "943371a2883be0e6aaeb39aaa050ac32f4fa435b168f790fcfce78950f6df740",
    ("gb-downset", "gf:2^3", "text"): "89844d98a991a7aa7b433b748a17eb553e7bc5d908c63ea4b59e7d981cee3927",
    ("gb-downset", "gf:5^2", "json"): "f1fb2cc774cea24ea4e1df34e76259c6b4075b81062467776704ce128f70c9eb",
    ("gb-downset", "gf:5^2", "text"): "36c72789d533ed4b041933de899e794085a497ec133e08324543b0f74e0f21f2",
    ("gb-full", "gf:2^3", "json"): "6c500bf140e45daba7ea5828ceea88ebcdc9c78ddbd594b8d26b99d46389980b",
    ("gb-full", "gf:2^3", "text"): "0f0519638ed5f9d34a04d0e7ff5fe0702e2c59f550e6d07042729f682aaa1303",
    ("gb-full", "gf:5^2", "json"): "a266af3c75c573c994fa3998bcb46e87f89c69f20383b593965ae8414985c603",
    ("gb-full", "gf:5^2", "text"): "0648f34c5e4e867444fab8a86446531b592b1ebc00f55438ab862f129dd07300",
    ("gb-strict", "gf:2^3", "json"): "4dbd2aa4d47262d89a6ec3a28790c9ca26f11c5598cea8d7229a5ffc6ab2abcb",
    ("gb-strict", "gf:2^3", "text"): "2e8a3d385337167405d7f02f892ba2c9484eab7d3676f952ff50103399706a83",
    ("gb-strict", "gf:5^2", "json"): "3f6205be3000ee3929f85623acf1760c2104239197f830a0aef249ecb8000bc3",
    ("gb-strict", "gf:5^2", "text"): "a6c257f92b3434957cbf9c8dda2c6266cea0d1ea7e8993751ebc95cbf8f4135d",
    ("interp", "gf:2^3", "json"): "437840b586dafb4f7ac9e0d0211ca5eb675def4fa0ccafb9e6ddab94d5dfac1a",
    ("interp", "gf:2^3", "text"): "1347cd4ee1ef5a3ce73dd8f9ef03da993bed79de752418eab959e6fc55b8742e",
    ("interp", "gf:5^2", "json"): "77fca2bbef0ed224562a9427e34d566eba8474b50c728a869a0e23fa2ac2b24d",
    ("interp", "gf:5^2", "text"): "18d9e6d40241967b0d18e4d3c62194052a91fa97e0686402b63b3aa56d8464c3",
    ("jnq-sm", "gf:2^3", "json"): "b6af88394aff2fe403e117e24953a391dc5cf45190fce991ec9bcfdaf2252223",
    ("jnq-sm", "gf:2^3", "text"): "77eb8c1617b01f4361700430c823d4afcaf83fec6e793f3555756eb75014389e",
    ("jnq-sm", "gf:5^2", "json"): "b6af88394aff2fe403e117e24953a391dc5cf45190fce991ec9bcfdaf2252223",
    ("jnq-sm", "gf:5^2", "text"): "77eb8c1617b01f4361700430c823d4afcaf83fec6e793f3555756eb75014389e",
    ("jnq-vanish", "gf:2^3", "json"): "10091ac4c358a80b99bb6516d50531071e5e08161588880b46e1458604f841ac",
    ("jnq-vanish", "gf:2^3", "text"): "d87c8250340f4fec8885b14a869f6be31925f0a9e39ff3281260098fc5567171",
    ("jnq-vanish", "gf:5^2", "json"): "0be93141eaab849d134a38ff02a02c41a09f2b6dab4164614471a08f864119d9",
    ("jnq-vanish", "gf:5^2", "text"): "b6df3fd2eb09779455c52ae8d148003b9e49af6656cf6ee7383cff626f230cb1",
    ("points-sm", "gf:2^3", "json"): "c3cca43e351076fc8921e915435dd292c06e566ce14fa690b8a6251eca57b9e8",
    ("points-sm", "gf:2^3", "text"): "a47ca4d57e1479de196a2e9ef1b2a1eac4e1fb45846b70729712b6153fd1bd89",
    ("points-sm", "gf:5^2", "json"): "c3cca43e351076fc8921e915435dd292c06e566ce14fa690b8a6251eca57b9e8",
    ("points-sm", "gf:5^2", "text"): "a47ca4d57e1479de196a2e9ef1b2a1eac4e1fb45846b70729712b6153fd1bd89",
    ("points-vanish", "gf:2^3", "json"): "bb8ae63b425bc1674d68855f4cd2cc76aab004e7ca1d5babaddfa81a3e28c368",
    ("points-vanish", "gf:2^3", "text"): "86de0b96d5a1c15192c43b200987daff916335445598ec3f58faa2c422e17a33",
    ("points-vanish", "gf:5^2", "json"): "31112576ec02a6d3b5e5586eeb36024a25b750bc00009aacf7e9df2cb7c11b6b",
    ("points-vanish", "gf:5^2", "text"): "4b04c1d0c45570f3fe77ed37a8d5ee46f50670e2e8b56625305f52c2b1010da1",
}


def extension_argv(case, field, fmt, tmp_path):
    common = ["--n", "3", "--q", "5", "--field", field, "--format", fmt]
    placed = common + ["--embedding", EXTENSION_EMBEDDINGS[field]]
    command, _, op = case.partition("-")
    if command == "gb":
        downset = tmp_path / "downset.txt"
        downset.write_text("\n".join(GB_DOWNSET) + "\n")
        return ["gb", "--kind", op, "--downset-file", str(downset)] + placed
    if command == "interp":
        return ["interp", "--point", "2,2,3", "--factored"] + placed
    if command == "jnq":
        source = ["--builtin", "jnq:3,5"] + placed
    else:
        p, k = (int(v) for v in field[3:].split("^"))
        vals = ["[" + ",".join(str(i // p**j % p) for j in range(k)) + "]" for i in range(p**k)]
        rows = [(vals[j % len(vals)], vals[(j * j + 1) % len(vals)], vals[(j // 3 + 2 * j) % len(vals)])
                for j in range(12)]
        points = tmp_path / "points.txt"
        points.write_text("\n".join(",".join(r) for r in rows + rows[4:5]) + "\n")
        source = ["--points", str(points)] + common  # a point file takes no embedding
    maxdeg = ["--maxdeg", "5" if command == "jnq" else "3"] if op == "vanish" else []
    return ["oracle", op] + source + maxdeg


@pytest.mark.parametrize("case,field,fmt", sorted(EXTENSION_PINS))
def test_extension_field_bytes_pinned(tmp_path, capsys, case, field, fmt):
    code, out, _ = run(capsys, *extension_argv(case, field, fmt, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXTENSION_PINS[(case, field, fmt)]


# SHA-256 of the exit code and stdout of `incseq kakeya`, `nikodym` and
# `cover` over a prime field and two extension fields, text and json.
# Kakeya and Nikodym run in F^n with |F| = q on the line star T, on T
# damaged by dropping its second point (no full line in direction e_n
# is left), on T thinned to two of every three points (threshold 2) and
# on every other point of T (not Nikodym).  Covers run in F^2 over the
# first q field elements, of which the first two are 0 and 1.  Pinned
# from the implementation before the geometry rewrite, so it must
# reproduce the verdicts, witnesses and first-hit bases byte for byte.
# The paper example has its own field, GF(3), so it is pinned once per
# format.
GEOMETRY_KAKEYA = {"gf:5": (3, 5), "gf:2^2": (3, 4), "gf:3^2": (2, 9)}
GEOMETRY_COVER = {
    "gf:5": ["0", "1", "2", "3", "4"],
    "gf:2^2": ["[0,0]", "[1,0]", "[0,1]", "[1,1]"],
    "gf:3^2": ["[0,0]", "[1,0]", "[2,0]", "[0,1]"],
}
GEOMETRY_PINS = {
    ("build-t", "gf:5", "text"): "82213c66c97d329b6a0ceca7e58f5e1a1cdb6c8c8829f8c9d3f02cbb8bab244e",
    ("build-t", "gf:5", "json"): "a96a8f44f0bf4c489660ffabfae0bd25734fcb705ee74d5fea7ee5942cb337bc",
    ("build-t", "gf:2^2", "text"): "b3bfa9e371e47c26e8c3867a22866ed91c23c7fba60e2ef72bec4286029e016f",
    ("build-t", "gf:2^2", "json"): "d79925de9b797e4899d826a9870658f6404faa3fa44bc0e581e000ba81f8228e",
    ("build-t", "gf:3^2", "text"): "825bc6a0420c24ec2dc146540776b6e450bf3d318ce1e0492b28939b5521d4c9",
    ("build-t", "gf:3^2", "json"): "f46f2bd5b309f63ab9565a6dfaf7e5f80b8a4ff1a8103d0eab732713a95320b8",
    ("kakeya-q", "gf:5", "text"): "7e61184121a1b88e5e9288adbf5fac01b25f54fdc1b1b237d732999665f0aa14",
    ("kakeya-q", "gf:5", "json"): "021201c1ab580cbef9c171dd152566d0179887f978e8844ad96c28c3f315119a",
    ("kakeya-q", "gf:2^2", "text"): "72b138f2f9b9037c02fed0637eced918215ef935fad2c83db076448510e09497",
    ("kakeya-q", "gf:2^2", "json"): "ad366692fd5ee4998222ff9d6e5ad968347f6a5a125a1776760216162d11d6ac",
    ("kakeya-q", "gf:3^2", "text"): "7c0da9339f27a7dd19d3d60ad6d553809f952d9e1d62095b8645c346d8723e5f",
    ("kakeya-q", "gf:3^2", "json"): "b530be0c1751c22323c97c92d3a94401cb55d4f089dfbf6e89023987cc6ca9ad",
    ("kakeya-2", "gf:5", "text"): "5d770248fea50bea59084b45e894475a9f57f7f09ba9025bccf2e24ee8700a60",
    ("kakeya-2", "gf:5", "json"): "6439f235cf3ec97912ec75a49654e8f2da801f3ff13e64ab6f3389d1a49feb8f",
    ("kakeya-2", "gf:2^2", "text"): "18197a5ec85b4ea06031bf3c89b8bfb5a5fd529036bd8f2f9fe30571546a33a8",
    ("kakeya-2", "gf:2^2", "json"): "c54ce003c0f5b2b999197f54754b59c40bc9a105459f37db66c03d728951110c",
    ("kakeya-2", "gf:3^2", "text"): "e454000dd423828dc59e6c77cda95aee5694e38ef3fa33756347b6330b574938",
    ("kakeya-2", "gf:3^2", "json"): "23a93cd53733bdbf1e8b08b0b6bb301ff13278c5c4f059bf874734d5b4fa8dd7",
    ("kakeya-damaged", "gf:5", "text"): "8585de8c2f4bf5ba706c3dbbfbc6872ddc16a6b5945b877cb0e36e38c5457ebf",
    ("kakeya-damaged", "gf:5", "json"): "10ab79f6e2a0b060df1ebdd9ec84595731132222e7cc9cf8aaa1c98fd913a58d",
    ("kakeya-damaged", "gf:2^2", "text"): "43020a17aa18fbc7edc84bab1d07bc1285490286f3011c70b5e68aa93a7c5016",
    ("kakeya-damaged", "gf:2^2", "json"): "260f90438ae76a74862adc5b142f975ad342891521e301928f420a89773dab8a",
    ("kakeya-damaged", "gf:3^2", "text"): "9d5865fd06f84c984db14daf4bdcb89fa2d7e12b544ce90503a6fb965d1d1da0",
    ("kakeya-damaged", "gf:3^2", "json"): "b335e5198d17317472f68e99b0b7119037726135240630284e31dfeef36d5577",
    ("nikodym-pass", "gf:5", "text"): "0eb6ab98f0ff20d24283f156e3153a9c3b41ffe3a6bfbd665780e1ff28a6409e",
    ("nikodym-pass", "gf:5", "json"): "41a6cd1efd600717f563444bece80e8ab0acfc07709365a340d352db87cdd41b",
    ("nikodym-pass", "gf:2^2", "text"): "7cbae7ec0d554be17d777b43a3fb6c4ebdba36ff1990718800d22c9cc44d9b29",
    ("nikodym-pass", "gf:2^2", "json"): "8e4eab40a46c9a9fb3c2674be1fe130c1cfe3fbdb519176bca682fae58b7c23d",
    ("nikodym-pass", "gf:3^2", "text"): "57b3e10f157b7927351c786f95ae652e6e040ef8c017b749c84aa9aca8870587",
    ("nikodym-pass", "gf:3^2", "json"): "d1413129b61d5784efcb401e038e0fef3ee9451ad76fff14dc178cceb17ae086",
    ("nikodym-fail", "gf:5", "text"): "e00949f24bd354004c18a530d451e532ada1584b0281eb35e47288d04f41a8be",
    ("nikodym-fail", "gf:5", "json"): "60a3a555ddd2e10126f19818644d99c1c0742a6257d4aea99ebf100ff3513b00",
    ("nikodym-fail", "gf:2^2", "text"): "b4f355821734b8480d15b268168c5d7bdefab4e3570dfb5c847cb44ab2150f2d",
    ("nikodym-fail", "gf:2^2", "json"): "551d8f3a829684af0815cf4381f33da7431f660c9ab94d01f4106f577d285e90",
    ("nikodym-fail", "gf:3^2", "text"): "f4fb62b7e3f5fba902cd72b1e4c67c0c481e2eaa7d7486c6796cfd3d6db6b74b",
    ("nikodym-fail", "gf:3^2", "json"): "7979a231693cc39bfb0c71ad7ea7a6c007f6d1ffa1b53603b44f345790aab8ee",
    ("search-0", "gf:5", "text"): "521df2fa2eecc708ea1ec31b3a16d1fb9f88e703cb475a959c517cf5010cefad",
    ("search-0", "gf:5", "json"): "dfdaf41aedd39fd366d98641798c83fc7d8f6243bbf839230cf949622d1161ec",
    ("search-0", "gf:2^2", "text"): "52df09a3a8423cb9ffe30e614e8d22d4e8a29ac754cac1ae7fce0730e988c837",
    ("search-0", "gf:2^2", "json"): "11679ba8936cd864110e26d622048b29ecbb9a30efbca2448a5629bb4059b104",
    ("search-0", "gf:3^2", "text"): "712e76bfff5baec0b7d41fea693d540c4e2e229ac07b58ea02a4830a3e6a4d81",
    ("search-0", "gf:3^2", "json"): "ad4a89ed6a1aa4d7dcf09abf760691aabbecf7b8e5b09357bb5e6bb980e453c3",
    ("search-1", "gf:5", "text"): "c51fa3cacad8f35bf332f948acff0b9ca4e13d403d2f5ac394e88b62a85099f7",
    ("search-1", "gf:5", "json"): "34ff906c2901d6f0573c12c689cc6d51559e6f4a18312953c371e6b4e87ee9b0",
    ("search-1", "gf:2^2", "text"): "59b66c8db1d658162ef860b87a63ae899f0c778c29dfbf5dd173ae9bec5ddc24",
    ("search-1", "gf:2^2", "json"): "c625fa4553fb345514da3d381388f66c1d09615362d698b90856eca80c0af53c",
    ("search-1", "gf:3^2", "text"): "ebf22ab5b6ac9da5c8c8be0543766e66169c4220296e75419340eb731de36029",
    ("search-1", "gf:3^2", "json"): "a8525a7f55ef7e7f32a81031351209c067a1bd8ee4c26ce8cc31a648f8f470ce",
    ("search-2", "gf:5", "text"): "dc22dbf6106ae12494aa75fcd5e791d50ee21970c09e9e98d102501bb17a3f63",
    ("search-2", "gf:5", "json"): "bc217cb6b075dfe2ae348589a052ada974649bbaf3fd9788dab1c96a1a671cab",
    ("search-2", "gf:2^2", "text"): "d08142f6fff0417ffa3a18f76e89627a54a49cc5c307b7c10b5f38b88ce90cd5",
    ("search-2", "gf:2^2", "json"): "cc7ffbd6f26a2284858f7e018b6411af68852291d24f0a153b935f6a64b87533",
    ("search-2", "gf:3^2", "text"): "a4e61f2c20adc38fcfbbe7d4816c86dd458f2e766dee96bcfa801d99cf03c9c6",
    ("search-2", "gf:3^2", "json"): "e52280983eb693927b2dfdf217c8a6e99f7a230ede33457882826013ae833ca4",
    ("cover-pass", "gf:5", "text"): "b60f4c0eab386f5d595fe9316de1937fa815de571764b16092862f10f56a93ec",
    ("cover-pass", "gf:5", "json"): "dee1e8ec202edf147aeade68c828965845fb1a1ef194507a05d6ed1790af7002",
    ("cover-pass", "gf:2^2", "text"): "796209b5a8f8af7f99f7c9a47f35adf42fab145700cea2668ab0f8b8ed6fd8d1",
    ("cover-pass", "gf:2^2", "json"): "62b47c185ba1fda8ad148fd5a5db5204d11c0b11f354fa0df5e59b68b3e38e65",
    ("cover-pass", "gf:3^2", "text"): "796209b5a8f8af7f99f7c9a47f35adf42fab145700cea2668ab0f8b8ed6fd8d1",
    ("cover-pass", "gf:3^2", "json"): "62b47c185ba1fda8ad148fd5a5db5204d11c0b11f354fa0df5e59b68b3e38e65",
    ("cover-fail", "gf:5", "text"): "eef396b93e69ba616908a7dffea19132f68f8309d451c3458dd5b1cd57db308e",
    ("cover-fail", "gf:5", "json"): "a2958a157b53ac37341a4c8bf6e3367dc79aa4c8efec5f304b142cbfd6150e1f",
    ("cover-fail", "gf:2^2", "text"): "3b40f1a7379909219111e903a75a8fdc641077e4b198c1ebb298799da4f55555",
    ("cover-fail", "gf:2^2", "json"): "e335126c67f4afd7c814001573289d6b3d8cc245260e18073df47e9eb0d9d86f",
    ("cover-fail", "gf:3^2", "text"): "3b40f1a7379909219111e903a75a8fdc641077e4b198c1ebb298799da4f55555",
    ("cover-fail", "gf:3^2", "json"): "e335126c67f4afd7c814001573289d6b3d8cc245260e18073df47e9eb0d9d86f",
    ("paper-example", "gf:3", "text"): "da96c88eb71b15c84a7898df75c24da83014f2dfcd67d8c5b29a7e7c1a00602e",
    ("paper-example", "gf:3", "json"): "e2f6d6471116a9d9315a4dbbb3a9c188fe19b9ea0c9d69db828f9ab008d07497",
}


def geometry_argv(capsys, case, field, fmt, tmp_path):
    if case == "paper-example":
        return ["kakeya", "paper-example", "--verify", "--format", fmt]
    tail = ["--field", field, "--format", fmt]
    if case.startswith(("search", "cover")):
        images = GEOMETRY_COVER[field]
        tail = ["--n", "2", "--q", str(len(images)), "--embedding", "list:" + ",".join(images)] + tail
        if case.startswith("search"):
            excluded = ["1,1", "1,2"][:int(case[-1])]
            return ["cover", "search"] + tail + [a for s in excluded for a in ("--exclude", s)]
        planes = tmp_path / "planes.txt"
        zero, one = images[:2]
        if case == "cover-pass":
            # x2 = e_j for j >= 2, a repeated plane, a comment and a blank line
            rows = ["# x2 = e_j", ""] + [f"{zero},{one};{e}" for e in images[1:] + images[1:2]]
            planes.write_text("\n".join(rows) + "\n")
            return ["cover", "verify", "--planes", str(planes), "--exclude", "1,1"] + tail
        planes.write_text(f"{one},{zero};{zero}\n")
        return ["cover", "verify", "--planes", str(planes)] + tail
    n, q = GEOMETRY_KAKEYA[field]
    tail = ["--n", str(n), "--q", str(q)] + tail
    if case == "build-t":
        return ["kakeya", "build-t"] + tail
    code, out, _ = run(capsys, "kakeya", "build-t", "--n", str(n), "--q", str(q), "--field", field)
    assert code == 0
    star = out.splitlines()[1:]
    points = {"kakeya-2": [p for i, p in enumerate(star) if i % 3 != 1],
              "kakeya-damaged": star[:1] + star[2:], "nikodym-fail": star[::2]}.get(case, star)
    infile = tmp_path / "points.txt"
    infile.write_text("\n".join(points) + "\n")
    if case.startswith("nikodym"):
        return ["nikodym", "verify", "--in", str(infile)] + tail
    threshold = ["--threshold", "2"] if case == "kakeya-2" else []
    return ["kakeya", "verify", "--in", str(infile)] + threshold + tail


@pytest.mark.parametrize("case,field,fmt", sorted(GEOMETRY_PINS))
def test_geometry_bytes_pinned(tmp_path, capsys, case, field, fmt):
    code, out, _ = run(capsys, *geometry_argv(capsys, case, field, fmt, tmp_path))
    digest = hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()
    assert digest == GEOMETRY_PINS[(case, field, fmt)]


# SHA-256 of the exit code and stdout of `incseq cover search` with the
# default field embedding, at sizes GEOMETRY_PINS never reach, with 0, 1
# and 2 excluded sequences.  Pinned from the implementation before the
# index-form rewrite and the certificate-started search, so the minimum
# and the lex-least witness must come out byte for byte.
COVER_SEARCH_EXCLUDED = {2: ["1,1", "1,2"], 3: ["1,1,1", "1,1,2"]}
COVER_SEARCH_PINS = {
    (2, 7, "gf:7", 0, "text"): "3004e1d64956b02f4e9d41638de54a04c284ebd6b6f7a3d915885b241fb48b70",
    (2, 7, "gf:7", 0, "json"): "bab896323383aa6c1e85ff5fbf4cd88801044cf9c3cbd0a6dc37ca7446fb28db",
    (2, 7, "gf:7", 1, "text"): "faaa238f214e7df9e088e35686c7b238dc44029e30cf7a7fc3f1b6a52887bb84",
    (2, 7, "gf:7", 1, "json"): "4da479990cf864a0afb277689155ecaa4c89d7402becfb08e51e7b1d42721444",
    (2, 7, "gf:7", 2, "text"): "e1ffb73f215d880ff467b3171e4ab6644d7101cef1bc63d74acadb6dce75ac3f",
    (2, 7, "gf:7", 2, "json"): "e57667b53c819e4542c9084ca6ff1aef9895d315a16b0c3ae7de3f36988e68cc",
    (3, 5, "gf:5", 0, "text"): "b70034ef57aa707fa8fcb21a23137c6fdf9956d6651f29173d2e9d11860e5622",
    (3, 5, "gf:5", 0, "json"): "8237e08444785b927a334affd98ebb5872b97991cebf2af35d5fd2db1c4204de",
    (3, 5, "gf:5", 1, "text"): "28ddadaeb5e5759649d4e5e79fb56a737efd163ba739b41e73e42c661287c52c",
    (3, 5, "gf:5", 1, "json"): "56a2a292197e1fca2e8b2953497967c304068c7c313ca8d75ec9318c677b76a7",
    (3, 5, "gf:5", 2, "text"): "1008b3397534821e102a1fa74d473e6b61e9e36c39d7e4da0f61a9aefb83f698",
    (3, 5, "gf:5", 2, "json"): "66e0222c309efac06a969c0abf6689f16393a84580292689735fbec49b6b8cc9",
    (2, 9, "gf:3^2", 0, "text"): "2d745facf33dfec64f9e5bfc4980de4473039b7879a47064f97674e3e0a9ee6f",
    (2, 9, "gf:3^2", 0, "json"): "2c10de3f9fcbe886c41be8b11a773c87f7bb92dda61a4bc5876c6f9032aed453",
    (2, 9, "gf:3^2", 1, "text"): "0b5561564c34878704c6d561bbcd44c4cbe0a1334d46a51e3db57a81d00b32f8",
    (2, 9, "gf:3^2", 1, "json"): "61d79fb66c5c7dbe26745f9daf8b000869184c5d306b034f23544bb4ea28ce94",
    (2, 9, "gf:3^2", 2, "text"): "cb15fb6193056a377498fca9816c4eb03a8690a5136d69c85639d0ed28044e1e",
    (2, 9, "gf:3^2", 2, "json"): "062f325cf1efbc59fdff8614ee6b2a52835e50b79fd852710b6fa83da14e1a15",
}


@pytest.mark.parametrize("n,q,field,excluded,fmt", sorted(COVER_SEARCH_PINS))
def test_cover_search_bytes_pinned(capsys, n, q, field, excluded, fmt):
    argv = ["cover", "search", "--n", str(n), "--q", str(q), "--field", field, "--format", fmt]
    for s in COVER_SEARCH_EXCLUDED[n][:excluded]:
        argv += ["--exclude", s]
    code, out, _ = run(capsys, *argv)
    digest = hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()
    assert digest == COVER_SEARCH_PINS[(n, q, field, excluded, fmt)]


# SHA-256 of the exit code and stdout of `incseq nonvanish`, whose `value`
# is an evaluation at the witness.  The dense polynomial has every
# monomial in n = 3 up to the strict degree bound that has x1 or x2, so
# it vanishes on the points (0, 0, t) that come first.  The sparse one in
# n = 4 is c*x1*x4*(x1 - x2): the prefixes x1^2 and x1*x2 of its
# monomials are not terms, and it vanishes while x1 = x2, so the scan
# walks before it stops.  The rational embedding has distinct
# denominators and a zero.  Pinned from the evaluation before the prefix
# plan.
NONVANISH_FIELDS = {  # field: (q, embedding, sparse polynomial)
    "gf:7": (7, None, "3*x1^2*x4 + 4*x1*x2*x4"),
    "gf:2^3": (8, None, "[0,1,1]*x1^2*x4 + [0,1,1]*x1*x2*x4"),
    "gf:3^2": (9, None, "[2,1]*x1^2*x4 + [1,2]*x1*x2*x4"),
    "rational": (7, "list:0,1/2,-2/3,3/4,5,-7/6,2", "-5/3*x1^2*x4 + 5/3*x1*x2*x4"),
}
NONVANISH_PINS = {
    ("gf:7", "full", "dense", "text"): "a0492dcb4639bf151e2c0838517714c5a5451857dd470ddd6478916d92c9afcf",
    ("gf:7", "full", "dense", "json"): "5236446a3fa4df74d98f84ce8cd22a35cfaa2bfdd57bbe04dc5e6a5558770fbe",
    ("gf:7", "full", "sparse", "text"): "26ac3268821aa5cecd4424587eaf21bba45eaa8c76da53139c27dc32980f6946",
    ("gf:7", "full", "sparse", "json"): "5e1a949b8e4365191b1b832f375a85f1b1e533a0c304dad5b991f3f3e0e0222b",
    ("gf:7", "strict", "dense", "text"): "ca31181faaefff61ba0413eb719c05e7321f8849b2a64ff1226108c1cb249c56",
    ("gf:7", "strict", "dense", "json"): "0ab63d7feffc7568513356c95aae1d4f469f8d346bbcaaed02b91d41b68b3ff5",
    ("gf:7", "strict", "sparse", "text"): "6d26111ee7f92f08a1aa7f69f4dbc7236d8e8a3eb5551f64e9b5505135bb6789",
    ("gf:7", "strict", "sparse", "json"): "2a92b7364cd795255ab471835521abab89543527bcd266f52f6435f642539c0f",
    ("gf:2^3", "full", "dense", "text"): "4f4f5609f5856dd99f6aef2822738048de5868915bf1f703a53ccf8798aac748",
    ("gf:2^3", "full", "dense", "json"): "60ccf70c5ed4f29c6ef44ca107a56356e6299e74b27b256efdf2a6c6124dc232",
    ("gf:2^3", "full", "sparse", "text"): "b0640b090a16f9864fdcf1a37e0a9e59aed0aaca8c97521302db4edeb4d335b0",
    ("gf:2^3", "full", "sparse", "json"): "3f731dc8bf042c2c6976e9ee567bf0dcc1d059099048e4c8abcdb1d099914380",
    ("gf:2^3", "strict", "dense", "text"): "785aff3ee50a3cfa8673d1bd69f5ca4e4e35111dca1edfc0ab3f9a4757cfc1e5",
    ("gf:2^3", "strict", "dense", "json"): "5d304fb505d28e994a8a299af9d529344b7b0b763572a8511839cdf18efa0b46",
    ("gf:2^3", "strict", "sparse", "text"): "5e494f1193b8beaf5a98e1c4a080f8bfef85fcce317d6db5a70b626b37c8dab3",
    ("gf:2^3", "strict", "sparse", "json"): "5dfde955138e6f99816af983dc555b37b1bc8cbf3da297838093a52438fdebc5",
    ("gf:3^2", "full", "dense", "text"): "89318891084406740f9fd66900e9a07a01dc6d23551ef5610d4b19ef8bb24854",
    ("gf:3^2", "full", "dense", "json"): "ef383a52d0f7cd6fd83ec706c321bdbafdbf6c6ee2c19553fbf593376c8f1aab",
    ("gf:3^2", "full", "sparse", "text"): "89ce124b8247dc3312bf063fe886b01767bd0cbce595fccd940e7e7c06c63fd2",
    ("gf:3^2", "full", "sparse", "json"): "6015b0a6133f567d0b2bdc2cde03e5243c45d40d8da8df989ad9fbf831284dea",
    ("gf:3^2", "strict", "dense", "text"): "89318891084406740f9fd66900e9a07a01dc6d23551ef5610d4b19ef8bb24854",
    ("gf:3^2", "strict", "dense", "json"): "ef383a52d0f7cd6fd83ec706c321bdbafdbf6c6ee2c19553fbf593376c8f1aab",
    ("gf:3^2", "strict", "sparse", "text"): "a98746e567c7849f69eb827b15a9b25b3106b461e786c2781dac7eed0eb3657c",
    ("gf:3^2", "strict", "sparse", "json"): "4b3052943466d5c8cba069cec8db01ebcca2f89e1af1d26cd05595bf2ba6e064",
    ("rational", "full", "dense", "text"): "08bc21ee06e4d50a656c4b4a3f8be63f909f8f3a484a228cbf93237b188514f8",
    ("rational", "full", "dense", "json"): "01858f278f2af2baf84b59d5d3204cbeb7e92c7ea34afc823d7f6cc5f7a2e416",
    ("rational", "full", "sparse", "text"): "9f3bc93bf81211fbeb7f8056001b94730ea686ce07346b142f76e01ed5effaef",
    ("rational", "full", "sparse", "json"): "930cf80cb35859bd8e880b65303409956a96231cb10b78b475475ddc837fd254",
    ("rational", "strict", "dense", "text"): "2839d6a8fec4eeed13328fdcb90845ca291eac9628a91fd9055c6c76eb1a405c",
    ("rational", "strict", "dense", "json"): "1fbb423fde8b7ad9dd5b0994856bfff0813f564d227314cfb734ee893cb94960",
    ("rational", "strict", "sparse", "text"): "803173570b3c76a078eca894a7ff48a843c5bea4f121c1973874bf852cb6b14c",
    ("rational", "strict", "sparse", "json"): "e6f4a47c382539b9d70b80baec2afb3bcb59508bbb482a7544a4f3b1ea57389e",
}


def nonvanish_argv(field_spec, kind, shape, fmt):
    q, embedding, sparse = NONVANISH_FIELDS[field_spec]
    n = 4 if shape == "sparse" else 3
    text = sparse
    if shape == "dense":
        field = field_from_string(field_spec)
        coeffs = ([field.format_element(e) for e in field.elements()[1:]] if field.size
                  else [f"{(-1) ** i * (i + 1)}/{i % 5 + 1}" for i in range(9)])
        monos = [m for m in monomials_up_to_degree(n, q - n) if m[0] or m[1]]
        text = " + ".join(f"{coeffs[i % len(coeffs)]}*{mono_to_str(m)}" for i, m in enumerate(monos))
    argv = ["nonvanish", "--poly", text, "--n", str(n), "--q", str(q), "--field", field_spec,
            "--kind", kind, "--format", fmt]
    return argv + (["--embedding", embedding] if embedding else [])


@pytest.mark.parametrize("field_spec,kind,shape,fmt", sorted(NONVANISH_PINS))
def test_nonvanish_bytes_pinned(capsys, field_spec, kind, shape, fmt):
    code, out, _ = run(capsys, *nonvanish_argv(field_spec, kind, shape, fmt))
    digest = hashlib.sha256(f"exit {code}\n{out}".encode()).hexdigest()
    assert digest == NONVANISH_PINS[(field_spec, kind, shape, fmt)]


@pytest.mark.parametrize("op", ["search", "verify"])
@pytest.mark.parametrize("excluded", ["2,1", "1"])
def test_cover_rejects_malformed_exclusion(tmp_path, capsys, op, excluded):
    # not nondecreasing, or of the wrong length: such a sequence excludes
    # no point, so it must not lower the bound to q-1
    planes = tmp_path / "planes.txt"
    planes.write_text("1,0;0\n1,0;1\n1,0;2\n")
    tail = ["--planes", str(planes)] if op == "verify" else []
    code, out, err = run(capsys, "cover", op, "--n", "2", "--q", "3", "--exclude", excluded, *tail)
    assert code == 2 and out == ""
    assert f"excluded sequence {excluded} is not a nondecreasing sequence of length 2" in err


@pytest.mark.parametrize("argv,flag", [
    (["kakeya", "verify"], "--in"),
    (["nikodym", "verify"], "--in"),
    (["cover", "verify"], "--planes"),
])
def test_missing_input_file_exit_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "--n", "2", "--q", "3")
    assert code == 2 and out == ""
    assert f"{flag} is required" in err


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of cli.main, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reused_across_calls(capsys, monkeypatch):
    calls = [
        ["gb", "--n", "2", "--q", "3", "--order", "revlex"],  # argparse usage error
        ["cover", "search", "--n", "2", "--q", "3", "--exclude", "1,1", "--exclude", "2,2"],
        ["cover", "search", "--n", "2", "--q", "3", "--exclude", "1,2"],
        ["gb", "--n", "2", "--q", "3", "--field", "rational", "--format", "json"],
    ]
    assert cli._parser() is cli._parser()
    reused = [_outcome(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
    assert "invalid choice: 'revlex'" in reused[0][2]
    monkeypatch.undo()
    # the `append` action starts each call from its default (None), so
    # exclusions do not pile up in the shared parser
    for excluded in (["1,1", "2,2"], ["1,2"], []):
        argv = ["cover", "search", "--n", "2", "--q", "3"]
        for s in excluded:
            argv += ["--exclude", s]
        assert cli._parser().parse_args(argv).exclude == (excluded or None)


# the flags each subcommand and operation takes, besides -h/--help
CLI_SURFACE = {
    "gb": "--n --q --field --embedding --order --format --kind --downset-file --minimize",
    "sm": "--n --q --field --embedding --order --format --kind --downset-file",
    "hilbert": "--n --q --format --kind --s",
    "interp": "--n --q --field --embedding --order --format --point --factored --values",
    "nonvanish": "--n --q --field --embedding --format --poly --kind",
    "oracle sm": "--n --q --field --embedding --order --format --points --builtin",
    "oracle vanish": "--n --q --field --embedding --order --format --points --builtin --maxdeg",
    "kakeya build-t": "--n --q --field --embedding --format",
    "kakeya paper-example": "--format --verify",
    "kakeya verify": "--n --q --field --embedding --format --in --threshold",
    "nikodym": "--n --q --field --embedding --format --in",
    "cover verify": "--n --q --field --embedding --format --exclude --planes",
    "cover search": "--n --q --field --embedding --format --exclude",
    "verify-all": "--format --seed --max-n --max-q",
}


def _leaf_parsers(parser, prefix=""):
    """(command path, parser) for every parser that takes no subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix.strip(), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, f"{prefix} {name}")


def test_cli_surface_pinned():
    surface = {path: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
               for path, p in _leaf_parsers(cli.build_parser())}
    assert surface == {path: set(flags.split()) for path, flags in CLI_SURFACE.items()}


# an over-cap argv and its refusal for every leaf that takes --n and --q
OVER_CAP = {
    "gb": (HUGE, f"the full basis for n=1, q={HUGE_Q} expands to {HUGE_Q + 1} terms, above the cap 1000000"),
    "sm": (HUGE + ["--kind", "strict"],
           f"the strict basis for n=1, q={HUGE_Q} has {HUGE_Q} exponents in its standard monomials, above the cap "
           "1000000"),
    "hilbert": (HUGE + ["--kind", "strict"], f"the strict Hilbert function for n=1, q={HUGE_Q} has {HUGE_Q} "
                                              "values, above the cap 100000; pass --s for one of them"),
    "interp": (HUGE, f"{HUGE_Q} sequences for n=1, q={HUGE_Q} exceed the interpolation cap 100000"),
    "nonvanish": (HUGE + ["--poly", "x1", "--kind", "strict"], ENUMERATION_REFUSAL),
    "oracle sm": (["--builtin", f"sjnq:1,{HUGE_Q}"], f"{HUGE_Q} points exceed the oracle cap 2000"),
    "oracle vanish": (["--builtin", f"jnq:1,{HUGE_Q}", "--maxdeg", "1"], f"{HUGE_Q} points exceed the oracle cap 2000"),
    "kakeya build-t": (["--n", "3", "--q", "101"],
                       "the line star for n=3, q=101 may hold 17675101 points, above the cap 10000000"),
    "kakeya verify": (HUGE, f"kakeya verify for n=1, q={HUGE_Q} may test {HUGE_Q**2} points, above the cap 10000000"),
    "nikodym": (["verify", *HUGE],
                f"nikodym verify for n=1, q={HUGE_Q} may test {HUGE_Q * (HUGE_Q - 1)} points, above the cap 10000000"),
    "cover verify": (HUGE, ENUMERATION_REFUSAL),
    "cover search": (HUGE, ENUMERATION_REFUSAL),
}


@pytest.mark.parametrize("path", [path for path, p in _leaf_parsers(cli.build_parser())
                                  if "--q" in p._option_string_actions])
def test_every_sized_subcommand_checks_its_cap_before_the_field(capsys, monkeypatch, path):
    # a subcommand added without a row in the CLI's cap table fails here
    def fail(*args):
        pytest.fail("worked out a field before the cap")

    monkeypatch.setattr(cli, "field_from_string", fail)
    monkeypatch.setattr(cli, "_default_field_spec", fail)
    argv, message = OVER_CAP[path]
    assert run(capsys, *path.split(), *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,flag", [
    (["hilbert", "--n", "2", "--q", "3", "--field", "nonsense"], "--field"),
    (["hilbert", "--n", "2", "--q", "3", "--embedding", "grid:0"], "--embedding"),
    (["verify-all", "--n", "9", "--max-n", "1", "--max-q", "2"], "--n"),
    (["verify-all", "--q", "9", "--max-n", "1", "--max-q", "2"], "--q"),
    (["verify-all", "--field", "gf:3", "--max-n", "1", "--max-q", "2"], "--field"),
    (["verify-all", "--embedding", "grid:0", "--max-n", "1", "--max-q", "2"], "--embedding"),
    (["kakeya", "paper-example", "--n", "7"], "--n"),
    (["kakeya", "paper-example", "--q", "2"], "--q"),
    (["kakeya", "paper-example", "--field", "nonsense"], "--field"),
    (["kakeya", "paper-example", "--embedding", "grid:0"], "--embedding"),
    (["kakeya", "build-t", "--n", "2", "--q", "3", "--threshold", "2"], "--threshold"),
    (["kakeya", "build-t", "--n", "2", "--q", "3", "--in", "points.txt"], "--in"),
    (["cover", "search", "--n", "2", "--q", "3", "--planes", "planes.txt"], "--planes"),
    (["oracle", "sm", "--builtin", "jnq:2,3", "--maxdeg", "2"], "--maxdeg"),
    (["interp", "--n", "2", "--q", "3", "--point", "1,2", "--seed", "1"], "--seed"),
    (["verify-all", "--order", "lex", "--max-n", "1", "--max-q", "2"], "--order"),
] + [(argv + [flag, value], flag) for argv in [
    ["gb", "--n", "2", "--q", "3"],
    ["sm", "--n", "2", "--q", "3"],
    ["oracle", "sm", "--builtin", "jnq:2,3"],
    ["oracle", "vanish", "--builtin", "jnq:2,3", "--maxdeg", "2"],
] for flag, value in [("--seed", "7")]] + [(argv + [flag, value], flag) for argv in [
    ["hilbert", "--n", "2", "--q", "3"],
    ["nonvanish", "--n", "2", "--q", "3", "--poly", "x1 - x2"],
    ["kakeya", "build-t", "--n", "2", "--q", "3"],
    ["kakeya", "paper-example"],
    ["kakeya", "verify", "--n", "2", "--q", "3", "--in", "plane.txt"],
    ["nikodym", "verify", "--n", "2", "--q", "3", "--in", "plane.txt"],
    ["cover", "verify", "--n", "2", "--q", "3", "--planes", "planes.txt"],
    ["cover", "search", "--n", "2", "--q", "3"],
] for flag, value in [("--seed", "7"), ("--order", "lex")]])
def test_unused_global_flag_refused(capsys, monkeypatch, tmp_path, argv, flag):
    # all of F_3^2 is a Kakeya and a Nikodym set; x1 = 0, 1, 2 cover it
    (tmp_path / "plane.txt").write_text("".join(f"{a},{b}\n" for a in range(3) for b in range(3)))
    (tmp_path / "planes.txt").write_text("1,0;0\n1,0;1\n1,0;2\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = _outcome(capsys, argv)
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} " in err
    # without the flag the same command runs
    i = argv.index(flag)
    code, out, _ = _outcome(capsys, argv[:i] + argv[i + 2:])
    assert code == 0 and out
