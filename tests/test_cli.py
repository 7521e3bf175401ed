from fractions import Fraction

import pytest

from doublebase.cli import build_parser, main
from doublebase.config import Config
from doublebase.critical import generalized_golden_ratio, ks_crosscheck, parse_curve_csv
from doublebase.solvers import mu
from doublebase.words import parse_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gr(capsys):
    code, out, _ = run(capsys, "gr", "1.75")
    assert code == 0
    assert "case=RightFormula" in out
    lo, hi = out.split("]")[0].strip("[").split(",")
    assert abs(float(lo) - 1.5714285714) < 1e-8
    assert float(lo) <= float(hi)


@pytest.mark.parametrize("argv", [
    ("gr", "inf"),
    ("kl", "inf"),
    ("classify-u", "--q0", "inf", "--q1", "1.5"),
    ("expand", "--q0", "inf", "--q1", "1.5"),
    ("expand", "--q0", "2", "--q1", "inf"),
], ids=" ".join)
def test_infinite_base_is_a_precondition_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("ks", "--q0", "1.5", "--q1", "1.0"),
    ("verify", "--q0", "1.5", "--q1", "1.0", "--word", "(01)"),
    ("dim", "--q0", "1.5", "--q1", "nan"),
    ("reduce", "--d0", "0", "--q0", "1", "--d1", "1", "--q1", "1.5"),
], ids=" ".join)
def test_base_outside_the_domain_is_a_precondition_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")


def test_kl(capsys):
    code, out, _ = run(capsys, "kl", "1.5")
    assert code == 0
    assert "case=LeftFormula" in out
    lo, hi = out.split("]")[0].strip("[").split(",")
    assert float(lo) <= 2.0 <= float(hi) + 1e-9


def test_mu(capsys):
    code, out, _ = run(capsys, "mu", "--u", "(01)", "--v", "(10)")
    assert code == 0
    lo = float(out.split("]")[0].strip("[").split(",")[0])
    assert abs(lo - 1.6180339887) < 1e-8


def test_classify_omega(capsys):
    code, out, _ = run(capsys, "classify-omega", "--a", "01(0)", "--b", "1(0)")
    assert code == 0
    assert out.strip() == "CountableNontrivial"


def test_classify_u(capsys):
    code, out, _ = run(capsys, "classify-u", "--q0", "1.7", "--q1", "1.7")
    assert code == 0
    assert out.strip() == "CountableNontrivial"


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--q0", "2", "--q1", "1.5",
                       "--mode", "quasi-greedy", "--digits", "8")
    assert code == 0
    assert out.splitlines()[0] == "01101010"
    code, out, _ = run(capsys, "expand", "--q0", "2", "--q1", "1.5",
                       "--mode", "quasi-lazy", "--digits", "6")
    assert code == 0
    assert out.splitlines()[0] == "101010"


def test_smap(capsys):
    code, out, _ = run(capsys, "smap", "--word", "(01)")
    assert code == 0
    assert out.strip() == "M(L)"


def test_limit_word(capsys):
    code, out, _ = run(capsys, "limit-word", "--directive", "(M)", "--length", "16")
    assert code == 0
    assert out.strip() == "0110100110010110"


def test_entropy(capsys):
    code, out, _ = run(capsys, "entropy", "--a", "0(1)", "--b", "1(0)")
    assert code == 0
    assert abs(float(out.split()[0]) - 0.6931471805599453) < 1e-12


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--r0", "0.5", "--r1", "0.25")
    assert code == 0
    assert abs(float(out.strip()) - 0.6942419136306174) < 1e-9
    code, out, _ = run(capsys, "dim", "--q0", "1.9", "--q1", "1.8")
    assert code == 0
    assert float(out.strip()) > 0


def test_curve_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "curve.csv"
    code, out, _ = run(capsys, "curve", "--from", "1.5", "--to", "2.0",
                       "--samples", "3", "--what", "both", "--out", str(out_file))
    assert code == 0
    rows = parse_curve_csv(out_file.read_text())
    assert len(rows) == 6
    assert {r.which for r in rows} == {"gr", "kl"}


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--d0", "0", "--q0", "2", "--d1", "1", "--q1", "3")
    assert code == 0
    assert "offset=0.0" in out and "scale=1.0" in out
    code, out, err = run(capsys, "reduce", "--d0", "1", "--q0", "2", "--d1", "1", "--q1", "2")
    assert code == 2
    assert "degenerate" in err


def test_ks(capsys):
    code, out, _ = run(capsys, "ks", "--q0", "1.9", "--q1", "1.7")
    assert code == 0
    assert out.strip().startswith(">")


def test_ks_tie_exits_undecided(capsys):
    # at K(2) = 1.5 the digit streams agree as far as they are compared:
    # "=" is a stream tie, not a certified equality
    code, out, _ = run(capsys, "ks", "--q0", "2", "--q1", "1.5")
    assert code == 3
    assert out.strip().startswith("=")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--q0", "2", "--q1", "1.6", "--word", "1(0)")
    assert code == 0
    assert out.strip() == "Boundary"


@pytest.mark.parametrize("shifts", ["0", "-2"])
def test_verify_without_a_shift_is_a_precondition_error(capsys, shifts):
    # checking no shift proves nothing, so it is not an In
    code, out, err = run(capsys, "verify", "--q0", "1.5", "--q1", "1.8", "--word", "1(0)", "--shifts", shifts)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_verify_tol_before_or_after_the_subcommand(capsys):
    # the global --tol and verify's own spelling set the same tolerance;
    # without either the hole is closed (tolerance 0)
    word = ("--q0", "1.9", "--q1", "1.7", "--word", "(01)")
    for argv in (("--tol", "0.5", "verify", *word), ("verify", *word, "--tol", "0.5")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == "Boundary", argv
    code, out, _ = run(capsys, "verify", *word)
    assert code == 0
    assert out.strip() == "In"


# one valid run of every subcommand: argv, exit code, a check of stdout
SMOKE = [
    (("gr", "1.75"), 0, lambda out: "case=RightFormula" in out),
    (("kl", "1.5"), 0, lambda out: "case=LeftFormula" in out),
    (("mu", "--u", "(01)", "--v", "(10)"), 0, lambda out: out.startswith("[1.618033988")),
    (("classify-omega", "--a", "01(0)", "--b", "1(0)"), 0, lambda out: out == "CountableNontrivial\n"),
    (("classify-sigma", "--a", "(01)", "--b", "(10)"), 0, lambda out: out == "Countable\n"),
    # no block of length 3 keeps all its suffixes inside [01^inf, 10^inf]
    (("classify-sigma", "--a", "0(1)", "--b", "1(0)"), 0, lambda out: out == "Empty\n"),
    (("classify-u", "--q0", "1.7", "--q1", "1.7"), 0, lambda out: out == "CountableNontrivial\n"),
    (("expand", "--q0", "1.5", "--q1", "1.8", "--x", "0.3", "--digits", "12"), 0,
     lambda out: out.splitlines()[0] == "001000100100"),
    (("smap", "--word", "(01)"), 0, lambda out: out == "M(L)\n"),
    (("limit-word", "--directive", "(M)", "--length", "8"), 0, lambda out: out == "01101001\n"),
    (("entropy", "--a", "(01)", "--b", "1(0)", "--dump"), 0,
     lambda out: len(out.splitlines()) == 10 and all("->" in line for line in out.splitlines()[1:])),
    (("dim", "--r0", "0.5", "--r1", "0.5"), 0, lambda out: abs(float(out) - 1.0) < 1e-12),
    (("curve", "--from", "1.5", "--to", "2.0", "--samples", "2", "--what", "gr"), 0,
     lambda out: [r.which for r in parse_curve_csv(out)] == ["gr", "gr"]),
    (("reduce", "--d0", "0", "--q0", "2", "--d1", "1", "--q1", "3"), 0, lambda out: "offset=0.0" in out),
    (("ks", "--q0", "1.9", "--q1", "1.7"), 0, lambda out: out.startswith(">")),
    (("verify", "--q0", "1.5", "--q1", "1.8", "--word", "1(0)"), 0, lambda out: out == "Boundary\n"),
    # a depth below 1 or a length below 0 compares nothing: rejected
    (("smap", "--word", "(01)", "--directive-depth", "-1"), 2, lambda out: out == ""),
    (("smap", "--word", "(01)", "--directive-depth", "0"), 2, lambda out: out == ""),
    (("ks", "--q0", "1.9", "--q1", "1.8", "--directive-depth", "-1"), 2, lambda out: out == ""),
    (("ks", "--q0", "1.9", "--q1", "1.8", "--directive-depth", "0"), 2, lambda out: out == ""),
    (("expand", "--q0", "1.5", "--q1", "1.8", "--digits", "-3"), 2, lambda out: out == ""),
    (("limit-word", "--directive", "L(R)", "--length", "-2"), 2, lambda out: out == ""),
    (("limit-word", "--directive", "L(R)", "--length", "0"), 0, lambda out: out == "\n"),
]


@pytest.mark.parametrize("argv, code, check", SMOKE, ids=[" ".join(row[0]) for row in SMOKE])
def test_every_subcommand_runs(capsys, argv, code, check):
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert check(out), out


@pytest.mark.parametrize("argv", [row[0] for row in SMOKE if row[1] == 2], ids=" ".join)
def test_rejected_counts_name_their_option(capsys, argv):
    _, _, err = run(capsys, *argv)
    assert f"argument {argv[-2]}: must be at least" in err


@pytest.mark.parametrize("argv", [
    ("mu", "--u", "(01)", "--v", "10(01)"),
    ("gr", "1.75"),
], ids=" ".join)
def test_mp_brackets_print_at_the_precision(capsys, argv):
    # at tol 1e-20 the ends are Decimal values about 5e-21 apart: printed
    # at 15 digits they would read equal
    code, out, _ = run(capsys, "--tol", "1e-20", "--precision", "40", *argv)
    assert code == 0
    lo, hi = out.split("]")[0].strip("[").split(", ")
    assert lo != hi
    assert 0 < Fraction(hi) - Fraction(lo) <= Fraction("1e-20")


def test_mixed_bracket_prints_no_more_digits_than_its_decimal_end(capsys):
    # an exhausted walk's chain bound beside a Decimal root: the exact
    # chain end 1 + 1/98 is rounded down once to the refinement's digits,
    # so both ends print at those digits
    code, out, _ = run(capsys, "--tol", "1e-20", "kl", "50.0")
    lo, hi = out.split("]")[0].strip("[").split(", ")
    assert len(lo.replace(".", "")) <= len(hi.replace(".", "")) == 32
    assert Fraction(lo) <= 1 + Fraction(1, 98) < Fraction(lo) + Fraction("1e-31")


@pytest.mark.parametrize("argv, call", [
    (("--tol", "1e-20", "gr", "1.5"), lambda: generalized_golden_ratio(1.5, config=Config(tol=1e-20))),
    (("mu", "--u", "(01)", "--v", "10(01)"), lambda: mu(parse_word("(01)"), parse_word("10(01)"))),
    (("ks", "--q0", "1.9", "--q1", "1.7"), lambda: ks_crosscheck(1.9, 1.7, 24)),
], ids=["gr", "mu", "ks"])
def test_stdout_is_the_str_of_the_result(capsys, argv, call):
    # one text form per result: the CLI prints what the library returns
    _, out, _ = run(capsys, *argv)
    assert out == f"{call()}\n"
    assert "Decimal(" not in out


def test_dim_without_a_base_pair_is_a_precondition_error(capsys):
    for argv in (("dim",), ("dim", "--q0", "1.9"), ("dim", "--r0", "0.5", "--q1", "1.8")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == "error: dim needs either --r0/--r1 or --q0/--q1\n"


def test_smoke_table_covers_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert {argv[0] for argv, _, _ in SMOKE} == set(subparsers.choices)


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "classify-omega", "--a", "bogus", "--b", "1(0)")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "expand", "--q0", "1.5", "--q1", "1")
    assert code == 2
    assert "error" in err
    # zero is an outside value like any other, not "use the default";
    # an infinite tol too, not a failure to certify a bracket
    for argv in (("--max-depth", "0", "classify-omega", "--a", "(01)", "--b", "1(0)"),
                 ("--tol", "0", "gr", "1.5"),
                 ("--tol", "inf", "gr", "1.5"),
                 ("--precision", "0", "gr", "1.5")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv
    # Undecided exits with 3: a primitive-directive point at shallow depth
    code, out, _ = run(capsys, "--max-depth", "4", "kl", "1.78723165")
    assert code in (0, 3)  # 3 when the enclosure stays wide


def test_undecided_exit_code(capsys):
    code, out, _ = run(capsys, "--max-depth", "2", "kl", "1.7872")
    assert code == 3


def test_classify_u_within_an_exhausted_bracket_exits_undecided(capsys):
    # G(1.01) exhausts the default depth with the bracket [50.751, 51.0]
    code, out, _ = run(capsys, "classify-u", "--q0", "1.01", "--q1", "50.9")
    assert code == 3
    assert out.strip().startswith("Undecided")


def test_config_validation():
    import pytest
    from doublebase.config import Config

    with pytest.raises(ValueError):
        Config(precision=10)
    with pytest.raises(ValueError):
        Config(tol=0.0)
    with pytest.raises(ValueError):
        Config(max_depth=0)
