import pytest

from doublebase.cli import main
from doublebase.critical import parse_curve_csv


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


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "--q0", "2", "--q1", "1.6", "--word", "1(0)")
    assert code == 0
    assert out.strip() == "Boundary"


def test_error_exit_codes(capsys):
    code, _, err = run(capsys, "classify-omega", "--a", "bogus", "--b", "1(0)")
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "expand", "--q0", "1.5", "--q1", "1")
    assert code == 2
    assert "error" in err
    # Undecided exits with 3: a primitive-directive point at shallow depth
    code, out, _ = run(capsys, "--max-depth", "4", "kl", "1.78723165")
    assert code in (0, 3)  # 3 when the enclosure stays wide


def test_undecided_exit_code(capsys):
    code, out, _ = run(capsys, "--max-depth", "2", "kl", "1.7872")
    assert code == 3


def test_precision_env_var(tmp_path):
    import subprocess, sys, os

    import doublebase

    # the child imports the same package as this process, however the
    # test run put it on the path
    src = os.path.dirname(os.path.dirname(doublebase.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, DOUBLEBASE_PRECISION="42", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "from doublebase.config import DEFAULT; print(DEFAULT.precision)"],
        capture_output=True, text=True, env=env,
    )
    assert out.stdout.strip() == "42"


def test_config_validation():
    import pytest
    from doublebase.config import Config

    with pytest.raises(ValueError):
        Config(precision=10)
    with pytest.raises(ValueError):
        Config(tol=0.0)
    with pytest.raises(ValueError):
        Config(max_depth=0)
