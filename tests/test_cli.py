import json

import pytest

from pwldyn.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_entropy_command(capsys):
    code, out = run(capsys, "entropy", "--b", "5")
    assert code == 0
    assert "0.20844" in out
    code, out = run(capsys, "entropy", "--b", "9/2")
    assert "[0.14717, 0.28888]" in out


def test_entropy_with_general_a(capsys):
    # (a, b) = (-2, 10) rescales to b = 5 on the standard slice
    code, out = run(capsys, "entropy", "--b", "10", "--a", "-2")
    assert code == 0 and "0.20844" in out
    with pytest.raises(SystemExit):
        run(capsys, "entropy", "--b", "10", "--a", "1")


def test_table1_deterministic(capsys):
    _, out1 = run(capsys, "table1")
    _, out2 = run(capsys, "table1")
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "set,interval,entropy"
    assert len(lines) == 13


def test_certify_alpha_json(capsys, tmp_path):
    out_file = tmp_path / "alpha.json"
    code, _ = run(capsys, "certify-alpha", "--upper", "3", "--lower", "4", "--out", str(out_file))
    assert code == 0
    js = json.loads(out_file.read_text())
    assert js["hi"] == "-888/1087"
    assert js["lo"] == "-7112/8705"
    assert js["upper"]["pattern"] == "RLC"

    code2, _ = run(capsys, "certify-alpha", "--upper", "3", "--lower", "4", "--out", str(out_file))
    assert js == json.loads(out_file.read_text())  # byte-stable content


def test_graph_exports(capsys, tmp_path):
    code, out = run(capsys, "graph", "--regime", "negb", "--b", "-3")
    assert code == 0
    js = json.loads(out)
    assert js["vertices"]["S"] == ["2", "0"]

    code, out = run(capsys, "graph", "--regime", "band48", "--b", "5", "--format", "svg")
    assert out.lstrip().startswith("<svg")

    code, out = run(capsys, "graph", "--regime", "band48", "--b", "5", "--format", "dot")
    assert "digraph cover" in out
    with pytest.raises(SystemExit):
        run(capsys, "graph", "--regime", "negb", "--b", "-3", "--format", "dot")


def test_measure_command(capsys):
    code, out = run(capsys, "measure", "--regime", "negb", "--b", "-3", "--depth", "3")
    assert code == 0
    assert out.splitlines()[0] == "edge,depth,captured,uncaptured"
    assert "A,1,15/8,1/8" in out


def test_verify_command(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert all(ln.startswith("PASS") for ln in lines)


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("entropy", "--b", "8"), "b = 8"),
        (("entropy", "--b", "3/0"), "'3/0'"),
        (("entropy", "--b", "5", "--digits", "-1"), "-1"),
        (("certify-alpha", "--upper", "5", "--lower", "8"), "got 5"),
        (("measure", "--regime", "negb", "--b", "-3", "--depth", "-1"), "got -1"),
    ],
    ids=["b-at-band-end", "zero-denominator", "negative-digits", "bad-period", "negative-depth"],
)
def test_bad_input_is_a_one_line_error(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    last = err.strip().splitlines()[-1]
    assert last.startswith("pwldyn: error: ") and bad in last
    assert "Traceback" not in err


def test_entropy_digits_on_a_rounding_boundary(capsys):
    # ln of the root of x^13 - x^10 - x^3 - 1 is 0.1505...9512225000122...,
    # so the 63-digit bracket straddles a rounding boundary.
    code, out = run(capsys, "entropy", "--b", "977/132", "--digits", "63")
    assert code == 0
    assert out.splitlines()[1].endswith(
        "= 0.150507039588169513887448472673565893859728027605332147493951223"
    )
