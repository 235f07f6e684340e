import functools
import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from pwldyn import band48, certify, graphs, measure
from pwldyn.cli import main
from pwldyn.measure import full_measure_report
from pwldyn.rationals import parse_rational, rational_str


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


@pytest.mark.parametrize(
    "regime, b, depth, sha256",
    [
        ("negb", "-3", 64, "24fb0edaac0f158ccf1292576f31dee12bf9ce86cdb919c3fbd0bb922dd70e5e"),
        ("alpha", "-163/200", 16, "b56c1a20ffac3c36234ac529774c940b2cd96dbea3ca28e1cdcd9dd59513dea8"),
        ("beta", "34497/50000", 16, "7271a4c163571c391eb63f14166f6a749183b48f45869db41d88409f219ead11"),
    ],
    ids=["negb", "alpha", "beta"],
)
def test_measure_csv_is_pinned(capsys, regime, b, depth, sha256):
    code, out = run(capsys, "measure", "--regime", regime, f"--b={b}", "--depth", str(depth))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "b, sha256",
    [
        ("13/3", "752b16bb69203a7b8b8d4fad8e60fad63c11efe749fcd3b671d916138126de19"),
        ("119/24", "045692746cccd43231debd5e8895ed5f1c9be89855d7579cdfc3e592eca853bf"),
        ("43/8", "b69d76e97d50daefba91cc8ac0b7f86848c1838e0d319fb13b02a34e895d3fd8"),
        ("73/12", "0d492e57ca59f9c20d1d9c2c359f065229998a569db29d2310b85dd2615e24f8"),
        ("101/15", "66051601dafec7202c1bd2a7d8a8de345ac5bfbb7404a9961b47e0475e501b20"),
        ("833/120", "397bb4aba8cf8726d8960f94135928154f33ebdc15a33a787f8453fddb2c6d20"),
        ("57/8", "8782f5b477aeab3659fb088078a082d0df28c3c70badd0abf3e4a856eaf10322"),
        ("977/132", "86d62fd54b9850f4dadce673fb6877c266cdf07b396e8c102c219b9074b0e5ff"),
        ("7489/979", "fee6c5d79a6f8654da60fe6e457b4f75fb109cd9a6600ef6b6f9abddb770d591"),
        ("5487/712", "79a22fb3d2bbadae3554d4023524b9d04b54462b27173f900a9522763ba66237"),
        ("683/88", "1b159e8caf315203fcd36d340aab506881266f914e6528176866da4020cb9430"),
        ("14833/1892", "89eba40d5daaa4775407bfd98b6c4375e6fead164522c9acdfd9356fb9b194a7"),
        ("7823/989", "c25fa9b204a31c88e09f1d8d30a266a0c1adfd312f3bfd712040d803cb20bfaf"),
        ("62699/7912", "14c1e067785bad85b9e089d389904296a88137c7b50ceb233060e7c92e92f2a4"),
        ("2731/344", "23092180e49ad0404544b664373c3691e4411ed34810dbc6f879ea3132e407b5"),
        ("234097/29412", "f25340835f5633b726eb14550655c4309c08709f998d3702c8491db826363ec5"),
        ("7.999", "d2967eac35b5e8634d4399d217d69b1c33e46bc7dfdfbe2d95ed60873189ff30"),
    ],
    ids=["S0", "T0", "U0", "V0", "S1", "T1", "U1", "V1", "S2", "T2", "U2", "V2", "S3", "T3", "U3", "V3", "7.999"],
)
def test_graph_dot_is_pinned(capsys, b, sha256):
    # the lower cover digraph at one b per class of levels 0-3 (the class
    # midpoint) and near the right end of the band
    code, out = run(capsys, "graph", "--regime", "band48", "--b", b, "--format", "dot")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "regime, b, fmt, sha256",
    [
        ("negb", "-3", "json", "1995ac346393ff878c63783d3e4818f27a8df87fe47eb29cb19de170edc9b6cd"),
        ("negb", "-3", "svg", "cbf1405af9235cce1df694630223a2d42c73d43971c164fdce7b2e997ed6fe6a"),
        ("alpha", "-163/200", "json", "2d113f6dddfa6a27a65d70d1dda37d394f987a00057be26cf35b5b94d6ec37a7"),
        ("alpha", "-163/200", "svg", "5a02c5aa562aae31f7b412e190155ec744a051b60756ab8c0a12973d49fd60de"),
        ("beta", "34497/50000", "json", "a0b87a927888a0c929f3bf7361c7fe2bd9b80cb51a6d8f9ac42a988c22d07357"),
        ("beta", "34497/50000", "svg", "b66716bf0c608106d31294812f96ba7be4fa3e3c6ae178a9aba1297c97dac5a9"),
        ("beta", "5/7", "json", "9e8908e18b2006b1964ba8101b191f02e51132f72100a696a2774477869260f0"),
        ("beta", "5/7", "svg", "e9dd9dc3a5e183e177e9ae743e9da79a1fbdf449fe3ef3ce0477b89e9014af15"),
        ("band48", "5", "json", "4d103e5ac80829072aeb5b6248b13ebfc0b12d12092259f410fadafd50abd5f1"),
        ("band48", "5", "svg", "9c3290c6a960819ef5d3807c7c69b0d1693b3c1ac5e1f84c075f441ec711947f"),
    ],
    ids=["negb-json", "negb-svg", "alpha-json", "alpha-svg", "beta-json", "beta-svg",
         "beta-boundary-json", "beta-boundary-svg", "band48-json", "band48-svg"],
)
def test_graph_json_and_svg_are_pinned(capsys, regime, b, fmt, sha256):
    # one b per regime, and beta at the boundary b = 5/7, where edge B3
    # shrinks to a point
    code, out = run(capsys, "graph", "--regime", regime, f"--b={b}", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--regime", "alpha", "--b", "-163/200", "--depth", "12"),
        ("measure", "--regime", "negb", "--b", "-31/7", "--depth", "3"),
        ("entropy", "--b", "12", "--a", "-5/2"),
        ("entropy", "--a", "-5/2", "--b", "12", "--digits", "7"),
    ],
    ids=["measure-alpha", "measure-negb", "entropy-a", "entropy-a-first"],
)
def test_negative_rational_as_a_separate_word(capsys, argv):
    # the same bytes as with the value attached by "="
    attached = []
    for word in argv:
        if attached and attached[-1] in ("--a", "--b") and word.startswith("-"):
            attached[-1] += "=" + word
        else:
            attached.append(word)
    assert len(attached) == len(argv) - 1
    code, out = run(capsys, *argv)
    err = capsys.readouterr().err
    assert code == 0
    assert run(capsys, *attached) == (0, out) and capsys.readouterr().err == err


def test_measure_contract_on_generated_input(capsys, monkeypatch):
    # Seeded draws of b near every regime end and window end, malformed
    # numbers, and depths from -1 to 80, then the depth ceiling, one above it
    # and 10^30, each run through `main` in-process: the command returns
    # within 1 s and exits 0 with the report's CSV or 2 with one error line,
    # and never raises.  The depth ceiling is lowered to 80 here, so that a
    # case at it runs in that time (the real ceiling's refusals are
    # `test_sizes_above_their_ceilings_are_refused_up_front`).
    ceiling = 80
    monkeypatch.setattr(measure, "_MAX_DEPTH", ceiling)
    rng = random.Random(4217)
    ends = {"negb": [F(-2)], "alpha": [F(-1), F(-3, 4), F(-112, 137), F(-13, 16)],
            "beta": [F(2, 3), F(5, 7), F(603, 874), F(563, 816)]}
    odd = ["1/0", "", " ", "\u0661\u0662", "1_0", "nan", "0x10", "7" * 700, "-" + "7" * 700]
    cases = []
    for _ in range(330):
        regime = rng.choice(list(ends))
        if rng.random() < 0.15:
            b = rng.choice(odd)
        else:
            # mostly an end of the regime drawn, else one of another regime
            end = rng.choice(ends[regime] if rng.random() < 0.8 else ends[rng.choice(list(ends))])
            b = str(end + rng.choice((-1, 0, 1)) * F(1, 10 ** rng.randint(1, 15)))
        cases.append((regime, b, rng.choice((-1, 0, 1, 16, 80))))
    cases += [(regime, b, rng.choice((ceiling, ceiling + 1, 10**30))) for regime, b, _ in cases[:90]]
    codes = []
    for regime, b, depth in cases:
        start = time.perf_counter()
        try:
            code = main(["measure", "--regime", regime, f"--b={b}", "--depth", str(depth)])
        except SystemExit as exc:
            code = exc.code
        assert time.perf_counter() - start < 1, (regime, b, depth)
        out, err = capsys.readouterr()
        codes.append(code)
        if code == 2:
            assert out == "" and err.startswith("pwldyn: error: ") and err.count("\n") == 1, (regime, b, depth, err)
        else:
            assert code == 0, (regime, b, depth)
            assert out == full_measure_report(regime, parse_rational(b), depth).to_csv(), (regime, b, depth)
            assert err.startswith(f"uncaptured fraction at depth {depth}: ") and err.count("\n") == 1
    assert codes.count(0) >= 50 and codes.count(2) >= 50, (codes.count(0), codes.count(2))


_ODD_WORDS = ["1/0", "", " ", "\u0661\u0662", "1_0", "nan", "inf", "0x10", "1e400", "5/", "/5", ".", "7" * 700, "-" + "7" * 700]


def _rational_word(rng: random.Random, ends) -> str:
    """An end of `ends` moved by 0 or +-10^-k, as "n/d", as an exponent or
    as a decimal with or without a sign; now and then a malformed word."""
    if rng.random() < 0.12:
        return rng.choice(_ODD_WORDS)
    k = rng.randint(1, 15)
    v = rng.choice(ends) + rng.choice((-1, 0, 1)) * F(1, 10**k)
    form, scaled = rng.randrange(4), v * 10 ** (k + 6)
    if form == 0 or scaled.denominator != 1:
        return str(v)
    n, places = scaled.numerator, k + 6
    if form == 1:
        return f"{n}e-{places}"
    digits = str(abs(n)).rjust(places + 1, "0")
    sign = "-" if n < 0 else "+" if form == 3 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _entropy_stdout(b: F, digits: int) -> str:
    res = band48.entropy_or_bounds(b, digits)
    lines = [f"b = {rational_str(b)}  class {res.level}"]
    if res.kind == "exact":
        lines.append(f"entropy = ln(root({res.lo_root.poly})) = {res.decimal(digits)}")
    else:
        lines += [f"entropy in {res.decimal(digits)}", f"  lower root poly: {res.lo_root.poly}",
                  f"  upper root poly: {res.hi_root.poly}"]
    return "\n".join(lines) + "\n"


def _graph_stdout(regime: str, b: F, fmt: str) -> str:
    if fmt == "dot":
        return band48.cover_digraphs(b)[0].to_dot() + "\n"
    g = graphs.build_gamma(regime, b)
    return (json.dumps(g.to_json(), indent=2) if fmt == "json" else g.to_svg()) + "\n"


def test_cli_contract_on_generated_input(capsys, monkeypatch):
    # Seeded `entropy`, `graph`, `table1` and `certify-*` commands, run through
    # `main` in-process: b at class and regime ends +- 10^-k in several forms,
    # a few values of a, digits valid, negative, malformed, at the ceiling,
    # above it or huge, and periods valid, negative, huge or malformed, then
    # at their ceilings, just above them, at the next period of the right
    # shape above them or huge.  Each returns within 1 s and exits 2 with one
    # error line, or 0 with the stdout of the library call it reports.  The
    # digits ceiling is lowered to 40 and the period ceilings to 48 and 64
    # here, so that a case at one runs in that time (the real ceilings'
    # refusals are `test_digits_above_the_ceiling_are_refused_up_front` and
    # `test_sizes_above_their_ceilings_are_refused_up_front`).
    ceiling, upper_ceiling, lower_ceiling = 40, 48, 64
    monkeypatch.setattr(band48, "_MAX_DIGITS", ceiling)
    monkeypatch.setattr(certify, "_MAX_UPPER_PERIOD", upper_ceiling)
    monkeypatch.setattr(certify, "_MAX_LOWER_PERIOD", lower_ceiling)
    rng = random.Random(4545)
    class_ends = sorted({end for n in range(6) for letter in "STUV"
                         for end in band48.LevelClass(n, letter).interval()[:2]})
    regime_ends = {"negb": [F(-2), F(-3), F(-50)], "alpha": [F(-1), F(-4, 5), F(-3, 4)],
                   "beta": [F(2, 3), F(7, 10), F(5, 7)], "band48": [F(4), F(6), F(8), *class_ends[:6]]}
    all_ends = [end for ends in regime_ends.values() for end in ends]

    def pick(valid, invalid):
        return rng.choice(valid if rng.random() < 0.7 else invalid)

    digits_invalid = ["-1", "x", "", "3.0", "1e3", str(-(10**30)), str(ceiling + 1), str(10**30)]
    digits_valid = ["0", "1", "5", "12", "30", "\u0663", "1_2", " 8 ", "-0", "+4", str(ceiling)]
    cases = []
    for _ in range(550):
        scale = rng.choice((1, 1, 1, 2, F(1, 2)))  # (a, b) = (-scale, scale*b)
        b = _rational_word(rng, [scale * e for e in (class_ends if rng.random() < 0.9 else all_ends)])
        a = pick([None, None, str(-scale), str(float(-scale))] if scale == 1 else [str(-scale), str(float(-scale))],
                 ["0", "1", "", "x", "-1/0"])
        digits = pick(digits_valid, digits_invalid)
        argv = ["entropy", f"--b={b}", "--digits", digits] + ([] if a is None else [f"--a={a}"])
        cases.append((argv, lambda b=b, a=a, digits=digits: _entropy_stdout(
            parse_rational(b) / (1 if a is None else -parse_rational(a)), int(digits))))
    for _ in range(500):
        regime = pick(graphs.REGIMES, ["gamma", ""])
        fmt = pick(["json", "svg"] if regime != "band48" else ["json", "svg", "dot"], ["png", "dot"])
        b = _rational_word(rng, regime_ends.get(regime, all_ends) if rng.random() < 0.85 else all_ends)
        cases.append((["graph", "--regime", regime, f"--b={b}", "--format", fmt],
                      lambda regime=regime, b=b, fmt=fmt: _graph_stdout(regime, parse_rational(b), fmt)))
    table = functools.lru_cache(band48.table_csv)
    for _ in range(150):
        digits = pick(digits_valid, digits_invalid)
        cases.append((["table1", "--digits", digits], lambda digits=digits: table(int(digits))))
    periods_invalid = ["9", "1", "0", "-3", "x", "", "3.0", str(10**30), str(3 * 2**200 + 3), str(-(10**30))]
    certificate = functools.lru_cache(lambda *key: certify.certify(*key).to_json_str())
    for _ in range(400):
        tag = rng.choice(("alpha", "beta"))
        upper = pick(["3", "6", "12", "24", "48", "+6", " 12"], periods_invalid)
        lower = pick(["2", "4", "8", "16", "32", "64", "1_6"], [*periods_invalid, "6", str(2**200 + 2)])
        cases.append(([f"certify-{tag}", "--upper", upper, "--lower", lower],
                      lambda tag=tag, upper=upper, lower=lower: certificate(tag, int(upper), int(lower))))
    for _ in range(100):
        tag = rng.choice(("alpha", "beta"))
        upper = pick([str(upper_ceiling), "24"], [str(upper_ceiling + 1), str(2 * upper_ceiling), str(10**30),
                                                  str(3 * 2**200)])
        lower = pick([str(lower_ceiling), "32"], [str(lower_ceiling + 1), str(2 * lower_ceiling), str(10**30),
                                                  str(2**200)])
        cases.append(([f"certify-{tag}", "--upper", upper, "--lower", lower],
                      lambda tag=tag, upper=upper, lower=lower: certificate(tag, int(upper), int(lower))))
    codes: dict[tuple, int] = {}
    for argv, library in cases:
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert time.perf_counter() - start < 1, argv
        out, err = capsys.readouterr()
        if code == 2:
            assert out == "" and err.startswith("pwldyn: error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert code == 0, (argv, code, err)
            assert err == "" and out == library(), argv
        codes[argv[0], code] = codes.get((argv[0], code), 0) + 1
    assert len(cases) >= 1500
    commands = ("entropy", "graph", "table1", "certify-alpha", "certify-beta")
    assert min(codes.get((cmd, code), 0) for cmd in commands for code in (0, 2)) >= 40, codes


@pytest.mark.parametrize("command", ["entropy", "table1"])
def test_digits_above_the_ceiling_are_refused_up_front(capsys, command):
    ceiling = band48._MAX_DIGITS
    for digits in (ceiling + 1, 10**30):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, "--digits", str(digits)] + (["--b", "5"] if command == "entropy" else []))
        assert time.perf_counter() - start < 1
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"pwldyn: error: digits must be <= {ceiling}, got {digits}\n"
    # the ceiling itself passes the digits check: here b is what is refused
    with pytest.raises(SystemExit):
        main(["entropy", "--b", "9", "--digits", str(ceiling)])
    assert "b = 9" in capsys.readouterr().err
    result = band48.entropy_or_bounds(5, 3)
    with pytest.raises(ValueError, match=f"^digits must be <= {ceiling}, got {ceiling + 1}$"):
        result.decimal(ceiling + 1)


def test_sizes_above_their_ceilings_are_refused_up_front(capsys):
    # Each size option's real ceiling: a value above it is refused within
    # 1 s with one line naming the value and the ceiling, and the ceiling
    # itself passes the check (some other argument is what is refused).
    def refusal(*argv):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert time.perf_counter() - start < 1, argv
        assert exc.value.code == 2
        return capsys.readouterr().err

    depth, upper, lower = measure._MAX_DEPTH, certify._MAX_UPPER_PERIOD, certify._MAX_LOWER_PERIOD
    assert (depth, upper, lower) == (5000, 6144, 8192)
    for d in (depth + 1, 10**30):
        err = refusal("measure", "--regime", "negb", "--b", "-3", "--depth", str(d))
        assert err == f"pwldyn: error: depth must be <= {depth}, got {d}\n"
        with pytest.raises(ValueError, match=f"^depth must be <= {depth}, got {d}$"):
            measure.edge_capture_profile("negb", -3, "A", d)
    assert "b = 5" in refusal("measure", "--regime", "alpha", "--b", "5", "--depth", str(depth))
    with pytest.raises(ValueError, match="^edge 'Z' is not return-invariant"):
        measure.edge_capture_profile("negb", -3, "Z", depth)
    for period in (2 * upper, 3 * 2**100):
        err = refusal("certify-alpha", "--upper", str(period), "--lower", "4")
        assert err == f"pwldyn: error: upper period must be <= {upper}, got {period}\n"
    for period in (2 * lower, 2**100):
        # the upper ceiling passes; the lower period is refused before any window is built
        err = refusal("certify-beta", "--upper", str(upper), "--lower", str(period))
        assert err == f"pwldyn: error: lower period must be <= {lower}, got {period}\n"
    assert len(certify.upper_pattern(upper).symbols) == upper
    assert len(certify.lower_pattern(lower).symbols) == lower


def test_verify_command(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 5
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_leaves_the_global_random_state_alone(capsys):
    random.seed(7)
    state = random.getstate()
    assert run(capsys, "verify")[0] == 0
    assert random.getstate() == state


@pytest.mark.parametrize(
    "argv, bad",
    [
        (("entropy", "--b", "8"), "b = 8"),
        (("entropy", "--b", "3/0"), "'3/0'"),
        (("entropy", "--b", "5", "--digits", "-1"), "-1"),
        (("certify-alpha", "--upper", "5", "--lower", "8"), "got 5"),
        (("measure", "--regime", "negb", "--b", "-3", "--depth", "-1"), "got -1"),
        (("measure", "--regime", "alpha", "--b", "5", "--depth", "2"), "b = 5 "),
        (("measure", "--regime", "beta", "--b", "7/10", "--depth", "2"), "b = 7/10 "),
        (("measure", "--regime", "negb", "--b", "-3", "--depth", "x"), "'x'"),
        (("entropy", "--b", "5", "--digits", "x"), "'x'"),
        (("measure", "--regime", "gamma", "--b", "-3"), "'gamma'"),
        (("entropy",), "--b"),
        (("table1", "--digits", "-1"), "got -1"),
        (("entropy", "--b", "5", "--a", ""), "''"),
    ],
    ids=[
        "b-at-band-end", "zero-denominator", "negative-digits", "bad-period", "negative-depth",
        "alpha-b-off-return-map", "beta-b-off-return-map",
        "non-integer-depth", "non-integer-digits", "unknown-regime", "missing-b",
        "table1-negative-digits", "empty-a",
    ],
)
def test_bad_input_is_a_one_line_error(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("pwldyn: error: ") and bad in err


@pytest.mark.parametrize(
    "argv, line",
    [
        # b = -1 is the open end of the alpha regime, where the interval PI is a point
        (("measure", "--regime", "alpha", "--b=-1", "--depth", "0"), "b = -1 outside the alpha regime"),
        # inside the beta regime, but the ends of SIGMA coincide
        (("measure", "--regime", "beta", "--b", "20/29", "--depth", "1"),
         "regime beta, edge SIGMA: the edge is a single point at b = 20/29 (degenerate segment)"),
    ],
    ids=["alpha-open-end", "beta-point-sigma"],
)
def test_measure_names_a_degenerate_interval(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"pwldyn: error: {line}\n"


def test_cli_import_loads_no_dataclasses():
    # A fresh interpreter: pytest itself has loaded dataclasses here.  `json`
    # is imported only where JSON is written.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import pwldyn.cli; "
        "print(sorted({'json', 'dataclasses', 'inspect', 'ast'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_entropy_digits_on_a_rounding_boundary(capsys):
    # ln of the root of x^13 - x^10 - x^3 - 1 is 0.1505...9512225000122...,
    # so the 63-digit bracket straddles a rounding boundary.
    code, out = run(capsys, "entropy", "--b", "977/132", "--digits", "63")
    assert code == 0
    assert out.splitlines()[1].endswith(
        "= 0.150507039588169513887448472673565893859728027605332147493951223"
    )


def test_entropy_past_the_int_str_limit(capsys):
    # 4400 digits: past CPython's default 4300-digit int -> str limit.
    mpmath = pytest.importorskip("mpmath")
    places = 4400
    code, out = run(capsys, "entropy", "--b", "5", "--digits", str(places))
    assert code == 0
    with mpmath.workdps(places + 30):
        root = mpmath.findroot(lambda x: x**7 - x**4 - 2, mpmath.mpf("1.2318"))
        n = int(mpmath.floor(mpmath.log(root) * mpmath.mpf(10) ** places + mpmath.mpf(1) / 2))
    chunks = []  # the digits of n in 1000-digit chunks, each inside the limit
    for _ in range(places // 1000 + 1):
        n, chunk = divmod(n, 10**1000)
        chunks.append(f"{chunk:01000d}")
    digits = "".join(reversed(chunks)).lstrip("0").rjust(places + 1, "0")
    assert n == 0
    want = f"{digits[:-places]}.{digits[-places:]}"
    assert out.splitlines()[1] == f"entropy = ln(root(x^7 - x^4 - 2)) = {want}"


def test_entropy_reads_a_b_past_the_int_str_limit(capsys):
    zeros = "0" * 4400
    assert run(capsys, "entropy", "--b", f"5{zeros}/1{zeros}") == run(capsys, "entropy", "--b", "5")
    bad = "1" * 4999 + "x"
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "--b", bad])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"pwldyn: error: invalid rational {bad[:40]!r}... (5000 characters)\n"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_a_one_line_error(capsys, tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    with pytest.raises(SystemExit) as exc:
        main(["certify-alpha", "--upper", "3", "--lower", "4", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("pwldyn: error: ") and repr(str(out)) in err


HUGE = "1" + "0" * 5000  # 10^5000: past CPython's 4300-digit int -> str limit


@pytest.mark.parametrize("sign", ["", "-"])
def test_entropy_names_a_huge_b(capsys, sign):
    with pytest.raises(SystemExit) as exc:
        main(["entropy", f"--b={sign}1e5000"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("pwldyn: error: ") and f"b = {sign}{HUGE}\n" in err


def test_graph_at_a_huge_b(capsys):
    code, out = run(capsys, "graph", "--regime", "negb", "--b=-1e5000", "--format", "json")
    assert code == 0
    js = json.loads(out)
    assert js["b"] == f"-{HUGE}/1"
    assert js["vertices"]["S"] == ["9" * 5000, "0"]  # S = (-1 - b, 0)
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--regime", "negb", "--b=-1e5000", "--format", "svg"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"pwldyn: error: b = -{HUGE}: ") and "float range" in err
