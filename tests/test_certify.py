import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest

import oracles
from oracles import alpha_b_to_d, beta_b_to_d, normalized_plateau_width
from pwldyn.certify import (
    ALPHA_WINDOW,
    BETA_WINDOW,
    alpha_d_to_b,
    beta_d_to_b,
    build_g2,
    build_g3,
    build_k1,
    certify,
    digits_report,
    k1_from_return_map,
    lower_pattern,
    orbit_digraph,
    TrapezoidFamily,
    phi_family,
    psi_family,
    sigma_segment,
    star_product,
    trapezoid_family,
    upper_pattern,
    verify_certificate,
)
from pwldyn.markov import compare_radius
from pwldyn.piecewise import Itinerary, iterate_point
from pwldyn.rationals import decimal_digits

B_IN_BETA_WINDOW = F(34497, 50000)  # 0.68994, inside [603/874, 563/816]


def test_star_product_chain():
    assert str(star_product(Itinerary.parse("RC"))) == "RLRC"
    assert str(star_product(Itinerary.parse("RLRC"))) == "RLRRRLRC"
    assert str(star_product(Itinerary.parse("RLRRRLRC"))) == "RLRRRLRLRLRRRLRC"
    assert str(star_product(Itinerary.parse("RLC"))) == "RLRRRC"
    with pytest.raises(ValueError):
        star_product(Itinerary.parse("RXC"))


def test_star_product_lengths_and_counts():
    s = Itinerary.parse("RC")
    for _ in range(5):
        t = star_product(s)
        assert len(t) == 2 * len(s)
        # every doubled symbol starts with R
        assert all(t.symbols[2 * i] == "R" for i in range(len(s)))
        s = t


def test_pattern_builders():
    assert str(upper_pattern(3)) == "RLC"
    assert str(upper_pattern(24)) == str(
        star_product(star_product(star_product(Itinerary.parse("RLC"))))
    )
    assert str(lower_pattern(32)) == "RLRRRLRLRLRRRLRRRLRRRLRLRLRRRLRC"
    with pytest.raises(ValueError):
        upper_pattern(8)
    with pytest.raises(ValueError):
        lower_pattern(24)


def test_alpha_parameter_maps():
    assert alpha_d_to_b(F(7, 8)) == F(-888, 1087)
    assert alpha_d_to_b(F(1, 17)) == F(-1776, 2185)
    assert alpha_d_to_b(alpha_b_to_d(F(-13, 16))) == F(-13, 16)
    assert alpha_b_to_d(alpha_d_to_b(F(57, 64))) == F(57, 64)


def test_beta_parameter_maps():
    assert beta_d_to_b(beta_b_to_d(F(563, 816))) == F(563, 816)
    assert beta_b_to_d(F(603, 874)) == 1
    assert beta_b_to_d(F(563, 816)) == 0
    # the window ends of the parameter match the d in [0, 1] range exactly
    assert beta_d_to_b(F(1)) == F(603, 874)
    assert beta_d_to_b(F(0)) == F(563, 816)


def test_beta_map_against_reference_certificates():
    b24 = F(945506314303393205598153, 1370433212950874384162254)
    d24 = beta_b_to_d(b24)
    m = psi_family().at(d24)
    orbit = iterate_point(m, 1, 24)
    assert orbit[24] == 1 and len(set(orbit[:24])) == 24

    b32 = F(
        798396920638883099973166531706985228123,
        1157210312199077596904301690272087447914,
    )
    d32 = beta_b_to_d(b32)
    m = psi_family().at(d32)
    orbit = iterate_point(m, 1, 32)
    assert orbit[32] == 1 and len(set(orbit[:32])) == 32
    assert compare_radius(orbit_digraph(m, orbit[:32]).succ, 1) == 0


def test_build_g2_g3():
    b = F(-13, 16)
    g2 = build_g2(b)
    assert g2.breakpoints[0] == F(11, 384)  # first plateau endpoint
    assert g2(F(0)) == -(16 * b + 13) / (b + 1)

    b = F(-163, 200)
    g3 = build_g3(b)
    x1, x2 = F(g3.lo), F(g3.hi)
    assert x1 == (16 * b + 13) / (15 * (b + 1)) and x1 < 0
    assert g3(x2) == x1  # the falling branch ends on the rising fixed point
    assert 16 * x1 - (16 * b + 13) / (b + 1) == x1  # fixed point of the rising branch

    with pytest.raises(ValueError):
        build_g2(F(-1, 2))


def test_build_k1():
    b = B_IN_BETA_WINDOW
    k1 = build_k1(b)
    assert F(k1.lo) == 300 - 435 * b
    assert F(k1.hi) == 29 * b - 20
    assert k1(F(0)) == 29 * b - 20  # plateau value is the right endpoint
    assert k1(29 * b - 20) == 300 - 435 * b
    with pytest.raises(ValueError):
        build_k1(F(69, 100))  # outside the invariance window


def test_k1_matches_sevenfold_composition():
    for b in (B_IN_BETA_WINDOW, F(137989, 200000), F(1379871, 2000000)):
        k1 = build_k1(b)
        via_f = k1_from_return_map(b)
        assert F(via_f.lo) == F(k1.lo) and F(via_f.hi) == F(k1.hi)
        assert [F(x) for x in via_f.breakpoints] == [F(x) for x in k1.breakpoints]
        assert [(p.slope, F(p.offset)) for p in via_f.pieces] == [
            (p.slope, F(p.offset)) for p in k1.pieces
        ]


def test_trapezoid_shape_parameters():
    # normalized plateau length of the extended trapezoids, as exact identities
    b = F(-163, 200)
    assert normalized_plateau_width(build_g3(b)) == 55 * b / (16 * (3 * b - 1))
    b = B_IN_BETA_WINDOW
    assert normalized_plateau_width(build_k1(b), extended=True) == (45 - 60 * b) / (48 * b - 29)


def test_certify_intermediate_values():
    ci = certify("alpha", 3, 4)
    assert ci.hi == F(-888, 1087)
    assert ci.lo == F(-7112, 8705)
    assert verify_certificate(ci)

    ci = certify("alpha", 6, 8)
    assert ci.hi == F(-910224, 1114103)
    assert ci.lo == F(-116508784, 142605321)
    assert ci.hi_certificate.orbit == (1, 0, F(7295, 8191), F(7168, 8191), F(8184, 8191), F(56, 8191))


def test_verify_rejects_forged_certificates():
    ci = certify("alpha", 6, 8)
    assert verify_certificate(ci)
    lo, hi = ci.lo_certificate, ci.hi_certificate
    forged = [
        dataclasses.replace(ci, lo=ci.lo - 1, hi=ci.hi + 1),  # bracket widened
        dataclasses.replace(ci, hi_certificate=dataclasses.replace(hi, pattern=Itinerary.parse("LLLLLC"))),
        # the same 6-cycle, listed from its second point
        dataclasses.replace(ci, hi_certificate=dataclasses.replace(hi, orbit=hi.orbit[1:] + hi.orbit[:1])),
        dataclasses.replace(ci, lo_certificate=dataclasses.replace(lo, kind=hi.kind)),
        dataclasses.replace(ci, hi_certificate=dataclasses.replace(hi, kind=lo.kind)),
        dataclasses.replace(ci, lo_certificate=dataclasses.replace(lo, pattern=Itinerary.parse("RLRRRLR"))),
        dataclasses.replace(ci, return_power=7),
        dataclasses.replace(ci, tag="beta"),
    ]
    for bad in forged:
        assert verify_certificate(bad) is False


def test_certify_monotone_bracketing():
    c34 = certify("alpha", 3, 4)
    c68 = certify("alpha", 6, 8)
    assert c34.lo <= c68.lo < c68.hi <= c34.hi
    assert c68.width < c34.width


def test_certificate_scaling_note():
    ci = certify("alpha", 6, 8)
    assert ci.return_power == 6
    assert ci.bowen_franks_note() == {
        "trapezoid_entropy_gt": "ln(2)/6",
        "planar_entropy_gt": "ln(2)/36",
    }
    cb = certify("beta", 6, 8)
    assert cb.return_power == 7
    assert verify_certificate(cb)


def test_digits_report_limits_and_degenerate():
    ci = certify("alpha", 3, 4)
    assert digits_report(ci) == "-0.81"  # both ends share just two digits
    assert digits_report(ci, limit=1) == "-0.8"

    from types import SimpleNamespace

    degenerate = SimpleNamespace(lo=F(1, 8), hi=F(1, 8))
    assert digits_report(degenerate, limit=6) == "0.125000"


def test_width_bound_and_digits_are_honest():
    for upper, lower, shared in ((6, 8, 7), (96, 128, 159)):
        ci = certify("alpha", upper, lower)
        js = ci.to_json()
        bound = F(js["width_lt"])
        places = len(js["width_lt"].split(".")[1])
        assert bound > ci.width > 0
        assert bound - ci.width <= F(1, 10**places)  # rounded up at the last digit
        rep = js["digits"]
        assert rep == digits_report(ci)
        assert len(rep.split(".")[1]) == shared
        # every reported digit is shared, and the next one is not
        lo_digits, hi_digits = decimal_digits(ci.lo, shared + 1), decimal_digits(ci.hi, shared + 1)
        assert lo_digits[:-1] == hi_digits[:-1] == rep and lo_digits[-1] != hi_digits[-1]
    assert certify("alpha", 6, 8).to_json()["width_lt"] == "0.000000000496284"


def test_certificate_json_schema():
    ci = certify("alpha", 3, 4)
    js = ci.to_json()
    assert js["schema"] == "transition-certificate/1"
    assert js["lo"] == "-7112/8705"
    assert js["upper"]["pattern"] == "RLC"
    assert js["lower"]["radius"] == "radius_one"
    assert js["bowen_franks"]["planar_entropy_gt"] == "ln(2)/18"


def test_family_windows_match_maps():
    fam_a = trapezoid_family("alpha")
    assert fam_a.d_to_b(F(1)) == ALPHA_WINDOW[0] and fam_a.d_to_b(F(0)) == F(-13, 16)
    fam_b = trapezoid_family("beta")
    assert fam_b.d_to_b(F(1)) == BETA_WINDOW[0] and fam_b.d_to_b(F(0)) == BETA_WINDOW[1]
    assert str(phi_family().at(F(1, 2)).pieces[2].offset) == "8"
    with pytest.raises(ValueError):
        trapezoid_family("gamma")


def test_sigma_segment_is_return_invariant():
    b = B_IN_BETA_WINDOW
    seg = sigma_segment(b)
    k1 = build_k1(b)
    lo, hi = seg.chart_interval()
    assert (F(k1.lo), F(k1.hi)) == (lo, hi)


def _map_data(m):
    return m.lo, m.hi, m.breakpoints, [(p.slope, p.offset, p.name) for p in m.pieces]


@pytest.mark.parametrize("fam", [phi_family(), psi_family()], ids=["phi", "psi"])
def test_window_matches_param_affine_oracle(fam: TrapezoidFamily):
    oracle = oracles.trapezoid_param_family(fam.falling_slope, fam.plateau_right)
    rng = random.Random(1216)
    patterns = [upper_pattern(3 * 2**k) for k in range(9)]  # up to 768
    patterns += [lower_pattern(2**k) for k in range(1, 11)]  # up to 1024
    patterns += [
        Itinerary((*(rng.choice("LR") for _ in range(rng.randint(0, 9))), "C")) for _ in range(300)
    ]
    empty = 0
    for pattern in patterns:
        window = fam.window(pattern)
        assert window == oracles.closing_window(oracle, pattern, 1), pattern
        if window is None:
            empty += 1
            continue
        for d in window:
            assert _map_data(fam.at(d)) == _map_data(oracle.at(d)), (pattern, d)
    assert 0 < empty < 300  # the random words give both empty and nonempty windows


@pytest.mark.parametrize(
    "tag, upper, lower, sha256",
    [
        ("alpha", 96, 128, "ced02035462413d18c0c2ca0de6e2a1047a08c8fd42161c4efcd8bb460ee8d64"),
        ("beta", 96, 128, "7fa46050ec6bb41d8395aa375aeef79a861dc96212f28ad5ed16f1892379fe0e"),
        ("alpha", 192, 256, "bc054a1e0a7e57861410641f3cb9425559207908ad1b1d32892029c92a2dbea4"),
        ("beta", 192, 256, "20c2472938d38e69e9cd78beb00560ef18fc1e5aa6ff84bdf689bb5200406c37"),
        ("alpha", 384, 512, "1fe7a854c91f9d9dd9125371b8e205ee4a0850402bd6ff999464cd91a1d56cdf"),
        ("beta", 384, 512, "225cce4fa329fc5e3f27cdbf843f24cf257d41ae8e26f62bed5d443be8ad6359"),
    ],
    ids=lambda v: str(v)[:8],
)
def test_deep_certificates_are_pinned(tag, upper, lower, sha256):
    ci = certify(tag, upper, lower)
    assert verify_certificate(ci)
    assert hashlib.sha256(ci.to_json_str().encode()).hexdigest() == sha256


_FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


@pytest.mark.parametrize("tag", ["alpha", "beta"])
def test_certificate_path_does_no_fraction_arithmetic(monkeypatch, tag):
    fam = trapezoid_family(tag)
    ci = certify(tag, 24, 32)
    patterns = (upper_pattern(24), lower_pattern(32))
    certs = (ci.hi_certificate, ci.lo_certificate)
    maps = [fam.at(c.d) for c in certs]

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic on the certificate path")

    with monkeypatch.context() as patch:
        for op in _FRACTION_OPERATORS:
            patch.setattr(F, op, forbidden)
        windows = [fam.window(pattern) for pattern in patterns]
        sides = [compare_radius(orbit_digraph(m, c.orbit).succ, 1) for m, c in zip(maps, certs)]
    assert sides == [1, 0]
    assert all(c.d in window for c, window in zip(certs, windows))
