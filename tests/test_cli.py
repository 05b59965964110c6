import hashlib
import os
import subprocess
import sys
import time
from decimal import Decimal

import pytest

import borcherds_cm
from borcherds_cm import gzoracle
from borcherds_cm.cli import main
from borcherds_cm.gzoracle import GZResult


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _parse(text):
    pairs = {}
    for line in text.splitlines():
        k, _, v = line.partition("=")
        pairs[k.strip()] = v.strip()
    return pairs


def test_field(capsys):
    code, out, err = _run(capsys, "field", "-d", "7")
    assert code == 0
    data = _parse(out)
    assert data["class_number"] == "1"
    assert data["discriminant"] == "-7"
    assert data["ramified"] == "7"


def test_field_with_k0(capsys):
    code, out, err = _run(capsys, "field", "-d", "7", "--prec", "30")
    assert code == 0
    assert _parse(out)["k0"] == "-0.321979686609711832337853285373"


def test_kappa_desk_value(capsys):
    code, out, err = _run(capsys, "kappa", "-d", "7", "-t", "1")
    assert code == 0
    assert "kappa = -2*log(7)" in out
    data = _parse(out)
    assert data["serialized"] == "7^(-2/1)"
    assert data["kzero_multiple"] == "0"


def test_kappa_rational_t(capsys):
    code, out, err = _run(capsys, "kappa", "-d", "15", "--ideal", "prime:2",
                          "--mu", "6", "-t", "1/5")
    assert code == 0
    data = _parse(out)
    assert data["serialized"] == "3^(-1/1)"


@pytest.mark.parametrize("mu, t, serialized", [
    ("1", "74993/99991", "3947^(-4/205)"),
    ("12345", "171799/99991", "171799^(-2/205)"),
])
def test_kappa_at_a_large_ideal_lattice(capsys, mu, t, serialized):
    # d = 99991 is just below MAX_DUAL_ORDER; the coset is made from its label
    code, out, err = _run(capsys, "kappa", "-d", "99991", "--mu", mu, "-t", t)
    assert code == 0
    assert _parse(out)["serialized"] == serialized


@pytest.mark.parametrize("d, serialized", [
    ("7", "7^(-200002/1)"),
    # the Hilbert symbol at the ramified 5 strips 5^100000 from t as well
    ("15", "3^(-200002/1)"),
])
def test_kappa_at_a_high_prime_power_in_t(capsys, d, serialized):
    # t = 10^100000 holds 2^100000 and 5^100000: removed one p at a time,
    # each would take 100000 divisions of a 332 000-bit number
    start = time.perf_counter()
    code, out, err = _run(capsys, "kappa", "-d", d, "-t", "1e100000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert _parse(out)["serialized"] == serialized


def test_kappa_refuses_label_d_at_a_large_ideal_lattice(capsys):
    code, out, err = _run(capsys, "kappa", "-d", "99991", "--mu", "99991", "-t", "1")
    assert code == 1
    assert out == ""
    assert err == "error: no dual coset with label 99991\n"


# bcm whittaker's full output: at d = 15, 2 splits, 7 is inert and 3, 5 are
# ramified; prime:2 twists the ramified signs by the norm 2, and the nonzero
# cosets (labels 3, 4, 6) take the char(Q(mu_q) + Z_q)(t) path
WHITTAKER_CASES = [
    (("-d", "7", "-t", "1"), ["W[7]=1 - X"]),
    (("-d", "15", "-t", "14"), ["W[2]=1 + X", "W[3]=1 + X", "W[5]=1 + X", "W[7]=1 - X"]),
    (("-d", "15", "-t", "28/15"), ["W[2]=1 + X + X^2", "W[3]=0", "W[5]=0", "W[7]=1 - X"]),
    (("-d", "15", "-t", "441"), ["W[3]=1 - X^3", "W[5]=1 + X", "W[7]=1 - X + X^2"]),
    (("-d", "15", "--ideal", "prime:2", "-t", "14"),
     ["W[2]=1 + X", "W[3]=1 - X", "W[5]=1 - X", "W[7]=1 - X"]),
    (("-d", "15", "--ideal", "prime:2", "-t", "441"),
     ["W[3]=1 + X^3", "W[5]=1 - X", "W[7]=1 - X + X^2"]),
    (("-d", "15", "--ideal", "prime:2", "-t", "1/5", "--mu", "6"), ["W[3]=1 - X", "W[5]=1"]),
    (("-d", "15", "--ideal", "prime:2", "-t", "2/5", "--mu", "6"),
     ["W[2]=1 + X", "W[3]=1 + X", "W[5]=0"]),
    (("-d", "15", "-t", "1/5", "--mu", "3"), ["W[3]=1 + X", "W[5]=0"]),
    (("-d", "15", "-t", "4/15", "--mu", "4"), ["W[2]=1 + X + X^2", "W[3]=0", "W[5]=0"]),
]


def test_whittaker(capsys):
    for argv, lines in WHITTAKER_CASES:
        code, out, err = _run(capsys, "whittaker", *argv)
        assert code == 0
        assert out == "".join(line + "\n" for line in lines), argv


def test_qexp(capsys):
    code, out, err = _run(capsys, "qexp", "delta", "-N", "3")
    assert code == 0
    data = _parse(out)
    assert data["leading"] == "1"
    assert data["coeffs"] == "1,-24,252"


def test_qexp_series_ends_at_last_term(capsys):
    # every coefficient through q^N is printed, so no `...` follows
    code, out, err = _run(capsys, "qexp", "j", "-N", "2")
    assert code == 0
    assert _parse(out)["series"] == "q^-1 + 744 + 196884*q + 21493760*q^2"


# SHA-256 prefixes of the whole stdout of bcm qexp NAME -N 500
QEXP_500_SHA256 = {
    "delta": "015a9b298f38aefe",
    "e4": "5fac14d998c0f2e3",
    "e6": "93b9cccde8887e4c",
    "j": "88a63f5d7c318e77",
}


@pytest.mark.parametrize("name", sorted(QEXP_500_SHA256))
def test_qexp_pinned_at_cap(capsys, name):
    code, out, err = _run(capsys, "qexp", name, "-N", "500")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == QEXP_500_SHA256[name]


def test_qexp_caps_N_before_output(capsys):
    # the exact series would run for minutes (j at N = 2000) or forever
    code, out, err = _run(capsys, "qexp", "delta", "-N", "100000000")
    assert code == 1
    assert out == ""
    assert "-N" in err and "500" in err and "Traceback" not in err
    code, out, err = _run(capsys, "qexp", "e4", "-N", "500")
    assert code == 0
    assert len(_parse(out)["coeffs"].split(",")) == 501


def test_gz(capsys):
    code, out, err = _run(capsys, "gz", "--d1", "3", "--d2", "7")
    assert code == 0
    data = _parse(out)
    assert data["product"] == "3375"
    assert data["factored"] == "3^3 * 5^3"
    assert data["support"] == "OK"
    keys = [line.partition("=")[0] for line in out.splitlines()]
    assert keys == ["product", "factored", "support", "precision_used",
                    "margin", "doublings"]
    assert float(data["margin"]) < 1e-20
    assert data["doublings"] == "0"


def _write_desk_files(tmp_path):
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nideal=unit\nrank=0\n")
    form = tmp_path / "form.txt"
    form.write_text("0 -1/1 1/1\n")
    return str(lat), str(form)


def test_form_validate(capsys, tmp_path):
    lat, form = _write_desk_files(tmp_path)
    code, out, err = _run(capsys, "form", "validate", form, "--lattice", lat)
    assert code == 0
    data = _parse(out)
    assert data["valid"] == "1"
    assert data["m_max"] == "1"


def test_cmsum_report(capsys, tmp_path):
    lat, form = _write_desk_files(tmp_path)
    code, out, err = _run(
        capsys, "cmsum", "--form", form, "--lattice", lat, "--prec", "30"
    )
    assert code == 0
    data = _parse(out)
    assert data["d"] == "7"
    assert data["degree"] == "2"
    assert data["log_rat_serialized"] == "7^(2/1)"
    assert data["kzero_coeff"] == "0"
    assert data["support_ok"] == "1"
    assert data["phi_so_integral"] == "-4*log(7)"


def _write_ci_files(tmp_path):
    """The glued d = 7 lattice and the form of the CI console check."""
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nrank=1\ngram=14\nbasis=1/7,1/7,5/7;0,1,0;0,0,1\n")
    form = tmp_path / "form.txt"
    form.write_text("1 -3/4 1\n0 -1 -2\n0 0 3\n")
    return str(lat), str(form)


CI_NUMERIC = {
    30: "-22.3521956600179100529097185232",
    64: "-22.35219566001791005290971852319832289458135695790349521132503048",
}


@pytest.mark.parametrize("flags, prec", [(["--prec", "30"], 30), ([], 64)])
def test_cmsum_prints_prec_digits(capsys, tmp_path, flags, prec):
    """numeric= has --prec, else 64 significant digits."""
    lat, form = _write_ci_files(tmp_path)
    code, out, err = _run(capsys, "cmsum", "--form", form, "--lattice", lat, *flags)
    assert code == 0
    numeric = _parse(out)["numeric"]
    assert numeric == CI_NUMERIC[prec]
    assert len(numeric.lstrip("-").replace(".", "")) == prec


def test_factor(capsys, tmp_path):
    lat, form = _write_desk_files(tmp_path)
    code, out, err = _run(capsys, "factor", "--form", form, "--lattice", lat)
    assert code == 0
    data = _parse(out)
    assert data["rat"] == "49/1"
    assert data["factored"] == "7^(2/1)"


def test_factor_prints_rationals_beyond_the_int_str_digit_limit(capsys, tmp_path):
    # at vol_KT = 1/1000 the X(1) value of (15, 7) has 35 511 digits, above
    # the 4300 that str() of an int allows by default
    lat = tmp_path / "x1"
    lat.write_text("d=15\nrank=1\ngram=30\nbasis=1/15,1/15,13/15;0,1,0;0,0,1\n")
    form = tmp_path / "gz"
    form.write_text("1 -7/4 1\n")
    code, out, err = _run(capsys, "factor", "--form", str(form),
                          "--lattice", str(lat), "--vol-kt", "1/1000")
    assert (code, err) == (0, "")
    data = _parse(out)
    assert data["factored"] == "3^(24000/1)*5^(12000/1)*7^(8000/1)*13^(8000/1)"
    num, den = data["rat"].split("/")
    assert len(num) == 35511 and den == "1"
    # Decimal reads the digits back with no limit
    assert int(Decimal(num)) == 3**24000 * 5**12000 * 7**8000 * 13**8000


def test_factor_rejects_transcendental(capsys, tmp_path):
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nideal=unit\nrank=0\n")
    form = tmp_path / "form.txt"
    form.write_text("0 -1/1 1/1\n0 0/1 2/1\n")
    code, out, err = _run(capsys, "factor", "--form", str(form), "--lattice", str(lat))
    assert code == 1
    assert "not rational" in err


def test_factor_rejects_the_regularised_same_discriminant_value(capsys, tmp_path):
    # L_+ = the unit ideal of Q(sqrt(-15)) with Q = N, glued to L_- = O_k
    # along an eta of order 15: j(z1) - j(z2) on the diagonal CM cycle
    lat = tmp_path / "lat.txt"
    lat.write_text(
        "d=15\nrank=2\ngram=2,1;1,8\n"
        "basis=1/15,13/15,14/15,2/15;0,1,0,0;0,0,1,0;0,0,0,1\n"
    )
    form = tmp_path / "form.txt"
    form.write_text("0 -1 1\n")
    code, out, err = _run(capsys, "factor", "--form", str(form), "--lattice", str(lat))
    assert code == 1
    assert out == ""
    assert "kzero_coeff = -4 is nonzero" in err


def test_computation_error_exits_1(capsys):
    code, out, err = _run(capsys, "gz", "--d1", "7", "--d2", "7")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qexp", "nosuch", "-N", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_missing_file_exits_1(capsys):
    code, out, err = _run(
        capsys, "cmsum", "--form", "/nonexistent", "--lattice", "/nonexistent"
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv, unbuffered", [
    (("kappa", "-d", "7", "-t", "1"), False),
    (("kappa", "-d", "7", "-t", "1"), True),
    (("qexp", "j", "-N", "500"), False),
    (("--help",), False),
    (("kappa", "--help"), False),
])
def test_closed_pipe_exits_quietly(argv, unbuffered):
    # the read end is closed before the command runs, so its first write
    # fails: in the command when stdout is unbuffered, at the flush when not
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(borcherds_cm.__file__))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "borcherds_cm.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_zero_denominator_names_option(capsys):
    code, out, err = _run(capsys, "kappa", "-d", "7", "-t", "1/0")
    assert code == 1
    assert "-t" in err and "1/0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("prime:-5", "not a positive prime"),
        ("prime:4", "not a positive prime"),
        ("prime:x", "not an integer"),
    ],
)
def test_bad_prime_ideal_rejected(capsys, spec, message):
    code, out, err = _run(capsys, "kappa", "-d", "7", "--ideal", spec, "-t", "1")
    assert code == 1
    assert spec in err and message in err
    assert "inert" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("d=7\nrank=1\n", "no gram="),
        ("d=x\n", "d='x'"),
        ("d=7\nrank=one\n", "rank='one'"),
        ("d=7\nrank=1\ngram=1/0\n", "gram='1/0'"),
        ("d=7\nrank=1\ngram=1\n", "L is not even: Q of basis row 0"),
        ("d=7\ngram=2\n", "has gram= but rank=0"),
        ("d=7\nrank=0\ngram=2\n", "has gram= but rank=0"),
        # a repeated key was read as its last value, an unknown one ignored
        ("d=7\nd=15\n", "repeats the key d="),
        ("d=7\nrank=1\ngram=14\nbases=1/7,1/7,5/7;0,1,0;0,0,1\n",
         "unknown key 'bases'"),
    ],
)
def test_malformed_lattice_file(capsys, tmp_path, text, message):
    lat = tmp_path / "lat.txt"
    lat.write_text(text)
    form = tmp_path / "form.txt"
    form.write_text("0 -1/1 1/1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form),
                          "--lattice", str(lat))
    assert code == 1
    assert err.startswith(f"error: {lat}: ") and message in err


@pytest.mark.parametrize("gram", ["", "gram=2\n"])
def test_cmsum_refuses_negative_rank(capsys, tmp_path, gram):
    # the message names the rank, not the gram
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nrank=-1\n" + gram)
    form = tmp_path / "form.txt"
    form.write_text("0 -1/1 1/1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form),
                          "--lattice", str(lat))
    assert code == 1 and out == ""
    assert err == f"error: {lat}: rank=-1 is negative\n"
    assert "Traceback" not in err


def test_large_inert_prime_ideal_rejected(capsys):
    code, out, err = _run(
        capsys, "kappa", "-d", "7", "--ideal", "prime:1000000000039", "-t", "1"
    )
    assert code == 1
    assert "1000000000039 is inert" in err and "Traceback" not in err


def test_cmsum_refuses_dual_group_above_cap(capsys, tmp_path):
    # |L^v/L| = 7 * 2000000, refused before its cosets are listed
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nrank=1\ngram=2000000\n")
    form = tmp_path / "form.txt"
    form.write_text("0 -1 1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form),
                          "--lattice", str(lat))
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {lat}: L^v/L has order 14000000, above the cap of 100000\n"
    )


def test_files_that_are_not_utf8_text_are_refused_with_their_path(capsys, tmp_path):
    # the binary file as the lattice file, then as the form file behind a
    # good lattice file
    binary = tmp_path / "binary"
    binary.write_bytes(b"d=7\n\xd0\x00\xff\n")
    lat, _ = _write_desk_files(tmp_path)
    for flags in (("--lattice", str(binary), "--form", str(binary)),
                  ("--lattice", lat, "--form", str(binary))):
        code, out, err = _run(capsys, "cmsum", *flags)
        assert code == 1 and out == ""
        assert err == (
            f"error: {binary}: not UTF-8 text: byte 0xd0 (invalid continuation byte)\n"
        )


def test_cmsum_at_a_split_lattice_near_the_cap(capsys, tmp_path):
    # |L^v/L| = 7 * 14284 = 99988, just below the cap; the report reads
    # eta 0 only
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nrank=1\ngram=14284\n")
    form = tmp_path / "form.txt"
    form.write_text("0 -1 1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form),
                          "--lattice", str(lat))
    assert code == 0
    data = _parse(out)
    assert data["log_rat_serialized"] == "7^(2/1)"
    assert data["c00"] == "0"
    assert data["kzero_coeff"] == "0"
    assert data["numeric"] == (
        "3.8918202981106266102107054868863594592741694591637223769187803"
    )


def test_cmsum_at_the_x1_lattice_of_d_227(capsys, tmp_path):
    # the X(1) lattice glued along (1/227, 1/227, 225/227): a glue group of
    # order 227, the largest of any console-script check
    lat = tmp_path / "lat.txt"
    lat.write_text("d=227\nrank=1\ngram=454\nbasis=1/227,1/227,225/227;0,1,0;0,0,1\n")
    form = tmp_path / "form.txt"
    form.write_text("1 -3/4 1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form),
                          "--lattice", str(lat))
    assert code == 0
    data = _parse(out)
    assert data["log_rat_serialized"] == "2^(108/1)*5^(20/1)*41^(4/1)"
    assert data["c00"] == "0"
    assert data["kzero_coeff"] == "0"
    assert data["numeric"] == (
        "121.9029420159733321245433092741564524961716834738751284177634505"
    )


def test_kappa_refuses_ideal_dual_group_above_cap(capsys):
    code, out, err = _run(capsys, "kappa", "-d", "100003", "-t", "1")
    assert code == 1
    assert out == ""
    assert err == "error: L^v/L has order 100003, above the cap of 100000\n"


def test_kappa_refuses_a_composite_cofactor_above_the_cap(capsys):
    t = "3000000000000148000000000001369"  # (10^15 + 37)(3 * 10^15 + 37)
    code, out, err = _run(capsys, "kappa", "-d", "7", "-t", t)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: cannot factor: the cofactor {t} left after trial division "
        "is composite and above the cap of 3317044064679887385961981\n"
    )


def test_field_refuses_d_above_cap(capsys):
    code, out, err = _run(capsys, "field", "-d", "100000000003")
    assert code == 1
    assert out == ""
    assert err == "error: d=100000000003 is above the cap of 10000000\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("bogus", "'bogus' is not one of unit, prime:p or basis:"),
        ("basis:1,x;0,1", "'1,x;0,1' is not rows of rationals"),
        ("basis:1,1/0;0,1", "'1,1/0;0,1' is not rows of rationals"),
    ],
)
def test_bad_ideal_spec_rejected(capsys, spec, message):
    code, out, err = _run(capsys, "kappa", "-d", "7", "--ideal", spec, "-t", "1")
    assert code == 1
    assert message in err
    assert "Fraction" not in err and "Traceback" not in err


@pytest.mark.parametrize("record", ["0 1/0 1", "0 x 1", "a -1 1"])
def test_malformed_form_record(capsys, tmp_path, record):
    lat, _ = _write_desk_files(tmp_path)
    form = tmp_path / "bad_form.txt"
    form.write_text(f"0 -1/1 1/1\n{record}\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form), "--lattice", lat)
    assert code == 1
    assert str(form) in err and repr(record) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "record, message",
    [
        ("9 -1 1", "eta label 9 out of range"),
        ("0 -1 1/2", "c_0(-1) = 1/2 must be an integer for m <= 0"),
        ("1 -1 1", "c_1(-1) nonzero but -1 + Q(eta) = -2/7 is not an integer"),
    ],
)
def test_invalid_form_record_names_file(capsys, tmp_path, record, message):
    lat, _ = _write_desk_files(tmp_path)
    form = tmp_path / "bad_form.txt"
    form.write_text(f"d=7\n{record}\n")
    code, out, err = _run(capsys, "form", "validate", str(form), "--lattice", lat)
    assert code == 1
    assert out == ""
    assert err == f"error: {form}: {message}\n"


@pytest.mark.parametrize(
    "header, message",
    [
        # each was skipped unread, and the d = 7 report printed
        ("d=15\nbogus=1\n", "form file has d=15 but the lattice's field is d=7"),
        ("bogus=1\nd=7\n", "form file has an unknown key 'bogus'"),
        ("d=7\nd=7\n", "form file repeats the key d="),
        ("d=seven\n", "d='seven' is not an integer"),
    ],
)
def test_form_file_header_is_read(capsys, tmp_path, header, message):
    lat, _ = _write_desk_files(tmp_path)
    form = tmp_path / "headed_form.txt"
    form.write_text(f"{header}0 -1/1 1/1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(form), "--lattice", lat)
    assert code == 1
    assert out == ""
    assert err == f"error: {form}: {message}\n"


def test_form_file_with_its_lattice_d_loads(capsys, tmp_path):
    lat, form = _write_desk_files(tmp_path)
    headed = tmp_path / "headed_form.txt"
    headed.write_text("d=7  # the field of the lattice\n0 -1/1 1/1\n")
    code, out, err = _run(capsys, "cmsum", "--form", str(headed), "--lattice", lat)
    assert (code, err) == (0, "")
    assert out == _run(capsys, "cmsum", "--form", form, "--lattice", lat)[1]


@pytest.mark.parametrize("mu", ["7", "-1"])
def test_unknown_dual_coset_label(capsys, mu):
    # Q(sqrt(-7)) has the 7 dual cosets 0..6
    code, out, err = _run(capsys, "kappa", "-d", "7", "--mu", mu, "-t", "1")
    assert code == 1
    assert err == f"error: no dual coset with label {mu}\n"


def test_gz_negative_discriminant_message(capsys):
    code, out, err = _run(capsys, "gz", "--d1", "-7", "--d2", "3")
    assert code == 1
    assert "d=-7" in err and "--7" not in err


def _write_transcendental_files(tmp_path):
    lat = tmp_path / "lat.txt"
    lat.write_text("d=7\nideal=unit\nrank=0\n")
    form = tmp_path / "form.txt"
    form.write_text("0 -1/1 1/1\n0 0/1 2/1\n")
    return str(lat), str(form)


@pytest.mark.parametrize("prec", ["5", "10001"])
def test_cmsum_bad_prec_fails_before_output(capsys, tmp_path, prec):
    lat, form = _write_transcendental_files(tmp_path)
    code, out, err = _run(
        capsys, "cmsum", "--form", form, "--lattice", lat, "--prec", prec
    )
    assert code == 1
    assert out == ""
    assert "--prec" in err and "Traceback" not in err


def test_field_bad_prec_fails_before_output(capsys):
    code, out, err = _run(capsys, "field", "-d", "7", "--prec", "5")
    assert code == 1
    assert out == ""
    assert "--prec" in err and "Traceback" not in err


def test_field_refuses_prec_zero(capsys):
    # --prec 0 is a precision like --prec 5, not the absence of --prec
    code, out, err = _run(capsys, "field", "-d", "7", "--prec", "0")
    assert (code, out) == (1, "")
    assert "--prec must be >= 10, got 0" in err


@pytest.mark.parametrize("prec", ["0", "-5", "10001"])
def test_gz_rejects_non_positive_prec(capsys, prec):
    code, out, err = _run(capsys, "gz", "--d1", "3", "--d2", "7", "--prec", prec)
    assert code == 1
    assert out == ""
    assert "prec" in err and "Traceback" not in err


def test_gz_refuses_size_bound_beyond_max_prec(capsys, monkeypatch):
    # h(5000003) = 476: the a-priori bound asks for 11753 digits, and the
    # pair is refused before any j is evaluated
    calls = []
    monkeypatch.setattr(gzoracle, "j_value", lambda *args: calls.append(args))
    code, out, err = _run(capsys, "gz", "--d1", "3", "--d2", "5000003")
    assert code == 1
    assert out == ""
    assert "d1=3, d2=5000003 need 11753 digits" in err
    assert "Traceback" not in err
    assert calls == []


def test_gz_prints_products_beyond_the_int_str_digit_limit(capsys, monkeypatch):
    # str() of an int refuses more than 4300 digits by default; a product
    # that size, here from a stub, must still print exactly
    product = 123456789 * 10**4991 + 987654321
    fake = GZResult(
        d1=3,
        d2=7,
        product=-product,
        factorization=((3, 1),),
        precision_used=5040,
        margin=0.0,
    )
    monkeypatch.setattr(gzoracle, "gz_product", lambda d1, d2, prec: fake)
    code, out, err = _run(capsys, "gz", "--d1", "3", "--d2", "7")
    assert (code, err) == (0, "")
    digits = "123456789" + "0" * 4982 + "987654321"
    assert len(digits) == 5000
    assert out.splitlines()[0] == "product=-" + digits
