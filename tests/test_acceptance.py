"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
verbose listing); a pytest failure on any test is the corresponding FAIL
line.  The sweeps run on the fixed configuration p in {3, 5, 7, 11, 13},
N = 8, with deterministic seeds.
"""

import time

from sl2endo import checks
from sl2endo.charformulas import PacketSpec, psi0
from sl2endo.cli import main
from sl2endo.cyclotomic import CycNumber, root_of_unity
from sl2endo.endoscopy import falsify_adss152, rhs_endoscopic, verify_identity
from sl2endo.localfield import FieldConfig
from sl2endo.residue import norm_one_group, regular_levels
from sl2endo.torus import Classification, f_direct, sample_regular

PRIMES = (3, 5, 7, 11, 13)
PRECISION = 8
NEAR_VALUATIONS = (1, 2, 3)


def _passed(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} PASS: {name}{suffix}")


def split_samples(config, count, key):
    """count elements, alternating far and near with valuations cycling 1..3;
    draw i is keyed key|i."""
    out = []
    for i in range(count):
        if i % 2 == 0:
            out.append(sample_regular(config, Classification.FAR, 0, f"{key}|{i}"))
        else:
            v = NEAR_VALUATIONS[(i // 2) % len(NEAR_VALUATIONS)]
            out.append(sample_regular(config, Classification.NEAR, v, f"{key}|{i}"))
    return out


def test_criterion_01_quadratic_packet_identity():
    start = time.monotonic()
    checked = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        packet = PacketSpec.nonregular(config)
        key = f"acc1:{p}"
        for gamma in split_samples(config, 200, key):
            report = verify_identity(packet, "s1", gamma)
            assert report.verdict == "equal", report.to_record()
            closed_form = CycNumber.from_int(-2 * f_direct(gamma) * psi0(gamma))
            assert rhs_endoscopic(packet, gamma) == closed_form
            checked += 1
    elapsed = time.monotonic() - start
    _passed(1, "quadratic-packet identity", f"{checked} checks in {elapsed:.1f}s")


def test_criterion_02_regular_packet_identity():
    start = time.monotonic()
    checked = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        group = norm_one_group(config)
        key = f"acc2:{p}"
        gammas = split_samples(config, 200, key)
        for level in regular_levels(config):
            packet = PacketSpec.regular(config, level.k)
            for gamma in gammas:
                report = verify_identity(packet, "s1", gamma)
                assert report.verdict == "equal", report.to_record()
                if gamma.classification is Classification.FAR:
                    m = group.dlog(group.reduce(gamma))
                    expected = (
                        -root_of_unity(p + 1, level.k * m)
                        - root_of_unity(p + 1, -level.k * m)
                    )
                    assert report.lhs == expected
                checked += 1
    elapsed = time.monotonic() - start
    _passed(2, "regular-packet identity, all levels", f"{checked} checks in {elapsed:.1f}s")


def test_criterion_03_transfer_factor_equals_minus_f():
    total = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        key = f"acc3:{p}"
        gammas = split_samples(config, 200, key)
        assert checks.transfer_factor_equals_minus_f(config, gammas)
        total += len(gammas)
    assert total == 1000
    _passed(3, "transfer factor equals -f", f"{total} elements, 0 mismatches")


def test_criterion_04_adss152_falsification():
    total = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        packet = PacketSpec.nonregular(config)
        key = f"acc4:{p}"
        for i in range(100):
            v = NEAR_VALUATIONS[i % len(NEAR_VALUATIONS)]
            gamma = sample_regular(config, Classification.NEAR, v, f"{key}|{i}")
            f = f_direct(gamma)
            rep1, rep2 = falsify_adss152(packet, gamma)
            assert rep1.verdict == "unequal"
            assert rep1.lhs == 0
            assert rep1.rhs == -2 * f and not rep1.rhs.is_zero
            assert rep2.verdict == "unequal"
            assert rep2.lhs == -1
            assert rep2.rhs == -1 - f
            total += 1
    assert total == 500
    _passed(4, "published 15.2 values clash everywhere", f"{total} near elements, 100% unequal")


def test_criterion_05_f_equivalence_and_discriminants():
    total = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        key = f"acc5:{p}"
        gammas = split_samples(config, 60, key)
        assert checks.f_and_discriminant_identities(config, gammas)
        total += len(gammas)
    _passed(5, "f routes and discriminant identities", f"{total} elements, 0 failures")


def test_criterion_06_psi0_dual_route():
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        key = f"acc6:{p}"
        gammas = [sample_regular(config, Classification.FAR, 0, f"{key}|{i}") for i in range(50)]
        assert checks.psi0_dual_route_and_uniqueness(config, gammas)
    _passed(6, "quadratic character dual route and uniqueness", f"primes {PRIMES}")


def test_criterion_07_orbital_cayley_consistency():
    total = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        key = f"acc7:{p}"
        gammas = [
            sample_regular(config, Classification.NEAR, NEAR_VALUATIONS[i % len(NEAR_VALUATIONS)],
                           f"{key}|{i}")
            for i in range(200)
        ]
        assert checks.orbital_cayley_consistency(config, gammas)
        total += len(gammas)
    _passed(7, "orbital route matches near sums", f"{total} near elements")


def test_criterion_08_inner_form_stability():
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        key = f"acc8:{p}"
        assert checks.inner_form_stability(config, split_samples(config, 60, key))
    _passed(8, "stability across inner forms", f"primes {PRIMES}")


def test_criterion_09_structure_tables():
    levels_checked = 0
    for p in PRIMES:
        config = FieldConfig(p, PRECISION)
        assert checks.structure_tables(config, ())
        levels_checked += len(regular_levels(config))
    _passed(9, "component-group structure tables", f"{levels_checked} regular levels")


def test_criterion_10_determinism(tmp_path):
    import contextlib
    import io

    args = [
        "verify", "--primes", "3,5,7", "--samples", "20", "--seed", "42",
        "--packet", "nonregular", "--s", "s1",
    ]
    f1, f2 = tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
    data1, data2 = f1.read_bytes(), f2.read_bytes()
    assert data1 and data1 == data2
    _passed(10, "byte-identical report streams", f"{len(data1)} bytes")
