"""Tests for the sweep driver: determinism, exit codes, formats, schema."""

import argparse
import csv
import hashlib
import importlib.util
import inspect
import io
import itertools
import json
import os
import pkgutil
import random
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import oracles
import sl2endo
from sl2endo import endoscopy, localfield
from sl2endo.cli import (
    SAMPLE_CLASSES, SweepConfig, _draws, build_parser, main, run, sweep_from_args,
)
from sl2endo.cyclotomic import CycNumber, linear_combination, root_of_unity
from sl2endo.endoscopy import REPORT_FIELDS
from sl2endo.errors import PrecisionExhausted
from sl2endo.localfield import FieldConfig
from sl2endo.torus import Classification


def int_str_digits():
    """The int-to-str digit limit, or CPython's default 4,300 where none is set (0) or known."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or getattr(
        sys.int_info, "default_max_str_digits", 4300)


def largest_printable_precision(p):
    """Largest N with p^N <= 10^int_str_digits(), so residues mod p^N print."""
    n, power, ceiling = 0, p, 10**int_str_digits()
    while power <= ceiling:
        n, power = n + 1, power * p
    return n


def run_capture(sweep):
    out, err = io.StringIO(), io.StringIO()
    code = run(sweep, out, err)
    return code, out.getvalue(), err.getvalue()


def run_cli(argv):
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def pins_by_name(entries):
    """name -> (argv, stdout sha256, stderr sha256).

    A name listed twice raises, where a dict literal would silently keep
    only the later pin.
    """
    pins = {}
    for name, *pin in entries:
        if name in pins:
            raise ValueError(f"pinned sweep {name!r} is listed twice")
        pins[name] = tuple(pin)
    return pins


# Digests of streams written by earlier implementations (the table by the
# O(p^2) norm-one group, the properties stream by the battery written out in
# the CLI before the checks registry; the stderr summaries by the
# Fraction-coefficient core): a change of representation or algorithm must
# leave every stream byte-identical (acceptance criterion 10 across
# versions).  The verify and falsify streams changed once, with the draws
# (GETRANDBITS_STREAMS below), and their stderr summaries did not.  Each entry
# is (name, argv, stdout sha256, stderr sha256); every sweep exits 0.
PINNED_SWEEPS = pins_by_name((
    (
        "regular-p101",
        ["verify", "--packet", "regular", "--primes", "101", "--samples", "4", "--seed", "5"],
        "dfa096770cd5b72e3e02557d5e2665e878a20e56ceb17efed08f83644da47ec7",
        "cce6c3f1be7f60edffe53271f50962c3e8d17f498f7f5139d7c191f462df8bbe",
    ),
    (
        "nonregular-s1",
        ["verify", "--packet", "nonregular", "--s", "s1", "--primes", "3,5,7,11,13",
         "--samples", "40", "--seed", "5"],
        "3f0555461d4a3afc208632ab307280fdeb140915f307c1860a9d3b96f8f9049f",
        "f1a715c8778059259ebcdbc0f051a3dc798f86c465132d2aecfc3f125238ad75",
    ),
    (
        "falsify",
        ["falsify", "--primes", "3,5,7,11,13", "--samples", "40", "--seed", "5"],
        "0fe2a77e40995da2cda865fd9a6f0b6d305f589c29a1842a49c8e5ef484f43d7",
        "b4febaa50d830fa57ffd096d8d4e69425681a8d31761388929d24f5305662e8b",
    ),
    (
        "table",
        # pins the residue point order, the generator and the dlogs
        ["table", "--primes", "3,5,7,11,13,101"],
        "d06a5d56a301432fd7137db5d076046956d5a0b937f392938a25b6bc5d3cda58",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "properties",
        # pins the property battery's order, names and details; a detail counts the
        # drawn elements of a class, so the stream does not depend on which are drawn
        ["properties", "--primes", "3,5,7,11,13", "--samples", "40", "--seed", "5"],
        "81758045a5b23a3a9d016bcb3fdb1cd0ec5fe8a0558ea3ae918e7de05fee02cf",
        "6de4bc079166b9572e75721239b580a1592179eaddb0a0aea227b8d78279fd37",
    ),
    (
        "regular-p13-table-format",
        # pins the padded table report format
        ["verify", "--packet", "regular", "--primes", "13", "--format", "table"],
        "32a3ee63be28c952b736c5b317a2920a5f84ccdd688f59739ba9af53aab7b344",
        "00129bbabbcc2bf02e69e48fa44e172e772d49556a8b3ef9f2cab3b27abee7ab",
    ),
    (
        "nonregular-stable",
        # pins the stable comparison: theta5, psi0 and the inner-form side
        ["verify", "--s", "1", "--primes", "3,5,7,11,13", "--samples", "40", "--seed", "5"],
        "ab07b64831060081da966529aca777b63b178ba00eb3e6edec5a43fadaadf0a6",
        "f1a715c8778059259ebcdbc0f051a3dc798f86c465132d2aecfc3f125238ad75",
    ),
    (
        "nonregular-s2-skips-p13",
        # the s2 skips at every acceptance prime: 100 far records keep lhs with a
        # null rhs, and 100 near records are undetermined
        ["verify", "--s", "s2", "--primes", "3,5,7,11,13", "--samples", "40", "--seed", "5"],
        "b87c1543083e3da3634831f8a04dcdf7163eae89b8d3bbcdcb05719a12d859f5",
        "695ec3073b2b38b3286ed8d976de49e9a2d5277ca532c3d9e5b1b34e50f52537",
    ),
    (
        "falsify-precision-12",
        # pins a stream at N = 12: the residues, v(b) up to 9 and the Cayley transform
        ["falsify", "--primes", "3,5,7", "--precision", "12", "--near-valuations", "1:9",
         "--samples", "30", "--seed", "5"],
        "2d24ce92b752b0994b322bb5345bd839f48e8d37203b696a12a28bcf9f2581c2",
        "f9c6b817dec03033ab1cd9d041c1fee1b5b6569854eae2b180dc9799374ae936",
    ),
    (
        "nonregular-s2-skips",
        # pins the undetermined and no-comparison skips
        ["verify", "--s", "s2", "--primes", "3,5,7", "--samples", "40", "--seed", "5"],
        "18c7b72603756c6e409e84ab5c81ad14e0c26df8f3604e2c1626b8568c6e3d45",
        "c43afd296bea46a473587bfa2c1d5b098232c15c6dd1613c5e9e4a6e8b088284",
    ),
    (
        "nonregular-s3-skips",
        # pins s = s3: 60 far records keep lhs with a null rhs (no endoscopic
        # comparison), and 60 near records are undetermined
        ["verify", "--s", "s3", "--primes", "3,5,7", "--samples", "40", "--seed", "5"],
        "5b7aa18440f348e061af4de9aa4f304aec8835b20569df5143f6afa12c29de2d",
        "c43afd296bea46a473587bfa2c1d5b098232c15c6dd1613c5e9e4a6e8b088284",
    ),
    (
        "nonregular-csv-format",
        # pins the csv format with both sides decided
        ["verify", "--format", "csv", "--seed", "5"],
        "e863574092bd5730fce814b87c8f8043373693c76bd17227cfa2d63098064ca6",
        "2e9bb5553e530b8667b77f848ef8e757daca66b22847020f97c232967d67c0b6",
    ),
    (
        "nonregular-s2-csv",
        # pins csv null cells: 30 far rows keep lhs with an empty rhs, and 30 near
        # rows have lhs and rhs empty
        ["verify", "--s", "s2", "--format", "csv", "--primes", "3,5,7", "--samples", "20",
         "--seed", "5"],
        "f14646a6f7795e2575ee28ad5e21b452a88f13ce7ddfee82d05cf07849db4728",
        "34194cf32a6b5103b18ce264e3ecc2708df065fee91a87130291bff351b6c101",
    ),
    (
        "far-p3",
        # pins far draws at p = 3, where every far residue point has a = 0 mod p
        ["verify", "--primes", "3", "--class", "far", "--samples", "200", "--seed", "5"],
        "eb7a2065a062c0fc26f6ee7dec8ebf4b2a79705cb6adcc30877c164d53c4f2e7",
        "f1a715c8778059259ebcdbc0f051a3dc798f86c465132d2aecfc3f125238ad75",
    ),
    (
        "regular-p1009",
        # pins jsonl at conductor 1010, where the runs of zero coefficients are long
        ["verify", "--packet", "regular", "--primes", "1009", "--level", "1",
         "--samples", "7", "--seed", "5"],
        "479d239ded09155f6559526aa078ac63c51c26991654d75a42cb5cf540461a7f",
        "6e3e4d2bdd2c1302accca20d7e86d531ff009dccd246e5ecea8cb040baf288ca",
    ),
    (
        "verify-near-valuations-2-5",
        # pins a near range other than the default 1:3: 120 equal records
        ["verify", "--near-valuations", "2:5", "--primes", "3,5,7", "--samples", "40",
         "--seed", "5"],
        "ee207c930e3ed0a4222c4001af81d0e4c630b2cd3ba88aebd6e3cc3763ecb5fb",
        "2b210f1884534fce8fca27d14ea2ef6614c6372978789b596f49aea8bbb2c213",
    ),
    (
        "falsify-near-valuation-4",
        # pins a one-valuation near range, lo alone: 400 unequal records
        ["falsify", "--near-valuations", "4", "--primes", "3,5,7,11,13", "--samples", "40",
         "--seed", "5"],
        "d09dbe99b04e095d87568e545abc3bf863f9d3265ba11f01d5f0be5e76c48c89",
        "b4febaa50d830fa57ffd096d8d4e69425681a8d31761388929d24f5305662e8b",
    ),
    (
        "falsify-csv-format",
        # pins the falsify csv format: 120 unequal records
        ["falsify", "--format", "csv", "--primes", "3,5,7", "--samples", "20", "--seed", "5"],
        "4baf634d5c5d3815b8ff0788858f102e152f305ec12f2843fd5ebbdf5a3ea219",
        "7ffd939e6ac44e1906adf571cc48b54cbc6f959634c215305327c2d784bea695",
    ),
    (
        "falsify-table-format",
        ["falsify", "--format", "table", "--primes", "3,5,7", "--samples", "20", "--seed", "5"],
        "bb4f26115c384e024bbd93b1d33a8fd2755bb0cd5a89b7e65577f4f08b932aea",
        "7ffd939e6ac44e1906adf571cc48b54cbc6f959634c215305327c2d784bea695",
    ),
    (
        "properties-table-format",
        ["properties", "--format", "table", "--primes", "3,5,7,11,13", "--samples", "40",
         "--seed", "5"],
        "c9a1af192495421b2bcd71ec94e2782945f68b632e11921e9f30430a3b27b75f",
        "6de4bc079166b9572e75721239b580a1592179eaddb0a0aea227b8d78279fd37",
    ),
    (
        "table-level-1",
        # pins the --level branch of the table: one regular level at each prime
        ["table", "--primes", "5,7", "--level", "1"],
        "6f75c0ca57a5d85efaf92c32e9e635a1bd295d410ed82a968af4adfe2148c3f9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
))


# The stdout digests of the pinned sweeps whose streams the getrandbits sampler
# (oracles.getrandbits_sample_regular) wrote before each draw read a keyed
# blake2b digest; the other pins did not change with the draws.
GETRANDBITS_STREAMS = {
    "regular-p101":
        "ac79706b0c3ed08febcc853d02fc88fc37d475d4de3d43f5d91a8b55f9a0f438",
    "nonregular-s1":
        "9bdd03765ecc47c219f72a4101789c429d113ffd9c4ff55899088b1230bdbaeb",
    "falsify":
        "387ad8b4c7d2bb92bc86dd4a9f022519b6279f01f29d896ec8f5eafe294a310a",
    "regular-p13-table-format":
        "d2d735c4ea0980bdd00e06d9b26c33518e69de3e74364bdf1f4810c52b1172f8",
    "nonregular-stable":
        "5813292c89944d280515ee5b9540993560115d0d5ce1c6aff50610a269d0b154",
    "nonregular-s2-skips-p13":
        "7dcd20e56760d5bb1e9c58213f96ffda0151e36e93e156afd0020f5600b20a33",
    "falsify-precision-12":
        "453dfa15dca1065399b16cb3fcc36ea1b1416221b5db6d81129d628560740e54",
    "nonregular-s2-skips":
        "b60d78c7cf6ea0f0b044bae0951a1fc8a023cdda2dcbbff45ef89ef391fb7368",
    "nonregular-s3-skips":
        "a6b451810306e094c531b27f63dbbdd79eea6a8f84eac081321ba4cdb6ef594d",
    "nonregular-csv-format":
        "e914cf628ecc13bfc85182572466ca90bdf9d8a07e8fe6422fe9bcd253341922",
    "nonregular-s2-csv":
        "4584c45bd70d2ab089d2e08758c314d75c63123003f264a53d12a4156ce32269",
    "far-p3":
        "fb863b5feba5e739797334a60a095b329a2c4a90b8c98886ad50add53669774b",
    "regular-p1009":
        "e69c7719ab86387940c1fd5fb6117db0869f5a19c01f6f98639d1f1da3dbdcf2",
    "verify-near-valuations-2-5":
        "94461e155ab1fa1bd0889b5c7f4a62f5cbee1f157cbb9fb0825fe8510361c4dd",
    "falsify-near-valuation-4":
        "f83f5ddcea6547e2d9b8d2f1a932daefeb3f5af133637a14795cc40f2a0371a5",
    "falsify-csv-format":
        "bc58f0c2ec10ccdf6b8ada01782357a6f9c6f85ab24674f67394f9f8e82c9639",
    "falsify-table-format":
        "2d741289198884e5a6d1fc710a6105feefa6cf2641e9c669965a08e8542e6099",
}


class TestVerifyMode:
    def test_nonregular_sweep_exits_zero(self):
        sweep = SweepConfig(mode="verify", primes=[3, 5], samples=10, seed=42)
        code, out, err = run_capture(sweep)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 20
        assert all(rec["verdict"] == "equal" for rec in lines)
        assert "0 skipped" in err

    def test_regular_specific_level(self):
        sweep = SweepConfig(
            mode="verify", primes=[5], samples=6, seed=1, packet="regular", level=2
        )
        code, out, _ = run_capture(sweep)
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert {rec["level"] for rec in recs} == {2}
        assert {rec["packet"] for rec in recs} == {"regular"}

    def test_regular_all_levels(self):
        sweep = SweepConfig(
            mode="verify", primes=[5], samples=2, seed=1, packet="regular"
        )
        code, out, _ = run_capture(sweep)
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert {rec["level"] for rec in recs} == {1, 2, 4, 5}

    def test_s2_near_all_skipped_with_warning(self):
        sweep = SweepConfig(
            mode="verify", primes=[3], samples=5, seed=7, s="s2", sample_class="near"
        )
        code, out, err = run_capture(sweep)
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert all(rec["verdict"].startswith("skipped") for rec in recs)
        assert "warning" in err and "5 check(s) skipped" in err

    def test_class_near_only(self):
        sweep = SweepConfig(
            mode="verify", primes=[3], samples=6, seed=3, sample_class="near"
        )
        code, out, _ = run_capture(sweep)
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert {rec["classification"] for rec in recs} == {"near"}
        assert {rec["valuation_b"] for rec in recs} == {1, 2, 3}

    def test_schema_fields_exact(self):
        sweep = SweepConfig(mode="verify", primes=[3], samples=4, seed=0)
        _, out, _ = run_capture(sweep)
        for line in out.splitlines():
            rec = json.loads(line)
            assert sorted(rec.keys()) == sorted(REPORT_FIELDS)

    def test_draws_call_no_randrange(self, monkeypatch):
        # each draw reads a keyed blake2b digest: no random.Random is built
        argv = ["verify", "--primes", "3,5,7", "--samples", "40", "--seed", "3"]
        expected = run_cli(argv)

        def refused(self, *args, **kwargs):
            raise AssertionError("random.Random built")

        monkeypatch.setattr(random.Random, "__init__", refused)
        assert run_cli(argv) == expected
        assert expected[0] == 0 and expected[1]


class TestFalsifyMode:
    def test_exits_zero_when_all_unequal(self):
        sweep = SweepConfig(mode="falsify", primes=[3], samples=10, seed=11)
        code, out, err = run_capture(sweep)
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert len(recs) == 20  # two reports per sample
        assert all(rec["verdict"] == "unequal" for rec in recs)
        assert "20 unequal as expected" in err

class TestPropertiesMode:
    def test_battery_passes(self):
        sweep = SweepConfig(mode="properties", primes=[3, 5], samples=10, seed=0)
        code, out, _ = run_capture(sweep)
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert all(rec["ok"] for rec in recs)

    def test_failed_property_exits_one(self, monkeypatch):
        import sl2endo.checks as checks_mod

        name, _, detail = checks_mod.PROPERTIES[1]
        patched = list(checks_mod.PROPERTIES)
        patched[1] = (name, lambda config, gammas: False, detail)
        monkeypatch.setattr(checks_mod, "PROPERTIES", tuple(patched))
        sweep = SweepConfig(mode="properties", primes=[3], samples=10, seed=0)
        code, out, err = run_capture(sweep)
        assert code == 1
        recs = [json.loads(line) for line in out.splitlines()]
        assert [rec["property"] for rec in recs] == [n for n, _, _ in patched]
        assert [rec["property"] for rec in recs if not rec["ok"]] == [name]
        assert err == "properties: 1 failure(s)\n"

    def test_runs_below_the_default_near_valuations(self):
        # the battery picks its own near valuations, so N = 4 is no usage error
        code, out, err = run_cli(["properties", "--primes", "3", "--precision", "4",
                                  "--samples", "4"])
        assert code == 0
        recs = [json.loads(line) for line in out.splitlines()]
        assert len(recs) == 6 and all(rec["ok"] for rec in recs)

    @pytest.mark.parametrize("precision", [4, 5, 6, 7])
    def test_low_precisions_exit_zero(self, precision):
        code, _, err = run_cli(["properties", "--primes", "3", "--precision", str(precision),
                                "--samples", "10"])
        assert code == 0, err

    def test_csv_rejected(self):
        with pytest.raises(ValueError, match="--format"):
            SweepConfig(mode="properties", primes=[3], fmt="csv").validate()


class TestTableMode:
    def test_prints_structure_tables(self):
        sweep = SweepConfig(mode="table", primes=[5], fmt="table")
        code, out, _ = run_capture(sweep)
        assert code == 0
        assert "norm-one group of order 6" in out
        assert "rho4" in out
        assert "(1, -1, -1, 1)" in out


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        args = [
            "verify", "--primes", "3,5", "--samples", "8", "--seed", "42",
            "--packet", "nonregular", "--s", "s1",
        ]
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert f1.read_bytes()  # non-empty

    @pytest.mark.parametrize("name", PINNED_SWEEPS)
    def test_stream_digest_pinned(self, name):
        argv, digest, _ = PINNED_SWEEPS[name]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", PINNED_SWEEPS)
    def test_summary_digest_pinned(self, name):
        # the stderr summary lines, which the benchmark's gate parses, and the exit code
        argv, _, err_digest = PINNED_SWEEPS[name]
        code, _, err = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest

    @pytest.mark.parametrize("name", PINNED_SWEEPS)
    def test_old_stream_digest_of_the_getrandbits_sampler(self, monkeypatch, name):
        # the sampler that wrote the streams before each draw read a keyed
        # blake2b digest, put back into cli, writes them again
        import sl2endo.cli as cli_mod

        argv, digest, _ = PINNED_SWEEPS[name]
        monkeypatch.setattr(cli_mod, "sample_regular", oracles.getrandbits_sample_regular)
        code, out, _ = run_cli(argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GETRANDBITS_STREAMS.get(name, digest)

    @staticmethod
    def verdict_counts(argv, out):
        """How many records of each (packet, s, class, verdict) a verify or
        falsify stream holds; the lines of any other stream."""
        if argv[0] not in ("verify", "falsify"):
            return Counter(out.splitlines())
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "jsonl"
        if fmt == "jsonl":
            rows = [json.loads(line) for line in out.splitlines()]
        else:
            rows = (csv.DictReader(io.StringIO(out)) if fmt == "csv"
                    else TestFormats.table_cells(out))
        return Counter((row["packet"], row["s"], row["classification"], row["verdict"])
                       for row in rows)

    @pytest.mark.parametrize("name", PINNED_SWEEPS)
    def test_verdict_counts_as_the_getrandbits_sampler(self, monkeypatch, name):
        # the new draws decide what the old ones decided, class by class
        import sl2endo.cli as cli_mod

        argv = PINNED_SWEEPS[name][0]
        new = run_cli(argv)
        monkeypatch.setattr(cli_mod, "sample_regular", oracles.getrandbits_sample_regular)
        old = run_cli(argv)
        assert new[0] == old[0] == 0 and new[2] == old[2]
        counts = self.verdict_counts(argv, new[1])
        assert counts == self.verdict_counts(argv, old[1]) and counts

    def test_a_pin_name_listed_twice_raises(self):
        with pytest.raises(ValueError, match="'twice' is listed twice"):
            pins_by_name([("twice", ["table"], "0", "1"), ("twice", ["table"], "2", "3")])

    def test_different_seed_changes_stream(self, tmp_path):
        base = ["verify", "--primes", "3", "--samples", "8"]
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(base + ["--seed", "1", "--out", str(f1)]) == 0
        assert main(base + ["--seed", "2", "--out", str(f2)]) == 0
        assert f1.read_bytes() != f2.read_bytes()


class TestValueMemo:
    """endoscopy._json_value renders each value through a process-wide memo
    bounded by bytes; tests/oracles.py keeps the renderer it wraps as it was
    before the memo."""

    @staticmethod
    def sweep_values(monkeypatch, argv):
        """The distinct values that the sweep argv writes."""
        values, render = {}, endoscopy._json_value

        def collect(value):
            if value is not None:
                values.setdefault((value.m, value.num), value)
            return render(value)

        monkeypatch.setattr(endoscopy, "_json_value", collect)
        assert run_cli(argv)[0] == 0
        monkeypatch.setattr(endoscopy, "_json_value", render)
        return list(values.values())

    def test_renders_as_before_cold_and_warm(self, monkeypatch):
        oracles.cold_memo(monkeypatch)
        values = list({
            (value.m, value.num): value for argv, _, _ in PINNED_SWEEPS.values()
            for value in self.sweep_values(monkeypatch, argv)
        }.values())
        far = linear_combination([(-1, root_of_unity(1010, 3)), (-1, root_of_unity(1010, -3))])
        assert len(far.num) == 243
        big = CycNumber.from_int(-7, 1_048_574)  # phi = 524,286: a 2.6 MB rendering
        values += [far, big]
        oracles.cold_memo(monkeypatch)
        for value in values:
            expected = oracles._json_value(value)
            assert endoscopy._json_value(value) == expected  # cold: rendered
            # warm: an equal value built anew reads the same line from the memo
            copy = CycNumber(value.m, tuple((i, c) for i, c in value.num))
            assert endoscopy._json_value(copy) == expected
        memo = endoscopy._memo
        assert (far.m, far.num) in memo and (big.m, big.num) not in memo
        assert len(memo) == len(values) - 1
        assert sum(map(sys.getsizeof, memo.values())) <= endoscopy._memo_bytes
        assert endoscopy._memo_bytes <= endoscopy._MEMO_BUDGET

    def test_keeps_every_value_of_a_level_sweep_at_p1009(self, monkeypatch):
        # every far residue point of level 1 (the digits 0..p-2 draw each once)
        # and the near shells v(b) = 1..3: each distinct value is kept in budget
        from sl2endo.charformulas import PacketSpec
        from sl2endo.endoscopy import verify_identity
        from sl2endo.torus import _element_of

        oracles.cold_memo(monkeypatch)
        config = FieldConfig(1009)
        packet = PacketSpec.regular(config, 1)
        draws = [(Classification.FAR, 0)] + [(Classification.NEAR, v) for v in (1, 2, 3)]
        values = set()
        for cls, v in draws:
            for x in range(config.p - 1):
                report = verify_identity(packet, "s1", _element_of(config, cls, v, x))
                assert report.verdict == "equal"
                report.to_json()
                values |= {(side.m, side.num) for side in (report.lhs, report.rhs)}
        assert len(values) > 500
        assert values <= set(endoscopy._memo)
        assert endoscopy._memo_bytes <= endoscopy._MEMO_BUDGET

    @pytest.mark.parametrize("argv", [
        ["falsify", "--primes", "3,5,7", "--samples", "20"],
        ["verify", "--packet", "regular", "--primes", "1009", "--level", "1", "--samples", "50",
         "--class", "far", "--seed", "5"],
    ])
    def test_same_sweep_twice_in_one_process(self, monkeypatch, argv):
        # acceptance criterion 10 within one process: a cold memo, a warm one,
        # and one whose budget runs out in the middle of the sweep
        oracles.cold_memo(monkeypatch)
        cold = run_cli(argv)
        assert cold[0] == 0 and cold[1]
        assert run_cli(argv) == cold
        oracles.cold_memo(monkeypatch, budget=20_000)
        assert run_cli(argv) == cold
        assert 0 < endoscopy._memo_bytes <= 20_000


def src_modules():
    return [importlib.import_module(f"sl2endo.{info.name}")
            for info in pkgutil.iter_modules(sl2endo.__path__)]


class TestProcessWideTables:
    """The process-wide state of src is its functools caches and the render
    memo: cleared, then filled, it gives the streams that fresh interpreters
    give."""

    @staticmethod
    def caches():
        """{"module.name": cache} of the functools caches that src modules define."""
        return {
            f"{module.__name__.rpartition('.')[2]}.{name}": value
            for module in src_modules()
            for name, value in vars(module).items()
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__
        }

    @pytest.mark.parametrize("name", ["nonregular-s1", "regular-p1009", "falsify-precision-12"])
    def test_pinned_sweeps_cold_and_warm(self, monkeypatch, name):
        caches = self.caches()
        assert {
            "residue._groups", "endoscopy.epsilon_factor", "localfield.field_config", "cli._packets",
        } <= set(caches)
        for cache in caches.values():
            cache.cache_clear()
        oracles.cold_memo(monkeypatch)
        argv, digest, err_digest = PINNED_SWEEPS[name]
        for _ in ("cold", "warm"):
            code, out, err = run_cli(argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            assert hashlib.sha256(err.encode()).hexdigest() == err_digest
            # the second round finds every table filled
            assert all(cache.cache_info().currsize for cache in caches.values())

    def test_two_runs_of_a_sweep_build_its_configuration_once(self, monkeypatch):
        # validate, the runner and the epsilon factor share one FieldConfig of
        # (p, N) per process, so the trial division of p runs once in two runs
        for cache in self.caches().values():
            cache.cache_clear()
        divided = Counter()
        divide = localfield.prime_divisors

        def counting(n):
            divided[n] += 1
            return divide(n)

        monkeypatch.setattr(localfield, "prime_divisors", counting)
        argv = ["verify", "--packet", "regular", "--level", "1", "--primes", "101,1009",
                "--samples", "7", "--class", "both"]
        results = [run_cli(argv) for _ in range(2)]
        assert results[0] == results[1] and results[0][0] == 0
        assert divided == Counter({101: 1, 1009: 1})

    def test_the_only_module_level_containers(self):
        # every other process-wide table is a functools cache, reset by cache_clear
        containers = {
            f"{module.__name__.rpartition('.')[2]}.{name}"
            for module in src_modules()
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")
        }
        assert containers == {
            "cli.FORMATS", "cli.RUNNERS", "endoscopy.SKIP_VERDICTS", "endoscopy._memo",
        }


class TestSamplePlan:
    """The one element source's draw schedule against the three it replaced,
    read off the sampler calls each runner, and the source itself, makes."""

    SAMPLES = (1, 2, 7, 10, 40, 41)

    @staticmethod
    def source_plan(calls, precision, samples, sample_class, near_vals):
        """The (class, v(b)) of every sampler call the source itself makes at p = 3,
        each call answered by the recording sampler in place, and checked to be
        the class and v(b) of the element it drew."""
        calls.clear()
        draws = _draws(FieldConfig(3, precision), samples, sample_class, near_vals,
                       lambda cls, v, i: str(i))
        assert [(gamma.classification, gamma.valuation_b) for gamma in draws] == calls
        return calls

    @staticmethod
    def reference_verify_plan(sweep):
        """verify's schedule as it was: _sample_plan(sweep)."""
        near_vals = list(sweep.near_valuations)
        plan = []
        near_i = 0
        for i in range(sweep.samples):
            want_near = sweep.sample_class == "near" or (
                sweep.sample_class == "both" and i % 2 == 1
            )
            if want_near:
                plan.append((Classification.NEAR, near_vals[near_i % len(near_vals)]))
                near_i += 1
            else:
                plan.append((Classification.FAR, 0))
        return plan

    @staticmethod
    def reference_falsify_plan(sweep):
        """falsify's schedule as it was, inline in run_falsify."""
        plan = []
        near_vals = list(sweep.near_valuations)
        for i in range(sweep.samples):
            v = near_vals[i % len(near_vals)]
            plan.append((Classification.NEAR, v))
        return plan

    @staticmethod
    def reference_battery_plan(config, sweep):
        """The property battery's schedule as it was, inline in _property_battery."""
        plan = []
        for i in range(max(10, sweep.samples)):
            if i % 2 == 0:
                plan.append((Classification.FAR, 0))
            else:
                v = 1 + (i // 2) % min(3, (config.N - 1) // 2)  # v(D_G) = 2v < N
                plan.append((Classification.NEAR, v))
        return plan

    @staticmethod
    def drawn(monkeypatch):
        """Record the (class, v(b)) of every sampler call, then draw the element."""
        import sl2endo.cli as cli_mod

        calls = []

        def record(config, cls, v, seed, _sample=cli_mod.sample_regular):
            calls.append((cls, v))
            return _sample(config, cls, v, seed)

        monkeypatch.setattr(cli_mod, "sample_regular", record)
        return calls

    @pytest.mark.parametrize("near", [(1, 1), (1, 3), (2, 5)])
    @pytest.mark.parametrize("sample_class", ["near", "far", "both"])
    def test_verify(self, monkeypatch, sample_class, near):
        calls = self.drawn(monkeypatch)
        for samples in self.SAMPLES:
            sweep = SweepConfig(mode="verify", primes=[3], samples=samples,
                                sample_class=sample_class,
                                near_valuations=range(near[0], near[1] + 1))
            calls.clear()
            assert run_capture(sweep)[0] == 0
            assert calls == self.reference_verify_plan(sweep)
            near_vals = range(near[0], near[1] + 1)
            plan = self.source_plan(calls, 8, samples, sample_class, near_vals)
            assert plan == self.reference_verify_plan(sweep)

    @pytest.mark.parametrize("near", [(1, 1), (1, 3), (2, 5)])
    def test_falsify(self, monkeypatch, near):
        calls = self.drawn(monkeypatch)
        for samples in self.SAMPLES:
            sweep = SweepConfig(mode="falsify", primes=[3], samples=samples,
                                near_valuations=range(near[0], near[1] + 1))
            calls.clear()
            assert run_capture(sweep)[0] == 0
            assert calls == self.reference_falsify_plan(sweep)
            plan = self.source_plan(calls, 8, samples, "near", range(near[0], near[1] + 1))
            assert plan == self.reference_falsify_plan(sweep)

    @pytest.mark.parametrize("precision", range(4, 14))
    def test_property_battery(self, monkeypatch, precision):
        import sl2endo.checks as checks_mod
        import sl2endo.cli as cli_mod

        calls = self.drawn(monkeypatch)
        monkeypatch.setattr(checks_mod, "PROPERTIES", ())
        config = FieldConfig(3, precision)
        for samples in self.SAMPLES:
            sweep = SweepConfig(mode="properties", primes=[3], precision=precision,
                                samples=samples)
            calls.clear()
            assert cli_mod._property_battery(config, sweep) == []
            assert calls == self.reference_battery_plan(config, sweep)
            near_vals = range(1, min(3, (precision - 1) // 2) + 1)
            plan = self.source_plan(calls, precision, max(10, samples), "both", near_vals)
            assert plan == self.reference_battery_plan(config, sweep)

    def test_schedule_is_lazy(self, monkeypatch):
        # a generator function draws its first element without drawing the rest;
        # checked first, so a list-building source fails here instead of making
        # 10^12 draws below
        assert inspect.isgeneratorfunction(_draws)
        calls = self.drawn(monkeypatch)
        draws = _draws(FieldConfig(3, 8), 10**12, "both", range(1, 4), lambda cls, v, i: str(i))
        near, far = Classification.NEAR, Classification.FAR
        drawn = [(gamma.classification, gamma.valuation_b) for gamma in itertools.islice(draws, 7)]
        assert drawn == calls
        assert calls == [
            (far, 0), (near, 1), (far, 0), (near, 2), (far, 0), (near, 3), (far, 0),
        ]


class TestOneElementSource:
    """The runners on the one element source against the three draw loops they
    replaced (tests/oracles.py), with one injected sampler: the same stdout,
    stderr, exit code and sampler calls."""

    PRIMES = {"small": "3,5,7,11,13", "p101": "101", "p1009": "1009"}
    # name -> (flags, samples at small, p101 and p1009)
    SWEEPS = {
        **{f"verify-{cls}": (["verify", "--class", cls], (8, 8, 4)) for cls in SAMPLE_CLASSES},
        "verify-stable": (["verify", "--s", "1"], (8, 8, 4)),
        "verify-regular": (["verify", "--packet", "regular", "--level", "1", "--class", "near"],
                           (6, 6, 4)),
        "falsify": (["falsify"], (8, 8, 4)),
        "falsify-deep": (["falsify", "--near-valuations", "2:4", "--precision", "9"], (6, 6, 4)),
        "properties": (["properties"], (10, 10, 10)),
    }

    @staticmethod
    def sweep(monkeypatch, argv, parent):
        """(exit code, stdout, stderr, sampler calls) of one sweep, by the parent's
        loops or the element source; every sampler call is (class, v(b), seed).
        The injected sampler is the getrandbits one (oracles), which also takes
        the shared generator that the parent battery drew from."""
        import sl2endo.cli as cli_mod

        calls = []

        def injected(config, cls, v, seed):
            calls.append((cls, v, seed))
            return oracles.getrandbits_sample_regular(config, cls, v, seed)

        with monkeypatch.context() as patch:
            for target in (cli_mod, oracles):
                patch.setattr(target, "sample_regular", injected)
            if parent:
                for name in ("verify_identity", "falsify_adss152"):
                    patch.setattr(oracles, name, getattr(cli_mod, name))
                patch.setitem(cli_mod.RUNNERS, "verify", oracles.run_verify)
                patch.setitem(cli_mod.RUNNERS, "falsify", oracles.run_falsify)
                patch.setattr(cli_mod, "_property_battery", oracles._property_battery)
            return (*run_cli(argv), calls)

    @pytest.mark.parametrize("primes", PRIMES)
    @pytest.mark.parametrize("name", SWEEPS)
    def test_same_streams_as_the_parent_loops(self, monkeypatch, name, primes):
        flags, samples = self.SWEEPS[name]
        size = samples[list(self.PRIMES).index(primes)]
        argv = [*flags, "--primes", self.PRIMES[primes], "--samples", str(size), "--seed", "3"]
        properties = flags[0] == "properties"
        *new, new_calls = self.sweep(monkeypatch, argv, False)
        *old, old_calls = self.sweep(monkeypatch, argv, True)
        assert new == old and new[0] == 0
        assert len(new_calls) == len(old_calls) >= size
        if properties:  # the parent drew from one shared generator, so no key to compare
            new_calls = [call[:2] for call in new_calls]
            old_calls = [call[:2] for call in old_calls]
        assert new_calls == old_calls


class TestExitOne:
    def test_unexpected_verdict_exits_one(self, monkeypatch):
        # the identities hold, so exit 1 only happens if a verdict goes bad;
        # force one to check the contract
        import sl2endo.cli as cli_mod

        real = cli_mod.verify_identity

        def sabotage(packet, s, gamma):
            report = real(packet, s, gamma)
            report.verdict = "unequal"
            return report

        monkeypatch.setattr(cli_mod, "verify_identity", sabotage)
        sweep = SweepConfig(mode="verify", primes=[3], samples=2, seed=0)
        code, _, err = run_capture(sweep)
        assert code == 1
        assert "2 unequal" in err

    def test_falsify_unexpected_equal_exits_one(self, monkeypatch):
        import sl2endo.cli as cli_mod

        real = cli_mod.falsify_adss152

        def sabotage(packet, gamma):
            r1, r2 = real(packet, gamma)
            r1.verdict = "equal"
            return (r1, r2)

        monkeypatch.setattr(cli_mod, "falsify_adss152", sabotage)
        sweep = SweepConfig(mode="falsify", primes=[3], samples=2, seed=0)
        code, _, _ = run_capture(sweep)
        assert code == 1


class TestUsageErrors:
    def test_even_prime_rejected(self):
        code, _, err = run_cli(["verify", "--primes", "4"])
        assert code == 2
        assert "error" in err

    def test_regular_with_trivial_s_rejected(self):
        code, _, err = run_cli(["verify", "--packet", "regular", "--s", "1"])
        assert code == 2
        assert "s1" in err

    def test_regular_with_s2_rejected(self):
        code, _, _ = run_cli(["verify", "--packet", "regular", "--s", "s2"])
        assert code == 2

    def test_bad_near_valuations(self):
        code, _, _ = run_cli(["verify", "--near-valuations", "0:3"])
        assert code == 2

    @pytest.mark.parametrize("mode", ["verify", "falsify", "properties", "table"])
    @pytest.mark.parametrize("primes", ["3,x", "3;5", "3.0"])
    def test_malformed_primes_name_the_flag(self, mode, primes):
        code, out, err = run_cli([mode, "--primes", primes])
        assert code == 2 and out == ""
        assert err == f"error: --primes must be comma-separated integers, got {primes!r}\n"

    @pytest.mark.parametrize("mode", ["verify", "falsify"])
    @pytest.mark.parametrize("valuations", [":3", "1:2:3", "x", "1:y"])
    def test_malformed_near_valuations_name_the_flag(self, mode, valuations):
        code, out, err = run_cli([mode, "--near-valuations", valuations])
        assert code == 2 and out == ""
        assert err == f"error: --near-valuations must be lo or lo:hi, got {valuations!r}\n"

    def test_near_valuations_exceeding_precision(self):
        code, _, _ = run_cli(["verify", "--precision", "5", "--near-valuations", "1:3"])
        assert code == 2

    def test_far_only_sweep_ignores_the_near_valuation_bound(self):
        # N = 4 leaves room for near valuations up to 1 only, below the default 1:3,
        # but a far-only sweep draws no near element
        code, out, err = run_cli(
            ["verify", "--primes", "3", "--class", "far", "--precision", "4", "--samples", "2"]
        )
        assert code == 0 and out.count("\n") == 2
        assert err == "verify: 2 equal, 0 unequal, 0 skipped\n"
        for sample_class in ("near", "both"):
            code, _, err = run_cli(["verify", "--primes", "3", "--class", sample_class,
                                    "--precision", "4", "--samples", "2"])
            assert code == 2 and err == "error: near valuations must stay <= N-3 = 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--primes", ","], "at least one prime is required"),
        (["verify", "--samples", "0"], "--samples must be >= 1"),
        (["verify", "--s", "s9"], "--s must be one of ('1', 's1', 's2', 's3')"),
    ])
    def test_refused_before_any_output(self, argv, message):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_packet_validated_for_a_config_built_in_code(self):
        with pytest.raises(ValueError, match="^--packet must be regular or nonregular$"):
            SweepConfig("verify", [3], packet="x").validate()

    def test_sample_class_validated_for_a_config_built_in_code(self):
        # no parser stands between this config and run: validate must catch it
        sweep = SweepConfig("verify", [3], samples=4, sample_class="nearr")
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(ValueError, match="--class"):
            run(sweep, out, err)
        assert out.getvalue() == "" and err.getvalue() == ""

    def test_mode_validated_for_a_config_built_in_code(self):
        sweep = SweepConfig("verfy", [3], samples=2)
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(ValueError, match="mode must be one of"):
            run(sweep, out, err)
        assert out.getvalue() == "" and err.getvalue() == ""

    def test_level_without_regular_packet_rejected(self):
        code, out, err = run_cli(["verify", "--packet", "nonregular", "--level", "5"])
        assert code == 2 and out == ""
        assert err == "error: --level needs --packet regular\n"

    def test_level_checked_at_every_prime_before_output(self, tmp_path):
        # level 3 is regular mod 8 (p = 7) but quadratic mod 6 (p = 5)
        target = tmp_path / "reports.jsonl"
        argv = ["verify", "--packet", "regular", "--primes", "7,5", "--level", "3", "--samples", "2"]
        for extra in ([], ["--out", str(target)]):
            code, out, err = run_cli(argv + extra)
            assert code == 2 and out == ""
            assert err == "error: level 3 mod 6 is not regular\n"
        assert not target.exists()

    def test_trivial_level_rejected(self):
        code, out, err = run_cli(["verify", "--packet", "regular", "--level", "0", "--primes", "5"])
        assert code == 2 and out == ""
        assert err == "error: level 0 mod 6 is not regular\n"

    @pytest.mark.parametrize("near, message", [
        (range(5, 0, -1), "near valuations must stay <= N-3 = 4"),  # descending: max 5
        (range(1, 7, 2), "near valuations must stay <= N-3 = 4"),  # stepped: max 5
        (range(1, 10**18), "near valuations must stay <= N-3 = 4"),  # a walk would not end
        (range(3, 1), "near valuation range must satisfy 1 <= lo <= hi"),  # empty
        (range(2, -1, -1), "near valuation range must satisfy 1 <= lo <= hi"),  # min 0
    ])
    def test_near_range_bounded_by_its_min_and_max(self, near, message):
        sweep = SweepConfig("verify", [3], precision=7, near_valuations=near)
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep.validate()

    def test_a_descending_near_range_is_drawn_in_its_order(self):
        sweep = SweepConfig("falsify", [3], precision=7, samples=6,
                            near_valuations=range(4, 0, -1))
        code, out, _ = run_capture(sweep)
        assert code == 0
        # two records per element
        assert [json.loads(line)["valuation_b"] for line in out.splitlines()][::2] == [
            4, 3, 2, 1, 4, 3
        ]

    @pytest.mark.parametrize("level", [None, 1])
    def test_validate_builds_a_packet_only_for_a_given_level(self, monkeypatch, level):
        # without --level the sweep's q-1 regular packets are built by the sweep, not by validate
        import sl2endo.cli as cli_mod
        from sl2endo.charformulas import PacketSpec

        cli_mod._packets.cache_clear()  # a packet built before is not built again
        calls = []
        build = PacketSpec.regular

        def counting(config, k):
            calls.append((config.p, k))
            return build(config, k)

        monkeypatch.setattr(PacketSpec, "regular", staticmethod(counting))
        sweep = SweepConfig(mode="verify", primes=[101, 1009], packet="regular", level=level)
        sweep.validate()
        assert calls == ([] if level is None else [(101, 1), (1009, 1)])

    def test_main_validates_a_sweep_once(self, monkeypatch):
        calls = []
        validate = SweepConfig.validate

        def counting(sweep):
            calls.append(sweep.mode)
            validate(sweep)

        monkeypatch.setattr(SweepConfig, "validate", counting)
        code, _, _ = run_cli(["verify", "--primes", "3", "--samples", "2"])
        assert code == 0 and calls == ["verify"]

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--primes", "1048583", "--samples", "1"],
         ["table", "--primes", "100000000000000000039"]],
        ids=["verify", "table"],
    )
    def test_prime_from_the_bound_on_rejected_before_any_work(self, monkeypatch, argv):
        # neither the primality test nor a per-prime table may start
        import sl2endo.localfield as localfield

        def refuse(n):
            raise AssertionError(f"primality test ran on {n}")

        monkeypatch.setattr(localfield, "is_odd_prime", refuse)
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == f"error: p must be below 2^20 = 1048576, got {argv[2]}\n"

    @pytest.mark.parametrize("mode", ["verify", "falsify", "properties", "table"])
    def test_repeated_prime_rejected_before_any_output(self, mode):
        code, out, err = run_cli([mode, "--primes", "3,5,3"])
        assert code == 2 and out == ""
        assert err == "error: --primes repeats p=3\n"

    def test_unwritable_out_exits_2(self, tmp_path):
        target = tmp_path / "missing" / "reports.jsonl"
        code, out, err = run_cli(["verify", "--primes", "3", "--out", str(target)])
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()

    def test_run_writes_the_out_file(self, tmp_path):
        # a library caller that sets out gets the file, and the stream it passed stays empty
        target = tmp_path / "reports.jsonl"
        sweep = SweepConfig("verify", [3, 5], samples=4, out=str(target))
        code, out, err = run_capture(sweep)
        assert (code, out) == (0, "")
        unsaved = SweepConfig("verify", [3, 5], samples=4)
        assert (code, target.read_bytes().decode(), err) == run_capture(unsaved)

    def test_leaked_internal_error_exits_2(self, monkeypatch):
        # any exception a sweep leaks exits 2 on one stderr line, never 1 (a bad verdict)
        import sl2endo.cli as cli_mod

        leaked = [
            (PrecisionExhausted("valuation undefined at precision"),
             "error: valuation undefined at precision\n"),
            (ArithmeticError("inexact division"), "error: inexact division\n"),
            (AssertionError(), "error: AssertionError\n"),
            (KeyError("s4"), "error: 's4'\n"),
        ]
        for exc, expected in leaked:
            def fail(packet, s, gamma, exc=exc):
                raise exc

            monkeypatch.setattr(cli_mod, "verify_identity", fail)
            code, out, err = run_cli(["verify", "--primes", "3", "--samples", "2"])
            assert code == 2, exc
            assert out == "" and err == expected

    def test_precision_beyond_int_str_limit_rejected_up_front(self, tmp_path):
        target = tmp_path / "reports.jsonl"
        code, out, err = run_cli(["verify", "--precision", "100000", "--out", str(target)])
        assert code == 2
        assert out == "" and not target.exists()
        assert f"N <= {largest_printable_precision(3)}" in err and err.count("\n") == 1

    def test_precision_bound_is_exact(self):
        limit = largest_printable_precision(3)
        code, _, _ = run_cli(["verify", "--primes", "3", "--precision", str(limit), "--samples", "2"])
        assert code == 0
        code, _, _ = run_cli(["verify", "--primes", "3", "--precision", str(limit + 1)])
        assert code == 2

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_precision_bounded_with_the_int_str_limit_off(self):
        # limit 0 lets ints of any size print; N is then bounded by CPython's default
        # 4,300 digits, or a check at N = 10^9 would run for hours
        sweep = SweepConfig("verify", [3], precision=10**9, samples=1)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ValueError, match=r"so N <= 9012$"):
                sweep.validate()
            assert largest_printable_precision(3) == 9012
        finally:
            sys.set_int_max_str_digits(saved)

    def test_precision_bounded_on_a_python_without_the_limit(self, monkeypatch):
        # CPython before 3.10.7 has no get_int_max_str_digits: N is then bounded
        # by the default 4,300 digits all the same
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        sweep = SweepConfig("verify", [3], precision=10**9, samples=1)
        with pytest.raises(ValueError, match=r"4300-digit int-to-str limit, so N <= 9012$"):
            sweep.validate()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--precision", "8"],
            ["table", "--samples", "4"],
            ["table", "--seed", "1"],
            ["table", "--format", "jsonl"],
            ["table", "--near-valuations", "1:3"],
            ["properties", "--near-valuations", "1:1"],
            ["properties", "--format", "csv"],
        ],
        ids=lambda argv: "-".join(arg.strip("-") for arg in argv[:2]),
    )
    def test_undeclared_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2

    def test_unknown_mode_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 2


class TestOptionSurface:
    def test_each_subcommand_declares_only_the_flags_it_reads(self):
        [modes] = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        options = {
            mode: sorted(
                opt for action in sub._actions for opt in action.option_strings
                if not isinstance(action, argparse._HelpAction)
            )
            for mode, sub in modes.choices.items()
        }
        sampling = ["--format", "--out", "--precision", "--primes", "--samples", "--seed"]
        assert options == {
            "verify": sorted(sampling + ["--near-valuations", "--packet", "--level",
                                         "--s", "--class"]),
            "falsify": sorted(sampling + ["--near-valuations"]),
            "properties": sampling,
            "table": ["--level", "--out", "--primes"],
        }
        assert sum(map(len, options.values())) == 27

    @pytest.mark.parametrize("mode", ["verify", "falsify", "properties", "table"])
    def test_flag_defaults_are_the_sweep_config_defaults(self, mode):
        args = build_parser().parse_args([mode, "--primes", "3"])
        assert sweep_from_args(args) == SweepConfig(mode, [3])


class TestFormats:
    def test_csv_header_and_rows(self):
        sweep = SweepConfig(mode="verify", primes=[3], samples=4, seed=0, fmt="csv")
        code, out, _ = run_capture(sweep)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(REPORT_FIELDS)
        assert len(lines) == 5

    def test_table_format(self):
        sweep = SweepConfig(mode="verify", primes=[3], samples=3, seed=0, fmt="table")
        code, out, _ = run_capture(sweep)
        assert code == 0
        assert "verdict" in out.splitlines()[0]
        assert "equal" in out

    @staticmethod
    def table_cells(out):
        """The rows of a table report as {field: cell}, cut at the header's columns."""
        header, _, *rows = out.splitlines()
        starts = [m.start() for m in re.finditer(r"\S+", header)]
        assert header.split() == list(REPORT_FIELDS)
        cuts = list(zip(starts, starts[1:] + [None]))
        return [
            {name: row[i:j].strip() for name, (i, j) in zip(REPORT_FIELDS, cuts)}
            for row in rows
        ]

    def test_table_null_cells_are_blank(self):
        # the far row has no endoscopic side; the near row is undetermined
        code, out, _ = run_cli(
            ["verify", "--s", "s2", "--primes", "3", "--samples", "2", "--format", "table"]
        )
        assert code == 0
        assert "None" not in out
        far, near = self.table_cells(out)
        assert (far["classification"], far["lhs"], far["rhs"]) == ("far", "0", "")
        assert (near["classification"], near["lhs"], near["rhs"]) == ("near", "", "")
        assert near["a"] and near["b"] and near["valuation_b"] == "1"

    def test_sweep_from_args_roundtrip(self):
        args = build_parser().parse_args(
            ["verify", "--primes", "3,7", "--samples", "9", "--near-valuations", "2:3"]
        )
        sweep = sweep_from_args(args)
        assert sweep.primes == [3, 7]
        assert sweep.samples == 9
        assert sweep.near_valuations == range(2, 4)


class TestVerdictTally:
    """The Emitter counts the verdicts of the records it writes, and the summary
    on stderr is read from that count."""

    @staticmethod
    def stream_verdicts(fmt, out):
        if fmt == "jsonl":
            return Counter(json.loads(line)["verdict"] for line in out.splitlines())
        rows = csv.DictReader(io.StringIO(out)) if fmt == "csv" else TestFormats.table_cells(out)
        return Counter(row["verdict"] for row in rows)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv", "table"])
    @pytest.mark.parametrize("mode", ["verify", "falsify"])
    def test_tally_is_the_written_stream(self, monkeypatch, mode, fmt):
        import sl2endo.cli as cli_mod

        emitters = []

        class Recording(cli_mod.Emitter):
            def __init__(self, *args):
                super().__init__(*args)
                emitters.append(self)

        monkeypatch.setattr(cli_mod, "Emitter", Recording)
        # verify at s2: far records with no comparison and undetermined near ones
        flags = ["--s", "s2"] if mode == "verify" else []
        code, out, err = run_cli(
            [mode, *flags, "--primes", "3,5", "--samples", "6", "--seed", "11", "--format", fmt]
        )
        assert code == 0
        [emitter] = emitters
        verdicts = self.stream_verdicts(fmt, out)
        assert emitter.verdicts == verdicts
        if mode == "verify":
            skipped = sum(n for v, n in verdicts.items() if v.startswith("skipped"))
            assert len(verdicts) == 2 and skipped == 12
            assert err.splitlines() == [
                f"warning: {skipped} check(s) skipped",
                f"verify: {verdicts['equal']} equal, 0 unequal, {skipped} skipped",
            ]
        else:
            assert verdicts == {"unequal": 24}
            assert err.splitlines() == [
                "falsify: 24 checks, 24 unequal as expected, 0 unexpectedly equal",
            ]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_the_sweep_quietly():
    # a reader that stops after one line, as `| head -1` does, ends the process
    # by SIGPIPE (a shell reports 141) with nothing on stderr, as it ends cat;
    # the 170 KB stream overfills the pipe buffer, so the sweep is still writing
    env = dict(os.environ, PYTHONPATH=str(Path(sl2endo.__file__).resolve().parents[1]))
    argv = ["verify", "--primes", "3,5,7", "--samples", "200"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "sl2endo.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b'{"N": 8, ')
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["verify", "--primes", "3,5", "--samples", "4"],
    ["falsify", "--primes", "3,5", "--samples", "4"],
    ["properties", "--primes", "3,5", "--samples", "4"],
    ["table", "--primes", "3,5"],
], ids=lambda argv: argv[0])
def test_every_mode_runs_on_the_standard_library_alone(argv):
    # -S leaves site-packages off the path, so an import of an installed
    # package (pytest and hypothesis among them) fails the run
    env = dict(os.environ, PYTHONPATH=str(Path(sl2endo.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "sl2endo.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_the_parser_loads_no_module_that_verify_and_falsify_do_not_run():
    # dataclasses (with inspect, ast and dis), csv, signal and the property
    # checks cost start-up time in every process; csv, signal and checks load
    # in the modes that use them, which the csv, SIGPIPE and properties tests run
    env = dict(os.environ, PYTHONPATH=str(Path(sl2endo.__file__).resolve().parents[1]))
    probe = ("import sys, sl2endo.cli; sl2endo.cli.build_parser(); print(sorted("
             "{'dataclasses', 'inspect', 'csv', 'signal', 'sl2endo.checks'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_every_traced_method_is_in_its_class_dict():
    # bench/spans.py patches each METHODS attribute through its class's
    # __dict__; renaming or deleting one must fail here, not only in a traced
    # benchmark run.  spans.py imports only the standard library.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.METHODS
    for span, (layer, cls_name, attrs) in spans.METHODS.items():
        owner = getattr(importlib.import_module(f"sl2endo.{layer}"), cls_name)
        assert [attr for attr in attrs if attr not in vars(owner)] == [], span
