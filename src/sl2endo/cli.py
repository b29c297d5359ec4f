"""Batch sweep driver with deterministic sampling and machine-readable reports.

Subcommands:

* ``verify``     check the endoscopic identity over a sweep of primes,
                 characters, and sampled torus elements (exit 0 iff every
                 non-skipped check is equal),
* ``falsify``    run the ADSS-15.2 clash harness (exit 0 iff every check
                 is unequal, as expected),
* ``properties`` run the algebraic property battery,
* ``table``      print the residue character tables and structure tables.

Identical (config, seed) pairs produce byte-identical report streams.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import signal
import sys
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

from . import checks
from .charformulas import PacketSpec, psi0_on_residue_point
from .endoscopy import REPORT_FIELDS, VerificationReport, falsify_adss152, verify_identity
from .localfield import FieldConfig
from .packets import KLEIN4, Z2, virtual_coeffs
from .residue import CharacterLevel, norm_one_group, quadratic_level, regular_levels
from .torus import Classification, TorusElement, sample_regular

# The classes of the sampled elements in verify (--class).
SAMPLE_CLASSES = ("near", "far", "both")
# The modes that draw near elements with v(b) in near_valuations.
NEAR_MODES = ("verify", "falsify")
# The report formats of each mode; ``table`` prints fixed text in none of them.
FORMATS = {
    "verify": ("jsonl", "csv", "table"),
    "falsify": ("jsonl", "csv", "table"),
    "properties": ("jsonl", "table"),
}


@dataclass
class SweepConfig:
    mode: str
    primes: list[int]
    precision: int = FieldConfig.N
    samples: int = 20
    seed: int = 0
    packet: str = "nonregular"
    level: "int | None" = None
    s: str = "s1"
    sample_class: str = "both"
    near_valuations: range = range(1, 4)
    fmt: str = "jsonl"
    out: "str | None" = None

    def validate(self) -> None:
        if self.mode not in RUNNERS:
            raise ValueError(f"mode must be one of {tuple(RUNNERS)}, got {self.mode!r}")
        if not self.primes:
            raise ValueError("at least one prime is required")
        repeated = [p for p, n in Counter(self.primes).items() if n > 1]
        if repeated:
            raise ValueError(f"--primes repeats p={repeated[0]}")
        if self.samples < 1:
            raise ValueError("--samples must be >= 1")
        if self.sample_class not in SAMPLE_CLASSES:
            raise ValueError(f"--class must be one of {SAMPLE_CLASSES}")
        if self.mode in FORMATS and self.fmt not in FORMATS[self.mode]:
            raise ValueError(f"--format must be one of {FORMATS[self.mode]} for {self.mode}")
        if self.mode in NEAR_MODES:
            near = self.near_valuations
            # a range's least and greatest members are its ends: read them, not walk it
            if not near or min(near[0], near[-1]) < 1:
                raise ValueError("near valuation range must satisfy 1 <= lo <= hi")
            # a far-only verify sweep draws no near element, so its precision bounds none
            draws_near = self.mode == "falsify" or self.sample_class != "far"
            if draws_near and max(near[0], near[-1]) > self.precision - 3:
                raise ValueError(
                    f"near valuations must stay <= N-3 = {self.precision - 3}"
                )
        if self.packet not in ("regular", "nonregular"):
            raise ValueError("--packet must be regular or nonregular")
        if self.mode == "verify" and self.packet == "nonregular" and self.level is not None:
            raise ValueError("--level needs --packet regular")
        if self.s not in KLEIN4.elements:
            raise ValueError(f"--s must be one of {KLEIN4.elements}")
        if self.packet == "regular" and self.s not in Z2.elements:
            raise ValueError("the regular packet only has s in {1, s1}")
        if self.packet == "regular" and self.s == "1":
            raise ValueError(
                "no stable comparison is defined for the regular packet; use --s s1"
            )
        # with the limit off (0) or absent, N is bounded by CPython's default limit
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or getattr(
            sys.int_info, "default_max_str_digits", 4300)
        for p in self.primes:
            config = FieldConfig(p, self.precision)  # fail fast on bad primes/precision
            if self.precision > _max_precision(p, digits):
                raise ValueError(
                    f"--precision {self.precision} is too large for p={p}: residues mod"
                    f" p^N must print within Python's {digits}-digit int-to-str limit,"
                    f" so N <= {_max_precision(p, digits)}"
                )
            if self.mode == "verify" and self.level is not None:
                _packets_for(config, self)  # not regular at p: fail before any output


@functools.lru_cache(maxsize=None)
def _max_precision(p: int, digits: int) -> int:
    """Largest N with p^N <= 10^digits.

    Report records print residues mod p^N, which then have at most
    ``digits`` digits.
    """
    n, power, ceiling = 0, p, 10**digits
    while power <= ceiling:
        n, power = n + 1, power * p
    return n


def _draws(
    config: FieldConfig, samples: int, sample_class: str, near_vals, seed_of
) -> Iterator[TorusElement]:
    """The one element source of every sweep, one element per draw: draw i is
    near under "near", and under "both" when i is odd; near draws cycle through
    near_vals; draw i keys the sampler with seed_of(class, v(b), i).  A new
    variant, class or source goes here."""
    near_i = 0
    for i in range(samples):
        if sample_class == "near" or (sample_class == "both" and i % 2 == 1):
            cls, v = Classification.NEAR, near_vals[near_i % len(near_vals)]
            near_i += 1
        else:
            cls, v = Classification.FAR, 0
        yield sample_regular(config, cls, v, seed_of(cls, v, i))


def _packets_for(config: FieldConfig, sweep: SweepConfig) -> list[PacketSpec]:
    if sweep.packet == "nonregular":
        return [PacketSpec.nonregular(config)]
    if sweep.level is not None:
        return [PacketSpec.regular(config, sweep.level)]
    return [PacketSpec(level) for level in regular_levels(config)]


class Emitter:
    """The one writer of a check stream: serializes reports in one of the
    supported formats and counts the verdicts of the records it writes."""

    def __init__(self, fmt: str, stream):
        self.fmt = fmt
        self.stream = stream
        self.verdicts: Counter[str] = Counter()  # verdict -> records written
        self.rows: list[list[str]] = []  # table cells, padded at close
        if fmt == "csv":
            self.writer = csv.writer(stream, lineterminator="\n")
            self.writer.writerow(REPORT_FIELDS)

    def emit(self, report: VerificationReport) -> None:
        self.verdicts[report.verdict] += 1
        if self.fmt == "jsonl":
            self.stream.write(report.to_json() + "\n")
            return
        # the one cell rule of csv and table: a field's text, null as an empty cell
        cells = ["" if (v := getattr(report, name)) is None else str(v) for name in REPORT_FIELDS]
        if self.fmt == "csv":
            self.writer.writerow(cells)
        else:
            self.rows.append(cells)

    def close(self) -> None:
        if self.fmt != "table" or not self.rows:
            return
        headers = list(REPORT_FIELDS)
        widths = [
            max(len(h), *(len(row[i]) for row in self.rows))
            for i, h in enumerate(headers)
        ]
        line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
        self.stream.write(line + "\n")
        self.stream.write("-" * len(line) + "\n")
        for row in self.rows:
            self.stream.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")


def run_verify(sweep: SweepConfig, out, err) -> int:
    emitter = Emitter(sweep.fmt, out)
    for p in sweep.primes:
        config = FieldConfig(p, sweep.precision)
        for packet in _packets_for(config, sweep):
            key = f"{sweep.seed}|{p}|{packet.kind}|{packet.level.k}|{sweep.s}"
            draws = _draws(config, sweep.samples, sweep.sample_class, sweep.near_valuations,
                           lambda cls, v, i: f"{key}|{cls.value}|{v}|{i}")
            for gamma in draws:
                emitter.emit(verify_identity(packet, sweep.s, gamma))
    emitter.close()
    verdicts = emitter.verdicts
    n_equal = verdicts["equal"]
    n_skipped = sum(n for verdict, n in verdicts.items() if verdict.startswith("skipped"))
    n_unequal = verdicts.total() - n_equal - n_skipped
    if n_skipped:
        err.write(f"warning: {n_skipped} check(s) skipped\n")
    err.write(f"verify: {n_equal} equal, {n_unequal} unequal, {n_skipped} skipped\n")
    return 0 if n_unequal == 0 else 1


def run_falsify(sweep: SweepConfig, out, err) -> int:
    emitter = Emitter(sweep.fmt, out)
    for p in sweep.primes:
        config = FieldConfig(p, sweep.precision)
        packet = PacketSpec.nonregular(config)
        draws = _draws(config, sweep.samples, "near", sweep.near_valuations,
                       lambda cls, v, i: f"{sweep.seed}|{p}|falsify|{v}|{i}")
        for gamma in draws:
            for report in falsify_adss152(packet, gamma):
                emitter.emit(report)
    emitter.close()
    n_total = emitter.verdicts.total()
    n_unexpected = n_total - emitter.verdicts["unequal"]
    err.write(
        f"falsify: {n_total} checks, {n_total - n_unexpected} unequal as expected,"
        f" {n_unexpected} unexpectedly equal\n"
    )
    return 0 if n_unexpected == 0 else 1


def _property_battery(config: FieldConfig, sweep: SweepConfig) -> list[tuple[str, bool, str]]:
    """Per-prime algebraic identity checks; each entry is (name, ok, detail)."""
    near_vals = range(1, min(3, (config.N - 1) // 2) + 1)  # v(D_G) = 2v < N
    key = f"{sweep.seed}|{config.p}|properties"
    gammas = list(_draws(config, max(10, sweep.samples), "both", near_vals,
                         lambda cls, v, i: f"{key}|{cls.value}|{v}|{i}"))
    return [
        (name, check(config, gammas), detail(gammas))
        for name, check, detail in checks.PROPERTIES
    ]


def run_properties(sweep: SweepConfig, out, err) -> int:
    failures = 0
    for p in sweep.primes:
        config = FieldConfig(p, sweep.precision)
        for name, ok, detail in _property_battery(config, sweep):
            record = {"p": p, "property": name, "ok": ok, "detail": detail}
            if sweep.fmt == "jsonl":
                out.write(json.dumps(record, sort_keys=True) + "\n")
            else:
                status = "PASS" if ok else "FAIL"
                out.write(f"{status}  p={p:<3} {name} ({detail})\n")
            if not ok:
                failures += 1
    err.write(f"properties: {failures} failure(s)\n")
    return 0 if failures == 0 else 1


def run_table(sweep: SweepConfig, out, err) -> int:
    for p in sweep.primes:
        config = FieldConfig(p, sweep.precision)
        group = norm_one_group(config)
        lv = (
            quadratic_level(config)
            if sweep.level is None
            else CharacterLevel(sweep.level, config.q + 1)
        )
        gen_a, gen_b = group.generator
        out.write(
            f"p={p}  eps={config.eps}  norm-one group of order {group.order},"
            f" generator ({gen_a},{gen_b})\n"
        )
        out.write(f"character level shown: k={lv.k} mod {lv.modulus}\n")
        out.write("  point      dlog  psi0  chi_k\n")
        for pt in sorted(group.points):
            a, b = pt
            val = group.character_value(lv, pt)
            out.write(
                f"  ({a:>2},{b:>2})   {group.dlog(pt):>3}"
                f"   {psi0_on_residue_point(config, pt):>3}   {val}\n"
            )
        out.write("\n")
    out.write("Klein-four character table (rows rho1..rho4):\n")
    out.write("        " + "  ".join(f"{e:>4}" for e in KLEIN4.elements) + "\n")
    for j, row in enumerate(KLEIN4.table, 1):
        out.write(f"  rho{j}  " + "  ".join(f"{v:>4}" for v in row) + "\n")
    out.write("virtual-character sign schedules:\n")
    for s in KLEIN4.elements:
        out.write(f"  s={s:<3} -> {virtual_coeffs(KLEIN4, s)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2endo",
        description=(
            "Exact verification of the endoscopic character identities for the"
            " depth-zero supercuspidal packets of SL(2) over Q_p."
        ),
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    # every default but that of --primes is the SweepConfig field's (a class attribute)
    d = SweepConfig

    def sampling_flags(p, mode):
        p.add_argument("--primes", default="3,5,7", help="comma-separated odd primes")
        p.add_argument("--precision", type=int, default=d.precision, help="p-adic digits N (>= 4)")
        p.add_argument("--samples", type=int, default=d.samples, help="samples per (prime, level)")
        p.add_argument("--seed", type=int, default=d.seed, help="sweep seed")
        p.add_argument("--format", dest="fmt", choices=FORMATS[mode], default=d.fmt)
        p.add_argument("--out", default=d.out, help="write reports to this file")
        if mode in NEAR_MODES:
            p.add_argument(
                "--near-valuations",
                default=f"{d.near_valuations[0]}:{d.near_valuations[-1]}",
                help="lo:hi range of v(b) for near samples",
            )

    pv = sub.add_parser("verify", help="check the endoscopic identities")
    sampling_flags(pv, "verify")
    pv.add_argument("--packet", choices=("regular", "nonregular"), default=d.packet)
    pv.add_argument("--level", type=int, default=d.level, help="specific regular level k")
    pv.add_argument("--s", default=d.s, help="component-group element (1, s1, s2, s3)")
    pv.add_argument(
        "--class",
        dest="sample_class",
        choices=SAMPLE_CLASSES,
        default=d.sample_class,
    )

    pf = sub.add_parser("falsify", help="exhibit the ADSS-15.2 clash")
    sampling_flags(pf, "falsify")

    pp = sub.add_parser("properties", help="run the algebraic property battery")
    sampling_flags(pp, "properties")

    pt = sub.add_parser("table", help="print residue character and structure tables")
    pt.add_argument("--primes", default="3,5,7", help="comma-separated odd primes")
    pt.add_argument("--level", type=int, default=d.level, help="character level to tabulate")
    pt.add_argument("--out", default=d.out, help="write the tables to this file")

    return parser


def sweep_from_args(args: argparse.Namespace) -> SweepConfig:
    """The SweepConfig of parsed arguments; a flag the mode lacks keeps its default."""
    values = dict(vars(args))
    primes = str(values["primes"])
    try:
        values["primes"] = [int(tok) for tok in primes.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--primes must be comma-separated integers, got {primes!r}") from None
    if "near_valuations" in values:
        text = str(values["near_valuations"])
        lo, _, hi = text.partition(":")
        try:
            values["near_valuations"] = range(int(lo), int(hi or lo) + 1)
        except ValueError:
            raise ValueError(f"--near-valuations must be lo or lo:hi, got {text!r}") from None
    return SweepConfig(**values)


# The runner of each mode.
RUNNERS = {
    "verify": run_verify,
    "falsify": run_falsify,
    "properties": run_properties,
    "table": run_table,
}


def run(sweep: SweepConfig, out, err) -> int:
    """Validate, then run one sweep into the file sweep.out, or else out; returns the exit code."""
    sweep.validate()
    runner = RUNNERS[sweep.mode]
    if not sweep.out:
        return runner(sweep, out, err)
    with open(sweep.out, "w", encoding="utf-8", newline="") as stream:
        return runner(sweep, stream, err)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(sweep_from_args(args), sys.stdout, sys.stderr)
    except Exception as exc:
        # usage, I/O and any leaked internal error exit 2; 1 means a bad verdict
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def console_main() -> None:
    if hasattr(signal, "SIGPIPE"):
        # a reader that closes stdout early ends the process quietly, as it ends cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
