"""One benchmark run in a fresh interpreter: set-up, then a closed-loop sweep.

``bench/run.py`` starts this file as ``python3 bench/sweep.py '<json>'`` and
reads one JSON object from its last stdout line.  The sweep is a closed
loop with a single client: the workload is cut into chunks, each chunk is
one in-process ``sl2endo.cli.run`` call with ``--format jsonl``, and the
next chunk starts only after the previous one returned.  Every record goes
through ``ReportStream``, which timestamps it, hashes it and checks it.

Phases:

* ``setup``: import the package and warm its per-prime caches, and report
  how long that took.  Interpreter start-up, the same for every version of
  the package, is left out; the stdlib modules this harness imports first
  (json, fractions, statistics, ...) are already loaded when it starts.
* ``sweep``: set up, then run chunks for the given seconds (and at least
  ``min_elements``); report throughput, per-element latency and peak RSS.
* ``trace``: set up, then alternate untraced and traced passes over the
  first ``trace_chunks`` chunks for the given seconds; report per-layer
  counts and self times (medians over passes) and the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import json
import math
import re
import resource
import statistics
import sys
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPAN_CAP = 20_000
WINDOWS = 10  # checks_per_s is the median rate over this many windows of a sweep
# The reference kernel runs after every chunk for this share of the chunk's
# time, and for SETUP_CALIBRATION_S before and after set-up.  A chunk's speed
# factor pools the kernel runs of the chunks within SMOOTH_S of it.
REF_SHARE = 0.08
SETUP_CALIBRATION_S = 0.05
SMOOTH_S = 0.1
# The kernel's typical time on the host the bounds were set on (a 2-vCPU
# Xeon VM at 2.1 GHz running Python 3.11); timings are scaled to it.
REF_NOMINAL_S = 0.0022
# Latency slots allocated before a sweep, so that peak RSS does not grow with
# the number of elements a faster program gets through.
LATENCY_SLOTS = 1 << 19

# The 13 report fields of the README's schema, checked independently of the
# package's own REPORT_FIELDS.
REPORT_FIELDS = frozenset((
    "p", "N", "eps", "packet", "level", "s",
    "a", "b", "valuation_b", "classification", "lhs", "rhs", "verdict",
))

SUMMARY = {
    "verify": re.compile(r"^verify: (\d+) equal, (\d+) unequal, (\d+) skipped$", re.M),
    "falsify": re.compile(
        r"^falsify: (\d+) checks, (\d+) unequal as expected, (\d+) unexpectedly equal$",
        re.M,
    ),
}


@dataclass(frozen=True)
class Workload:
    mode: str  # "verify" or "falsify"
    flags: tuple[str, ...]  # CLI flags besides --primes, --samples, --seed and --format
    primes: tuple[int, ...]
    samples: int  # --samples of one chunk
    trace_chunks: int  # chunks in one trace pass, and in the digested prefix
    min_elements: int = 1000  # so that p99 has at least ten samples beyond it

    @property
    def records_per_element(self) -> int:
        return 2 if self.mode == "falsify" else 1

    @property
    def expected_verdict(self) -> str:
        return "unequal" if self.mode == "falsify" else "equal"

    @property
    def elements_per_chunk(self) -> int:
        # one packet per prime: the nonregular packet, or the fixed --level
        return len(self.primes) * self.samples

    @property
    def min_chunks(self) -> int:
        return max(self.trace_chunks, math.ceil(self.min_elements / self.elements_per_chunk))

    def argv(self, seed: int, chunk: int) -> list[str]:
        return [
            self.mode, *self.flags,
            "--primes", ",".join(map(str, self.primes)),
            "--samples", str(self.samples),
            "--seed", str(seed * 100_000 + chunk),
            "--format", "jsonl",
        ]


SMALL_PRIMES = (3, 5, 7, 11, 13)
WORKLOADS = {
    # 300-element chunks: the first element after a chunk boundary also
    # carries the per-call set-up, so boundaries stay well below 1 % of
    # elements and out of p99.
    "nonregular-small": Workload(
        "verify", ("--packet", "nonregular", "--s", "s1", "--class", "both"),
        SMALL_PRIMES, samples=60, trace_chunks=4,
    ),
    # Near elements cost a tenth of far ones here, and the cheapest fifth of
    # far elements (root-of-unity exponents in the middle of 0..1009) forms
    # a plateau.  Seven-sample chunks (four far, three near with v(b) = 1, 2,
    # 3) put the median element on that plateau; with half of each class it
    # would sit at the plateau's edge and move with the sampled exponents.
    "regular-p1009": Workload(
        "verify", ("--packet", "regular", "--level", "1", "--class", "both"),
        (1009,), samples=7, trace_chunks=10,
    ),
    "falsify-small": Workload("falsify", (), SMALL_PRIMES, samples=60, trace_chunks=4),
}


def reference_kernel() -> None:
    """A fixed stdlib-only workload: Fraction arithmetic, str and json, as in sl2endo.

    On a shared host the interpreter's speed drifts by a common factor (by
    +-30 % within minutes on the host the bounds were set on).  Timing this
    kernel next to the sweep measures that factor, and every reported time
    is scaled by it to the kernel's nominal speed.  The kernel calls no
    sl2endo code, so a change to the package moves only the sweep's side.
    """
    total = Fraction(0)
    texts = {}
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1) * 3
        texts[i] = str(total)
    json.dumps(texts)


def calibrate(budget_s: float) -> tuple[float, int]:
    """Run the reference kernel at least once and for about budget_s; (seconds, calls).

    The cyclic collector is paused meanwhile, so that a collection of the
    sweep's objects does not count as host slowness.
    """
    gc.disable()
    try:
        start = perf_counter()
        calls = 0
        while True:
            reference_kernel()
            calls += 1
            elapsed = perf_counter() - start
            if elapsed >= budget_s:
                return elapsed, calls
    finally:
        gc.enable()


def speed_factor(ref_seconds: float, ref_calls: int) -> float:
    """Host slowness against the nominal kernel time: above 1 means slower than nominal."""
    return ref_seconds / ref_calls / REF_NOMINAL_S


class ReportStream:
    """The text stream handed to ``cli.run``: timestamps, hashes and checks records.

    Time spent in ``write`` and in the sweep's own bookkeeping is added to
    ``overhead`` and left out of ``now()``, so the gate's JSON parsing never
    counts as the program's time.  An element ends with its last record;
    its latency runs from the previous element's end to that write.
    """

    def __init__(self, expected_verdict: str, records_per_element: int, slots: int = 0):
        self.expected = expected_verdict
        self.per_element = records_per_element
        self.overhead = 0.0
        self.mark = 0.0
        self._latencies = array("f", [0.0]) * slots
        self.records = self.elements = self.bad_elements = self.bytes = 0
        self.sha = hashlib.sha256()
        self._partial = ""
        self._in_element = 0
        self._element_bad = False

    def now(self) -> float:
        return perf_counter() - self.overhead

    def write(self, text: str) -> int:
        entered = perf_counter()
        now = entered - self.overhead
        data = text.encode()
        self.bytes += len(data)
        self.sha.update(data)
        lines = (self._partial + text).split("\n")
        self._partial = lines.pop()
        for line in lines:
            self._check(line, now)
        self.overhead += perf_counter() - entered
        return len(text)

    def _check(self, line: str, now: float) -> None:
        try:
            record = json.loads(line)
            ok = (
                isinstance(record, dict)
                and record.keys() == REPORT_FIELDS
                and record["verdict"] == self.expected
            )
        except ValueError:
            ok = False
        self.records += 1
        self._element_bad = self._element_bad or not ok
        self._in_element += 1
        if self._in_element == self.per_element:
            if self.elements < len(self._latencies):
                self._latencies[self.elements] = now - self.mark
            else:
                self._latencies.append(now - self.mark)
            self.mark = now
            self.elements += 1
            self.bad_elements += self._element_bad
            self._in_element, self._element_bad = 0, False

    @property
    def latencies(self) -> array:
        """Seconds per element, in order."""
        return self._latencies[:self.elements]

    def end_chunk(self) -> None:
        """Drop a partly written element; it then counts as missing."""
        self._partial = ""
        self._in_element, self._element_bad = 0, False


def chunk_failures(workload: Workload, elements: int, bad: int,
                   exit_code: "int | None", summary: str) -> int:
    """Failed elements of one chunk.

    Unexpected verdicts and planned elements without records count one
    each; a nonzero (or missing) exit code, or a stderr summary line that
    disagrees with the plan, fails at least one element.
    """
    planned = workload.elements_per_chunk
    failed = bad + abs(planned - elements)
    checks = planned * workload.records_per_element
    expected = (checks, 0, 0) if workload.mode == "verify" else (checks, checks, 0)
    match = SUMMARY[workload.mode].search(summary)
    if exit_code != 0 or match is None or tuple(map(int, match.groups())) != expected:
        failed = max(failed, 1)
    return min(failed, planned)


def import_package():
    """Import sl2endo from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sl2endo

    if Path(sl2endo.__file__).resolve().parent != SRC / "sl2endo":
        raise ImportError(f"sl2endo imported from {sl2endo.__file__}, not from {SRC}")
    from sl2endo import cli

    return cli


def set_up(workload: Workload):
    """Import the package and warm its per-prime caches.

    Returns the cli module, a function giving the parsed SweepConfig of a
    (seed, chunk), and the build time of each per-prime cache.
    """
    cli = import_package()
    from sl2endo.cyclotomic import cyclotomic_poly
    from sl2endo.localfield import FieldConfig
    from sl2endo.residue import norm_one_group

    parser = cli.build_parser()
    builds = {"residue.norm_one_group.build_s": 0.0, "cyclotomic.cyclotomic_poly.build_s": 0.0}
    precision = parser.parse_args(workload.argv(0, 0)).precision
    for p in workload.primes:
        config = FieldConfig(p, precision)
        start = perf_counter()
        norm_one_group(config)
        built = perf_counter()
        cyclotomic_poly(config.q + 1)
        builds["residue.norm_one_group.build_s"] += built - start
        builds["cyclotomic.cyclotomic_poly.build_s"] += perf_counter() - built

    def sweep_config(seed: int, chunk: int):
        return cli.sweep_from_args(parser.parse_args(workload.argv(seed, chunk)))

    return cli, sweep_config, builds


def run_chunks(cli, workload: Workload, stream: ReportStream, configs, keep_going) -> dict:
    """Run chunks through ``cli.run`` while ``keep_going(chunks_done)`` holds."""
    attempted = failed = chunks = 0
    digest = None
    timeline = []  # per chunk: records, elements, program seconds, kernel seconds, kernel calls
    start = stream.mark = stream.now()
    for config in configs:
        if not keep_going(chunks):
            break
        elements, bad = stream.elements, stream.bad_elements
        records = stream.records
        err = io.StringIO()
        began = stream.now()
        try:
            exit_code = cli.run(config, stream, err)
        except Exception:  # a leaked internal error fails the chunk and ends the run
            traceback.print_exc()
            exit_code = None
        entered = perf_counter()
        seconds = entered - stream.overhead - began
        timeline.append((stream.records - records, stream.elements - elements, seconds,
                         *calibrate(REF_SHARE * seconds)))
        stream.end_chunk()
        attempted += workload.elements_per_chunk
        failed += chunk_failures(workload, stream.elements - elements,
                                 stream.bad_elements - bad, exit_code, err.getvalue())
        chunks += 1
        if chunks == workload.trace_chunks:
            digest = stream.sha.hexdigest()
        stream.overhead += perf_counter() - entered
        if exit_code is None:
            break
    ref_seconds = sum(chunk[3] for chunk in timeline)
    ref_calls = sum(chunk[4] for chunk in timeline)
    return {
        "attempted": attempted,
        "failed": failed,
        "seconds": stream.now() - start,
        "factor": speed_factor(ref_seconds, ref_calls) if ref_calls else 1.0,
        "stream_sha256": digest,
        "timeline": timeline,
    }


def _lazy_configs(sweep_config, seed, stream):
    chunk = 0
    while True:
        entered = perf_counter()
        config = sweep_config(seed, chunk)
        stream.overhead += perf_counter() - entered
        yield config
        chunk += 1


def sweep(workload: Workload, cli, sweep_config, seed: int, seconds: float) -> dict:
    stream = ReportStream(workload.expected_verdict, workload.records_per_element,
                          LATENCY_SLOTS)
    until = perf_counter() + seconds
    result = run_chunks(
        cli, workload, stream, _lazy_configs(sweep_config, seed, stream),
        lambda done: done < workload.min_chunks or perf_counter() < until,
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timeline = result.pop("timeline")
    factors = chunk_factors(timeline)
    latencies = stream.latencies
    elements = iter(latencies)
    scaled_ms = sorted(
        latency * 1000 / factor
        for (_, count, *_), factor in zip(timeline, factors)
        for latency in itertools.islice(elements, count)
    )
    raw_ms = sorted(latency * 1000 for latency in latencies)
    scaled = [(records, s / factor) for (records, _, s, *_), factor in zip(timeline, factors)]
    raw = [(records, s) for records, _, s, *_ in timeline]
    rates = window_rates(scaled, seconds / WINDOWS)
    result.update(
        records=stream.records,
        elements=stream.elements,
        windows=len(rates),
        factors=statistics.quantiles(factors, n=4) if len(factors) > 1 else factors,
        checks_per_s=statistics.median(rates),
        element_ms_p50=statistics.median(scaled_ms),
        element_ms_p99=statistics.quantiles(scaled_ms, n=100)[98],
        raw_checks_per_s=statistics.median(window_rates(raw, seconds / WINDOWS)),
        raw_element_ms_p50=statistics.median(raw_ms),
        raw_element_ms_p99=statistics.quantiles(raw_ms, n=100)[98],
        peak_rss_mib=peak_rss_mib,
    )
    return result


def chunk_factors(timeline) -> list[float]:
    """Each chunk's speed factor, pooled over the chunks within about SMOOTH_S of it."""
    mean_s = sum(chunk[2] for chunk in timeline) / len(timeline)
    reach = round(SMOOTH_S / mean_s) if mean_s else 0
    ref_s = list(itertools.accumulate((chunk[3] for chunk in timeline), initial=0.0))
    calls = list(itertools.accumulate((chunk[4] for chunk in timeline), initial=0))
    factors = []
    for i in range(len(timeline)):
        lo, hi = max(0, i - reach), min(len(timeline), i + reach + 1)
        factors.append(speed_factor(ref_s[hi] - ref_s[lo], calls[hi] - calls[lo]))
    return factors


def window_rates(chunks, window_s: float) -> list[float]:
    """Records per second over consecutive windows of whole (records, seconds) chunks.

    Each window lasts at least window_s; a short tail joins the last window.
    """
    found = []
    records = seconds = 0
    for chunk_records, chunk_seconds in chunks:
        records += chunk_records
        seconds += chunk_seconds
        if seconds >= window_s:
            found.append([records, seconds])
            records = seconds = 0
    if seconds and found:
        found[-1][0] += records
        found[-1][1] += seconds
    elif seconds:
        found.append([records, seconds])
    return [records / seconds for records, seconds in found]


def _pass_layer_metrics(tracer: spans.Tracer, stream: ReportStream, factor: float) -> dict:
    """Counts and self times of one traced pass, times scaled by the pass's speed factor."""
    stats, edges = tracer.stats, tracer.edges

    def calls(name):
        return stats.get(name, (0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0))[1] / factor

    metrics = {}
    for name in ("cyclotomic.root_of_unity", "cyclotomic.arith", "cyclotomic.promote",
                 "residue.character_value", "torus.sample_regular", "localfield.hensel_sqrt"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("charformulas.theta_virtual", "charformulas.mu_hat_orbital",
                 "charformulas.adss152_theta", "endoscopy.verify_identity",
                 "endoscopy.rhs_endoscopic", "endoscopy.falsify_adss152",
                 "endoscopy.to_record", "cli.emit"):
        metrics[f"{name}.self_s"] = self_s(name)
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            self_s(name) for name in stats if name.startswith(layer + ".")
        )
    exceeded = tracer.errors["torus.sample_regular", "SamplingBudgetExceeded"]
    attempts = edges["torus.sample_regular", "localfield.hensel_sqrt"]
    metrics["torus.sample_regular.budget_exceeded"] = exceeded
    metrics["torus.sample_regular.accept_ratio"] = (
        (calls("torus.sample_regular") - exceeded) / attempts if attempts else 0.0
    )
    metrics["cli.emit.bytes"] = stream.bytes
    return metrics


def trace(workload: Workload, cli, sweep_config, seed: int, seconds: float) -> dict:
    configs = [sweep_config(seed, chunk) for chunk in range(workload.trace_chunks)]
    tracer = spans.Tracer(SPAN_CAP)
    passes = {False: [], True: []}  # traced -> list of (result, layer metrics)
    until = perf_counter() + seconds
    while len(passes[True]) < 2 or perf_counter() < until:
        for traced in (False, True):
            stream = ReportStream(workload.expected_verdict, workload.records_per_element)
            if traced:
                tracer.reset()
                tracer.request = lambda: stream.elements
                stream.write = tracer.wrap("bench.stream", stream.write)
                tracer.install()
            try:
                result = run_chunks(cli, workload, stream, configs, lambda done: True)
            finally:
                tracer.uninstall()
            metrics = traced and _pass_layer_metrics(tracer, stream, result["factor"])
            passes[traced].append((result, metrics))
        tracer.span_cap = 0  # keep the spans of the first traced pass only

    everything = [result for runs in passes.values() for result, _ in runs]
    untraced_s, traced_s = (
        statistics.median(result["seconds"] / result["factor"] for result, _ in passes[key])
        for key in (False, True)
    )
    layer = {
        name: statistics.median(metrics[name] for _, metrics in passes[True])
        for name in passes[True][0][1]
    }
    layer.update({
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
    })
    digests = {result["stream_sha256"] for result in everything}
    return {
        "attempted": sum(result["attempted"] for result in everything),
        "failed": sum(result["failed"] for result in everything),
        "stream_sha256": digests.pop() if len(digests) == 1 else None,
        "passes": len(passes[True]),
        "per_layer": layer,
        "spans": tracer.spans,
    }


def write_spans(path: Path, recorded) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for span_id, parent, request, name, start, end in recorded:
            out.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                  "name": name, "start": start, "end": end}) + "\n")


def main(payload: dict, workloads: dict = WORKLOADS) -> dict:
    workload = workloads[payload["workload"]]
    phase, seed, seconds = payload["phase"], payload["seed"], payload["seconds"]
    before = calibrate(SETUP_CALIBRATION_S)
    start = perf_counter()
    cli, sweep_config, builds = set_up(workload)
    raw_setup_s = perf_counter() - start
    after = calibrate(SETUP_CALIBRATION_S)
    factor = speed_factor(before[0] + after[0], before[1] + after[1])
    setup = {"setup_s": raw_setup_s / factor, "raw_setup_s": raw_setup_s, "setup_factor": factor}
    if phase == "setup":
        return setup
    if phase == "sweep":
        result = sweep(workload, cli, sweep_config, seed, seconds)
    else:
        result = trace(workload, cli, sweep_config, seed, seconds)
        result["per_layer"].update((name, value / factor) for name, value in builds.items())
        write_spans(OUT_DIR / f"spans-{payload['workload']}-seed{seed}.jsonl",
                    result.pop("spans"))
    result.update(setup)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
