"""Sweep benchmark for sl2endo: decided checks per second, per-element latency,
set-up time and memory, and a traced per-module breakdown.

Usage (from anywhere; the checkout is found from this file's location):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest bench          # the benchmark's self-tests

Each run starts fresh single-threaded interpreters (``bench/sweep.py``) that
import ``src/sl2endo`` and call ``sl2endo.cli.run`` in-process, in a closed
loop with one client.  With ``--trace 0`` it measures the end-to-end metrics
with tracing off: ``setup_s`` is the median over SETUP_RUNS interpreters,
the last of which then runs the timed sweep.  With ``--trace 1`` one
interpreter reports the per-layer metrics from traced passes, next to the
same passes untraced.  Metric names and units come from BENCHMARK.json.

Times are scaled to a nominal host speed.  On a shared host the
interpreter's speed drifts by a common factor, which ``sweep.reference_kernel``
(stdlib only, timed between chunks) measures; each time is divided by it.
The unscaled values are printed next to the scaled ones.  ``failed_ratio``
(failed over planned elements) is printed too; the JSON line carries it as
``failed`` and ``attempted``.

Human-readable lines, with sample counts, go to stdout first; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
The run also writes ``.bench_out/<workload>-seed<N>-trace<T>.json`` with a
stamp (Python, nproc, load average, git commit, seed), the sha256 of the
report stream's first chunks, and LAYER_MAP.  The exit code is 0 when every
output was correct, 1 when not or when an interpreter failed, and 2 when
the checkout holds no sl2endo source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sweep import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 5
DEADLINE_S = 170

# Which end-to-end metric, on which workload, each per-layer metric should
# move; "same_on" lists workloads where the prediction is no change.
_SMALL = ["nonregular-small", "falsify-small"]
_ALL = ["nonregular-small", "regular-p1009", "falsify-small"]
_CYC = {"moves": ["checks_per_s", "element_ms_p50", "element_ms_p99"],
        "on": ["regular-p1009"], "same_on": ["nonregular-small"]}
_BUILD = {"moves": ["setup_s"], "on": ["regular-p1009"], "same_on": []}
_SAMPLING = {"moves": ["checks_per_s"], "on": _SMALL, "same_on": ["regular-p1009"]}
_FORMULAS = {"moves": ["checks_per_s", "element_ms_p50"], "on": _SMALL, "same_on": []}
_EMIT = {"moves": ["checks_per_s"], "on": ["falsify-small", "regular-p1009"], "same_on": []}
_LAYER = {"moves": ["checks_per_s"], "on": _ALL, "same_on": []}
LAYER_MAP = {
    **{f"cyclotomic.{fn}.{stat}": _CYC
       for fn in ("root_of_unity", "arith", "promote") for stat in ("calls", "self_s")},
    "residue.norm_one_group.build_s": _BUILD,
    "cyclotomic.cyclotomic_poly.build_s": _BUILD,
    "residue.character_value.calls": {**_CYC, "moves": ["checks_per_s"]},
    "residue.character_value.self_s": {**_CYC, "moves": ["checks_per_s"]},
    **{f"torus.sample_regular.{stat}": _SAMPLING
       for stat in ("calls", "self_s", "budget_exceeded", "accept_ratio")},
    "localfield.hensel_sqrt.calls": _SAMPLING,
    "localfield.hensel_sqrt.self_s": _SAMPLING,
    **{f"{fn}.self_s": _FORMULAS
       for fn in ("charformulas.theta_virtual", "charformulas.mu_hat_orbital",
                  "charformulas.adss152_theta", "endoscopy.verify_identity",
                  "endoscopy.rhs_endoscopic", "endoscopy.falsify_adss152")},
    "endoscopy.to_record.self_s": _EMIT,
    "cli.emit.self_s": _EMIT,
    "cli.emit.bytes": _EMIT,
    **{f"{layer}.self_s": _LAYER
       for layer in ("localfield", "torus", "residue", "cyclotomic", "charformulas",
                     "endoscopy", "cli")},
    "trace.overhead_ratio": {"moves": [], "on": _ALL, "same_on": []},
    "trace.untraced_pass_s": _LAYER,
    "trace.traced_pass_s": {"moves": [], "on": _ALL, "same_on": []},
}


def git_commit(root: Path) -> "str | None":
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(payload: dict, deadline: float) -> dict:
    """Run bench/sweep.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), json.dumps(payload)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{payload['phase']} interpreter exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, dict, dict]:
    """Returns (child result, metric values, sample count of each, unscaled values)."""
    deadline = time.monotonic() + DEADLINE_S
    payload = {"workload": workload, "seed": seed, "seconds": seconds}
    if trace:
        result = spawn({**payload, "phase": "trace"}, deadline)
        counts = {name: 1 if name.endswith(".build_s") else result["passes"]
                  for name in result["per_layer"]}
        return result, result["per_layer"], counts, {}
    setups = [spawn({**payload, "phase": "setup"}, deadline) for _ in range(SETUP_RUNS - 1)]
    result = spawn({**payload, "phase": "sweep"}, deadline)
    setups.append({key: result[key] for key in setups[0]})
    result["setups"] = setups
    return (result, *end_to_end_values(setups, result))


def end_to_end_values(setups: list[dict], result: dict) -> tuple[dict, dict, dict]:
    """The end-to-end metric values of a sweep, the sample count of each, and the
    values before scaling to the reference kernel's speed."""
    names = ("checks_per_s", "element_ms_p50", "element_ms_p99")
    values = {"setup_s": statistics.median(setup["setup_s"] for setup in setups),
              "peak_rss_mib": result["peak_rss_mib"]}
    values.update((name, result[name]) for name in names)
    counts = {"setup_s": len(setups), "checks_per_s": result["windows"],
              "element_ms_p50": result["elements"], "element_ms_p99": result["elements"],
              "peak_rss_mib": 1}
    raw = {"setup_s": statistics.median(setup["raw_setup_s"] for setup in setups)}
    raw.update((name, result[f"raw_{name}"]) for name in names)
    return values, counts, raw


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach BENCHMARK.json's unit to each value; every declared metric must be measured."""
    missing = {m["name"] for m in declared} - values.keys()
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sl2endo" / "__init__.py").is_file():
        print(f"error: no sl2endo source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(), "git_commit": git_commit(ROOT),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    try:
        result, values, counts, raw = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = with_units(values, declared)
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0 and result["stream_sha256"] is not None

    print(f"# {json.dumps(stamp)}")
    for name, metric in metrics.items():
        unscaled = f", unscaled {raw[name]:.6g}" if name in raw else ""
        print(f"{args.workload}  {name} = {metric['value']:.6g} {metric['unit']}"
              f"  (n={counts[name]}{unscaled})")
    print(f"{args.workload}  failed_ratio = {failed / attempted if attempted else 1:.6g}"
          f"  ({failed} failed of {attempted} planned elements)")
    print(f"{args.workload}  stream_sha256 = {result['stream_sha256']}"
          f"  (first {WORKLOADS[args.workload].trace_chunks} chunks, seed {args.seed})")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"stamp": stamp, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "samples": counts, "child": result, "layer_map": LAYER_MAP}
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
