"""Pinned benchmark for piworkbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds from the root of a checkout, serially,
one fresh interpreter per unit (see worker.py), with WORKBENCH_THREADS
removed from the workers' environment.  It prints a report with every metric
by name and unit, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from units
run under timing shims, plus the tracing overhead.

The exit code is 1 when a verdict is wrong, a self-audit fails, a pinned
known answer differs or an exact count drifts, and 2 when the checkout has
no src/piworkbench.  Only this process tree is measured: getrusage of each
worker, no system-wide tracing, no cache dropping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SUITE_CORPUS_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ewb-anchor", "wbb-repl-anchor", "suite-mixed")
SETUP_SAMPLES = 2  # set-up-only cold starts before each untraced unit, besides its own
MIN_UNITS = 3  # untraced units per run, so that medians exist
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = ("setup_s", "wall_s", "checks_per_s", "verdict_p50_s", "verdict_tail_s",
              "peak_rss_mb")
# The suffix gives the source: `.s` self time, `.calls` span count,
# `.hit_ratio` memo hits over lookups, anything else an exact count.
PER_LAYER = (
    "text.parse_term.s", "text.render_term.calls", "text.render_term.hit_ratio",
    "syntax.substitute.calls", "syntax.subst.hit_ratio", "syntax.cache_entries",
    "congruence.normalize.s", "congruence.normalize.calls", "congruence.normalize.hit_ratio",
    "congruence.canon_memo.entries",
    "semantics.build_fragment.s", "semantics.build_fragment.calls",
    "semantics.fragment_states", "semantics.fragment_transitions",
    "semantics.frontier_states", "semantics.reduce_once.calls",
    "encodings.encode.s", "encodings.encode.calls",
    "observables.strong_barbs.calls",
    "equivalences.saturate.s", "equivalences.check_bisim.s",
    "equivalences.check_bisim.calls", "equivalences.pairs", "equivalences.relation_size",
    "trace.overhead_s",
)
# Printed in the report but left out of the result line: each is a time that
# reads exactly 0 on every run of the anchors, which never call them.
PRINTED_ONLY = (
    "congruence.congruent.s", "semantics.diverges.s",
    "correspondence.check_soundness.s", "correspondence.check_completeness.s",
    "harness.generate_corpus.s", "harness.run_suite.s",
)


class WorkerFailed(RuntimeError):
    pass


def _spawn(workload: str, seed: int, mode: str, env: dict, deadline: float) -> dict:
    stamp = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(stamp)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - stamp))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Set-up samples, untraced units and traced units of one run."""
    env = {k: v for k, v in os.environ.items() if k not in ("WORKBENCH_THREADS", "PYTHONPATH")}
    deadline = time.monotonic() + RUN_LIMIT_S
    _spawn(workload, seed, "setup", env, deadline)  # compiles bytecode; discarded
    setups, units, traced = [], [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if trace and elapsed >= seconds and units and traced:
            break
        if not trace and elapsed >= seconds and len(units) >= MIN_UNITS:
            break
        if not units:
            mode = "gate"
        elif trace and len(traced) < len(units):
            mode = "trace"
        else:
            mode = "unit"
        if not trace:
            # spread over the run, so that set-up sees the same machine as the units
            setups += [_spawn(workload, seed, "setup", env, deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES)]
        result = _spawn(workload, seed, mode, env, deadline)
        (traced if mode == "trace" else units).append(result)
    return setups + [u["setup_s"] for u in units], units, traced


def tail(samples: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it, and its name."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 11:
        return ordered[-1], f"max of {n} (no percentile has 10 samples beyond it)"
    permille = 1000 * (n - 10) // n
    rank = max(1, -(-permille * n // 1000))
    return ordered[rank - 1], f"p{permille / 10:g} of {n}, {n - rank} beyond"


def end_to_end(setups: list, units: list) -> tuple:
    """End-to-end metrics as (value, unit, note), and the checks attempted."""
    med = statistics.median
    attempted = sum(u["attempted"] for u in units)
    wrong = sum(len(u["wrong"]) for u in units)
    decided = sum(u["decided"] for u in units)
    per_unit = len(units[0]["check_s"])
    pooled = [s for u in units for s in u["check_s"]]
    if per_unit >= 11:
        tails = [tail(u["check_s"]) for u in units]
        tail_s = med(t for t, _ in tails)
        tail_note = f"median over {len(units)} units of {tails[0][1]}"
    else:
        tail_s, tail_note = tail(pooled)
    metrics = {
        "setup_s": (med(setups), "s", f"median of {len(setups)} cold starts"),
        "wall_s": (med(u["wall_s"] for u in units), "s", f"median of {len(units)} units"),
        "checks_per_s": (med(u["attempted"] / u["wall_s"] for u in units), "1/s",
                         f"median of {len(units)} units of {per_unit} checks"),
        "verdict_p50_s": (med(pooled), "s", f"median of {len(pooled)} checks"),
        "verdict_tail_s": (tail_s, "s", tail_note),
        "decided_ratio": (decided / attempted, "ratio", f"{decided} decided of {attempted}"),
        "wrong_ratio": (wrong / attempted, "ratio", f"{wrong} wrong of {attempted}"),
        "peak_rss_mb": (med(u["rss_kib"] for u in units) / 1024, "MiB",
                        f"median ru_maxrss of {len(units)} workers"),
    }
    return metrics, attempted


def per_layer(units: list, traced: list) -> tuple:
    """Per-layer metrics from traced units, and the problems found in them."""
    med = statistics.median
    problems = []
    if any(t["calls"] != traced[0]["calls"] for t in traced):
        problems.append("span call counts differ between traced units")
    overhead = med(t["wall_s"] for t in traced) - med(u["wall_s"] for u in units)
    unattributed = med(t["work_s"] - sum(t["self_s"].values()) for t in traced)
    limit = max(overhead, 0.01 * med(t["work_s"] for t in traced))
    if not 0 <= unattributed <= limit:
        problems.append(f"self times leave {unattributed:.4f} s of traced work unattributed, "
                        f"more than the {limit:.4f} s tracing overhead")
    metrics = {}
    for name in PER_LAYER + PRINTED_ONLY:
        if name == "trace.overhead_s":
            value, unit = overhead, "s"
        elif name.endswith(".s"):
            value, unit = med(t["self_s"].get(name[:-2], 0.0) for t in traced), "s"
        elif name.endswith(".calls"):
            value, unit = traced[0]["calls"].get(name[:-6], 0), "count"
        elif name.endswith(".hit_ratio"):
            value, unit = med(t["hit_ratios"][name] for t in traced), "ratio"
        else:
            value, unit = traced[0]["counts"].get(name, 0), "count"
        metrics[name] = (value, unit, "")
    metrics["trace.unattributed_s"] = (unattributed, "s", "traced work outside every span")
    return metrics, problems


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/piworkbench/*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, seed: int, runs: list) -> list:
    """Exact counts must match across the units of this run and across runs
    of the same sources, workload and seed in this checkout."""
    counts = runs[0]["counts"]
    problems = [f"exact counts drifted between units: {r['counts']} != {counts}"
                for r in runs[1:] if r["counts"] != counts]
    record = ROOT / ".bench_build" / "perfbench" / f"counts-{workload}-{seed}-{_source_digest()}.json"
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != counts:
            problems.append(f"exact counts drifted from an earlier run: {counts} != {earlier}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "piworkbench" / "__init__.py").is_file():
        print(f"perfbench: no src/piworkbench under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    try:
        setups, units, traced = _measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, attempted = end_to_end(setups, units)
    problems = [w for u in units + traced for w in u["wrong"]]
    problems += check_counts(args.workload, args.seed, units + traced)
    if args.trace:
        layers, layer_problems = per_layer(units, traced)
        problems += layer_problems
        attempted += sum(t["attempted"] for t in traced)
        metrics.update(layers)
    reported = PER_LAYER if args.trace else END_TO_END

    threads = os.environ.get("WORKBENCH_THREADS")
    corpus = (f"corpus_seed={SUITE_CORPUS_SEED} rename_seed={args.seed}"
              if args.workload == "suite-mixed" else "corpus=pinned anchor term")
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} units={len(units)} traced_units={len(traced)} "
          f"audited_related_verdicts={units[0]['audited']}")
    print(f"env python={platform.python_version()} nproc={os.cpu_count()} "
          f"{corpus} WORKBENCH_THREADS=unset"
          f"{f' (was {threads}, removed)' if threads else ''} "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED', 'random')} "
          "limits=own-process getrusage only; no system-wide tracing; no cache dropping")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:36} {value:>14.6g} {unit:6} {note}")
    for label, runs in (("untraced", units), ("traced", traced)):
        if runs:
            print(f"{label} unit wall_s: " + " ".join(f"{u['wall_s']:.4f}" for u in runs))
    counts = json.dumps(units[0]["counts"], sort_keys=True)
    print(f"counts digest={hashlib.sha256(counts.encode()).hexdigest()[:16]} {counts}")
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in reported},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
