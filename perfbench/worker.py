"""One cold run of one workload unit, in a fresh interpreter.

Every memo table in piworkbench is process-wide, so a second check in the
same process is a different, warmer program.  ``run.py`` therefore starts
this script once per unit.  It imports the package from ``src/`` of the
checkout it lives in, sets up the workload (parse or generate, and encode),
runs the timed unit, judges the verdicts against known answers outside the
timed section and prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWN_STAMP

MODE is ``setup`` (stop after set-up), ``unit``, ``gate`` (unit, then the
self-audit of every ``related`` bisim verdict) or ``trace`` (unit with
timing spans).  SPAWN_STAMP is ``time.monotonic()`` read by the parent just
before it started this process; CLOCK_MONOTONIC is shared by all processes,
so the difference is the cold set-up time.
"""

from __future__ import annotations

import json
import random
import re
import resource
import string
import sys
import time
from pathlib import Path

from probes import Probe

ROOT = Path(__file__).resolve().parent.parent

# The ROADMAP anchors, each against its T_B (Boudol) image: (kind, depth, source).
ANCHORS = {
    "ewb-anchor": ("ewb", 6, "b!b.b!b | b?(c).c!b | b?(c).c!a.c!b"),
    "wbb-repl-anchor": ("wbb", 8, "!(nu a)(a?(c).(nu b)(b!a | b?(a).0) | a!b.a!a.c?(b).a!a)"),
}
# The counterexample ewb-anchor must return with `not_related`.
EWB_WITNESS = (
    "after [right tau] right performs input b?(%w1) which the left side "
    "cannot weakly match"
)

# Replicated corpora are left out: one replicated term took minutes and
# gigabytes in criterion `w`, a budget defect rather than a steady workload.
# The corpus seed is pinned: from one corpus seed to the next the suite's
# wall time and peak RSS move by more than any bound can absorb (README.md).
# The run seed picks a renaming of the corpus's names instead: the same
# checks on different inputs.
SUITE_CORPUS_SEED = 3
SUITE_CORPUS = dict(
    max_size=16,
    communication_bias=0.9,
    insert_success_probability=0.2,
    allow_replication=False,
)
SUITE_TERMS = 400
# Nine specs over both schemes.  By the paper's validity, completeness,
# success and divergence results each check passes or is `unknown`.
SUITE_SPECS = (
    ("v-boudol-wbb", "bisim-validity", {"scheme": "boudol", "relation": "wbb"}),
    ("v-ht-wcb", "bisim-validity", {"scheme": "ht", "relation": "wcb"}),
    ("v-boudol-srwrb", "bisim-validity", {"scheme": "boudol", "relation": "srwrb"}),
    ("v-ht-srwrb", "bisim-validity", {"scheme": "ht", "relation": "srwrb"}),
    ("crit-c", "criterion", {"scheme": "boudol", "criterion": "c", "depth": 4}),
    ("crit-w", "criterion", {"scheme": "ht", "criterion": "w", "depth": 4}),
    ("divergence", "divergence", {"scheme": "ht", "depth": 4}),
    ("success", "success", {"scheme": "boudol"}),
    ("barbs", "barb-preservation", {"scheme": "boudol"}),
)


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import piworkbench

    here = Path(piworkbench.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise SystemExit(f"perfbench: imported piworkbench from {here}, not from this checkout")
    return piworkbench


class Anchor:
    """One `check_bisim` of a pinned term against its T_B image."""

    def __init__(self, pkg, name: str):
        self.pkg = pkg
        self.name = name
        kind, self.depth, src = ANCHORS[name]
        self.kind = pkg.RelationKind(kind)
        self.p = pkg.text.parse_term(src)
        self.q = pkg.encodings.encode(pkg.Boudol, self.p)

    def run(self) -> dict:
        t0 = time.perf_counter()
        verdict = self.pkg.equivalences.check_bisim(self.kind, self.p, self.q, self.depth)
        wall = time.perf_counter() - t0
        self.verdict = verdict
        return {
            "wall_s": wall,
            "check_s": [wall],
            "tallies": {"tally." + verdict.status: 1},
            "decided": int(verdict.status != "unknown"),
        }

    def wrong(self) -> list:
        v = self.verdict
        if self.name == "ewb-anchor":
            got = v.witness.describe() if v.witness is not None else None
            if v.status != "not_related" or got != EWB_WITNESS:
                return [f"ewb-anchor: expected not_related with the pinned witness, got {v.status}: {got}"]
        elif v.status == "not_related":
            return ["wbb-repl-anchor: T_B is valid up to wbb, but the check returned not_related"]
        return []


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


class Suite:
    """`run_suite` over a seeded replication-free corpus, its names renamed
    by a bijection drawn from the run seed."""

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        h, text = pkg.harness, pkg.text
        cfg = h.GenConfig(seed=SUITE_CORPUS_SEED, **SUITE_CORPUS)
        texts = [text.render_term(t) for t in h.generate_corpus(cfg, SUITE_TERMS)]
        idents = sorted({i for t in texts for i in _IDENT.findall(t)} - {"nu", "ok"})
        rename = dict(zip(idents, random.Random(seed).sample(string.ascii_lowercase, len(idents))))
        self.corpus = [
            text.parse_term(_IDENT.sub(lambda m: rename.get(m.group(), m.group()), t))
            for t in texts
        ]
        for term in self.corpus:
            for scheme in (pkg.Boudol, pkg.HondaTokoro):
                pkg.encodings.encode(scheme, term)
        self.specs = [h.CheckSpec(c, k, p) for c, k, p in SUITE_SPECS]
        self.config = {"corpus_seed": SUITE_CORPUS_SEED, "rename_seed": seed}

    def run(self) -> dict:
        h = self.pkg.harness
        check_s = []
        # run_suite looks `_run_check` up on its module for every check, so
        # wrapping it there times each check without changing the suite.
        run_check = h._run_check

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run_check(*args, **kwargs)
            finally:
                check_s.append(time.perf_counter() - t0)

        h._run_check = timed
        t0 = time.perf_counter()
        report = h.run_suite(self.corpus, self.specs, h.Limits(), self.config)
        wall = time.perf_counter() - t0
        h._run_check = run_check
        self.report = report
        return {
            "wall_s": wall,
            "check_s": check_s,
            "tallies": {
                "tally.pass": report.passed,
                "tally.fail": report.failed,
                "tally.unknown": report.unknown,
            },
            "decided": report.passed + report.failed,
        }

    def wrong(self) -> list:
        return [
            f"suite-mixed: {r.check_id} failed on {r.instance.get('term')}: {r.details}"
            for r in self.report.reports
            if r.status == "fail"
        ]


def audit(pkg, related: list) -> list:
    """Re-derive each `related` verdict and replay its relation."""
    eq = pkg.equivalences
    bad = []
    for args, kwargs in related:
        verdict = eq.check_bisim(*args, **kwargs)
        violations = (
            eq.audit_relation(*args, relation=verdict.relation, **kwargs)
            if verdict.status == "related" else ["verdict changed on a repeat"]
        )
        if violations:
            terms = " vs ".join(pkg.text.render_term(t) for t in args[1:3])
            bad.append(f"self-audit failed for {terms}: {list(violations)[:3]}")
    return bad


def main(argv: list) -> int:
    workload, seed, mode, stamp = argv[0], int(argv[1]), argv[2], float(argv[3])
    pkg = _import_package()
    probe = Probe(pkg, keep_related=mode == "gate")
    if mode == "trace":
        probe.trace()
    t_work = time.perf_counter()
    unit = Anchor(pkg, workload) if workload in ANCHORS else Suite(pkg, seed)
    out = {"setup_s": time.monotonic() - stamp}
    if mode != "setup":
        out.update(unit.run())
        out["work_s"] = time.perf_counter() - t_work
        out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["attempted"] = len(out["check_s"])
        out["counts"] = {**probe.counts, **probe.memo_counts(), **out.pop("tallies")}
        if mode == "trace":
            out["calls"] = dict(probe.calls)
            out["self_s"] = dict(probe.self_s)
            out["hit_ratios"] = probe.hit_ratios()
        out["wrong"] = unit.wrong()
        probe.keep_related = False
        out["audited"] = len(probe.related)
        out["wrong"] += audit(pkg, probe.related)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
