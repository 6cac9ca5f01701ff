"""Deterministic random term generation and suite execution."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from . import memo
from .correspondence import (REPORT_STATUS, CheckReport, Criterion,
                             check_completeness, check_lemma, check_soundness,
                             check_success_sensitiveness)
from .encodings import Boudol, encode, scheme_from_string
from .equivalences import RelationKind, check_bisim
from .observables import CHAN, IN, OUT, strong_barbs
from .semantics import diverges
from .syntax import (NIL, OK, Input, Name, Output, Par, Process, Repl,
                     Restrict)
from .text import render_term

_DEFAULT_WEIGHTS = {
    "output": 3.0,
    "input": 3.0,
    "par": 3.0,
    "restrict": 1.5,
    "repl": 0.5,
}


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the seeded term generator."""

    seed: int = 0
    max_size: int = 8
    name_pool: int = 3
    weights: Mapping = field(default_factory=lambda: dict(_DEFAULT_WEIGHTS))
    allow_replication: bool = True
    insert_success_probability: float = 0.0
    communication_bias: float = 0.0
    asynchronous: bool = False

    def __post_init__(self):
        if self.max_size < 1:
            raise ValueError("max_size must be >= 1")
        if self.name_pool < 1:
            raise ValueError("name_pool must be >= 1")
        for p in (self.insert_success_probability, self.communication_bias):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        unknown = set(self.weights) - set(_DEFAULT_WEIGHTS)
        if unknown:
            raise ValueError(f"unknown weight tags {sorted(unknown)}")


_POOL_IDENTS = "abcdexyzpqrs"


def _names(cfg: GenConfig):
    out = []
    for i in range(cfg.name_pool):
        if i < len(_POOL_IDENTS):
            out.append(Name(_POOL_IDENTS[i]))
        else:
            out.append(Name(f"n{i}"))
    return out


def _leaf(rng: random.Random, cfg: GenConfig) -> Process:
    if rng.random() < cfg.insert_success_probability:
        return OK
    return NIL


def _gen(rng: random.Random, cfg: GenConfig, budget: int, pool) -> Process:
    if budget <= 1:
        return _leaf(rng, cfg)
    choices = []
    for tag, w in sorted(cfg.weights.items()):
        if w <= 0:
            continue
        if tag == "repl" and not cfg.allow_replication:
            continue
        if tag == "par" and budget < 3:
            continue
        if tag == "output" and cfg.asynchronous and budget < 2:
            continue
        choices.append((tag, w))
    if not choices:
        return _leaf(rng, cfg)
    total = sum(w for _, w in choices)
    pick = rng.random() * total
    tag = choices[-1][0]
    for t, w in choices:
        pick -= w
        if pick <= 0:
            tag = t
            break
    if tag == "output":
        cont = NIL if cfg.asynchronous else _gen(rng, cfg, budget - 1, pool)
        return Output(rng.choice(pool), rng.choice(pool), cont)
    if tag == "input":
        return Input(rng.choice(pool), rng.choice(pool), _gen(rng, cfg, budget - 1, pool))
    if tag == "restrict":
        return Restrict(rng.choice(pool), _gen(rng, cfg, budget - 1, pool))
    if tag == "repl":
        return Repl(_gen(rng, cfg, budget - 1, pool))
    # par
    if rng.random() < cfg.communication_bias and budget >= 5:
        # complementary send/receive pair on a shared channel, sometimes
        # made private so the exchange is unobservable
        restrict = budget >= 6 and rng.random() < 0.5
        if restrict:
            budget -= 1
        chan = rng.choice(pool)
        lbudget = 2 if cfg.asynchronous else rng.randint(2, budget - 3)
        left = Output(chan, rng.choice(pool), NIL if cfg.asynchronous else _gen(rng, cfg, lbudget - 1, pool))
        right = Input(chan, rng.choice(pool), _gen(rng, cfg, budget - 1 - lbudget - 1, pool))
        pair = Par(left, right) if rng.random() < 0.5 else Par(right, left)
        return Restrict(chan, pair) if restrict else pair
    lbudget = rng.randint(1, budget - 2)
    return Par(_gen(rng, cfg, lbudget, pool), _gen(rng, cfg, budget - 1 - lbudget, pool))


def generate_corpus(cfg: GenConfig, count: int) -> tuple:
    """Deterministic corpus of well-formed source terms within max_size."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(cfg.seed)
    pool = _names(cfg)
    out = []
    for _ in range(count):
        budget = rng.randint(1, cfg.max_size)
        out.append(_gen(rng, cfg, budget, pool))
    return tuple(out)


@dataclass(frozen=True)
class CheckSpec:
    """One named check to run over a corpus; params are check-specific."""

    check_id: str
    kind: str  # barb-preservation | chan-barb-preservation | bisim-validity
    #            | success | divergence | criterion | lemma
    params: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class Limits:
    depth: int = 8

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass(frozen=True)
class SuiteReport:
    """Reports in normalised order, with the JSON envelope every command
    prints: config echo, reports and a pass/fail/unknown summary."""

    reports: tuple
    config: Mapping

    def _count(self, status: str) -> int:
        return sum(1 for r in self.reports if r.status == status)

    @property
    def passed(self) -> int:
        return self._count("pass")

    @property
    def failed(self) -> int:
        return self._count("fail")

    @property
    def unknown(self) -> int:
        return self._count("unknown")

    def to_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "summary": {"pass": self.passed, "fail": self.failed, "unknown": self.unknown},
            "reports": [
                {
                    "check_id": r.check_id,
                    "instance": dict(r.instance),
                    "status": r.status,
                    "details": _plain(r.details),
                }
                for r in self.reports
            ],
        }


def _plain(value):
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _barb_preservation(term, scheme, depth, params) -> CheckReport:
    want = {b for b in strong_barbs(term) if b.kind in (IN, OUT)}
    have = {b for b in strong_barbs(encode(scheme, term)) if b.kind in (IN, OUT)}
    details = {
        "missing": sorted(str(b) for b in want - have),
        "extra": sorted(str(b) for b in have - want),
    }
    return CheckReport("barb-preservation", {}, "pass" if want == have else "fail", details)


def _chan_barb_preservation(term, scheme, depth, params) -> CheckReport:
    want = {b for b in strong_barbs(term) if b.kind == CHAN}
    have = {b for b in strong_barbs(encode(scheme, term)) if b.kind == CHAN}
    return CheckReport("chan-barb-preservation", {}, "pass" if want == have else "fail", {})


def _bisim_validity(term, scheme, depth, params) -> CheckReport:
    rk = RelationKind(
        params["relation"],
        bool(params.get("divergence_preserving", False)),
        bool(params.get("branching", False)),
    )
    verdict = check_bisim(rk, term, encode(scheme, term), depth)
    details = {"verdict": verdict.status}
    if verdict.witness is not None:
        details["witness"] = verdict.witness.describe()
    return CheckReport("bisim-validity", {}, REPORT_STATUS[verdict.status], details)


def _divergence(term, scheme, depth, params) -> CheckReport:
    d_src = diverges(term, depth)
    d_tgt = diverges(encode(scheme, term), depth * 3)
    if "unknown" in (d_src.status, d_tgt.status):
        status = "unknown"
    else:
        status = "pass" if d_src.status == d_tgt.status else "fail"
    return CheckReport("divergence", {}, status, {"source": d_src.status, "target": d_tgt.status})


def _criterion(term, scheme, depth, params) -> CheckReport:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    eq = params.get("equivalence")
    if isinstance(eq, str):
        eq = RelationKind(eq)
    crit = Criterion(params["criterion"], eq)
    if crit.tag == "c" and crit.equivalence is None:
        return check_completeness(scheme, term)
    return check_soundness(crit, scheme, term, depth)


# check kind -> check(term, scheme, depth, params); the report's instance is
# merged into the suite's (index, term) instance
CHECKS = {
    "barb-preservation": _barb_preservation,
    "chan-barb-preservation": _chan_barb_preservation,
    "bisim-validity": _bisim_validity,
    "success": lambda term, scheme, depth, params: check_success_sensitiveness(
        scheme, term, depth),
    "divergence": _divergence,
    "criterion": _criterion,
    "lemma": lambda term, scheme, depth, params: check_lemma(
        params["lemma"], term, depth, scheme),
}


def _run_check(spec: CheckSpec, index: int, term: Process, limits: Limits) -> CheckReport:
    params = dict(spec.params)
    scheme = params.get("scheme", Boudol)
    if isinstance(scheme, str):
        scheme = scheme_from_string(scheme)
    depth = int(params.get("depth", limits.depth))
    check = CHECKS.get(spec.kind)
    if check is None:
        raise ValueError(f"malformed check specification: unknown kind {spec.kind!r}")
    rep = check(term, scheme, depth, params)
    instance = {"index": index, "term": render_term(term), **rep.instance}
    return CheckReport(spec.check_id, instance, rep.status, rep.details)


def run_suite(
    corpus: Sequence[Process],
    checks: Sequence[CheckSpec],
    limits: Limits = Limits(),
    config: Optional[Mapping] = None,
) -> SuiteReport:
    """Run each corpus term's checks on the calling thread, with the cyclic
    collector paused, then `memo.clear()`.

    A failing or crashing check never aborts the suite; unknowns are
    counted apart from failures, and the report order is normalised."""
    results = []
    for idx, term in enumerate(corpus):
        with memo.paused_gc():
            for spec in checks:
                try:
                    report = _run_check(spec, idx, term, limits)
                except Exception as exc:  # noqa: BLE001 - reported, not raised
                    report = CheckReport(
                        spec.check_id,
                        {"index": idx, "term": render_term(term)},
                        "fail",
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                results.append(((spec.check_id, idx), report))
            memo.clear()
    results.sort(key=lambda kv: kv[0])
    return SuiteReport(tuple(r for _, r in results), dict(config or {}))
