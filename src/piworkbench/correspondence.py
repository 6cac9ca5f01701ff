"""Operational-correspondence criteria, the inert-reduction relation and
per-instance testers for the supporting lemmas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .congruence import level, normalize, normalize_level, variants
from .encodings import Boudol, EncodingScheme, Op, _encode, apply_op, encode, encoding_context, fill
from .equivalences import SRWRB, RelationKind, check_bisim, relate
from .observables import IN, OUT, strong_barbs, weak_barbs, succ
from .explore import explore, unlabelled
from .memo import job
from .semantics import build_fragment, reduce_once
from .syntax import (NIL, Input, Output, Process, _free, alpha_eq, is_async,
                     substitute, substitute_all)
from .text import render_term

CRITERIA = ("c", "cp", "i", "s", "w", "g")


@dataclass(frozen=True)
class Criterion:
    """Correspondence criterion selector: completeness (c), its weakened
    form (cp), and the soundness ladder (i, s, w, g).  The tag fixes how a
    criterion matches: c, i and s up to structural congruence with one
    replication unfolding, and cp, w and g up to `equivalence`, SRWRB
    unless another is named (Gorla, Inf. Comput. 2010)."""

    tag: str
    equivalence: Optional[RelationKind] = None

    def __post_init__(self):
        if self.tag not in CRITERIA:
            raise ValueError(f"unknown criterion {self.tag!r}")
        up_to_congruence = self.tag in ("c", "i", "s")
        if up_to_congruence and self.equivalence is not None:
            raise ValueError(f"criterion {self.tag!r} matches up to structural congruence")
        if not up_to_congruence and self.equivalence is None:
            object.__setattr__(self, "equivalence", SRWRB)


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    instance: Mapping
    status: str  # "pass" | "fail" | "unknown"
    details: Mapping = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# The report status of each bisimulation verdict status.
REPORT_STATUS = {"related": "pass", "not_related": "fail", "unknown": "unknown"}


def _meets(states, goal, cut_off=False) -> str:
    """Whether one of `states` is a goal up to one replication unfolding
    (`goal` is a `variants` set), as a match status: a miss is `unknown`
    when the search for a match was cut off."""
    if not variants(states).isdisjoint(goal):
        return "related"
    return "unknown" if cut_off else "not_related"


def _congruent_to(goal):
    """The match test of a state against `goal` up to one unfolding."""
    goal = variants((goal,))
    return lambda state: _meets((state,), goal)


def _first_match(statuses):
    """The match status of a search that stops at its first `related` one,
    and that one's position: a miss is `unknown` if a status was."""
    miss = "not_related"
    for n, status in enumerate(statuses):
        if status == "related":
            return status, n
        if status == "unknown":
            miss = status
    return miss, None


def _outcome(searches, cut_off=False, terms_cut_off=False):
    """The report status of one match search per term, and the rendered
    terms that failed and that are undecided, from (term, match status)
    pairs.  A miss is undecided when its search said `unknown`, or when the
    bound cut off the space it searched (`cut_off`); else it fails.  The
    report fails on a failure, and is otherwise `unknown` when a term is
    undecided or the bound cut off the terms themselves (`terms_cut_off`)."""
    failures, undecided = [], []
    for term, status in searches:
        if status != "related":
            (undecided if status == "unknown" or cut_off else failures).append(render_term(term))
    status = "fail" if failures else "unknown" if undecided or terms_cut_off else "pass"
    return status, failures, undecided


def inert_steps(p: Process) -> frozenset:
    """All one-step inert reducts of an asynchronous term: a private
    send/receive pair on a restricted channel is consumed, provided the
    channel has no other occurrence afterwards.  Results are canonical;
    matching happens on the normal form with one replication unfolding
    allowed."""
    if not is_async(p):
        raise ValueError("inert reduction is defined on the asynchronous fragment")
    out = set()
    for start in variants((p,)):
        binders, comps = level(start)
        for v in binders:
            for i, ci in enumerate(comps):
                if not (isinstance(ci, Output) and ci.chan == v and ci.cont == NIL):
                    continue
                for j, cj in enumerate(comps):
                    if j == i or not (isinstance(cj, Input) and cj.chan == v):
                        continue
                    received = substitute(cj.cont, cj.binder, ci.datum)
                    others = [c for k, c in enumerate(comps) if k not in (i, j)]
                    leftover = frozenset().union(
                        *(_free(c) for c in others), _free(received)
                    )
                    if v in leftover:
                        continue
                    rest = [b for b in binders if b != v]
                    out.add(normalize_level(rest, others + [received]))
    return frozenset(out)


def _inert_exploration(p: Process, depth: int):
    return explore(normalize(p), unlabelled(inert_steps), depth)


def inert_closure(p: Process, depth: int) -> frozenset:
    """Canonical terms reachable by at most `depth` inert steps."""
    return frozenset(_inert_exploration(p, depth).states)


LEMMA_IDS = ("l1", "l2", "l2star", "pb", "l5", "l6")


@job()
def check_lemma(
    lemma_id: str,
    term: Process,
    depth: int = 8,
    scheme: EncodingScheme = Boudol,
) -> CheckReport:
    """Evaluate one supporting lemma on a concrete instance."""
    lemma_id = lemma_id.lower()
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    instance = {"lemma": lemma_id, "term": render_term(term), "depth": depth}
    details: dict = {}

    if lemma_id == "l1":
        # reduction is closed under structural congruence, so membership
        # is up to one replication unfold (the inert start may have used one)
        reducts = variants(reduce_once(normalize(term)))
        inert = sorted(inert_steps(term), key=render_term)
        status, missing, _ = _outcome((q, _meets((q,), reducts)) for q in inert)
        return CheckReport("lemma-l1", instance, status,
                           {"inert_steps": len(inert), "missing": missing})

    if lemma_id == "l2":
        violations = []
        checked = 0
        for q in sorted(inert_steps(term), key=render_term):
            q_variants = variants((q,))
            for p2 in reduce_once(normalize(term)):
                if not q_variants.isdisjoint(variants((p2,))):
                    continue
                checked += 1
                if variants(reduce_once(q)).isdisjoint(variants(inert_steps(p2))):
                    violations.append((render_term(p2), render_term(q)))
        details["obligations"] = checked
        details["violations"] = violations
        return CheckReport("lemma-l2", instance, "fail" if violations else "pass", details)

    if lemma_id == "l2star":
        violations = []
        closures = [(p2, variants(inert_closure(p2, depth)))
                    for p2 in reduce_once(normalize(term))]
        for q in sorted(inert_closure(term, depth), key=render_term):
            q_variants = variants((q,))
            for p2, closure_p2 in closures:
                if not q_variants.isdisjoint(closure_p2):
                    continue
                if variants(reduce_once(q)).isdisjoint(closure_p2):
                    violations.append((render_term(p2), render_term(q)))
        details["violations"] = violations
        return CheckReport("lemma-l2star", instance, "fail" if violations else "pass", details)

    if lemma_id == "pb":
        want = frozenset(b for b in strong_barbs(term) if b.kind in (IN, OUT))
        violations = []
        for q in sorted(inert_steps(term), key=render_term):
            have = strong_barbs(q)
            lost = sorted(str(b) for b in want - have)
            if lost:
                violations.append({"target": render_term(q), "lost": lost})
        details["violations"] = violations
        return CheckReport("lemma-pb", instance, "fail" if violations else "pass", details)

    if lemma_id == "l5":
        return _completeness_report("lemma-l5", scheme, term, instance, _congruent_to)

    # l6
    encoded_reducts = variants(_encode(scheme, p2) for p2 in reduce_once(normalize(term)))
    searches = []
    for q in reduce_once(normalize(encode(scheme, term))):
        ex = _inert_exploration(q, depth)
        # a closure cut off by the depth bound may still reach a match
        cut_off = any(inert_steps(ex.states[i]) for i in ex.horizon)
        searches.append((q, _meets(ex.states, encoded_reducts, cut_off)))
    status, failures, undecided = _outcome(searches)
    return CheckReport("lemma-l6", instance, status, {"failures": failures, "undecided": undecided})


# depth of the bisimulation check that matches a reached state to a target
_MATCH_DEPTH = 8


def _completeness_report(check_id, scheme, term, instance, match):
    """Each source reduct's image must match a state that the translation
    reaches within the protocol's step budget, the nearest first;
    `match(goal)` is the match status of a reached state against `goal`."""
    bound = scheme.protocol_steps
    reach = build_fragment(encode(scheme, term), bound, universe=None)
    per_reduct, searches = [], []
    for p2 in reduce_once(normalize(term)):
        status, n = _first_match(map(match(_encode(scheme, p2)), reach.states))
        per_reduct.append({"reduct": render_term(p2),
                           "path_length": None if n is None else reach.dist[n]})
        searches.append((p2, status))
    status, _, _ = _outcome(searches)
    return CheckReport(check_id, instance, status, {"reducts": per_reduct, "bound": bound})


@job()
def check_completeness(scheme: EncodingScheme, term: Process) -> CheckReport:
    """Operational completeness: every source reduct is reached by the
    translation within the protocol's step budget, up to one unfolding."""
    instance = {"criterion": "c", "scheme": scheme.tag, "term": render_term(term),
                "bound": scheme.protocol_steps}
    return _completeness_report("criterion-c", scheme, term, instance, _congruent_to)


@job()
def check_soundness(
    criterion: Criterion, scheme: EncodingScheme, term: Process, depth: int
) -> CheckReport:
    """Correspondence criteria.  Soundness (i, s, w, g): every (weak) step
    of the translation must be explained by a source computation, at the
    criterion's strictness.  A target left unmatched is undecided, not a
    failure, when the bound cut off a search for its match: its own tau
    reach or checks, or the source's tau reach.  Completeness: c is
    `check_completeness`, and cp is the same search up to the criterion's
    equivalence.  This is the one place that picks the match: up to
    structural congruence when the criterion has no equivalence."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tag, eq = criterion.tag, criterion.equivalence
    if tag in ("c", "cp") and eq is None:
        return check_completeness(scheme, term)
    instance = {"criterion": tag, "scheme": scheme.tag, "term": render_term(term), "depth": depth}
    if tag == "cp":
        return _completeness_report(
            "criterion-cp", scheme, term, instance,
            lambda goal: lambda state: check_bisim(eq, state, goal, _MATCH_DEPTH).status)

    image = encode(scheme, term)
    if tag == "i":
        encoded_reducts = variants(_encode(scheme, s2) for s2 in reduce_once(normalize(term)))
        status, failures, _ = _outcome((t, _meets((t,), encoded_reducts))
                                       for t in reduce_once(normalize(image)))
        return CheckReport("criterion-i", instance, status, {"failures": failures})

    factor = scheme.protocol_steps
    source = build_fragment(term, depth, universe=None)
    source_images = [_encode(scheme, s) for s in source.states]
    targets = build_fragment(image, factor * depth, universe=None)
    if tag == "w":
        # each pair is checked alone, so that each match is a `check_bisim`
        # verdict whose relation can be audited
        statuses = [_first_match(check_bisim(eq, t, img, depth).status for img in source_images)[0]
                    for t in targets.states]
    else:  # s and g match t or one of its tau-descendants
        reaches = (build_fragment(t, factor * depth, universe=None) for t in targets.states)
        if eq is None:
            goal = variants(source_images)
            statuses = [_meets(r.states, goal, bool(r.frontier)) for r in reaches]
        else:  # one game asks about every (tau-descendant, source image) pair
            descendants = [r.states for r in reaches]
            pairs = dict.fromkeys((u, img) for us in descendants for u in us
                                  for img in source_images)
            verdicts = dict(zip(pairs, relate(eq, pairs, depth)))
            statuses = [_first_match(verdicts[u, img] for u in us for img in source_images)[0]
                        for us in descendants]
    # the source states past the bound may hold a match
    status, failures, undecided = _outcome(zip(targets.states, statuses),
                                           bool(source.frontier), bool(targets.frontier))
    details = {"failures": failures, "undecided": undecided, "targets": len(targets.states)}
    return CheckReport(f"criterion-{tag}", instance, status, details)


@job()
def check_success_sensitiveness(scheme: EncodingScheme, term: Process, depth: int) -> CheckReport:
    """S reports success weakly iff its translation does; the target search
    is scaled by the protocol factor."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    factor = scheme.protocol_steps
    sb, s_exh = weak_barbs(term, depth)
    tb, t_exh = weak_barbs(encode(scheme, term), factor * depth)
    s_has, t_has = succ() in sb, succ() in tb
    instance = {"scheme": scheme.tag, "term": render_term(term), "depth": depth}
    details = {
        "source_succeeds": s_has,
        "target_succeeds": t_has,
        "source_exhaustive": s_exh,
        "target_exhaustive": t_exh,
    }
    if s_has and t_has:
        status = "pass"
    elif s_has and not t_has:
        status = "fail" if t_exh else "unknown"
    elif t_has and not s_has:
        status = "fail" if s_exh else "unknown"
    else:
        status = "pass" if (s_exh and t_exh) else "unknown"
    return CheckReport("success-sensitiveness", instance, status, details)


def _is_injective(sigma: Mapping) -> bool:
    values = list(sigma.values())
    if len(set(values)) != len(values):
        return False
    return all(v in sigma or v == k for k, v in sigma.items())


@job()
def check_name_invariance(
    scheme: EncodingScheme, term: Process, sigma: Mapping, depth: int = 8
) -> CheckReport:
    """Renaming commutes with the translation: exactly for injective
    renamings, up to weak barbed bisimilarity otherwise."""
    if any(k.reserved or v.reserved for k, v in sigma.items()):
        raise ValueError("renamings may not touch reserved names")
    renamed_then_encoded = encode(scheme, substitute_all(term, sigma))
    encoded_then_renamed = substitute_all(encode(scheme, term), sigma)
    injective = _is_injective(sigma)
    instance = {
        "scheme": scheme.tag,
        "term": render_term(term),
        "sigma": {str(k): str(v) for k, v in sorted(sigma.items())},
        "injective": injective,
    }
    if injective:
        ok = alpha_eq(renamed_then_encoded, encoded_then_renamed)
        return CheckReport("name-invariance", instance, "pass" if ok else "fail", {})
    verdict = check_bisim(RelationKind("wbb"), renamed_then_encoded, encoded_then_renamed, depth)
    return CheckReport("name-invariance", instance, REPORT_STATUS[verdict.status],
                       {"verdict": verdict.status})


@job()
def check_compositionality(scheme: EncodingScheme, op: Op, args) -> CheckReport:
    """Compare the direct translation of op(args) against context filling,
    in both regimes: exact equality with the names-aware context, and
    equality up to alpha with the names-independent default context."""
    args = tuple(args)
    direct = _encode(scheme, apply_op(op, args))
    encoded = tuple(_encode(scheme, a) for a in args)
    arg_names = frozenset().union(*(_free(a) for a in args)) if args else frozenset()

    ctx_n = encoding_context(scheme, op, arg_names)
    exact_n = fill(ctx_n, encoded) == direct
    ctx_default = encoding_context(scheme, op, frozenset())
    exact_default = fill(ctx_default, encoded) == direct
    alpha_default = alpha_eq(fill(ctx_default, encoded, capture_avoiding=True), direct)

    status = "pass" if (exact_n and alpha_default) else "fail"
    instance = {
        "scheme": scheme.tag,
        "op": op.tag,
        "args": [render_term(a) for a in args],
    }
    details = {
        "exact_with_n_context": exact_n,
        "exact_with_default_context": exact_default,
        "alpha_with_default_context": alpha_default,
    }
    return CheckReport("compositionality", instance, status, details)
