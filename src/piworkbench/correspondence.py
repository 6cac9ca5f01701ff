"""Operational-correspondence criteria, the inert-reduction relation and
per-instance testers for the supporting lemmas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .congruence import (assemble, congruent, level, normalize,
                         normalize_transient, unfold_once)
from .encodings import Boudol, EncodingScheme, HondaTokoro, Op, _encode, apply_op, encode, encoding_context, fill
from .equivalences import SRWRB, RelationKind, check_bisim, relate
from .observables import IN, OUT, strong_barbs, weak_barbs, succ
from .explore import explore, unlabelled
from .semantics import build_fragment, reduce_once
from .syntax import (NIL, Input, Output, Process, _free, alpha_eq, is_async,
                     substitute, substitute_all)
from .text import render_term

PROTOCOL_STEPS = {Boudol: 3, HondaTokoro: 2}
CRITERIA = ("c", "cp", "i", "s", "w", "g")


@dataclass(frozen=True)
class Criterion:
    """Correspondence criterion selector: completeness (c), its weakened
    form (cp), and the soundness ladder (i, s, w, g).  The equivalence
    parameter feeds the target-side comparison where one is allowed."""

    tag: str
    equivalence: Optional[RelationKind] = None

    def __post_init__(self):
        if self.tag not in CRITERIA:
            raise ValueError(f"unknown criterion {self.tag!r}")


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


def inert_steps(p: Process) -> frozenset:
    """All one-step inert reducts of an asynchronous term: a private
    send/receive pair on a restricted channel is consumed, provided the
    channel has no other occurrence afterwards.  Results are canonical;
    matching happens on the normal form with one replication unfolding
    allowed."""
    if not is_async(p):
        raise ValueError("inert reduction is defined on the asynchronous fragment")
    starts = {normalize(p)}
    starts.update(normalize(u) for u in unfold_once(normalize(p)))
    out = set()
    for start in starts:
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
                    out.add(normalize_transient(assemble(rest, others + [received])))
    return frozenset(out)


def _inert_exploration(p: Process, depth: int):
    return explore(normalize(p), unlabelled(inert_steps), depth)


def inert_closure(p: Process, depth: int) -> frozenset:
    """Canonical terms reachable by at most `depth` inert steps."""
    return frozenset(_inert_exploration(p, depth).states)


LEMMA_IDS = ("l1", "l2", "l2star", "pb", "l5", "l6")


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
        reducts = reduce_once(normalize(term))
        inert = inert_steps(term)
        missing = [
            q
            for q in sorted(inert, key=render_term)
            if not any(congruent(q, r, 1) for r in reducts)
        ]
        details["inert_steps"] = len(inert)
        details["missing"] = [render_term(q) for q in missing]
        return CheckReport("lemma-l1", instance, "fail" if missing else "pass", details)

    if lemma_id == "l2":
        violations = []
        checked = 0
        for q in sorted(inert_steps(term), key=render_term):
            for p2 in reduce_once(normalize(term)):
                if congruent(p2, q, 1):
                    continue
                checked += 1
                if not any(
                    congruent(q2, r, 1)
                    for q2 in reduce_once(q)
                    for r in inert_steps(p2)
                ):
                    violations.append((render_term(p2), render_term(q)))
        details["obligations"] = checked
        details["violations"] = violations
        return CheckReport("lemma-l2", instance, "fail" if violations else "pass", details)

    if lemma_id == "l2star":
        violations = []
        closures = [(p2, inert_closure(p2, depth)) for p2 in reduce_once(normalize(term))]
        for q in sorted(inert_closure(term, depth), key=render_term):
            for p2, closure_p2 in closures:
                if q in closure_p2:
                    continue
                if not any(r in closure_p2 for r in reduce_once(q)):
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
        return _completeness_report("lemma-l5", scheme, term, PROTOCOL_STEPS[scheme], instance)

    # l6
    image = encode(scheme, term)
    source_reducts = reduce_once(normalize(term))
    failures = []
    undecided = []
    for q in reduce_once(normalize(image)):
        ex = _inert_exploration(q, depth)
        if not any(
            any(congruent(c, _encode(scheme, p2), 1) for c in ex.states)
            for p2 in source_reducts
        ):
            # a closure cut off by the depth bound may still reach a match
            cut_off = any(inert_steps(ex.states[i]) for i in ex.horizon)
            (undecided if cut_off else failures).append(render_term(q))
    details["failures"] = failures
    details["undecided"] = undecided
    if failures:
        status = "fail"
    elif undecided:
        status = "unknown"
    else:
        status = "pass"
    return CheckReport("lemma-l6", instance, status, details)


# depth of the bisimulation check that matches a reached state to a target
_MATCH_DEPTH = 8


def _completeness_report(check_id, scheme, term, bound, instance, match_related=None):
    reach = build_fragment(encode(scheme, term), bound, universe=None)
    per_reduct = []
    ok = True
    for p2 in reduce_once(normalize(term)):
        target = _encode(scheme, p2)
        hit = None
        for state, d in zip(reach.states, reach.dist):
            if match_related is None:
                matched = congruent(state, target, 1)
            else:
                matched = check_bisim(match_related, state, target, _MATCH_DEPTH).is_related
            if matched:
                hit = d
                break
        per_reduct.append({"reduct": render_term(p2), "path_length": hit})
        if hit is None:
            ok = False
    details = {"reducts": per_reduct, "bound": bound}
    return CheckReport(check_id, instance, "pass" if ok else "fail", details)


def check_completeness(scheme: EncodingScheme, term: Process) -> CheckReport:
    """Operational completeness: every source reduct is reached by the
    translation within the protocol's step budget."""
    bound = PROTOCOL_STEPS[scheme]
    instance = {
        "criterion": "c",
        "scheme": scheme.tag,
        "term": render_term(term),
        "bound": bound,
    }
    return _completeness_report("criterion-c", scheme, term, bound, instance)


def check_soundness(
    criterion: Criterion, scheme: EncodingScheme, term: Process, depth: int
) -> CheckReport:
    """Soundness criteria: every (weak) step of the translation must be
    explained by a source computation, at the criterion's strictness.  A
    target left unmatched is undecided, not a failure, when the bound cut
    off a search for its match: its own tau reach or checks, or the
    source's tau reach."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tag = criterion.tag
    instance = {"criterion": tag, "scheme": scheme.tag, "term": render_term(term), "depth": depth}
    if tag in ("c", "cp"):
        return _completeness_report(
            f"criterion-{tag}",
            scheme,
            term,
            PROTOCOL_STEPS[scheme],
            instance,
            match_related=criterion.equivalence,
        )

    image = encode(scheme, term)
    factor = PROTOCOL_STEPS[scheme]

    if tag == "i":
        failures = []
        for t in reduce_once(normalize(image)):
            if not any(congruent(t, _encode(scheme, s2), 1) for s2 in reduce_once(normalize(term))):
                failures.append(render_term(t))
        status = "fail" if failures else "pass"
        return CheckReport("criterion-i", instance, status, {"failures": failures})

    source = build_fragment(term, depth, universe=None)
    source_images = [_encode(scheme, s) for s in source.states]
    targets = build_fragment(image, factor * depth, universe=None)
    eq = criterion.equivalence or SRWRB
    # g asks one game about every (tau-descendant, source image) pair; w
    # checks each pair alone, so that each match is a `check_bisim` verdict
    # whose relation can be audited
    if tag == "g":
        descendants = [build_fragment(t, factor * depth, universe=None).states
                       for t in targets.states]
        pairs = dict.fromkeys((u, img) for us in descendants for u in us for img in source_images)
        verdicts = dict(zip(pairs, relate(eq, pairs, depth)))
    failures = []
    undecided = []
    for n, t in enumerate(targets.states):
        saw_unknown = False
        matched = False
        if tag == "s":
            reach = build_fragment(t, factor * depth, universe=None)
            matched = any(congruent(u, img, 1) for u in reach.states for img in source_images)
            saw_unknown = not matched and bool(reach.frontier)
        else:  # w matches t itself, g any of its tau-descendants
            for u in (t,) if tag == "w" else descendants[n]:
                for img in source_images:
                    status = verdicts[u, img] if tag == "g" else check_bisim(eq, u, img, depth).status
                    if status == "related":
                        matched = True
                        break
                    saw_unknown = saw_unknown or status == "unknown"
                if matched:
                    break
        if not matched:
            # the source states past the bound may hold a match
            (undecided if saw_unknown or source.frontier else failures).append(render_term(t))
    if failures:
        status = "fail"
    elif undecided or targets.frontier:
        status = "unknown"
    else:
        status = "pass"
    return CheckReport(
        f"criterion-{tag}",
        instance,
        status,
        {"failures": failures, "undecided": undecided, "targets": len(targets.states)},
    )


def check_success_sensitiveness(scheme: EncodingScheme, term: Process, depth: int) -> CheckReport:
    """S reports success weakly iff its translation does; the target search
    is scaled by the protocol factor."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    factor = PROTOCOL_STEPS[scheme]
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
