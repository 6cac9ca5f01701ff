import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracle import enum_terms, oracle_classes, scramble, size
from piworkbench.congruence import (_canon, _level_names, _normalize, congruent, normalize,
                                    unfold_once, variants)
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.syntax import NIL, Name, _free, substitute_all
from piworkbench.text import parse_term, render_term


def test_par_unit_dropped():
    p = parse_term("x!a.y?(q).0 | 0")
    assert normalize(p) == normalize(parse_term("x!a.y?(q).0"))


def test_restrict_over_nil_dropped():
    assert normalize(parse_term("(nu y)0")) == NIL


def test_scope_extrusion_same_normal_form():
    # w not in n(P): (nu w)(P | Q) and P | (nu w)Q coincide
    lhs = parse_term("(nu w)(x!a | w?(q).q!b)")
    rhs = parse_term("x!a | (nu w)w?(q).q!b")
    assert normalize(lhs) == normalize(rhs)


def test_commutativity_and_associativity():
    terms = ["x!a | (y!b | z!c)", "(z!c | y!b) | x!a", "y!b | (x!a | z!c)"]
    forms = {normalize(parse_term(t)) for t in terms}
    assert len(forms) == 1


def test_unused_restriction_dropped():
    assert normalize(parse_term("(nu q)(x!a)")) == normalize(parse_term("x!a"))


def test_congruent_replication_unfold():
    p = parse_term("!(x!a)")
    q = parse_term("x!a | !(x!a)")
    assert normalize(p) != normalize(q)
    assert congruent(p, q)


def test_congruent_reflexive_budget_zero():
    p = parse_term("!(x!a | y?(q).0)")
    assert normalize(p) == normalize(p)


def test_congruent_distinct_free_usage():
    assert normalize(parse_term("x!a")) != normalize(parse_term("a!x"))


def test_normalize_idempotent_examples():
    for t in [
        "x!a | (0 | (nu q)(q!b | q?(r).r!c))",
        "!(x?(y).(y!a | 0)) | (nu w)0",
        "(nu a)(nu b)(a!b | b!a | x?(q).(nu c)(c!q | q!c))",
    ]:
        n = normalize(parse_term(t))
        assert normalize(n) == n


def test_unfold_once_positions():
    cases = {
        "!(x!a) | y?(q).!(q!b)": {
            "x!a | !x!a | y?(q).!q!b",
            "!x!a | y?(q).(q!b | !q!b)",
        },
        # nested: the outer node, and the inner one under the outer
        "!(x!a | !y!b)": {
            "x!a | !y!b | !(x!a | !y!b)",
            "!(x!a | (y!b | !y!b))",
        },
        # under a restriction on the right side of a |
        "z!c | (nu r)(r?(q).0 | !(r!q))": {"z!c | (nu r)(r?(q).0 | (r!q | !r!q))"},
        "x?(y).y!a": set(),
    }
    for text, want in cases.items():
        assert {render_term(u) for u in unfold_once(parse_term(text))} == want, text


# seeded replicated terms, for the laws of matching up to one unfolding
REPLICATED = [t for t in generate_corpus(GenConfig(seed=23, max_size=10, communication_bias=0.5), 200)
              if unfold_once(t)]


def test_variants_are_the_normal_forms_within_one_unfolding():
    assert len(REPLICATED) >= 20
    for t in REPLICATED:
        want = {normalize(t)} | {normalize(u) for u in unfold_once(t)}
        assert variants((t,)) == want, render_term(t)
        assert variants((t, NIL)) == variants((t,)) | {NIL}


def test_congruent_is_symmetric():
    for p in REPLICATED[:30]:
        for q in [p, *unfold_once(p), *REPLICATED[:30]]:
            assert congruent(p, q) == congruent(q, p), (render_term(p), render_term(q))


def test_congruent_to_each_one_step_unfolding():
    for t in REPLICATED:
        for u in unfold_once(t):
            assert congruent(t, u), (render_term(t), render_term(u))


def test_fn_preserved_by_normalize():
    rng = random.Random(7)
    pool = [Name(c) for c in "ab"]
    for t in enum_terms(4, pool):
        assert _free(normalize(t)) == _free(t)


def test_normalize_idempotent_on_protocol_states():
    # every canonical state reachable inside encoded protocols must be a
    # fixpoint of normalize (regression: binder-order signatures used to
    # depend on the pre-canonical presentation)
    from piworkbench.encodings import Boudol, HondaTokoro, encode
    from piworkbench.harness import GenConfig, generate_corpus
    from piworkbench.semantics import build_fragment

    cfg = GenConfig(seed=77, max_size=8, allow_replication=False,
                    communication_bias=0.8)
    for t in generate_corpus(cfg, 20):
        for scheme in (Boudol, HondaTokoro):
            frag = build_fragment(encode(scheme, t), 6, universe=None)
            for s in frag.states:
                assert normalize(s) == s, render_term(s)


# restriction binders that a level's components name alike, each with its
# alpha-variant over fresh user names: siblings that reuse one binder name,
# a binder that shadows an outer one, binders spelled like level names
ALPHA_VARIANTS = [
    ("(nu a)(a!x) | (nu a)(a?(y).y!a)", "(nu a)(a!x) | (nu b)(b?(y).y!b)"),
    ("(nu a)(a!b | a!a) | (nu a)(a!b | a?(c).c!a) | (nu a)(a!a)",
     "(nu u)(u!b | u!u) | (nu v)(v!b | v?(c).c!v) | (nu w)(w!w)"),
    ("(nu a)(a!b | (nu a)(a!b | a?(c).c!a))", "(nu a)(a!b | (nu d)(d!b | d?(c).c!d))"),
    ("x?(a).((nu a)(a!x | a?(c).c!a) | a!x)", "x?(a).((nu d)(d!x | d?(c).c!d) | a!x)"),
    ("(nu a)(a?(z).(nu %r0)(%r0!a | %r0?(q).q!z) | a!x)",
     "(nu a)(a?(z).(nu u)(u!a | u?(q).q!z) | a!x)"),
    ("(nu %r0)(nu %r1)(%r0!%r1 | %r1?(c).c!%r0) | x!y",
     "(nu u)(nu v)(u!v | v?(c).c!u) | x!y"),
    ("(nu %r1)(nu %r0)(%r0!%r1 | %r1!%r0 | %r0!%r0)",
     "(nu v)(nu u)(u!v | v!u | u!u)"),
    ("(nu %r1)(x!%r1 | (nu %r0)(%r0!%r1 | %r0?(q).q!x)) | %r0!%r1",
     "(nu u)(x!u | (nu v)(v!u | v?(q).q!x)) | %r0!%r1"),
    ("(nu %r0)(nu %r1)(nu %r2)(%r0!%r1 | %r1!%r2 | %r2!%r0 | %r0?(c).%r2!c)",
     "(nu u)(nu v)(nu w)(u!v | v!w | w!u | u?(c).w!c)"),
    # normal forms of this shape, read back as terms: a component's own
    # binder spelled like a level name must not shift its signature
    ("(nu %r0)(nu %r1)(%r0?(%r2).%r2!%r0 | %r1?(%r2).0 | w!b | c!%r1)",
     "(nu u)(nu v)(u?(y).y!u | v?(y).0 | w!b | c!v)"),
    ("(nu %r0)(nu %r1)(nu %r2)(%r1?(%r3).%r3!%r0 | %r2?(%r3).0 | w!%r2 | b!%r1)",
     "(nu u)(nu v)(nu t)(v?(y).y!u | t?(y).0 | w!t | b!v)"),
]


def test_normalize_invariant_under_scrambling():
    rng = random.Random(99)
    corpus = [
        "x!a | y?(q).(q!b | 0)",
        "(nu w)(w!a | w?(q).q!b) | x!c",
        "!(x!a) | (nu q)(q?(r).0 | q!x)",
        "x?(y).(nu w)(w!y | w?(v).v!y)",
    ]
    for t, variant in [(t, t) for t in corpus] + ALPHA_VARIANTS:
        p = parse_term(t, allow_reserved=True)
        want = normalize(parse_term(variant, allow_reserved=True))
        assert normalize(p) == want, t
        for _ in range(5):
            q = scramble(p, rng)
            assert normalize(q) == want, render_term(q)


def test_congruent_agrees_with_rewrite_closure_oracle():
    # exhaustive rewrite closure over a bounded universe: seeds are raw
    # (non-canonical) small terms, classes come from the axioms alone
    pool = [Name(c) for c in "ab"]
    rng = random.Random(3)
    seeds = []
    seen = set()
    for t in enum_terms(3, pool):
        variants = [t] + [scramble(t, rng, steps=2) for _ in range(2)]
        for variant in variants:
            if size(variant) <= 5 and variant not in seen:
                seen.add(variant)
                seeds.append(variant)
    classes = oracle_classes(seeds, size_cap=5, pool=pool + [Name("spare1")])
    agree_true = agree_false = 0
    for i, p in enumerate(seeds):
        for q in seeds[i + 1 :]:
            got = normalize(p) == normalize(q)
            want = classes[p] == classes[q]
            assert got == want, (render_term(p), render_term(q), got, want)
            agree_true += got
            agree_false += not got
    assert agree_true >= 30
    assert agree_false >= 1000


def test_congruent_true_on_scrambled_larger_terms():
    # the scramble path is itself an axiom derivation, so these pairs are
    # congruent by construction
    rng = random.Random(11)
    for t in [
        "x!a | (nu w)(w!b | w?(q).(q!a | 0)) | y?(r).r!x",
        "!(x?(y).y!a) | z!b | (nu c)(c!z | c?(d).d!z)",
    ]:
        p = parse_term(t)
        for _ in range(8):
            q = scramble(p, rng, steps=8)
            assert normalize(p) == normalize(q)


def test_canon_under_a_renaming_renders_as_the_renamed_normal_form():
    # the law that restriction-block refinement reads its signatures by:
    # `_canon` under a renaming, skipping the level names it brings in,
    # renders like the normal form of the renamed term
    rng = random.Random(41)
    # user names (some also bound in the terms), level names and the
    # markers that blind restriction binders
    targets = ([Name(c) for c in "abx"]
               + [Name(f"r{i}", reserved=True) for i in range(2)]
               + [Name(m, reserved=True) for m in ("s#", "g0#", "g1#")])
    cfg = GenConfig(seed=41, max_size=12, allow_replication=True, communication_bias=0.5,
                    weights={"output": 2.0, "input": 4.0, "par": 2.0, "restrict": 4.0,
                             "repl": 0.5})
    terms = [t for t in generate_corpus(cfg, 150) if _free(t)]
    terms += [normalize(t) for t in terms]
    checked = captures = 0
    for p in terms:
        free = sorted(_free(p))
        for _ in range(4):
            env = tuple((n, rng.choice(targets)) for n in free)
            skip = _level_names(p, env)
            got = render_term(_canon(p, env, 0, skip))
            want = render_term(_normalize(substitute_all(p, dict(env))))
            assert got == want, (render_term(p), env)
            checked += 1
            captures += render_term(_canon(p, env, 0, frozenset())) != want
    assert checked >= 800
    # the corpus exercises the skip set: without it, binders capture
    assert captures >= 50


def _temp_named_normal_forms() -> list:
    """Normal forms of `(nu a)(x!a) | y!%tmpN` for N = 0..5, each after an
    unrelated normalization."""
    out = []
    for n in range(6):
        normalize(parse_term(f"q{n}?(c).c!a | z!b"))
        term = parse_term(f"(nu a)(x!a) | y!%tmp{n}", allow_reserved=True)
        out.append(render_term(normalize(term)))
    return out


def test_normal_form_temps_never_capture_free_names():
    want = [f"(nu %r0)(x!%r0 | y!%tmp{n})" for n in range(6)]
    assert _temp_named_normal_forms() == want
    # the same in a fresh interpreter, where no earlier call has run
    code = ("import json, test_congruence; "
            "print(json.dumps(test_congruence._temp_named_normal_forms()))")
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert json.loads(out) == want


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2, order-cap defect: past _ORDER_CAP "
                   "candidate orders the restriction block keeps its presentation order")
def test_five_binder_cycle_congruent_under_binder_permutation():
    body = "(a!b | b!c | c!d | d!e | e!a)"
    p = parse_term("(nu a)(nu b)(nu c)(nu d)(nu e)" + body)
    q = parse_term("(nu a)(nu b)(nu c)(nu e)(nu d)" + body)
    assert normalize(p) == normalize(q)
