import pytest

from piworkbench.congruence import normalize
from piworkbench.encodings import Boudol, HondaTokoro, encode
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.observables import (CHAN, IN, OUT, Barb, strong_barbs, succ,
                                     weak_barbs)
from piworkbench.semantics import (BoundOutput, FreeOutput, InputLab,
                                   _steps, default_universe)
from piworkbench.syntax import Name
from piworkbench.text import parse_term, render_term

x = Name("x")


def test_output_prefix_barb():
    assert strong_barbs(parse_term("x!z.y?(q).0")) == {Barb(OUT, x), Barb(CHAN, x)}


def test_ht_image_swaps_to_input_barb():
    got = strong_barbs(encode(HondaTokoro, parse_term("x!z")))
    assert got == {Barb(IN, x), Barb(CHAN, x)}


def test_nil_has_no_barbs():
    assert strong_barbs(parse_term("0")) == frozenset()
    with pytest.raises(TypeError, match="not a process"):
        strong_barbs(x)


def test_restriction_blocks_channel():
    assert strong_barbs(parse_term("(nu x)x!a")) == frozenset()
    got = strong_barbs(parse_term("x!a | (nu x)x?(q).0"))
    assert got == {Barb(OUT, x), Barb(CHAN, x)}


def test_replication_does_not_guard():
    assert Barb(OUT, x) in strong_barbs(parse_term("!(x!a)"))


def test_success_barb_top_level_unguarded():
    assert succ() in strong_barbs(parse_term("ok | x!a"))
    assert succ() in strong_barbs(parse_term("(nu y)(ok)"))
    assert succ() in strong_barbs(parse_term("!(ok)"))
    assert succ() not in strong_barbs(parse_term("x!a.ok"))
    assert succ() not in strong_barbs(parse_term("x?(y).ok"))


def test_weak_barbs_ht_image_never_output():
    barbs, exhaustive = weak_barbs(encode(HondaTokoro, parse_term("x!z")), 8)
    assert exhaustive
    assert Barb(IN, x) in barbs
    assert Barb(OUT, x) not in barbs


def test_weak_barbs_reaches_success():
    barbs, _ = weak_barbs(parse_term("x!z | x?(y).(ok | 0)"), 2)
    assert succ() in barbs


def test_weak_barbs_nil():
    assert weak_barbs(parse_term("0"), 3) == (frozenset(), True)


def _corpus(seed, **kw):
    cfg = GenConfig(seed=seed, max_size=10, communication_bias=0.5,
                    insert_success_probability=0.2, **kw)
    return generate_corpus(cfg, 60)


def test_lemma_barbs_boudol_preserves_io_barbs():
    for term in _corpus(31):
        want = {b for b in strong_barbs(term) if b.kind in (IN, OUT)}
        have = {b for b in strong_barbs(encode(Boudol, term)) if b.kind in (IN, OUT)}
        assert want == have, render_term(term)


def test_channel_barbs_preserved_by_ht():
    for term in _corpus(32):
        want = {b for b in strong_barbs(term) if b.kind == CHAN}
        have = {b for b in strong_barbs(encode(HondaTokoro, term)) if b.kind == CHAN}
        assert want == have, render_term(term)


def test_success_barb_preserved_exactly_by_both():
    for term in _corpus(33):
        has = succ() in strong_barbs(term)
        for scheme in (Boudol, HondaTokoro):
            assert (succ() in strong_barbs(encode(scheme, term))) == has


def test_barbs_invariant_under_normalization():
    for term in _corpus(34):
        assert strong_barbs(normalize(term)) == strong_barbs(term)


def test_barbs_agree_with_lts_characterization():
    # In(x) iff an input transition on x, Out(x) iff a free or bound
    # output transition on x
    for term in _corpus(35, allow_replication=False):
        steps = _steps(term, default_universe(term))
        ins = {lab.chan for lab, _ in steps if isinstance(lab, InputLab)}
        outs = {
            lab.chan
            for lab, _ in steps
            if isinstance(lab, (FreeOutput, BoundOutput))
        }
        got = strong_barbs(term)
        assert {b.chan for b in got if b.kind == IN} == ins, render_term(term)
        assert {b.chan for b in got if b.kind == OUT} == outs, render_term(term)
        assert {b.chan for b in got if b.kind == CHAN} == ins | outs


def test_chan_barb_consistency():
    for term in _corpus(36):
        got = strong_barbs(term)
        io = {b.chan for b in got if b.kind in (IN, OUT)}
        chan = {b.chan for b in got if b.kind == CHAN}
        assert chan == io
