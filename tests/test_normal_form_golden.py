"""Golden normal forms.

`normal_form_golden.json` pins the rendered `normalize` output of a seeded
corpus with replication, of each term's `T_B` and `T_HT` images and of the
states of their depth-2 fragments, plus the normal forms of symmetric
restriction blocks (cycles and cliques of 2-4 binders) under several
binder permutations.  Every block stays within `_ORDER_CAP` candidate
orders, so the file pins only normal forms that are canonical.  A change
to how the normal form is computed must keep it byte for byte.

Regenerate (only when a normal form is meant to change) with

    PYTHONPATH=src python tests/test_normal_form_golden.py > tests/normal_form_golden.json
"""

import itertools
import json
import sys
from pathlib import Path

from piworkbench.congruence import normalize
from piworkbench.encodings import Boudol, HondaTokoro, encode
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.semantics import build_fragment
from piworkbench.syntax import NIL, Input, Nil, Output, Par, Repl, Restrict, Success
from piworkbench.text import parse_term, render_term

GOLDEN = Path(__file__).with_name("normal_form_golden.json")

CORPUS = GenConfig(seed=8, max_size=10, allow_replication=True, communication_bias=0.6,
                   weights={"output": 3.0, "input": 3.0, "par": 3.0, "restrict": 3.0,
                            "repl": 1.5})
CORPUS_SIZE = 150
DEPTH = 2
SCHEMES = (("source", None), ("T_B", Boudol), ("T_HT", HondaTokoro))
BINDERS = "abcd"
PERMUTATIONS = 4


def _cycle(bs: str) -> list:
    return [f"{b}!{c}" for b, c in zip(bs, bs[1:] + bs[0])]


def _clique(bs: str) -> list:
    return [f"{b}!{c}" for b, c in itertools.permutations(bs, 2)]


def _swaps(bs: str) -> list:
    # disjoint 2-cycles, and a self-loop on the odd binder out
    pairs = [f"{b}!{c} | {c}!{b}" for b, c in zip(bs[::2], bs[1::2])]
    return pairs + [f"{bs[-1]}!{bs[-1]}"] * (len(bs) % 2)


def _input_cycle(bs: str) -> list:
    return [f"{b}?(y).y!{c}" for b, c in zip(bs, bs[1:] + bs[0])]


# (shape, components for the binders, components that pin a binder to a free name)
BLOCKS = (
    ("cycle", _cycle, []),
    ("cycle-anchored", _cycle, ["x!a"]),
    ("clique", _clique, []),
    ("clique-anchored", _clique, ["x?(y).y!a"]),
    ("swaps", _swaps, []),
    ("swaps-anchored", _swaps, ["(nu e)(e!a | x!e)"]),
    ("input-cycle", _input_cycle, []),
)


def _blocks():
    """(case, term text) for every symmetric block and binder permutation."""
    for k in range(2, len(BINDERS) + 1):
        bs = BINDERS[:k]
        for shape, comps, anchors in BLOCKS:
            body = " | ".join(comps(bs) + anchors)
            perms = list(itertools.permutations(bs))
            for order in perms[:: max(1, len(perms) // PERMUTATIONS)][:PERMUTATIONS]:
                prefix = "".join(f"(nu {b})" for b in order)
                yield f"{shape}{k}/{''.join(order)}", f"{prefix}({body})"


def _records() -> list:
    out = []
    for n, term in enumerate(generate_corpus(CORPUS, CORPUS_SIZE)):
        for tag, scheme in SCHEMES:
            p = term if scheme is None else encode(scheme, term)
            frag = build_fragment(p, DEPTH)
            out.append({
                "case": f"corpus{n}/{tag}",
                "term": render_term(p),
                "nf": render_term(normalize(p)),
                "states": [render_term(s) for s in frag.states],
            })
    for case, text in _blocks():
        out.append({"case": case, "term": text,
                    "nf": render_term(normalize(parse_term(text)))})
    return out


def test_normal_forms_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = _records()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_golden_blocks_are_canonical():
    # every permutation of one block has the one recorded normal form
    forms: dict = {}
    for r in json.loads(GOLDEN.read_text()):
        if "states" not in r:
            forms.setdefault(r["case"].split("/")[0], set()).add(r["nf"])
    assert len(forms) == len(BLOCKS) * (len(BINDERS) - 1)
    assert all(len(nfs) == 1 for nfs in forms.values()), forms


def _nested_render(p) -> str:
    """The renderer defined one node at a time, a restriction as its
    binder before the render of its body."""
    def factor(q):
        return f"({_nested_render(q)})" if isinstance(q, Par) else _nested_render(q)

    match p:
        case Nil():
            return "0"
        case Output(c, d, k):
            return f"{c}!{d}" if k == NIL else f"{c}!{d}.{factor(k)}"
        case Input(c, b, k):
            return f"{c}?({b}).{factor(k)}"
        case Restrict(b, body):
            return f"(nu {b}){factor(body)}"
        case Repl(body):
            return f"!{factor(body)}"
        case Par(l, r):
            return f"{_nested_render(l)} | {factor(r)}"
        case Success():
            return "ok"
    raise TypeError(f"not a golden term: {p!r}")


def _subterms(p):
    yield p
    match p:
        case Output(_, _, k) | Input(_, _, k) | Restrict(_, k) | Repl(k):
            yield from _subterms(k)
        case Par(l, r):
            yield from _subterms(l)
            yield from _subterms(r)


def test_block_renders_match_the_nested_definition():
    # `render_term` renders a restriction block in one piece; over every
    # subterm of the golden terms, normal forms and states it renders as
    # the nested definition does
    blocks = 0
    for r in json.loads(GOLDEN.read_text()):
        for text in [r["term"], r["nf"], *r.get("states", ())]:
            for p in _subterms(parse_term(text, allow_reserved=True)):
                assert render_term(p) == _nested_render(p)
                blocks += isinstance(p, Restrict) and isinstance(p.body, Restrict)
    assert blocks > 500


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(r) for r in _records())
    sys.stdout.write(f"[\n{rows}\n]\n")
