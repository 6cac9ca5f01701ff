"""Golden verdicts of the bisimulation engine.

`engine_golden.json` pins the status and the full witness of every check in
a seeded corpus: each term against its `T_B` and `T_HT` image under all
seven kinds, plain and divergence-preserving (and branching for the
reduction-based kinds), plus fixed cases such as the `x!z` counterexamples
and the ewb anchor.  The file was recorded with the eager engine that
built obligations for every pair of the two fragments; the on-the-fly
engine must reproduce it byte for byte.

Regenerate (only when a verdict is meant to change) with

    PYTHONPATH=src python tests/test_engine_golden.py > tests/engine_golden.json
"""

import json
import sys
from pathlib import Path

from piworkbench.encodings import Boudol, HondaTokoro, encode
from piworkbench.equivalences import KINDS, RelationKind, _build_engine, check_bisim
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.semantics import Label, render_label
from piworkbench.text import parse_term, render_term

GOLDEN = Path(__file__).with_name("engine_golden.json")

CORPUS = GenConfig(seed=2024, max_size=5, allow_replication=False,
                   communication_bias=0.8, insert_success_probability=0.2)
CORPUS_SIZE = 12
DEPTH = 5
SCHEMES = (("boudol", Boudol), ("ht", HondaTokoro))

# (kind, divergence-preserving, branching, depth, left, right)
FIXED = (
    ("ewb", False, False, 8, "x!z", "T_B"),
    ("wot", False, False, 8, "x!z", "T_B"),
    ("awbb", False, False, 8, "x!z", "T_HT"),
    ("wbb", False, False, 8, "x!z", "T_HT"),
    ("ewb", False, False, 4, "b!b.b!b | b?(c).c!b | b?(c).c!a.c!b", "T_B"),
    ("wab", False, False, 6, "0", "x?(y).x!y"),
    ("ewb", False, False, 6, "0", "x?(y).x!y"),
    ("srwrb", False, False, 6, "(nu q)(q!a | q?(r).0)", "!(x!a | x?(y).0)"),
    ("srwrb", True, False, 6, "(nu q)(q!a | q?(r).0)", "!(x!a | x?(y).0)"),
    ("wbb", True, True, 6, "!(x!a | x?(y).0)", "!(x!a | x?(y).0) | x!a"),
    ("wot", False, False, 6, "x!a | x?(y).0", "x!a.x?(y).0"),
    ("ewb", True, False, 6, "x!a | x?(y).0", "x!a.x?(y).0"),
    # its witness depends on the order in which removals reach the pairs
    ("wab", False, False, 6, "a?(b).(a!b.a!b.b?(a).ok | a?(a).0)", "T_HT"),
)


def _variants():
    for kind in KINDS:
        for div in (False, True):
            yield RelationKind(kind, divergence_preserving=div)
            if kind in ("wbb", "awbb", "wcb", "srwrb"):
                yield RelationKind(kind, divergence_preserving=div, branching=True)


def _cases():
    """(name, kind, left, right, depth) for every pinned check."""
    terms = generate_corpus(CORPUS, CORPUS_SIZE)
    for n, term in enumerate(terms):
        for tag, scheme in SCHEMES:
            image = encode(scheme, term)
            for rk in _variants():
                yield f"corpus{n}/{tag}", rk, term, image, DEPTH
    for kind, div, br, depth, left, right in FIXED:
        p = parse_term(left)
        images = {"T_B": encode(Boudol, p), "T_HT": encode(HondaTokoro, p)}
        q = images[right] if right in images else parse_term(right)
        yield f"{left} ~ {right}", RelationKind(kind, div, br), p, q, depth


def _record(name, rk, p, q, depth) -> dict:
    v = check_bisim(rk, p, q, depth)
    out = {
        "case": name,
        "kind": rk.kind,
        "div": rk.divergence_preserving,
        "branching": rk.branching,
        "depth": depth,
        "left": render_term(p),
        "right": render_term(q),
        "status": v.status,
    }
    if v.witness is not None:
        w = v.witness
        out["witness"] = {
            "describe": w.describe(),
            "category": w.category,
            "side": w.side,
            "label": w.label,
            "near_miss": list(w.near_miss),
            "pair": list(w.pair),
            "steps": [[s.side, s.label] for s in w.steps],
        }
    return out


def _records() -> list:
    return [_record(*case) for case in _cases()]


def test_engine_matches_golden_records():
    want = json.loads(GOLDEN.read_text())
    got = _records()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


def test_golden_corpus_covers_every_status_and_category():
    want = json.loads(GOLDEN.read_text())
    assert {r["status"] for r in want} == {"related", "not_related", "unknown"}
    categories = {r["witness"]["category"] for r in want if "witness" in r}
    assert categories == {"input-move", "output-move", "barb", "divergence"}


def test_witness_steps_reach_their_pair_by_a_shortest_path():
    # for each `not_related` case: from the two roots, the states the
    # witness's steps can lead to, a side at a time, include its rendered
    # pair, and no shorter sequence of moves reaches that pair, whose sides'
    # distances add up to the number of steps
    replayed = moved = 0
    for name, rk, p, q, depth in _cases():
        witness = check_bisim(rk, p, q, depth).witness
        if witness is None:
            continue
        eng = _build_engine(rk, [(p, q)], depth)
        reached = {"left": {0}, "right": {0}}
        frags = {"left": eng.fa, "right": eng.fb}
        for step in witness.steps:
            out = frags[step.side].out
            reached[step.side] = {t for s in reached[step.side] for a, t in out[s]
                                  if render_label(a) == step.label}
        dist = 0
        for side, term in zip(("left", "right"), witness.pair):
            frag = frags[side]
            (k,) = [k for k, s in enumerate(frag.states) if render_term(s) == term]
            assert k in reached[side], (name, side)
            dist += frag.dist[k]
        assert dist == len(witness.steps), name
        replayed += 1
        moved += dist > 0
    assert replayed > 100 and moved > 10, (replayed, moved)


def test_every_move_label_is_the_interned_instance():
    # the fragments a label kind plays over, once per pinned pair of terms
    pairs = {}
    for _, _, p, q, depth in _cases():
        pairs.setdefault((p, q), depth)
    kinds = set()
    for (p, q), depth in pairs.items():
        eng = _build_engine(RelationKind("ewb"), [(p, q)], depth)
        for moves in (*eng.fa.out, *eng.fb.out):
            for a, _ in moves:
                fields = tuple(getattr(a, f) for f in type(a).__match_args__)
                assert type(a)(*fields) is a
                kinds.add(type(a))
    assert kinds == set(Label.__args__)


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(r) for r in _records())
    sys.stdout.write(f"[\n{rows}\n]\n")
