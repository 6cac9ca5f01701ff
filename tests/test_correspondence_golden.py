"""Golden correspondence reports.

`correspondence_golden.json` pins the full report (check id, instance,
status and details) of every correspondence criterion under both schemes,
`cp` up to SRWRB, over two seeded corpora, one with replication, at depths
1 and 2; of lemmas `l1` and `l6` over a seeded asynchronous corpus; and of
hand cases: reductions that expose a replication, and match searches
cut off by a bound.  A change to how the criteria match must keep it
byte for byte.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_correspondence_golden.py > tests/correspondence_golden.json
"""

import json
import sys
from pathlib import Path
from unittest import mock

from piworkbench import correspondence
from piworkbench.correspondence import (Criterion, check_completeness, check_lemma,
                                        check_soundness)
from piworkbench.encodings import Boudol, HondaTokoro
from piworkbench.equivalences import SRWRB, Verdict
from piworkbench.harness import GenConfig, _plain, generate_corpus
from piworkbench.text import parse_term

GOLDEN = Path(__file__).with_name("correspondence_golden.json")

SCHEMES = (Boudol, HondaTokoro)
DEPTHS = (1, 2)
PLAIN = GenConfig(seed=5, max_size=8, communication_bias=0.9, allow_replication=False)
REPLICATED = GenConfig(seed=7, max_size=12, communication_bias=0.9,
                       weights={"output": 3.0, "input": 3.0, "par": 3.0, "restrict": 1.5,
                                "repl": 1.5})
ASYNC = GenConfig(seed=51, max_size=10, asynchronous=True, communication_bias=0.8)
CORPUS_SIZE = 10
COMM = "x!z | x?(y).0"


def _criteria(term, scheme):
    """Every criterion report of term under scheme, `c` once and the
    others at each depth."""
    yield check_completeness(scheme, term)
    for depth in DEPTHS:
        for crit in (Criterion("cp", SRWRB), *map(Criterion, "iswg")):
            yield check_soundness(crit, scheme, term, depth)


def _hand_cases():
    # reductions that expose a replication
    for text in ("x!z | x?(y).!y!a", "!x?(y).y!a | x!b", "(nu c)(c!a | c?(b).!b?(d).d!b) | a!x"):
        for scheme in SCHEMES:
            yield from _criteria(parse_term(text), scheme)
    # l6's inert closure reaches the reduct's image in two steps
    for depth in (1, 4):
        yield check_lemma("l6", parse_term(COMM), depth=depth)
    # a match past the source bound at depth 1, found at depth 2
    term = parse_term("c!a.(b?(a).0 | b!a) | c?(c).0")
    for scheme in SCHEMES:
        for depth in DEPTHS:
            for tag in "swg":
                yield check_soundness(Criterion(tag), scheme, term, depth)
    # a w report left undecided, under two spellings of its names
    for text in ("z!e.(z?(e).z?(e).0 | z!s.z!e) | z?(e).z!e.(0 | ok)",
                 "l!b.(l?(b).l?(b).0 | l!c.l!b) | l?(b).l!b.(0 | ok)"):
        yield check_soundness(Criterion("w"), HondaTokoro, parse_term(text), 4)
    bang = parse_term("!(x!a | x?(y).0)")
    for tag in "wg":
        yield check_soundness(Criterion(tag), Boudol, bang, 1)
    # cp match checks that all say unknown, or all not_related
    for status in ("unknown", "not_related"):
        with mock.patch.object(correspondence, "check_bisim", lambda *a: Verdict(status)):
            for scheme in SCHEMES:
                yield check_soundness(Criterion("cp", SRWRB), scheme, parse_term(COMM), 2)


def _reports():
    for cfg in (PLAIN, REPLICATED):
        for term in generate_corpus(cfg, CORPUS_SIZE):
            for scheme in SCHEMES:
                yield from _criteria(term, scheme)
    for term in generate_corpus(ASYNC, CORPUS_SIZE):
        yield check_lemma("l1", term)
        for scheme in SCHEMES:
            for depth in DEPTHS:
                yield check_lemma("l6", term, depth, scheme)
    yield from _hand_cases()


def _records() -> list:
    return [_plain({"check_id": r.check_id, "instance": r.instance, "status": r.status,
                    "details": r.details}) for r in _reports()]


def test_correspondence_reports_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = _records()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(r, sort_keys=True) for r in _records())
    sys.stdout.write(f"[\n{rows}\n]\n")
