"""Command-line surface: parsing, encoding, LTS exploration, barbs,
equivalence checks, corpus validation, correspondence criteria and lemma
instances.

Exit codes: 0 all pass, 1 at least one failure, 2 unknowns but no
failure, 3 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .congruence import normalize
from .correspondence import CRITERIA, LEMMA_IDS, check_lemma
from .encodings import encode, scheme_from_string
from .equivalences import KINDS, RelationKind, check_bisim
from .harness import (CHECKS, CheckSpec, GenConfig, Limits, SuiteReport,
                      generate_corpus, run_suite)
from .memo import job
from .observables import strong_barbs, weak_barbs
from .semantics import (LtsFragment, Tau, build_fragment, default_universe,
                        render_label)
from .text import ParseError, parse_term, render_term

# the CLI names of the two schemes, as `scheme_from_string` reads them
SCHEMES = ("boudol", "ht")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def export_dot(frag: LtsFragment) -> str:
    """Deterministic GraphViz rendering of a fragment: one node per state
    (frontier dashed), one edge per transition."""
    lines = ["digraph lts {"]
    for i, state in enumerate(frag.states):
        label = render_term(state).replace("\\", "\\\\").replace('"', '\\"')
        style = ', style="dashed"' if i in frag.frontier else ""
        lines.append(f'  n{i} [label="{label}"{style}];')
    for src, lab, dst in sorted(
        frag.transitions, key=lambda e: (e[0], render_label(e[1]), e[2])
    ):
        lines.append(f'  n{src} -> n{dst} [label="{render_label(lab)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _read_term(path: str, allow_reserved: bool):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_term(fh.read(), allow_reserved=allow_reserved)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _emit_report(report: SuiteReport) -> int:
    """Print a report envelope; the exit code follows its summary."""
    _emit(report.to_dict())
    if report.failed:
        return EXIT_FAIL
    if report.unknown:
        return EXIT_UNKNOWN
    return EXIT_PASS


def _cmd_parse(args) -> int:
    term = _read_term(args.file, args.allow_reserved)
    print(render_term(normalize(term) if args.normalize else term))
    return EXIT_PASS


def _cmd_encode(args) -> int:
    term = _read_term(args.file, allow_reserved=False)
    print(render_term(encode(scheme_from_string(args.scheme), term)))
    return EXIT_PASS


def _cmd_lts(args) -> int:
    term = _read_term(args.file, args.allow_reserved)
    if args.fresh < 1:
        raise ValueError("--fresh must be >= 1")
    universe = None if args.labels == "tau" else default_universe(normalize(term), args.fresh)
    frag = build_fragment(term, args.depth, universe=universe)
    taus = sum(1 for _, a, _ in frag.transitions if isinstance(a, Tau))
    print(
        f"states {len(frag.states)} edges {len(frag.transitions)} "
        f"tau {taus} frontier {len(frag.frontier)}"
    )
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(frag))
    return EXIT_PASS


def _cmd_barbs(args) -> int:
    term = _read_term(args.file, args.allow_reserved)
    if args.weak:
        barbs, exhaustive = weak_barbs(term, args.depth)
        for b in sorted(barbs):
            print(b)
        if not exhaustive:
            print("# weak-barb search not exhaustive at this depth")
            return EXIT_UNKNOWN
        return EXIT_PASS
    for b in sorted(strong_barbs(term)):
        print(b)
    return EXIT_PASS


def _cmd_check(args) -> int:
    lhs = _read_term(args.lhs, args.allow_reserved)
    rhs = _read_term(args.rhs, args.allow_reserved)
    kind = RelationKind(args.kind, args.div, args.branching)
    verdict = check_bisim(kind, lhs, rhs, args.depth)
    doc = {
        "kind": args.kind,
        "divergence_preserving": args.div,
        "branching": args.branching,
        "depth": args.depth,
        "lhs": render_term(lhs),
        "rhs": render_term(rhs),
        "verdict": verdict.status,
        "approximations": list(verdict.approximations),
    }
    if verdict.is_related:
        doc["relation_size"] = len(verdict.relation)
    if verdict.witness is not None:
        doc["witness"] = verdict.witness.describe()
    if verdict.reason:
        doc["reason"] = verdict.reason
    _emit(doc)
    return {"related": EXIT_PASS, "not_related": EXIT_FAIL, "unknown": EXIT_UNKNOWN}[
        verdict.status
    ]


def _cmd_validate(args) -> int:
    cfg = GenConfig(
        seed=args.corpus_seed,
        max_size=args.max_size,
        allow_replication=not args.no_replication,
        insert_success_probability=args.success_probability,
        communication_bias=args.communication_bias,
    )
    corpus = generate_corpus(cfg, args.corpus_size)
    spec = CheckSpec(
        check_id=f"validate-{args.kind}-{args.scheme}",
        kind="bisim-validity",
        params={"scheme": args.scheme, "relation": args.kind, "depth": args.depth},
    )
    config = {
        "command": "validate",
        "scheme": args.scheme,
        "kind": args.kind,
        "depth": args.depth,
        "corpus_seed": args.corpus_seed,
        "corpus_size": args.corpus_size,
        "max_size": args.max_size,
        "no_replication": args.no_replication,
        "success_probability": args.success_probability,
        "communication_bias": args.communication_bias,
    }
    return _emit_report(run_suite(corpus, [spec], Limits(depth=args.depth), config))


def _cmd_correspondence(args) -> int:
    term = _read_term(args.file, allow_reserved=False)
    scheme = scheme_from_string(args.scheme)
    rep = CHECKS["criterion"](term, scheme, args.depth, {"criterion": args.criterion})
    config = {"command": "correspondence", "criterion": args.criterion,
              "scheme": args.scheme, "depth": args.depth}
    return _emit_report(SuiteReport((rep,), config))


def _cmd_lemma(args) -> int:
    term = _read_term(args.file, args.allow_reserved)
    rep = check_lemma(args.id, term, args.depth, scheme_from_string(args.scheme))
    config = {"command": "lemma", "id": args.id, "scheme": args.scheme, "depth": args.depth}
    return _emit_report(SuiteReport((rep,), config))


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="piwb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term and print it back")
    p.add_argument("file")
    p.add_argument("--allow-reserved", action="store_true")
    p.add_argument("--normalize", action="store_true",
                   help="print the congruence normal form")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("encode", help="translate a source term")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("lts", help="bounded transition-system fragment")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--labels", choices=["tau", "all"], default="all")
    p.add_argument("--fresh", type=int, default=1, help="fresh universe names")
    p.add_argument("--dot", help="write a GraphViz file")
    p.add_argument("--allow-reserved", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_lts)

    p = sub.add_parser("barbs", help="strong (or weak) barbs of a term")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--allow-reserved", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_barbs)

    p = sub.add_parser("check", help="equivalence check between two terms")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--div", action="store_true", help="divergence preserving")
    p.add_argument("--branching", action="store_true")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--allow-reserved", action="store_true")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("validate", help="encoding validity over a generated corpus")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--corpus-seed", type=int, required=True)
    p.add_argument("--corpus-size", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--no-replication", action="store_true")
    p.add_argument("--success-probability", type=float, default=0.0)
    p.add_argument("--communication-bias", type=float, default=0.0)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("correspondence", help="operational-correspondence criterion")
    p.add_argument("--criterion", required=True, choices=CRITERIA)
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_correspondence)

    p = sub.add_parser("lemma", help="evaluate a supporting lemma on an instance")
    p.add_argument("--id", required=True, choices=LEMMA_IDS)
    p.add_argument("--scheme", default="boudol", choices=SCHEMES)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--allow-reserved", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_lemma)

    return top


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.fn is _cmd_validate:  # `run_suite` opens one job per corpus term
            return args.fn(args)
        with job():
            return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
