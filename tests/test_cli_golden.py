"""Golden output of pinned `piwb` invocations.

`cli_golden.json` holds, for every case below, the exact stdout and exit
code of `piwb` (and the GraphViz file an `lts --dot` case writes).  It
covers every subcommand, every correspondence criterion, every lemma id and
all three verdicts of `check` over label and reduction kinds.  Refactors of
the exploration and report code must keep it byte for byte.

Regenerate (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from piworkbench.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

SRC = "x!z | x?(y).0"
XZ = "x!z"
XZ_TB = "(nu u)(x!u | u?(v).(v!z | 0))"
ASYNC = "(nu v)(v!a | v?(q).q!b)"
BANG = "!(x!a | x?(y).0)"

# (case name, {file name: term text}, argv)
CASES = (
    ("parse", {"t.pi": "x!z | (nu a)(a!b.0 | 0)"}, ["parse", "t.pi"]),
    ("parse-normalize", {"t.pi": "(nu a)(x!a | (nu b)(b!a | y?(c).c!b)) | 0"},
     ["parse", "--normalize", "t.pi"]),
    ("parse-normalize-symmetric", {"t.pi": "(nu b)(nu a)(a!b | b!a) | (nu c)(c!c)"},
     ["parse", "--normalize", "t.pi"]),
    ("parse-error", {"t.pi": "x!!z"}, ["parse", "t.pi"]),
    ("encode-boudol", {"t.pi": "x!z | x?(y).y!w"}, ["encode", "--scheme", "boudol", "t.pi"]),
    ("encode-ht", {"t.pi": "x!z | x?(y).y!w"}, ["encode", "--scheme", "ht", "t.pi"]),
    ("lts-all-dot", {"t.pi": XZ_TB},
     ["lts", "--depth", "3", "--labels", "all", "--fresh", "2", "--dot", "out.dot", "t.pi"]),
    ("lts-tau-dot", {"t.pi": BANG},
     ["lts", "--depth", "2", "--labels", "tau", "--dot", "out.dot", "t.pi"]),
    ("lts-inputs", {"t.pi": "x?(y).y?(z).z!y | x!a"},
     ["lts", "--depth", "3", "--labels", "all", "--fresh", "2", "t.pi"]),
    ("barbs-strong", {"t.pi": "x!z | y?(q).ok | (nu c)(c!a)"}, ["barbs", "t.pi"]),
    ("barbs-weak", {"t.pi": ASYNC + " | (nu c)(c!a | c?(d).ok)"},
     ["barbs", "--weak", "--depth", "4", "t.pi"]),
    ("barbs-weak-open", {"t.pi": BANG + " | z?(b).ok"},
     ["barbs", "--weak", "--depth", "2", "t.pi"]),
    ("check-wbb-related", {"a.pi": XZ, "b.pi": XZ_TB},
     ["check", "--kind", "wbb", "--depth", "8", "a.pi", "b.pi"]),
    ("check-ewb-not-related", {"a.pi": XZ, "b.pi": XZ_TB},
     ["check", "--kind", "ewb", "--depth", "8", "a.pi", "b.pi"]),
    ("check-wot-not-related", {"a.pi": XZ, "b.pi": XZ_TB},
     ["check", "--kind", "wot", "--depth", "8", "a.pi", "b.pi"]),
    ("check-wab-related", {"a.pi": "0", "b.pi": "x?(y).x!y"},
     ["check", "--kind", "wab", "--depth", "6", "a.pi", "b.pi"]),
    ("check-ewb-related", {"a.pi": "x!a | x?(y).0", "b.pi": "x?(y).0 | x!a"},
     ["check", "--kind", "ewb", "--depth", "6", "a.pi", "b.pi"]),
    ("check-ewb-identical-nf", {"a.pi": "x?(y).y?(z).z!y", "b.pi": "x?(u).u?(v).v!u"},
     ["check", "--kind", "ewb", "--depth", "4", "a.pi", "b.pi"]),
    ("check-wbb-identical-nf", {"a.pi": SRC, "b.pi": "x?(w).0 | x!z"},
     ["check", "--kind", "wbb", "--depth", "4", "a.pi", "b.pi"]),
    ("check-awbb-related", {"a.pi": XZ, "b.pi": "(nu u)(x!u | u?(v).0)"},
     ["check", "--kind", "awbb", "--depth", "6", "a.pi", "b.pi"]),
    ("check-awbb-not-related", {"a.pi": "x!z | y?(a).0", "b.pi": "y?(a).0"},
     ["check", "--kind", "awbb", "--depth", "6", "a.pi", "b.pi"]),
    ("check-wcb-related", {"a.pi": XZ, "b.pi": XZ_TB},
     ["check", "--kind", "wcb", "--depth", "6", "a.pi", "b.pi"]),
    ("check-srwrb-div-not-related", {"a.pi": "(nu q)(q!a | q?(r).0)", "b.pi": BANG},
     ["check", "--kind", "srwrb", "--div", "--depth", "6", "a.pi", "b.pi"]),
    ("check-wbb-branching-unknown", {"a.pi": BANG, "b.pi": BANG + " | x!a"},
     ["check", "--kind", "wbb", "--branching", "--depth", "1", "a.pi", "b.pi"]),
    ("check-wbb-unknown", {"a.pi": BANG, "b.pi": BANG + " | x!a"},
     ["check", "--kind", "wbb", "--depth", "1", "a.pi", "b.pi"]),
    ("validate-boudol-wbb", {},
     ["validate", "--scheme", "boudol", "--kind", "wbb", "--depth", "6", "--corpus-seed", "3",
      "--corpus-size", "4", "--max-size", "5", "--no-replication"]),
    ("validate-ht-ewb", {},
     ["validate", "--scheme", "ht", "--kind", "ewb", "--depth", "4", "--corpus-seed", "7",
      "--corpus-size", "3", "--max-size", "4", "--no-replication",
      "--communication-bias", "0.8"]),
)
CASES += tuple(
    (f"correspondence-{crit}-{scheme}", {"t.pi": SRC},
     ["correspondence", "--criterion", crit, "--scheme", scheme, "--depth", "2", "t.pi"])
    for crit in ("c", "cp", "i", "s", "w", "g")
    for scheme in ("boudol", "ht")
) + (
    ("correspondence-w-open", {"t.pi": BANG},
     ["correspondence", "--criterion", "w", "--scheme", "boudol", "--depth", "1", "t.pi"]),
    ("correspondence-g-open", {"t.pi": BANG},
     ["correspondence", "--criterion", "g", "--scheme", "boudol", "--depth", "1", "t.pi"]),
)
CASES += tuple(
    (f"lemma-{lemma}-{name}", {"t.pi": term}, ["lemma", "--id", lemma, "--depth", "4", "t.pi"])
    for lemma in ("l1", "l2", "l2star", "pb", "l5", "l6")
    for name, term in (("async", ASYNC + " | x!y"), ("sync", SRC))
) + (
    ("lemma-l6-ht", {"t.pi": SRC}, ["lemma", "--id", "l6", "--scheme", "ht", "t.pi"]),
    ("lemma-l1-not-async", {"t.pi": "x!z.y!a"}, ["lemma", "--id", "l1", "t.pi"]),
)


def _run(files: dict, argv: list) -> dict:
    """Run one invocation in a scratch directory holding `files`."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_text(text)
        out = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
        record = {"exit": code, "stdout": out.getvalue()}
        dot = Path(tmp, "out.dot")
        if dot.exists():
            record["dot"] = dot.read_text()
    return record


def _records() -> list:
    return [{"case": name, "files": files, "argv": argv, **_run(files, argv)}
            for name, files, argv in CASES]


def _golden() -> dict:
    return {r["case"]: r for r in json.loads(GOLDEN.read_text())}


def test_golden_file_pins_every_case():
    assert [r["case"] for r in json.loads(GOLDEN.read_text())] == [c[0] for c in CASES]


@pytest.mark.parametrize("name, files, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, files, argv):
    want = _golden()[name]
    assert (want["files"], want["argv"]) == (files, argv)
    got = _run(files, argv)
    assert got == {k: want[k] for k in ("exit", "stdout", "dot") if k in want}


def test_golden_covers_every_exit_code_and_verdict():
    want = json.loads(GOLDEN.read_text())
    assert {r["exit"] for r in want} == {0, 1, 2, 3}
    verdicts = {json.loads(r["stdout"])["verdict"] for r in want if r["argv"][0] == "check"}
    assert verdicts == {"related", "not_related", "unknown"}


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(r, sort_keys=True) for r in _records())
    sys.stdout.write(f"[\n{rows}\n]\n")
