import json
from pathlib import Path

import pytest

from piworkbench.cli import export_dot, main
from piworkbench.correspondence import CRITERIA, LEMMA_IDS
from piworkbench.encodings import Boudol, encode
from piworkbench.harness import GenConfig, generate_corpus
from piworkbench.congruence import normalize
from piworkbench.semantics import build_fragment, default_universe
from piworkbench.syntax import alpha_eq
from piworkbench.text import ParseError, parse_term, render_term


@pytest.fixture
def term_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_parse_round_trip_on_corpus():
    cfg = GenConfig(seed=61, max_size=12, communication_bias=0.4,
                    insert_success_probability=0.2)
    for term in generate_corpus(cfg, 120):
        assert parse_term(render_term(term)) == term


def test_parse_shorthand_output():
    assert parse_term("x!z") == parse_term("x!z.0")


def test_parse_examples():
    t = parse_term("(nu u)(x!u | u?(v).(v!z | 0))")
    assert alpha_eq(t, encode(Boudol, parse_term("x!z")))
    parse_term("x?(y).y!w.0 | x!z")


def test_parse_errors_have_spans():
    with pytest.raises(ParseError) as e:
        parse_term("x!z | | y!a")
    assert e.value.span[0] >= 0
    with pytest.raises(ParseError):
        parse_term("%u1!a")  # reserved requires allow_reserved
    parse_term("%u1!a", allow_reserved=True)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_term("x!z y")


def test_dot_export_deterministic_and_complete():
    root = normalize(encode(Boudol, parse_term("x!z")))
    frag = build_fragment(root, 3, universe=default_universe(root, 2))
    dot1 = export_dot(frag)
    dot2 = export_dot(frag)
    assert dot1 == dot2
    assert dot1.count(" -> ") == 3
    assert 'label="x!(%w1)"' in dot1
    assert 'label="%w1?(%w2)"' in dot1
    assert 'label="%w2!z"' in dot1


def test_dot_marks_frontier_dashed():
    frag = build_fragment(parse_term("!(x!a | x?(y).0)"), 1, universe=None)
    assert "dashed" in export_dot(frag)


def test_cli_parse_and_encode(term_file, capsys):
    f = term_file("t.pi", "x!z | x?(y).0")
    assert main(["parse", f]) == 0
    assert capsys.readouterr().out.strip() == "x!z | x?(y).0"
    assert main(["encode", "--scheme", "boudol", f]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(nu %u1)")


def test_cli_parse_error_exit_code(term_file, capsys):
    f = term_file("bad.pi", "x!!z")
    assert main(["parse", f]) == 3
    # nesting deeper than the interpreter's recursion limit is a usage error
    for args, text in ((["parse"], "a!b." * 3000 + "0"),
                       (["parse", "--normalize"], " | ".join(["a!b"] * 3000))):
        capsys.readouterr()
        assert main([*args, term_file("deep.pi", text)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")


def test_cli_usage_error():
    assert main(["check", "--kind", "bogus", "--depth", "3", "a", "b"]) == 3


def test_cli_lts_and_dot(term_file, tmp_path, capsys):
    f = term_file("t.pi", "x!z")
    dot = str(tmp_path / "out.dot")
    assert main(["lts", "--depth", "2", "--labels", "all", "--fresh", "1",
                 "--dot", dot, f]) == 0
    out = capsys.readouterr().out
    assert "states 2" in out
    assert Path(dot).read_text().startswith("digraph lts {")


@pytest.mark.parametrize("labels", ["tau", "all"])
def test_cli_lts_needs_a_fresh_name(term_file, capsys, labels):
    # a universe with no fresh name is a usage error, whatever the labels
    f = term_file("t.pi", "x!z")
    assert main(["lts", "--depth", "2", "--labels", labels, "--fresh", "0", f]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


def test_cli_lts_universe_is_read_off_the_normal_form(term_file, tmp_path):
    # the term binds the reserved %w1, which its normal form renames, so
    # %w1 is still the first fresh name of the universe
    f = term_file("t.pi", "(nu %w1)x!%w1.%w1?(y).0")
    dot = tmp_path / "out.dot"
    assert main(["lts", "--depth", "2", "--allow-reserved", "--dot", str(dot), f]) == 0
    assert 'label="x!(%w1)"' in dot.read_text()


def test_cli_barbs(term_file, capsys):
    f = term_file("t.pi", "x!z | y?(q).ok")
    assert main(["barbs", f]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["in y", "out x", "chan x", "chan y"] or set(lines) == {
        "in y", "out x", "chan x", "chan y"}


def test_cli_check_verdicts_and_exit_codes(term_file, capsys):
    src = term_file("src.pi", "x!z")
    enc = term_file("enc.pi", "(nu u)(x!u | u?(v).(v!z | 0))")
    assert main(["check", "--kind", "wbb", "--depth", "8", src, enc]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "related"
    assert main(["check", "--kind", "ewb", "--depth", "8", src, enc]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "not_related"
    assert "witness" in doc


def test_cli_check_unknown_exit_code(term_file, capsys):
    p = term_file("p.pi", "!(x!a | x?(y).0)")
    q = term_file("q.pi", "!(x!a | x?(y).0) | x!a")
    assert main(["check", "--kind", "wbb", "--depth", "1", p, q]) == 2


def test_cli_validate_report(term_file, capsys):
    assert main([
        "validate", "--scheme", "boudol", "--kind", "wbb", "--depth", "8",
        "--corpus-seed", "3", "--corpus-size", "5", "--max-size", "5",
        "--no-replication",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["pass"] == 5
    assert len(doc["reports"]) == 5
    assert doc["config"]["corpus_seed"] == 3
    # a depth below 1 is a usage error, not a corpus of failed checks
    assert main([
        "validate", "--scheme", "boudol", "--kind", "wbb", "--depth", "0",
        "--corpus-seed", "3", "--corpus-size", "5", "--max-size", "5",
    ]) == 3
    assert capsys.readouterr().out == ""


def test_cli_correspondence(term_file, capsys):
    f = term_file("t.pi", "x!z | x?(y).0")
    assert main(["correspondence", "--criterion", "i", "--scheme", "boudol",
                 "--depth", "3", f]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["fail"] == 1
    assert main(["correspondence", "--criterion", "s", "--scheme", "boudol",
                 "--depth", "3", f]) == 0
    for criterion in CRITERIA:
        for depth in ("-3", "0"):
            assert main(["correspondence", "--criterion", criterion, "--scheme", "boudol",
                         "--depth", depth, f]) == 3


def test_cli_lemma(term_file, capsys):
    f = term_file("t.pi", "(nu v)(v!a | v?(q).q!b)")
    assert main(["lemma", "--id", "l1", f]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["pass"] == 1
    src = term_file("s.pi", "x!z | x?(y).0")
    assert main(["lemma", "--id", "l5", src]) == 0
    assert main(["lemma", "--id", "l6", "--scheme", "ht", src]) == 0
    for lemma_id in LEMMA_IDS:
        assert main(["lemma", "--id", lemma_id, "--depth", "-3", src]) == 3
