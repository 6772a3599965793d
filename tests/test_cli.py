import io
import re
import sys

from twolevel import rules
from twolevel.cli import main
from twolevel.turkish import load_turkish


def run(capsys, args, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            rc = main(args)
        finally:
            sys.stdin = old
    else:
        rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_analyze_word(capsys):
    # a fresh runtime, so that the counts do not depend on the tests run before
    load_turkish(refresh=True)
    rc = main(["analyze", "--trace", "--stats", "evde", "evdeQ", "evide"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert "ev^-DA\t[ROOT=ev]+LOC" in out
    lines = err.splitlines()
    assert re.fullmatch(r"3 words in \d+\.\d\ds: \d+ words/sec", lines[0])
    counts = re.fullmatch(r"runtime caches: (\d+) interned vectors, (\d+) vector "
                          r"transitions, (\d+) closure keys, (\d+) closure entries, "
                          r"(\d+) generate moves, "
                          r"(\d+) frontier sets, (\d+) frontier transitions, "
                          r"(\d+) rules-off fronts, (\d+) rules-off transitions, "
                          r"(\d+) bundle states, (\d+) bundle transitions, "
                          r"(\d+) composed states, (\d+) live states", lines[1])
    # the words without a reading build the start set and its successors
    # and the closures these read, their traces the rules-off fronts of
    # their prefixes, and the trace of the rules-layer negative evide steps
    # the bundles; nothing generates
    assert counts and int(counts[5]) == 0
    assert all(int(k) > 0 for i, k in enumerate(counts.groups(), 1) if i != 5)
    assert int(counts[6]) >= 2 and int(counts[8]) >= 4
    assert int(counts[12]) > int(counts[13])
    assert re.fullmatch(r"set-up: description load \d+\.\d{4}s, runtime build \d+\.\d{4}s",
                        lines[2])


def test_generate_stats_report_the_set_up_times(capsys):
    rc = main(["generate", "--stats", "ev^-DA"])
    out, err = capsys.readouterr()
    assert rc == 0 and out == "evde\n"
    lines = err.splitlines()
    assert len(lines) == 3 and lines[1].startswith("runtime caches: ")
    assert re.fullmatch(r"set-up: description load \d+\.\d{4}s, runtime build \d+\.\d{4}s",
                        lines[2])


def test_analyze_none_marker(capsys):
    rc, out = run(capsys, ["analyze", "xyzzy"])
    assert rc == 0
    assert "*NONE*" in out


def test_analyze_strict_exit_code(capsys):
    rc, _ = run(capsys, ["analyze", "--strict", "xyzzy"])
    assert rc == 1


def test_generate_word(capsys):
    rc, out = run(capsys, ["generate", "ev^"])
    assert rc == 0
    assert out.strip() == "ev"


def test_generate_many(capsys):
    rc, out = run(capsys, ["generate", "saát-lAr-(H)mHz-DAn", "redd-DAn"])
    assert rc == 0
    assert out.split() == ["saatlerimizden", "retten"]


def test_batch_stdin_order_is_input_order(capsys):
    rc, out = run(capsys, ["analyze", "--input", "-"],
                  stdin="evde\nbana\nsuyu\n")
    assert rc == 0
    heads = [line for line in out.splitlines() if line and "\t" not in line]
    assert heads == ["evde", "bana", "suyu"]


def test_roundtrip_analyze_then_generate(capsys):
    rc, out = run(capsys, ["analyze", "geleceğiz"])
    assert rc == 0
    lexical = out.splitlines()[1].split("\t")[0]
    rc, out = run(capsys, ["generate", lexical])
    assert rc == 0
    assert "geleceğiz" in out.split()


def test_syllabify_command(capsys):
    rc, out = run(capsys, ["syllabify", "gazete", "tuz"])
    assert rc == 0
    assert out.split() == ["ga^zete", "tuz^"]


def test_trace_command(capsys):
    rc, out = run(capsys, ["trace", "kitapı"])
    assert rc == 1
    assert "rejected at the rules layer" in out


def test_analyze_trace_at_the_lexicon_layer_names_no_rule(capsys):
    word = "srfifovfvnkifffğ"
    rc, out = run(capsys, ["analyze", "--trace", word])
    assert rc == 0
    assert out.splitlines() == [word, "*NONE*", "! blocked at lexicon layer: -"]


def test_usage_error_exit_code(capsys):
    rc, _ = run(capsys, ["generate", "--rules", "/nonexistent.twol",
                         "--lexicon", "/nonexistent.lex", "ev"])
    assert rc == 2


def test_compile_reports(capsys, monkeypatch):
    # compile times a compile of the texts, never a load of the shipped artifact
    calls = []
    compile_check_set = rules.compile_check_set

    def counted(*args):
        calls.append(args)
        return compile_check_set(*args)

    monkeypatch.setattr(rules, "compile_check_set", counted)
    rc, out = run(capsys, ["compile"])
    assert rc == 0
    assert len(calls) == 1
    lines = out.splitlines()
    assert lines[:4] == [
        "feasible pairs: 136",
        "ground rules: 124",
        "constraint automata: 198 (1841 states)",
        "sublexicons: 59",
    ]
    assert re.fullmatch(r"compile time: \d+\.\d{3}s", lines[4])
    assert re.fullmatch(r"largest automaton: 74 states \(.*23\.SIV-DELETION.*\)", lines[5])


def test_test_command_runs_corpus(capsys, turkish):
    rc, out = run(capsys, ["test"])
    assert rc == 0
    assert "corpus cases pass" in out


def test_generate_long_word_from_stdin(capsys):
    rc, out = run(capsys, ["generate", "--input", "-"],
                  stdin="ev^" + "-DA-kiN-lAr" * 120 + "\n")
    assert rc == 0
    assert out.split() == ["ev" + "dekiler" * 120]


def test_trace_generate_long_word(capsys):
    word = "ev^" + "-DA-kiN-lAr" * 120
    rc, out = run(capsys, ["trace", "--direction", "generate", word])
    assert rc == 0
    assert out.splitlines()[0] == word + ": accepted"


def test_analyze_and_trace_long_word(capsys):
    word = "ev" + "dekiler" * 120
    rc, out = run(capsys, ["analyze", word])
    assert rc == 0
    assert out.splitlines() == [word, "ev^" + "-DA-kiN-lAr" * 120
                                + "\t[ROOT=ev]" + "+LOC+REL+PLU" * 120]
    rc, out = run(capsys, ["trace", word])
    assert rc == 0
    assert out.splitlines()[0] == word + ": accepted"


def test_generate_validated_with_a_continuation_cycle(capsys, tmp_path):
    # is_lexicon_path tries each (sublexicon, position) once, so a string
    # that no path of a cyclic lexicon spells is rejected in linear time
    from test_engine import CYCLE_LEXICON, CYCLE_RULES
    rules, lexicon = tmp_path / "cycle.twol", tmp_path / "cycle.lex"
    rules.write_text(CYCLE_RULES, encoding="utf-8")
    lexicon.write_text(CYCLE_LEXICON, encoding="utf-8")
    rc, out = run(capsys, ["generate", "--validate-morphotactics", "--rules", str(rules),
                           "--lexicon", str(lexicon), "ab" * 50 + "c", "ab" * 50 + "-cc"])
    assert rc == 0
    assert out.split() == ["*NONE*", "ab" * 50 + "cc"]


def test_analyze_reports_a_loop_that_adds_glosses(capsys, tmp_path):
    from test_engine import CYCLE_RULES, LOOP_LEXICONS
    rules, lexicon = tmp_path / "loop.twol", tmp_path / "loop.lex"
    rules.write_text(CYCLE_RULES, encoding="utf-8")
    lexicon.write_text(LOOP_LEXICONS[0], encoding="utf-8")
    rc = main(["analyze", "--rules", str(rules), "--lexicon", str(lexicon), "a"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: sublexicon A ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_custom_description_files_are_closed(capsys):
    # --rules and every --lexicon are read and closed: no file is left to
    # the collector with a ResourceWarning
    import warnings
    from importlib import resources
    data = resources.files("twolevel.turkish.data")
    args = ["analyze", "evde", "--rules", str(data / "rules.twol"),
            "--lexicon", str(data / "roots.lex"),
            "--lexicon", str(data / "suffix_grammar.lex")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out = run(capsys, args)
    assert rc == 0 and "ev^-DA\t[ROOT=ev]+LOC" in out
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
