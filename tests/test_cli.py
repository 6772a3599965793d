import io
import re
import sys

from twolevel import engine, rules
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
                          r"(\d+) observed closure keys, (\d+) observed closure entries, "
                          r"(\d+) generate moves, (\d+) gloss closure keys, "
                          r"(\d+) gloss closure rows, "
                          r"(\d+) frontier sets, (\d+) frontier transitions, "
                          r"(\d+) rules-off fronts, (\d+) rules-off transitions, "
                          r"(\d+) bundle states, (\d+) bundle transitions, "
                          r"(\d+) composed states, (\d+) live states", lines[1])
    # the words without a reading build the start set and its successors
    # and the closures these read, their traces the rules-off fronts of
    # their prefixes, and the trace of the rules-layer negative evide steps
    # the bundles and fills the observed closures; nothing generates
    assert counts and int(counts[7]) == int(counts[8]) == int(counts[9]) == 0
    assert all(int(k) > 0 for i, k in enumerate(counts.groups(), 1) if i not in (7, 8, 9))
    assert int(counts[10]) >= 2 and int(counts[12]) >= 4
    assert int(counts[16]) > int(counts[17])
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


def test_generate_unknown_symbol_fails_only_when_strict(capsys):
    assert run(capsys, ["generate", "--strict", "evx"]) == (
        1, "*NONE*\tunknown lexical symbol 'x'\n")
    assert run(capsys, ["generate", "evx"]) == (0, "*NONE*\tunknown lexical symbol 'x'\n")


def test_generate_validated_trace_blames_the_lexicon_for_a_non_path(capsys):
    # unvalidated, both strings have a surface; validated, no lexicon path
    # spells them, so no rule is to blame
    rc, out = run(capsys, ["generate", "--validate-morphotactics", "--trace", "evev", "ev-DA"])
    assert rc == 0
    assert out.splitlines() == ["*NONE*", "! blocked at lexicon layer: -"] * 2
    rc, out = run(capsys, ["generate", "--trace", "evev"])
    assert (rc, out) == (0, "evev\n")


def test_generate_word(capsys):
    rc, out = run(capsys, ["generate", "ev^"])
    assert rc == 0
    assert out.strip() == "ev"


def test_generate_many(capsys):
    rc, out = run(capsys, ["generate", "saát-lAr-(H)mHz-DAn", "redd-DAn"])
    assert rc == 0
    assert out.split() == ["saatlerimizden", "retten"]


def test_batch_stdin_order_is_input_order(capsys, tmp_path):
    rc, out = run(capsys, ["analyze", "--input", "-"],
                  stdin="evde\nbana\nsuyu\n")
    assert rc == 0
    heads = [line for line in out.splitlines() if line and "\t" not in line]
    assert heads == ["evde", "bana", "suyu"]
    words = tmp_path / "words.txt"
    words.write_text("evde\nbana\nsuyu\n", encoding="utf-8")
    assert run(capsys, ["analyze", "--input", str(words)]) == (rc, out)


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
    assert run(capsys, ["syllabify", "xyz"]) == (2, "")


def test_trace_command(capsys):
    rc, out = run(capsys, ["trace", "kitapı"])
    assert rc == 1
    assert "rejected at the rules layer" in out


def test_trace_prints_every_step_at_the_two_deepest_positions(capsys):
    word = "bfchcıjtt"
    steps = engine.trace(word, "analyze", load_turkish()).steps
    deepest = max(step.position for step in steps)
    shown = ["  pos %d pair %s died: %s" % (step.position, step.pair, "; ".join(step.died))
             for step in steps if step.position >= deepest - 1]
    rc, out = run(capsys, ["trace", word])
    assert rc == 1 and len(shown) > 20
    assert [line for line in out.splitlines() if line.startswith("  pos ")] == shown


def test_analyze_trace_at_the_lexicon_layer_names_no_rule(capsys):
    word = "srfifovfvnkifffğ"
    rc, out = run(capsys, ["analyze", "--trace", word])
    assert rc == 0
    assert out.splitlines() == [word, "*NONE*", "! blocked at lexicon layer: -"]


def test_usage_error_exit_code(capsys):
    for args in (["generate", "--rules", "/nonexistent.twol", "--lexicon", "/nonexistent.lex",
                  "ev"],
                 # --rules without --lexicon, and no words
                 ["analyze", "--rules", "/nonexistent.twol", "evde"],
                 ["generate"]):
        rc, out = run(capsys, args)
        assert (rc, out) == (2, ""), args


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
    assert lines[6:] == ["loops that read no surface character: none"]


def test_compile_reports_a_loop_that_reads_no_surface_character(capsys, tmp_path):
    # A re-enters itself through a +G link, which reads nothing
    rules_file, lexicon = tmp_path / "r.twol", tmp_path / "r.lex"
    rules_file.write_text('ALPHABET\na b c %-:0 ;\nRULES\n"1.r" a:a => _ ;\n', encoding="utf-8")
    lexicon.write_text("LEXICON Root\n:0 A ;\nLEXICON A\n+G:0 A ;\n:a # ;\n", encoding="utf-8")
    rc = main(["compile", "--rules", str(rules_file), "--lexicon", str(lexicon)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out.splitlines()[-1] == "loops that read no surface character: some"


def test_compile_a_complement_of_the_boundary(capsys, tmp_path):
    # \# is every feasible pair: the boundary is one more pair to leave out
    rules_file, lexicon = tmp_path / "r.twol", tmp_path / "r.lex"
    rules_file.write_text('ALPHABET a b a:b ;\nRULES\n"r" a:b => \\# _ ;\n', encoding="utf-8")
    lexicon.write_text("LEXICON Root\na # ;\n", encoding="utf-8")
    rc = main(["compile", "--rules", str(rules_file), "--lexicon", str(lexicon)])
    out, err = capsys.readouterr()
    assert rc == 0 and err == ""
    assert out.splitlines()[:3] == ["feasible pairs: 3", "ground rules: 1",
                                    "constraint automata: 1 (2 states)"]


def test_compile_a_deeply_nested_context_exits_2(capsys, tmp_path):
    # a context or correspondence part nested deeper than the interpreter's
    # stack is a parse error, in the parser (brackets, \) and in the walks of
    # the compiled expression (a chain of definitions), not a traceback
    lexicon = tmp_path / "r.lex"
    lexicon.write_text("LEXICON Root\na # ;\n", encoding="utf-8")
    chain = "".join("D%d = [D%d] ;\n" % (k, k - 1) for k in range(1, 3000))
    cp_chain = "".join("D%d = D%d ;\n" % (k, k - 1) for k in range(1, 3000))
    for k, rules in enumerate(['RULES\n"r" a:b => ' + "\\" * 3000 + "a _ ;\n",
                               'RULES\n"r" a:b => ' + "[" * 3000 + "a" + "]" * 3000 + " _ ;\n",
                               "DEFINITIONS\nD0 = a ;\n" + chain + 'RULES\n"r" a:b => D2999 _ ;\n',
                               "DEFINITIONS\nD0 = a:b ;\n" + cp_chain + 'RULES\n"r" D2999 => _ b ;\n']):
        rules_file = tmp_path / ("r%d.twol" % k)
        rules_file.write_text("ALPHABET a b a:b ;\n" + rules, encoding="utf-8")
        rc = main(["compile", "--rules", str(rules_file), "--lexicon", str(lexicon)])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "", k
        assert err.startswith("error: ") and "expression nested too deeply" in err, k
        assert "Traceback" not in err and len(err.splitlines()) == 1, k


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


def test_compile_rejects_an_undeclared_pair(capsys, tmp_path):
    from test_engine import UNDECLARED_RULES
    rules, lexicon = tmp_path / "r.twol", tmp_path / "l.lex"
    rules.write_text(UNDECLARED_RULES, encoding="utf-8")
    lexicon.write_text("LEXICON Root\nab # ;\n", encoding="utf-8")
    rc = main(["compile", "--rules", str(rules), "--lexicon", str(lexicon)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: rule correspondences use undeclared pairs: a:b\n"


def test_compile_rejects_a_lexicon_without_its_entry_point(capsys, tmp_path):
    rules, lexicon = tmp_path / "r.twol", tmp_path / "l.lex"
    rules.write_text("ALPHABET\na b ;\nRULES\n", encoding="utf-8")
    lexicon.write_text("LEXICON Start\na # ;\n", encoding="utf-8")
    rc = main(["compile", "--rules", str(rules), "--lexicon", str(lexicon)])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: entry-point LEXICON 'Root' missing\n"
