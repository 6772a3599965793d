import copy
import dataclasses
import gc
import hashlib
import json
import pickle
import random
import re
import sys
import threading
import time
import types
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import engine
from twolevel import rules as rulemod
from twolevel.lexicon import TERMINAL, LinkError, enumerate_paths
from twolevel.rules import run_all
from twolevel.symbols import NULL
from twolevel.turkish import compile_turkish, golden_suite, load_turkish


def lexicals(analyses):
    return [(a.lexical, a.gloss) for a in analyses]


def test_analyze_evde(turkish):
    got = lexicals(engine.analyze("evde", turkish))
    assert got == [("ev^-DA", "[ROOT=ev]+LOC")]


def test_analyze_bare_root_pairs(turkish):
    (a,) = engine.analyze("ev", turkish)
    assert a.lexical == "ev^" and a.gloss == "[ROOT=ev]"
    names = [turkish.alphabet.name_of(p) for p in a.pairs]
    assert names == ["e:e", "v:v", "^:0"]


def test_analyze_ekmegi_two_readings(turkish):
    got = lexicals(engine.analyze("ekmeği", turkish))
    assert ("ek^mek-(y)H", "[ROOT=ekmek]+ACC") in got
    assert ("ek^mek-(s)HN", "[ROOT=ekmek]+POSS3s") in got


def test_analyze_evlerine_includes_plural_possessive(turkish):
    got = lexicals(engine.analyze("evlerine", turkish))
    assert ("ev^-lAr-LArHN-(y)A", "[ROOT=ev]+PLU+POSS3p+DAT") in got


def test_analyze_deterministic_order(turkish):
    a1 = lexicals(engine.analyze("ekmeği", turkish))
    a2 = lexicals(engine.analyze("ekmeği", turkish))
    assert a1 == a2 == sorted(a1)


def test_analysis_invariants(turkish):
    for word in ("evlerimizi", "suyunda", "geleceğiz"):
        for a in engine.analyze(word, turkish):
            assert a.surface(turkish.alphabet) == word
            lex = "".join(turkish.alphabet.pairs[p][0].name for p in a.pairs)
            assert lex == a.lexical
            assert run_all(turkish.rule_automata, a.pairs).accepted


def test_generate_examples(turkish):
    assert engine.generate("saát-lAr-(H)mHz-DAn", turkish) == ["saatlerimizden"]
    assert engine.generate("redd-DAn", turkish) == ["retten"]
    assert engine.generate("suY-(s)HN-DA", turkish) == ["suyunda"]
    assert engine.generate("ben^-(y)A", turkish) == ["bana"]
    assert engine.generate("RUP-kırmızı", turkish) == ["kıpkırmızı"]
    assert engine.generate("ev^", turkish) == ["ev"]


def test_generate_empty_string(turkish):
    # the empty lexical string is the empty pair string, which every rule
    # accepts; it is not a lexicon path
    assert engine.generate("", turkish) == [""]
    assert engine.generate("", turkish, validate_morphotactics=True) == []


def test_generate_unknown_symbol(turkish):
    with pytest.raises(engine.TokenError):
        engine.generate("ev#Q", turkish)


def test_generate_validated_requires_lexicon_path(turkish):
    assert engine.generate("ev^-DA", turkish, validate_morphotactics=True) == ["evde"]
    # not a lexicon path, fine without validation (the rules alone decide)
    assert engine.generate("ev-DA", turkish) == ["evde"]
    assert engine.generate("ev-DA", turkish, validate_morphotactics=True) == []


def test_generate_from_gloss(turkish):
    assert engine.generate_from_gloss("ev", ["PLU", "POSS1p", "ABL"], turkish) == ["evlerimizden"]
    assert engine.generate_from_gloss("ev", [], turkish) == ["ev"]


def test_generate_from_gloss_matches_composed_chain(turkish):
    via_tags = engine.generate_from_gloss("ev", ["PLU", "POSS1p", "ABL"], turkish)
    via_lexical = engine.generate("ev^-lAr-(H)mHz-DAn", turkish, validate_morphotactics=True)
    assert via_tags == via_lexical


def test_generate_from_gloss_rejects_bad_order(turkish):
    with pytest.raises(engine.MorphotacticsError) as err:
        engine.generate_from_gloss("araba", ["ABL", "PLU"], turkish)
    assert err.value.tag == "PLU"


def gloss_outcome(fn, root, tags, desc):
    """fn(root, tags, desc), or the message and tag of the
    MorphotacticsError it raises."""
    try:
        return fn(root, tags, desc)
    except engine.MorphotacticsError as e:
        return ("error", str(e), e.tag)


def split_gloss(gloss):
    """(root, tags) of a [ROOT=root]+tags gloss, the tags a tuple, or None."""
    m = re.fullmatch(r"\[ROOT=([^]]+)\]((?:\+[^+]+)*)", gloss)
    return (m[1], tuple(m[2].split("+")[1:])) if m else None


def test_generate_from_gloss_matches_reference(turkish):
    # a seeded sample of the 4-morpheme glosses, each also with its tags
    # permuted, extended by one tag and truncated
    from conftest import gloss_reference
    items = set()
    for _, gloss in enumerate_paths(turkish.lexicon, 4):
        m = re.fullmatch(r"\[ROOT=([^]]+)\]((?:\+[^+]+)*)", gloss)
        if m:
            items.add((m[1], tuple(m[2].split("+")[1:])))
    rng = random.Random(41)
    every_tag = sorted({t for _, tags in items for t in tags})
    cases = []
    for root, tags in rng.sample(sorted(items), 500):
        tags = list(tags)
        shuffled = rng.sample(tags, len(tags))
        cases += [(root, tags), (root, shuffled), (root, tags + [rng.choice(every_tag)]),
                  (root, tags[:rng.randrange(len(tags) + 1)])]
    kinds = set()
    for root, tags in cases:
        got = gloss_outcome(engine.generate_from_gloss, root, tags, turkish)
        assert got == gloss_outcome(gloss_reference, root, tags, turkish), (root, tags)
        kinds.add(type(got))
        if type(got) is list:
            for lexical in engine.gloss_paths(root, tags, turkish):
                assert engine.is_lexicon_path(lexical, turkish), (root, tags, lexical)
    assert kinds == {list, tuple}   # readings and errors both occur


GLOSS_RULES = """ALPHABET
a b c ;
SETS
DEFINITIONS
RULES
"1.b" b:b => a _ ;
"""

# [ROOT=p] is reached only behind the prefix entry [PRE]:c.
GLOSS_LEXICON = """
LEXICON Root
:0 Bare ;
[PRE]:c Prefixed ;

LEXICON Bare
[ROOT=a]:a Suffix ;
[ROOT=b]:b Suffix ;
[ROOT=c]:c # ;

LEXICON Prefixed
[ROOT=p]:aa Suffix ;

LEXICON Suffix
:0 # ;
+X:b # ;
"""


def test_generate_from_gloss_checks_roots_behind_a_prefix():
    from conftest import gloss_reference, make_description
    desc = make_description(GLOSS_RULES, GLOSS_LEXICON)
    # every lexicon path to p places [PRE] first, so no gloss path of
    # [ROOT=p]+X exists, as analyze reads caab [PRE][ROOT=p]+X
    assert lexicals(engine.analyze("caab", desc)) == [("caab", "[PRE][ROOT=p]+X")]
    assert not engine.is_lexicon_path("aab", desc)
    assert engine.generate("caab", desc, validate_morphotactics=True) == ["caab"]
    # b:b needs an a before it: the frontier of [ROOT=b] empties at its
    # root entry, but its gloss paths exist, so nothing is raised
    cases = [("a", [], ["a"]), ("a", ["X"], ["ab"]), ("b", [], []), ("b", ["X"], []),
             ("c", [], ["c"])]
    for root, tags, expected in cases:
        assert engine.generate_from_gloss(root, tags, desc) == expected, (root, tags)
        assert gloss_reference(root, tags, desc) == expected, (root, tags)
    for root, tags, tag in [("a", ["X", "X"], "X"), ("b", ["Y"], "Y"), ("c", ["X"], "X"),
                            ("q", [], None), ("p", [], None), ("p", ["X"], None)]:
        for fn in (engine.gloss_paths, engine.generate_from_gloss):
            got = gloss_outcome(fn, root, tags, desc)
            assert got[0] == "error" and got[2] == tag, (fn, root, tags)
        assert got == gloss_outcome(gloss_reference, root, tags, desc)


# [ROOT=p] is reached only behind the gloss-less entry :x.
HIDDEN_ROOT_LEXICON = """
LEXICON Root
:x Pre ;

LEXICON Pre
[ROOT=p]:a # ;
"""


def test_generate_from_gloss_inverts_analyze(turkish):
    from conftest import make_description
    # every reading glossed [ROOT=r]+tags of the golden surfaces and of a
    # sample of the seed-7 paths4 words (the surfaces of every 40th
    # 4-morpheme lexicon path from offset 7) gives its surface back
    paths4 = sorted({s for lexical, _ in enumerate_paths(turkish.lexicon, 4)[7::40]
                     for s in engine.generate(lexical, turkish)})
    words = random.Random(7).sample(paths4, 1000) + sorted({c.surface for c in golden_suite()})
    desc = make_description(GLOSS_RULES.replace("a b c", "a b c x"), HIDDEN_ROOT_LEXICON)
    readings = 0
    for word, d in [(w, turkish) for w in words] + [("xa", desc)]:
        for a in engine.analyze(word, d):
            m = re.fullmatch(r"\[ROOT=([^]]+)\]((?:\+[^+]+)*)", a.gloss)
            if m:
                readings += 1
                tags = m[2].split("+")[1:]
                assert word in engine.generate_from_gloss(m[1], tags, d), (word, a.gloss)
    assert readings >= 1000
    assert engine.gloss_paths("p", [], desc) == ["xa"]


def test_gloss_walk_cuts_empty_loops_and_rejects_loops_that_add_text():
    from conftest import make_description
    # a loop through gloss-less entries that adds text gives the gloss
    # unboundedly many paths
    desc = make_description(GLOSS_RULES, "LEXICON Root\n[ROOT=r]:b Loop ;\n"
                                         "LEXICON Loop\n:a Loop ;\n:0 # ;\n")
    for fn in (engine.gloss_paths, engine.generate_from_gloss):
        with pytest.raises(engine.DescriptionError, match="sublexicon Loop "):
            fn("r", [], desc)
    desc = make_description(CYCLE_RULES, CYCLE_LEXICON.replace(
        "LEXICON Root\n", "LEXICON Root\n[ROOT=r]:c A ;\n"))
    start = time.perf_counter()
    with pytest.raises(engine.DescriptionError, match="sublexicon [AB] "):
        engine.gloss_paths("r", [], desc)
    assert time.perf_counter() - start < 1
    # a loop that adds nothing is cut silently
    desc = make_description(GLOSS_RULES, "LEXICON Root\n[ROOT=r]:b Loop ;\n"
                                         "LEXICON Loop\n:0 Loop ;\n:a # ;\n:0 # ;\n")
    assert engine.gloss_paths("r", [], desc) == ["b", "ba"]


def test_gloss_walk_names_the_last_tag_when_no_path_ends_after_it():
    from conftest import gloss_reference, make_description
    # every path places +A and +X, but S2 goes on to # only through :0,
    # which +X skips: the path is stuck after the last tag, not at the first
    desc = make_description(GLOSS_RULES.replace("a b c", "a b c d"),
                            "LEXICON Root\n[ROOT=r]:a S ;\nLEXICON S\n+A:a S2 ;\n"
                            "LEXICON S2\n+X:b T ;\n:0 # ;\nLEXICON T\n+Z:d # ;\n")
    for fn in (engine.gloss_paths, engine.generate_from_gloss):
        with pytest.raises(engine.MorphotacticsError, match=r"stuck at 'X'") as err:
            fn("r", ["A", "X"], desc)
        assert err.value.tag == "X"
    assert engine.gloss_paths("r", ["A"], desc) == ["aa"]
    assert engine.gloss_paths("r", ["A", "X", "Z"], desc) == ["aabd"]
    assert gloss_reference("r", ["A", "X", "Z"], desc) == ["aabd"]
    # with no tags, the root alone is placed and # is where the path sticks
    desc = make_description(GLOSS_RULES, "LEXICON Root\n[ROOT=r]:a S ;\nLEXICON S\n+A:b # ;\n")
    for fn in (engine.gloss_paths, engine.generate_from_gloss):
        with pytest.raises(engine.MorphotacticsError, match=r"stuck at '#'") as err:
            fn("r", [], desc)
        assert err.value.tag == "#"


def test_loops_that_lead_to_no_path_are_cut_silently():
    from conftest import make_description
    # the loop of Dead adds text (gloss walk) or a gloss (enumerate_paths),
    # but no path leaves Dead, so it repeats no path
    desc = make_description(GLOSS_RULES, "LEXICON Root\n[ROOT=r]:c # ;\n[ROOT=r]:a Dead ;\n"
                                         "LEXICON Dead\n:a Dead ;\n")
    assert engine.gloss_paths("r", [], desc) == ["c"]
    assert engine.generate_from_gloss("r", [], desc) == ["c"]
    desc = make_description(GLOSS_RULES, "LEXICON Root\nc # ;\n:0 Dead ;\n"
                                         "LEXICON Dead\n[G]:0 Dead ;\n")
    assert enumerate_paths(desc.lexicon, 3) == [("c", "c")]
    assert lexicals(engine.analyze("c", desc)) == [("c", "c")]


def test_gloss_paths(turkish):
    # kırmızı is a noun root and, behind [RUP]:RUP-, an intensified one;
    # only the noun root is reached from Root through gloss-less entries
    assert engine.gloss_paths("kırmızı", [], turkish) == ["kır^mızı"]
    assert engine.generate_from_gloss("kırmızı", [], turkish) == ["kırmızı"]
    assert engine.gloss_paths("ev", ["PLU", "POSS1p", "ABL"], turkish) == ["ev^-lAr-(H)mHz-DAn"]
    # every gloss path is a lexicon path
    roots = {e.gloss[6:-1] for entries in turkish.lexicon.sublexicons.values()
             for e in entries if e.gloss.startswith("[ROOT=")}
    for root in sorted(roots):
        for lexical in engine.gloss_paths(root, [], turkish):
            assert engine.is_lexicon_path(lexical, turkish), (root, lexical)
    for fn in (engine.gloss_paths, engine.generate_from_gloss):
        with pytest.raises(engine.MorphotacticsError) as err:
            fn("nosuchroot", ["PLU"], turkish)
        assert err.value.tag is None


def test_trace_accepted_has_no_blockers(turkish):
    report = engine.trace("evde", "analyze", turkish)
    assert report.outcome.accepted
    assert report.blocking_rules() == []


def test_trace_generate_forced_voicing(turkish):
    # ağaç-(y)H realized with surface ç violates the stop-voicing rule
    alpha = turkish.alphabet
    forced = [alpha.id_of(*p.split(":")) for p in
              ("a:a", "ğ:ğ", "a:a", "ç:ç", "-:0", "(:0", "y:0", "):0", "H:ı")]
    verdict = run_all(turkish.rule_automata, forced)
    assert not verdict.accepted
    assert any(name.startswith("16.") for name, _, _ in verdict.blockers)
    # and the engine's generate never produces that surface
    assert engine.generate("ağaç-(y)H", turkish) == ["ağacı"]


def test_trace_kitapi_names_final_stop_family(turkish):
    report = engine.trace("kitapı", "analyze", turkish)
    assert not report.outcome.accepted
    assert report.layer == "rules"
    assert any("15." in name for name in report.blocking_rules())


def test_trace_joins_pair_and_boundary_rejecters_at_one_depth(turkish):
    # at depth 10 one path dies on a pair (the passive rule among others)
    # and another on the closing boundary; both sets of rules are named
    report = engine.trace("zabıttakin", "analyze", turkish)
    assert not report.outcome.accepted and report.layer == "rules"
    # each rule keeps the pair it rejected; blockers are in check-set order
    assert report.outcome.blockers == [
        ("23.SIV-DELETION (H,A,E):0 + 43.The -LArHN rule, A:0"
         " + 52.A:0 preceding the -Hyor suffix", 10, "A:0"),
        ("23.SIV-DELETION (H,A,E):0 + 33.High vowel epenthesis in word bases"
         " + 37.The -Hyor head vowel and the causative head vowel drop"
         " + 49.Allomorphic variations of -(sH)n and -(sH)nHz, H:0", 10, "H:0"),
        ("32.Degemination", 10, "l:0"),
        ("34.Instantiation of the pronominal n, N:n", 10, "#:#"),
        ("39.D drop in the causative heads", 10, "D:0"),
        ("45.The passive voice rule, l:n", 10, "l:n"),
    ]
    names = report.blocking_rules()
    assert names == [name for name in dict.fromkeys(engine.runtime(turkish).rule_names)
                     if name in names]


def test_trace_names_no_rule_at_the_lexicon_layer(turkish):
    # the search dies at depth 2 on a rule, but no lexicon path covers the
    # word, so the rules are not to blame
    report = engine.trace("srfifovfvnkifffğ", "analyze", turkish)
    assert not report.outcome.accepted and report.layer == "lexicon"
    assert report.blocking_rules() == []


DELETION_RULES = """ALPHABET
a b b:0 ;
SETS
DEFINITIONS
RULES
"1.d" b:0 => a _ ;
"""


def test_trace_steps_are_in_visiting_order():
    # a state's dead pairs are noted when it is visited, before those of
    # the states below it: b:0 dies at the root (position 0) before it
    # dies below a:a, though a:a comes first among the root's moves
    from conftest import make_description
    desc = make_description(DELETION_RULES, "LEXICON Root\n:abb # ;\n:b # ;\n")
    report = engine.trace("ab", "analyze", desc)
    assert report.outcome.accepted
    assert [(s.position, s.pair, s.died) for s in report.steps] == [
        (0, "b:0", ["1.d"]), (1, "b:0", ["1.d"]), (2, "b:0", ["1.d"])]


def test_trace_layers(turkish):
    assert engine.trace("evide", "analyze", turkish).layer == "rules"
    assert engine.trace("xxxx", "analyze", turkish).layer == "lexicon"
    # a lexicon path covers çin, but the deepest failure is a state with
    # no live move where no rule rejected: no rule is named
    report = engine.trace("çin", "analyze", turkish)
    assert report.layer == "rules" and report.blocking_rules() == []


def test_decomposed_input_is_normalized(turkish):
    for word in ("şehirde", "kitapçı"):
        nfd = unicodedata.normalize("NFD", word)
        assert nfd != word
        readings = engine.analyze(word, turkish)
        assert readings and engine.analyze(nfd, turkish) == readings
        assert engine.lexicon_covers(nfd, turkish)
        assert engine.trace(nfd, "analyze", turkish).outcome.accepted
        for a in readings:
            lexical = unicodedata.normalize("NFD", a.lexical)
            assert engine.tokenize_lexical(lexical, turkish.alphabet.by_lex) == list(a.lexical)
            assert engine.generate(lexical, turkish, validate_morphotactics=True) == [word]
            assert engine.trace(lexical, "generate", turkish).outcome.accepted


def test_insertion_pairs_rejected():
    from conftest import make_description
    bad = """ALPHABET
a 0:a ;
SETS
DEFINITIONS
RULES
"1.r" a:a => _ ;
"""
    with pytest.raises(engine.DescriptionError):
        make_description(bad)


LONG_LEXICAL = "ev^" + "-DA-kiN-lAr" * 120


def test_generate_long_word_no_recursion_limit(turkish):
    # 1,323 lexical symbols: deeper than the interpreter's recursion limit
    expected = ["ev" + "dekiler" * 120]
    assert engine.generate(LONG_LEXICAL, turkish) == expected
    assert engine.generate(LONG_LEXICAL, turkish, validate_morphotactics=True) == expected
    assert engine.is_lexicon_path(LONG_LEXICAL, turkish)
    assert not engine.is_lexicon_path(LONG_LEXICAL[:-1], turkish)


def validated_reference(lexical, desc):
    """Validated generate in two passes: the lexicon check, then the
    unvalidated generate of a string that spells a lexicon path."""
    return engine.generate(lexical, desc) if engine.is_lexicon_path(lexical, desc) else []


def perturbed_lexicals(desc, count, seed):
    """`count` distinct seeded one-edit variants (substitute, delete or
    insert one lexical symbol) of golden lexical strings."""
    return one_edits(sorted({c.lexical for c in golden_suite()} - {""}),
                     sorted(engine.runtime(desc).pairs_by_lex), count, seed)


def test_validated_generate_matches_two_passes(turkish):
    # validated generate walks the trimmed composition once, along the
    # lexicon paths that spell the string, keeping the live states alone
    nfd = unicodedata.normalize("NFD", "kuş^-(y)H")
    words = sorted({c.lexical for c in golden_suite()}) + perturbed_lexicals(turkish, 300, 97)
    outputs = {}
    for w in words + [nfd, "e" * 3200]:
        outputs[w] = engine.generate(w, turkish, validate_morphotactics=True)
        assert outputs[w] == validated_reference(w, turkish), w
    assert outputs[""] == [] and outputs[nfd] == ["kuşu"] and outputs["e" * 3200] == []
    assert sum(map(bool, outputs.values())) > 150
    from conftest import make_description
    desc = make_description(CYCLE_RULES, CYCLE_LEXICON)
    words = cycle_words(4, sorted(engine.runtime(desc).pairs_by_lex))
    outputs = {w: engine.generate(w, desc, validate_morphotactics=True) for w in words}
    assert outputs == {w: validated_reference(w, desc) for w in words}
    assert outputs[""] == [""] and outputs["abab"] == ["abab"] and outputs["a-cc"] == ["acc"]
    for desc in (turkish, desc):
        rt = engine.runtime(desc)
        assert all(state in desc.tables["live"] for row in rt.trie.gen.values()
                   for state, _ in row)


def test_validated_generate_steps_no_automaton():
    # validated generate reads the shipped vector rows alone: it steps no
    # bundle and interns no vector, its memo holds a row per live state and
    # lexical symbol at most, and the start's, and one full collection
    # untracks the rows, dicts of (int, string) keys
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    fresh = rt.cache_sizes()
    words = sorted({c.lexical for c in golden_suite()}) + perturbed_lexicals(desc, 300, 97)
    assert sum(bool(engine.generate(w, desc, validate_morphotactics=True)) for w in words) > 150
    sizes = rt.cache_sizes()
    for name in ("interned vectors", "bundle states", "bundle transitions"):
        assert sizes[name] == fresh[name], name
    assert fresh["generate moves"] == 0
    assert 0 < sizes["generate moves"] <= sizes["live states"] * len(rt.pairs_by_lex) + 1
    gc.collect()
    assert not any(gc.is_tracked(row) for row in rt.trie.gen.values())


def test_trace_generate_long_word_no_recursion_limit(turkish):
    report = engine.trace(LONG_LEXICAL, "generate", turkish)
    assert report.outcome.accepted and report.layer == "none"
    assert max(s.position for s in report.steps) == len(LONG_LEXICAL) - 1


LONG_SURFACE = "ev" + "dekiler" * 120


def test_analyze_long_word_no_recursion_limit(turkish):
    # 842 surface characters: a path of more moves than the interpreter's
    # recursion limit
    readings = engine.analyze(LONG_SURFACE, turkish)
    assert [a.lexical for a in readings] == [LONG_LEXICAL]
    assert readings[0].surface(turkish.alphabet) == LONG_SURFACE


def test_trace_analyze_long_word_no_recursion_limit(turkish):
    report = engine.trace(LONG_SURFACE, "analyze", turkish)
    assert report.outcome.accepted and report.layer == "none"


def surface_letters(desc):
    return sorted({s.name for _, s in desc.alphabet.pairs
                   if len(s.name) == 1 and s.name.isalpha()})


def perturbed_golden(desc, count, seed):
    """`count` distinct seeded one-edit variants (substitute, delete or
    insert one surface letter) of golden surfaces."""
    return one_edits(sorted({c.surface for c in golden_suite()}), surface_letters(desc),
                     count, seed)


def one_edits(words, letters, count, seed):
    """`count` distinct seeded one-edit variants (substitute, delete or
    insert one of the letters) of the words."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        w = rng.choice(words)
        op = rng.randrange(3)
        j = rng.randrange(len(w) + (op == 2))
        if op == 0:
            w2 = w[:j] + rng.choice(letters) + w[j + 1:]
        elif op == 1:
            w2 = w[:j] + w[j + 1:]
        else:
            w2 = w[:j] + rng.choice(letters) + w[j:]
        if w2 and w2 != w:
            out[w2] = None
    return list(out)


def observed_accepts(word, desc):
    """Whether trace's observed search itself accepts the word: trace takes
    its verdict from analyze, so only this checks the untrimmed search."""
    word = unicodedata.normalize("NFC", word)
    return engine._observe(engine.runtime(desc), word, "analyze")[0]


def test_trace_agrees_with_analyze(turkish):
    for w in perturbed_golden(turkish, 300, seed=11):
        readings = engine.analyze(w, turkish)
        report = engine.trace(w, "analyze", turkish)
        assert observed_accepts(w, turkish) == bool(readings), w
        assert report.outcome.accepted == bool(readings), w
        if not readings:
            assert (report.layer == "rules") == engine.lexicon_covers(w, turkish), w
        for a in readings:
            assert a.surface(turkish.alphabet) == w


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_trace_agrees_with_analyze_on_any_string(turkish, data):
    letters = surface_letters(turkish) + list(UNKNOWN_CHARS)
    w = data.draw(st.text(alphabet=st.sampled_from(letters), max_size=12))
    readings = engine.analyze(w, turkish)
    report = engine.trace(w, "analyze", turkish)
    assert observed_accepts(w, turkish) == bool(readings)
    assert report.outcome.accepted == bool(readings)
    if not readings:
        assert (report.layer == "rules") == engine.lexicon_covers(w, turkish)
    # every reading generates the word back
    for a in readings:
        assert unicodedata.normalize("NFC", w) in engine.generate(a.lexical, turkish)


def dfas(rt):
    """The rule automata of a runtime's run tables, in check-set order."""
    return [types.SimpleNamespace(name=name, class_of=class_of, delta=delta, start=start,
                                  finals=finals)
            for name, class_of, delta, start, finals in rt.tables["automata"]]


def vector_states(rt, vid):
    """The states of every rule automaton in vector vid, from its bundles'
    tuples."""
    return tuple(q for bundle, b in zip(rt.bundles, rt.vec_list[vid]) for q in bundle.keys[b])


def closing_rejecters(rt, vid):
    """The names of the rule automata whose #:# transition from vector vid
    reaches no final state, each automaton stepped on its own."""
    frame = rt.frame_id
    return tuple(name for name, d, q in zip(rt.rule_names, dfas(rt), vector_states(rt, vid))
                 if d.delta[q].get(d.class_of[frame]) not in d.finals)


# Characters that no Turkish pair reads or that a file format treats
# specially: combining marks, the boundary, the null symbol, the escape and
# the lexical markers.
AWKWARD_CHARS = "\u0301\u0327#0%^-+()"


@pytest.fixture(scope="module")
def cycle():
    from conftest import make_description
    return make_description(CYCLE_RULES, CYCLE_LEXICON)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_string_raises_only_documented_errors(turkish, cycle, data):
    desc = data.draw(st.sampled_from([turkish, cycle]))
    glosses = {e.gloss for entries in desc.lexicon.sublexicons.values() for e in entries}
    lexical = sorted(sym for sym in desc.alphabet.by_lex if len(sym) == 1)
    text = st.text(alphabet=st.one_of(
        st.characters(), st.sampled_from(surface_letters(desc) + lexical + list(AWKWARD_CHARS))),
        max_size=16)
    word = data.draw(text)
    roots = sorted(g[6:-1] for g in glosses if g.startswith("[ROOT=") and g.endswith("]"))
    root = data.draw(st.one_of(st.sampled_from(roots), text) if roots else text)
    tags = sorted(g[1:] for g in glosses if g.startswith("+"))
    tags = data.draw(st.lists(st.one_of(st.sampled_from(tags), text) if tags else text,
                              max_size=3))
    calls = [lambda: engine.analyze(word, desc),
             lambda: engine.trace(word, "analyze", desc),
             lambda: engine.trace(word, "generate", desc),
             lambda: engine.lexicon_covers(word, desc),
             lambda: engine.is_lexicon_path(word, desc),
             lambda: engine.generate(word, desc),
             lambda: engine.generate(word, desc, validate_morphotactics=True),
             lambda: engine.gloss_paths(root, tags, desc),
             lambda: engine.generate_from_gloss(root, tags, desc)]
    for call in calls:
        try:
            call()
        except (engine.TokenError, engine.MorphotacticsError):
            pass


def search_reference(surface, desc, live=None):
    """analyze's search without the live-move memo, by recursion: its
    readings as sorted (lexical, gloss, pairs), and the (trie node, vector
    id, position) states it visits in order (a state's continuation jumps,
    then its moves, each followed by all states below it).  Given `live`, a
    set of (trie node, vector id) states, it takes no move into another
    state, as the trimmed search does.  A jump into a (sublexicon, vector
    id) that the path has jumped into since its last consuming move is
    cut; when the loop added symbols or glosses and a search from the state
    it returns to finds a reading, DescriptionError is raised.  The closing
    boundary is tested by stepping each automaton on its own."""
    rt = engine.runtime(desc)
    trie = rt.trie
    n = len(surface)

    def search(start):
        results = {}
        order = []
        loops = []
        lex_acc, pid_acc, gloss_acc = [], [], []

        def rec(node, vid, i, jumped):
            # jumped: (sublexicon, vector id) -> (symbols, glosses) at the jump
            order.append((node, vid, i))
            for gloss, cont in trie.complete[node]:
                if cont == TERMINAL:
                    if i == n and not closing_rejecters(rt, vid):
                        key = ("".join(lex_acc), "".join(gloss_acc) + gloss)
                        results.setdefault(key, tuple(pid_acc))
                    continue
                gloss_acc.append(gloss)
                mark = (len(lex_acc), "".join(gloss_acc))
                if (cont, vid) not in jumped:
                    rec(trie.roots[cont], vid, i, {**jumped, (cont, vid): mark})
                elif jumped[cont, vid] != mark:
                    loops.append((cont, vid, i))
                gloss_acc.pop()
            for sym, pid, child, consumes in trie.moves[node].get(
                    rt.codes.get(surface[i]) if i < n else 0, trie.dels[node]):
                nvid = rt.step_vec(vid, pid)
                if nvid is not None and (live is None or (child, nvid) in live):
                    lex_acc.append(sym)
                    pid_acc.append(pid)
                    rec(child, nvid, i + consumes, {} if consumes else jumped)
                    lex_acc.pop()
                    pid_acc.pop()

        if start is None:
            for root in desc.lexicon.roots:
                rec(trie.roots[root], rt.init_vec, 0, {})
        else:
            cont, vid, i = start
            rec(trie.roots[cont], vid, i, {(cont, vid): (0, "")})
        return results, order, loops

    results, order, loops = search(None)
    for state in loops:
        if search(state)[0]:
            raise engine.DescriptionError("sublexicon %s" % state[0])
    return sorted((lex, gloss, pids) for (lex, gloss), pids in results.items()), order


def closure_reference(rt, state, code, live, memo=None):
    """The ε-closure of composed state `state` on surface code `code`
    (engine._END at the end of the word) by recursion, as search_reference
    walks: from the state alone, without reading a character, each
    consuming move on the code that no rule rejects into a state of `live`,
    as (the state it leads to, the lexical symbols, the glosses and the
    pair ids taken), and at the end each # completion under a vector whose
    automata accept the end of the word, as (None, lexical, gloss, pair
    ids), the first of each (lexical, gloss) alone.  A node's # completions
    come first, in reverse order, then its jumps, then its moves, each
    followed by all it leads to.  None when the walk cuts a loop that added
    symbols or glosses.  Memoized in `memo`."""
    if memo is not None and (state, code) in memo:
        return memo[state, code]
    trie = rt.trie
    n = len(trie.arcs)
    entries, cut, ends = [], [], set()

    def rec(node, vid, syms, pids, glosses, jumped):
        for gloss, cont in reversed(trie.complete[node]):
            if (cont == TERMINAL and code == engine._END and not closing_rejecters(rt, vid)
                    and (syms, glosses + gloss) not in ends):
                ends.add((syms, glosses + gloss))
                entries.append((None, syms, glosses + gloss, pids))
        for gloss, cont in trie.complete[node]:
            mark = (len(syms), glosses + gloss)
            if cont == TERMINAL:
                continue
            if (cont, vid) not in jumped:
                rec(trie.roots[cont], vid, syms, pids, glosses + gloss,
                    {**jumped, (cont, vid): mark})
            elif jumped[cont, vid] != mark:
                cut.append((cont, vid))
        for sym, pid, child, consumes in trie.moves[node].get(max(code, 0), trie.dels[node]):
            nvid = rt.step_vec(vid, pid)
            if nvid is not None and (child, nvid) in live:
                if consumes:
                    entries.append((nvid * n + child, syms + sym, glosses, pids + (pid,)))
                else:
                    rec(child, nvid, syms + sym, pids + (pid,), glosses, jumped)

    rec(state % n, state // n, "", (), "", {})
    entries = None if cut else entries
    if memo is not None:
        memo[state, code] = entries
    return entries


def closure_entries(rt, entries):
    """A memoized closure's entries in the form of closure_reference's:
    the path of an entry is the string of its pair ids, each as chr(pid)."""
    lexical = rt.tables["lexical"]
    return [(None, entry[0].translate(lexical), entry[1], tuple(map(ord, entry[0])))
            if isinstance(entry[0], str)
            else (entry[0] // (rt.n_codes + 1), entry[2].translate(lexical), entry[1],
                  tuple(map(ord, entry[2])))
            for entry in entries]


def trimmed_moves(rt, node, vid, code, trim=True):
    """The moves of trie node `node` on surface code `code` that no rule
    rejects from vector vid, as (lexical symbol, pair id, child, consumes,
    next vector id, chr(pair id)) in the order of the trie's surface index;
    trimmed, only those into live states (the shipped walk's), as analyze's
    walk takes them."""
    n = len(rt.trie.arcs)
    return [m + (nvid, chr(m[1])) for m in rt.trie.moves[node].get(code, rt.trie.dels[node])
            for nvid in [rt.step_vec(vid, m[1])]
            if nvid is not None and (not trim or nvid * n + m[2] in rt.tables["live"])]


def search_visits(surface, desc, trim=True):
    """The (trie node, vector id, position) states that the per-state walk
    (_walk) visits.
    Untrimmed, its observer supplies every move that no rule rejects, as
    trace's does."""
    rt = engine.runtime(desc)
    seen = []
    codes = [rt.codes.get(c, 0) for c in surface] + [0]

    def observe(node, vid, i):
        seen.append((node, vid, i))
        return trimmed_moves(rt, node, vid, codes[i], trim)

    engine._walk(rt, codes, len(surface), observe)
    return seen


def test_search_visits_states_in_recursive_order(turkish):
    words = sorted({c.surface for c in golden_suite()}) + perturbed_golden(turkish, 100, seed=61)
    live = coaccessible_states(engine.runtime(turkish))
    for w in words:
        assert search_visits(w, turkish) == search_reference(w, turkish, live)[1], w
        assert search_visits(w, turkish, trim=False) == search_reference(w, turkish)[1], w


def random_surfaces(desc, count, seed):
    rng = random.Random(seed)
    letters = surface_letters(desc)
    return ["".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
            for _ in range(count)]


def test_analyze_matches_uncached_reference():
    words = (sorted({c.surface for c in golden_suite()})
             + perturbed_golden(load_turkish(), 300, seed=37)
             + random_surfaces(load_turkish(), 300, seed=41)
             + ["", "evd\u00e9", "evdeQ", "ev\u0301de", "evde" * 30])
    expected = None
    # each order fills the memo of a fresh description differently
    for order in (words, words[::-1]):
        desc = load_turkish(refresh=True)
        got = {w: [(a.lexical, a.gloss, a.pairs) for a in engine.analyze(w, desc)]
               for w in order}
        expected = expected or {w: search_reference(w, desc)[0] for w in words}
        assert got == expected
    assert any(expected.values()) and not all(expected.values())


UNKNOWN_CHARS = ("Q", "\u0301", "\u2603", "\x00", "#")


def test_live_moves_are_bounded():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    for w in perturbed_golden(desc, 300, seed=43) + random_surfaces(desc, 300, seed=47):
        engine.analyze(w, desc)

    def keys():
        return set(rt.closures)

    # characters that no pair realizes share code 0; NFC composes
    # "evde\u0301" into "evd\u00e9", whose unknown character stands at
    # position 3, as Q does in "evdQ"
    engine.analyze("evde", desc)
    engine.analyze("evdeQ", desc)
    engine.analyze("evQde", desc)
    engine.analyze("evdQ", desc)
    before = keys()
    for ch in UNKNOWN_CHARS:
        assert ch not in rt.codes
        engine.analyze("evde" + ch, desc)
        engine.analyze("ev%sde" % ch, desc)
        assert keys() == before, repr(ch)
    assert rt.n_codes == len({s for s in rt.surf if s != NULL}) + 1
    bound = len(rt.vec_list) * len(rt.trie.arcs) * (rt.n_codes + 1)
    assert 0 < len(before) and all(0 <= key < bound for key in before)


def composed_states(rt):
    """Every (trie node, vector id) state that the lexicon's moves and
    continuation jumps reach from the roots: the states of the lexicon
    composed with the rule automata."""
    trie = rt.trie
    seen = {(trie.roots[root], rt.init_vec) for root in rt.roots}
    stack = list(seen)
    while stack:
        node, vid = stack.pop()
        reached = [(trie.roots[cont], vid) for _, cont in trie.complete[node] if cont != TERMINAL]
        for sym, child in trie.arcs[node].items():
            for pid in rt.pairs_by_lex[sym]:
                nvid = rt.step_vec(vid, pid)
                if nvid is not None:
                    reached.append((child, nvid))
        for state in reached:
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return seen


def coaccessible_states(rt):
    """The composed states (composed_states) from which the moves and
    continuation jumps reach a final state, a node that completes an entry
    with # under a vector whose automata all accept the closing boundary,
    each automaton stepped on its own: a fixpoint over every state's
    successors."""
    trie = rt.trie
    successors = {}
    for node, vid in composed_states(rt):
        successors[node, vid] = [(trie.roots[cont], vid) for _, cont in trie.complete[node]
                                 if cont != TERMINAL] + [
            (child, rt.step_vec(vid, pid)) for sym, child in trie.arcs[node].items()
            for pid in rt.pairs_by_lex[sym] if rt.step_vec(vid, pid) is not None]
    live = {(node, vid) for node, vid in successors
            if any(cont == TERMINAL for _, cont in trie.complete[node])
            and not closing_rejecters(rt, vid)}
    grew = True
    while grew:
        grew = False
        for state, nxt in successors.items():
            if state not in live and any(s in live for s in nxt):
                live.add(state)
                grew = True
    return live


def test_live_moves_lead_only_to_live_states():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    live = coaccessible_states(rt)
    # the shipped walk found the live states this walk finds
    n = len(rt.trie.arcs)
    assert {(state % n, state // n) for state in rt.tables["live"]} == live
    assert rt.tables["composed"] == len(composed_states(rt)) > len(live) > 0
    golden = sorted({c.surface for c in golden_suite()})
    for w in golden + perturbed_golden(desc, 300, seed=97) + random_surfaces(desc, 300, seed=101):
        engine.analyze(w, desc)
    # a closure's consuming moves lead into live states alone
    k = rt.n_codes + 1
    targets = [e[0] // k for entries in rt.closures.values() for e in entries
               if not isinstance(e[0], str)]
    assert len(targets) > 1000
    assert all((state % n, state // n) in live for state in targets)
    # and the frontier's sets hold live states alone, but for the roots
    roots = {rt.init_vec * n + rt.trie.roots[root] for root in rt.roots}
    assert len(rt.frontier.keys) > 2
    assert all((state % n, state // n) in live
               for key in rt.frontier.keys for state in key if state not in roots)


def test_the_lexicon_bounds_analyze_memory():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    states = composed_states(rt)
    vectors = len(rt.vec_list)
    golden = sorted({c.surface for c in golden_suite()})
    words = (perturbed_golden(desc, 10000, seed=79) + random_surfaces(desc, 10000, seed=83)
             + [w[:k] + ch + w[k:] for ch in UNKNOWN_CHARS for w in golden[::8]
                for k in (0, len(w) // 2, len(w))])
    assert len(words) >= 20000
    for w in words:
        engine.analyze(w, desc)
    # analyze steps vectors only along composed states, so it interns none
    assert len(rt.vec_list) == vectors
    # and it keeps closures only for composed states and surface codes or
    # the end of the word
    n_codes = rt.n_codes
    n = len(rt.trie.arcs)
    assert all((key // (n_codes + 1) % n, key // (n_codes + 1) // n) in states
               for key in rt.closures)
    assert 0 < len(rt.closures) <= len(states) * (n_codes + 1)
    # and its frontier interns only subsets of the complete determinization
    # of the lexicon composed with the rules, from the same start set: sets
    # of states after a consuming move, stepped through their closures,
    # here those of the reference recursion
    fr = rt.frontier
    assert fr.keys[1] == tuple(sorted(rt.init_vec * n + rt.trie.roots[root]
                                      for root in rt.roots))
    live = coaccessible_states(rt)
    steps = {}
    subsets = {fr.keys[0], fr.keys[1]}
    stack = [fr.keys[1]]
    while stack:
        subset = stack.pop()
        for code in range(1, n_codes):
            nxt = tuple(sorted({e[0] for state in subset
                                for e in closure_reference(rt, state, code, live, steps)}))
            if nxt not in subsets:
                subsets.add(nxt)
                stack.append(nxt)
    assert len(fr.keys) > 1 and set(fr.keys) <= subsets


def test_the_closure_memo_is_bounded():
    # analyze keeps at most one closure per live state and surface code or
    # end of the word, whatever the input, and a closure's entries hold
    # ints, strings and tuples of them alone, so one full collection
    # untracks every entry
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    words = (sorted({c.surface for c in golden_suite()}) + perturbed_golden(desc, 300, seed=71)
             + random_surfaces(desc, 300, seed=73))
    for w in words + words:
        engine.analyze(w, desc)
    memo, k, live = rt.closures, rt.n_codes + 1, desc.tables["live"]
    assert set(rt.starts) <= live
    assert 0 < len(memo) <= len(live) * k
    assert all(key // k in live for key in memo)
    entries = [entry for value in memo.values() if value for entry in value]
    assert len(entries) > 1000
    assert all(entry[0] // k in live for entry in entries if not isinstance(entry[0], str))
    gc.collect()
    assert not any(gc.is_tracked(entry) for entry in entries)


def test_closure_entries_match_the_recursive_walk(cycle):
    # every memoized closure holds, in order, the consuming moves and the #
    # completions that the recursive walk reaches from its state without
    # reading a character
    turkish = load_turkish(refresh=True)
    for desc, words in ((turkish, sorted({c.surface for c in golden_suite()})
                         + perturbed_golden(turkish, 300, seed=113)),
                        (cycle, cycle_words(4))):
        rt = engine.runtime(desc)
        for w in words:
            engine.analyze(w, desc)
        live = coaccessible_states(rt)
        k = rt.n_codes + 1
        assert rt.closures
        for key, entries in rt.closures.items():
            state, code = divmod(key, k)
            assert closure_entries(rt, entries) == closure_reference(rt, state, code - 1, live), key
    assert len(engine.runtime(turkish).closures) > 1000


def test_the_collector_never_sees_the_memos():
    # a closure entry holds ints and strings alone, a closure is a tuple of
    # entries, a rules-off front a tuple of ints with a row of ints, and a
    # memo row of an entry's realizations a tuple of (int, string) tuples,
    # so full collections untrack the memos and later collections never
    # walk them
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    golden = sorted({c.surface for c in golden_suite()})
    for w in golden + perturbed_golden(desc, 200, seed=89):
        engine.analyze(w, desc)
        engine.trace(w, "analyze", desc)
    for w in golden:
        engine.lexicon_covers(w, desc)
    for root, tags in {split_gloss(c.gloss) for c in golden_suite()
                       if c.polarity == "positive"} - {None}:
        engine.generate_from_gloss(root, list(tags), desc)
    gc.collect()
    # a shipped vector row and the runtime's copy of it are dicts of ints
    rows = desc.tables["rows"]
    assert len(rows) > 100 and len(rt.vec_list) >= len(rows)
    assert not any(gc.is_tracked(row) for row in rows)
    assert not any(gc.is_tracked(row) for row in rt.vec_trans[:len(rows)])
    # and so is each entry of a closure
    entries = [entry for entries in rt.closures.values() for entry in entries]
    assert len(entries) > 1000
    assert not any(gc.is_tracked(entry) for entry in entries)
    gc.collect()
    # and so is each closure, and the memo of them
    closures = rt.closures
    assert len(closures) > 1000
    assert not gc.is_tracked(closures)
    assert not any(gc.is_tracked(entries) for entries in closures.values())
    # and so is a frontier set or a rules-off front
    for fr in (rt.frontier, rt.covers):
        assert len(fr.keys) > 2
        assert not any(gc.is_tracked(key) for key in fr.keys)
        assert not any(gc.is_tracked(row) for row in fr.trans)
    # and so is an entry's memo of realizations, each row a tuple of
    # (vector id, surface) tuples
    memos = [memo for tagged, links in rt.glosses.values()
             for entries in [*tagged.values(), links] for *_, memo in entries]
    assert sum(map(len, memos)) > 100
    assert not any(gc.is_tracked(memo) for memo in memos)
    assert not any(gc.is_tracked(row) for memo in memos for row in memo.values())


def test_one_collection_untracks_the_cover_tables():
    # a node table is a dict of flat tuples, which the collection that
    # untracks the tuples untracks too
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    for w in sorted({c.surface for c in golden_suite()}):
        engine.lexicon_covers(w, desc)
    gc.collect()
    assert len(rt.cover_nodes) > 100
    assert not any(gc.is_tracked(table) for table in rt.cover_nodes.values())


def trace_digest(word, desc):
    """A short SHA-256 of a trace report's steps, layer and blockers."""
    report = engine.trace(word, "analyze", desc)
    text = json.dumps([[[s.position, s.pair, s.died] for s in report.steps], report.layer,
                       [list(b) for b in report.outcome.blockers]], ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_trace_reports_equal_the_untrimmed_search_ones(turkish):
    # pinned before analyze's search was trimmed, on the golden words and
    # the first 200 words of the oov trace sample of bench/corpus.py, seed 7:
    # trace searches untrimmed, so it reports every rejecting pair
    pins = json.loads((Path(__file__).parent / "trace_pins.json").read_text("utf-8"))
    assert len(pins) == 370
    assert set(pins) > {c.surface for c in golden_suite()}
    for word, digest in pins.items():
        assert trace_digest(word, turkish) == digest, word


def test_trace_adds_no_move_entries():
    # trace supplies its own untrimmed moves, so after analyze has searched
    # the pinned words, tracing them adds no entry to the memo of analyze's
    # moves, the closures
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    words = json.loads((Path(__file__).parent / "trace_pins.json").read_text("utf-8"))
    for w in words:
        engine.analyze(w, desc)

    def move_entries():
        return {name: k for name, k in rt.cache_sizes().items() if name.startswith("closure")}

    before = move_entries()
    assert before and all(before.values())
    for w in words:
        engine.trace(w, "analyze", desc)
    assert move_entries() == before


def test_trace_pays_for_the_observed_search_only_when_it_reads_it(monkeypatch):
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    words = {"evde": "none", "xxxx": "lexicon", "kitapı": "rules"}
    for w in words:
        engine.analyze(w, desc)
    rejected, searched = [], []
    rejecters, observe = rt.rejecters, engine._observe

    def counted_rejecters(vid, pid):
        rejected.append((vid, pid))
        return rejecters(vid, pid)

    def counted_observe(*args):
        found, events = observe(*args)
        searched.append(events)
        return found, events

    monkeypatch.setattr(rt, "rejecters", counted_rejecters)
    monkeypatch.setattr(engine, "_observe", counted_observe)
    # an accepted word and a lexicon-layer word: no search, no rule named
    for w in ("evde", "xxxx"):
        report = engine.trace(w, "analyze", desc)
        assert report.layer == words[w]
        assert rejected == [] and searched == []
        steps = report.steps
        assert len(searched) == 1 and report.steps is steps
        # a read report no longer holds the function that built its steps
        assert report._build is None
        searched.clear()
        rejected.clear()
    # a rules-layer word: the search runs, and only the deepest events are named
    report = engine.trace("kitapı", "analyze", desc)
    assert report.layer == "rules" and report.blocking_rules()
    (events,) = searched
    deepest = max(e[0] for e in events)
    assert rejected and set(rejected) <= {(vid, pid) for d, vid, pid in events if d == deepest}
    assert any(d < deepest and pid >= 0 for d, _, pid in events)
    assert report.steps is report.steps and len(searched) == 1
    assert report._build is None


def test_lazy_steps_are_built_once_per_reader_and_equal(turkish):
    for w, direction in (("kitapı", "analyze"), ("evde", "analyze"), ("xxxx", "analyze"),
                         ("ev^-DA", "generate"), ("kitap^-(y)H", "generate")):
        serial = engine.trace(w, direction, turkish).steps
        assert serial
        report = engine.trace(w, direction, turkish)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(k):
            barrier.wait()
            results[k] = report.steps

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert all(steps == serial for steps in results), w
        assert report.steps == serial and report == engine.trace(w, direction, turkish)


def test_trace_report_is_a_slotted_class(turkish):
    report = engine.trace("kitapı", "analyze", turkish)
    assert not hasattr(report, "__dict__") and not dataclasses.is_dataclass(report)
    text = repr(report)
    assert text.startswith("TraceReport(steps=[TraceStep(position=") and "layer='rules'" in text
    other = engine.TraceReport(list(report.steps), report.outcome, "rules")
    assert other == report and other != engine.TraceReport([], report.outcome, "rules")
    assert (report == "kitapı") is False


def test_frontier_sends_unknown_characters_to_the_empty_set():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    assert engine.analyze("evQde", desc) == []
    # the empty set, the start set and the sets after "e" and "ev"
    fr = rt.frontier
    assert len(fr.keys) == 4
    ev = fr.trans[fr.trans[1][rt.codes["e"]]][rt.codes["v"]]
    assert fr.trans[ev] == {0: 0}
    sizes = rt.cache_sizes()
    for ch in UNKNOWN_CHARS:
        assert engine.analyze("ev%sde" % ch, desc) == []
        assert rt.cache_sizes() == sizes, repr(ch)


def test_frontier_is_built_once_and_only_for_words_without_reading():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    accepted = sorted({c.surface for c in golden_suite() if c.polarity == "positive"})
    assert all(engine.analyze(w, desc) for w in accepted)
    # beyond the empty and the start sets that the runtime built, nor does
    # analyze build a rules-off front
    sizes = rt.cache_sizes()
    assert [sizes[name] for name in ("frontier sets", "frontier transitions", "rules-off fronts",
                                     "rules-off transitions")] == [2, 0, 2, 0]
    batch = perturbed_golden(desc, 300, seed=53) + random_surfaces(desc, 300, seed=59)
    first = [engine.analyze(w, desc) for w in batch]
    assert any(first) and not all(first)
    sizes = rt.cache_sizes()
    assert sizes["frontier sets"] > 2
    assert [engine.analyze(w, desc) for w in batch] == first
    assert rt.cache_sizes() == sizes


def fill_walk(fr, rt, surface):
    """Whether the _Frontier fr accepts the surface word: its walk over
    the word's codes (0 for a character that no pair realizes) and the end
    of the word, each missing transition filled on the way."""
    sid = 1
    for code in [rt.codes.get(c, 0) for c in unicodedata.normalize("NFC", surface)] + [engine._END]:
        nxt = fr.trans[sid].get(code)
        sid = fr.fill(sid, code, rt) if nxt is None else nxt
        if not sid:
            return False
    return True


def test_filled_automata_are_exact():
    # filled along every word, the words with readings included, analyze's
    # frontier accepts exactly the words that analyze reads, and the
    # rules-off fronts exactly those that a lexicon path covers
    base = load_turkish()
    golden = sorted({c.surface for c in golden_suite()})
    words = (golden + perturbed_golden(base, 300, seed=131) + random_surfaces(base, 300, seed=137)
             + [w[:k] + ch + w[k:] for ch in UNKNOWN_CHARS for w in golden[::8]
                for k in (0, len(w) // 2, len(w))])
    ref = load_turkish(refresh=True)
    expected = {w: (bool(engine.analyze(w, ref)), covers_reference(w, ref)) for w in words}
    # each order fills the automata of a fresh description differently
    for order in (words, words[::-1]):
        desc = load_turkish(refresh=True)
        rt = engine.runtime(desc)
        got = {w: (fill_walk(rt.frontier, rt, w), fill_walk(rt.covers, rt, w)) for w in order}
        assert got == expected
        # analyze and lexicon_covers read the filled automata, add nothing
        # to them and agree
        sizes = rt.cache_sizes()
        assert {w: (bool(engine.analyze(w, desc)), engine.lexicon_covers(w, desc))
                for w in order} == expected
        assert all(rt.cache_sizes()[name] == sizes[name] for name in
                   ("frontier sets", "frontier transitions", "rules-off fronts",
                    "rules-off transitions"))
    for k in (0, 1):
        assert any(e[k] for e in expected.values()) and not all(e[k] for e in expected.values())


def rules_off_sizes(rt):
    """The counts of rules-off fronts and transitions in cache_sizes()."""
    sizes = rt.cache_sizes()
    return sizes["rules-off fronts"], sizes["rules-off transitions"]


def covers_reference(surface, desc):
    """lexicon_covers as a plain search over (trie node, position) states,
    following every deletion, consuming move and continuation jump."""
    rt = engine.runtime(desc)
    n = len(surface)
    trie = rt.trie
    stack = [(trie.roots[root], 0) for root in desc.lexicon.roots]
    seen = set()
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        node, i = state
        for gloss, cont in trie.complete[node]:
            if cont == TERMINAL:
                if i == n:
                    return True
            else:
                stack.append((trie.roots[cont], i))
        for _, _, child, consumes in trie.moves[node].get(
                rt.codes.get(surface[i]) if i < n else 0, trie.dels[node]):
            stack.append((child, i + consumes))
    return False


def test_lexicon_covers_matches_reference_search(turkish):
    rng = random.Random(17)
    letters = surface_letters(turkish)
    randoms = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
               for _ in range(300)]
    edge = ["", "xxxx", "-", "evde" * 30, "ev\u00e9de", "evdeQ"]
    words = perturbed_golden(turkish, 300, seed=23) + randoms + edge
    got = {w: engine.lexicon_covers(w, turkish) for w in words}
    assert got == {w: covers_reference(w, turkish) for w in words}
    assert got[""] and not got["xxxx"] and not got["evdeQ"]
    assert any(got.values()) and not all(got.values())
    # a second pass reads the memoized fronts alone
    rt = engine.runtime(turkish)
    sizes = rules_off_sizes(rt)
    assert {w: engine.lexicon_covers(w, turkish) for w in words} == got
    assert rules_off_sizes(rt) == sizes


CYCLE_RULES = """ALPHABET
a b c %-:0 ;
SETS
DEFINITIONS
RULES
"1.r" a:a => _ ;
"""

# A and B complete each other (a cycle of continuation classes); C is
# completed through the deletion of '-'.
CYCLE_LEXICON = """
LEXICON Root
:0 A ;

LEXICON A
:a B ;
:0 B ;
:- C ;

LEXICON B
:b A ;
:0 A ;
:0 # ;

LEXICON C
:cc # ;
"""


def cycle_words(length, letters="abcx"):
    """Every string of up to `length` of the letters."""
    words = [""]
    for _ in range(length):
        words += [w + ch for w in words if len(w) == len(words[-1]) for ch in letters]
    return words


def lexicon_strings(lexicon, length):
    """The lexical strings of at most `length` symbols that root-to-# paths
    spell, by enumerating the paths; a path that reaches a sublexicon twice
    with no symbol in between is left out, as cutting that loop spells the
    same string."""
    out = set()
    stack = [(root, "", (root,)) for root in lexicon.roots]
    while stack:
        name, text, since = stack.pop()
        for e in lexicon.sublexicons[name]:
            t = text + e.form_text()
            if len(t) > length:
                continue
            if e.continuation == TERMINAL:
                out.add(t)
            elif e.form:
                stack.append((e.continuation, t, (e.continuation,)))
            elif e.continuation not in since:
                stack.append((e.continuation, t, since + (e.continuation,)))
    return out


def test_is_lexicon_path_with_a_continuation_cycle():
    from conftest import make_description
    desc = make_description(CYCLE_RULES, CYCLE_LEXICON)
    paths = lexicon_strings(desc.lexicon, 5)
    assert {"", "ab", "abab", "a-cc", "-cc"} <= paths and "ababx" not in paths
    for w in cycle_words(5) + sorted(paths):
        assert engine.is_lexicon_path(w, desc) == (w in paths), w
    # each (sublexicon, position) is tried once, so the A-B cycle costs
    # time linear in the length
    start = time.perf_counter()
    assert not engine.is_lexicon_path("ab" * 50 + "x", desc)
    assert engine.is_lexicon_path("ab" * 50 + "-cc", desc)
    assert time.perf_counter() - start < 1


def test_enumerate_paths_cuts_a_cycle_of_empty_links():
    from conftest import make_description
    lexicon = make_description(CYCLE_RULES, CYCLE_LEXICON).lexicon
    assert enumerate_paths(lexicon, 2) == [(w, "") for w in
                                           ("", "-cc", "a", "aa", "ab", "b", "ba", "bb")]
    # every lexical string of up to five morphemes, each letter and cc one
    paths = enumerate_paths(lexicon, 5)
    expected = {w for w in lexicon_strings(lexicon, 6) if len(w.replace("cc", "c")) <= 5}
    assert len(paths) == len(expected) and {w for w, _ in paths} == expected


def test_lexicon_covers_with_a_continuation_cycle():
    from conftest import make_description
    words = cycle_words(5)
    expected = None
    for order in (words, words[::-1]):
        desc = make_description(CYCLE_RULES, CYCLE_LEXICON)
        got = {w: engine.lexicon_covers(w, desc) for w in order}
        expected = expected or {w: covers_reference(w, desc) for w in words}
        assert got == expected
        # a second pass reads the memoized fronts alone
        sizes = rules_off_sizes(engine.runtime(desc))
        assert {w: engine.lexicon_covers(w, desc) for w in order} == expected
        assert rules_off_sizes(engine.runtime(desc)) == sizes
    assert expected["abacc"] and not expected["c"] and not expected["cca"]


def test_analyze_matches_reference_with_a_continuation_cycle():
    from conftest import make_description
    # The A-B cycle of empty links is cut where a path jumps into A or B a
    # second time at one position, so each letter costs the same few states
    words = cycle_words(5)
    expected = None
    for order in (words, words[::-1]):
        desc = make_description(CYCLE_RULES, CYCLE_LEXICON)
        got = {w: [(a.lexical, a.gloss, a.pairs) for a in engine.analyze(w, desc)]
               for w in order}
        expected = expected or {w: search_reference(w, desc)[0] for w in words}
        assert got == expected
        # the words without a reading are now answered by the frontier alone
        sizes = engine.runtime(desc).cache_sizes()
        assert sizes["frontier sets"] > 1
        assert all(engine.analyze(w, desc) == [] for w in order if not expected[w])
        assert engine.runtime(desc).cache_sizes() == sizes
    assert expected["acc"] and expected["ababa"] and not expected["c"] and not expected["cca"]
    for w in words:
        assert search_visits(w, desc) == search_reference(w, desc)[1], w
    for w, lexical in (("ab" * 20, "ab" * 20), ("ab" * 20 + "cc", "ab" * 20 + "-cc")):
        desc = make_description(CYCLE_RULES, CYCLE_LEXICON)
        start = time.perf_counter()
        got = [(a.lexical, a.gloss, a.pairs) for a in engine.analyze(w, desc)]
        assert time.perf_counter() - start < 1
        assert [g[:2] for g in got] == [(lexical, "")] and got == search_reference(w, desc)[0]


# Loops that read no surface character but add a gloss or a deleted
# symbol: every word with a reading has unboundedly many.
LOOP_LEXICONS = ("LEXICON Root\n:0 A ;\nLEXICON A\n+G:0 A ;\n:a # ;\n",
                 "LEXICON Root\n:0 A ;\nLEXICON A\n:- A ;\n:a # ;\n")


@pytest.mark.parametrize("lexicon", LOOP_LEXICONS)
def test_search_rejects_a_loop_that_adds_symbols_or_glosses(lexicon):
    from conftest import make_description
    desc = make_description(CYCLE_RULES, lexicon)
    assert engine.analyze("b", desc) == []
    for call in (lambda: engine.analyze("a", desc), lambda: engine.trace("a", "analyze", desc)):
        with pytest.raises(engine.DescriptionError, match="sublexicon A "):
            call()
    # a word without a reading gets [] before and after, from the search or
    # from the subset frontier alike
    assert engine.analyze("b", desc) == [] and engine.analyze("c", desc) == []
    with pytest.raises(engine.DescriptionError):
        search_reference("a", desc)


def test_search_raises_only_when_a_reading_passes_the_loop():
    from conftest import make_description
    # the +G loop of A adds a gloss, but the only reading of a goes through B
    desc = make_description(CYCLE_RULES, "LEXICON Root\n:0 A ;\n:0 B ;\n"
                                         "LEXICON A\n+G:0 A ;\n:b # ;\nLEXICON B\n:a # ;\n")
    assert lexicals(engine.analyze("a", desc)) == [("a", "")]
    assert [g[:2] for g in search_reference("a", desc)[0]] == [("a", "")]
    assert engine.trace("a", "analyze", desc).outcome.accepted
    for call in (lambda: engine.analyze("b", desc), lambda: engine.trace("b", "analyze", desc),
                 lambda: search_reference("b", desc)):
        with pytest.raises(engine.DescriptionError, match="sublexicon A"):
            call()
    assert engine.analyze("c", desc) == [] and search_reference("c", desc)[0] == []


def test_search_follows_a_loop_until_the_rules_break_it_off():
    from conftest import make_description
    # no two deletions of '-' in a row: the path jumps back into A once, with
    # another rule vector, and the rules kill the second deletion
    desc = make_description(CYCLE_RULES + '"2.d" %-:0 /<= %-:0 _ ;\n', LOOP_LEXICONS[1])
    got = [(a.lexical, a.gloss, a.pairs) for a in engine.analyze("a", desc)]
    assert [g[:2] for g in got] == [("-a", ""), ("a", "")]
    assert got == search_reference("a", desc)[0]


def test_enumerate_paths_rejects_a_loop_that_adds_glosses():
    from conftest import make_description
    with pytest.raises(LinkError, match="LEXICON A "):
        enumerate_paths(make_description(CYCLE_RULES, LOOP_LEXICONS[0]).lexicon, 2)
    # a deletion loop reads a symbol, so the budget bounds it
    assert enumerate_paths(make_description(CYCLE_RULES, LOOP_LEXICONS[1]).lexicon, 3) == [
        ("--a", ""), ("-a", ""), ("a", "")]


def test_cover_tables_are_bounded(turkish):
    desc = load_turkish(refresh=True)
    for w in perturbed_golden(desc, 300, seed=29):
        engine.lexicon_covers(w, desc)
    rt = engine.runtime(desc)
    nodes = list(rt.trie.roots.values())
    for node in nodes:
        nodes.extend(rt.trie.arcs[node].values())
    assert 0 < len(rt.cover_nodes) <= len(nodes)


def test_rules_off_fronts_are_bounded():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    assert rules_off_sizes(rt) == (2, 0)
    rng = random.Random(67)
    letters = surface_letters(desc) + list(UNKNOWN_CHARS)
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 12)))
             for _ in range(2000)] + ["evde"]
    got = {w: engine.lexicon_covers(w, desc) for w in words}
    assert got == {w: covers_reference(w, desc) for w in words}
    fr = rt.covers
    fronts, transitions = rules_off_sizes(rt)
    assert fronts == len(fr.keys) and transitions == sum(map(len, fr.trans))
    # the empty front, the start front and at most one new front and one
    # character transition per character read, and at most one end entry
    # per word
    read = sum(map(len, words))
    assert 2 < fronts <= 2 + read
    assert sum(code != engine._END for trans in fr.trans for code in trans) <= read
    assert sum(engine._END in trans for trans in fr.trans) <= len(words)
    # unknown characters are not read: no transition has code 0
    assert all(0 < code < rt.n_codes or code == engine._END
               for trans in fr.trans for code in trans)
    # each word's walk over the transitions ends in the empty front 0 when
    # it dies, else in a front whose end entry holds its answer: the front
    # itself when a path ends there, else 0
    for w, covered in got.items():
        sid = 1
        for c in unicodedata.normalize("NFC", w):
            sid = fr.trans[sid].get(rt.codes.get(c), 0)
        if sid:
            assert engine._END in fr.trans[sid], w
            assert fr.trans[sid][engine._END] == (sid if covered else 0), w
        else:
            assert not covered, w
    for ch in UNKNOWN_CHARS:
        assert ch not in rt.codes
        assert not any(engine.lexicon_covers(w + ch, desc) for w in words[:100])
        assert not engine.lexicon_covers("ev%sde" % ch, desc)
        assert rules_off_sizes(rt) == (fronts, transitions), repr(ch)


def check_table(table):
    """An interned table is consistent and filled: key k has id k, and there
    is one transition row per key."""
    assert len(table.keys) > 1
    assert len(table.ids) == len(table.keys) == len(table.trans)
    assert all(table.ids[key] == k for k, key in enumerate(table.keys))


def test_concurrent_calls_match_serial(turkish):
    """Four threads share one fresh description from its first call on:
    one runtime is built and every result equals a serial run's."""
    cases = golden_suite()
    words = sorted({c.surface for c in cases}) + perturbed_golden(turkish, 60, seed=5)
    lexicals = sorted({c.lexical for c in cases if c.polarity == "positive"})
    glosses = sorted({split_gloss(c.gloss) for c in cases if c.polarity == "positive"} - {None})

    def run(desc, offset=0):
        out = {}
        for w in words[offset:] + words[:offset]:
            out["A", w] = [(a.lexical, a.gloss, a.pairs) for a in engine.analyze(w, desc)]
            r = engine.trace(w, "analyze", desc)
            out["T", w] = (r.steps, r.outcome.accepted, r.outcome.blockers, r.layer)
            out["C", w] = engine.lexicon_covers(w, desc)
        for lex in lexicals:
            out["G", lex] = engine.generate(lex, desc, validate_morphotactics=True)
        # the threads share the gloss index once one of them has stored it,
        # and fill its memos of entry realizations
        k = offset * len(glosses) // len(words)
        for root, tags in glosses[k:] + glosses[:k]:
            out["F", root, tags] = engine.generate_from_gloss(root, list(tags), desc)
        return out

    serial = run(turkish)
    # accepted and rejected words alike, so the threads fill the closures
    # of dead ends too
    assert any(serial["A", w] for w in words) and not all(serial["A", w] for w in words)
    assert len(glosses) > 100 and all(serial["F", root, tags] for root, tags in glosses)
    # rejected words at both layers, so the threads fill the closure tables
    layers = {serial["T", w][3] for w in words}
    assert {"none", "rules", "lexicon"} <= layers
    fresh = load_turkish(refresh=True)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(k):
        barrier.wait()
        results[k] = (engine.runtime(fresh), run(fresh, k * len(words) // 4))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len({id(rt) for rt, _ in results}) == 1
    # every table was filled, and no key lost its id or its row
    rt = results[0][0]
    assert len(rt.frontier.keys) > 2 and len(rt.covers.keys) > 2
    for table in [rt.vectors, rt.frontier, rt.covers] + rt.bundles:
        check_table(table)
    for _, out in results:
        assert out == serial


def check_vectors_against_automata(desc):
    """Every interned vector and pair id, the end of the word included:
    step_vec and rejecters equal a flat recomputation that steps each
    automaton's delta on its own."""
    rt = engine.runtime(desc)
    names, frame = rt.rule_names, rt.frame_id
    assert rt.end == frame + 1
    classes = [[d.class_of[pid] for d in dfas(rt)] for pid in range(frame + 1)]
    n_vectors = len(rt.vec_list)
    for vid in range(n_vectors):
        states = vector_states(rt, vid)
        assert len(states) == len(dfas(rt))
        rows = [d.delta[q] for d, q in zip(dfas(rt), states)]
        for pid in range(frame + 1):
            nxt = [row.get(c) for row, c in zip(rows, classes[pid])]
            rejecting = tuple(name for name, q in zip(names, nxt) if q is None)
            nvid = rt.step_vec(vid, pid)
            assert (None if nvid is None else vector_states(rt, nvid)) == (
                None if rejecting else tuple(nxt)), (vid, pid)
            assert rt.rejecters(vid, pid) == rejecting, (vid, pid)
        closing = closing_rejecters(rt, vid)
        assert rt.rejecters(vid, rt.end) == closing, vid
        assert rt.step_vec(vid, rt.end) == (None if closing else vid), vid
    return n_vectors


def test_analyze_steps_no_automaton(monkeypatch):
    # the trimmed search and the frontier read the vector transitions that
    # the walk stepped, shipped in the bundled description and reloaded by
    # the walking runtime of a compiled one
    from conftest import make_description
    bundled = load_turkish(refresh=True)
    bundled.lexicon     # its compile-time parts, which the inputs read, compiled uncounted
    compiled = [(make_description(DELETION_RULES, "LEXICON Root\n:abb # ;\n:b # ;\n"),
                 ["ab", "abb", "b", "ba", "a", ""]),
                (make_description(CYCLE_RULES, CYCLE_LEXICON), cycle_words(4))]
    steps = []
    step = engine._Bundle.step

    def counted(self, *args):
        steps.append(args)
        return step(self, *args)

    monkeypatch.setattr(engine._Bundle, "step", counted)
    words = (sorted({c.surface for c in golden_suite()}) + perturbed_golden(bundled, 200, seed=59)
             + random_surfaces(bundled, 200, seed=67))
    for desc, batch in [(bundled, words)] + compiled:
        readings = [engine.analyze(w, desc) for w in batch]
        assert any(readings) and not all(readings)
        assert len(engine.runtime(desc).frontier.keys) > 2
    assert steps == []
    # trace steps the pairs that the walk dropped, and is counted
    assert not engine.trace("kitapı", "analyze", bundled).outcome.accepted
    assert steps


# CYCLE_LEXICON with a root and tags, so that its paths have gloss paths
GLOSSED_CYCLE_LEXICON = (CYCLE_LEXICON.replace("LEXICON Root\n:0 A ;", "LEXICON Root\n[ROOT=r]:0 A ;")
                         .replace(":a B ;", "+A:a B ;").replace(":b A ;", "+B:b A ;"))


def test_generate_from_gloss_steps_no_automaton(monkeypatch):
    # gloss generation realizes each entry through the vector rows that the
    # walk stepped, shipped in the bundled description and reloaded by the
    # walking runtime of a compiled one, and keeps the live states alone:
    # it steps no bundle, interns no vector, and memoizes each entry's
    # realization per kept vector
    from conftest import make_description
    bundled = load_turkish(refresh=True)
    bundled.lexicon     # its compile-time parts, which the inputs read, compiled uncounted
    compiled = [make_description(DELETION_RULES, "LEXICON Root\n[ROOT=r]:abb # ;\n"
                                                 "[ROOT=r]:b S ;\nLEXICON S\n+X:a # ;\n:0 # ;\n"),
                make_description(CYCLE_RULES, GLOSSED_CYCLE_LEXICON)]
    steps = []
    step = engine._Bundle.step

    def counted(self, *args):
        steps.append(args)
        return step(self, *args)

    monkeypatch.setattr(engine._Bundle, "step", counted)
    golden = sorted({split_gloss(c.gloss) for c in golden_suite()} - {None})
    for desc in [bundled] + compiled:
        rt = engine.runtime(desc)
        n_vectors = len(rt.vec_list)
        glosses = sorted({split_gloss(g) for _, g in enumerate_paths(desc.lexicon, 4)} - {None})
        items = random.Random(83).sample(glosses, min(500, len(glosses)))
        outputs = [gloss_outcome(engine.generate_from_gloss, root, list(tags), desc)
                   for root, tags in (golden if desc is bundled else []) + items]
        assert any(type(out) is list and out for out in outputs)
        assert len(rt.vec_list) == n_vectors
        # every memo key is a kept vector, and every state a row holds is live
        live, n_nodes, kept = desc.tables["live"], len(rt.trie.arcs), len(desc.tables["vectors"])
        memos = [(entry_steps, memo) for tagged, links in rt.glosses.values()
                 for entries in [*tagged.values(), links] for _, _, entry_steps, memo in entries]
        assert sum(len(memo) for _, memo in memos) > 0
        for entry_steps, memo in memos:
            assert all(vid < kept for vid in memo)
            if entry_steps:
                node = entry_steps[-1][1]
                assert all(nvid * n_nodes + node in live for row in memo.values()
                           for nvid, _ in row)
    assert steps == []


def test_the_shipped_rows_hold_the_walked_transitions():
    # on a runtime whose rows start empty, every composed state's moves
    # stepped one automaton at a time give each kept vector's row: the
    # pairs into a kept vector, compared by the automata's states, and the
    # end of the word wherever a composed state completes with #
    desc = load_turkish(refresh=True)
    rows = desc.tables["rows"]
    rt = engine.runtime(desc)
    for row in rt.vec_trans:
        row.clear()
    kept = {vector_states(rt, vid): vid for vid in range(len(rows))}
    assert len(kept) == len(rows) == len(desc.tables["vectors"])
    expected = [{} for _ in rows]
    # the start vector (id 0) steps over the opening boundary
    expected[0][rt.frame_id] = vector_states(rt, rt.init_vec)
    for node, vid in composed_states(rt):
        if vid >= len(rows):
            continue
        states = vector_states(rt, vid)
        for sym in rt.trie.arcs[node]:
            for pid in rt.pairs_by_lex[sym]:
                nxt = tuple(d.delta[q].get(d.class_of[pid]) for d, q in zip(dfas(rt), states))
                if nxt in kept:
                    expected[vid][pid] = nxt
        if any(cont == TERMINAL for _, cont in rt.trie.complete[node]):
            expected[vid][rt.end] = None if closing_rejecters(rt, vid) else states
    got = [{pid: None if nvid is None else vector_states(rt, nvid) for pid, nvid in row.items()}
           for row in rows]
    assert got == expected
    assert sum(map(len, rows)) > 1000
    assert any(row.get(rt.end, ()) is None for row in got)
    assert all(list(row) == sorted(row) for row in rows)


def test_runtime_keeps_fewer_than_30_attributes(turkish):
    # CPython 3.11 reads the attributes of an instance with 30 or more of
    # them markedly slower, and every search reads the runtime's
    assert len(vars(engine.runtime(turkish))) < 30
    # nor does a call add one
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    count = len(vars(rt))
    for w in ("evde", "evide", "xxxx"):
        engine.analyze(w, desc)
        engine.lexicon_covers(w, desc)
        engine.trace(w, "analyze", desc).steps
    engine.generate_from_gloss("ev", ["LOC"], desc)
    assert len(vars(rt)) == count < 30


def test_bundled_vectors_match_the_automata():
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    assert len(rt.bundles) == 13 and [len(b.deltas) for b in rt.bundles] == [16] * 12 + [6]
    for w in sorted({c.surface for c in golden_suite()}) + perturbed_golden(desc, 50, seed=71):
        engine.analyze(w, desc)
    assert check_vectors_against_automata(desc) > 100
    # each bundle row maps a joint class to a tuple id or to the dead
    # marker, which is remembered too
    steps = {b: {nxt for row in b.trans for nxt in row.values()} for b in rt.bundles}
    assert all(steps[b] <= {engine._DEAD, *range(len(b.keys))} for b in rt.bundles)
    assert any(engine._DEAD in nxt for nxt in steps.values())
    # the start vector and what the opening boundary makes of it
    start = vector_states(rt, 0)
    assert start == tuple(d.start for d in dfas(rt))
    assert vector_states(rt, rt.init_vec) == tuple(
        d.delta[d.start][d.class_of[rt.frame_id]] for d in dfas(rt))


def test_bundled_vectors_of_a_description_smaller_than_a_bundle():
    from conftest import make_description
    for rules, lexicon, words in ((CYCLE_RULES, CYCLE_LEXICON, cycle_words(2)),
                                  (DELETION_RULES, "LEXICON Root\n:abb # ;\n:b # ;\n",
                                   ["ab", "abb", "b", "ba", "a", ""])):
        desc = make_description(rules, lexicon)
        rt = engine.runtime(desc)
        assert len(rt.bundles) == 1 and len(rt.bundles[0].deltas) == len(dfas(rt)) < 16
        for w in words:
            engine.analyze(w, desc)
            engine.trace(w, "analyze", desc)
        assert check_vectors_against_automata(desc) >= 1


def test_compile_rejects_an_opening_boundary_that_kills_a_rule(turkish, monkeypatch):
    automata = copy.deepcopy(turkish.rule_automata)
    ra = automata[0]
    del ra.dfa.delta[ra.dfa.start][ra.dfa.class_of[turkish.alphabet.frame_id]]
    monkeypatch.setattr(rulemod, "compile_check_set", lambda *args: automata)
    with pytest.raises(engine.DescriptionError, match="#:#") as err:
        engine.compile_description(turkish.declarations, turkish.ground_rules, turkish.lexicon,
                                   turkish.alphabet)
    assert ra.name in str(err.value)


def with_automata(desc, rule_automata):
    """A new Description of desc's parts with other rule automata."""
    return engine.Description(desc.declarations, desc.alphabet, rule_automata, desc.ground_rules,
                              desc.lexicon)


def test_a_replaced_description_walks_its_own_composition(turkish):
    desc = with_automata(turkish, list(turkish.rule_automata))
    assert desc.tables is None and turkish.tables is not None
    fresh = compile_turkish()
    # its runtime's walk gives the tables of a compile, with the same ids
    assert engine.runtime(desc).tables == fresh.tables
    words = (sorted({c.surface for c in golden_suite()}) + perturbed_golden(desc, 200, seed=103)
             + random_surfaces(desc, 200, seed=107))
    assert [engine.analyze(w, desc) for w in words] == [engine.analyze(w, fresh) for w in words]


def test_a_replaced_used_description_builds_its_own_runtime(turkish):
    # the copy answers by its own rule automata, not by the runtime of the
    # description it was made from
    name = "34.Instantiation of the pronominal n, N:n"
    assert engine.analyze("evide", turkish) == []
    assert engine.trace("evide", "analyze", turkish).blocking_rules() == [name]
    desc = with_automata(turkish, [ra for ra in turkish.rule_automata if ra.name != name])
    assert desc._runtime is None and desc.tables is None
    # without the n of the possessive before the case
    assert lexicals(engine.analyze("evide", desc)) == [("ev^-(s)HN-DA", "[ROOT=ev]+POSS3s+LOC")]
    assert engine.runtime(desc) is not engine.runtime(turkish)
    assert desc.tables is not None and desc.tables != turkish.tables
    assert engine.analyze("evide", turkish) == []


def test_a_used_description_pickles_without_its_runtime():
    desc = load_turkish(refresh=True)
    assert engine.analyze("evde", desc)
    back = pickle.loads(pickle.dumps(desc, pickle.HIGHEST_PROTOCOL))
    assert desc._runtime is not None and back._runtime is None
    assert back.tables == desc.tables
    assert lexicals(engine.analyze("evde", back)) == lexicals(engine.analyze("evde", desc))


def test_a_used_description_keeps_its_tables_clean():
    # the runtime steps from copies of the shipped rows, so what generate
    # and trace add to them reaches neither the tables nor a pickle
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    shipped = (len(rt.vec_list), sum(map(len, rt.vec_trans)))
    cases = golden_suite()
    words = (sorted({c.surface for c in cases}) + perturbed_golden(desc, 150, seed=109)
             + random_surfaces(desc, 150, seed=113))
    strings = sorted({c.lexical for c in cases if c.polarity == "positive"})
    glosses = sorted({(m[1], tuple(m[2].split("+")[1:])) for c in cases
                      for m in [re.fullmatch(r"\[ROOT=([^]]+)\]((?:\+[^+]+)*)", c.gloss)] if m})
    assert len(words) + len(strings) + len(glosses) > 400
    for w in words:
        engine.analyze(w, desc)
        engine.trace(w, "analyze", desc)
    for lex in strings:
        engine.generate(lex, desc)
        engine.trace(lex, "generate", desc)
    for root, tags in glosses:
        gloss_outcome(engine.generate_from_gloss, root, list(tags), desc)
    assert len(rt.vec_list) > shipped[0] and sum(map(len, rt.vec_trans)) > shipped[1]
    assert desc.tables == compile_turkish().tables
    back = pickle.loads(pickle.dumps(desc, pickle.HIGHEST_PROTOCOL))
    assert back.tables == desc.tables
    assert [engine.analyze(w, back) for w in words] == [engine.analyze(w, desc) for w in words]


def test_a_compile_builds_one_runtime(monkeypatch):
    # the runtime that walks the composition is the one the searches use
    built = []
    runtime = engine._Runtime

    def counted(tables):
        built.append(tables)
        return runtime(tables)

    monkeypatch.setattr(engine, "_Runtime", counted)
    desc = compile_turkish()
    assert engine.analyze("evde", desc)
    assert len(built) == 1 and built[0] is desc.tables


def test_runtime_rejects_an_opening_boundary_that_kills_a_rule(turkish):
    # compile_rule builds no such automaton; an edited one is named
    desc = with_automata(turkish, copy.deepcopy(turkish.rule_automata))
    ra = desc.rule_automata[0]
    del ra.dfa.delta[ra.dfa.start][ra.dfa.class_of[desc.alphabet.frame_id]]
    with pytest.raises(engine.DescriptionError, match="#:#") as err:
        engine.runtime(desc)
    assert ra.name in str(err.value)
    with pytest.raises(engine.DescriptionError):
        engine.trace("evde", "analyze", desc)
