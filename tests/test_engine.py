import copy
import dataclasses
import random
import threading

import pytest

from twolevel import engine
from twolevel.rules import run_all
from twolevel.turkish import golden_suite, load_turkish


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


def test_trace_layers(turkish):
    assert engine.trace("evide", "analyze", turkish).layer == "rules"
    assert engine.trace("xxxx", "analyze", turkish).layer == "lexicon"


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


def perturbed_golden(desc, count, seed):
    """`count` distinct seeded one-edit variants (substitute, delete or
    insert one surface letter) of golden surfaces."""
    rng = random.Random(seed)
    letters = sorted({s.name for _, s in desc.alphabet.pairs
                      if len(s.name) == 1 and s.name.isalpha()})
    surfaces = sorted({c.surface for c in golden_suite()})
    out = {}
    while len(out) < count:
        w = rng.choice(surfaces)
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


def test_trace_agrees_with_analyze(turkish):
    for w in perturbed_golden(turkish, 300, seed=11):
        readings = engine.analyze(w, turkish)
        report = engine.trace(w, "analyze", turkish)
        assert report.outcome.accepted == bool(readings), w
        if not readings:
            assert (report.layer == "rules") == engine.lexicon_covers(w, turkish), w
        for a in readings:
            assert a.surface(turkish.alphabet) == w


def test_concurrent_calls_match_serial(turkish):
    """Four threads share one fresh description from its first call on:
    one runtime is built and every result equals a serial run's."""
    cases = golden_suite()
    words = sorted({c.surface for c in cases}) + perturbed_golden(turkish, 60, seed=5)
    lexicals = sorted({c.lexical for c in cases if c.polarity == "positive"})

    def run(desc, offset=0):
        out = {}
        for w in words[offset:] + words[:offset]:
            out["A", w] = [(a.lexical, a.gloss, a.pairs) for a in engine.analyze(w, desc)]
            r = engine.trace(w, "analyze", desc)
            out["T", w] = (r.steps, r.outcome.accepted, r.outcome.blockers, r.layer)
        for lex in lexicals:
            out["G", lex] = engine.generate(lex, desc, validate_morphotactics=True)
        return out

    serial = run(turkish)
    fresh = load_turkish(refresh=True)
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(k):
        barrier.wait()
        results[k] = (engine.runtime(fresh), run(fresh, k * len(words) // 4))

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(rt) for rt, _ in results}) == 1
    for _, out in results:
        assert out == serial


def test_trace_when_the_opening_boundary_kills_a_rule(turkish):
    # every search dies at once; trace still names the rule at each step
    desc = dataclasses.replace(turkish, rule_automata=copy.deepcopy(turkish.rule_automata),
                               _runtime=None)
    ra = desc.rule_automata[0]
    del ra.dfa.delta[ra.dfa.start][ra.dfa.class_of[desc.alphabet.frame_id]]
    assert engine.runtime(desc).init_vec is None
    assert engine.analyze("evde", desc) == []
    assert engine.generate("ev^-DA", desc) == []
    for word, direction in (("evde", "analyze"), ("ev^-DA", "generate")):
        report = engine.trace(word, direction, desc)
        assert not report.outcome.accepted and report.layer == "rules"
        assert ra.name in report.blocking_rules()
        assert report.steps and all(ra.name in s.died for s in report.steps)
