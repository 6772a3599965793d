"""Mutated description texts: loading a description, and every entry point
on the description loaded, either returns or raises a documented error, a
ValueError subclass that a twolevel module defines."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from twolevel import engine
from twolevel.turkish import load_description

RULES = """ALPHABET
a i u k t l r y:0 H:i H:u %-:0 ;
SETS
C = k t l r y ;
DEFINITIONS
MB = %-:0 ;
RULES
"y drop" y:0 <=> C MB _ ;
"harmony" H:X <=> :X [C: | MB]* _ ; where X in (i u) ;
"""

# three sublexicons, Noun and Case a loop
LEXICON = """LEXICON Root
[ROOT=kit]:kit Noun ;
[ROOT=tut]:tut Noun ;
LEXICON Noun
+PL:-lHr Case ;
:0 Case ;
LEXICON Case
+ACC:-yH # ;
+REP:-Hr Noun ;
:0 # ;
"""

SURFACES = ("kitirlir", "tutluru", "kat", "")
LEXICALS = ("kit-lHr-yH", "tut-Hr")
INSERTS = (";", "_", "=>", "(", ")", "[", "]", "\\", "%", ":", "#", "where", "LEXICON")

EDITS = st.lists(st.tuples(st.sampled_from(("drop", "duplicate", "swap", "insert")),
                           st.integers(0, 999), st.integers(0, 999)), min_size=1, max_size=3)


def mutate(text, edits):
    """`text` with each edit applied to its words, the whitespace between
    them kept: a word dropped, duplicated, swapped with another, or one of
    INSERTS put before it."""
    parts = re.split(r"(\s+)", text)
    n = (len(parts) + 1) // 2       # the words are the even parts
    for kind, k, j in edits:
        k = 2 * (k % n)
        if kind == "drop":
            parts[k] = ""
        elif kind == "duplicate":
            parts[k] += " " + parts[k]
        elif kind == "swap":
            j = 2 * (j % n)
            parts[k], parts[j] = parts[j], parts[k]
        else:
            parts[k] = INSERTS[j % len(INSERTS)] + " " + parts[k]
    return "".join(parts)


def returns_or_documented(call):
    """call()'s value, or None when it raises a documented error."""
    try:
        return call()
    except ValueError as e:
        assert type(e).__module__.startswith("twolevel."), repr(e)


def test_the_unmutated_description_has_readings():
    desc = load_description(RULES, [LEXICON])
    assert [a.gloss for a in engine.analyze("kitirlir", desc)] == ["[ROOT=kit]+REP+PL"]
    assert engine.generate_from_gloss("tut", ["PL", "ACC"], desc) == ["tutluru"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(mutated=st.sampled_from(("rules", "lexicon")), edits=EDITS)
def test_a_mutated_description_raises_only_documented_errors(mutated, edits):
    rules, lexicon = RULES, LEXICON
    if mutated == "rules":
        rules = mutate(RULES, edits)
    else:
        lexicon = mutate(LEXICON, edits)
    desc = returns_or_documented(lambda: load_description(rules, [lexicon]))
    if desc is None:
        return
    for word in SURFACES:
        returns_or_documented(lambda: engine.analyze(word, desc))
        returns_or_documented(lambda: engine.trace(word, "analyze", desc).steps)
    for lexical in LEXICALS:
        returns_or_documented(lambda: engine.generate(lexical, desc))
        returns_or_documented(lambda: engine.generate(lexical, desc, validate_morphotactics=True))
        returns_or_documented(lambda: engine.trace(lexical, "generate", desc).steps)
