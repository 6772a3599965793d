import pytest

from twolevel.lexicon import (
    LexiconSyntaxError,
    LinkError,
    enumerate_paths,
    parse_lexicon_file,
)

SMALL = """
LEXICON Root
:0 Nouns ;

LEXICON Nouns
[ROOT=ev]:ev^ Infl ;
[ROOT=gök]:göK^ Infl ;
[ROOT=hukuk]:hu^kuq Infl ;

LEXICON Infl
:0 # ;
+PLU:-lAr Poss ;
:0 Poss ;

LEXICON Poss
:0 # ;
+POSS1s:-m # ;
+ABL:-DAn # ;
"""


@pytest.fixture()
def small():
    return parse_lexicon_file(SMALL)


def test_parse_entries_and_meta_phonemes(small):
    nouns = small.sublexicons["Nouns"]
    gok = [e for e in nouns if e.gloss == "[ROOT=gök]"][0]
    assert gok.form == "göK^"
    assert "K" in list(gok.form)
    huk = [e for e in nouns if e.gloss == "[ROOT=hukuk]"][0]
    assert huk.form == "hu^kuq"
    small.validate()


def test_empty_section_is_valid():
    lx = parse_lexicon_file("LEXICON Root\n")
    assert lx.sublexicons["Root"] == []


def test_dangling_continuation():
    lx = parse_lexicon_file("LEXICON Root\nev Nowhere ;\n")
    with pytest.raises(LinkError):
        lx.validate()


def test_entry_needs_semicolon():
    with pytest.raises(LexiconSyntaxError, match="^line 2: "):
        parse_lexicon_file("LEXICON Root\nev Root\n")


def test_comment_marker_can_be_escaped():
    # as in a rules file, %! is the symbol ! and an unescaped ! starts a comment
    lx = parse_lexicon_file("LEXICON Root\na%!b # ; ! a comment\n! a line of comment\n")
    (entry,) = lx.sublexicons["Root"]
    assert entry.form == "a!b" and entry.continuation == "#"


@pytest.mark.parametrize("head, gloss, form", [
    ("ab%-c", "ab-c", ("a", "b", "-", "c")),
    ("a%:b", "a:b", ("a", ":", "b")),
    ("G:a%:b", "G", ("a", ":", "b")),
    ("[RUP]:RUP%-", "[RUP]", ("R", "U", "P", "-")),
    ("a%!b", "a!b", ("a", "!", "b")),
])
def test_entry_head_splits_at_the_last_unescaped_colon(head, gloss, form):
    # a form-only entry's gloss is its form, unescaped the same way
    (entry,) = parse_lexicon_file("LEXICON Root\n%s # ;\n" % head).sublexicons["Root"]
    assert (entry.gloss, tuple(entry.form)) == (gloss, form)


@pytest.mark.parametrize("head, gloss, form", [
    ("G%!x:ab", "G!x", ("a", "b")),
    ("a%:b:c", "a:b", ("c",)),
    ("q%%r:s", "q%r", ("s",)),
    ("a% b", "a b", ("a", " ", "b")),
])
def test_gloss_and_form_are_unescaped_alike(head, gloss, form):
    (entry,) = parse_lexicon_file("LEXICON Root\n%s # ;\n" % head).sublexicons["Root"]
    assert (entry.gloss, tuple(entry.form)) == (gloss, form)


def test_enumerate_paths_through_entry_and_fanout(small):
    # past ev^, the empty links of Infl fan out into the entries of Infl
    # and Poss
    two = enumerate_paths(small, 2)
    assert {(lx, gl) for lx, gl in two if lx.startswith("ev^-")} == {
        ("ev^-lAr", "[ROOT=ev]+PLU"),
        ("ev^-m", "[ROOT=ev]+POSS1s"),
        ("ev^-DAn", "[ROOT=ev]+ABL"),
    }


def test_enumerate_paths_complete_entry_ends_the_path(small):
    # ev^ reaches # through the empty links alone; without another
    # morpheme nothing follows it
    one = enumerate_paths(small, 1)
    assert [(lx, gl) for lx, gl in one if lx.startswith("ev^")] == [("ev^", "[ROOT=ev]")]


def test_enumerate_paths_counts_match_dfs_oracle(small):
    got = enumerate_paths(small, 3)

    # brute-force DFS over the sublexicon graph, counting entries with forms
    def dfs(sub, lexical, gloss, left, acc):
        if sub == "#":
            acc.add((lexical, gloss))
            return
        for e in small.sublexicons[sub]:
            cost = 1 if e.form else 0
            if cost > left:
                continue
            dfs(e.continuation, lexical + e.form, gloss + e.gloss, left - cost, acc)

    acc = set()
    dfs("Root", "", "", 3, acc)
    assert set(got) == acc
    assert len(got) == len(acc)


def test_enumerate_paths_orderings(small):
    one = enumerate_paths(small, 1)
    assert ("ev^", "[ROOT=ev]") in one
    assert all(gl.count("+") == 0 for _, gl in one)


def test_enumerate_paths_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_paths(parse_lexicon_file("LEXICON Root\n"), 0)


def test_enumerate_paths_prefix_closed(small):
    # raising the morpheme budget only ever adds paths
    assert set(enumerate_paths(small, 1)) <= set(enumerate_paths(small, 2))
    assert set(enumerate_paths(small, 2)) <= set(enumerate_paths(small, 3))


def test_turkish_paths_exist(turkish):
    lx = turkish.lexicon
    paths = set(enumerate_paths(lx, 3))
    assert ("ev^-lAr-(H)m", "[ROOT=ev]+PLU+POSS1s") in paths
    # the plural suffix never follows a case suffix (the same string does
    # exist with -lAr read as the third person plural of predication)
    glosses = {g for lx_, g in paths if lx_ == "ev^-DAn-lAr"}
    assert "[ROOT=ev]+ABL+PLU" not in glosses


def test_turkish_reachability(turkish):
    assert turkish.lexicon.unreachable() == []
