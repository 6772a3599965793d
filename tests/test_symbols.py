import pytest
from hypothesis import given
from hypothesis import strategies as st

from twolevel import engine
from twolevel.pair_regex import MacroRef, ParseError
from twolevel.rules import expand_where, parse_rules_file
from twolevel.symbols import (
    DeclarationError,
    InvalidSymbol,
    _strip_comment,
    derive_feasible_pairs,
    parse_declarations,
    scan,
    split_pair_token,
)


def strip_comment_reference(line):
    """The text before an unescaped '!', one character at a time."""
    out = []
    i = 0
    while i < len(line):
        if line[i] == "%" and i + 1 < len(line):
            out.append(line[i:i + 2])
            i += 2
            continue
        if line[i] == "!":
            break
        out.append(line[i])
        i += 1
    return "".join(out)


@given(st.text(alphabet=st.sampled_from("%!a :;\n\r\x0b")))
def test_strip_comment_matches_reference(line):
    assert _strip_comment(line) == strip_comment_reference(line)


def scan_reference(text, stops, i):
    """scan one character at a time."""
    out = []
    dangling = False
    while i < len(text) and text[i] not in stops:
        if text[i] == "%" and i + 1 < len(text) and text[i + 1] != "\n":
            out.append(text[i + 1])
            i += 2
            continue
        dangling = dangling or text[i] == "%"
        out.append(text[i])
        i += 1
    return (None if dangling else "".join(out)), i


@given(st.text(alphabet=st.sampled_from("%!a :;\n")), st.sampled_from(["", ";", " \n", ":!"]),
       st.integers(min_value=0, max_value=12))
def test_scan_matches_reference(text, stops, i):
    i = min(i, len(text))
    assert scan(text, stops, i) == scan_reference(text, stops, i)


RULES_HEADER = """ALPHABET
a b ç %-:0 D:d A:a A:0 ;
SETS
V = a ;
DEFINITIONS
MB = %-:0 ;
RULES
"""


def test_escaped_literal_symbol():
    assert split_pair_token("%-:0") == ("-", "0")
    assert split_pair_token("%'") == ("'", None)


def test_parse_declarations_blocks():
    decls, rest = parse_declarations(RULES_HEADER)
    names = [s.name for s in decls.identity]
    assert names == ["a", "b", "ç"]
    pairs = [(l.name, s.name) for l, s in decls.declared_pairs]
    assert ("-", "0") in pairs and ("D", "d") in pairs
    assert decls.sets["V"] == ("a",)
    assert "MB" in decls.definitions
    # the lines up to the RULES header, blanked to keep the file's line numbers
    assert rest == "\n" * 7


def test_duplicate_set_name_rejected():
    bad = RULES_HEADER.replace("DEFINITIONS", "V = b ;\nDEFINITIONS")
    with pytest.raises(DeclarationError):
        parse_declarations(bad)


def test_undeclared_set_member_rejected():
    bad = RULES_HEADER.replace("V = a ;", "V = a q ;")
    with pytest.raises(DeclarationError):
        parse_declarations(bad)


def test_set_name_symbol_collision_rejected():
    bad = RULES_HEADER.replace("V = a ;", "a = b ;")
    with pytest.raises(DeclarationError):
        parse_declarations(bad)


def test_identity_only_alphabet():
    decls, _ = parse_declarations("ALPHABET\na ;\n")
    alpha = derive_feasible_pairs(decls)
    assert [alpha.name_of(i) for i in alpha.all_ids()] == ["a:a"]


def test_rule_correspondences_extend_alphabet():
    text = RULES_HEADER + '"1.x" A:a => _ ;\n"2.y" b:0 => a _ ;\n'
    decls, rules = parse_rules_file(text)
    alpha = derive_feasible_pairs(decls, rules)
    assert alpha.id_of("b", "0") is not None


def test_feasible_pair_monotonicity():
    text1 = RULES_HEADER + '"1.x" A:a => _ ;\n'
    text2 = text1 + '"2.y" b:0 => a _ ;\n'
    d1, r1 = parse_rules_file(text1)
    d2, r2 = parse_rules_file(text2)
    a1 = derive_feasible_pairs(d1, r1)
    a2 = derive_feasible_pairs(d2, r2)
    names1 = {a1.name_of(i) for i in a1.all_ids()}
    names2 = {a2.name_of(i) for i in a2.all_ids()}
    assert names1 <= names2


def test_where_expansion_extends_alphabet():
    text = RULES_HEADER + '"1.t" X:Ying => _ ;\nwhere X in (a b) Ying in (0 0) matched ;\n'
    decls, rules = parse_rules_file(text)
    ground = [g for r in rules for g in expand_where(r)]
    alpha = derive_feasible_pairs(decls, ground)
    assert alpha.id_of("a", "0") is not None
    assert alpha.id_of("b", "0") is not None


def test_turkish_pair_inventory(turkish):
    # mechanical expansion of the special-correspondence table plus the
    # identity pairs, frozen as a regression constant
    assert len(turkish.alphabet) == 136
    for pair in ("A:a", "A:e", "A:0"):
        l, s = pair.split(":")
        assert turkish.alphabet.id_of(l, s) is not None


@pytest.mark.parametrize("text, error, match", [
    ("ALPHABET\na b a: ;\n", InvalidSymbol, "empty surface side"),
    ("ALPHABET\na b :b ;\n", InvalidSymbol, "empty lexical side"),
    ("ALPHABET\na b a:b:c ;\n", InvalidSymbol, "more than one ':'"),
    ("ALPHABET\na b%\n;\n", InvalidSymbol, "dangling % escape"),
    ("ALPHABET\na b ;\nSETS\nV = a b%\n;\n", InvalidSymbol, "dangling % escape"),
    ("ALPHABET\na b ;\nDEFINITIONS\nX = a b%\n;\n", ParseError,
     r"in definition X \(line 4\): dangling % escape"),
    ('ALPHABET\na b ;\nRULES\n"r" a:b => _ b%', ParseError, "dangling % escape"),
    ("ALPHABET\na b a:b ;\nSETS\nV = a a:b ;\n", DeclarationError, "^line 4: set member"),
    ("x\nALPHABET\na ;\n", DeclarationError, "^line 1: text before ALPHABET"),
])
def test_malformed_rules_file(text, error, match):
    with pytest.raises(error, match=match):
        parse_rules_file(text)


def test_escape_before_a_line_end_in_a_rule_is_dangling():
    # '%' before a line end escapes nothing, in a rule as in a declaration
    with pytest.raises(ParseError, match="dangling % escape"):
        parse_rules_file('ALPHABET\na b ;\nRULES\n"r" a:b => _ b%\n ;\n')


SEMICOLON_RULES = """ALPHABET
a b %; %;:0 ;
SETS
S = %; ;
DEFINITIONS
X = %;:0 ;
RULES
"r" X <=> a _ ;
"""


def test_escaped_semicolon_in_every_section():
    from conftest import make_description

    desc = make_description(SEMICOLON_RULES, "LEXICON Root\na%;b # ;\n%;b # ;\n")
    assert desc.declarations.sets["S"] == (";",)
    assert desc.alphabet.id_of(";", "0") is not None
    assert [a.lexical for a in engine.analyze("ab", desc)] == ["a;b"]
    assert [a.lexical for a in engine.analyze(";b", desc)] == [";b"]
    assert engine.analyze("a;b", desc) == []


def test_declared_names_are_unescaped_like_rule_names():
    decls, rules = parse_rules_file("ALPHABET\na b a:b ;\nSETS\nV%! = a ;\nDEFINITIONS\n"
                                    'D% x = V%! ;\nRULES\n"r" a:b => D% x _ ;\n')
    assert list(decls.sets) == ["V!"] and list(decls.definitions) == ["D x"]
    (left, _), = rules[0].contexts
    assert isinstance(left, MacroRef) and left.name == "D x"


def test_definition_name_bound_twice_rejected():
    with pytest.raises(DeclarationError, match="^line 5: name 'X' already bound"):
        parse_rules_file("ALPHABET\na b ;\nDEFINITIONS\nX = a ;\nX = b ;\n")
