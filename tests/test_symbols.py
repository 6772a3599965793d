import pytest
from hypothesis import given
from hypothesis import strategies as st

from twolevel.rules import expand_where, parse_rules_file
from twolevel.symbols import (
    DeclarationError,
    InvalidSymbol,
    SymbolTable,
    _strip_comment,
    derive_feasible_pairs,
    parse_declarations,
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

RULES_HEADER = """ALPHABET
a b ç %-:0 D:d A:a A:0 ;
SETS
V = a ;
DEFINITIONS
MB = %-:0 ;
RULES
"""


def test_intern_identity_and_idempotence():
    t = SymbolTable()
    a = t.intern("a")
    assert a.name == "a"
    assert t.intern("a") is a


def test_intern_multibyte_single_symbol():
    t = SymbolTable()
    c = t.intern("ç")
    assert c.name == "ç" and len(c.name) == 1


def test_escaped_literal_symbol():
    assert split_pair_token("%-:0") == ("-", "0")
    assert split_pair_token("%'") == ("'", None)


def test_reserved_symbols_present():
    t = SymbolTable()
    assert "0" in t and "#" in t


def test_empty_name_rejected():
    t = SymbolTable()
    with pytest.raises(InvalidSymbol):
        t.intern("")


def test_parse_declarations_blocks():
    decls, rest = parse_declarations(RULES_HEADER)
    names = [s.name for s in decls.identity]
    assert names == ["a", "b", "ç"]
    pairs = [(l.name, s.name) for l, s in decls.declared_pairs]
    assert ("-", "0") in pairs and ("D", "d") in pairs
    assert decls.sets["V"].member_names() == ["a"]
    assert "MB" in decls.raw_definitions
    assert rest.startswith("RULES")


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
