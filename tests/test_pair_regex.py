import random

import pytest

from twolevel import dfa as dfalib
from twolevel import pair_regex as rx
from twolevel import rules
from twolevel.symbols import derive_feasible_pairs, parse_declarations

DECLS_TEXT = """ALPHABET
a b c %-:0 %(:0 %):0 D:d A:a A:0 y:0 ;
SETS
Vbk = a ;
CsV = b c ;
DEFINITIONS
MB = %-:0 ;
"""


@pytest.fixture(scope="module")
def env():
    decls, _ = parse_declarations(DECLS_TEXT)
    alpha = derive_feasible_pairs(decls)
    return decls, alpha


def ids(alpha, *pairs):
    out = []
    for p in pairs:
        l, _, s = p.partition(":")
        out.append(alpha.id_of(l, s or l))
    return out


def test_parse_surface_set_atom(env):
    decls, alpha = env
    node = rx.parse_pair_regex(":Vbk", decls)
    assert isinstance(node, rx.Atom) and node.surf == "Vbk" and node.lex is None
    den = rx.denote_atom(node, alpha, decls)
    assert alpha.id_of("A", "a") in den and alpha.id_of("a", "a") in den


def test_parse_bare_symbol_is_identity(env):
    decls, alpha = env
    node = rx.parse_pair_regex("a", decls)
    assert rx.denote_atom(node, alpha, decls) == frozenset([alpha.id_of("a", "a")])


def test_parse_not_pair_lexical_set(env):
    decls, alpha = env
    node = rx.parse_pair_regex("\\[CsV:]", decls)
    den = rx.denote_atom(node, alpha, decls)
    assert alpha.id_of("b", "b") not in den
    assert alpha.id_of("a", "a") in den
    assert alpha.frame_id in den


def test_deep_nesting_is_a_parse_error(env):
    # an expression nested deeper than the interpreter's stack raises
    # ParseError from the parser and from the entries to the recursive
    # walks over an expression (regex_key, _pair_set, _build_nfa) alike
    decls, alpha = env
    for text in ("\\" * 3000 + "a", "[" * 3000 + "a" + "]" * 3000, "(" * 3000 + "a" + ")" * 3000):
        with pytest.raises(rx.ParseError, match="nested too deeply"):
            rx.parse_pair_regex(text, decls)
    negated, optional = rx.Atom("a", "a"), rx.Atom("a", "a")
    for _ in range(3000):
        negated, optional = rx.NotPair(negated), rx.Opt(optional)
    for walk in (lambda: rx.denote_atom(negated, alpha, decls),
                 lambda: dfalib.compile_regex(negated, alpha, decls),
                 lambda: dfalib.compile_regex(optional, alpha, decls),
                 lambda: rules._tracker(optional, alpha, decls, False, {})):
        with pytest.raises(rx.ParseError, match="nested too deeply"):
            walk()
    # nesting that the stack holds compiles as before, the walks taking
    # one frame per level (two in regex_key, with its generator)
    negated, optional = rx.Atom("a", "a"), rx.Atom("a", "a")
    for _ in range(400):
        negated, optional = rx.NotPair(negated), rx.Opt(optional)
    assert rx.denote_atom(negated, alpha, decls) == rx.denote_atom(rx.Atom("a", "a"), alpha, decls)
    assert dfalib.compile_regex(optional, alpha, decls).finals
    node = rx.parse_pair_regex("[" * 60 + "\\" * 60 + "a" + "]" * 60, decls)
    assert rx.denote_atom(node, alpha, decls) == rx.denote_atom(
        rx.parse_pair_regex("\\" * 60 + "a", decls), alpha, decls)
    assert dfalib.compile_regex(node, alpha, decls).finals
    # a correspondence part at the end of a chain of definitions: its pairs
    # are derived, and the compiler and the reference interpreter raise
    # ParseError
    chain = "".join("D%d = D%d ;\n" % (k, k - 1) for k in range(1, 3000))
    chain_decls, (rule,) = rules.parse_rules_file(
        "ALPHABET a b a:b ;\nDEFINITIONS\nD0 = a:b ;\n" + chain + 'RULES\n"r" D2999 => _ b ;\n')
    chain_alpha = derive_feasible_pairs(chain_decls, [rule])
    assert chain_alpha.id_of("a", "b") is not None
    for walk in (lambda: rules.compile_check_set([rule], chain_alpha, chain_decls),
                 lambda: rules.rule_holds(rule, [], chain_alpha, chain_decls)):
        with pytest.raises(rx.ParseError, match="nested too deeply"):
            walk()


def test_whitespace_sensitive_colon(env):
    decls, _ = env
    two = rx.parse_pair_regex("D: a", decls)
    assert isinstance(two, rx.Concat) and len(two.items) == 2
    one = rx.parse_pair_regex("D:d", decls)
    assert isinstance(one, rx.Atom) and one.surf == "d"


def test_unbalanced_brackets(env):
    decls, _ = env
    with pytest.raises(rx.ParseError):
        rx.parse_pair_regex("[a b", decls)
    with pytest.raises(rx.ParseError):
        rx.parse_pair_regex("a )", decls)


def test_unknown_macro_is_symbol_and_empty(env):
    decls, alpha = env
    node = rx.parse_pair_regex("NotDeclared", decls)
    with pytest.raises(rx.EmptyAtom):
        rx.denote_atom(node, alpha, decls)


def test_compile_abstar(env):
    decls, alpha = env
    node = rx.parse_pair_regex("a b* a", decls)
    d = dfalib.compile_regex(node, alpha, decls)
    assert d.accepts(ids(alpha, "a", "a"))
    assert d.accepts(ids(alpha, "a", "b", "a"))
    assert d.accepts(ids(alpha, "a", "b", "b", "a"))
    assert not d.accepts(ids(alpha, "a"))
    assert not d.accepts(ids(alpha, "a", "b"))


def test_compile_epsilon(env):
    decls, alpha = env
    d = dfalib.compile_regex(rx.parse_pair_regex("[ ]", decls), alpha, decls)
    assert d.accepts([])
    assert not d.accepts(ids(alpha, "a"))


def test_compile_single_pair_macro(env):
    decls, alpha = env
    d = dfalib.compile_regex(rx.parse_pair_regex("MB", decls), alpha, decls)
    assert d.accepts(ids(alpha, "-:0"))
    assert not d.accepts([])
    assert d.n_states == 2


def test_optional_parens_and_difference(env):
    decls, alpha = env
    node = rx.parse_pair_regex("(CsV - b) c", decls)
    d = dfalib.compile_regex(node, alpha, decls)
    assert d.accepts(ids(alpha, "c"))
    assert d.accepts(ids(alpha, "c", "c"))
    assert not d.accepts(ids(alpha, "b", "c"))


def _random_regex(rng, symbols, depth, leaves=()):
    """A random expression; ``leaves`` are extra leaf nodes to draw from."""
    if depth == 0 or rng.random() < 0.3:
        if leaves and rng.random() < 0.3:
            return rng.choice(leaves)
        return rx.Atom(rng.choice(symbols), None) if rng.random() < 0.2 \
            else rx.Atom(rng.choice(symbols), rng.choice(symbols))
    kind = rng.choice(["cat", "alt", "star", "opt", "diff", "plus"])
    if kind == "cat":
        return rx.Concat([_random_regex(rng, symbols, depth - 1, leaves) for _ in range(2)])
    if kind == "alt":
        return rx.Union([_random_regex(rng, symbols, depth - 1, leaves) for _ in range(2)])
    if kind == "star":
        return rx.Star(_random_regex(rng, symbols, depth - 1, leaves))
    if kind == "plus":
        return rx.Plus(_random_regex(rng, symbols, depth - 1, leaves))
    if kind == "opt":
        return rx.Opt(_random_regex(rng, symbols, depth - 1, leaves))
    return rx.Diff(_random_regex(rng, symbols, depth - 1, leaves),
                   _random_regex(rng, symbols, depth - 1, leaves))


def _words_upto(pids, length):
    words = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [w + (p,) for w in frontier for p in pids]
        words.extend(frontier)
    return words


def test_random_regex_dfa_matches_recursive_matcher():
    # alphabet of three identity pairs, depth <= 4, all strings of length <= 6
    decls, _ = parse_declarations("ALPHABET\na b c ;\n")
    alpha = derive_feasible_pairs(decls)
    rng = random.Random(20240811)
    symbols = ["a", "b", "c"]
    words = _words_upto(list(alpha.all_ids()), 6)
    for trial in range(60):
        node = _random_regex(rng, symbols, 4)
        d = dfalib.compile_regex(node, alpha, decls, allow_empty=True)
        for w in words:
            assert d.accepts(w) == rx.match(node, w, alpha, decls), (trial, w, node)


def test_random_framed_regex_dfa_matches_recursive_matcher():
    # as rule contexts are compiled: the boundary pair is in the alphabet,
    # and the leaves include # and the full wildcard, which spans it
    decls, _ = parse_declarations("ALPHABET\na b c ;\n")
    alpha = derive_feasible_pairs(decls)
    rng = random.Random(5)
    leaves = (rx.Boundary(), rx.Atom(None, None))
    words = _words_upto(list(range(alpha.frame_id + 1)), 5)
    for trial in range(150):
        node = _random_regex(rng, ["a", "b", "c"], 4, leaves)
        d = dfalib.compile_regex(node, alpha, decls, allow_empty=True)
        for w in words:
            assert d.accepts(w) == rx.match(node, w, alpha, decls), (trial, w, node)
