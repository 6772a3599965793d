import hashlib
import itertools
import random

import pytest

from conftest import canonical_dump
from twolevel import pair_regex as rx
from twolevel import rules as rulemod
from twolevel.rules import (
    EmptyCorrespondence,
    UnknownPair,
    ExpansionError,
    RuleSyntaxError,
    TwoLevelRule,
    compile_check_set,
    compile_rule,
    expand_where,
    parse_rules_file,
    rule_holds,
    run_all,
)
from twolevel.symbols import derive_feasible_pairs

TOY = """ALPHABET
k u ş t a %-:0 %(:0 %):0 y H:u H:a y:0 ;
SETS
C = k ş t ;
DEFINITIONS
MB = %-:0 ;
RULES
"1.y drop" y:0 <=> C MB %(:0 _ %):0 ;
"""


@pytest.fixture(scope="module")
def toy():
    decls, rules = parse_rules_file(TOY)
    alpha = derive_feasible_pairs(decls, rules)
    return decls, alpha, rules


def pairs(alpha, *specs):
    out = []
    for p in specs:
        l, _, s = p.partition(":")
        pid = alpha.id_of(l, s or l)
        assert pid is not None, p
        out.append(pid)
    return out


# ---------------------------------------------------------------------------
# parsing

def test_parse_rule_shape(toy):
    _, _, rules = toy
    (rule,) = rules
    assert rule.name == "1.y drop"
    assert rule.op == "<=>"
    assert len(rule.contexts) == 1


def test_parse_multiple_contexts_and_where():
    text = TOY + '"2.two ctx" t:0 <=> a _ a ; u _ u ;\n' \
        + '"3.tmpl" SIC:0 <=> C MB _ ; where SIC in (y u) ;\n'
    _, rules = parse_rules_file(text)
    assert len(rules[1].contexts) == 2
    assert rules[2].where is not None and not rules[2].where.matched
    assert rules[2].where.variables == [("SIC", ["y", "u"])]


def test_parse_missing_operator():
    with pytest.raises(RuleSyntaxError):
        parse_rules_file(TOY + '"bad" y:0 a _ a ;\n')


def test_parse_two_gaps_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rules_file(TOY + '"bad" t:0 => a _ _ a ;\n')


# ---------------------------------------------------------------------------
# where expansion

def test_expand_matched_lockstep():
    text = TOY + '"4.m" X:Ups <=> \\[X:] _ ; where X in (k t) Ups in (u a) matched ;\n'
    _, rules = parse_rules_file(text)
    ground = expand_where(rules[1])
    assert len(ground) == 2
    assert [(g.cp.lex, g.cp.surf) for g in ground] == [("k", "u"), ("t", "a")]
    # contexts substituted in lockstep too
    assert ground[0].contexts[0][0].item.lex == "k"


def test_expand_unmatched_single_variable():
    text = TOY + '"5.u" SIC:0 <=> C MB _ ; where SIC in (y u t) ;\n'
    _, rules = parse_rules_file(text)
    assert len(expand_where(rules[1])) == 3


def test_expand_identity_for_ground_rule(toy):
    _, _, rules = toy
    assert expand_where(rules[0]) == [rules[0]]


def test_expand_length_mismatch():
    text = TOY + '"6.bad" X:Ups <=> _ ; where X in (k) Ups in (u a) matched ;\n'
    _, rules = parse_rules_file(text)
    with pytest.raises(ExpansionError):
        expand_where(rules[1])


# ---------------------------------------------------------------------------
# reference interpreter

def test_rule_holds_kus_example(toy):
    decls, alpha, rules = toy
    rule = rules[0]
    good = pairs(alpha, "k", "u", "ş", "-:0", "(:0", "y:0", "):0", "H:u")
    bad = pairs(alpha, "k", "u", "ş", "-:0", "(:0", "y", "):0", "H:u")
    assert rule_holds(rule, good, alpha, decls)
    assert not rule_holds(rule, bad, alpha, decls)


def test_rule_holds_empty_string(toy):
    decls, alpha, rules = toy
    assert rule_holds(rules[0], [], alpha, decls)


def _mini_matches(node, seq, decls, alpha):
    """Independent backtracking matcher used as the oracle."""
    def ends(nd, i):
        if isinstance(nd, rx.MacroRef):
            return ends(nd.target, i)
        if isinstance(nd, rx.Epsilon):
            return {i}
        if isinstance(nd, (rx.Atom, rx.Boundary, rx.NotPair)):
            if i < len(seq) and seq[i] in rx.denote_atom(nd, alpha, decls, allow_empty=True):
                return {i + 1}
            return set()
        if isinstance(nd, rx.Opt):
            return {i} | ends(nd.item, i)
        if isinstance(nd, rx.Union):
            out = set()
            for it in nd.items:
                out |= ends(it, i)
            return out
        if isinstance(nd, rx.Diff):
            return ends(nd.left, i) - ends(nd.right, i)
        if isinstance(nd, rx.Concat):
            cur = {i}
            for it in nd.items:
                cur = set().union(*(ends(it, j) for j in cur)) if cur else set()
            return cur
        if isinstance(nd, (rx.Star, rx.Plus)):
            seen, frontier = set(), {i}
            while frontier:
                new = set().union(*(ends(nd.item, j) for j in frontier)) - seen
                seen |= new
                frontier = new
            if isinstance(nd, rx.Star):
                seen.add(i)
            return seen
        raise TypeError(nd)

    return len(seq) in ends(node, 0)


def _oracle_holds(rule, w, alpha, decls):
    """Direct quantifier enumeration over all context spans."""
    frame = alpha.frame_id
    seq = (frame,) + tuple(w) + (frame,)
    n = len(seq)
    cp = rx.denote_atom(rule.cp, alpha, decls, allow_empty=True)
    lexnames = {alpha.pairs[p][0].name for p in cp}

    def licensed(i):
        for lc, rc in rule.contexts:
            lc_ok = any(
                _mini_matches(lc, seq[k:i], decls, alpha) for k in range(i + 1)
            )
            rc_ok = any(
                _mini_matches(rc, seq[i + 1 : j], decls, alpha) for j in range(i + 1, n + 1)
            )
            if lc_ok and rc_ok:
                return True
        return False

    for i, pid in enumerate(seq):
        boundary = pid == frame and i in (0, n - 1)
        in_cp = (not boundary) and pid in cp
        lex_in = (not boundary) and alpha.pairs[pid][0].name in lexnames
        lic = None
        if rule.op in ("=>", "<=>") and in_cp:
            lic = licensed(i)
            if not lic:
                return False
        if rule.op in ("<=", "<=>") and lex_in and not in_cp:
            if licensed(i):
                return False
        if rule.op == "/<=" and in_cp:
            if licensed(i):
                return False
    return True


def _random_ground_rule(rng, decls, alpha, n_contexts=(1, 1, 2)):
    specs = ["a:a", "a:b", "b:b"]

    def atom():
        l, _, s = rng.choice(specs).partition(":")
        kind = rng.random()
        if kind < 0.2:
            return rx.Atom(l, None)
        if kind < 0.4:
            return rx.Atom(None, s)
        return rx.Atom(l, s)

    def regex(depth):
        if depth == 0 or rng.random() < 0.4:
            return atom()
        k = rng.choice(["cat", "alt", "star", "opt"])
        if k == "cat":
            return rx.Concat([regex(depth - 1), regex(depth - 1)])
        if k == "alt":
            return rx.Union([regex(depth - 1), regex(depth - 1)])
        if k == "star":
            return rx.Star(regex(depth - 1))
        return rx.Opt(regex(depth - 1))

    op = rng.choice(["=>", "<=", "<=>", "/<="])
    n_ctx = rng.choice(n_contexts)
    contexts = []
    for _ in range(n_ctx):
        lc = regex(2) if rng.random() < 0.8 else rx.Epsilon()
        rc = regex(2) if rng.random() < 0.8 else rx.Epsilon()
        contexts.append((lc, rc))
    l, _, s = rng.choice(specs).partition(":")
    return TwoLevelRule("rnd", rx.Atom(l, s), op, contexts)


def test_rule_holds_agrees_with_quantifier_oracle():
    from twolevel.symbols import parse_declarations
    decls, _ = parse_declarations("ALPHABET\na b a:b ;\n")
    alpha = derive_feasible_pairs(decls)
    rng = random.Random(99)
    pids = list(alpha.all_ids())
    words = []
    for L in range(0, 6):
        words.extend(itertools.product(pids, repeat=L))
    for _ in range(25):
        rule = _random_ground_rule(rng, decls, alpha)
        for w in words:
            assert rule_holds(rule, w, alpha, decls) == _oracle_holds(rule, w, alpha, decls), (
                rule.op, rule.cp, w)


# ---------------------------------------------------------------------------
# compilation and parallel running

def test_compile_agrees_with_interpreter_exhaustively(toy):
    decls, alpha, rules = toy
    rule = rules[0]
    ra = compile_rule(rule, alpha, decls)
    frame = alpha.frame_id
    sub = pairs(alpha, "ş", "-:0", "(:0", "y:0")
    for L in range(0, 7):
        for w in itertools.product(sub, repeat=L):
            assert ra.dfa.accepts((frame,) + w + (frame,)) == rule_holds(rule, w, alpha, decls)


NOT_UNION = """ALPHABET
a b c b:c ;
DEFINITIONS
M = [a | b:c] ;
RULES
"u" b:c <=> \\[a | b:c] _ ;
"m" b:c <=> _ \\M ;
"w" b:c <=> \\[c | #] _ ;
"n" b:c => _ \\# ;
"""


def test_not_over_a_union_or_definition_compiles_as_interpreted():
    decls, rules = parse_rules_file(NOT_UNION)
    alpha = derive_feasible_pairs(decls, rules)
    frame = alpha.frame_id
    # \ over a union, and over a definition of one, leaves every other pair
    others = frozenset(pairs(alpha, "b", "c")) | {frame}
    for rule in rules[:2]:
        (node,) = [n for context in rule.contexts for n in context
                   if isinstance(n, rx.NotPair)]
        assert rx.denote_atom(node, alpha, decls) == others, rule.name
    # # is the boundary pair under \ too: \# is every feasible pair, and
    # \[c | #] leaves out the boundary with c
    not_c_or_boundary, not_boundary = rules[2].contexts[0][0], rules[3].contexts[0][1]
    assert rx.denote_atom(not_c_or_boundary, alpha, decls) == frozenset(
        pairs(alpha, "a", "b", "b:c"))
    assert rx.denote_atom(not_boundary, alpha, decls) == set(alpha.all_ids())
    words = [w for L in range(5) for w in itertools.product(alpha.all_ids(), repeat=L)]
    for rule in rules:
        dfa = compile_rule(rule, alpha, decls).dfa
        for w in words:
            assert dfa.accepts((frame,) + w + (frame,)) == rule_holds(rule, w, alpha, decls), (
                rule.name, w)
    with pytest.raises(rx.ParseError):
        rx.denote_atom(rx.parse_pair_regex("\\(a b)", decls), alpha, decls)


def _context_pairs(rule, alpha, decls, rng, limit=6):
    """Up to limit pairs of the rule's own: two of its correspondence, then
    one drawn from each atom of its contexts."""
    cp_ids, _ = rulemod._cp_sets(rule, alpha, decls)
    pool = rng.sample(sorted(cp_ids), min(2, len(cp_ids)))
    stack = [node for context in rule.contexts for node in context]
    while stack and len(pool) < limit:
        node = stack.pop(0)
        if isinstance(node, (rx.Atom, rx.NotPair)):
            den = rx.denote_atom(node, alpha, decls, allow_empty=True) - {alpha.frame_id}
            if den and not den & set(pool):
                pool.append(rng.choice(sorted(den)))
        stack.extend(node.children())
    return pool


def test_multi_context_rules_compile_as_interpreted(turkish):
    # an obligation keeps the monitors of the contexts that licensed its
    # position, apart from every other position's: random rules of three
    # and four contexts, and the pooled => rules of the bundled check set
    from twolevel.symbols import parse_declarations
    rng = random.Random(2401)
    decls, _ = parse_declarations("ALPHABET\na b a:b ;\n")
    alpha = derive_feasible_pairs(decls)
    frame = alpha.frame_id
    words = [w for L in range(6) for w in itertools.product(alpha.all_ids(), repeat=L)]
    for _ in range(30):
        rule = _random_ground_rule(rng, decls, alpha, n_contexts=(3, 4))
        dfa = compile_rule(rule, alpha, decls).dfa
        for w in words:
            assert dfa.accepts((frame,) + w + (frame,)) == rule_holds(rule, w, alpha, decls), (
                rule.op, w)

    alpha, decls = turkish.alphabet, turkish.declarations
    frame = alpha.frame_id
    automata = compile_check_set(turkish.ground_rules, alpha, decls)
    assert sum(len(ra.rule.contexts) > 2 for ra in automata) == 13
    for ra in automata:
        pool = _context_pairs(ra.rule, alpha, decls, rng)
        for _ in range(150):
            w = tuple(rng.choices(pool, k=rng.randint(0, 6)))
            assert ra.dfa.accepts((frame,) + w + (frame,)) == rule_holds(
                ra.rule, w, alpha, decls), (ra.name, [alpha.name_of(p) for p in w])


def test_compile_trivial_always_licensed(toy):
    decls, alpha, _ = toy
    rule = TwoLevelRule("triv", rx.Atom("a", "a"), "=>", [(rx.Epsilon(), rx.Epsilon())])
    ra = compile_rule(rule, alpha, decls)
    frame = alpha.frame_id
    for w in ([], pairs(alpha, "a"), pairs(alpha, "a", "k", "a")):
        assert ra.dfa.accepts([frame] + list(w) + [frame])


def test_compile_empty_correspondence(toy):
    decls, alpha, _ = toy
    rule = TwoLevelRule("bad", rx.Atom("q", "q"), "=>", [(rx.Epsilon(), rx.Epsilon())])
    with pytest.raises(EmptyCorrespondence):
        compile_rule(rule, alpha, decls)


def test_compile_unknown_context_pair_names_rule(toy):
    decls, alpha, _ = toy
    rule = TwoLevelRule("7.ghost", rx.Atom("y", "0"), "=>",
                        [(rx.Atom("q", "q"), rx.Epsilon())])
    with pytest.raises(UnknownPair) as err:
        compile_rule(rule, alpha, decls)
    assert "7.ghost" in str(err.value)


def test_composite_equals_conjunction():
    from twolevel.symbols import parse_declarations
    decls, _ = parse_declarations("ALPHABET\na b a:b ;\n")
    alpha = derive_feasible_pairs(decls)
    rng = random.Random(5)
    pids = list(alpha.all_ids())
    words = []
    for L in range(0, 6):
        words.extend(itertools.product(pids, repeat=L))
    for _ in range(20):
        base = _random_ground_rule(rng, decls, alpha)
        both = TwoLevelRule("c", base.cp, "<=>", base.contexts)
        right = TwoLevelRule("r", base.cp, "=>", base.contexts)
        left = TwoLevelRule("l", base.cp, "<=", base.contexts)
        for w in rng.sample(words, 120):
            assert rule_holds(both, w, alpha, decls) == (
                rule_holds(right, w, alpha, decls) and rule_holds(left, w, alpha, decls))


def test_run_all_empty_set_accepts(toy):
    decls, alpha, _ = toy
    verdict = run_all([], pairs(alpha, "k", "u"))
    assert verdict.accepted and not verdict.blockers


def test_run_all_order_independent(turkish):
    from twolevel import engine
    rt = engine.runtime(turkish)
    alpha = turkish.alphabet
    word = [alpha.id_of(*p.split(":")) for p in
            ("a:a", "ğ:ğ", "a:a", "ç:c", "-:0", "(:0", "y:0", "):0", "H:ı")]
    forward = run_all(turkish.rule_automata, word)
    backward = run_all(list(reversed(turkish.rule_automata)), word)
    assert forward.accepted == backward.accepted is True


def test_run_all_blocker_naming(turkish):
    alpha = turkish.alphabet
    # surface ç in the voicing environment: rule 16 must be among the blockers
    word = [alpha.id_of(*p.split(":")) for p in
            ("a:a", "ğ:ğ", "a:a", "ç:ç", "-:0", "(:0", "y:0", "):0", "H:ı")]
    verdict = run_all(turkish.rule_automata, word)
    assert not verdict.accepted
    assert any("16." in name for name, _, _ in verdict.blockers)
    # independent confirmation through the reference interpreter
    rule16 = [r for r in turkish.ground_rules if r.name.startswith("16.")][0]
    assert not rule_holds(rule16, word, alpha, turkish.declarations)


def test_kitapi_blocked_by_devoicing_interpreter(turkish):
    # the pair string behind surface "kitapı" violates final stop devoicing
    alpha = turkish.alphabet
    word = [alpha.id_of(*p.split(":")) for p in
            ("k:k", "i:i", "^:0", "t:t", "a:a", "b:p", "-:0", "(:0", "y:0", "):0", "H:ı")]
    rule15 = [r for r in turkish.ground_rules
              if r.name.startswith("15.") and r.cp.lex == "b"][0]
    assert not rule_holds(rule15, word, alpha, turkish.declarations)
    # whereas the voiced realization (kitabı) satisfies it
    good = list(word)
    good[5] = alpha.id_of("b", "b")
    assert rule_holds(rule15, good, alpha, turkish.declarations)


def test_word_final_apostrophe_rule(turkish):
    # the apostrophe maps to zero word-finally, and only there
    alpha = turkish.alphabet
    decls = turkish.declarations
    rule51 = [r for r in turkish.ground_rules if r.name.startswith("51.")][0]
    apos_zero = [alpha.id_of("a", "a"), alpha.id_of("'", "0")]
    apos_kept = [alpha.id_of("a", "a"), alpha.id_of("'", "'")]
    mid_word = [alpha.id_of("'", "'"), alpha.id_of("a", "a")]
    assert rule_holds(rule51, apos_zero, alpha, decls)
    assert not rule_holds(rule51, apos_kept, alpha, decls)   # coerced to zero
    assert rule_holds(rule51, mid_word, alpha, decls)


def test_larhn_exclusion_property(turkish):
    # with rules 41 and 42 active, L:l never occurs after -lAr but is the
    # default elsewhere; checked on the pair strings of "evlerine"/"evleri"
    alpha = turkish.alphabet
    autos = [ra for ra in turkish.rule_automata
             if ra.name.startswith("41.") or ra.name.startswith("42.")]
    assert len(autos) >= 2
    after_lar_l = [alpha.id_of(*p.split(":")) for p in
                   ("e:e", "v:v", "-:0", "l:l", "A:e", "r:r", "-:0", "L:l", "A:0",
                    "r:0", "H:i", "N:n", "-:0", "(:0", "y:0", "):0", "A:e")]
    assert not run_all(autos, after_lar_l).accepted
    after_lar_0 = [alpha.id_of(*p.split(":")) for p in
                   ("e:e", "v:v", "-:0", "l:l", "A:e", "r:r", "-:0", "L:0", "A:0",
                    "r:0", "H:i", "N:n", "-:0", "(:0", "y:0", "):0", "A:e")]
    assert run_all(autos, after_lar_0).accepted
    default_l = [alpha.id_of(*p.split(":")) for p in
                 ("e:e", "v:v", "-:0", "L:l", "A:e", "r:r", "H:i", "N:0")]
    assert run_all(autos, default_l).accepted


# ---------------------------------------------------------------------------
# trackers shared across a check set

def test_check_set_matches_standalone_compile(turkish):
    # compile_check_set shares tracker DFAs among rules; each automaton must
    # still be the one compile_rule builds for its rule alone
    alpha, decls = turkish.alphabet, turkish.declarations
    assert len(turkish.rule_automata) == 198
    for ra in turkish.rule_automata:
        alone = compile_rule(ra.rule, alpha, decls)
        assert alone.dfa.dump() == ra.dfa.dump(), ra.name


def test_bundled_automata_are_pinned(turkish):
    # every bundled constraint automaton by its language and its pair
    # classes, not by how its states are numbered; a change to the rule or
    # regex compiler that alters any of them shows here
    h = hashlib.sha256()
    for ra in turkish.rule_automata:
        h.update(ra.name.encode())
        h.update(canonical_dump(ra.dfa).encode())
        h.update(repr(ra.dfa.class_of).encode())
    assert h.hexdigest() == "82fff154e02c13ca223211ca3c4e7f7bf57dd158756311d29eb46d61f1f38f0c"
    assert sum(ra.dfa.n_states for ra in turkish.rule_automata) == 1841


def test_every_automaton_reads_the_opening_boundary(turkish):
    # the engine rejects a description whose opening boundary #:# kills a
    # rule; compile_rule never builds one, on the bundled rules nor on the
    # random rules of the quantifier oracle test
    from twolevel.symbols import parse_declarations
    decls, _ = parse_declarations("ALPHABET\na b a:b ;\n")
    alpha = derive_feasible_pairs(decls)
    rng = random.Random(99)
    automata = [compile_rule(_random_ground_rule(rng, decls, alpha), alpha, decls)
                for _ in range(25)] + turkish.rule_automata
    assert len(automata) == 25 + 198
    for ra in automata:
        dfa = ra.dfa
        assert dfa.step(dfa.start, dfa.alphabet.frame_id) is not None, ra.name


def test_denotation_cache_stops_growing(turkish):
    # denote_atom keys its cache by regex structure: a repeated compile of
    # the check set builds new but equal nodes and adds no entries
    alpha, decls = turkish.alphabet, turkish.declarations
    dumps = [ra.dfa.dump() for ra in turkish.rule_automata]
    compile_check_set(turkish.ground_rules, alpha, decls)
    size = len(alpha.denotation_cache)
    for _ in range(2):
        automata = compile_check_set(turkish.ground_rules, alpha, decls)
        assert len(alpha.denotation_cache) == size
        assert [ra.dfa.dump() for ra in automata] == dumps


SHARED = """ALPHABET
a b x a:b ;
DEFINITIONS
X = x ;
RULES
"""


def test_tracker_key_tells_apart_what_repr_conflates(monkeypatch):
    decls, _ = parse_rules_file(SHARED)
    x = rx.Atom("x", "x")
    ab = rx.Atom("a", "b")
    macro = rx.parse_pair_regex("X", decls)
    assert isinstance(macro, rx.MacroRef)
    ground = [
        TwoLevelRule("opt", ab, "<=", [(rx.Opt(x), rx.Epsilon())]),
        TwoLevelRule("concat", ab, "<=", [(rx.Concat([x]), rx.Epsilon())]),
        TwoLevelRule("macro", rx.Atom("b", "b"), "=>", [(rx.Epsilon(), macro)]),
        TwoLevelRule("atom", rx.Atom("b", "b"), "/<=", [(rx.Epsilon(), x)]),
    ]
    assert repr(rx.Opt(x)) == repr(rx.Concat([x]))
    assert rx.regex_key(rx.Opt(x)) != rx.regex_key(rx.Concat([x]))
    assert rx.regex_key(macro) != rx.regex_key(x)
    alpha = derive_feasible_pairs(decls, ground)

    compiled = []
    original = rulemod.dfalib.compile_regex

    def recording(node, *args, **kwargs):
        compiled.append(node)
        return original(node, *args, **kwargs)

    monkeypatch.setattr(rulemod.dfalib, "compile_regex", recording)
    automata = compile_check_set(ground, alpha, decls)
    monkeypatch.undo()

    # 8 trackers requested: "opt" and "concat" share their RC.Sigma*, and
    # "macro" and "atom" their Sigma*.LC
    keys = [rx.regex_key(n) for n in compiled]
    assert len(keys) == len(set(keys)) == 6
    assert [ra.name for ra in automata] == ["opt", "concat", "macro", "atom"]
    assert automata[0].dfa.dump() != automata[1].dfa.dump()

    frame = alpha.frame_id
    pids = list(alpha.all_ids())
    for L in range(0, 6):
        for w in itertools.product(pids, repeat=L):
            framed = (frame,) + w + (frame,)
            for ra in automata:
                assert ra.dfa.accepts(framed) == rule_holds(ra.rule, w, alpha, decls), (
                    ra.name, [alpha.name_of(p) for p in w])
