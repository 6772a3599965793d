import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import equivalent
from twolevel import dfa as dfalib
from twolevel import pair_regex as rx
from twolevel.symbols import derive_feasible_pairs, parse_declarations


@pytest.fixture(scope="module")
def env():
    decls, _ = parse_declarations("ALPHABET\na b c ;\n")
    alpha = derive_feasible_pairs(decls)
    return decls, alpha


def compile_(env, text):
    decls, alpha = env
    return dfalib.compile_regex(rx.parse_pair_regex(text, decls), alpha, decls)


def ids(alpha, text):
    return [alpha.id_of(ch, ch) for ch in text]


def test_minimize_idempotent(env):
    a = compile_(env, "[a | b] [a | b] c*")
    m = dfalib.minimize(a)
    assert dfalib.minimize(m).n_states == m.n_states


def words_upto(alpha, length):
    """Every pair string of at most `length` pairs, the boundary left out."""
    pids = list(alpha.all_ids())
    return [w for n in range(length + 1) for w in itertools.product(pids, repeat=n)]


def test_union_difference(env):
    decls, alpha = env
    a = compile_(env, "a b | a c")
    b = compile_(env, "a c")
    d = dfalib.product(a, b)
    assert d.accepts(ids(alpha, "ab")) and not d.accepts(ids(alpha, "ac"))
    assert not dfalib.product(b, a).finals
    # brute-force membership of the difference
    for x, y in ((a, b), (b, a), (a, a)):
        d = dfalib.product(x, y)
        for w in words_upto(alpha, 5):
            assert d.accepts(w) == (x.accepts(w) and not y.accepts(w))


def test_alphabet_mismatch_rejected(env):
    decls, alpha = env
    other_decls, _ = parse_declarations("ALPHABET\na b ;\n")
    other = derive_feasible_pairs(other_decls)
    a = compile_(env, "a")
    b = dfalib.compile_regex(rx.parse_pair_regex("a", other_decls), other, other_decls)
    with pytest.raises(dfalib.AlphabetError):
        dfalib.product(a, b)
    with pytest.raises(dfalib.AlphabetError):
        dfalib.product(b, a)
    # the same alphabet passes
    d = dfalib.product(a, compile_(env, "b"))
    assert all(d.accepts(w) == a.accepts(w) for w in words_upto(alpha, 3))


def _random_dfa(rng, alpha, n_states=5):
    n = rng.randint(1, n_states)
    delta = []
    for _ in range(n):
        row = {}
        for c in range(len(alpha.pairs)):
            if rng.random() < 0.7:
                row[c] = rng.randrange(n)
        delta.append(row)
    finals = {s for s in range(n) if rng.random() < 0.4}
    class_of = list(range(len(alpha.pairs))) + [len(alpha.pairs)]
    return dfalib.PairDfa(alpha, class_of, len(alpha.pairs) + 1, delta, 0, finals)


def test_random_dfa_properties(env):
    decls, alpha = env
    rng = random.Random(7)
    words = words_upto(alpha, 4)
    for _ in range(80):
        a = _random_dfa(rng, alpha)
        b = _random_dfa(rng, alpha)
        m = dfalib.minimize(a)
        assert equivalent(a, m)
        assert dfalib.minimize(m).n_states == m.n_states
        d = dfalib.product(a, b)
        for w in words:
            assert d.accepts(w) == (a.accepts(w) and not b.accepts(w))
        for w in rng.sample(words, 25):
            assert m.accepts(w) == a.accepts(w)


def test_dump_is_stable(env):
    a = compile_(env, "a b")
    d1 = a.dump()
    d2 = a.dump()
    assert d1 == d2
    assert "state\t0" in d1 and "a:a" in d1


def _partition_reference(denotations, n_symbols):
    """partition_for by definition: one membership tuple per pair id."""
    sigs = {}
    class_of = [0] * n_symbols
    classes = []
    for pid in range(n_symbols):
        sig = tuple(pid in d for d in denotations)
        if sig not in sigs:
            sigs[sig] = len(classes)
            classes.append([])
        class_of[pid] = sigs[sig]
        classes[sigs[sig]].append(pid)
    return class_of, [tuple(c) for c in classes]


@st.composite
def _denotation_lists(draw):
    n_symbols = draw(st.integers(0, 40))
    # empty sets included; more than 64 sets at times
    den = st.frozensets(st.integers(0, n_symbols - 1)) if n_symbols else st.just(frozenset())
    return draw(st.lists(den, max_size=70)), n_symbols


@settings(max_examples=300, deadline=None, database=None)
@given(_denotation_lists())
def test_partition_for_matches_membership_signatures(case):
    denotations, n_symbols = case
    assert dfalib.partition_for(denotations, n_symbols) == _partition_reference(
        denotations, n_symbols)
