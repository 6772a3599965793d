"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` for the printed summary.
"""

import itertools
import random
import time

import pytest

from conftest import equivalent
from twolevel import dfa as dfalib
from twolevel import engine
from twolevel import pair_regex as rx
from twolevel.lexicon import enumerate_paths
from twolevel.rules import TwoLevelRule, compile_rule, rule_holds, _cp_sets
from twolevel.symbols import derive_feasible_pairs, parse_declarations
from twolevel.turkish import golden_suite, run_case


def report(name, ok, detail=""):
    print("ACCEPTANCE %-28s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


# ---------------------------------------------------------------------------
# 1. Golden corpus: every positive case passes both directions

REQUIRED_SURFACES = [
    "saatlerimizden", "retten", "bana", "evlerine", "suyunda",
    "kıpkırmızı", "geleceğiz", "gelmezmiyim", "göğe", "saatçi",
]


def test_criterion_golden_corpus(turkish):
    t0 = time.time()
    cases = [c for c in golden_suite() if c.polarity == "positive"]
    assert len(cases) >= 60
    surfaces = {c.surface for c in cases}
    for needed in REQUIRED_SURFACES:
        assert needed in surfaces, needed
    failures = []
    for case in cases:
        ok, detail = run_case(case, turkish)
        if not ok:
            failures.append((case.source, case.surface, detail))
    dt = time.time() - t0
    report("golden-corpus", not failures,
           "%d/%d positive cases in %.1fs %s" % (
               len(cases) - len(failures), len(cases), dt, failures[:3]))


# ---------------------------------------------------------------------------
# 2. Negative suite: all starred forms rejected, zero false accepts

def test_criterion_negative_suite(turkish):
    cases = [c for c in golden_suite() if c.polarity != "positive"]
    assert len(cases) >= 8
    surfaces = {c.surface for c in cases}
    for needed in ("arabadanlar", "evdeimiz", "evide", "şuyu", "susunda",
                   "kızlarımsın", "gelmermiyim"):
        assert needed in surfaces, needed
    failures = []
    for case in cases:
        ok, detail = run_case(case, turkish)
        if not ok:
            failures.append((case.source, case.surface, detail))
    report("negative-suite", not failures,
           "%d/%d starred forms rejected %s" % (
               len(cases) - len(failures), len(cases), failures[:3]))


# ---------------------------------------------------------------------------
# 3. Compiler-vs-interpreter oracle

def _sub_alphabet(rule, alpha, decls):
    """Up to four pairs touching the rule's correspondence and contexts."""
    cp_ids, _ = _cp_sets(rule, alpha, decls)
    chosen = list(sorted(cp_ids)[:2])
    atoms = []
    for lc, rc in rule.contexts:
        stack = [lc, rc]
        while stack:
            node = stack.pop()
            if isinstance(node, (rx.Atom, rx.NotPair, rx.Boundary)):
                atoms.append(node)
            stack.extend(node.children())
    for a in atoms:
        den = rx.denote_atom(a, alpha, decls, allow_empty=True) - {alpha.frame_id}
        for pid in sorted(den):
            if pid not in chosen:
                chosen.append(pid)
                break
        if len(chosen) >= 4:
            break
    return chosen[:4]


def test_criterion_compiler_vs_interpreter_turkish(turkish):
    t0 = time.time()
    alpha, decls = turkish.alphabet, turkish.declarations
    frame = alpha.frame_id
    mismatches = 0
    checked = 0
    for rule in turkish.ground_rules:
        ra = compile_rule(rule, alpha, decls)
        sub = _sub_alphabet(rule, alpha, decls)
        for L in range(0, 7):
            for w in itertools.product(sub, repeat=L):
                want = rule_holds(rule, w, alpha, decls)
                got = ra.dfa.accepts((frame,) + w + (frame,))
                checked += 1
                if want != got:
                    mismatches += 1
                    print("MISMATCH", rule.name, [alpha.name_of(p) for p in w], want, got)
    report("oracle-turkish-rules", mismatches == 0,
           "%d rules x %d strings in %.0fs" % (
               len(turkish.ground_rules), checked // len(turkish.ground_rules),
               time.time() - t0))


def _random_rule(rng):
    specs = ["a:a", "a:b", "b:b"]

    def atom():
        l, _, s = rng.choice(specs).partition(":")
        k = rng.random()
        if k < 0.2:
            return rx.Atom(l, None)
        if k < 0.35:
            return rx.Atom(None, s)
        return rx.Atom(l, s)

    def regex(depth):
        if depth == 0 or rng.random() < 0.45:
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
    contexts = []
    for _ in range(rng.choice([1, 1, 2])):
        contexts.append((regex(2) if rng.random() < 0.85 else rx.Epsilon(),
                         regex(2) if rng.random() < 0.85 else rx.Epsilon()))
    l, _, s = rng.choice(specs).partition(":")
    return TwoLevelRule("rnd", rx.Atom(l, s), op, contexts)


def test_criterion_compiler_vs_interpreter_random():
    t0 = time.time()
    decls, _ = parse_declarations("ALPHABET\na b a:b ;\n")
    alpha = derive_feasible_pairs(decls)
    frame = alpha.frame_id
    pids = list(alpha.all_ids())
    words = []
    for L in range(0, 7):
        words.extend(itertools.product(pids, repeat=L))
    rng = random.Random(19960128)
    mismatches = 0
    for k in range(1000):
        rule = _random_rule(rng)
        ra = compile_rule(rule, alpha, decls, allow_empty_atoms=True)
        for w in words:
            if rule_holds(rule, w, alpha, decls) != ra.dfa.accepts((frame,) + w + (frame,)):
                mismatches += 1
                print("MISMATCH", k, rule.op, w)
                break
    report("oracle-random-rules", mismatches == 0,
           "1000 rules x %d strings in %.0fs" % (len(words), time.time() - t0))


# ---------------------------------------------------------------------------
# 4 + 5. Closure and vowel-harmony properties over the 4-morpheme lexicon

BACK = set("aıou")
FRONT = set("eiöü")
ACUTE = set("áóú")


def _harmony_ok(pairs, alpha):
    """Each surface vowel realized from lexical A or H agrees in backness
    with the nearest preceding surface vowel, unless that vowel's own
    lexical side is an acute variant (the acute pairs condition front
    harmony while surfacing as back letters)."""
    last = None  # (lexical, surface) of the nearest preceding surface vowel
    for pid in pairs:
        lex, surf = alpha.pairs[pid]
        s, l = surf.name, lex.name
        if s in BACK | FRONT:
            if l in ("A", "H") and last is not None and last[0] not in ACUTE:
                if (s in BACK) != (last[1] in BACK):
                    return False
            last = (l, s)
    return True


def test_criterion_closure_and_harmony(turkish):
    t0 = time.time()
    paths = enumerate_paths(turkish.lexicon, 4)
    closure_bad = []
    harmony_bad = []
    n_surfaces = 0
    for lexical, gloss in paths:
        surfaces = engine.generate(lexical, turkish)
        n_surfaces += len(surfaces)
        for s in surfaces:
            analyses = engine.analyze(s, turkish)
            if not any(a.gloss == gloss for a in analyses):
                closure_bad.append((lexical, gloss, s))
                break
            for a in analyses:
                if a.lexical == lexical and not _harmony_ok(a.pairs, turkish.alphabet):
                    harmony_bad.append((lexical, s))
                    break
    dt = time.time() - t0
    report("closure", not closure_bad,
           "%d paths, %d surfaces in %.0fs %s" % (
               len(paths), n_surfaces, dt, closure_bad[:3]))
    report("vowel-harmony", not harmony_bad, str(harmony_bad[:3]))


# ---------------------------------------------------------------------------
# 6. DFA algebra on 500 random small automata

def test_criterion_dfa_algebra():
    t0 = time.time()
    decls, _ = parse_declarations("ALPHABET\na b c ;\n")
    alpha = derive_feasible_pairs(decls)
    rng = random.Random(4242)
    n_classes = len(alpha.pairs) + 1
    class_of = list(range(n_classes))
    # the difference is checked by brute-force membership on these
    pids = list(alpha.all_ids())
    words = [w for n in range(5) for w in itertools.product(pids, repeat=n)]
    bad = 0
    for k in range(500):
        n = rng.randint(1, 6)
        delta = []
        for _ in range(n):
            row = {}
            for c in range(len(alpha.pairs)):
                if rng.random() < 0.65:
                    row[c] = rng.randrange(n)
            delta.append(row)
        finals = {s for s in range(n) if rng.random() < 0.45}
        a = dfalib.PairDfa(alpha, class_of, n_classes, delta, 0, finals)
        b_n = rng.randint(1, 6)
        b_delta = []
        for _ in range(b_n):
            row = {}
            for c in range(len(alpha.pairs)):
                if rng.random() < 0.65:
                    row[c] = rng.randrange(b_n)
            b_delta.append(row)
        b = dfalib.PairDfa(alpha, class_of, n_classes, b_delta, 0,
                           {s for s in range(b_n) if rng.random() < 0.45})
        m = dfalib.minimize(a)
        ok = dfalib.minimize(m).n_states == m.n_states
        ok = ok and equivalent(a, m)
        d = dfalib.product(a, b)
        ok = ok and all(d.accepts(w) == (a.accepts(w) and not b.accepts(w)) for w in words)
        if not ok:
            bad += 1
            print("ALGEBRA FAIL on sample", k)
    report("dfa-algebra", bad == 0, "500 samples in %.0fs" % (time.time() - t0))


# ---------------------------------------------------------------------------
# 7. Throughput: 10,000 six-morpheme words, single-threaded

def test_criterion_throughput(turkish):
    six_morpheme_paths = [
        "ev^-lAr-(H)mHz-DA-kiN-lAr",
        "o^kul-DA-kiN-lAr-DAn-(y)mHş",
        "a^raba-lAr-(H)nHz-DA-kiN-lAr",
        "kız^-lAr-(H)mHz-(y)lA-(y)mHş-lAr",
        "çi^çek-CH-DA-kiN-lAr-(n)Hn",
        "sor^-(H)ş-(D)HX-(H)L-mHş-(yH)m",
        "geL^-mA-z-mH-(yH)m",
        "ev^-DA-kiN-(n)Hn-kiN-(y)A",
    ]
    words = []
    for p in six_morpheme_paths:
        words.extend(engine.generate(p, turkish))
    assert words
    batch = (words * (10000 // len(words) + 1))[:10000]
    # warm the transition caches, then measure
    for w in words:
        engine.analyze(w, turkish)
    t0 = time.time()
    analyzed = 0
    for w in batch:
        if engine.analyze(w, turkish):
            analyzed += 1
    dt = time.time() - t0
    rate = len(batch) / dt
    report("throughput", rate >= 1250 and analyzed == len(batch),
           "%.0f words/sec (floor 1250), %d/%d analyzed, %.1fs" % (
               rate, analyzed, len(batch), dt))
