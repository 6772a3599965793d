import pytest

from twolevel import dfa as dfalib
from twolevel.turkish import load_turkish


@pytest.fixture(scope="session")
def turkish():
    return load_turkish()


def make_description(rules_text, lexicon_text=None):
    """Small ad-hoc description for unit tests."""
    from twolevel import engine
    from twolevel.lexicon import Lexicon, parse_lexicon_file
    from twolevel.rules import expand_where, parse_rules_file
    from twolevel.symbols import derive_feasible_pairs

    decls, rules = parse_rules_file(rules_text)
    ground = [g for r in rules for g in expand_where(r)]
    alphabet = derive_feasible_pairs(decls, ground)
    lexicon = Lexicon(table=decls.table)
    if lexicon_text:
        parse_lexicon_file(lexicon_text, lexicon)
    else:
        lexicon.sublexicons["Root"] = []
        lexicon.roots = ["Root"]
    return engine.compile_description(decls, ground, lexicon, alphabet)


def equivalent(a, b):
    """Decide L(a) == L(b) by emptiness of both difference products."""
    return not any(dfalib.product(x, y).finals for x, y in ((a, b), (b, a)))


def canonical_dump(a):
    """a.dump() with the states numbered breadth first from the start, arcs
    in pair id order: equal for two automata that differ only in how their
    states are numbered."""
    ids = range(a.alphabet.frame_id + 1)
    order = {a.start: 0}
    queue = [a.start]
    for s in queue:
        for pid in ids:
            t = a.step(s, pid)
            if t is not None and t not in order:
                order[t] = len(queue)
                queue.append(t)
    lines = []
    for s in queue:
        lines.append("state\t%d\t%s" % (order[s], "final" if s in a.finals else ""))
        for pid in ids:
            t = a.step(s, pid)
            if t is not None:
                lines.append("%d\t%s\t%d" % (order[s], a.alphabet.name_of(pid), order[t]))
    return "\n".join(lines) + "\n"


def gloss_reference(root, tags, desc):
    """generate_from_gloss as a composition: gloss_paths, then the validated
    generate of every lexical string."""
    from twolevel import engine

    out = set()
    for lexical in engine.gloss_paths(root, tags, desc):
        out.update(engine.generate(lexical, desc, validate_morphotactics=True))
    return sorted(out)
