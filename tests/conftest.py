import pytest

from twolevel import dfa as dfalib
from twolevel.turkish import load_description, load_turkish


@pytest.fixture(scope="session")
def turkish():
    return load_turkish()


def make_description(rules_text, lexicon_text=None):
    """Small ad-hoc description for unit tests, compiled as the CLI does."""
    return load_description(rules_text, [lexicon_text or "LEXICON Root\n"])


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


def _gloss_walk(tables, root, tags, start=None):
    """The lexical strings of the gloss paths of [ROOT=root] followed by the
    tags, rules off, in one depth-first walk of the continuation graph from
    ROOT, independent of the engine's gloss closures.  Gloss 0 is
    [ROOT=root] and gloss k + 1 +tags[k]; a gloss-less entry keeps the
    gloss index, and a path ends at # with every gloss placed.  A path that
    re-enters a sublexicon it entered since it last placed a gloss closes a
    loop, which is cut: exactly when the loop added no text.  Else
    DescriptionError names the sublexicon when a walk from the state the
    loop returns to (sublexicon, glosses placed) alone finds a path
    (`start`, which checks no loop).  Raises MorphotacticsError as
    engine.gloss_paths documents."""
    from twolevel import engine

    subs = {}
    for name, entries in tables["entries"].items():
        tagged, links = {}, []
        for form, gloss, cont in entries:
            (tagged.setdefault(gloss, []) if gloss else links).append((form, cont))
        subs[name] = (tagged, links)
    wants = ["[ROOT=%s]" % root] + ["+" + tag for tag in tags]
    n = len(wants)
    best, found, loops = -1, False, {}
    # (entry, glosses placed, the lexical string before the entry, the
    # sublexicons entered since the last placed gloss as a ((sublexicon,
    # lexical), rest) list); the walk enters its start through an empty entry
    sub, k = (engine.ROOT, 0) if start is None else start
    stack = [(("", sub), k, "", None)]
    while stack:
        (text, sub), k, lexical, entered = stack.pop()
        lexical += text
        if sub == engine.TERMINAL:
            found = True
            yield lexical
            continue
        rest = entered
        while rest is not None and rest[0][0] != sub:
            rest = rest[1]
        if rest is not None:
            if rest[0][1] != lexical:
                loops[sub, k] = None
            continue
        entered = ((sub, lexical), entered)
        tagged, links = subs[sub]
        matched = tagged.get(wants[k], ()) if k < n else ()
        if matched:
            best = max(best, k)
        # an entry to # with a gloss left ends no path
        for entries, placed, since in ((links, k, entered), (matched, k + 1, None)):
            for entry in entries:
                if entry[1] != engine.TERMINAL or placed == n:
                    stack.append((entry, placed, lexical, since))
    if start is not None:
        return
    if not found:
        if best < 0:
            raise engine.MorphotacticsError("no morphotactic path places root %r" % root,
                                            tag=None)
        bad = tags[best] if best < len(tags) else (tags[-1] if tags else "#")
        raise engine.MorphotacticsError(
            "no morphotactic path for %s + %s (stuck at %r)" % (root, "+".join(tags), bad),
            tag=bad)
    for state in loops:
        if next(_gloss_walk(tables, root, tags, state), None) is not None:
            raise engine.DescriptionError("sublexicon %s is re-entered by a loop that places"
                                          " no gloss but adds lexical symbols" % state[0])


def gloss_paths_reference(root, tags, desc):
    """gloss_paths as a depth-first walk of the lexicon alone (_gloss_walk)."""
    from twolevel import engine

    return sorted(set(_gloss_walk(engine.runtime(desc).tables, root, tags)))


def gloss_reference(root, tags, desc):
    """generate_from_gloss as a composition: the reference gloss paths, then
    the validated generate of every lexical string."""
    from twolevel import engine

    out = set()
    for lexical in gloss_paths_reference(root, tags, desc):
        out.update(engine.generate(lexical, desc, validate_morphotactics=True))
    return sorted(out)
