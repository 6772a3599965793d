"""Continuation-class lexicons: a morphotactic graph of sublexicons.

File format, one or more files concatenated:

    LEXICON Name
    gloss:form CONT ;      ! explicit gloss
    form CONT ;            ! gloss = form
    :0 CONT ;              ! empty-form link entry (lexc-style "0" = nothing)

"#" as continuation marks acceptance.  Entries keep file order; duplicate
entries are allowed (homographs).  The entry point is LEXICON Root.
"""

from dataclasses import dataclass

from .engine import ROOT, TERMINAL
from .symbols import _strip_comment, split_raw, split_words, unescape


class LexiconSyntaxError(ValueError):
    pass


class LinkError(ValueError):
    """A continuation class that no LEXICON section defines, or a loop of
    empty-form entries that adds glosses (enumerate_paths)."""


@dataclass
class LexEntry:
    gloss: str
    form: str              # one lexical symbol per character
    continuation: str


class Lexicon:
    def __init__(self):
        self.sublexicons = {}   # name -> [LexEntry], in file order

    def validate(self):
        for name, entries in self.sublexicons.items():
            for e in entries:
                if e.continuation != TERMINAL and e.continuation not in self.sublexicons:
                    raise LinkError(
                        "entry %r in LEXICON %s continues to undefined %r"
                        % (e.gloss or e.form, name, e.continuation)
                    )
        if ROOT not in self.sublexicons:
            raise LinkError("entry-point LEXICON %r missing" % ROOT)

    def unreachable(self):
        """Sublexicons not reachable from ROOT (lint, not an error)."""
        seen = set()
        work = [ROOT] if ROOT in self.sublexicons else []
        while work:
            cur = work.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for e in self.sublexicons[cur]:
                if e.continuation != TERMINAL and e.continuation not in seen:
                    work.append(e.continuation)
        return [n for n in self.sublexicons if n not in seen]


def parse_lexicon_file(text, lexicon=None):
    """Parse one lexicon file, adding to an existing Lexicon if given."""
    lx = lexicon or Lexicon()
    current = None
    for n, raw in enumerate(text.split("\n"), 1):
        entry, *rest = split_raw(_strip_comment(raw), ";")
        words = split_words(entry)
        if not (words or rest):
            continue
        if words[:1] == ["LEXICON"]:
            if len(words) != 2 or rest:
                raise LexiconSyntaxError("line %d: bad LEXICON header" % n)
            current = words[1]
            lx.sublexicons.setdefault(current, [])
            continue
        if current is None:
            raise LexiconSyntaxError("line %d: entry before any LEXICON header" % n)
        if len(rest) != 1 or rest[0].strip():
            raise LexiconSyntaxError("line %d: entry must end with ';'" % n)
        if len(words) != 2:
            raise LexiconSyntaxError("line %d: expected 'form CONT ;'" % n)
        head, cont = words
        # "gloss:form", split at the last unescaped ':', or a form alone
        *glosses, formtext = split_raw(head, ":")
        gloss = unescape(":".join(glosses) if glosses else formtext)
        form = "" if formtext == "0" else unescape(formtext)
        lx.sublexicons[current].append(LexEntry(gloss, form, cont))
    return lx


def enumerate_paths(lexicon, max_morphemes):
    """All root-to-# paths with at most max_morphemes non-empty entries.

    Returns deduplicated (lexical string, gloss string) pairs, sorted.
    Link entries do not count as morphemes.  A path that re-enters a
    sublexicon it entered since its last non-empty entry closes a loop,
    which is cut: exactly when the loop added no gloss, as the cut never
    removes every path through the state (sublexicon, non-empty entries
    used) it returns to.  Else LinkError names the sublexicon when a walk
    from that state alone finds a path.
    """
    if max_morphemes < 1:
        raise ValueError("max_morphemes must be >= 1")
    loops = {}        # the state of each cut loop that added a gloss
    found = _paths(lexicon, max_morphemes, [(ROOT, 0)], loops)
    for state in loops:
        if _paths(lexicon, max_morphemes, [state], {}):
            raise LinkError("LEXICON %s is re-entered by a loop of empty-form entries"
                            " that adds glosses" % state[0])
    return sorted(found)


def _paths(lexicon, max_morphemes, starts, loops):
    """enumerate_paths's walk from the states `starts`, depth first as the
    entries are listed: {(lexical, gloss): None} in the order found, nearly
    sorted, which makes the final sort cheap."""
    found = {}
    # (sublexicon, lexical, gloss, non-empty entries used, the sublexicons
    # entered since the last non-empty entry as a (sublexicon, gloss at
    # entry, rest) list)
    stack = [(name, "", "", used, (name, "", None)) for name, used in reversed(starts)]
    while stack:
        name, lexical, gloss, used, entered = stack.pop()
        if name == TERMINAL:
            found[lexical, gloss] = None
            continue
        for e in reversed(lexicon.sublexicons[name]):
            cont, jumped = e.continuation, gloss + e.gloss
            if e.form:
                if used < max_morphemes:
                    stack.append((cont, lexical + e.form, jumped, used + 1,
                                  (cont, jumped, None)))
                continue
            rest = entered
            while rest is not None and rest[0] != cont:
                rest = rest[2]
            if rest is None:
                stack.append((cont, lexical, jumped, used, (cont, jumped, entered)))
            elif rest[1] != jumped:
                loops[cont, used] = None
    return found
