"""Continuation-class lexicons: a morphotactic graph of sublexicons.

File format, one or more files concatenated:

    LEXICON Name
    gloss:form CONT ;      ! explicit gloss
    form CONT ;            ! gloss = form
    :0 CONT ;              ! empty-form link entry (lexc-style "0" = nothing)

"#" as continuation marks acceptance.  Entries keep file order; duplicate
entries are allowed (homographs).
"""

import re
from dataclasses import dataclass

from .symbols import SymbolTable, _strip_comment, unescape


class LexiconSyntaxError(ValueError):
    pass


class LinkError(ValueError):
    """A continuation class that no LEXICON section defines, or a loop of
    empty-form entries that adds glosses (enumerate_paths)."""


TERMINAL = "#"

# An entry head "gloss:form", split at its last ':' that no '%' escapes.
_GLOSS_FORM = re.compile(r"((?:[^%]|%.)*):((?:[^%:]|%.)*)", re.DOTALL)


@dataclass
class LexEntry:
    gloss: str
    form: tuple            # tuple of Symbol
    continuation: str
    sublexicon: str = ""
    line: int = 0

    def form_text(self):
        return "".join(s.name for s in self.form)


class Lexicon:
    def __init__(self, table=None):
        self.table = table or SymbolTable()
        self.sublexicons = {}   # name -> [LexEntry]
        self.order = []
        self.roots = []

    def add_entry(self, sublexicon, entry):
        if sublexicon not in self.sublexicons:
            self.sublexicons[sublexicon] = []
            self.order.append(sublexicon)
        entry.sublexicon = sublexicon
        self.sublexicons[sublexicon].append(entry)

    def validate(self):
        for name, entries in self.sublexicons.items():
            for e in entries:
                if e.continuation != TERMINAL and e.continuation not in self.sublexicons:
                    raise LinkError(
                        "entry %r in LEXICON %s continues to undefined %r"
                        % (e.gloss or e.form_text(), name, e.continuation)
                    )
        for root in self.roots:
            if root not in self.sublexicons:
                raise LinkError("entry-point LEXICON %r missing" % root)

    def unreachable(self):
        """Sublexicons not reachable from any root (lint, not an error)."""
        seen = set()
        work = [r for r in self.roots if r in self.sublexicons]
        while work:
            cur = work.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for e in self.sublexicons[cur]:
                if e.continuation != TERMINAL and e.continuation not in seen:
                    work.append(e.continuation)
        return [n for n in self.order if n not in seen]


def parse_lexicon_file(text, lexicon=None, roots=("Root",)):
    """Parse one lexicon file, adding to an existing Lexicon if given."""
    lx = lexicon or Lexicon()
    if not lx.roots:
        lx.roots = list(roots)
    current = None
    for n, raw in enumerate(text.split("\n"), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("LEXICON"):
            parts = line.split()
            if len(parts) != 2:
                raise LexiconSyntaxError("line %d: bad LEXICON header" % n)
            current = parts[1]
            if current not in lx.sublexicons:
                lx.sublexicons[current] = []
                lx.order.append(current)
            continue
        if current is None:
            raise LexiconSyntaxError("line %d: entry before any LEXICON header" % n)
        if not line.endswith(";"):
            raise LexiconSyntaxError("line %d: entry must end with ';'" % n)
        body = line[:-1].split()
        if len(body) != 2:
            raise LexiconSyntaxError("line %d: expected 'form CONT ;'" % n)
        head, cont = body
        split = _GLOSS_FORM.fullmatch(head)
        if split:
            gloss, formtext = split.groups()
        else:
            gloss = "".join(ch for _, ch in unescape(head))
            formtext = head
        form = _intern_form(formtext, lx.table, n)
        lx.add_entry(current, LexEntry(gloss, form, cont, current, n))
    return lx


def _intern_form(text, table, line):
    if text == "0":
        return ()
    syms = []
    for kind, ch in unescape(text):
        syms.append(table.intern(ch))
    return tuple(syms)


def enumerate_paths(lexicon, max_morphemes):
    """All root-to-# paths with at most max_morphemes non-empty entries.

    Returns deduplicated (lexical string, gloss string) pairs, sorted.
    Link entries do not count as morphemes.  A path that re-enters a
    sublexicon it entered since its last non-empty entry is cut: exactly
    when the loop added no gloss, else LinkError names the sublexicon if
    some path was found.
    """
    if max_morphemes < 1:
        raise ValueError("max_morphemes must be >= 1")
    # the paths in the order found, depth first as the entries are listed:
    # nearly sorted, which makes the final sort cheap
    found = {}
    loop = None       # the sublexicon of the first cut loop that added a gloss
    # (sublexicon, lexical, gloss, non-empty entries used, the sublexicons
    # entered since the last non-empty entry as a (sublexicon, gloss at
    # entry, rest) list)
    stack = [(root, "", "", 0, (root, "", None)) for root in reversed(lexicon.roots)]
    while stack:
        name, lexical, gloss, used, entered = stack.pop()
        if name == TERMINAL:
            found[lexical, gloss] = None
            continue
        for e in reversed(lexicon.sublexicons[name]):
            cont, jumped = e.continuation, gloss + e.gloss
            if e.form:
                if used < max_morphemes:
                    stack.append((cont, lexical + e.form_text(), jumped, used + 1,
                                  (cont, jumped, None)))
                continue
            rest = entered
            while rest is not None and rest[0] != cont:
                rest = rest[2]
            if rest is None:
                stack.append((cont, lexical, jumped, used, (cont, jumped, entered)))
            elif rest[1] != jumped and loop is None:
                loop = cont
    if loop is not None and found:
        raise LinkError("LEXICON %s is re-entered by a loop of empty-form entries"
                        " that adds glosses" % loop)
    return sorted(found)
