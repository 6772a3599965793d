"""Symbol interning, the escape scanner, declaration parsing and the
feasible-pair alphabet.

Symbols are interned strings, not code points: multi-character names and
escaped literals ("%-", "%(") must behave exactly like plain letters.  The
NULL symbol "0" and the word boundary "#" are reserved and always interned.
"""

import functools
import re
from dataclasses import dataclass, field

NULL = "0"
BOUNDARY = "#"
# the characters str.isspace() holds for: words split where str.split() splits
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
              "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


class InvalidSymbol(ValueError):
    pass


class DeclarationError(ValueError):
    """Raised for malformed ALPHABET/SETS/DEFINITIONS declarations."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Symbol:
    id: int
    name: str

    def __str__(self):
        return self.name


class SymbolTable:
    """Injective name -> Symbol interning. "0" and "#" are pre-interned."""

    def __init__(self):
        self._by_name = {}
        self.symbols = []
        self.null = self.intern(NULL)
        self.boundary = self.intern(BOUNDARY)

    def intern(self, name):
        if not name:
            raise InvalidSymbol("empty symbol name")
        sym = self._by_name.get(name)
        if sym is None:
            sym = Symbol(len(self.symbols), name)
            self.symbols.append(sym)
            self._by_name[name] = sym
        return sym

    def get(self, name):
        return self._by_name.get(name)

    def __contains__(self, name):
        return name in self._by_name

    def __len__(self):
        return len(self.symbols)


@functools.lru_cache(maxsize=None)
def _run_pattern(stops):
    """scan's pattern: the longest run of escapes and of characters neither
    '%' nor in stops."""
    return re.compile("(?:[^%" + re.escape(stops) + "]+|%[^\n])*")


_ESCAPE = re.compile("%(.)")


def scan(text, stops, i=0):
    """Read text from offset i up to the first character of stops that no
    '%' escapes, or to its end: (the text read, each escape '%x' replaced
    by x; the offset where reading stopped).

    This is the one escape rule of the description syntax, for rules and
    lexicon files alike: '%x' is the literal x for every character x but
    a line end.  A '%' before a line end or at the end of the text is a
    dangling escape: reading goes on past it, and the text read is None.
    """
    run = _run_pattern(stops).match
    j = run(text, i).end()
    if not text.startswith("%", j):
        read = text[i:j]
        return (_ESCAPE.sub(r"\1", read) if "%" in read else read), j
    while text.startswith("%", j):
        j = run(text, j + 1).end()
    return None, j


def unescape(word):
    """word with each escape '%x' replaced by x."""
    value, _ = scan(word, "")
    if value is None:
        raise InvalidSymbol("dangling %% escape in %r" % word)
    return value


def split_raw(text, stops):
    """text cut at each character of stops that no '%' escapes; the pieces
    keep their escapes."""
    pieces = []
    i = 0
    while True:
        _, j = scan(text, stops, i)
        pieces.append(text[i:j])
        if j == len(text):
            return pieces
        i = j + 1


def split_words(text):
    """The words of text between unescaped whitespace, escapes kept."""
    return [word for word in split_raw(text, WHITESPACE) if word]


def split_pair_token(token):
    """Split an ALPHABET token into (lexical, surface or None).

    "a" -> ("a", None);  "D:d" -> ("D", "d");  "%-:0" -> ("-", "0").
    """
    sides = split_raw(token, ":")
    if len(sides) > 2:
        raise InvalidSymbol("more than one ':' in %r" % token)
    lexname = unescape(sides[0])
    if not lexname:
        raise InvalidSymbol("empty lexical side in %r" % token)
    if len(sides) == 1:
        return lexname, None
    surfname = unescape(sides[1])
    if not surfname:
        raise InvalidSymbol("empty surface side in %r" % token)
    return lexname, surfname


@dataclass
class SymbolSet:
    name: str
    members: tuple
    line: int = 0

    def member_names(self):
        return [s.name for s in self.members]


@dataclass
class Declarations:
    """Parsed ALPHABET / SETS / DEFINITIONS blocks of a rules file."""

    table: SymbolTable
    identity: list = field(default_factory=list)       # symbols declared bare
    declared_pairs: list = field(default_factory=list)  # explicit x:y pairs
    sets: dict = field(default_factory=dict)            # name -> SymbolSet
    definitions: dict = field(default_factory=dict)     # name -> PairRegex

    def is_set(self, name):
        return name in self.sets

    def is_definition(self, name):
        return name in self.definitions

    def set_members(self, name):
        return self.sets[name].members

    def check_namespace(self, name, line):
        if name in self.sets:
            raise DeclarationError("duplicate or colliding name %r" % name, line)
        if name in self.definitions:
            raise DeclarationError("name %r already bound as definition" % name, line)


class PairAlphabet:
    """The feasible pairs of one description; the alphabet of every automaton.

    Pairs are (lexical Symbol, surface Symbol).  The boundary pair (#,#) is
    not a feasible pair, but every denotation and automaton is over the
    framed ids: the feasible pairs and the boundary pair, id ``frame_id``.
    """

    def __init__(self, table, pairs):
        self.table = table
        ordered = sorted(set(pairs), key=lambda p: (p[0].name, p[1].name))
        self.pairs = tuple(ordered)
        self.index = {p: i for i, p in enumerate(self.pairs)}
        self.frame_id = len(self.pairs)
        self.by_lex = {}
        for i, (lex, surf) in enumerate(self.pairs):
            self.by_lex.setdefault(lex.name, []).append(i)
        self.denotation_cache = {}

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        return pair in self.index

    def id_of(self, lexname, surfname):
        lex = self.table.get(lexname)
        surf = self.table.get(surfname)
        if lex is None or surf is None:
            return None
        return self.index.get((lex, surf))

    def name_of(self, pid):
        if pid == self.frame_id:
            return "#:#"
        lex, surf = self.pairs[pid]
        return "%s:%s" % (lex.name, surf.name)

    def all_ids(self):
        return range(len(self.pairs))


def _strip_comment(line):
    """The text of line before its comment: '!' starts one that runs to the
    end of the line."""
    return line[:scan(line, "!")[1]]


def parse_declarations(text):
    """Parse the ALPHABET/SETS/DEFINITIONS sections of a rules file.

    Returns (Declarations, rules): rules is the text after the RULES header
    ("" without one), preceded by an empty line for each line before the
    header, so that its line numbers are the file's.  A section is a series
    of entries, each ended by an unescaped ';'.  ALPHABET entries list
    symbols and pairs, SETS entries are "Name = symbols", and a DEFINITIONS
    entry "Name = regex" has its text after '=' compiled to a PairRegex
    macro at once, so that it may use the definitions before it.
    """
    # imported here, as pair_regex imports this module
    from .pair_regex import ParseError, parse_pair_regex

    table = SymbolTable()
    decls = Declarations(table=table)

    def declare(entry, line):
        if not entry.strip():
            return
        if section == "ALPHABET":
            for word in split_words(entry):
                if word == BOUNDARY:
                    continue  # boundary symbol: framing, never a feasible pair
                lexname, surfname = split_pair_token(word)
                lex = table.intern(lexname)
                if surfname is None:
                    decls.identity.append(lex)
                else:
                    decls.declared_pairs.append((lex, table.intern(surfname)))
            return
        # "Name = ..." in SETS or DEFINITIONS
        name, *body = split_raw(entry, "=")
        names, body = split_words(name), "=".join(body)
        if len(names) != 1 or not body.strip():
            raise DeclarationError("expected 'Name = ... ;', got %r" % " ".join(entry.split()),
                                   line)
        name = unescape(names[0])
        decls.check_namespace(name, line)
        if section == "DEFINITIONS":
            try:
                decls.definitions[name] = parse_pair_regex(body, decls)
            except ParseError as e:
                raise ParseError("in definition %s (line %d): %s" % (name, line, e))
            return
        known = {s.name for s in decls.identity}
        known.update(s.name for pair in decls.declared_pairs for s in pair)
        if name in known:
            raise DeclarationError("set name %r collides with a symbol" % name, line)
        members = []
        for word in split_words(body):
            lexname, surfname = split_pair_token(word)
            if surfname is not None:
                raise DeclarationError("set member %r is a pair" % word, line)
            if lexname not in known:
                raise DeclarationError(
                    "set %s references undeclared symbol %r" % (name, lexname), line)
            members.append(table.intern(lexname))
        if len(set(members)) != len(members):
            raise DeclarationError("duplicate members in set %r" % name, line)
        decls.sets[name] = SymbolSet(name, tuple(members), line)

    lines = text.split("\n")
    section = None
    entry, entry_line = "", 0
    for n, raw in enumerate(lines, 1):
        line = _strip_comment(raw).lstrip(WHITESPACE)
        k = scan(line, WHITESPACE)[1]
        if line[:k] in ("ALPHABET", "SETS", "DEFINITIONS", "RULES"):
            declare(entry, entry_line)
            entry, section = "", line[:k]
            if section == "RULES":
                rules = raw.lstrip(WHITESPACE)[k:]
                return decls, "\n" * (n - 1) + "\n".join([rules] + lines[n:])
            line = line[k:]
        elif section is None and line:
            raise DeclarationError("text before ALPHABET section", n)
        for j, piece in enumerate(split_raw(line, ";")):
            if j:  # an unescaped ';' ended the entry
                declare(entry, entry_line)
                entry = ""
            if not entry.strip():
                entry_line = n
            entry += piece + "\n"
    declare(entry, entry_line)
    return decls, ""


def derive_feasible_pairs(decls, rules=()):
    """Union of identity pairs, declared pairs, and rule-correspondence pairs.

    Rule correspondences contribute every (lexical, surface) combination they
    denote, after where-expansion; deterministic (sorted) ordering.
    """
    pairs = []
    for sym in decls.identity:
        pairs.append((sym, sym))
    pairs.extend(decls.declared_pairs)
    for rule in rules:
        pairs.extend(correspondence_pairs(rule, decls))
    return PairAlphabet(decls.table, pairs)


def correspondence_pairs(rule, decls):
    """The symbol-level pairs mentioned by a (possibly templated) rule CP."""
    out = []
    for lexnames, surfnames in rule.cp.atom_name_pairs(decls):
        for ln in lexnames:
            for sn in surfnames:
                out.append((decls.table.intern(ln), decls.table.intern(sn)))
    return out
