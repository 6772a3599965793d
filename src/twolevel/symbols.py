"""Symbol interning, declaration parsing and the feasible-pair alphabet.

Symbols are interned strings, not code points: multi-character names and
escaped literals ("%-", "%(") must behave exactly like plain letters.  The
NULL symbol "0" and the word boundary "#" are reserved and always interned.
"""

import re
from dataclasses import dataclass, field

NULL = "0"
BOUNDARY = "#"


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


def unescape(token):
    """Expand "%x" escapes; returns the list of character symbols in token.

    A "%" always makes the next character a literal, so "%-:0" splits into
    the name "-" and, after the unescaped ":", the name "0".
    """
    out = []
    i = 0
    while i < len(token):
        c = token[i]
        if c == "%":
            if i + 1 >= len(token):
                raise InvalidSymbol("dangling %% escape in %r" % token)
            out.append(("lit", token[i + 1]))
            i += 2
        else:
            out.append(("raw", c))
            i += 1
    return out


def split_pair_token(token):
    """Split an ALPHABET token into (lexical, surface or None).

    "a" -> ("a", None);  "D:d" -> ("D", "d");  "%-:0" -> ("-", "0").
    """
    parts = unescape(token)
    lex = []
    surf = None
    cur = lex
    for kind, ch in parts:
        if kind == "raw" and ch == ":":
            if surf is not None:
                raise InvalidSymbol("more than one ':' in %r" % token)
            surf = []
            cur = surf
        else:
            cur.append(ch)
    lexname = "".join(lex)
    if not lexname:
        raise InvalidSymbol("empty lexical side in %r" % token)
    if surf is None:
        return lexname, None
    surfname = "".join(surf)
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
    definition_order: list = field(default_factory=list)

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
    kept out of the alphabet proper; rule automata receive it as an extra
    framing symbol with id ``len(pairs)``.
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

    def all_ids(self, with_frame=False):
        n = len(self.pairs) + (1 if with_frame else 0)
        return range(n)


# The text before a comment: '!' starts one to the end of the line, and '%'
# makes the next character, '!' included, a literal.
_BEFORE_COMMENT = re.compile(r"(?:[^%!]+|%.?)*", re.DOTALL)


def _strip_comment(line):
    return _BEFORE_COMMENT.match(line).group()


def parse_declarations(text):
    """Parse the ALPHABET/SETS/DEFINITIONS sections of a rules file.

    Returns (Declarations, rest) where rest is the remaining text starting at
    the RULES header (or empty).  Set entries become SymbolSets; DEFINITIONS
    entries are kept as raw token strings here and compiled to PairRegex
    macros by the rules module (which owns the regex grammar).
    """
    table = SymbolTable()
    decls = Declarations(table=table)
    decls.raw_definitions = {}

    lines = text.split("\n")
    section = None
    buf = []  # pending tokens for a ';'-terminated entry
    buf_line = 0
    rest_index = None

    def flush_alphabet(tokens, line_no):
        for tok in tokens:
            if tok == ";":
                continue
            if tok == BOUNDARY:
                continue  # boundary symbol: framing, never a feasible pair
            lexname, surfname = split_pair_token(tok)
            lex = table.intern(lexname)
            if surfname is None:
                decls.identity.append(lex)
            else:
                decls.declared_pairs.append((lex, table.intern(surfname)))

    def declared_names():
        names = {s.name for s in decls.identity}
        for lex, surf in decls.declared_pairs:
            names.add(lex.name)
            names.add(surf.name)
        return names

    def flush_entry(tokens, line_no):
        # "Name = member... ;" in SETS or DEFINITIONS
        if not tokens:
            return
        if len(tokens) < 3 or tokens[1] != "=":
            raise DeclarationError("expected 'Name = ... ;', got %r" % " ".join(tokens), line_no)
        name = tokens[0]
        body = tokens[2:]
        if section == "SETS":
            decls.check_namespace(name, line_no)
            if name in declared_names():
                raise DeclarationError("set name %r collides with a symbol" % name, line_no)
            known = declared_names()
            members = []
            for tok in body:
                lexname, surfname = split_pair_token(tok)
                if surfname is not None:
                    raise DeclarationError("set member %r is a pair" % tok, line_no)
                if lexname not in known:
                    raise DeclarationError(
                        "set %s references undeclared symbol %r" % (name, lexname), line_no)
                members.append(table.intern(lexname))
            if len(set(members)) != len(members):
                raise DeclarationError("duplicate members in set %r" % name, line_no)
            decls.sets[name] = SymbolSet(name, tuple(members), line_no)
        else:
            decls.check_namespace(name, line_no)
            decls.raw_definitions[name] = (" ".join(body), line_no)
            decls.definition_order.append(name)

    for n, raw in enumerate(lines, 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        head = line.split()[0]
        if head in ("ALPHABET", "SETS", "DEFINITIONS", "RULES"):
            if buf:
                flush_entry(buf, buf_line)
                buf = []
            section = head
            line = line[len(head) :].strip()
            if section == "RULES":
                rest_index = n - 1
                break
            if not line:
                continue
        if section is None:
            raise DeclarationError("text before ALPHABET section", n)
        if section == "ALPHABET":
            flush_alphabet(line.replace(";", " ; ").split(), n)
        else:
            if not buf:
                buf_line = n
            for tok in line.replace(";", " ; ").split():
                if tok == ";":
                    flush_entry(buf, buf_line)
                    buf = []
                else:
                    buf.append(tok)
    if buf:
        flush_entry(buf, buf_line)

    rest = "\n".join(lines[rest_index:]) if rest_index is not None else ""
    decls._rest_line_offset = rest_index or 0
    return decls, rest


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
