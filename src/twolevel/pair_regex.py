"""Regular expressions over the framed pair alphabet: the feasible pairs
and the boundary pair #:#.

Grammar (loosest to tightest): union "|", difference "-", concatenation,
postfix "*"/"+".  "( )" is optionality, "[ ]" and "{ }" group, "#" is the
boundary pair, and "\\X" any single pair, the boundary pair included, not in
the single-pair form X.  Atoms are "x", "x:y", "x:", ":y" where either side
may be a symbol or a set name; whitespace around ":" matters ("H: y" is two
atoms, "H:y" one pair).
"""

import functools

from .symbols import BOUNDARY, WHITESPACE, scan


class ParseError(ValueError):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = "%s (at token %d)" % (message, pos)
        super().__init__(message)
        self.pos = pos


class EmptyAtom(ValueError):
    """An atom that denotes no feasible pair (compile-time diagnostic)."""


def bounded_nesting(walk):
    """`walk`, the entry to recursive walks over an expression, raising
    ParseError for an expression nested too deeply for the interpreter's
    stack.  Only entries carry it, so that it costs the walks no frame per
    level of nesting."""
    @functools.wraps(walk)
    def checked(*args, **kwargs):
        try:
            return walk(*args, **kwargs)
        except RecursionError:
            raise ParseError("expression nested too deeply") from None
    return checked


# ---------------------------------------------------------------------------
# AST

class Node:
    def atom_name_pairs(self, decls):
        """(lexical names, surface names) contributed by pair atoms, for
        feasible-pair derivation from rule correspondences; wildcard sides
        never introduce new pairs.  Walked on a stack, as a chain of
        definitions may be deeper than the interpreter's stack."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Atom):
                lexnames = side_names(node.lex, decls)
                surfnames = side_names(node.surf, decls)
                if lexnames is not None and surfnames is not None:
                    out.append((lexnames, surfnames))
            stack.extend(reversed(node.children()))
        return out

    def children(self):
        return ()


class Epsilon(Node):
    def __repr__(self):
        return "Eps"


class Boundary(Node):
    def __repr__(self):
        return "#"


class Atom(Node):
    """lex/surf are symbol-or-set names; None means wildcard side."""

    def __init__(self, lex, surf):
        self.lex = lex
        self.surf = surf

    def __repr__(self):
        return "%s:%s" % (self.lex or "", self.surf or "")


def side_names(name, decls):
    """The symbol names an atom side spans: a set's members, a symbol's own
    name, or None for a wildcard side."""
    if name is None:
        return None
    return decls.sets.get(name, (name,))


class Concat(Node):
    def __init__(self, items):
        self.items = items

    def children(self):
        return self.items

    def __repr__(self):
        return "(%s)" % " ".join(map(repr, self.items))


class Union(Node):
    def __init__(self, items):
        self.items = items

    def children(self):
        return self.items

    def __repr__(self):
        return "[%s]" % " | ".join(map(repr, self.items))


class Diff(Node):
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def __repr__(self):
        return "[%r - %r]" % (self.left, self.right)


class Star(Node):
    def __init__(self, item):
        self.item = item

    def children(self):
        return (self.item,)

    def __repr__(self):
        return "%r*" % (self.item,)


class Plus(Node):
    def __init__(self, item):
        self.item = item

    def children(self):
        return (self.item,)

    def __repr__(self):
        return "%r+" % (self.item,)


class Opt(Node):
    def __init__(self, item):
        self.item = item

    def children(self):
        return (self.item,)

    def __repr__(self):
        return "(%r)" % (self.item,)


class NotPair(Node):
    """Any single pair of the framed alphabet not matching item: \\# is
    every feasible pair.

    item is a single-pair form: an atom, #, \\X, a union of such forms or a
    definition of one.  Anything else is a ParseError when the regex is
    compiled or matched.
    """

    def __init__(self, item):
        self.item = item

    def children(self):
        return (self.item,)

    def __repr__(self):
        return "\\%r" % (self.item,)


class MacroRef(Node):
    def __init__(self, name, target=None):
        self.name = name
        self.target = target  # resolved definition AST

    def children(self):
        return (self.target,) if self.target is not None else ()

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# Tokenizer

PUNCT = "()[]{}|*+-\\_;"
QUOTE = '"'
# the characters that end an identifier
_IDENT_END = WHITESPACE + PUNCT + ":!" + QUOTE


def tokenize(text, extra_ops=()):
    """Whitespace-aware tokens: ('atom', lex, surf) / ('name', n) / ('op', c),
    and the line of each: (tokens, lines).

    An identifier immediately followed by ':' forms the left side of a pair
    atom; ':' immediately followed by an identifier opens a surface-only
    atom.  Identifiers are read by symbols.scan, so '%' escapes the next
    character into one.  Rule files pass extra_ops for the arrow operators
    and get quoted rule names.
    """
    toks, lines = [], []
    i = 0
    n = len(text)
    line = 1

    def emit(tok):
        toks.append(tok)
        lines.append(line)

    def ident(j):
        name, j = scan(text, _IDENT_END, j)
        if name is None:
            raise ParseError("dangling % escape")
        return name, j

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if c == "!":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == QUOTE:
            j = text.find(QUOTE, i + 1)
            if j < 0:
                raise ParseError("unterminated quoted name")
            emit(("rulename", " ".join(text[i + 1 : j].split())))
            line += text.count("\n", i, j)
            i = j + 1
            continue
        matched_op = None
        for op in extra_ops:
            if text.startswith(op, i):
                matched_op = op
                break
        if matched_op:
            emit(("op2", matched_op))
            i += len(matched_op)
            continue
        if c in PUNCT:
            emit(("op", c))
            i += 1
            continue
        if c == ":":
            # surface-only atom ":y"
            name, j = ident(i + 1)
            if not name:
                raise ParseError("':' not followed by a name")
            emit(("atom", None, name))
            i = j
            continue
        name, j = ident(i)
        if not name:
            raise ParseError("unexpected character %r" % c)
        if j < n and text[j] == ":":
            name2, k = ident(j + 1)
            if name2:
                emit(("atom", name, name2))
                i = k
            else:
                emit(("atom", name, None))
                i = j + 1
        else:
            emit(("name", name))
            i = j
    return toks, lines


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, toks, decls):
        self.toks = toks
        self.pos = 0
        self.decls = decls

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression", self.pos)
        self.pos += 1
        return t

    def expect_op(self, c):
        t = self.next()
        if t != ("op", c):
            raise ParseError("expected %r, got %r" % (c, t), self.pos)

    def parse_expr(self):
        items = [self.parse_diff()]
        while self.peek() == ("op", "|"):
            self.next()
            items.append(self.parse_diff())
        return items[0] if len(items) == 1 else Union(items)

    def parse_diff(self):
        node = self.parse_concat()
        while self.peek() == ("op", "-"):
            self.next()
            node = Diff(node, self.parse_concat())
        return node

    def _starts_primary(self, t):
        if t is None:
            return False
        if t[0] in ("atom", "name"):
            return True
        return t in (("op", "("), ("op", "["), ("op", "{"), ("op", "\\"))

    def parse_concat(self):
        items = []
        while self._starts_primary(self.peek()):
            items.append(self.parse_postfix())
        if not items:
            return Epsilon()
        return items[0] if len(items) == 1 else Concat(items)

    def parse_postfix(self):
        node = self.parse_primary()
        while self.peek() in (("op", "*"), ("op", "+")):
            op = self.next()[1]
            node = Star(node) if op == "*" else Plus(node)
        return node

    def parse_primary(self):
        t = self.next()
        if not self._starts_primary(t):
            raise ParseError("unexpected token %r" % (t,), self.pos)
        if t == ("op", "("):
            inner = self.parse_expr()
            self.expect_op(")")
            return Opt(inner)
        if t == ("op", "[") or t == ("op", "{"):
            closing = "]" if t[1] == "[" else "}"
            inner = self.parse_expr()
            self.expect_op(closing)
            return inner
        if t == ("op", "\\"):
            return NotPair(self.parse_primary())
        if t[0] == "atom":
            return Atom(t[1], t[2])
        name = t[1]
        if name == BOUNDARY:
            return Boundary()
        if self.decls is not None and name in self.decls.definitions:
            return MacroRef(name, self.decls.definitions[name])
        # bare set name S: all feasible (x,y) with x in S and y in S;
        # bare symbol x: the identity pair (x,x)
        return Atom(name, name)


@bounded_nesting
def parse_pair_regex(text, decls):
    """Parse a pair regex from text."""
    p = _Parser(tokenize(text)[0], decls)
    node = p.parse_expr()
    if p.peek() is not None:
        raise ParseError("trailing input %r" % (p.peek(),), p.pos)
    return node


# ---------------------------------------------------------------------------
# Denotation and the reference matcher

def regex_key(node):
    """Structural key of a regex AST: node type, atom sides, macro name and
    children.  (Not repr: Opt(a:) and Concat([a:]) both print "(a:)".)"""
    if isinstance(node, Atom):
        return (Atom, node.lex, node.surf)
    head = (MacroRef, node.name) if isinstance(node, MacroRef) else (type(node),)
    return head + tuple(regex_key(c) for c in node.children())


@bounded_nesting
def denote_atom(node, alphabet, decls, allow_empty=False):
    """The set of framed pair ids a single-pair form matches."""
    # Keyed by structure, so that the fresh but equal nodes of a repeated
    # compile find their entries instead of adding new ones.
    key = regex_key(node)
    out = alphabet.denotation_cache.get(key)
    if out is None:
        out = alphabet.denotation_cache[key] = _pair_set(node, alphabet, decls)
    if not out and not allow_empty:
        raise EmptyAtom("atom %r matches no feasible pair" % node)
    return out


def _pair_set(node, alphabet, decls):
    """Framed ids of an atom, #, \\X, a union of single-pair forms or a
    definition of one; the full wildcard spans the boundary pair too."""
    if isinstance(node, MacroRef):
        return _pair_set(node.target, alphabet, decls)
    if isinstance(node, Boundary):
        return frozenset([alphabet.frame_id])
    if isinstance(node, NotPair):
        return frozenset(range(alphabet.frame_id + 1)) - _pair_set(node.item, alphabet, decls)
    if isinstance(node, Union):
        return frozenset().union(*(_pair_set(item, alphabet, decls) for item in node.items))
    if not isinstance(node, Atom):
        raise ParseError("\\ applies to single-pair denotations only, got %r" % node)
    lexnames = side_names(node.lex, decls)
    surfnames = side_names(node.surf, decls)
    if lexnames is None and surfnames is None:
        return frozenset(range(alphabet.frame_id + 1))
    return frozenset(i for i, (lex, surf) in enumerate(alphabet.pairs)
                     if (lexnames is None or lex.name in lexnames)
                     and (surfnames is None or surf.name in surfnames))


def match_ends(node, pairs, start, alphabet, decls, memo):
    """All end offsets j such that pairs[start:j] is in L(node).

    This is the reference matcher the compiled automata are checked against;
    it works directly on the AST and stays independent of any DFA machinery.
    """
    key = (id(node), start)
    got = memo.get(key)
    if got is not None:
        return got
    memo[key] = frozenset()  # cycle guard for degenerate star nesting

    if isinstance(node, MacroRef):
        res = match_ends(node.target, pairs, start, alphabet, decls, memo)
    elif isinstance(node, Epsilon):
        res = frozenset([start])
    elif isinstance(node, (Atom, Boundary, NotPair)):
        ids = denote_atom(node, alphabet, decls, allow_empty=True)
        if start < len(pairs) and pairs[start] in ids:
            res = frozenset([start + 1])
        else:
            res = frozenset()
    elif isinstance(node, Opt):
        res = frozenset([start]) | match_ends(node.item, pairs, start, alphabet, decls, memo)
    elif isinstance(node, Union):
        res = frozenset().union(
            *(match_ends(it, pairs, start, alphabet, decls, memo) for it in node.items)
        )
    elif isinstance(node, Diff):
        res = match_ends(node.left, pairs, start, alphabet, decls, memo) - match_ends(
            node.right, pairs, start, alphabet, decls, memo
        )
    elif isinstance(node, Concat):
        starts = {start}
        for item in node.items:
            nxt = set()
            for s in starts:
                nxt |= match_ends(item, pairs, s, alphabet, decls, memo)
            starts = nxt
            if not starts:
                break
        res = frozenset(starts)
    elif isinstance(node, (Star, Plus)):
        seen = set()
        frontier = {start}
        while frontier:
            nxt = set()
            for s in frontier:
                for e in match_ends(node.item, pairs, s, alphabet, decls, memo):
                    if e not in seen:
                        seen.add(e)
                        nxt.add(e)
            frontier = nxt
        if isinstance(node, Star):
            seen.add(start)
        res = frozenset(seen)
    else:
        raise TypeError("unknown node %r" % node)
    memo[key] = res
    return res


def match(node, pairs, alphabet, decls):
    """True iff the whole pair-id sequence is in L(node)."""
    memo = {}
    return len(pairs) in match_ends(node, tuple(pairs), 0, alphabet, decls, memo)
