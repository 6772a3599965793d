"""Bidirectional runtime: analyze surface words, generate surface forms.

The analyzer walks the lexicon trie and all rule automata in parallel over
feasible pairs.  run_tables rejects insertion pairs (0:y), so every
move reads a lexical symbol; analyze walks deletions (x:0) and continuation
jumps once per state and character (ε-closures), cutting their loops (_walk).
A runtime is built from a description's run tables alone (run_tables):
plain ints, strings, tuples, lists, dicts and frozensets, which the bundled
description ships marshalled.  The lexicon composed with the rules is
walked once, by the first runtime built from tables without the walk
(_Runtime.walk), which stores the result in them, and the search takes no
move into a state from which no final state can be reached.  The result
holds the rule-vector transitions that the walk stepped, so the search
steps no rule automaton.  This module imports no compiler module: only
compile_description does, when it runs.
"""

import threading
import unicodedata

NULL = "0"        # symbols.NULL, the empty side of a pair
TERMINAL = "#"    # the continuation that ends a lexicon path
ROOT = "Root"     # the sublexicon where every lexicon path starts


class TokenError(ValueError):
    pass


class MorphotacticsError(ValueError):
    def __init__(self, message, tag=None):
        super().__init__(message)
        self.tag = tag


class DescriptionError(ValueError):
    pass


class _Record:
    """A plain class with __slots__ that compares and shows itself as a
    dataclass of its slots would: equal to an object of its own class
    with equal slots, unhashable, and shown as Name(slot=value, ...)."""
    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self.__slots__]
                == [getattr(other, name) for name in self.__slots__])

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class Analysis(_Record):
    __slots__ = ("lexical", "gloss", "pairs")

    def __init__(self, lexical, gloss, pairs):
        self.lexical = lexical
        self.gloss = gloss
        self.pairs = pairs      # pair ids, unframed


class TraceStep(_Record):
    __slots__ = ("position", "pair", "died")

    def __init__(self, position, pair, died):
        self.position = position
        self.pair = pair
        self.died = died        # rule names whose automaton rejected here


class Verdict(_Record):
    """The outcome of running rule automata over a pair string: blockers
    are (rule name, position, pair name)."""
    __slots__ = ("accepted", "blockers")

    def __init__(self, accepted, blockers=None):
        self.accepted = accepted
        self.blockers = [] if blockers is None else blockers


class TraceReport:
    """trace's answer: outcome, a Verdict; layer, the layer that
    stopped the word (lexicon | rules, none when it passes); and steps, a
    TraceStep per pair that kills a rule vector in the observed search, in
    visiting order.  Given a function for steps, the report calls it on the
    first read of steps, then lets it go with what it holds.  Threads that
    race build equal lists, and each publishes its whole list in one
    assignment before it drops the function."""
    __slots__ = ("_steps", "_build", "outcome", "layer")

    def __init__(self, steps, outcome, layer="lexicon"):
        self._build = steps if callable(steps) else None
        self._steps = None if self._build else steps
        self.outcome = outcome
        self.layer = layer

    @property
    def steps(self):
        steps = self._steps
        if steps is None:
            build = self._build
            if build is None:
                # another thread has published its list since the first read
                return self._steps
            steps = self._steps = build()
            self._build = None
        return steps

    def __eq__(self, other):
        if other.__class__ is not TraceReport:
            return NotImplemented
        return (self.steps, self.outcome, self.layer) == (other.steps, other.outcome, other.layer)

    def __repr__(self):
        return "TraceReport(steps=%r, outcome=%r, layer=%r)" % (self.steps, self.outcome,
                                                                 self.layer)

    def blocking_rules(self):
        return [name for name, _, _ in self.outcome.blockers]


# The parts a compile produces, which no run-path function reads.
_PARTS = ("declarations", "alphabet", "rule_automata", "ground_rules", "lexicon")
_parts_lock = threading.Lock()


class Description(_Record):
    """A compiled description: its compile-time parts (_PARTS) and its run
    tables (run_tables), from which its search runtime (runtime()) is
    built; a pickle leaves the runtime out.  A Description made with the
    parts gets its tables from its first runtime, and one made from
    tables (from_tables) gets its parts on the first read of any of them,
    from the Description that its `source` function compiles, once even
    when several threads read them first at the same time."""
    __slots__ = _PARTS + ("_runtime", "tables", "_source")

    def __init__(self, declarations, alphabet, rule_automata, ground_rules, lexicon):
        self.declarations = declarations
        self.alphabet = alphabet
        self.rule_automata = rule_automata      # effective parallel constraint set
        self.ground_rules = ground_rules        # where-expanded source rules
        self.lexicon = lexicon
        self._runtime = self.tables = self._source = None

    @classmethod
    def from_tables(cls, tables, source):
        """A Description of run tables, whose parts source() compiles."""
        desc = cls.__new__(cls)
        desc.tables, desc._source, desc._runtime = tables, source, None
        return desc

    def __getattr__(self, name):
        # only an unset slot gets here: a part of a description from_tables
        if name not in _PARTS or self._source is None:
            raise AttributeError(name)
        with _parts_lock:
            if self._source is not None:      # else a thread that raced this one compiled
                compiled = self._source()
                for part in _PARTS:
                    setattr(self, part, getattr(compiled, part))
                self._source = None
        return getattr(self, name)

    # A description whose parts are not compiled yet compares and shows
    # its tables, so that neither == nor repr compiles it.
    def __eq__(self, other):
        if other.__class__ is not Description:
            return NotImplemented
        if self._source is None and other._source is None:
            return _Record.__eq__(self, other)
        return self.tables is not None and self.tables == other.tables

    def __repr__(self):
        if self._source is not None:
            return "Description.from_tables(<run tables of %d automata>)" % len(
                self.tables["automata"])
        return "Description(%s)" % ", ".join("%s=%r" % (name, getattr(self, name))
                                             for name in _PARTS)

    def __getstate__(self):
        # parts not compiled yet stay so
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_runtime" and (name not in _PARTS or self._source is None)}

    def __setstate__(self, state):
        self._runtime = None
        for name, value in state.items():
            setattr(self, name, value)


def compile_description(decls, ground_rules, lexicon, alphabet):
    """Build a Description and its runtime, which checks its parts
    (run_tables) and walks the lexicon composed with the rule automata
    (_Runtime.walk)."""
    from . import rules as rulemod

    automata = rulemod.compile_check_set(ground_rules, alphabet, decls)
    desc = Description(decls, alphabet, automata, ground_rules, lexicon)
    runtime(desc)
    return desc


def run_tables(desc):
    """The run tables of a description's parts, the trie and the walk left
    out: a dict of plain data that holds every table a runtime reads.
        automata  per automaton of the check set: (rule name, the class of
                  each pair id and of the boundary pair, delta, start,
                  finals); delta maps per state a class to the next state,
                  and the end of the word (_END) to the state itself when
                  the boundary pair leads it to a final state
        lexical, surface  per pair id: the names of its two sides
        entries   sublexicon -> its entries, each (form, gloss,
                  continuation), the form a string of lexical symbols
    Equal rows and class maps are one object, which marshal writes once.
    The first runtime built from them adds the trie's tables (_Trie) and
    the walk's (walk).  Every check of the parts runs here first: each pair
    is declared in the ALPHABET and reads a lexical symbol, each continuation
    names a sublexicon (LinkError), and each lexicon symbol has a pair."""
    decls, alphabet, lexicon = desc.declarations, desc.alphabet, desc.lexicon
    names = [(lex.name, surf.name) for lex, surf in alphabet.pairs]
    declared = {(s.name, s.name) for s in decls.identity}
    declared.update((lex.name, surf.name) for lex, surf in decls.declared_pairs)
    undeclared = sorted("%s:%s" % pair for pair in names if pair not in declared)
    if undeclared:
        raise DescriptionError("rule correspondences use undeclared pairs: %s"
                               % ", ".join(undeclared))
    for lex, surf in names:
        if lex == NULL:
            raise DescriptionError(
                "insertion pair 0:%s is unsupported (deletion-only search)" % surf)
    lexicon.validate()
    for entries in lexicon.sublexicons.values():
        for e in entries:
            for sym in e.form:
                if sym not in alphabet.by_lex:
                    raise DescriptionError("lexicon symbol %r has no feasible pair" % sym)
    frame = alphabet.frame_id
    shared = {}
    automata = []
    for ra in desc.rule_automata:
        dfa = ra.dfa
        class_of = tuple(dfa.class_of[:frame + 1])
        delta = [{**row, _END: q} if row.get(class_of[frame]) in dfa.finals else row
                 for q, row in enumerate(dfa.delta)]
        automata.append((ra.name, shared.setdefault(class_of, class_of),
                         [shared.setdefault(tuple(row.items()), row) for row in delta],
                         dfa.start, tuple(sorted(dfa.finals))))
    return {
        "automata": automata,
        "lexical": [lex for lex, _ in names],
        "surface": [surf for _, surf in names],
        "entries": {name: tuple((e.form, e.gloss, e.continuation) for e in entries)
                    for name, entries in lexicon.sublexicons.items()},
    }


# ---------------------------------------------------------------------------
# Runtime structures

class _Trie:
    """The lexicon as one trie per sublexicon, its nodes numbered in one
    sequence; roots maps each sublexicon to its root.  Per node k: arcs[k]
    maps a lexical symbol to the child, complete[k] holds the (gloss,
    continuation) of the entries that end at k, and moves[k] and dels[k]
    are its surface index; gen is validated generate's memo of moves
    (_Runtime.generate_moves).  A move is (lexical symbol, pair id, child,
    consumes), so the tables hold only ints, strings and containers of
    them, which the cyclic collector stops tracking."""
    __slots__ = ("roots", "arcs", "complete", "moves", "dels", "gen")

    def __init__(self, tables, pairs_by_lex, surf, codes):
        if "trie" not in tables:
            self.build(tables["entries"], pairs_by_lex, surf, codes)
            tables["trie"] = (self.roots, self.arcs, self.complete, self.moves, self.dels)
        self.roots, self.arcs, self.complete, self.moves, self.dels = tables["trie"]
        # state * number of pairs + the first pair id of a lexical symbol,
        # or -1 -> {(next state, surface added): None}
        self.gen = {}

    def build(self, entries, pairs_by_lex, surf, codes):
        """The trie's tables, built from the lexicon's entries (run_tables)."""
        self.roots = {}
        self.arcs = []
        self.complete = []
        for name, sub in entries.items():
            root = self.roots[name] = self.add()
            for form, gloss, cont in sub:
                node = root
                for sym in form:
                    nxt = self.arcs[node].get(sym)
                    if nxt is None:
                        nxt = self.arcs[node][sym] = self.add()
                    node = nxt
                self.complete[node] += ((gloss, cont),)
        # Surface index: surface code (codes) -> the moves that can read it,
        # the deletions included, in arcs order then pairs_by_lex order;
        # dels holds the deletions alone.
        self.moves = []
        self.dels = []
        for arcs in self.arcs:
            every = [(sym, pid, child, surf[pid] != NULL)
                     for sym, child in arcs.items() for pid in pairs_by_lex.get(sym, ())]
            self.dels.append(tuple(m for m in every if not m[3]))
            self.moves.append({codes[c]: tuple(m for m in every if not m[3] or surf[m[1]] == c)
                               for c in sorted({surf[m[1]] for m in every if m[3]})})

    def add(self):
        """A new node's number."""
        self.arcs.append({})
        self.complete.append(())
        return len(self.arcs) - 1


class _Table:
    """Interned keys, each with its id (its index in keys) and a memo row
    of transitions (trans[id], filled by the owner); `keys` are interned
    first, in order, each with a copy of its row in `rows` (default: an
    empty one)."""
    __slots__ = ("ids", "keys", "trans")

    def __init__(self, keys=(), rows=()):
        self.load(keys, rows)

    def load(self, keys, rows=()):
        """Drop every key and row, then intern `keys` in order."""
        self.keys = list(keys)
        self.ids = dict(zip(self.keys, range(len(self.keys))))   # key -> id
        self.trans = [dict(row) for row in rows] if rows else [{} for _ in self.keys]

    def intern(self, key, lock):
        """The id of `key`; a new key gets its id and its row under `lock`,
        so that threads that race cannot give one key two ids, or an id
        another key's row."""
        kid = self.ids.get(key)
        if kid is None:
            with lock:
                kid = self.ids.get(key)
                if kid is None:
                    kid = len(self.keys)
                    self.keys.append(key)
                    self.trans.append({})
                    self.ids[key] = kid
        return kid


class _Frontier(_Table):
    """A lazily determinized automaton over interned sets, each the tuple
    of its sorted ints: set id 0 is the empty set and id 1 the start set.
    Per set: surface code -> next set id, where the end of the word (_END)
    leads to the set itself when the word can end there and to 0 when it
    cannot.  The owner supplies step(rt, key, code), the key of the set
    that set `key` reaches on `code`, on _END `key` itself or (); it is
    unbound, so that no reference cycle keeps a runtime alive.
    analyze's subset frontier (_Runtime.frontier) interns the composed
    states (_Runtime.walk) that a word reaches at its start or by a
    consuming move, stepped through their ε-closures (_walk) by
    _Runtime.frontier_step; the rules-off fronts of
    lexicon_covers (_Runtime.covers) intern trie nodes with
    _Runtime.cover_step."""
    __slots__ = ("step",)

    def __init__(self, start, step):
        super().__init__(((), start))
        self.step = step

    def fill(self, sid, code, rt):
        """The id of the set that set sid reaches on `code`, a transition
        that trans[sid] lacks: stepped, interned and memoized there.  Like
        the other memos it is filled without a lock: threads that race
        intern equal sets, so they store equal values."""
        key = self.keys[sid]
        nxt = self.step(rt, key, code)
        nxt = self.trans[sid][code] = sid if nxt is key else self.intern(nxt, rt._lock)
        return nxt


# Rule automata per bundle, in check-set order.  analyze, validated
# generate and generate_from_gloss step no bundle: the walk at compile time
# does, and so do trace and unvalidated generate, which reach vectors off the
# walk.  Against one bundle
# of all 198 Turkish automata, bundles of 16 compiled the description in
# 0.37 s against 0.58 s, ran the golden suite in 77 ms against 170 ms and
# warm trace at 3,600 words/s against 3,250, and pickled to 378 KB against
# 827 KB (medians of six alternating fresh-process pairs, 2-vCPU host).
_BUNDLE = 16
_DEAD = -1
_END = -1         # the end of the word: a code in a _Frontier, a class in a _Bundle


class _Bundle(_Table):
    """A run of consecutive rule automata (run_tables) stepped as one
    lazily built product: interned tuples of their states, and per tuple
    joint class -> next tuple id, or _DEAD when some automaton of the run
    dies.  A pair's joint class (of_pair[pid]) numbers its tuple of
    classes in the run's automata (joint).  The end of the word, pair id
    frame + 1, is class _END of every automaton."""
    __slots__ = ("first", "start", "deltas", "of_pair", "joint")

    def __init__(self, first, automata):
        self.first = first            # check-set index of automata[0]
        self.start = tuple(a[3] for a in automata)
        self.deltas = [a[2] for a in automata]
        joint = {}
        self.of_pair = [joint.setdefault(classes, len(joint)) for classes in
                        [*zip(*(a[1] for a in automata)), (_END,) * len(automata)]]
        self.joint = list(joint)
        super().__init__()            # the tuples of states

    def step(self, bid, c, lock):
        """The id of the tuple that tuple bid reaches on joint class c, or
        _DEAD; memoized in trans[bid].  Like the other memos it is filled
        without a lock: threads that race intern equal tuples."""
        row = self.trans[bid]
        nxt = row.get(c)
        if nxt is None:
            out = []
            for delta, q, k in zip(self.deltas, self.keys[bid], self.joint[c]):
                q = delta[q].get(k)
                if q is None:
                    row[c] = _DEAD
                    return _DEAD
                out.append(q)
            nxt = row[c] = self.intern(tuple(out), lock)
        return nxt


class _Runtime:
    def __init__(self, tables):
        # step_vec's tables: the bundles of the check set, and per pair id (the
        # boundary pair and the end of the word included) its joint class in
        # every bundle.  A rule vector is a tuple of bundle tuple ids, one each.
        automata = tables["automata"]
        self.surf = surf = tables["surface"]
        self.frame_id = len(surf)
        self.end = self.frame_id + 1    # step_vec(vid, end) is vid, or None
        self.bundles = [_Bundle(k, automata[k:k + _BUNDLE])
                        for k in range(0, len(automata), _BUNDLE)]
        self.classes = [tuple(b.of_pair[pid] for b in self.bundles) for pid in range(self.end + 1)]
        self.is_null = [s == NULL for s in surf]
        self.pairs_by_lex = {}
        for pid, lex in enumerate(tables["lexical"]):
            self.pairs_by_lex[lex] = self.pairs_by_lex.get(lex, ()) + (pid,)
        # the boundary pair and the end of the word are both #:#
        self.pair_names = ["%s:%s" % pair for pair in zip(tables["lexical"], surf)] + ["#:#"] * 2
        # a pair id as a character of a path (_walk)
        self.chars = [chr(pid) for pid in range(self.end + 1)]

        self._lock = threading.Lock()
        self.rule_names = [a[0] for a in automata]
        self.rejects = {}         # (vector id, pair id) -> names of rejecting automata

        # Codes of the surface characters for the walk (_walk): 0 stands for the
        # end of the word and for any character that no pair realizes, as
        # both leave the deletions alone.
        chars = sorted({s for s in surf if s != NULL})
        self.codes = {c: k for k, c in enumerate(chars, 1)}
        self.n_codes = len(chars) + 1

        self.trie = _Trie(tables, self.pairs_by_lex, surf, self.codes)
        # The interned rule vectors; every search reads their keys and
        # rows, each in one attribute load.
        self.tables = tables
        self.intern_tables()
        if "rows" not in tables:
            tables.update(self.walk())
            self.intern_tables()

        # Closure tables of the rules-off search (lexicon_covers), filled on
        # first use; at most one per trie node.
        # Like the other memos they are filled without a lock: two threads
        # may compute one table at once, but both results are equal, so
        # either may win.
        self.cover_nodes = {}     # trie node -> node_cover(node)
        root = self.trie.roots[ROOT]
        self.covers = _Frontier((root,), type(self).cover_step)

        # The frontier is its own object rather than five more attributes
        # here: CPython 3.11 reads the attributes of an instance that has
        # 30 or more of them markedly slower, and every search reads this
        # one's.
        self.start = self.init_vec * len(self.trie.arcs) + root   # the composed start state
        self.frontier = _Frontier((self.start,), type(self).frontier_step)
        self.closures = {}        # closure key -> its entries (_closure)
        self.observed = {}        # closure key -> its observed closure (_closure)
        self.glosses = None       # _gloss_tables, built by the first gloss walk
        # what the per-state walk (_walk) reads, in one attribute load
        trie = self.trie
        self.walk_parts = (trie.roots, trie.complete, trie.moves, trie.dels, self.vec_trans,
                           tables["live"], len(trie.arcs), self.chars, self.n_codes + 1)

    def step_vec(self, vid, pid):
        """Step all rule automata, bundle by bundle; None when any of them
        dies.  A bundle steps its own automata only on a miss of its memo."""
        trans = self.vec_trans[vid]
        cached = trans.get(pid, False)
        if cached is not False:
            return cached
        out = []
        for bundle, b, c in zip(self.bundles, self.vec_list[vid], self.classes[pid]):
            nxt = bundle.trans[b].get(c)
            if nxt is None:
                nxt = bundle.step(b, c, self._lock)
            if nxt < 0:
                trans[pid] = None
                return None
            out.append(nxt)
        res = trans[pid] = self.vectors.intern(tuple(out), self._lock)
        return res

    def intern_tables(self):
        """Start the bundle and vector tables afresh from the walk's tables
        (empty before the walk), their keys interned first, so that the
        ids are the ones its live states name, and each vector's
        transitions from a copy of its row, so that what later steps add
        never reaches the run tables; then intern the start vector and step
        it over the opening boundary (init_vec)."""
        tables = self.tables
        for k, bundle in enumerate(self.bundles):
            bundle.load(tables["bundles"][k] if "rows" in tables else ())
        self.vectors = _Table(tables.get("vectors", ()), tables.get("rows", ()))
        self.vec_list = self.vectors.keys
        self.vec_trans = self.vectors.trans
        start = self.vectors.intern(tuple(b.intern(b.start, self._lock) for b in self.bundles),
                                    self._lock)
        self.init_vec = self.step_vec(start, self.frame_id)
        if self.init_vec is None:
            # every automaton compile_rule builds reads the opening
            # boundary, so only a hand-built description gets here
            raise DescriptionError("the opening boundary #:# kills rule(s) %s"
                                   % ", ".join(self.rejecters(start, self.frame_id)))

    def walk(self):
        """The run tables of the lexicon composed with the rule automata:
        the keys of each bundle's tuples (bundles) and of the vectors
        (vectors), the live states (live), the number of composed states
        (composed), the vectors' rows of transitions (rows), and whether a
        cycle of deletions and jumps, an ε-loop, runs through live states
        (eps_loop), as only such a loop can make _readings raise.  A
        composed state is a (trie node, vector id) state that the moves and
        continuation jumps reach from ROOT; it is live when they lead
        from it to a final state, a node that completes an entry with #
        under a vector that accepts the end of the word.  The walk runs
        forward over every composed state, then backward from the final
        ones.  The tables keep the start vector (id 0) and the vectors of
        the live states, and the bundle tuples these hold, in the order the
        walk interned them; a key's id is its index, and a state is the int
        vid * (number of trie nodes) + node.  A vector's row maps, in pair
        id order, each pair that the walk stepped it on into a kept vector
        to that vector, and the end of the word to the vector itself or
        None.  No runtime writes to a row: intern_tables copies them."""
        trie, step_vec = self.trie, self.step_vec
        roots, complete, n = trie.roots, trie.complete, len(trie.arcs)
        seen = {self.init_vec * n + roots[ROOT]}
        stack = list(seen)
        into = {}         # state -> the states with a move or a jump into it
        eps = {}          # state -> the states its jumps and deletions lead to
        live = set()      # the final states, then every state that reaches one
        while stack:
            state = stack.pop()
            vid, node = divmod(state, n)
            reached = [state - node + roots[cont] for _, cont in complete[node] if cont != TERMINAL]
            nulls = eps[state] = reached[:]
            if (any(cont == TERMINAL for _, cont in complete[node])
                    and step_vec(vid, self.end) is not None):
                live.add(state)
            for sym, child in trie.arcs[node].items():
                for pid in self.pairs_by_lex[sym]:
                    nvid = step_vec(vid, pid)
                    if nvid is not None:
                        reached.append(nvid * n + child)
                        if self.is_null[pid]:
                            nulls.append(nvid * n + child)
            for nxt in reached:
                into.setdefault(nxt, []).append(state)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        stack = list(live)
        while stack:
            for state in into.get(stack.pop(), ()):
                if state not in live:
                    live.add(state)
                    stack.append(state)
        # Kahn's algorithm over the ε-edges between live states: it removes
        # every live state exactly when none lies on an ε-loop
        eps = {state: [nxt for nxt in eps[state] if nxt in live] for state in live}
        indegree = dict.fromkeys(live, 0)
        for nxt in [nxt for nexts in eps.values() for nxt in nexts]:
            indegree[nxt] += 1
        stack = [state for state, d in indegree.items() if not d]
        for state in stack:
            for nxt in eps[state]:
                indegree[nxt] -= 1
                if not indegree[nxt]:
                    stack.append(nxt)
        # renumber the vectors kept and their bundle tuples in order
        vids = sorted({0}.union(state // n for state in live))
        columns = []
        bundle_keys = []
        for k, bundle in enumerate(self.bundles):
            bids = sorted({self.vec_list[vid][k] for vid in vids})
            new = dict(zip(bids, range(len(bids))))
            bundle_keys.append([bundle.keys[b] for b in bids])
            columns.append([new[self.vec_list[vid][k]] for vid in vids])
        new = dict(zip(vids, range(len(vids))))
        rows = tuple(dict(sorted((pid, new.get(nvid)) for pid, nvid in self.vec_trans[vid].items()
                                 if nvid in new or pid == self.end))
                     for vid in vids)
        return {"bundles": bundle_keys, "vectors": list(zip(*columns)),
                "live": frozenset(new[state // n] * n + state % n for state in live),
                "composed": len(seen), "rows": rows, "eps_loop": len(stack) < len(live)}

    def generate_moves(self, state, sym):
        """Validated generate's step of composed state `state` (walk) on
        lexical symbol sym: {(next state, surface added): None}, the next
        states closed under continuation jumps and kept only when live;
        memoized in trie.gen under state * frame_id + the symbol's first
        pair id.  Given sym None, the start of the word: the start state
        with "", under key -1.  As in _walk, no
        automaton is stepped: generate visits only live states, so a pair
        that a kept vector's row lacks leads into a state that is not live.
        Unlike a tuple of tuples, a dict row is untracked by the first full
        collection, which untracks dicts after all tuples.  Filled without
        a lock, as the other memos are."""
        trie, live = self.trie, self.tables["live"]
        roots, complete, n_nodes = trie.roots, trie.complete, len(trie.arcs)
        if sym is None:
            key, steps = -1, [(self.start, "")]
        else:
            vid, node = divmod(state, n_nodes)
            child, trans = trie.arcs[node].get(sym), self.vec_trans[vid]
            pids = self.pairs_by_lex[sym]
            key = state * self.frame_id + pids[0]
            steps = [] if child is None else [
                (trans[pid] * n_nodes + child, "" if self.is_null[pid] else self.surf[pid])
                for pid in pids if trans.get(pid) is not None]
        moves = [step for step in steps if step[0] in live]
        for nxt, added in moves:
            node = nxt % n_nodes
            for _, cont in complete[node]:
                if cont != TERMINAL:
                    step = (nxt - node + roots[cont], added)
                    if step[0] in live and step not in moves:
                        moves.append(step)
        moves = trie.gen[key] = dict.fromkeys(moves)
        return moves

    def frontier_step(self, key, code):
        """The step of analyze's subset frontier (_Frontier): the states
        after a consuming move that the ε-closures (_closure) of set `key`'s
        states lead to on surface code `code`; on _END, `key` when one of
        them completes, else ().  The search that found no reading has just
        built these closures but those that cut a loop."""
        get, k = self.closures.get, self.n_codes + 1
        codes, n = [max(code, 0)], int(code != _END)
        states = set()
        for state in key:
            entries = get(state * k + code + 1)
            if entries is None:
                entries = _closure(self, codes, n, 0, state * k + code + 1, {})
            if code == _END and entries:
                return key
            states.update(e[0] // k for e in entries)
        return () if code == _END else tuple(sorted(states))

    def cache_sizes(self):
        """The sizes of the runtime's tables by name, in the order analyze
        --stats prints them: the keys and the transitions of each _Table,
        the keys and entries of the two closure memos (_closure), validated
        generate's moves, the keys and rows of the gloss closures
        (_gloss_closure), and the composed and live states (walk)."""
        def keys(*tables):
            return sum(len(t.keys) for t in tables)

        def rows(*tables):
            return sum(len(row) for t in tables for row in t.trans)

        glosses = self.glosses[0] if self.glosses else {}
        return {"interned vectors": keys(self.vectors),
                "vector transitions": rows(self.vectors),
                "closure keys": len(self.closures),
                "closure entries": sum(map(len, self.closures.values())),
                "observed closure keys": len(self.observed),
                "observed closure entries": sum(map(len, self.observed.values())),
                "generate moves": len(self.trie.gen),
                "gloss closure keys": sum(map(len, glosses.values())),
                "gloss closure rows": sum(len(c) for m in glosses.values() for c in m.values()),
                "frontier sets": keys(self.frontier),
                "frontier transitions": rows(self.frontier),
                "rules-off fronts": keys(self.covers),
                "rules-off transitions": rows(self.covers),
                "bundle states": keys(*self.bundles),
                "bundle transitions": rows(*self.bundles),
                "composed states": self.tables["composed"],
                "live states": len(self.tables["live"])}

    def rejecters(self, vid, pid):
        """Names of the rule automata that reject pair pid (the end of the
        word included) from vector vid, in automaton order; memoized.  Only the bundles whose step dies are
        read automaton by automaton."""
        names = self.rejects.get((vid, pid))
        if names is None:
            names = self.rejects[vid, pid] = tuple(
                self.rule_names[bundle.first + k]
                for bundle, b, c in zip(self.bundles, self.vec_list[vid], self.classes[pid])
                if bundle.step(b, c, self._lock) < 0
                for k, (delta, q, cls) in enumerate(zip(bundle.deltas, bundle.keys[b],
                                                        bundle.joint[c]))
                if cls not in delta[q])
        return names

    def node_cover(self, node):
        """The rules-off table of a trie node, over the nodes its deletion
        moves reach (itself included): surface code -> the children their
        consuming moves reach, and _END -> the continuation classes they
        complete, # among them when a path ends there; memoized.  The table
        is a dict of tuples of ints or strings, so a full collection
        untracks it."""
        table = self.cover_nodes.get(node)
        if table is None:
            trie = self.trie
            # A trie node has one parent, so neither list repeats a node.
            closure = [node]
            for k in closure:
                closure.extend(m[2] for m in trie.dels[k])
            steps = {_END: {}}    # the classes as keys, each once, in order
            for k in closure:
                for code, moves in trie.moves[k].items():
                    steps.setdefault(code, []).extend([m[2] for m in moves if m[3]])
                steps[_END].update(dict.fromkeys(cont for _, cont in trie.complete[k]))
            table = self.cover_nodes[node] = {code: tuple(v) for code, v in steps.items()}
        return table

    def cover_tables(self, front):
        """The node tables that a rules-off front reads: those of its
        nodes, then those of the roots of the continuation classes that
        these tables complete, transitively, each class once."""
        node_tables, node_cover, roots = self.cover_nodes, self.node_cover, self.trie.roots
        nodes = list(front)
        seen = {TERMINAL}
        for node in nodes:
            table = node_tables.get(node) or node_cover(node)
            yield table
            for cls in table[_END]:
                if cls not in seen:
                    seen.add(cls)
                    nodes.append(roots[cls])

    def cover_step(self, front, code):
        """The step of the rules-off fronts (_Frontier): the children of the
        consuming moves on surface code `code` in the node tables that
        `front` reads (cover_tables); on _END, `front` when a lexicon path
        ends in one of them, else ()."""
        if code == _END:
            return front if any(TERMINAL in table[_END] for table in self.cover_tables(front)) else ()
        nxt = set()
        for table in self.cover_tables(front):
            if code in table:
                nxt.update(table[code])
        return tuple(sorted(nxt))


_runtime_lock = threading.Lock()


def runtime(desc):
    """The search runtime of a description, built from its run tables once
    even when several threads ask for it first at the same time; a
    description without tables gets them from its parts (run_tables)."""
    rt = desc._runtime
    if rt is None:
        with _runtime_lock:
            rt = desc._runtime
            if rt is None:
                if desc.tables is None:
                    desc.tables = run_tables(desc)
                rt = desc._runtime = _Runtime(desc.tables)
    return rt


# ---------------------------------------------------------------------------
# Analysis

def analyze(surface, desc, _first=False):
    """All analyses of a surface word: lexicon path + all rules + exact
    surface match.  Deterministic order, duplicates merged.

    The word is first walked through the runtime's subset frontier, the
    sets of states reachable on the surface prefixes of earlier words
    without a reading: when the walk empties or ends in a set that cannot
    end the word, there is no reading and no search is run.  Every word
    with a reading is found by the search; for trace's verdict (_first)
    it returns True at the first one when the walk recorded no ε-loop."""
    surface = unicodedata.normalize("NFC", surface)
    rt = runtime(desc)
    n = len(surface)
    codes = [rt.codes.get(c, 0) for c in surface]

    fr, sid, i = rt.frontier, 1, 0
    trans = fr.trans
    while i < n:
        nxt = trans[sid].get(codes[i])
        if nxt is None:
            break
        if not nxt:
            return []
        sid = nxt
        i += 1
    else:
        if trans[sid].get(_END) == 0:
            return []

    codes.append(0)
    results = _search(rt, codes, n, _first and rt.tables.get("eps_loop") is False)
    if results is True:
        return results
    if not results:
        # its search has built the closures of the sets' states, none of which closes the word
        for code in codes[i:n] + [_END]:
            nxt = trans[sid].get(code)
            sid = fr.fill(sid, code, rt) if nxt is None else nxt
            if not sid:
                break
    return [Analysis(lex, gloss, results[lex, gloss]) for lex, gloss in sorted(results)]


def _search(rt, codes, n, first=False):
    """analyze's search of a word, `codes` its surface codes and a final 0:
    (lexical, gloss) -> the pair ids of the first path found (`first`:
    True at the first # completion).  It runs depth first over the
    ε-closures (_closure) of the states reached at the start or by a
    consuming move, in the per-state walk's order, on a stack of (closure
    key base of the state, position, path, glosses)."""
    ends, loops = {}, {}
    get, k = rt.closures.get, rt.n_codes + 1
    stack = [(rt.start * k + 1, 0, "", "")]
    pop, push = stack.pop, stack.append
    while stack:
        base, at, prefix, glossed = pop()
        while True:
            key = base - 1 if at == n else base + codes[at]
            entries = get(key)
            if entries is None:
                entries = _closure(rt, codes, n, at, key, loops)
            if at == n:
                if first and entries:
                    return True
                for path, gloss in entries:
                    ends[prefix + path, glossed + gloss] = None
                break
            if not entries:
                break
            # the first entry is taken at once, the others wait
            if len(entries) > 1:
                for entry in entries[:0:-1]:
                    push((entry[0], at + 1, prefix + entry[2], glossed + entry[1]))
            base, gloss, path = entries[0]
            at += 1
            prefix += path
            glossed += gloss
    return _readings(rt, codes, n, ends, loops)


def _walk(rt, codes, n, observe, stack, stop=None, noted=None):
    """The one per-state walk, depth first in the order of a recursive
    search, on a stack of (trie node, vector id, position, path, glosses,
    jumps since the last consuming move), from the items of `stack`.  A
    path is the string of its pair ids (rt.chars).  The walk takes the
    moves into live states (_Runtime.walk stepped every move of a live
    state), or, given `observe`, those that `observe(node, vid, i)` returns,
    and runs to the end of the word or to position `stop`.  A jump into a
    (sublexicon, vector id) jumped into since the last consuming move
    closes a loop, which is cut: exactly when it added nothing (_readings).
    Returns the # completions at the end of the word, {(path, gloss):
    None}; `noted` (a new list by default) with the consuming moves into
    position `stop` appended, each as (closure key base of its state,
    glosses, path); and the state (sublexicon, vector id, position) of each
    cut loop that added something."""
    found, loops, noted = {}, {}, [] if noted is None else noted
    root_of, completes, arcs, dels, vec_trans, live_states, n_nodes, chars, k = rt.walk_parts
    pop, push = stack.pop, stack.append
    while stack:
        node, vid, i, path, glosses, jumps = pop()
        while True:
            if i == stop:
                noted.append(((vid * n_nodes + node) * k + 1, glosses, path))
                break
            if observe is None:
                trans = vec_trans[vid]
                live = []
                for move in arcs[node].get(codes[i], dels[node]):
                    nvid = trans.get(move[1])
                    if nvid is not None and nvid * n_nodes + move[2] in live_states:
                        live.append(move + (nvid, chars[move[1]]))
            else:
                live = observe(node, vid, i)
            if completes[node]:
                # the jumps come before the moves: all wait on the stack
                for move in reversed(live):
                    push((move[2], move[4], i + move[3], path + move[5], glosses,
                          None if move[3] else jumps))
                # a reading found here cannot also be found below a jump
                # with other pairs, as every move adds a lexical symbol
                for gloss, cont in reversed(completes[node]):
                    if cont != TERMINAL:
                        jumped = glosses + gloss
                        rest = jumps
                        while rest is not None and (rest[0][0] != cont or rest[0][1] != vid):
                            rest = rest[1]
                        if rest is None:
                            push((root_of[cont], vid, i, path, jumped,
                                  ((cont, vid, path, jumped), jumps)))
                        elif rest[0][2] is not path or rest[0][3] != jumped:
                            loops[cont, vid, i] = None
                    elif i == n and rt.step_vec(vid, rt.end) is not None:
                        found[path, glosses + gloss] = None
                break
            if not live:
                break
            # the first move is taken at once (most states have at most
            # one), the others wait on the stack
            if len(live) > 1:
                for move in live[:0:-1]:
                    push((move[2], move[4], i + move[3], path + move[5], glosses,
                          None if move[3] else jumps))
            move = live[0]
            node = move[2]
            vid = move[4]
            path += move[5]
            if move[3]:
                i += 1
                jumps = None
    return found, noted, loops


def _closure(rt, codes, n, at, key, loops, observe=None, out=None):
    """The ε-closure of closure key `key` at position `at` of a word,
    `codes` its surface codes: what the per-state walk (_walk) from
    composed state key // (n_codes + 1) alone reaches without reading a
    character, in its order, each consuming move as (closure key base of
    its state, glosses, path) and at the end of the word each # completion
    as (path, gloss).  rt.closures keeps it unless the walk cut a loop that
    added something, which goes into `loops` instead, so that every search
    meets the loop.  Given trace's observer and the list `out` it fills
    (_observe), rt.observed keeps the observed walk's closure: one flat
    tuple of runs of events with a consuming move after each but the last,
    a run as its largest offset (-1 if none), its length, then offset from
    `at`, vector id, pair id per event, and the # completions at the end."""
    state, n_nodes = key // (rt.n_codes + 1), len(rt.trie.arcs)
    found, noted, cut = _walk(rt, codes, n, observe,
                              [(state % n_nodes, state // n_nodes, at, "", "", None)], at + 1, out)
    if observe is None:
        memo, entries = rt.closures, tuple(found) if at == n else tuple(noted)
    else:
        memo, entries, run = rt.observed, (), []
        for item in noted + [sum(found, ())]:
            if item.__class__ is tuple:     # a consuming move, or the completions last
                entries += (max(run[::3], default=-1), len(run), *run, *item)
                run = []
            else:
                run.append(item)
        noted.clear()
    if cut:
        loops.update(cut)
    else:
        memo[key] = entries
    return entries


def _readings(rt, codes, n, ends, loops):
    """The readings of the # completions `ends` of a word's walk, (lexical,
    gloss) -> the pair ids of the first path found.  A cut loop that added
    something can run any number of times before each reading through its
    state, so DescriptionError names its sublexicon when the walk from that
    state alone, the jump into it taken, finds a reading."""
    results, lexical = {}, rt.tables["lexical"]
    for path, gloss in ends:
        reading = (path.translate(lexical), gloss)
        if reading not in results:
            results[reading] = tuple(map(ord, path))
    if results:
        for cont, vid, i in loops:
            start = (rt.trie.roots[cont], vid, i, "", "", ((cont, vid, "", ""), None))
            if _walk(rt, codes, n, None, [start])[0]:
                raise DescriptionError("sublexicon %s is re-entered by a loop that reads no"
                                       " surface character but adds symbols or glosses" % cont)
    return results


# ---------------------------------------------------------------------------
# Generation

def tokenize_lexical(text, by_lex):
    """The lexical symbols of `text`; by_lex holds every lexical symbol
    (a runtime's pairs_by_lex or a PairAlphabet's by_lex)."""
    syms = []
    for ch in unicodedata.normalize("NFC", text):
        if ch not in by_lex:
            raise TokenError("unknown lexical symbol %r" % ch)
        syms.append(ch)
    return syms


def generate(lexical, desc, validate_morphotactics=False):
    """All surface realizations of a lexical string; 0-erasure applied,
    duplicates removed, sorted.  Validated, only those of a string that
    spells a lexicon path, found in one walk of the trimmed composition
    along it: a frontier {(composed state, surface prefix): None} from the
    start state, stepped a symbol at a time (_Runtime.generate_moves),
    which steps no automaton and interns no vector."""
    rt = runtime(desc)
    syms = tokenize_lexical(lexical, rt.pairs_by_lex)
    if not validate_morphotactics:
        return sorted({prefix for _, prefix in _realize(rt, syms)})
    trie = rt.trie
    memo, frame, pairs_by_lex, n_nodes = trie.gen, rt.frame_id, rt.pairs_by_lex, len(trie.arcs)
    frontier = memo.get(-1)
    if frontier is None:
        frontier = rt.generate_moves(None, None)
    for sym in syms:
        first = pairs_by_lex[sym][0]
        nxt = {}
        for state, prefix in frontier:
            moves = memo.get(state * frame + first)
            if moves is None:
                moves = rt.generate_moves(state, sym)
            for nstate, added in moves:
                nxt[nstate, prefix + added] = None
        if not nxt:
            return []
        frontier = nxt
    complete, vec_trans, end = trie.complete, rt.vec_trans, rt.end
    # the walk stepped the vector of each live state that completes # on
    # the end of the word
    return sorted({prefix for state, prefix in frontier
                   if any(cont == TERMINAL for _, cont in complete[state % n_nodes])
                   and vec_trans[state // n_nodes].get(end) is not None})


def _realize(rt, syms, dead=None):
    """The end of unvalidated generate and of trace's generate direction:
    the states (vector id, surface prefix) after the lexical symbols syms
    whose vector accepts the end of the word.  Each pair pid that kills
    vector vid at symbol index k is appended to the list `dead` as (k,
    vid, pid), then each vector that rejects the end, once, as (len(syms),
    vid, rt.end).  The symbols need not spell a lexicon path, so a vector
    may leave the walked composition: its row is read inline, and step_vec
    runs for a pair that the row lacks."""
    step_vec, vec_trans = rt.step_vec, rt.vec_trans
    is_null = rt.is_null
    surf = rt.surf
    frontier = {(rt.init_vec, ""): None}
    for k, sym in enumerate(syms):
        pids = rt.pairs_by_lex[sym]
        nxt = {}
        for vid, prefix in frontier:
            trans = vec_trans[vid]
            for pid in pids:
                nvid = trans.get(pid, False)
                if nvid is False:
                    nvid = step_vec(vid, pid)
                if nvid is not None:
                    nxt[nvid, prefix if is_null[pid] else prefix + surf[pid]] = None
                elif dead is not None:
                    dead.append((k, vid, pid))
        frontier = nxt
    ends = {vid: step_vec(vid, rt.end) is not None for vid, _ in frontier}
    if dead is not None:
        dead.extend((len(syms), vid, rt.end) for vid, ends_word in ends.items() if not ends_word)
    return [state for state in frontier if ends[state[0]]]


def is_lexicon_path(lexical, desc):
    """True when the lexical symbol string spells a root-to-# lexicon path."""
    lexical = unicodedata.normalize("NFC", lexical)
    rt = runtime(desc)
    trie = rt.trie
    n = len(lexical)
    # Depth first: follow the arcs, stacking (sublexicon, position) for each
    # continuation passed on the way.  Only trie roots are reached in more
    # than one way, so walking from each (sublexicon, position) once visits
    # every (trie node, position) at most once, continuation cycles included.
    stack = [(ROOT, 0)]
    seen = set()
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        name, i = state
        node = trie.roots[name]
        while node is not None:
            if trie.complete[node]:
                for gloss, cont in trie.complete[node]:
                    if cont == TERMINAL:
                        if i == n:
                            return True
                    else:
                        stack.append((cont, i))
            if i == n:
                break
            node = trie.arcs[node].get(lexical[i])
            i += 1
    return False


def _gloss_tables(rt):
    """rt.glosses, built by the first gloss walk (threads that race build
    equal ones): the memo of gloss closures, per gloss that an entry
    carries ("" for the end of a path) a dict state -> closure
    (_gloss_closure), and per sublexicon trie root its name and entries."""
    entries, roots = rt.tables["entries"], rt.trie.roots
    memo = {gloss: {} for sub in entries.values() for _, gloss, _ in sub}
    memo[""] = {}
    rt.glosses = memo, {roots[name]: (name, sub) for name, sub in entries.items()}
    return rt.glosses


def _gloss_closure(rt, state, want, k, closures, loops):
    """The gloss closure of `state`, a composed state (walk) at a
    sublexicon's trie root or the root under vid -1 (rules off), for gloss
    `want` at gloss index k: every path of gloss-less entries from the
    sublexicon, then one entry glossed `want` ("": a gloss-less entry to
    #), as {row: None}, each row a flat tuple (continuation, next state,
    lexical added, surface added).  From a vector a path is realized
    through the vector rows alone, keeping live states, so no automaton is
    stepped; the next state is the continuation's root, or at # the
    entry's end, under each vector that reaches it live or, at #, accepts
    the end of the word.  A path whose realizations all die goes on under
    vid -1, so every lexical path gives a row and what the rows place
    depends on the lexicon alone.  A path that re-enters a sublexicon it
    entered in the closure closes a loop, which is cut: exactly when the
    loop added no text.  `closures` keeps the closure unless it cut one
    that did, whose (sublexicon, k) goes into `loops` instead, as in
    _closure.  Threads that race store equal closures."""
    subs, trie, vec_trans, live = rt.glosses[1], rt.trie, rt.vec_trans, rt.tables["live"]
    arcs, roots, n_nodes, surf, is_null = trie.arcs, trie.roots, len(trie.arcs), rt.surf, rt.is_null
    vid, node = divmod(state, n_nodes)
    rows, cut = {}, []
    # (sublexicon root, (vector id, surface added) states, [] when rules
    # off, lexical added, the ((root, lexical), rest) list of those entered)
    stack = [(node, [(vid, "")] if vid >= 0 else [], "", None)]
    while stack:
        node, states, lexical, entered = stack.pop()
        name, entries = subs[node]
        rest = entered
        while rest is not None and rest[0][0] != node:
            rest = rest[1]
        if rest is not None:
            if rest[0][1] != lexical:
                cut.append(name)
            continue
        entered = ((node, lexical), entered)
        for form, gloss, cont in entries:
            link = not gloss and cont != TERMINAL
            if not link and gloss != want:
                continue
            at, after = node, states
            for sym in form:
                at, pids, nxt = arcs[at][sym], rt.pairs_by_lex[sym], {}
                for v, added in after:
                    trans = vec_trans[v]
                    for pid in pids:
                        nv = trans.get(pid)
                        if nv is not None and nv * n_nodes + at in live:
                            nxt[nv, added if is_null[pid] else added + surf[pid]] = None
                after = list(nxt)
            if cont == TERMINAL:
                # the walk stepped every live state that completes # on the end
                target, after = at, [s for s in after if vec_trans[s[0]].get(rt.end) is not None]
            else:
                target = roots[cont]
                after = [s for s in after if s[0] * n_nodes + target in live]
            if link:
                stack.append((target, after, lexical + form, entered))
            else:
                for v, added in after or [(-1, "")]:
                    rows[cont, v * n_nodes + target, lexical + form, added] = None
    if cut:
        loops.update(dict.fromkeys((name, k) for name in cut))
    else:
        closures[state] = rows
    return rows


def _gloss_walk(rt, wants, items, k, paths):
    """The gloss paths from the items {(state, text): None} at gloss index
    k, `wants` the glosses and "" for the end: per index, one memo lookup
    of each item's gloss closure (_gloss_closure), whose rows step it.  A
    text is the lexical string (`paths`, from rules-off states) or the
    surface prefix.  Returns the texts at # ({text: None}; surfaces only
    under a vector that accepts the end of the word), whether a path
    reaches # with every gloss placed, the last index whose gloss an entry
    placed (-1 if none), and the (sublexicon, index) of each cut loop that
    added text."""
    memo = (rt.glosses or _gloss_tables(rt))[0]
    last = len(wants) - 2
    best, found, out, loops = -1, False, {}, {}
    for k in range(k, len(wants)):
        closures = memo.get(wants[k])
        if closures is None:        # no entry carries the gloss
            break
        nxt = {}
        for state, text in items:
            rows = closures.get(state)
            if rows is None:
                rows = _gloss_closure(rt, state, wants[k], k, closures, loops)
            if rows:        # at the end, rows are paths found
                best = k
            for cont, nstate, lexical, added in rows:
                if cont != TERMINAL:
                    nxt[nstate, text + (lexical if paths else added)] = None
                elif k >= last:     # an entry to # with a gloss left ends no path
                    found = True
                    if paths or nstate >= 0:
                        out[text + (lexical if paths else added)] = None
        if not nxt:
            break
        items = nxt
    return out, found, best, loops


def _gloss_outputs(rt, root, tags, paths):
    """gloss_paths (`paths`) or generate_from_gloss: the sorted texts of
    the gloss walk from ROOT, where every lexicon path starts.
    A cut loop that added text can run any number of times before each
    path through its state, so DescriptionError names its sublexicon when
    a walk from that state alone, rules off, finds a path."""
    wants = ["[ROOT=%s]" % root] + ["+" + tag for tag in tags] + [""]
    live, n_nodes = rt.tables["live"], len(rt.trie.arcs)
    start = rt.start if rt.start in live and not paths else rt.start % n_nodes - n_nodes
    out, found, best, loops = _gloss_walk(rt, wants, {(start, ""): None}, 0, paths)
    if not found:
        if best < 0:
            raise MorphotacticsError("no morphotactic path places root %r" % root, tag=None)
        bad = tags[best] if best < len(tags) else (tags[-1] if tags else "#")
        raise MorphotacticsError("no morphotactic path for %s + %s (stuck at %r)"
                                 % (root, "+".join(tags), bad), tag=bad)
    for name, k in loops:
        if _gloss_walk(rt, wants, {(rt.trie.roots[name] - n_nodes, ""): None}, k, True)[1]:
            raise DescriptionError("sublexicon %s is re-entered by a loop that places no"
                                   " gloss but adds lexical symbols" % name)
    return sorted(out)


def gloss_paths(root, tags, desc):
    """Lexical strings of the lexicon paths glossed [ROOT=root] followed by
    the tags, each placed by an entry of its own.

    Raises MorphotacticsError naming the first tag that cannot be placed,
    the last tag (# without tags) when every gloss is placed but no path
    ends after it, or with tag None when no path places the root.
    """
    return _gloss_outputs(runtime(desc), root, tags, True)


def generate_from_gloss(root, tags, desc):
    """All surface forms of [ROOT=root] followed by the tags: the validated
    generate of every gloss_paths string, sorted, read from memoized
    gloss closures of the trimmed composition, which step no automaton and
    intern no vector.  It inverts analyze: a surface has a reading with
    such a path exactly when it is returned here.

    Raises MorphotacticsError as gloss_paths does.
    """
    return _gloss_outputs(runtime(desc), root, tags, False)


# ---------------------------------------------------------------------------
# Tracing

def lexicon_covers(surface, desc):
    """True when some lexicon path covers the surface with feasible pairs,
    rules ignored.  Separates the blocking layer in traces.

    The search steps a front of trie nodes one surface character at a
    time.  The fronts are interned in the runtime's rules-off _Frontier,
    with the front each surface code leads to and whether a path ends
    there, so the words of a batch that share a prefix step it once (lazy
    determinization).  New transitions come from the closure tables of
    trie nodes (node_cover), which depend on the lexicon alone: a front
    reads those of its nodes and of the roots of the continuation classes
    they complete (cover_tables), so the nodes reached without reading a
    character are never visited one by one.
    A character that no pair realizes leads to the empty front, 0.
    """
    surface = unicodedata.normalize("NFC", surface)
    rt = runtime(desc)
    fr = rt.covers
    trans, codes = fr.trans, rt.codes
    sid = 1
    for c in surface:
        code = codes.get(c)
        if code is None:
            return False
        nxt = trans[sid].get(code)
        if nxt is None:
            nxt = fr.fill(sid, code, rt)
        if not nxt:
            return False
        sid = nxt
    ends = trans[sid].get(_END)
    if ends is None:
        ends = fr.fill(sid, _END, rt)
    return ends != 0


def trace(word, direction, desc):
    """Search trace: per step, which rule automata died.

    The verdict is analyze's first reading (_realize's in the generate
    direction); on failure the layer is lexicon_covers's (is_lexicon_path's):
    when some lexicon path covers the word, only the rules can have blocked
    it.  The blockers are then the rules that rejected at the deepest depth
    of the observed search, unless the lexicon dead-ends there too, in
    check-set order, each with its first pair; otherwise no rule is named.
    The observed search is the verdict's own _realize in the generate
    direction; analyze's (_observe) runs for a rules-layer word, and for
    any other on the first read of the report's steps.
    """
    if direction not in ("analyze", "generate"):
        raise ValueError("direction must be analyze or generate")
    word = unicodedata.normalize("NFC", word)
    rt = runtime(desc)
    if direction == "generate":
        events = []
        accepted = bool(_realize(rt, tokenize_lexical(word, rt.pairs_by_lex), events))
        covered = accepted or is_lexicon_path(word, desc)
        steps = _trace_steps(rt, events)
    else:
        accepted = bool(analyze(word, desc, _first=True))
        covered = accepted or lexicon_covers(word, desc)
        seen = None if accepted or not covered else _observe(rt, word)
        steps = lambda: _trace_steps(rt, _events((seen or _observe(rt, word))[2]))
    if accepted or not covered:
        return TraceReport(steps, Verdict(accepted, []), "none" if accepted else "lexicon")
    if direction == "generate":
        deepest = max((e[0] for e in events), default=-1)
        last = [e for e in events if e[0] == deepest]
    else:
        _, deepest, runs = seen
        last = _events(runs, deepest)
    rules = {}
    # where the lexicon dead-ends too, the rules are not to blame
    if all(pid >= 0 for _, _, pid in last):
        for _, vid, pid in last:
            for name in rt.rejecters(vid, pid):
                rules.setdefault(name, rt.pair_names[pid])
    blockers = [(name, deepest, rules[name]) for name in sorted(rules, key=rt.rule_names.index)]
    return TraceReport(steps, Verdict(False, blockers), "rules")


def _observe(rt, word):
    """trace's observed search of a surface word in the analyze direction:
    analyze's per-state walk (_walk), given the untrimmed moves: those that
    no rule rejects, into dead ends too, so that it meets every pair that a
    rule rejects on the way.  Its events, each (depth, vector id, pair id),
    are a pair that kills the vector, rt.end for a closing boundary that
    the vector rejects, and -1 for a state with no move left before the end
    of the word (a lexicon dead end).  Like _search it runs depth first
    over observed closures (_closure), on a stack of (closure, index of its
    next run, position, path, glosses), None and a key base for a state not
    entered yet.  Returns whether the search accepts the word, the deepest
    depth of its events (-1 if none), and its runs in visiting order, each
    (position, closure, index)."""
    n = len(word)
    codes = [rt.codes.get(c, 0) for c in word] + [0]
    step_vec, end = rt.step_vec, rt.end
    complete, moves, dels = rt.trie.complete, rt.trie.moves, rt.trie.dels
    vec_trans, chars, out = rt.vec_trans, rt.chars, []
    add = out.extend

    def observe(node, vid, i):
        """The state's moves that no rule rejects, stepped through the
        vector transitions, in the form of _walk's, into dead ends too;
        its events go to `out`, flat, offset from position i."""
        if (i == n and any(cont == TERMINAL for _, cont in complete[node])
                and step_vec(vid, end) is None):
            add((0, vid, end))
        trans = vec_trans[vid]
        live = []
        for move in moves[node].get(codes[i], dels[node]):
            pid = move[1]
            nvid = trans.get(pid, False)
            if nvid is False:
                nvid = step_vec(vid, pid)
            if nvid is None:
                # a consuming pair covers surface position i
                add((move[3], vid, pid))
            else:
                live.append(move + (nvid, chars[pid]))
        if not live and i < n:
            add((0, vid, -1))
        return live

    get, k = rt.observed.get, rt.n_codes + 1
    runs, ends, loops = [], {}, {}
    stack = [(None, rt.start * k + 1, 0, "", "")]
    while stack:
        entry, j, at, prefix, glossed = stack.pop()
        while True:
            if entry is None:
                key = j - 1 if at == n else j + codes[at]
                entry, j = get(key) or _closure(rt, codes, n, at, key, loops, observe, out), 0
            if entry[j + 1]:
                runs.append((at, entry, j))
            j += 2 + entry[j + 1]
            if at == n or j == len(entry):
                for p in range(j, len(entry), 2):
                    ends[prefix + entry[p], glossed + entry[p + 1]] = None
                break
            if len(entry) > j + 5:      # the rest after the move is more than an empty run
                stack.append((entry, j + 3, at, prefix, glossed))
            at, prefix, glossed = at + 1, prefix + entry[j + 2], glossed + entry[j + 1]
            entry, j = None, entry[j]
    deepest = max((at + entry[j] for at, entry, j in runs), default=-1)
    return bool(_readings(rt, codes, n, ends, loops)), deepest, runs


def _events(runs, depth=None):
    """The events of _observe's runs, in visiting order, each (depth,
    vector id, pair id); given a depth, only those at it."""
    return [(at + e[p], e[p + 1], e[p + 2]) for at, e, j in runs if depth in (None, at + e[j])
            for p in range(j + 2, j + 2 + e[j + 1], 3) if depth in (None, at + e[p])]


def _trace_steps(rt, events):
    """The TraceSteps of the observed search's events: those of the pairs
    that kill a vector, each with the rules that reject it."""
    names, end, rejects, rejecters = rt.pair_names, rt.end, rt.rejects, rt.rejecters
    # rejecters' own memo read inline: a kill always has a rejecter
    return [TraceStep(depth, names[pid], list(rejects.get((vid, pid)) or rejecters(vid, pid)))
            for depth, vid, pid in events if 0 <= pid < end]
