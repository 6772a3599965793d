"""Deterministic automata over feasible pairs, and their algebra.

A PairDfa stores transitions per equivalence class of pairs rather than per
pair: most pairs behave identically for a given expression, and the class
map keeps big alphabets cheap.  Transitions are partial; a missing entry is
an implicit dead state.
"""

from . import pair_regex as rx


class AlphabetError(ValueError):
    pass


class PairDfa:
    def __init__(self, alphabet, class_of, n_classes, delta, start, finals):
        self.alphabet = alphabet
        self.class_of = class_of          # list over framed pair ids -> class
        self.n_classes = n_classes
        self.delta = delta                # per state: dict class -> state
        self.start = start
        self.finals = frozenset(finals)

    @property
    def n_states(self):
        return len(self.delta)

    def step(self, state, pid):
        if state is None or pid >= len(self.class_of):
            return None
        return self.delta[state].get(self.class_of[pid])

    def accepts(self, pids):
        s = self.start
        for pid in pids:
            s = self.step(s, pid)
            if s is None:
                return False
        return s in self.finals

    def dump(self):
        """Tabular text dump: one "state<TAB>pair<TAB>next" line per arc,
        finals marked on their own lines.  Stable, diffable."""
        lines = []
        for s in range(self.n_states):
            mark = "final" if s in self.finals else ""
            lines.append("state\t%d\t%s" % (s, mark))
            arcs = {}
            for pid in range(self.alphabet.frame_id + 1):
                t = self.step(s, pid)
                if t is not None:
                    arcs.setdefault(t, []).append(self.alphabet.name_of(pid))
            for t in sorted(arcs):
                for name in arcs[t]:
                    lines.append("%d\t%s\t%d" % (s, name, t))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Alphabet partitioning

def _collect_atoms(node, out):
    """The leaves of the expression's NFA: atoms, and differences, which
    are compiled whole and spliced in."""
    if isinstance(node, (rx.Atom, rx.Boundary, rx.NotPair, rx.Diff)):
        out.append(node)
        return
    for child in node.children():
        _collect_atoms(child, out)


def partition_for(denotations, n_symbols):
    """Group pair ids by their membership signature across the denotations.

    A pair's signature is a bitmask with bit k set when it is in
    denotations[k], each a set of ids in range(n_symbols).  Classes are
    numbered in order of their first pair id.

    Returns (class_of list, classes as list of id-tuples).
    """
    sig_of = [0] * n_symbols
    for k, den in enumerate(denotations):
        bit = 1 << k
        for pid in den:
            sig_of[pid] |= bit
    sigs = {}
    class_of = [0] * n_symbols
    classes = []
    for pid, sig in enumerate(sig_of):
        cid = sigs.get(sig)
        if cid is None:
            cid = len(classes)
            sigs[sig] = cid
            classes.append([])
        class_of[pid] = cid
        classes[cid].append(pid)
    return class_of, [tuple(c) for c in classes]


# ---------------------------------------------------------------------------
# Regex -> NFA -> DFA

class _Nfa:
    def __init__(self):
        self.eps = []     # list of sets
        self.arcs = []    # list of dict class -> set(states)

    def new_state(self):
        self.eps.append(set())
        self.arcs.append({})
        return len(self.eps) - 1


def _build_nfa(nfa, node, leaves):
    """Thompson-style fragment; returns (start, end).

    ``leaves`` maps id(atom) to the classes it matches, and id(difference)
    to its DFA and, per class of this expression, the DFA's class of that
    class's pairs.  The DFA is copied in state by state.
    """
    if isinstance(node, rx.MacroRef):
        return _build_nfa(nfa, node.target, leaves)
    s = nfa.new_state()
    e = nfa.new_state()
    if isinstance(node, rx.Epsilon):
        nfa.eps[s].add(e)
    elif isinstance(node, (rx.Atom, rx.Boundary, rx.NotPair)):
        for cid in leaves[id(node)]:
            nfa.arcs[s].setdefault(cid, set()).add(e)
    elif isinstance(node, rx.Diff):
        sub, sub_class = leaves[id(node)]
        base = len(nfa.eps)
        for row in sub.delta:
            q = nfa.new_state()
            for cid, c in enumerate(sub_class):
                t = row.get(c)
                if t is not None:
                    nfa.arcs[q].setdefault(cid, set()).add(base + t)
        nfa.eps[s].add(base + sub.start)
        for f in sub.finals:
            nfa.eps[base + f].add(e)
    elif isinstance(node, rx.Opt):
        a, b = _build_nfa(nfa, node.item, leaves)
        nfa.eps[s] |= {a, e}
        nfa.eps[b].add(e)
    elif isinstance(node, rx.Union):
        for item in node.items:
            a, b = _build_nfa(nfa, item, leaves)
            nfa.eps[s].add(a)
            nfa.eps[b].add(e)
    elif isinstance(node, rx.Concat):
        cur = s
        for item in node.items:
            a, b = _build_nfa(nfa, item, leaves)
            nfa.eps[cur].add(a)
            cur = b
        nfa.eps[cur].add(e)
    elif isinstance(node, (rx.Star, rx.Plus)):
        a, b = _build_nfa(nfa, node.item, leaves)
        nfa.eps[s].add(a)
        nfa.eps[b] |= {a, e}
        if isinstance(node, rx.Star):
            nfa.eps[s].add(e)
    else:
        raise TypeError("cannot compile %r" % node)
    return s, e


@rx.bounded_nesting
def compile_regex(node, alphabet, decls, allow_empty=False):
    """Compile a PairRegex to a trimmed, deterministic PairDfa.

    The automaton alphabet is the framed one: the feasible pairs and the
    boundary pair, id ``alphabet.frame_id``.  Each difference is compiled
    on its own by product and spliced into the NFA, so the expression is
    determinized once.
    """
    atoms = []
    _collect_atoms(node, atoms)
    dens = {}
    den_list = []
    for a in atoms:
        if id(a) in dens:
            continue
        if isinstance(a, rx.Diff):
            d = product(compile_regex(a.left, alphabet, decls, allow_empty),
                        compile_regex(a.right, alphabet, decls, allow_empty))
            sub_classes = {}
            for pid, c in enumerate(d.class_of):
                sub_classes.setdefault(c, []).append(pid)
            den_list.extend(sub_classes.values())
        else:
            d = rx.denote_atom(a, alphabet, decls, allow_empty=allow_empty)
            den_list.append(d)
        dens[id(a)] = d
    class_of, classes = partition_for(den_list, alphabet.frame_id + 1)
    # classes are signature-uniform: the first member speaks for the class
    leaves = {}
    for key, d in dens.items():
        if isinstance(d, PairDfa):
            leaves[key] = (d, [d.class_of[members[0]] for members in classes])
        else:
            leaves[key] = [cid for cid, members in enumerate(classes) if members[0] in d]

    nfa = _Nfa()
    start, end = _build_nfa(nfa, node, leaves)

    return minimize(_nfa_determinize(nfa, start, end, alphabet, class_of, len(classes)))


def _nfa_determinize(nfa, start, end, alphabet, class_of, n_classes):
    """Subset construction; a subset is final when it holds ``end``."""
    def closure(states):
        stack = list(states)
        seen = set(states)
        while stack:
            s = stack.pop()
            for t in nfa.eps[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    init = closure([start])
    subsets = {init: 0}
    delta = [{}]
    finals = {0} if end in init else set()
    work = [init]
    while work:
        cur = work.pop()
        ci = subsets[cur]
        by_class = {}
        for s in cur:
            for cid, targets in nfa.arcs[s].items():
                by_class.setdefault(cid, set()).update(targets)
        for cid, targets in by_class.items():
            nxt = closure(targets)
            j = subsets.get(nxt)
            if j is None:
                j = len(delta)
                subsets[nxt] = j
                delta.append({})
                work.append(nxt)
                if end in nxt:
                    finals.add(j)
            delta[ci][cid] = j
    return PairDfa(alphabet, class_of, n_classes, delta, 0, finals)


# ---------------------------------------------------------------------------
# Algebra

def product(a, b):
    """The difference L(a) - L(b), by the textbook product construction."""
    if a.alphabet is not b.alphabet or len(a.class_of) != len(b.class_of):
        raise AlphabetError("automata built over different pair alphabets")
    # joint classes: one per distinct (class in a, class in b), numbered
    # in order of their first pair id
    sigs = {}
    class_of = [sigs.setdefault(sig, len(sigs)) for sig in zip(a.class_of, b.class_of)]
    classes = list(sigs)
    # a state is (state of a, state of b or None once b has died); a state
    # where a has died would accept nothing, so none is built
    start = (a.start, b.start)
    states = {start: 0}
    delta = [{}]
    work = [start]
    while work:
        cur = work.pop()
        sa, sb = cur
        row = delta[states[cur]]
        for joint, (ca, cb) in enumerate(classes):
            ta = a.delta[sa].get(ca)
            if ta is None:
                continue
            nxt = (ta, b.delta[sb].get(cb) if sb is not None else None)
            j = states.get(nxt)
            if j is None:
                j = states[nxt] = len(delta)
                delta.append({})
                work.append(nxt)
            row[joint] = j
    finals = {j for (sa, sb), j in states.items() if sa in a.finals and sb not in b.finals}
    return minimize(PairDfa(a.alphabet, class_of, len(classes), delta, 0, finals))


def trim(a):
    """Drop states that are unreachable or cannot reach a final state."""
    reach = {a.start}
    work = [a.start]
    while work:
        s = work.pop()
        for t in a.delta[s].values():
            if t not in reach:
                reach.add(t)
                work.append(t)
    back = {}
    for s in reach:
        for t in a.delta[s].values():
            back.setdefault(t, set()).add(s)
    live = set(f for f in a.finals if f in reach)
    work = list(live)
    while work:
        s = work.pop()
        for p in back.get(s, ()):
            if p not in live:
                live.add(p)
                work.append(p)
    if a.start not in live:
        # empty language: single non-final start state
        return PairDfa(a.alphabet, a.class_of, a.n_classes, [{}], 0, frozenset())
    remap = {}
    for s in range(a.n_states):
        if s in live:
            remap[s] = len(remap)
    delta = []
    for s in range(a.n_states):
        if s not in remap:
            continue
        delta.append(
            {c: remap[t] for c, t in a.delta[s].items() if t in remap}
        )
    finals = {remap[f] for f in a.finals if f in remap}
    return PairDfa(a.alphabet, a.class_of, a.n_classes, delta, remap[a.start], finals)


def minimize(a):
    """Moore partition refinement over the class alphabet (partial delta).

    The automaton is trimmed first, so a missing transition always means
    reject and signatures over the existing arcs are sound.
    """
    a = trim(a)
    n = a.n_states
    if n <= 1:
        return a
    block = [1 if s in a.finals else 0 for s in range(n)]
    while True:
        sigs = {}
        new_block = [0] * n
        for s in range(n):
            sig = (block[s], tuple(sorted((c, block[t]) for c, t in a.delta[s].items())))
            cid = sigs.get(sig)
            if cid is None:
                cid = len(sigs)
                sigs[sig] = cid
            new_block[s] = cid
        if len(sigs) == len(set(block)):
            block = new_block
            break
        block = new_block
    n_blocks = len(set(block))
    rep_delta = [None] * n_blocks
    finals = set()
    for s in range(n):
        b = block[s]
        if rep_delta[b] is None:
            rep_delta[b] = {c: block[t] for c, t in a.delta[s].items()}
        if s in a.finals:
            finals.add(b)
    return PairDfa(a.alphabet, a.class_of, a.n_classes, rep_delta, block[a.start], finals)
