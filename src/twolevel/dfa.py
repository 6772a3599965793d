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
        self.class_of = class_of          # list over pair ids (+frame) -> class
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
            for pid in self.alphabet.all_ids(with_frame=True):
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
    if isinstance(node, (rx.Atom, rx.Boundary, rx.NotPair)):
        out.append(node)
        if isinstance(node, rx.NotPair):
            return
    for child in node.children():
        _collect_atoms(child, out)


def partition_for(denotations, n_symbols):
    """Group pair ids by their membership signature across the denotations.

    A pair's signature is a bitmask with bit k set when it is in
    denotations[k]; ids outside range(n_symbols) are ignored.  Classes are
    numbered in order of their first pair id.

    Returns (class_of list, classes as list of id-tuples).
    """
    sig_of = [0] * n_symbols
    for k, den in enumerate(denotations):
        bit = 1 << k
        for pid in den:
            if 0 <= pid < n_symbols:
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


def _build_nfa(nfa, node, classes_of_den):
    """Thompson-style fragment; returns (start, end)."""
    if isinstance(node, rx.MacroRef):
        return _build_nfa(nfa, node.target, classes_of_den)
    s = nfa.new_state()
    e = nfa.new_state()
    if isinstance(node, rx.Epsilon):
        nfa.eps[s].add(e)
    elif isinstance(node, (rx.Atom, rx.Boundary, rx.NotPair)):
        for cid in classes_of_den[id(node)]:
            nfa.arcs[s].setdefault(cid, set()).add(e)
    elif isinstance(node, rx.Opt):
        a, b = _build_nfa(nfa, node.item, classes_of_den)
        nfa.eps[s] |= {a, e}
        nfa.eps[b].add(e)
    elif isinstance(node, rx.Union):
        for item in node.items:
            a, b = _build_nfa(nfa, item, classes_of_den)
            nfa.eps[s].add(a)
            nfa.eps[b].add(e)
    elif isinstance(node, rx.Concat):
        cur = s
        for item in node.items:
            a, b = _build_nfa(nfa, item, classes_of_den)
            nfa.eps[cur].add(a)
            cur = b
        nfa.eps[cur].add(e)
    elif isinstance(node, (rx.Star, rx.Plus)):
        a, b = _build_nfa(nfa, node.item, classes_of_den)
        nfa.eps[s].add(a)
        nfa.eps[b] |= {a, e}
        if isinstance(node, rx.Star):
            nfa.eps[s].add(e)
    elif isinstance(node, rx.Diff):
        raise ValueError("difference is compiled via DFA product")
    else:
        raise TypeError("cannot compile %r" % node)
    return s, e


def _has_diff(node):
    if isinstance(node, rx.Diff):
        return True
    if isinstance(node, rx.MacroRef):
        return _has_diff(node.target)
    return any(_has_diff(c) for c in node.children())


def compile_regex(node, alphabet, decls, with_frame=False, allow_empty=False):
    """Compile a PairRegex to a trimmed, deterministic PairDfa.

    ``with_frame`` admits the boundary pair into the automaton alphabet
    (rule compilation wants it; plain expressions usually do not).
    """
    n_symbols = len(alphabet.pairs) + (1 if with_frame else 0)

    if _has_diff(node):
        # rebuild on a diff-free skeleton via products
        return _compile_with_diff(node, alphabet, decls, with_frame, allow_empty)

    atoms = []
    _collect_atoms(node, atoms)
    dens = {}
    den_list = []
    for a in atoms:
        d = rx.denote_atom(a, alphabet, decls, with_frame=with_frame, allow_empty=allow_empty)
        if with_frame is False:
            d = frozenset(x for x in d if x < n_symbols)
        dens[id(a)] = d
        den_list.append(d)
    class_of, classes = partition_for(den_list, n_symbols)
    # classes are signature-uniform: membership of the first member decides
    classes_of_den = {
        key: [cid for cid, members in enumerate(classes) if members and members[0] in den]
        for key, den in dens.items()
    }

    nfa = _Nfa()
    start, end = _build_nfa(nfa, node, classes_of_den)

    dfa = _nfa_determinize(
        nfa, {start}, lambda subset: end in subset, alphabet, class_of, len(classes)
    )
    return minimize(trim(dfa))


def _compile_with_diff(node, alphabet, decls, with_frame, allow_empty):
    if isinstance(node, rx.MacroRef):
        return _compile_with_diff(node.target, alphabet, decls, with_frame, allow_empty)
    if isinstance(node, rx.Diff):
        a = compile_regex(node.left, alphabet, decls, with_frame, allow_empty)
        b = compile_regex(node.right, alphabet, decls, with_frame, allow_empty)
        return product(a, b, "difference")
    if isinstance(node, rx.Union):
        parts = [compile_regex(i, alphabet, decls, with_frame, allow_empty) for i in node.items]
        out = parts[0]
        for p in parts[1:]:
            out = product(out, p, "union")
        return out
    if isinstance(node, rx.Concat):
        parts = [compile_regex(i, alphabet, decls, with_frame, allow_empty) for i in node.items]
        return _concat_dfas(parts, alphabet)
    if isinstance(node, rx.Opt):
        inner = compile_regex(node.item, alphabet, decls, with_frame, allow_empty)
        return _add_epsilon(inner)
    if isinstance(node, (rx.Star, rx.Plus)):
        inner = compile_regex(node.item, alphabet, decls, with_frame, allow_empty)
        return _closure_dfa(inner, plus=isinstance(node, rx.Plus))
    return compile_regex(node, alphabet, decls, with_frame, allow_empty)


def _dfa_to_nfa_frag(dfa, nfa, class_map):
    base = len(nfa.eps)
    for _ in range(dfa.n_states):
        nfa.new_state()
    for s in range(dfa.n_states):
        for cid, t in dfa.delta[s].items():
            for joint in class_map[id(dfa)][cid]:
                nfa.arcs[base + s].setdefault(joint, set()).add(base + t)
    return base


def _joint_classes(dfas, n_symbols):
    sigs = {}
    class_of = [0] * n_symbols
    classes = []
    for pid in range(n_symbols):
        sig = tuple(d.class_of[pid] for d in dfas)
        cid = sigs.get(sig)
        if cid is None:
            cid = len(classes)
            sigs[sig] = cid
            classes.append(sig)
        class_of[pid] = cid
    # per-dfa: own class -> set of joint classes
    cmap = {}
    for k, d in enumerate(dfas):
        m = {}
        for joint, sig in enumerate(classes):
            m.setdefault(sig[k], set()).add(joint)
        cmap[id(d)] = m
    return class_of, classes, cmap


def _nfa_determinize(nfa, starts, finals_pred, alphabet, class_of, n_classes):
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

    init = closure(starts)
    subsets = {init: 0}
    delta = [{}]
    finals = set()
    if finals_pred(init):
        finals.add(0)
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
                if finals_pred(nxt):
                    finals.add(j)
            delta[ci][cid] = j
    return PairDfa(alphabet, class_of, n_classes, delta, 0, finals)


def _concat_dfas(parts, alphabet):
    n_symbols = len(parts[0].class_of)
    class_of, classes, cmap = _joint_classes(parts, n_symbols)
    nfa = _Nfa()
    bases = [_dfa_to_nfa_frag(p, nfa, cmap) for p in parts]
    for k in range(len(parts) - 1):
        for f in parts[k].finals:
            nfa.eps[bases[k] + f].add(bases[k + 1] + parts[k + 1].start)
    last_finals = {bases[-1] + f for f in parts[-1].finals}
    dfa = _nfa_determinize(nfa, {bases[0] + parts[0].start},
                           lambda subset: bool(subset & last_finals),
                           parts[0].alphabet, class_of, len(classes))
    return minimize(trim(dfa))


def _add_epsilon(dfa):
    if dfa.start in dfa.finals:
        return dfa
    delta = [dict(dfa.delta[dfa.start])] + [dict(d) for d in dfa.delta]
    shifted = [{c: t + 1 for c, t in d.items()} for d in delta]
    finals = {f + 1 for f in dfa.finals}
    finals.add(0)
    out = PairDfa(dfa.alphabet, dfa.class_of, dfa.n_classes, shifted, 0, finals)
    return minimize(trim(out))


def _closure_dfa(dfa, plus):
    nfa = _Nfa()
    cmap = {id(dfa): {c: {c} for c in range(dfa.n_classes)}}
    base = _dfa_to_nfa_frag(dfa, nfa, cmap)
    for f in dfa.finals:
        nfa.eps[base + f].add(base + dfa.start)
    final_set = {base + f for f in dfa.finals}
    out = _nfa_determinize(nfa, {base + dfa.start}, lambda subset: bool(subset & final_set),
                           dfa.alphabet, dfa.class_of, dfa.n_classes)
    if not plus:
        out = _add_epsilon(out)
    return minimize(trim(out))


# ---------------------------------------------------------------------------
# Algebra

def _check_alphabets(a, b):
    if a.alphabet is not b.alphabet or len(a.class_of) != len(b.class_of):
        raise AlphabetError("automata built over different pair alphabets")


def product(a, b, mode="intersect"):
    """Textbook product; mode is intersect | union | difference."""
    _check_alphabets(a, b)
    n_symbols = len(a.class_of)
    class_of, classes, _ = _joint_classes([a, b], n_symbols)

    def is_final(sa, sb):
        fa = sa in a.finals if sa is not None else False
        fb = sb in b.finals if sb is not None else False
        if mode == "intersect":
            return fa and fb
        if mode == "union":
            return fa or fb
        if mode == "difference":
            return fa and not fb
        raise ValueError("bad mode %r" % mode)

    # union/difference must keep running when one side dies
    keep_dead = mode in ("union", "difference")
    start = (a.start, b.start)
    states = {start: 0}
    delta = [{}]
    finals = set()
    if is_final(*start):
        finals.add(0)
    work = [start]
    while work:
        cur = work.pop()
        ci = states[cur]
        sa, sb = cur
        for joint, sig in enumerate(classes):
            ca, cb = sig
            ta = a.delta[sa].get(ca) if sa is not None else None
            tb = b.delta[sb].get(cb) if sb is not None else None
            if ta is None and tb is None:
                continue
            if (ta is None or tb is None) and not keep_dead:
                continue
            nxt = (ta, tb)
            j = states.get(nxt)
            if j is None:
                j = len(delta)
                states[nxt] = j
                delta.append({})
                work.append(nxt)
                if is_final(*nxt):
                    finals.add(j)
            delta[ci][joint] = j
    return minimize(trim(PairDfa(a.alphabet, class_of, len(classes), delta, 0, finals)))


def complement(a, alphabet=None):
    """Complement over the automaton's own symbol universe (made total)."""
    if alphabet is not None and alphabet is not a.alphabet:
        raise AlphabetError("complement against a foreign alphabet")
    n = a.n_states
    delta = [dict(d) for d in a.delta]
    sink = n
    delta.append({})
    for s in range(n + 1):
        for c in range(a.n_classes):
            if c not in delta[s]:
                delta[s][c] = sink
    finals = {s for s in range(n + 1) if s not in a.finals}
    return minimize(trim(PairDfa(a.alphabet, a.class_of, a.n_classes, delta, a.start, finals)))


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


def equivalent(a, b):
    """Decide L(a) == L(b) by emptiness of both difference products."""
    _check_alphabets(a, b)
    for x, y in ((a, b), (b, a)):
        d = product(x, y, "difference")
        if d.finals:
            return False
    return True


def is_empty(a):
    return not trim(a).finals
