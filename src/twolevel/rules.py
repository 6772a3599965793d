"""Two-level rules: parsing, reference semantics, compilation, parallel run.

A rule is  CP op LC _ RC ; ... ;  with op one of => (context restriction),
<= (surface coercion), <=> (composite), /<= (exclusion).  Multiple contexts
license disjunctively; the coercion obligation of <= applies per context.
Evaluation frames the pair string with the boundary pair on both sides.
"""

from dataclasses import dataclass, field

from . import dfa as dfalib
from . import pair_regex as rx
from .symbols import parse_declarations

OPS = ("/<=", "<=>", "=>", "<=")


class RuleSyntaxError(ValueError):
    def __init__(self, message, rule=None, line=None):
        where = []
        if rule:
            where.append("rule %r" % rule)
        if line:
            where.append("line %d" % line)
        if where:
            message = "%s: %s" % (", ".join(where), message)
        super().__init__(message)


class ExpansionError(ValueError):
    pass


class EmptyCorrespondence(ValueError):
    pass


class UnknownPair(ValueError):
    """A rule context references pairs outside the feasible-pair alphabet."""


@dataclass
class WhereClause:
    variables: list          # [(name, [value tokens])]
    matched: bool = False


@dataclass
class TwoLevelRule:
    name: str
    cp: object               # PairRegex, usually a single pair atom
    op: str
    contexts: list           # [(LC PairRegex, RC PairRegex)]
    where: object = None
    line: int = 0

    def is_ground(self):
        return self.where is None


@dataclass
class RuleAutomaton:
    rule: TwoLevelRule
    dfa: object              # PairDfa over PairAlphabet + frame

    @property
    def name(self):
        return self.rule.name


@dataclass
class Verdict:
    accepted: bool
    blockers: list = field(default_factory=list)  # (rule name, position, pair name)


# ---------------------------------------------------------------------------
# Parsing

def _strip_lines(tokens):
    return [t[:-1] for t in tokens]


def parse_rules_file(text):
    """Parse a full rules file: (Declarations, [TwoLevelRule]).

    Declarations carry ALPHABET/SETS plus compiled DEFINITIONS macros; rules
    keep their quoted names, ";"-separated contexts and where clauses.
    """
    decls, rules = parse_declarations(text)
    return decls, _parse_rules_section(rules, decls)


def _parse_rules_section(text, decls):
    toks = rx.tokenize(text, extra_ops=OPS, with_lines=True)
    rules = []
    i = 0
    n = len(toks)
    while i < n:
        tok = toks[i]
        if tok[0] != "rulename":
            raise RuleSyntaxError("expected a quoted rule name, got %r" % (tok,), line=tok[-1])
        name = tok[1]
        rule_line = tok[-1]
        i += 1
        # correspondence part: tokens up to the operator
        cp_toks = []
        while i < n and toks[i][0] != "op2":
            if toks[i][0] == "rulename":
                raise RuleSyntaxError("missing operator", rule=name, line=rule_line)
            cp_toks.append(toks[i])
            i += 1
        if i >= n:
            raise RuleSyntaxError("missing operator", rule=name, line=rule_line)
        op = toks[i][1]
        i += 1
        # contexts: ';'-separated, each with exactly one '_'
        contexts = []
        cur = []
        where = None
        while i < n and toks[i][0] != "rulename":
            t = toks[i]
            if t[:2] == ("op", ";"):
                if cur:
                    contexts.append(cur)
                    cur = []
                i += 1
                continue
            if t[:2] == ("name", "where"):
                if cur:
                    contexts.append(cur)
                    cur = []
                where, i = _parse_where(toks, i + 1, name, rule_line)
                break
            cur.append(t)
            i += 1
        if cur:
            contexts.append(cur)
        if not contexts:
            raise RuleSyntaxError("rule has no context", rule=name, line=rule_line)
        try:
            cp = rx.parse_pair_regex(_strip_lines(cp_toks), decls)
            ctx_nodes = []
            for ctx in contexts:
                split = [k for k, t in enumerate(ctx) if t[:2] == ("op", "_")]
                if len(split) != 1:
                    raise RuleSyntaxError("context needs exactly one _",
                                          rule=name, line=ctx[0][-1])
                k = split[0]
                lc = rx.parse_pair_regex(_strip_lines(ctx[:k]), decls)
                rc = rx.parse_pair_regex(_strip_lines(ctx[k + 1 :]), decls)
                ctx_nodes.append((lc, rc))
        except rx.ParseError as e:
            raise RuleSyntaxError(str(e), rule=name, line=rule_line)
        rules.append(TwoLevelRule(name, cp, op, ctx_nodes, where, rule_line))
    return rules


def _parse_where(toks, i, rulename, line):
    variables = []
    matched = False
    n = len(toks)
    while i < n:
        t = toks[i]
        if t[:2] == ("op", ";"):
            i += 1
            break
        if t[:2] == ("name", "matched"):
            matched = True
            i += 1
            continue
        if t[0] != "name":
            raise RuleSyntaxError("bad where clause at %r" % (t,), rule=rulename, line=line)
        var = t[1]
        if i + 1 >= n or toks[i + 1][:2] != ("name", "in"):
            raise RuleSyntaxError("where: expected '%s in (...)'" % var, rule=rulename, line=line)
        i += 2
        if i >= n or toks[i][:2] != ("op", "("):
            raise RuleSyntaxError("where: expected '(' after in", rule=rulename, line=line)
        i += 1
        values = []
        while i < n and toks[i][:2] != ("op", ")"):
            if toks[i][0] != "name":
                raise RuleSyntaxError("where: bad value %r" % (toks[i],), rule=rulename, line=line)
            values.append(toks[i][1])
            i += 1
        if i >= n:
            raise RuleSyntaxError("where: unterminated value list", rule=rulename, line=line)
        i += 1
        variables.append((var, values))
    if not variables:
        raise RuleSyntaxError("empty where clause", rule=rulename, line=line)
    return WhereClause(variables, matched), i


# ---------------------------------------------------------------------------
# Where expansion

def _substitute(node, env):
    """Copy a regex AST substituting variable names on atom sides."""
    if isinstance(node, rx.Atom):
        return rx.Atom(env.get(node.lex, node.lex), env.get(node.surf, node.surf))
    if isinstance(node, rx.NotPair):
        return rx.NotPair(_substitute(node.item, env))
    if isinstance(node, rx.Opt):
        return rx.Opt(_substitute(node.item, env))
    if isinstance(node, rx.Star):
        return rx.Star(_substitute(node.item, env))
    if isinstance(node, rx.Plus):
        return rx.Plus(_substitute(node.item, env))
    if isinstance(node, rx.Concat):
        return rx.Concat([_substitute(i, env) for i in node.items])
    if isinstance(node, rx.Union):
        return rx.Union([_substitute(i, env) for i in node.items])
    if isinstance(node, rx.Diff):
        return rx.Diff(_substitute(node.left, env), _substitute(node.right, env))
    return node  # Epsilon, Boundary, MacroRef (definitions never hold variables)


def expand_where(rule):
    """Ground instances of a rule: matched variables substitute in lockstep,
    a single unmatched variable one instance per value."""
    if rule.where is None:
        return [rule]
    variables = rule.where.variables
    if rule.where.matched or len(variables) > 1:
        lengths = {len(vals) for _, vals in variables}
        if len(lengths) != 1:
            raise ExpansionError("rule %s: matched variable lists differ in length" % rule.name)
        if not rule.where.matched and len(variables) > 1:
            raise ExpansionError("rule %s: several variables need 'matched'" % rule.name)
        count = lengths.pop()
        envs = [{var: vals[k] for var, vals in variables} for k in range(count)]
    else:
        var, vals = variables[0]
        envs = [{var: v} for v in vals]
    out = []
    for k, env in enumerate(envs):
        out.append(
            TwoLevelRule(
                name=rule.name,
                cp=_substitute(rule.cp, env),
                op=rule.op,
                contexts=[(_substitute(lc, env), _substitute(rc, env)) for lc, rc in rule.contexts],
                where=None,
                line=rule.line,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Reference interpreter

def _cp_sets(rule, alphabet, decls):
    """(pair ids of CP, lexical symbol names of CP) for a ground rule."""
    try:
        cp_ids = rx.denote_atom(rule.cp, alphabet, decls, with_frame=False) \
            if isinstance(rule.cp, (rx.Atom, rx.NotPair, rx.Boundary)) else None
    except rx.EmptyAtom:
        raise EmptyCorrespondence("rule %s: correspondence denotes no feasible pair" % rule.name)
    if cp_ids is None:
        # general regexes as CP: collect pairs it can match as one-pair strings
        cp_ids = frozenset(
            pid for pid in alphabet.all_ids() if rx.match(rule.cp, (pid,), alphabet, decls)
        )
    if not cp_ids:
        raise EmptyCorrespondence("rule %s: correspondence denotes no feasible pair" % rule.name)
    lex_names = frozenset(alphabet.pairs[p][0].name for p in cp_ids)
    return cp_ids, lex_names


def rule_holds(rule, pairs, alphabet, decls):
    """Reference semantics of a ground rule on a pair-id string (unframed).

    Position i is licensed by context j iff the framed prefix before i
    matches Sigma*.LCj and the framed suffix after i matches RCj.Sigma*.
    """
    if not rule.is_ground():
        raise ExpansionError("rule_holds needs a ground rule")
    cp_ids, lex_names = _cp_sets(rule, alphabet, decls)
    frame = alphabet.frame_id
    w = (frame,) + tuple(pairs) + (frame,)
    nw = len(w)

    licensed = [False] * nw
    for lc, rc in rule.contexts:
        memo = {}
        lc_ends = set()
        for k in range(nw + 1):
            lc_ends |= rx.match_ends(lc, w, k, alphabet, decls, memo)
        rc_ok = [bool(rx.match_ends(rc, w, k, alphabet, decls, memo)) for k in range(nw + 1)]
        for i in range(nw):
            if i in lc_ends and rc_ok[i + 1]:
                licensed[i] = True

    for i, pid in enumerate(w):
        if pid == frame and (i == 0 or i == nw - 1):
            in_cp = False
            lex_in = False
        else:
            in_cp = pid in cp_ids
            lex_in = alphabet.pairs[pid][0].name in lex_names
        if rule.op == "=>":
            if in_cp and not licensed[i]:
                return False
        elif rule.op == "<=":
            if lex_in and licensed[i] and not in_cp:
                return False
        elif rule.op == "<=>":
            if in_cp and not licensed[i]:
                return False
            if lex_in and licensed[i] and not in_cp:
                return False
        elif rule.op == "/<=":
            if in_cp and licensed[i]:
                return False
        else:
            raise ValueError("bad operator %r" % rule.op)
    return True


# ---------------------------------------------------------------------------
# Compilation

def _tracker(regex, alphabet, decls, allow_empty, trackers):
    """The framed DFA of regex, compiled once per key in trackers."""
    key = (rx.regex_key(regex), allow_empty)
    if key not in trackers:
        trackers[key] = dfalib.compile_regex(regex, alphabet, decls,
                                             with_frame=True, allow_empty=allow_empty)
    return trackers[key]


def compile_rule(rule, alphabet, decls, allow_empty_atoms=False, *, _trackers=None):
    """Compile a ground rule to a constraint DFA over framed pair strings.

    Construction: deterministic position tracking.  Per context a left
    tracker (DFA of Sigma*.LC) runs along the string; consuming a pair that
    triggers an obligation opens a pending right monitor (DFA of RC.Sigma*,
    absorbing finals) whose polarity says whether some licensed context must
    or must not complete.  Satisfied monitors drop out, violated negative
    monitors kill the state, and acceptance requires no open positive ones.
    ``_trackers`` lets compile_check_set share trackers across its rules.
    """
    if not rule.is_ground():
        raise ExpansionError("compile_rule needs a ground rule")
    cp_ids, lex_names = _cp_sets(rule, alphabet, decls)
    lex_ids = frozenset(
        pid for pid in alphabet.all_ids() if alphabet.pairs[pid][0].name in lex_names
    )
    frame = alphabet.frame_id
    n_syms = frame + 1

    trackers = {} if _trackers is None else _trackers
    any_pair = rx.Star(rx.Atom(None, None))  # wildcard includes the frame
    left = []
    right = []
    for lc, rc in rule.contexts:
        try:
            ltrack = _tracker(rx.Concat([any_pair, lc]), alphabet, decls,
                              allow_empty_atoms, trackers)
            rtrack = _tracker(rx.Concat([rc, any_pair]), alphabet, decls,
                              allow_empty_atoms, trackers)
        except rx.EmptyAtom as e:
            raise UnknownPair("rule %s: %s" % (rule.name, e))
        left.append(ltrack)
        right.append(rtrack)

    n_ctx = len(rule.contexts)
    need_pos = rule.op in ("=>", "<=>")
    need_neg = rule.op in ("<=", "<=>", "/<=")

    # joint pair classes over all component automata plus CP / lexC membership
    sigs = {}
    class_of = [0] * n_syms
    class_rep = []
    for pid in range(n_syms):
        sig = (
            tuple(d.class_of[pid] for d in left),
            tuple(d.class_of[pid] for d in right),
            pid in cp_ids,
            pid in lex_ids,
            pid == frame,
        )
        cid = sigs.get(sig)
        if cid is None:
            cid = len(sigs)
            sigs[sig] = cid
            class_rep.append(pid)
        class_of[pid] = cid
    n_classes = len(sigs)

    def rstep(rvec, pid):
        return tuple(
            right[j].step(rvec[j], pid) if rvec[j] is not None else None for j in range(n_ctx)
        )

    def rsat(rvec, mask):
        # absorbing finals: final once the right context has matched
        return any(rvec[j] is not None and rvec[j] in right[j].finals for j in mask)

    r_init = tuple(d.start for d in right)

    init_l = tuple(d.start for d in left)
    init = (init_l, frozenset())
    states = {init: 0}
    delta = [{}]
    work = [init]
    while work:
        cur = work.pop()
        ci = states[cur]
        lvec, pendings = cur
        mask_now = frozenset(
            j for j in range(n_ctx) if lvec[j] is not None and lvec[j] in left[j].finals
        )
        for cid in range(n_classes):
            pid = class_rep[cid]
            is_frame = pid == frame
            in_cp = (not is_frame) and pid in cp_ids
            lex_in = (not is_frame) and pid in lex_ids

            # step open monitors on this pair
            new_pend = set()
            dead = False
            for rvec, mask, pol in pendings:
                nvec = rstep(rvec, pid)
                if rsat(nvec, mask):
                    if pol:
                        continue  # positive obligation met, drop
                    dead = True  # negative obligation violated
                    break
                if all(nvec[j] is None for j in mask):
                    if pol:
                        dead = True  # positive obligation can never be met
                        break
                    continue  # negative obligation can never trigger, drop
                new_pend.add((nvec, mask, pol))
            if dead:
                continue

            # obligations opened by consuming this pair
            if need_pos and in_cp:
                if not mask_now:
                    continue  # no context can license: immediate violation
                if not rsat(r_init, mask_now):
                    if all(r_init[j] is None for j in mask_now):
                        continue
                    new_pend.add((r_init, frozenset(mask_now), True))
            if need_neg and mask_now:
                triggers = in_cp if rule.op == "/<=" else (lex_in and not in_cp)
                if triggers:
                    if rsat(r_init, mask_now):
                        continue  # nullable right context: violated on the spot
                    if not all(r_init[j] is None for j in mask_now):
                        new_pend.add((r_init, frozenset(mask_now), False))

            nlvec = tuple(left[j].step(lvec[j], pid) for j in range(n_ctx))
            nxt = (nlvec, frozenset(new_pend))
            j = states.get(nxt)
            if j is None:
                j = len(delta)
                states[nxt] = j
                delta.append({})
                work.append(nxt)
            delta[ci][cid] = j

    finals = set()
    for st, idx in states.items():
        _, pendings = st
        if not any(pol for _, _, pol in pendings):
            finals.add(idx)

    compiled = dfalib.PairDfa(alphabet, class_of, n_classes, delta, 0, finals)
    return RuleAutomaton(rule, dfalib.minimize(compiled))


def run_all(automata, pairs):
    """Run rule automata in parallel over a framed pair string.

    Accepted iff every automaton accepts; blockers report, per failing
    automaton, the earliest position where its run dies (or the final-state
    failure at the end).
    """
    blockers = []
    for ra in automata:
        alpha = ra.dfa.alphabet
        frame = alpha.frame_id
        w = (frame,) + tuple(pairs) + (frame,)
        s = ra.dfa.start
        died = None
        for i, pid in enumerate(w):
            s = ra.dfa.step(s, pid)
            if s is None:
                died = i
                break
        if died is not None:
            blockers.append((ra.name, died, alpha.name_of(w[died])))
        elif s not in ra.dfa.finals:
            blockers.append((ra.name, len(w) - 1, alpha.name_of(frame)))
    return Verdict(not blockers, blockers)


# ---------------------------------------------------------------------------
# Effective check set for a whole description

def build_check_set(ground_rules, alphabet, decls):
    """Turn ground rules into the effective parallel constraint set.

    Rules sharing one correspondence each name licensing environments for it;
    their => requirements are pooled into a single context-restriction per
    correspondence (disjunctive contexts), while every <= obligation and /<=
    exclusion stays a constraint of its own.
    """
    pos_groups = {}
    out_rules = []
    for rule in ground_rules:
        key, _ = _cp_sets(rule, alphabet, decls)
        if rule.op in ("=>", "<=>"):
            grp = pos_groups.get(key)
            if grp is None:
                grp = TwoLevelRule(
                    name=rule.name, cp=rule.cp, op="=>", contexts=list(rule.contexts), line=rule.line
                )
                grp.source_names = [rule.name]
                pos_groups[key] = grp
                out_rules.append(grp)
            else:
                grp.contexts.extend(rule.contexts)
                if rule.name not in grp.source_names:
                    grp.source_names.append(rule.name)
                    grp.name = " + ".join(grp.source_names)
        if rule.op in ("<=", "<=>"):
            out_rules.append(
                TwoLevelRule(rule.name, rule.cp, "<=", rule.contexts, None, rule.line)
            )
        if rule.op == "/<=":
            out_rules.append(rule)
    return out_rules


def compile_check_set(ground_rules, alphabet, decls):
    """Compile the check set; each distinct context tracker is compiled once
    and shared by the rules that use it."""
    trackers = {}
    return [
        compile_rule(r, alphabet, decls, _trackers=trackers)
        for r in build_check_set(ground_rules, alphabet, decls)
    ]
