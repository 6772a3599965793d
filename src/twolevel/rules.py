"""Two-level rules: parsing, reference semantics, compilation, parallel run.

A rule is  CP op LC _ RC ; ... ;  with op one of => (context restriction),
<= (surface coercion), <=> (composite), /<= (exclusion).  Multiple contexts
license disjunctively; the coercion obligation of <= applies per context.
Evaluation frames the pair string with the boundary pair on both sides.
"""

from dataclasses import dataclass

from . import dfa as dfalib
from . import pair_regex as rx
from .engine import Verdict
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
    if isinstance(rule.cp, (rx.Atom, rx.NotPair, rx.Boundary)):
        cp_ids = rx.denote_atom(rule.cp, alphabet, decls, allow_empty=True) - {alphabet.frame_id}
    else:
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

@rx.bounded_nesting
def _tracker(regex, alphabet, decls, allow_empty, trackers):
    """The framed DFA of regex, compiled once per key in trackers."""
    key = (rx.regex_key(regex), allow_empty)
    if key not in trackers:
        trackers[key] = dfalib.compile_regex(regex, alphabet, decls, allow_empty=allow_empty)
    return trackers[key]


def compile_rule(rule, alphabet, decls, allow_empty_atoms=False, *, _trackers=None):
    """Compile a ground rule to a constraint DFA over framed pair strings.

    Per context j a left tracker, the DFA of Sigma*.LCj, runs along the
    string.  A pair read just after LCj matched starts j's right monitor,
    the DFA of RCj.Sigma* with absorbing finals.  A product state holds the
    trackers' states, a set of (context, monitor state) pairs that must
    never complete, and the open => obligations: sets of such pairs of which
    one must complete.  A CP pair opens one obligation over the contexts
    whose LC matched, as they license disjunctively; <= (a CP lexical
    symbol paired otherwise) and /<= (a CP pair) add those contexts to the
    never set, each on its own.  Dead monitors drop out; a state dies when
    a never pair completes or an obligation empties, and accepts when none
    is open.  ``_trackers`` lets compile_check_set share trackers.
    """
    if not rule.is_ground():
        raise ExpansionError("compile_rule needs a ground rule")
    cp_ids, lex_names = _cp_sets(rule, alphabet, decls)
    lex_ids = frozenset(pid for pid in alphabet.all_ids()
                        if alphabet.pairs[pid][0].name in lex_names)
    frame = alphabet.frame_id
    trackers = {} if _trackers is None else _trackers
    any_pair = rx.Star(rx.Atom(None, None))  # wildcard includes the frame
    left, right = [], []
    for lc, rc in rule.contexts:
        try:
            left.append(_tracker(rx.Concat([any_pair, lc]), alphabet, decls,
                                 allow_empty_atoms, trackers))
            right.append(_tracker(rx.Concat([rc, any_pair]), alphabet, decls,
                                  allow_empty_atoms, trackers))
        except rx.EmptyAtom as e:
            raise UnknownPair("rule %s: %s" % (rule.name, e))
    need_pos = rule.op in ("=>", "<=>")
    never_ids = cp_ids if rule.op == "/<=" else \
        lex_ids - cp_ids if rule.op in ("<=", "<=>") else frozenset()

    # joint pair classes over all trackers plus CP, lexical and frame membership
    sigs, class_of, class_rep = {}, [], []
    for pid in range(frame + 1):
        sig = (tuple([d.class_of[pid] for d in left + right]),
               pid in cp_ids, pid in lex_ids, pid == frame)
        if sig not in sigs:
            sigs[sig] = len(class_rep)
            class_rep.append(pid)
        class_of.append(sigs[sig])

    def step(pairs, pid):  # dead monitors drop out; None once one completes
        out = []
        for j, r in pairs:
            r = right[j].step(r, pid)
            if r in right[j].finals:
                return None
            if r is not None:
                out.append((j, r))
        return frozenset(out)

    init = (tuple(d.start for d in left), frozenset(), frozenset())
    states, delta, work = {init: 0}, [{}], [init]
    while work:
        lvec, never, must = cur = work.pop()
        opened = frozenset((j, right[j].start) for j, s in enumerate(lvec) if s in left[j].finals)
        met = any(r in right[j].finals for j, r in opened)  # a nullable RC
        for cid, pid in enumerate(class_rep):
            nnever = step(never, pid) if never else never
            nmust = {step(ob, pid) for ob in must}
            if nnever is None or frozenset() in nmust:
                continue
            nmust.discard(None)
            if need_pos and pid in cp_ids and not met:
                if not opened:
                    continue  # no context licenses the pair
                nmust.add(opened)
            if pid in never_ids and opened:
                if met:
                    continue
                nnever |= opened
            nxt = (tuple([d.step(s, pid) for d, s in zip(left, lvec)]), nnever, frozenset(nmust))
            if nxt not in states:
                states[nxt] = len(delta)
                delta.append({})
                work.append(nxt)
            delta[states[cur]][cid] = states[nxt]

    finals = [i for (_, _, must), i in states.items() if not must]
    compiled = dfalib.PairDfa(alphabet, class_of, len(class_rep), delta, 0, finals)
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
