"""Turkish suffix grammar, written as ordering formulas and compiled to a
continuation-class lexicon.

Suffix classes are small named inventories; the tables below spell out the
licit class sequences after each anchor state, a lowercase first letter
marking an optional slot.  Long-distance agreement (plural stems take only
plural present-tense person suffixes, the negative aorist -z needs -mA, a
compound suffix reopens -(E)r) is encoded by state duplication, which is
why the anchors come in singular/plural and plain/NEG/NEG+ABIL flavours.
Past an anchor a state is named by the class sequences left to read from
it, so anchors that reach the same tail share one sublexicon.

build_lexicon_text() emits the whole grammar in lexicon file syntax; the
committed data file is its frozen output and a test keeps them in sync.
"""

# --- suffix class inventories ------------------------------------------------

CLASSES = {
    # nominal inflection
    "PLU":   [("+PLU", "-lAr")],
    "POSS":  [("+POSS1s", "-(H)m"), ("+POSS2s", "-(H)n"), ("+POSS3s", "-(s)HN"),
              ("+POSS1p", "-(H)mHz"), ("+POSS2p", "-(H)nHz"), ("+POSS3p", "-LArHN")],
    "CASE1": [("+LOC", "-DA"), ("+GEN", "-(n)Hn")],
    "CASE2": [("+ACC", "-(y)H")],
    "CASE3": [("+DAT", "-(y)A"), ("+ABL", "-DAn"), ("+INS", "-(y)lA")],
    "REL":   [("+REL", "-kiN")],
    "DERN":  [("+DER", "-CH"), ("+DER", "-lH"), ("+DER", "-sHz"), ("+DER", "-lHk")],
    "P3POSS": [("+POSS3s", "-(s)HN")],
    # predicative / verb-final person-number
    "K1":  [("+PERS3p", "-lAr")],
    "L":   [("+INTR", "-mH")],
    "M1":  [("+NARR", "-(y)mHş")],
    "M2":  [("+PAST", "-(y)DH")],
    "M3":  [("+COND", "-(y)sA")],
    "M4":  [("+COP", "-DHr")],
    "N1":  [("+PERS1s", "-(yH)m"), ("+PERS1p", "-(y)Hz"),
            ("+PERS2s", "-(sH)n"), ("+PERS2p", "-(sH)nHz")],
    "N1P": [("+PERS1p", "-(y)Hz"), ("+PERS2p", "-(sH)nHz")],
    "N11": [("+PERS1s", "-(yH)m"), ("+PERS1p", "-(y)Hz")],
    "N12": [("+PERS2s", "-(sH)n"), ("+PERS2p", "-(sH)nHz")],
    "K2":  [("+PERS1s", "-(yH)m"), ("+PERS1p", "-k"),
            ("+PERS2s", "-(sH)n"), ("+PERS2p", "-(sH)nHz")],
    "N3":  [("+PERS1s", "-(yH)m"), ("+PERS1p", "-k"),
            ("+PERS2s", "-(sH)n"), ("+PERS2p", "-(sH)nHz")],
    "N3P": [("+PERS1p", "-k"), ("+PERS2p", "-(sH)nHz")],
    "K3":  [("+PERS1s", "-(yH)m"), ("+PERS1p", "-lHm"),
            ("+PERS2s", "-(sH)n"), ("+PERS2p", "-(sH)nHz")],
    "N2":  [("+IMP", "-(y)Hn"), ("+IMP", "-(y)HnHz"),
            ("+IMP", "-sHn"), ("+IMP", "-sHnlAr")],
    # verbal voice and stem extensions
    "RECP":  [("+RECP", "-(H)ş")],
    "REFL":  [("+REFL", "-(H)n")],
    "CAUST": [("+CAUS_T", "-(DH)X")],
    "CAUST2": [("+CAUS_T", "-(D)HX")],
    "CAUSA": [("+CAUS_A", "-(D)HX")],
    "CAUSI": [("+CAUS_I", "-(D)HX")],
    "PASS":  [("+PASS", "-(H)L")],
    "PASS2": [("+PASS", "-(H)nHl")],
    "NEG":   [("+NEG", "-mA")],
    "ABIL1": [("+ABIL", "-(y)A")],
    "ABIL2": [("+ABIL", "-(y)Abil")],
    "INF":   [("+DER", "-mAk")],
    # tense/aspect group one
    "J1": [("+CONT", "-Hyor"), ("+FUTR", "-(y)AcAk"),
           ("+NEC", "-mAlI"), ("+NARR", "-mHş")],
    "J2D": [("+PAST", "-DH")],
    "J2S": [("+COND", "-sA")],
    "J3": [("+OPT", "-(y)A")],
    "J4": [("+AORS", "-(E)r")],
    "J5": [("+AORS", "-z")],
}

# --- predicative tails -------------------------------------------------------
# One string per formula term; a token with a lowercase first letter is an
# optional slot.  The empty term means the anchor itself accepts.

NOM_SG_PRED = [
    "l N1", "N1 M4", "l M4 k1", "L k1",       # present
    "l M1 N1", "l M1 k1",                      # inferential past
    "l M2 N3", "l M2 k1",                      # anterior past
    "M3 N3 l", "M3 k1 l",                      # conditional
]

NOM_PLU_PRED = [
    "l N1P", "N1P M4", "l M4", "L",            # present, plural agreement
    "l M1 n1p",                                # inferential past
    "l M2 n3p",                                # anterior past
    "M3 n3p l",                                # conditional
]

NOM_CASE_PRED = NOM_SG_PRED + ["K1 l m4", "K1 l M1", "K1 l M2"]

# Verb-final tails per tense/aspect subclass.  M4 combines with the first
# tense-aspect group only; -sA takes no second conditional.

_M_TAIL_FULL = [
    "k1 l M1", "l M1 K1", "l M1 N1",
    "k1 l M2", "l M2 k1", "l M2 K2",
    "k1 l M3", "l M3 K1", "k1 M3 L", "M3 K1 L", "l M3 K2", "M3 K2 l",
]
_M_TAIL_NO_COND = [t for t in _M_TAIL_FULL if "M3" not in t]

VERB_J1_TAIL = ["", "k1 l", "l N1"] + _M_TAIL_FULL + ["k1 l M4", "l M4 K1", "l N1 M4"]
VERB_J2D_TAIL = ["", "k1 l", "K2 l"] + _M_TAIL_FULL
VERB_J2S_TAIL = ["", "k1 l", "K2 l"] + _M_TAIL_NO_COND
VERB_J3_TAIL = ["", "k1 l", "K3 l"]
VERB_J4_TAIL = ["", "k1 l", "l N1"] + _M_TAIL_FULL
VERB_J5_TAIL = ["", "k1 l", "L N1", "N12", "N11 l"] + _M_TAIL_FULL

_TOKEN_ALIASES = {
    "k1": "K1", "l": "L", "m4": "M4", "n1p": "N1P", "n3p": "N3P",
    "n2": "N2",
}


def _sequences(term):
    """The concrete class sequences of one term: each optional slot taken,
    then left out."""
    seqs = [()]
    for tok in term.split():
        if tok in _TOKEN_ALIASES:
            seqs = [t for s in seqs for t in (s + (_TOKEN_ALIASES[tok],), s)]
        else:
            seqs = [s + (tok,) for s in seqs]
    return seqs


class _Grammar:
    def __init__(self):
        self.sublex = {}     # name -> list of (gloss, form, cont)
        self.order = []
        self.tails = {}      # frozenset of class sequences left to read -> name

    def lexicon(self, name):
        if name not in self.sublex:
            self.sublex[name] = []
            self.order.append(name)
        return name

    def tail(self, left):
        """The state from which exactly the class sequences `left` are left
        to read: # when only the empty one is, else one sublexicon shared by
        every anchor that reaches it, named by its index in the table."""
        if left == {()}:
            return "#"
        if left not in self.tails:
            self.tails[left] = self.lexicon("Tail%d" % (len(self.tails) + 1))
        return self.tails[left]

    def entry(self, state, gloss, form, cont):
        self.lexicon(state)
        item = (gloss, form, cont)
        if item not in self.sublex[state]:
            self.sublex[state].append(item)

    def accept(self, state):
        self.entry(state, "", "0", "#")

    def add_class(self, state, class_name, cont):
        for gloss, form in CLASSES[class_name]:
            self.entry(state, gloss, form, cont)

    def link(self, state, cont):
        self.entry(state, "", "0", cont)


def _add_terms(g, anchor, terms):
    """Compile term strings into the states past `anchor`, each named by the
    class sequences left to read from it (g.tail), so that anchors share
    their tails and each distinct tail is one sublexicon."""
    seqs = [(term, seq) for term in terms for seq in _sequences(term)]
    coverage = []
    for term, seq in seqs:
        if not term:
            coverage.append((anchor, "(accept)", "(empty)"))
        state = anchor
        for k, cname in enumerate(seq, 1):
            dst = g.tail(frozenset(s[k:] for _, s in seqs if s[:k] == seq[:k]))
            g.add_class(state, cname, dst)
            coverage.append((state, cname, term))
            state = dst
        if state != "#":
            g.accept(state)
    return coverage


def build_grammar():
    """The full suffix grammar; returns (_Grammar, coverage rows)."""
    g = _Grammar()
    cov = []

    def note(state, cname, formula):
        cov.append((state, cname, formula))

    # ---- nominal inflection -------------------------------------------------
    for s in ("NInfl", "NPlu", "NPossS", "NPossP", "NCase1", "NCase3",
              "NAcc", "NRel", "NRelPlu", "PronCase", "PronK1"):
        g.lexicon(s)
        g.accept(s)

    g.add_class("NInfl", "DERN", "NInfl"); note("NInfl", "DERN", "substantive derivation")
    g.add_class("NInfl", "PLU", "NPlu"); note("NInfl", "PLU", "F_Ni: b")
    g.add_class("NInfl", "POSS", "NPossS"); note("NInfl", "POSS", "F_Ni: c")
    g.add_class("NPlu", "POSS", "NPossP"); note("NPlu", "POSS", "F_Ni: Bc")
    for src in ("NInfl", "NPlu", "NPossS", "NPossP", "NRel", "NRelPlu"):
        g.add_class(src, "CASE1", "NCase1"); note(src, "CASE1", "F_Ni: D1")
        g.add_class(src, "CASE2", "NAcc"); note(src, "CASE2", "F_Ni: D2 (terminal)")
        g.add_class(src, "CASE3", "NCase3"); note(src, "CASE3", "F_Ni: D3")
    g.add_class("NCase1", "REL", "NRel"); note("NCase1", "REL", "F_Ni: D1 e (recursive)")
    g.add_class("NRel", "PLU", "NRelPlu"); note("NRel", "PLU", "F_Ni: E b D")

    cov += _add_terms(g, "NInfl", NOM_SG_PRED)
    cov += _add_terms(g, "NPossS", NOM_SG_PRED)
    cov += _add_terms(g, "NPlu", NOM_PLU_PRED)
    cov += _add_terms(g, "NPossP", NOM_PLU_PRED)
    cov += _add_terms(g, "NCase1", NOM_CASE_PRED)
    cov += _add_terms(g, "NCase3", NOM_CASE_PRED)

    # pronouns: case only; kendi also takes the third person possessive
    for cname, dst in (("CASE1", "NCase1"), ("CASE2", "NAcc"), ("CASE3", "NCase3")):
        g.add_class("PronCase", cname, dst); note("PronCase", cname, "pronoun + case")
    g.link("PronK1", "PronCase")
    g.add_class("PronK1", "P3POSS", "NPossS"); note("PronK1", "P3POSS", "kendi + POSS3s")

    # ---- verbal voice (F_D1) -----------------------------------------------
    # Both bases lead into the states after a reciprocal or reflexive (VRecp)
    # and after one, two and three causatives (VCaus1-3).
    for s in ("VoiceT", "VoiceI", "VRecp", "VCaus1", "VCaus2", "VCaus3",
              "VStem", "VStemNeg", "VStemNegAbil", "VStemAbil"):
        g.lexicon(s)

    def voice_base(base, caus_first):
        """base + optional recp/refl or causative + optional passive."""
        g.add_class(base, "RECP", "VRecp"); note(base, "RECP", "F_D1: B1")
        if caus_first == "CAUST":
            g.add_class(base, "REFL", "VRecp"); note(base, "REFL", "F_D1a: B2")
        g.add_class(base, caus_first, "VCaus1"); note(base, caus_first, "F_D1: T")
        g.add_class(base, "PASS", "VStem"); note(base, "PASS", "F_D1: f1")
        g.link(base, "VStem")
        g.add_class(base, "PASS2", "VStem"); note(base, "PASS2", "F_D1: f2")

    voice_base("VoiceT", "CAUST")
    voice_base("VoiceI", "CAUST2")
    g.add_class("VCaus1", "CAUSA", "VCaus2"); note("VCaus1", "CAUSA", "F_D1: T + D")
    note("VCaus1", "CAUSA", "F_D1: B t2 + D")
    g.add_class("VCaus2", "CAUSI", "VCaus3"); note("VCaus2", "CAUSI", "F_D1: T + D + E")
    note("VCaus2", "CAUSI", "F_D1: B t2 + D + E")
    g.add_class("VRecp", "CAUST2", "VCaus1"); note("VRecp", "CAUST2", "F_D1: (B1+B2) t2")
    for st in ("VRecp", "VCaus1", "VCaus2", "VCaus3"):
        g.add_class(st, "PASS", "VStem"); note(st, "PASS", "F_D1: f1")
        g.link(st, "VStem")

    # ---- F_D2 and the aorist length dependency ------------------------------
    g.accept("VStem")                      # bare stem: imperative 2nd singular
    g.add_class("VStem", "N2", "#"); note("VStem", "N2", "F_Vi4: n2")
    g.add_class("VStem", "NEG", "VStemNeg"); note("VStem", "NEG", "F_D2: h")
    g.add_class("VStem", "ABIL1", "VAbil"); note("VStem", "ABIL1", "F_D2: g (needs -mA)")
    g.add_class("VAbil", "NEG", "VStemNeg"); note("VAbil", "NEG", "F_D2: gH")
    g.add_class("VStem", "ABIL2", "VStemAbil"); note("VStem", "ABIL2", "F_D2: i")
    g.add_class("VStemNeg", "ABIL2", "VStemNegAbil"); note("VStemNeg", "ABIL2", "F_D2: (h+gH) i")

    for st in ("VStem", "VStemNeg", "VStemNegAbil", "VStemAbil"):
        g.add_class(st, "INF", "#"); note(st, "INF", "F_D + infinitive")

    jstates = {
        "J1": g.lexicon("VJ1"), "J2D": g.lexicon("VJ2D"), "J2S": g.lexicon("VJ2S"),
        "J3": g.lexicon("VJ3"), "J4": g.lexicon("VJ4"), "J5": g.lexicon("VJ5"),
    }
    # which stem flavours feed which tense/aspect subclass
    feeds = {
        "VStem": ("J1", "J2D", "J2S", "J3", "J4"),
        "VStemNeg": ("J1", "J2D", "J2S", "J3", "J5"),
        "VStemNegAbil": ("J1", "J2D", "J2S", "J3", "J4"),
        "VStemAbil": ("J1", "J2D", "J2S", "J3"),
    }
    for st, js in feeds.items():
        for j in js:
            g.add_class(st, j, jstates[j]); note(st, j, "F_Vi/F_Vi5: %s after %s" % (j, st))

    cov += _add_terms(g, "VJ1", VERB_J1_TAIL)
    cov += _add_terms(g, "VJ2D", VERB_J2D_TAIL)
    cov += _add_terms(g, "VJ2S", VERB_J2S_TAIL)
    cov += _add_terms(g, "VJ3", VERB_J3_TAIL)
    cov += _add_terms(g, "VJ4", VERB_J4_TAIL)
    cov += _add_terms(g, "VJ5", VERB_J5_TAIL)
    return g, cov


def build_lexicon_text():
    g, _ = build_grammar()
    lines = [
        "! Suffix grammar, generated from the ordering formulas in",
        "! morphotactics.py.  Do not edit by hand; regenerate with",
        "!     python -m twolevel.turkish.build",
        "",
    ]
    for name in g.order:
        lines.append("LEXICON %s" % name)
        for gloss, form, cont in g.sublex[name]:
            if gloss == form:
                head = gloss
            else:
                head = "%s:%s" % (gloss, form)
            lines.append("%s %s ;" % (head, cont))
        lines.append("")
    return "\n".join(lines)


def build_coverage_text():
    g, cov = build_grammar()
    lines = [
        "# formula term -> continuation edge coverage",
        "# state\tclass\tformula term",
    ]
    seen = set()
    for state, cname, formula in cov:
        row = "%s\t%s\t%s" % (state, cname, formula)
        if row not in seen:
            seen.add(row)
            lines.append(row)
    return "\n".join(lines) + "\n"
