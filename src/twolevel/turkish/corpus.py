"""The golden corpus: worked forms with their lexical strings and glosses.

Stored as TSV with columns surface, lexical, gloss, polarity, source.
Negative rows with a gloss are morphotactic rejections (the gloss path must
not exist); negative rows without one are phonological (no analysis at all).
"""

import re
from importlib import resources

from .. import engine


class GoldenCase(engine._Record):
    __slots__ = ("surface", "lexical", "gloss", "polarity", "source")

    def __init__(self, surface, lexical, gloss, polarity, source):
        self.surface = surface
        self.lexical = lexical
        self.gloss = gloss
        self.polarity = polarity    # positive | negative | negative:rules | negative:lexicon
        self.source = source

    @property
    def layer(self):
        if self.polarity == "positive":
            return "none"
        if ":" in self.polarity:
            return self.polarity.split(":", 1)[1]
        return "lexicon" if self.gloss else "any"


def golden_suite():
    text = resources.files("twolevel.turkish.data").joinpath("golden.tsv").read_text("utf-8")
    cases = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ValueError("bad corpus row: %r" % line)
        cases.append(GoldenCase(*cols))
    return cases


def _gloss_root_tags(gloss):
    m = re.match(r"\[ROOT=([^\]]+)\](.*)$", gloss)
    if not m:
        raise ValueError("gloss without a root: %r" % gloss)
    tags = [t for t in m.group(2).split("+") if t]
    return m.group(1), tags


def run_case(case, desc):
    """Check one corpus case; returns (ok, detail)."""
    if case.polarity == "positive":
        surfaces = engine.generate(case.lexical, desc, validate_morphotactics=True)
        if case.surface not in surfaces:
            return False, "generate(%s) -> %s, missing %r" % (
                case.lexical, surfaces or "[]", case.surface)
        analyses = engine.analyze(case.surface, desc)
        for a in analyses:
            if a.lexical == case.lexical and a.gloss == case.gloss:
                return True, ""
        return False, "analyze(%s) lacks (%s, %s); got %s" % (
            case.surface, case.lexical, case.gloss,
            [(a.lexical, a.gloss) for a in analyses])

    # negative
    if case.gloss:
        root, tags = _gloss_root_tags(case.gloss)
        try:
            engine.generate_from_gloss(root, tags, desc)
        except engine.MorphotacticsError:
            pass
        else:
            return False, "gloss path %s unexpectedly exists" % case.gloss
        for a in engine.analyze(case.surface, desc):
            if a.gloss == case.gloss:
                return False, "analyze(%s) yields starred reading %s" % (
                    case.surface, case.gloss)
        return True, ""
    if case.lexical:
        # the starred morpheme sequence must not be a lexicon path
        if engine.is_lexicon_path(case.lexical, desc):
            return False, "starred path %s unexpectedly exists" % case.lexical
        if engine.analyze(case.surface, desc):
            return False, "starred %r analyzed" % case.surface
        return True, ""
    analyses = engine.analyze(case.surface, desc)
    if analyses:
        return False, "starred %r analyzed as %s" % (
            case.surface, [(a.lexical, a.gloss) for a in analyses])
    if case.layer in ("rules", "lexicon"):
        report = engine.trace(case.surface, "analyze", desc)
        if report.layer != case.layer:
            return False, "trace(%s) blames %s, expected %s" % (
                case.surface, report.layer, case.layer)
    return True, ""


def run_suite(desc, cases=None):
    """Run the whole corpus; returns (passed, failed list of (case, detail))."""
    failed = []
    cases = cases if cases is not None else golden_suite()
    for case in cases:
        ok, detail = run_case(case, desc)
        if not ok:
            failed.append((case, detail))
    return len(cases) - len(failed), failed
