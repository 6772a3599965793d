"""The bundled Turkish description: rules, lexicon, corpus, utilities."""

import hashlib
import marshal
from importlib import resources

from .. import engine
from .corpus import GoldenCase, golden_suite, run_case, run_suite
from .syllabify import SyllabifyError, syllabify_first

_cached = None

# The compiled description shipped as package data: a one-line key, then
# the marshalled run tables of the description compiled from the texts below.
ARTIFACT = "turkish.tables"
_TEXTS = ("rules.twol", "roots.lex", "suffix_grammar.lex")
# The modules a compile runs through, relative to the twolevel package.
_SOURCES = ("symbols.py", "pair_regex.py", "rules.py", "dfa.py", "lexicon.py",
            "engine.py", "turkish/__init__.py")


def _data(name):
    return resources.files("twolevel.turkish.data").joinpath(name).read_text("utf-8")


def load_description(rules_text, lexicon_texts):
    """Compile a description from rules-file text and lexicon file texts."""
    from .. import rules as rulemod
    from ..lexicon import Lexicon, parse_lexicon_file
    from ..symbols import derive_feasible_pairs
    decls, rules = rulemod.parse_rules_file(rules_text)
    ground = []
    for r in rules:
        ground.extend(rulemod.expand_where(r))
    alphabet = derive_feasible_pairs(decls, ground)
    _check_declared(decls, alphabet)
    lexicon = Lexicon(table=decls.table)
    for text in lexicon_texts:
        parse_lexicon_file(text, lexicon)
    desc = engine.compile_description(decls, ground, lexicon, alphabet)
    return desc


def _check_declared(decls, alphabet):
    """Transcription completeness: every pair a rule correspondence denotes
    must be declared in the ALPHABET (identities included)."""
    declared = set()
    for s in decls.identity:
        declared.add((s.name, s.name))
    for lex, surf in decls.declared_pairs:
        declared.add((lex.name, surf.name))
    extra = [
        "%s:%s" % (lex.name, surf.name)
        for lex, surf in alphabet.pairs
        if (lex.name, surf.name) not in declared
    ]
    if extra:
        raise engine.DescriptionError(
            "rule correspondences use undeclared pairs: %s" % ", ".join(sorted(extra))
        )


def compile_turkish():
    """Compile the bundled description from its texts."""
    rules_text, *lexicon_texts = (_data(name) for name in _TEXTS)
    return load_description(rules_text, lexicon_texts)


def artifact_key():
    """The first line of a current artifact: a SHA-256 over the bundled
    texts and the source of every module a compile runs through, so that
    an edit to any of them without a rebuild never loads."""
    package = resources.files("twolevel")
    paths = [package / "turkish" / "data" / name for name in _TEXTS]
    paths += [package / name for name in _SOURCES]
    digest = hashlib.sha256()
    for path in paths:
        data = path.read_bytes()
        digest.update(b"%d\n" % len(data))
        digest.update(data)
    return b"twolevel-turkish sha256:%s\n" % digest.hexdigest().encode("ascii")


def artifact_bytes():
    """The artifact as ``python -m twolevel.turkish.build`` writes it."""
    return artifact_key() + marshal.dumps(compile_turkish().tables)


def _load_artifact():
    """The shipped Description, or None when the file is missing or its key
    is not the current one.  Nothing is unmarshalled before the key matches."""
    try:
        raw = resources.files("twolevel.turkish.data").joinpath(ARTIFACT).read_bytes()
        # an installation without the module sources cannot check the key
        key = artifact_key()
    except FileNotFoundError:
        return None
    if raw.startswith(key):
        tables = marshal.loads(memoryview(raw)[len(key):])
        return engine.Description.from_tables(tables, compile_turkish)


def load_turkish(refresh=False):
    """The bundled description (loaded once, shared read-only): the shipped
    artifact when it is current, else a compile of the texts.  With
    ``refresh`` a new Description with an empty runtime is read."""
    global _cached
    if _cached is None or refresh:
        desc = _load_artifact()
        _cached = desc if desc is not None else compile_turkish()
    return _cached
