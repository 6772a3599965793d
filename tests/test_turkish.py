import fnmatch
import hashlib
import marshal
from importlib import resources
from pathlib import Path

import pytest

from twolevel import engine, enumerate_paths, turkish as tk
from twolevel.turkish import golden_suite, load_turkish, run_suite
from twolevel.turkish import morphotactics as mt
from twolevel.turkish.morphotactics import build_coverage_text, build_lexicon_text
from twolevel.turkish.syllabify import SyllabifyError, syllabify_first


def test_load_is_cached():
    assert load_turkish() is load_turkish()


def test_ground_rule_count(turkish):
    assert len(turkish.ground_rules) >= 52


def test_lexicon_contains_listed_roots(turkish):
    forms = {e.form_text(): e.gloss
             for entries in turkish.lexicon.sublexicons.values() for e in entries}
    assert forms.get("za^bHt") == "[ROOT=zabit]"
    assert forms.get("göK^") == "[ROOT=gök]"
    assert forms.get("hu^kuq") == "[ROOT=hukuk]"
    assert forms.get("ga^zete") == "[ROOT=gazete]"
    assert forms.get("tuz^") == "[ROOT=tuz]"


def test_every_correspondence_is_declared(turkish):
    # transcription completeness: the pair alphabet equals the declared
    # special correspondences plus identity pairs, nothing rule-derived
    decls = turkish.declarations
    declared = {(s.name, s.name) for s in decls.identity}
    declared |= {(l.name, s.name) for l, s in decls.declared_pairs}
    derived = {(l.name, s.name) for l, s in turkish.alphabet.pairs}
    assert derived == declared


def test_where_expansion_counts(turkish):
    # rule 15 expands to three ground rules, the SIC deletion to three
    by_name = {}
    for ra in turkish.ground_rules:
        by_name.setdefault(ra.name, []).append(ra)
    assert len(by_name["15.Final Stop Devoicing"]) == 3
    assert len(by_name["22.SIC-DELETION (n,s,y):0"]) == 3
    assert len(by_name["23.SIV-DELETION (H,A,E):0"]) == 3
    assert len(by_name["24.Lexeme-final vowel replaced by the -Hyor vowel"]) == 11


def test_bundled_lexicon_language_is_pinned(turkish):
    # the lexical strings and glosses of every path of up to four morphemes;
    # a change to how the suffix grammar is compiled must keep them
    paths = enumerate_paths(turkish.lexicon, 4)
    assert len(paths) == 244546
    digest = hashlib.sha256("\n".join("%s\t%s" % p for p in paths).encode("utf-8"))
    assert digest.hexdigest() == (
        "cc00db9d67794947468266f437ee3393ecb9fc5797b2a542b05a6fb54570e42b")
    assert turkish.lexicon.unreachable() == []


def test_suffix_grammar_file_is_fresh():
    committed = resources.files("twolevel.turkish.data").joinpath(
        "suffix_grammar.lex").read_text("utf-8")
    assert committed == build_lexicon_text()


def test_artifact_is_fresh():
    # compared by the tables, not by bytes: marshal writes an object that
    # two tables share once, so equal tables may marshal to other bytes
    committed = resources.files("twolevel.turkish.data").joinpath(tk.ARTIFACT).read_bytes()
    key = tk.artifact_key()
    stale = "the shipped description is stale: run python -m twolevel.turkish.build"
    assert committed.startswith(key), stale
    assert marshal.loads(committed[len(key):]) == tk.compile_turkish().tables, stale


def test_the_trie_tables_do_not_depend_on_string_hashing():
    # a trie node's surface index lists its codes in order, in the shipped
    # tables and in a fresh build, so that the artifact's bytes do not vary
    # with the hash seed of the process that built it
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    fresh = engine._Trie({"entries": desc.tables["entries"]}, rt.pairs_by_lex, rt.surf, rt.codes)
    for moves in (fresh.moves, desc.tables["trie"][3]):
        assert len(moves) > 1000 and all(list(row) == sorted(row) for row in moves)


def test_the_lazy_parts_give_the_shipped_tables():
    # the parts that the bundled description compiles on first read
    # describe the run tables that it ships
    shipped = load_turkish(refresh=True)
    assert shipped._runtime is None and "rows" in shipped.tables
    desc = engine.Description(shipped.declarations, shipped.alphabet, shipped.rule_automata,
                              shipped.ground_rules, shipped.lexicon)
    assert desc.tables is None
    assert engine.runtime(desc).tables == shipped.tables
    assert desc.tables is engine.runtime(desc).tables


def test_load_reads_the_current_artifact_without_compiling(monkeypatch):
    monkeypatch.setattr(tk, "_cached", tk._cached)

    def no_compile(*args):
        raise AssertionError("compiled although the artifact is current")

    monkeypatch.setattr(engine, "compile_description", no_compile)
    desc = load_turkish(refresh=True)
    assert desc._runtime is None
    assert load_turkish(refresh=True) is not desc


@pytest.mark.parametrize("stale", [
    ("artifact_key", lambda: b"twolevel-turkish sha256:0\n"),
    ("ARTIFACT", "missing.tables"),
])
def test_load_compiles_when_the_artifact_is_stale_or_missing(monkeypatch, stale):
    monkeypatch.setattr(tk, "_cached", tk._cached)
    shipped = load_turkish(refresh=True)
    compiled = []
    compile_description = engine.compile_description

    def counted(*args):
        compiled.append(args)
        return compile_description(*args)

    monkeypatch.setattr(engine, "compile_description", counted)
    monkeypatch.setattr(tk, *stale)
    desc = load_turkish(refresh=True)
    assert len(compiled) == 1
    assert ([ra.dfa.dump() for ra in desc.rule_automata]
            == [ra.dfa.dump() for ra in shipped.rule_automata])
    passed, failed = run_suite(desc)
    assert (passed, failed) == (len(golden_suite()), [])
    assert run_suite(shipped) == (passed, failed)


def test_package_data_covers_every_data_file():
    # without the globs an installed wheel lacks the artifact and compiles
    # on every start
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text("utf-8"))[
        "tool"]["setuptools"]["package-data"]["twolevel.turkish.data"]
    names = [f.name for f in resources.files("twolevel.turkish.data").iterdir()
             if f.is_file() and f.name != "__init__.py"]
    assert tk.ARTIFACT in names
    for name in names:
        assert any(fnmatch.fnmatch(name, g) for g in globs), name


def test_coverage_matrix_is_fresh():
    committed = resources.files("twolevel.turkish.data").joinpath(
        "coverage_matrix.txt").read_text("utf-8")
    assert committed == build_coverage_text()
    # every formula class named in the matrix maps to at least one edge
    rows = [r for r in committed.splitlines() if r and not r.startswith("#")]
    assert len(rows) > 100


def test_coverage_matrix_covers_every_tail_term():
    # each class of each term of a tail table labels some edge of the matrix
    covered = {tuple(r.split("\t")[1:]) for r in build_coverage_text().splitlines()
               if r and not r.startswith("#")}
    tables = (mt.NOM_SG_PRED, mt.NOM_PLU_PRED, mt.NOM_CASE_PRED, mt.VERB_J1_TAIL,
              mt.VERB_J2D_TAIL, mt.VERB_J2S_TAIL, mt.VERB_J3_TAIL, mt.VERB_J4_TAIL,
              mt.VERB_J5_TAIL)
    for term in {t for table in tables for t in table}:
        for tok in term.split():
            assert (mt._TOKEN_ALIASES.get(tok, tok), term) in covered, (tok, term)


def test_syllabify_examples():
    assert syllabify_first("gazete") == "ga^zete"
    assert syllabify_first("tuz") == "tuz^"
    assert syllabify_first("elbise") == "el^bise"
    assert syllabify_first("araba") == "a^raba"
    assert syllabify_first("yurtdışı") == "yurt^dışı"


def test_syllabify_requires_vowel():
    with pytest.raises(SyllabifyError):
        syllabify_first("krk")


def test_golden_suite_shape():
    cases = golden_suite()
    positives = [c for c in cases if c.polarity == "positive"]
    negatives = [c for c in cases if c.polarity != "positive"]
    assert len(positives) >= 60
    assert len(negatives) >= 8
    sources = {c.source for c in cases}
    for needed in ("18a", "33b", "36a", "38", "39a", "32a", "42c", "55a", "26b", "27d"):
        assert needed in sources, needed


def test_negative_layers_annotated():
    for case in golden_suite():
        if case.polarity.startswith("negative"):
            assert case.layer in ("rules", "lexicon", "any")


def test_vowel_harmony_progressive_example(turkish):
    # each harmonizing vowel copies backness from the nearest realized vowel
    assert engine.generate("ev^-(s)HN-DA-sHnHz", turkish) == ["evindesiniz"]


def test_acute_roots_front_harmony(turkish):
    assert engine.generate("saát-lAr", turkish) == ["saatler"]
    assert engine.generate("alkól-sHz", turkish) == ["alkolsüz"]
    assert engine.generate("usúl-(y)A", turkish) == ["usule"]


def test_aorist_thirteen_root_shapes(turkish):
    assert engine.generate("geL^-(E)r", turkish) == ["gelir"]
    assert engine.generate("vuR^-(E)r", turkish) == ["vurur"]
    assert engine.generate("saN^-(E)r", turkish) == ["sanır"]
    assert engine.generate("bak^-(E)r", turkish) == ["bakar"]
    assert engine.generate("iç^-(E)r", turkish) == ["içer"]
    assert engine.generate("o^ku-(E)r", turkish) == ["okur"]
