import dataclasses
import gc
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import twolevel
from twolevel import engine
from twolevel.turkish import GoldenCase, load_turkish

SRC = Path(__file__).resolve().parents[1] / "src"

# Every run-path call on the bundled description in a fresh interpreter,
# then the modules it imported and whether anything was compiled.
RUN_PATH = textwrap.dedent("""
    import sys
    from twolevel import engine
    compiled = []
    compile_description = engine.compile_description
    engine.compile_description = lambda *args: compiled.append(args) or compile_description(*args)
    from twolevel.turkish import golden_suite, load_turkish, run_suite

    desc = load_turkish()
    assert engine.analyze("evde", desc)[0].gloss == "[ROOT=ev]+LOC"
    assert engine.generate("ev^-DA", desc, validate_morphotactics=True) == ["evde"]
    assert engine.generate_from_gloss("ev", ["LOC"], desc) == ["evde"]
    report = engine.trace("kitapı", "analyze", desc)
    assert report.layer == "rules" and report.blocking_rules() and report.steps
    report = engine.trace("ev^-DA", "generate", desc)
    assert report.outcome.accepted and report.steps
    assert engine.lexicon_covers("evde", desc) and not engine.lexicon_covers("xxxx", desc)
    assert engine.is_lexicon_path("ev^-DA", desc)
    assert run_suite(desc, golden_suite()[:20]) == (20, [])
    print(len(compiled), " ".join(sorted(sys.modules)))
""")

COMPILE_TIME = ("twolevel.rules", "twolevel.dfa", "twolevel.pair_regex", "twolevel.symbols",
                "twolevel.lexicon", "dataclasses", "pickle")


def test_the_run_path_imports_no_compiler():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC)] + sys.path)}
    proc = subprocess.run([sys.executable, "-c", RUN_PATH], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    compiled, modules = proc.stdout.split(" ", 1)
    modules = modules.split()
    assert "twolevel.engine" in modules and "twolevel.turkish" in modules
    assert [m for m in COMPILE_TIME if m in modules] == []
    assert compiled == "0"


def test_the_package_exports_the_compiler_on_demand():
    import twolevel.rules

    assert twolevel.__all__ == [
        "Analysis", "analyze", "generate", "generate_from_gloss", "trace",
        "parse_rules_file", "expand_where", "rule_holds", "compile_rule", "run_all",
        "parse_lexicon_file", "enumerate_paths", "derive_feasible_pairs",
        "__version__",
    ]
    assert twolevel.compile_rule is twolevel.rules.compile_rule
    assert all(getattr(twolevel, name) is not None for name in twolevel.__all__)
    from twolevel import enumerate_paths, parse_lexicon_file  # noqa: F401
    with pytest.raises(AttributeError):
        twolevel.compile_check_set
    # the constants the runtime keeps of its own equal the compiler's
    from twolevel import lexicon, symbols
    assert engine.NULL == symbols.NULL and engine.TERMINAL == lexicon.TERMINAL
    assert twolevel.rules.Verdict is engine.Verdict


# What the dataclasses that these classes were made of gave.
REFERENCE = {
    engine.Analysis: (("ev^", "[ROOT=ev]", (1, 2)), ("ev^", "[ROOT=ev]", (1,))),
    engine.TraceStep: ((3, "e:a", ["36.X"]), (3, "e:a", [])),
    engine.Verdict: ((False, [("1.X", 2, "A:a")]), (False, [])),
    GoldenCase: (("evde", "ev^-DA", "[ROOT=ev]+LOC", "positive", "x"),
                 ("evde", "ev^-DA", "[ROOT=ev]+LOC", "negative", "x")),
}


@pytest.mark.parametrize("cls", list(REFERENCE), ids=lambda cls: cls.__name__)
def test_the_plain_classes_act_as_their_dataclasses(cls):
    ref = dataclasses.make_dataclass(cls.__name__, cls.__slots__)
    args, other = REFERENCE[cls]
    obj = cls(*args)
    assert repr(obj) == repr(ref(*args))
    assert obj == cls(*args) and obj != cls(*other)
    assert (ref(*args) == ref(*other)) is False
    assert obj.__eq__(ref(*args)) is NotImplemented and (obj == args) is False
    with pytest.raises(TypeError):
        hash(obj)
    assert not hasattr(obj, "__dict__") and not dataclasses.is_dataclass(obj)
    assert engine.Verdict(True) == engine.Verdict(True, [])


def test_a_description_is_a_plain_class(turkish):
    assert not hasattr(turkish, "__dict__") and not dataclasses.is_dataclass(turkish)
    with pytest.raises(TypeError):
        hash(turkish)
    desc = engine.Description(turkish.declarations, turkish.alphabet, turkish.rule_automata,
                              turkish.ground_rules, turkish.lexicon)
    assert repr(desc) == repr(turkish) and repr(desc).startswith("Description(declarations=")
    # equal parts, but no tables and no runtime yet
    assert desc != turkish
    with pytest.raises(AttributeError):
        desc.no_such_part


def test_a_loaded_description_compares_and_shows_its_tables_without_compiling():
    from twolevel import turkish as tk

    calls = []
    a, b = tk._load_artifact(), tk._load_artifact()
    a._source = b._source = lambda: calls.append(None)
    n = len(a.tables["automata"])
    assert repr(a) == repr(b) == "Description.from_tables(<run tables of %d automata>)" % n
    assert a == b and not a != b
    b.tables = {**b.tables, "composed": 0}
    assert a != b
    assert calls == []
    # once compiled, the parts decide again
    compiled = tk._load_artifact()
    compiled.lexicon
    assert compiled._source is None and compiled == a and a == compiled
    assert repr(compiled).startswith("Description(declarations=")


def test_one_collection_untracks_the_loaded_tables():
    # the shipped tables hold no container that a collection cannot
    # untrack, and neither do the runtime's trie and bundles built on them
    desc = load_turkish(refresh=True)
    rt = engine.runtime(desc)
    gc.collect()
    tables = desc.tables
    rows = [*tables["rows"], *tables["vectors"],
            *(key for keys in tables["bundles"] for key in keys),
            *(entry for entries in tables["entries"].values() for entry in entries),
            *(row for a in tables["automata"] for row in a[2]),
            *(a[1] for a in tables["automata"])]
    trie = rt.trie
    entries = [*trie.arcs, *trie.complete, *trie.moves, *trie.dels]
    deltas = [row for bundle in rt.bundles for delta in bundle.deltas for row in delta]
    assert len(rows) > 5000 and len(entries) > 4 * 1500 and len(deltas) > 1800
    assert [x for x in rows + entries + deltas if gc.is_tracked(x)] == []


def test_threads_that_race_compile_the_parts_once():
    desc = load_turkish(refresh=True)
    source, compiled = desc._source, []

    def counted():
        compiled.append(None)
        return source()

    desc._source = counted
    barrier = threading.Barrier(4)
    results = [None] * 4

    def worker(k):
        barrier.wait()
        results[k] = (desc.lexicon, desc.alphabet)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(compiled) == 1
    assert all(r[0] is results[0][0] and r[1] is results[0][1] for r in results)
    assert engine.runtime(desc).tables is desc.tables
