"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def turkish():
    from twolevel.lexicon import enumerate_paths
    from twolevel.turkish import load_turkish

    desc = load_turkish()
    return desc, enumerate_paths(desc.lexicon, corpus.PATHS_MORPHEMES)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_corpus(turkish, workload):
    desc, paths = turkish
    a, da = corpus.build(workload, 7, desc, paths)
    b, db = corpus.build(workload, 7, desc, paths)
    assert corpus.dumps(a) == corpus.dumps(b)
    assert da == db


def test_other_seed_gives_other_paths4_slice(turkish):
    desc, paths = turkish
    a, da = corpus.build("paths4", 7, desc, paths)
    b, db = corpus.build("paths4", 8, desc, paths)
    assert da != db
    assert set(a["words"]) != set(b["words"])


def test_paths4_slice_matches_pinned_digest(turkish):
    desc, paths = turkish
    pinned = json.loads((BENCH / "expected.json").read_text("utf-8"))["paths4"]
    assert sorted(pinned, key=int) == [str(k) for k in range(corpus.PATHS_STRIDE)]
    _, digest = corpus.build("paths4", 45, desc, paths)
    assert digest == pinned["5"]


def _namespace_snapshot():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "twolevel" or name.startswith("twolevel."))}


def test_traced_run_restores_every_attribute():
    import twolevel.turkish as turkish
    from twolevel import engine

    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.install(WRAPPED + (("engine", "no_such_function"), ("no_such_module", "f")))
    assert set(tracer.absent) == {"engine.no_such_function", "no_such_module.f"}
    assert engine.analyze is not before["twolevel.engine"]["analyze"]
    desc = turkish.load_turkish(refresh=True)
    rt = engine.runtime(desc)
    tracer.patch_attr(rt, "step_vec", lambda *a: None)
    engine.analyze("evde", desc)
    engine.trace("kitapı", "analyze", desc)
    tracer.restore()
    after = _namespace_snapshot()
    # refresh=True rebinds the program's own description cache
    del before["twolevel.turkish"]["_cached"], after["twolevel.turkish"]["_cached"]
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, "%s.%s not restored" % (name, attr)
    assert "step_vec" not in vars(rt)
    names = {span[0] for span in tracer.spans}
    assert {"turkish.load_turkish", "rules.compile_rule", "dfa.compile_regex",
            "engine.analyze", "engine.trace", "engine.lexicon_covers"} <= names


def test_spec_names_and_units():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for m in SPEC[key]:
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher")
    assert [w["name"] for w in SPEC["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    for m in SPEC["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, key):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "edit-loop", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        assert "absent" not in metric, (name, metric)
    if trace:
        assert result["metrics"]["trace.compile_coverage"]["value"] >= 0.9


def test_run_fails_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "paths4", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
