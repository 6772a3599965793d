"""One benchmark process: set up the description, run one role, write JSON.

    python3 bench/worker.py --corpus FILE --role ROLE --out FILE
        [--share SECONDS] [--part K/N] [--trace] [--spans FILE]

Roles:
    golden  set up, then the golden suite (what `twolevel test` does)
    batch   set up, one cold analyze pass, then steady passes of analyze,
            validated generate, generate_from_gloss and trace until `share`
            seconds are spent (see STEADY)
    all     the batch role with no steady budget (each op makes its minimum
            passes), then the golden suite; with --trace the
            program's public functions are wrapped and per-layer numbers
            are reported

Each call is timed alone, both raw and scaled to the reference CPU speed
by probes around every chunk of calls (speed.py); the output keeps every
sample of every item.
"""

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import speed
from corpus import parse_gloss
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Steady phase of a batch worker: op, share of its seconds, passes at least,
# and whether the batch workers split the items between them (gloss and
# trace costs vary so much per item that more distinct items beat repeats).
STEADY = (("analyze", 0.35, 2, False), ("generate", 0.15, 4, False),
          ("gloss", 0.15, 3, True), ("trace", 0.35, 1, True))

# Calls between two CPU-speed probes (see speed.py).
CHUNK_NS = 150_000_000
GOLDEN_CHUNK = 20

# Layers whose spans count as compile work in setup.
COMPILE_LAYERS = ("symbols.", "pair_regex.", "rules.", "dfa.", "lexicon.",
                  "engine.compile_description", "engine.runtime")


class Ops:
    """The timed calls and their output checks."""

    def __init__(self, engine, desc, corpus):
        self.engine, self.desc = engine, desc
        self.origins = corpus["origins"]
        self.items = {
            "analyze": corpus["words"],
            "generate": corpus["generate"],
            "gloss": corpus["gloss"],
            "trace": corpus["trace"],
        }
        self.readings = {}      # word -> ["lexical\tgloss", ...] from the first pass
        self.first = {}         # (op, index) -> canonical output of the first pass
        self.lines = {op: [] for op in self.items}   # output digest lines, first passes
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def call(self, op, item):
        e, desc = self.engine, self.desc
        if op == "analyze":
            return e.analyze(item, desc)
        if op == "generate":
            return e.generate(item[0], desc, validate_morphotactics=True)
        if op == "gloss":
            root, tags = parse_gloss(item[0])
            return e.generate_from_gloss(root, tags, desc)
        return e.trace(item, "analyze", desc)

    def check(self, op, i, item, out, err):
        """Count one call; record its canonical output on the first pass."""
        self.attempted += 1
        if err is not None:
            return self.fail("%s(%r) raised %r" % (op, item, err))
        if op == "analyze":
            canon = ["%s\t%s" % (a.lexical, a.gloss) for a in out]
            lines = ["A\t%s\t%s" % (item, r) for r in canon] or ["A\t%s\t*NONE*" % item]
            missing = [o for o in self.origins.get(item, ()) if "%s\t%s" % tuple(o) not in canon]
            bad = missing and "analyze(%s) lacks %s" % (item, missing)
        elif op in ("generate", "gloss"):
            canon = list(out)
            tag = "G" if op == "generate" else "L"
            lines = ["%s\t%s\t%s" % (tag, item[0], s) for s in canon] or [
                "%s\t%s\t*NONE*" % (tag, item[0])]
            missing = sorted(set(item[1]) - set(canon))
            bad = missing and "%s(%s) lacks %s" % (op, item[0], missing)
        else:
            canon = [out.outcome.accepted, out.layer, out.blocking_rules()]
            lines = ["T\t%s\t%s\t%s" % (item, out.layer, ",".join(canon[2]))]
            analyzed = bool(self.readings.get(item))
            bad = canon[0] != analyzed and "trace(%s) accepted=%s but analyze found %d readings" % (
                item, canon[0], len(self.readings.get(item, ())))
        key = (op, i)
        if key not in self.first:
            self.first[key] = canon
            self.lines[op].extend(lines)
            if op == "analyze":
                self.readings[item] = canon
        elif self.first[key] != canon:
            bad = "%s(%r) changed between passes" % (op, item)
        if bad:
            return self.fail(bad)

    def fail(self, message):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def run_pass(self, op, samples, indices, tracer=None):
        """One pass over the op's items at `indices`, each call timed alone.
        A CPU-speed probe runs every CHUNK_NS; each call's time is appended
        to samples[index] as [raw ns, ns scaled by the probes around its
        chunk]."""
        items = self.items[op]
        clock = time.perf_counter_ns
        gc.collect()   # every pass starts from the same collector state
        before = speed.probe()
        i = 0
        while i < len(indices):
            start = clock()
            times = []
            while i + len(times) < len(indices) and clock() - start < CHUNK_NS:
                k = indices[i + len(times)]
                if tracer is not None:
                    tracer.cause = "%s:%d" % (op, k)
                out = err = None
                t = clock()
                try:
                    out = self.call(op, items[k])
                except Exception as e:   # counted as a failed operation, not a crash
                    err = e
                times.append(clock() - t)
                self.check(op, k, items[k], out, err)
            after = speed.probe()
            factor = speed.scale(before, after)
            for dt in times:
                samples[indices[i]].append([dt, dt * factor])
                i += 1
            before = after


def run_golden(turkish, desc, ops, tracer=None):
    """The golden suite in order, GOLDEN_CHUNK cases per run_suite call with
    a CPU-speed probe between calls; returns [raw s, scaled s]."""
    if tracer is not None:
        tracer.cause = "golden"
    cases = turkish.golden_suite()
    raw = scaled = 0.0
    before = speed.probe()
    for i in range(0, len(cases), GOLDEN_CHUNK):
        t = time.perf_counter()
        passed, failed = turkish.run_suite(desc, cases[i:i + GOLDEN_CHUNK])
        dt = time.perf_counter() - t
        after = speed.probe()
        raw += dt
        scaled += dt * speed.scale(before, after)
        before = after
        ops.attempted += passed + len(failed)
        for case, detail in failed:
            ops.fail("golden %s %s: %s" % (case.source, case.surface, detail))
    return [raw, scaled]


def vector_counts(rt):
    """(interned vectors, vec_trans entries) read from outside the runtime;
    None where it no longer has the attribute."""
    vec_list = getattr(rt, "vec_list", None)
    vec_trans = getattr(rt, "vec_trans", None)
    interned = len(vec_list) if isinstance(vec_list, list) else None
    entries = sum(len(d) for d in vec_trans) if isinstance(vec_trans, list) else None
    return interned, entries


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--role", choices=("golden", "batch", "all"), required=True)
    ap.add_argument("--share", type=float, default=0.0)
    ap.add_argument("--part", default="0/1", help="k/n: this is batch worker k of n")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="with --trace, write the spans here as JSON lines")
    args = ap.parse_args(argv)
    corpus = json.loads(Path(args.corpus).read_text("utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.trace else None

    before = speed.probe()
    t0 = time.perf_counter()
    import twolevel
    from twolevel import engine
    import twolevel.turkish as turkish
    if tracer is not None:
        tracer.install()
    desc = turkish.load_turkish()
    rt = engine.runtime(desc)
    t1 = time.perf_counter()
    if not Path(twolevel.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("twolevel imported from %s, not from this checkout" % twolevel.__file__)

    result = {"role": args.role,
              "setup": [t1 - t0, (t1 - t0) * speed.scale(before, speed.probe())]}
    ops = Ops(engine, desc, corpus)
    steps = [0]
    if tracer is not None:
        if callable(getattr(rt, "step_vec", None)):
            step_vec = rt.step_vec

            def counting_step_vec(*a):
                steps[0] += 1
                return step_vec(*a)

            tracer.patch_attr(rt, "step_vec", counting_step_vec)
        else:
            steps[0] = None
    entries0 = vector_counts(rt)[1]

    if args.role == "golden":
        result["golden"] = run_golden(turkish, desc, ops)
    else:
        times = {}
        times["cold"] = [[] for _ in ops.items["analyze"]]
        ops.run_pass("analyze", times["cold"], range(len(ops.items["analyze"])), tracer)
        part, parts = map(int, args.part.split("/"))
        passes = {}
        for op, frac, least, split in STEADY:
            count = len(ops.items[op])
            indices = range(part, count, parts) if split else range(count)
            times[op] = [[] for _ in range(count)]
            t = time.perf_counter()
            n = 0
            while n < least or time.perf_counter() - t < frac * args.share:
                ops.run_pass(op, times[op], indices, tracer)
                n += 1
            passes[op] = n
        result.update(times=times, passes=passes, readings=ops.readings,
                      lines={op: sorted(lines) for op, lines in ops.lines.items()})
        if args.role == "all":
            result["golden"] = run_golden(turkish, desc, ops, tracer)
    interned, entries1 = vector_counts(rt)

    if tracer is not None:
        tracer.restore()
        result["layers"] = layer_metrics(tracer, desc, ops, steps[0], interned,
                                         None if entries0 is None else entries1 - entries0)
        result["compile_coverage"] = tracer.covered(
            t0, t1, {s[0] for s in tracer.spans if s[0].startswith(COMPILE_LAYERS)}) / (t1 - t0)
        result["n_spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as f:
                for sp in tracer.spans:
                    f.write(json.dumps(sp) + "\n")
    result.update(attempted=ops.attempted, failed=ops.failed, failures=ops.failures)
    Path(args.out).write_text(json.dumps(result), "utf-8")


def layer_metrics(tracer, desc, ops, steps, interned, misses):
    """Per-layer numbers of a traced worker: name -> (value or None, reason)."""
    summary = tracer.summary()
    out = {}

    def span(metric, name, key):
        if name in tracer.absent:
            out[metric] = (None, tracer.absent[name])
        else:
            out[metric] = (summary.get(name, {}).get(key, 0), "")

    def attr(metric, fn):
        try:
            out[metric] = (fn(), "")
        except (AttributeError, TypeError) as e:
            out[metric] = (None, "description lacks it: %s" % e)

    span("symbols.parse_s", "symbols.parse_declarations", "total_s")
    attr("symbols.pairs", lambda: len(desc.alphabet))
    span("pair_regex.parse_calls", "pair_regex.parse_pair_regex", "calls")
    span("pair_regex.parse_s", "pair_regex.parse_pair_regex", "total_s")
    span("rules.parse_s", "rules.parse_rules_file", "self_s")
    span("rules.expand_s", "rules.expand_where", "total_s")
    attr("rules.ground", lambda: len(desc.ground_rules))
    span("lexicon.parse_s", "lexicon.parse_lexicon_file", "total_s")
    attr("lexicon.sublexicons", lambda: len(desc.lexicon.sublexicons))
    attr("lexicon.entries", lambda: sum(len(v) for v in desc.lexicon.sublexicons.values()))
    attr("rules.automata", lambda: len(desc.rule_automata))
    span("rules.compile_s", "rules.compile_rule", "total_s")
    span("rules.compile_max_s", "rules.compile_rule", "max_s")
    attr("rules.states", lambda: sum(ra.dfa.n_states for ra in desc.rule_automata))
    attr("rules.states_max", lambda: max(ra.dfa.n_states for ra in desc.rule_automata))
    span("dfa.compile_regex_calls", "dfa.compile_regex", "calls")
    span("dfa.compile_regex_self_s", "dfa.compile_regex", "self_s")
    for fn in ("minimize", "trim", "partition_for", "product"):
        span("dfa.%s_calls" % fn, "dfa." + fn, "calls")
        span("dfa.%s_s" % fn, "dfa." + fn, "total_s")
    span("engine.compile_description_s", "engine.compile_description", "total_s")
    span("engine.runtime_s", "engine.runtime", "max_s")   # the call that builds
    span("turkish.load_s", "turkish.load_turkish", "total_s")

    gone = "runtime has no %s"
    out["engine.vector_steps"] = (steps, "" if steps is not None else gone % "step_vec")
    out["engine.vector_misses"] = (misses, "" if misses is not None else gone % "vec_trans list")
    out["engine.miss_ratio"] = ((misses / steps, "") if misses is not None and steps
                                else (None, "needs vector_steps and vector_misses"))
    out["engine.interned_vectors"] = (interned, "" if interned is not None else gone % "vec_list")

    span("engine.analyze_calls", "engine.analyze", "calls")
    span("engine.analyze_s", "engine.analyze", "total_s")
    words = ops.readings
    out["engine.readings_per_word"] = (sum(map(len, words.values())) / len(words), "")
    out["engine.hit_ratio"] = (sum(1 for r in words.values() if r) / len(words), "")
    for fn in ("generate", "is_lexicon_path", "gloss_paths", "trace", "lexicon_covers"):
        span("engine.%s_calls" % fn, "engine." + fn, "calls")
        span("engine.%s_s" % fn, "engine." + fn, "total_s")
    return out


if __name__ == "__main__":
    main()
