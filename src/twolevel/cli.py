"""Command-line front end.

    twolevel analyze evde
    twolevel generate "ev^-DA"
    twolevel analyze --input words.txt --stats
    twolevel test
    twolevel trace kitapı
    twolevel syllabify gazete
    twolevel compile --rules my.twol --lexicon roots.lex --lexicon grammar.lex

Output is line-oriented UTF-8: analyze prints the word, then one
"lexical<TAB>gloss" line per reading (or *NONE*); generate prints one
surface form per line.  Exit codes: 0 ok, 1 failures or (with --strict)
no-parses, 2 usage or description errors.
"""

import argparse
import sys
import time
from pathlib import Path

from . import engine
from .turkish import compile_turkish, load_description, load_turkish, run_suite
from .turkish.syllabify import SyllabifyError, syllabify_first


def _build_parser():
    p = argparse.ArgumentParser(prog="twolevel",
                                description="two-level morphological analyzer/generator")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, batch=True):
        sp.add_argument("--rules", help="rules file (default: bundled Turkish)")
        sp.add_argument("--lexicon", action="append", default=[],
                        help="lexicon file, repeatable (default: bundled Turkish)")
        if batch:
            sp.add_argument("word", nargs="*", help="words; empty with --input/- for stdin")
            sp.add_argument("--input", help="batch input file, '-' for standard input")
            sp.add_argument("--stats", action="store_true",
                            help="print words/second, the runtime cache sizes and the"
                                 " set-up times")
            sp.add_argument("--strict", action="store_true",
                            help="exit 1 when any word has no output")

    sp = sub.add_parser("analyze", help="surface words -> lexical/gloss readings")
    add_common(sp)
    sp.add_argument("--trace", action="store_true", help="trace failures")
    sp = sub.add_parser("generate", help="lexical strings -> surface forms")
    add_common(sp)
    sp.add_argument("--validate-morphotactics", action="store_true",
                    help="require the lexical string to be a lexicon path")
    sp.add_argument("--trace", action="store_true", help="trace failures")
    sp = sub.add_parser("compile", help="compile a description and report sizes")
    add_common(sp, batch=False)
    sp = sub.add_parser("test", help="run the golden corpus")
    add_common(sp, batch=False)
    sp = sub.add_parser("trace", help="explain why a word fails")
    add_common(sp, batch=False)
    sp.add_argument("word")
    sp.add_argument("--direction", choices=("analyze", "generate"), default="analyze")
    sp = sub.add_parser("syllabify", help="insert the first-syllable marker")
    sp.add_argument("word", nargs="*")
    sp.add_argument("--input", help="batch input file, '-' for standard input")
    return p


def _load(args):
    rules = getattr(args, "rules", None)
    lexicons = getattr(args, "lexicon", [])
    if not rules and not lexicons:
        # compile times a real compile, not a load of the shipped artifact
        return compile_turkish() if args.command == "compile" else load_turkish()
    if not rules or not lexicons:
        raise SystemExit2("--rules and --lexicon must be given together")
    texts = [Path(path).read_text(encoding="utf-8") for path in lexicons]
    return load_description(Path(rules).read_text(encoding="utf-8"), texts)


class SystemExit2(Exception):
    pass


def _words(args):
    words = list(args.word)
    if getattr(args, "input", None):
        if args.input == "-":
            words.extend(line.strip() for line in sys.stdin if line.strip())
        else:
            with open(args.input, encoding="utf-8") as stream:
                words.extend(line.strip() for line in stream if line.strip())
    if not words:
        raise SystemExit2("no input words")
    return words


def _batch(args, fn, desc, setup):
    words = _words(args)
    t0 = time.perf_counter()
    results = [fn(w) for w in words]
    dt = time.perf_counter() - t0
    misses = 0
    for block in results:
        text, found = block
        sys.stdout.write(text)
        if not found:
            misses += 1
    if args.stats:
        rate = len(words) / dt if dt > 0 else float("inf")
        sys.stderr.write("%d words in %.2fs: %.0f words/sec\n" % (len(words), dt, rate))
        sizes = engine.runtime(desc).cache_sizes()
        sys.stderr.write("runtime caches: %s\n"
                         % ", ".join("%d %s" % (n, name) for name, n in sizes.items()))
        sys.stderr.write("set-up: description load %.4fs, runtime build %.4fs\n" % setup)
    return 1 if (args.strict and misses) else 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SystemExit2, OSError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def _blocked(word, direction, desc):
    """The --trace line of a word without output."""
    report = engine.trace(word, direction, desc)
    return "! blocked at %s layer: %s" % (report.layer, "; ".join(report.blocking_rules()) or "-")


def _dispatch(args):
    if args.command == "syllabify":
        words = _words(args)
        for w in words:
            try:
                print(syllabify_first(w))
            except SyllabifyError as e:
                sys.stderr.write("error: %s\n" % e)
                return 2
        return 0

    t0 = time.perf_counter()
    desc = _load(args)
    t1 = time.perf_counter()
    engine.runtime(desc)
    # a compile builds the runtime itself, within the load time
    setup = (t1 - t0, time.perf_counter() - t1)

    if args.command == "analyze":
        def run(word):
            analyses = engine.analyze(word, desc)
            lines = [word]
            if analyses:
                lines += ["%s\t%s" % (a.lexical, a.gloss) for a in analyses]
            else:
                lines.append("*NONE*")
                if args.trace:
                    lines.append(_blocked(word, "analyze", desc))
            return "\n".join(lines) + "\n", bool(analyses)
        return _batch(args, run, desc, setup)

    if args.command == "generate":
        def run(word):
            try:
                outs = engine.generate(word, desc, args.validate_morphotactics)
            except engine.TokenError as e:
                return "*NONE*\t%s\n" % e, False
            if outs:
                return "".join(o + "\n" for o in outs), True
            lines = ["*NONE*"]
            if args.trace:
                # trace judges the string unvalidated, which passes some non-paths
                if args.validate_morphotactics and not engine.is_lexicon_path(word, desc):
                    lines.append("! blocked at lexicon layer: -")
                else:
                    lines.append(_blocked(word, "generate", desc))
            return "\n".join(lines) + "\n", False
        return _batch(args, run, desc, setup)

    if args.command == "compile":
        n_states = sum(ra.dfa.n_states for ra in desc.rule_automata)
        print("feasible pairs: %d" % len(desc.alphabet))
        print("ground rules: %d" % len(desc.ground_rules))
        print("constraint automata: %d (%d states)" % (len(desc.rule_automata), n_states))
        print("sublexicons: %d" % len(desc.lexicon.sublexicons))
        print("compile time: %.3fs" % setup[0])
        largest = max(desc.rule_automata, key=lambda ra: ra.dfa.n_states, default=None)
        if largest is not None:
            print("largest automaton: %d states (%s)" % (largest.dfa.n_states, largest.name))
        # the walk of the composition found it (engine._Runtime.walk)
        print("loops that read no surface character: %s"
              % ("some" if desc.tables["eps_loop"] else "none"))
        return 0

    if args.command == "test":
        passed, failed = run_suite(desc)
        for case, detail in failed:
            print("FAIL [%s] %s: %s" % (case.source, case.surface, detail))
        total = passed + len(failed)
        print("%d/%d corpus cases pass" % (passed, total))
        return 0 if not failed else 1

    if args.command == "trace":
        report = engine.trace(args.word, args.direction, desc)
        if report.outcome.accepted:
            print("%s: accepted" % args.word)
        else:
            print("%s: rejected at the %s layer" % (args.word, report.layer))
            for name in report.blocking_rules():
                print("  blocking rule: %s" % name)
        deepest = max((s.position for s in report.steps), default=0)
        shown = [s for s in report.steps if s.position >= deepest - 1]
        for step in shown:
            print("  pos %d pair %s died: %s" % (step.position, step.pair, "; ".join(step.died)))
        return 0 if report.outcome.accepted else 1

    raise SystemExit2("unknown command %r" % args.command)


if __name__ == "__main__":
    sys.exit(main())
