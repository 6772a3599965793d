"""Seeded benchmark corpora built from the bundled Turkish data.

Every corpus is a plain JSON-ready dict, a pure function of the workload
name, the seed and the program's bundled description:

    words    surface words for analyze (cold pass, warm passes, CLI batch)
    origins  word -> [[lexical, gloss], ...] that every analysis must include
    generate [[lexical, [surface, ...]], ...] for validated generation; the
             listed surfaces must all be produced
    gloss    [[gloss, [surface, ...]], ...] for generate_from_gloss
    trace    words for engine.trace, whose verdict must agree with analyze

The program only ever sees these generated strings, never the seed.
"""

import hashlib
import json
import random
import re

WORKLOADS = ("edit-loop", "paths4", "oov")

PATHS_MORPHEMES = 4
PATHS_STRIDE = 40
GLOSS_SAMPLE = 2000
TRACE_SAMPLE = 400
OOV_PERTURBED = 3000
OOV_RANDOM = 3000


def parse_gloss(gloss):
    """'[ROOT=ev]+PLU+ABL' -> ('ev', ['PLU', 'ABL'])."""
    m = re.match(r"\[ROOT=([^\]]+)\](.*)$", gloss)
    if not m:
        raise ValueError("gloss without a root: %r" % gloss)
    return m.group(1), [t for t in m.group(2).split("+") if t]


def gloss_items(pairs):
    """[gloss, surfaces] pairs that generate_from_gloss can take: a gloss
    that is exactly [ROOT=root] followed by +TAG parts (a prefix such as
    [RUP] has no root/tags form)."""
    out = []
    for gloss, surfs in pairs:
        try:
            root, tags = parse_gloss(gloss)
        except ValueError:
            continue
        if gloss == "[ROOT=%s]" % root + "".join("+" + t for t in tags):
            out.append([gloss, surfs])
    return out


def paths4_slice(seed, desc, paths):
    """Every 40th 4-morpheme lexicon path from offset seed mod 40, each with
    its sorted generated surfaces: [[lexical, gloss, [surface, ...]], ...]."""
    from twolevel import engine

    return [[lex, gloss, engine.generate(lex, desc)]
            for lex, gloss in paths[seed % PATHS_STRIDE::PATHS_STRIDE]]


def slice_digest(entries):
    """SHA-256 of a paths4 slice; pinned per offset in expected.json."""
    text = "\n".join("%s\t%s\t%s" % (lex, gloss, ",".join(surfs))
                     for lex, gloss, surfs in entries)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def surface_alphabet(desc):
    """The letters that feasible pairs can realize on the surface."""
    return sorted({surf.name for _, surf in desc.alphabet.pairs
                   if len(surf.name) == 1 and surf.name.isalpha()})


def _edit(word, letters, rng):
    """One substitution, deletion or insertion of a letter; never a no-op."""
    while True:
        op = rng.randrange(3)
        j = rng.randrange(len(word) + (op == 2))
        if op == 0:
            out = word[:j] + rng.choice(letters) + word[j + 1:]
        elif op == 1:
            out = word[:j] + word[j + 1:]
        else:
            out = word[:j] + rng.choice(letters) + word[j:]
        if out and out != word:
            return out


def _golden(seed):
    from twolevel.turkish import golden_suite

    rng = random.Random(seed)
    cases = golden_suite()
    rng.shuffle(cases)
    words, origins, generate, gloss = [], {}, [], []
    for c in cases:
        if c.surface not in origins:
            words.append(c.surface)
            origins[c.surface] = []
        if c.polarity == "positive":
            origins[c.surface].append([c.lexical, c.gloss])
            generate.append([c.lexical, [c.surface]])
            gloss.append([c.gloss, [c.surface]])
    return {"words": words, "origins": {w: o for w, o in origins.items() if o},
            "generate": generate, "gloss": gloss_items(gloss), "trace": list(words)}


def _paths4(entries, rng):
    origins = {}
    for lex, gloss, surfs in entries:
        for s in surfs:
            origins.setdefault(s, []).append([lex, gloss])
    words = sorted(origins)
    rng.shuffle(words)
    glosses = gloss_items([gloss, surfs] for _, gloss, surfs in entries)
    return {"words": words, "origins": origins,
            "generate": [[lex, surfs] for lex, _, surfs in entries],
            "gloss": rng.sample(glosses, min(GLOSS_SAMPLE, len(glosses))),
            "trace": rng.sample(words, min(TRACE_SAMPLE, len(words)))}


def _oov(entries, letters, rng):
    known = [e for e in entries if e[2]]
    lengths = [len(s) for e in known for s in e[2]]
    words, seen, sources = [], set(), []
    while len(sources) < OOV_PERTURBED:
        lex, gloss, surfs = rng.choice(known)
        w = _edit(rng.choice(surfs), letters, rng)
        if w not in seen:
            seen.add(w)
            words.append(w)
            sources.append([lex, gloss, surfs])
    while len(words) < OOV_PERTURBED + OOV_RANDOM:
        w = "".join(rng.choice(letters) for _ in range(rng.choice(lengths)))
        if w not in seen:
            seen.add(w)
            words.append(w)
    rng.shuffle(words)
    glosses = gloss_items([gloss, surfs] for _, gloss, surfs in sources)
    return {"words": words, "origins": {},
            "generate": [[lex, surfs] for lex, _, surfs in sources],
            "gloss": rng.sample(glosses, min(GLOSS_SAMPLE, len(glosses))),
            "trace": rng.sample(words, min(TRACE_SAMPLE, len(words)))}


def build(workload, seed, desc, paths=None):
    """The corpus of one workload for one seed.

    `paths` is enumerate_paths(desc.lexicon, 4), passed in when the caller
    already has it; edit-loop does not need it.  Returns (corpus, slice
    digest or None).
    """
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    if workload == "edit-loop":
        corpus, digest = _golden(seed), None
    else:
        if paths is None:
            from twolevel.lexicon import enumerate_paths

            paths = enumerate_paths(desc.lexicon, PATHS_MORPHEMES)
        entries = paths4_slice(seed, desc, paths)
        digest = slice_digest(entries)
        rng = random.Random(seed)
        if workload == "paths4":
            corpus = _paths4(entries, rng)
        else:
            corpus = _oov(entries, surface_alphabet(desc), rng)
    corpus.update(workload=workload, seed=seed)
    return corpus, digest


def dumps(corpus):
    """Canonical bytes of a corpus (same seed, same bytes)."""
    return json.dumps(corpus, ensure_ascii=False, sort_keys=True).encode("utf-8")


def main():
    """Write expected.json: the paths4 slice digest of every offset, pinned
    from the commit this is run on.  Run from the root of a checkout:

        python3 bench/corpus.py
    """
    import sys
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from twolevel.lexicon import enumerate_paths
    from twolevel.turkish import load_turkish

    desc = load_turkish()
    paths = enumerate_paths(desc.lexicon, PATHS_MORPHEMES)
    pinned = {str(k): slice_digest(paths4_slice(k, desc, paths)) for k in range(PATHS_STRIDE)}
    (here / "expected.json").write_text(
        json.dumps({"paths4": pinned}, indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    main()
