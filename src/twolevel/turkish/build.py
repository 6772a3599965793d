"""Regenerate the committed suffix grammar, its coverage matrix and the
compiled description shipped as package data.

    python -m twolevel.turkish.build
"""

from pathlib import Path

from . import ARTIFACT, artifact_bytes
from .morphotactics import build_coverage_text, build_lexicon_text


def main():
    data = Path(__file__).parent / "data"
    (data / "suffix_grammar.lex").write_text(build_lexicon_text(), encoding="utf-8")
    (data / "coverage_matrix.txt").write_text(build_coverage_text(), encoding="utf-8")
    # compiled after the grammar is written, so the artifact is keyed by it
    (data / ARTIFACT).write_bytes(artifact_bytes())
    for name in ("suffix_grammar.lex", "coverage_matrix.txt", ARTIFACT):
        print("wrote", data / name)


if __name__ == "__main__":
    main()
