"""Bidirectional two-level morphological analyzer/generator.

A compiler from two-level phonological rules and continuation-class
lexicons to parallel finite-state constraint automata, with a complete
Turkish description bundled under twolevel.turkish.  The compiler's names
are imported from their modules on first use, so that analysis with a
compiled description never loads the compiler.
"""

import importlib

from .engine import Analysis, analyze, generate, generate_from_gloss, trace

__version__ = "0.1.0"

# name -> the module that defines it
_COMPILER = {
    "parse_rules_file": "rules", "expand_where": "rules", "rule_holds": "rules",
    "compile_rule": "rules", "run_all": "rules",
    "parse_lexicon_file": "lexicon", "enumerate_paths": "lexicon",
    "derive_feasible_pairs": "symbols",
}

__all__ = [
    "Analysis", "analyze", "generate", "generate_from_gloss", "trace",
    "parse_rules_file", "expand_where", "rule_holds", "compile_rule", "run_all",
    "parse_lexicon_file", "enumerate_paths", "derive_feasible_pairs",
    "__version__",
]


def __getattr__(name):
    if name not in _COMPILER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _COMPILER[name], __name__), name)
