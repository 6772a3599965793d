"""Spans around the program's public functions, installed from outside.

The tracer replaces a function in every twolevel module namespace that
binds it (a name imported with `from x import f` is bound twice), records
one span per call, and puts every original back on restore().  A name that
a later version of the program no longer has is reported as absent, not
raised.
"""

import functools
import importlib
import sys
import time

# (module, function) pairs the traced run wraps; modules are under twolevel.
WRAPPED = (
    ("symbols", "parse_declarations"),
    ("symbols", "derive_feasible_pairs"),
    ("pair_regex", "parse_pair_regex"),
    ("rules", "parse_rules_file"),
    ("rules", "expand_where"),
    ("rules", "compile_check_set"),
    ("rules", "compile_rule"),
    ("dfa", "compile_regex"),
    ("dfa", "minimize"),
    ("dfa", "trim"),
    ("dfa", "partition_for"),
    ("dfa", "product"),
    ("lexicon", "parse_lexicon_file"),
    ("engine", "compile_description"),
    ("engine", "runtime"),
    ("engine", "analyze"),
    ("engine", "generate"),
    ("engine", "is_lexicon_path"),
    ("engine", "gloss_paths"),
    ("engine", "generate_from_gloss"),
    ("engine", "trace"),
    ("engine", "lexicon_covers"),
    ("turkish", "load_description"),
    ("turkish", "load_turkish"),
    ("turkish", "run_suite"),
)

_MISSING = object()   # marks an attribute that patch_attr() added


class Tracer:
    """In-memory spans: [name, start, end, parent index, cause, nested]."""

    def __init__(self):
        self.spans = []
        self.cause = None       # id of the word or case being processed
        self.absent = {}        # "module.name" -> reason
        self._stack = []
        self._active = {}       # name -> open spans of that name
        self._patched = []      # (namespace object, attribute, original)

    def install(self, wrapped=WRAPPED):
        for modname, fname in wrapped:
            name = "%s.%s" % (modname, fname)
            try:
                module = importlib.import_module("twolevel." + modname)
            except ImportError as e:
                self.absent[name] = "module missing: %s" % e
                continue
            orig = getattr(module, fname, None)
            if not callable(orig):
                self.absent[name] = "no callable %s in twolevel.%s" % (fname, modname)
                continue
            self._patch(orig, self._wrap(name, orig))

    def _patch(self, orig, wrapper):
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "twolevel" or modname.startswith("twolevel.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, orig))

    def patch_attr(self, obj, attr, value):
        """Set an attribute on any object; restore() puts the old one back."""
        self._patched.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def restore(self):
        while self._patched:
            obj, attr, orig = self._patched.pop()
            if orig is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, orig)

    def _wrap(self, name, orig):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            depth = active.get(name, 0)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          self.cause, depth > 0])
            stack.append(idx)
            active[name] = depth + 1
            try:
                return orig(*args, **kwargs)
            finally:
                active[name] = depth
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def summary(self):
        """name -> {calls, total_s, self_s, max_s}.  total_s counts a
        recursive function's outermost calls only; self_s subtracts the
        time covered by wrapped callees."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            if end is None:
                continue
            dur = end - start
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
            s["calls"] += 1
            s["self_s"] += dur - child[i]
            if not nested:
                s["total_s"] += dur
                s["max_s"] = max(s["max_s"], dur)
        return out

    def covered(self, start, end, names):
        """Seconds of [start, end] covered by outermost spans whose name is
        in `names`."""
        total = 0.0
        open_until = start
        for name, s, e, _, _, _ in sorted(self.spans, key=lambda sp: sp[1]):
            if name not in names or e is None:
                continue
            s, e = max(s, open_until), min(e, end)
            if e > s:
                total += e - s
                open_until = e
        return total

