"""Per-layer measurement of one round, taken from outside the library.

Two instruments, both active only in a traced round:

* cProfile over the timed phase.  Each function's self time goes to
  the module that defines it when that is a doublebase module or
  mpmath.  Time in any other function (builtins, numpy, fractions, this
  benchmark) is handed to its callers in proportion to the time each
  caller spent in it, recursively, so a builtin called from `series`
  counts as `series`.  `<module>.calls` counts profiler calls, which
  include each resumption of a generator.
* Counting wrappers around public functions, looked up by name in every
  loaded doublebase module (so `from .series import node_pi` copies are
  wrapped too).  A name that no longer exists counts 0.  The counts
  cover the timed phase, except `critical.crossings` and
  `critical.crossing_s`, which cover every first request of a crossing
  key in the process, setup included (the warm-up pass of
  `warm_queries`).

PER_LAYER names every per-layer metric with its unit; `metrics()`
returns all of them but `trace_overhead`, which run.py computes from a
traced and an untraced round.
"""

from __future__ import annotations

import cProfile
import inspect
import os
import pstats
import sys
from time import perf_counter

MODULES = ("words", "substitution", "series", "solvers", "expansions",
           "critical", "classify", "spectral")

COUNTERS = ("critical.node_mu.calls", "critical.crossings",
            "series.evals", "series.mp_evals", "spectral.automaton_states")

PER_LAYER = {
    **{f"{m}.{k}": u for m in MODULES for k, u in (("self_s", "s"), ("calls", "count"))},
    "mpmath.self_s": "s",
    "critical.node_mu.calls": "count",
    "critical.crossings": "count",
    "critical.crossing_s": "s",
    "critical.descent_letters": "count",
    "series.evals": "count",
    "series.mp_evals": "count",
    "series.affine_steps": "count",
    "substitution.stream_letters": "count",
    "spectral.automaton_states": "count",
    "trace_overhead": "ratio",
}


def _is_mp(x) -> bool:
    return type(x).__module__.startswith("mpmath")


class Tracer:
    def __init__(self, db):
        import mpmath  # here, so run.py reads PER_LAYER without loading it

        self.pkg_dir = os.path.dirname(os.path.abspath(db.__file__)) + os.sep
        self.mp_dir = os.path.dirname(os.path.abspath(mpmath.__file__)) + os.sep
        self.phase = "setup"
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.crossing_s = 0.0
        self.seen = set()
        self.profile = cProfile.Profile()
        self._wrap("node_mu", self._node_mu)
        self._wrap("node_pi", self._node_pi)
        self._wrap("build_automaton", self._build_automaton)

    # -- counting wrappers ----------------------------------------------

    def _wrap(self, name: str, make):
        mods = [m for k, m in sys.modules.items() if k == "doublebase" or k.startswith("doublebase.")]
        originals = {id(f): f for m in mods if inspect.isfunction(f := getattr(m, name, None))}
        for orig in originals.values():
            wrapper = make(orig)
            for m in mods:
                if getattr(m, name, None) is orig:
                    setattr(m, name, wrapper)

    def _node_mu(self, orig):
        def node_mu(*args, **kwargs):
            if self.phase == "off":
                return orig(*args, **kwargs)
            key = tuple(a for a in args[:3] if isinstance(a, str))
            if self.phase == "run":
                self.counts["critical.node_mu.calls"] += 1
            if key in self.seen:
                return orig(*args, **kwargs)
            self.seen.add(key)
            self.counts["critical.crossings"] += 1
            t0 = perf_counter()
            out = orig(*args, **kwargs)
            self.crossing_s += perf_counter() - t0
            return out
        return node_mu

    def _node_pi(self, orig):
        def node_pi(*args, **kwargs):
            if self.phase == "run":
                self.counts["series.evals"] += 1
                if any(_is_mp(a) for a in args):
                    self.counts["series.mp_evals"] += 1
            return orig(*args, **kwargs)
        return node_pi

    def _build_automaton(self, orig):
        def build_automaton(*args, **kwargs):
            out = orig(*args, **kwargs)
            if self.phase == "run":
                self.counts["spectral.automaton_states"] += len(getattr(out, "states", ()))
            return out
        return build_automaton

    # -- phases -----------------------------------------------------------

    def start(self):
        self.phase = "run"
        self.profile.enable()

    def stop(self):
        self.profile.disable()
        self.phase = "off"

    # -- attribution ------------------------------------------------------

    def _owner(self, func):
        filename = func[0]
        if filename.startswith(self.pkg_dir):
            return os.path.splitext(filename[len(self.pkg_dir):])[0]
        if filename.startswith(self.mp_dir):
            return "mpmath"
        return None

    def metrics(self, ops) -> dict:
        """Every per-layer metric but trace_overhead; `ops` are the
        timed phase's operations."""
        stats = pstats.Stats(self.profile).stats
        shares: dict = {}

        def share(func, visiting):
            owner = self._owner(func)
            if owner is not None:
                return {owner: 1.0}
            if func in shares:
                return shares[func]
            if func in visiting:
                return {}
            visiting.add(func)
            callers = {c: e for c, e in stats[func][4].items() if c in stats}
            weight = {c: e[2] for c, e in callers.items()}
            if sum(weight.values()) <= 0:
                weight = {c: e[0] for c, e in callers.items()}
            total = sum(weight.values())
            out: dict = {}
            for c, w in weight.items():
                for owner, part in share(c, visiting).items():
                    out[owner] = out.get(owner, 0.0) + part * w / total
            visiting.discard(func)
            shares[func] = out
            return out

        self_s = dict.fromkeys(MODULES + ("mpmath",), 0.0)
        calls = dict.fromkeys(MODULES, 0)
        generators = self._generator_code()
        stream_letters = affine_steps = 0
        for func, (_, nc, tt, _, _) in stats.items():
            for owner, part in share(func, set()).items():
                if owner in self_s:
                    self_s[owner] += tt * part
            owner = self._owner(func)
            if owner in calls:
                calls[owner] += nc
            if owner == "substitution" and (func[1], func[2]) in generators:
                stream_letters += nc
            if owner == "series" and func[2] == "step":
                affine_steps += nc
        out = {f"{m}.self_s": self_s[m] for m in self_s}
        out.update({f"{m}.calls": calls[m] for m in MODULES})
        out.update(self.counts)
        out["critical.crossing_s"] = self.crossing_s
        out["series.affine_steps"] = affine_steps
        out["substitution.stream_letters"] = stream_letters
        out["critical.descent_letters"] = sum(
            len(op.out.node) for op in ops if op.error is None and isinstance(getattr(op.out, "node", None), str)
        )
        return out

    def _generator_code(self) -> set:
        """(first line, name) of the named generator functions in
        doublebase.substitution: their resumptions are letters drawn
        from lazy streams."""
        mod = sys.modules.get("doublebase.substitution")
        if mod is None:
            return set()
        with open(mod.__file__, encoding="utf-8") as fh:
            todo = [compile(fh.read(), mod.__file__, "exec")]
        found = set()
        while todo:
            code = todo.pop()
            if code.co_flags & inspect.CO_GENERATOR and not code.co_name.startswith("<"):
                found.add((code.co_firstlineno, code.co_name))
            todo.extend(c for c in code.co_consts if inspect.iscode(c))
        return found
