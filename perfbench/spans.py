"""Per-layer tracing of tiltcheck from outside the package.

The program carries no tracing of its own.  Instead the functions named below
are replaced, for the length of one pass, by wrappers installed at every
binding that callers look up: `schur.normalize` and `collections.normalize`
are both `partitions.normalize`, and a wrapper only at the defining module
would miss the calls made through the others.  `restore` puts the original
objects back.

There are two kinds of pass, because wrapping the hot leaves is expensive.
`SpanTracer` records a span (name, start, end, parent) around each call of the
SPANNED functions.  `Counters` counts the calls of the COUNTED leaves and
looks at the arguments and results of the OBSERVED functions for the ratio
metrics.  Spans around the leaves as well made flag (1,2,3,4);5 about 50%
slower than spans on the other layers alone, which would distort every self
time measured in the same pass.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

MODULES = ("cli", "collections", "schur", "partitions", "bwb", "descent", "fibration", "acceptance")

# Layer boundaries timed by the span pass.  Functions without a metric of their
# own are spanned so that their time is not charged to the caller's self time:
# cli.run.self_s is meant to be argument parsing plus the JSON report.
SPANNED = (
    "cli.run",
    "acceptance.run_all",
    "collections.kapranov_collection",
    "collections.flag_collection",
    "collections.beilinson_collection",
    "collections.ext_table",
    "collections.verify_tilting",
    "collections.schur_pair_ext",
    "collections.tower_hom_degrees",
    "descent.generalized_bs_summary",
    "descent.wedge_pair_ext",
    "fibration.tower_compose",
    "fibration.twist_search",
    "fibration.candidate_ext_table",
    "bwb.flag_cohomology",
    "bwb.localization_euler",
    "schur.product_expand",
    "schur.split_bundle_expand",
    "schur.schur_dimension",
    "schur.lr_expand",
)

# Hot leaves, counted in their own pass.
COUNTED = (
    "partitions.normalize",
    "schur.as_weight",
    "bwb.HomogeneousBundle.__post_init__",
)

# Functions whose outcomes give the ratio metrics, observed in the count pass.
OBSERVED = (
    "bwb.flag_cohomology",
    "collections.schur_pair_ext",
    "collections.tower_hom_degrees",
    "collections.ext_table",
    "fibration.twist_search",
)


def _modules():
    package = importlib.import_module("tiltcheck")
    return [package] + [importlib.import_module(f"tiltcheck.{m}") for m in MODULES]


def _resolve(qualname):
    """(owner, attribute) of a dotted name below the tiltcheck package."""
    first, *rest = qualname.split(".")
    owner = importlib.import_module(f"tiltcheck.{first}")
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1]


class _Patches:
    """Installs a wrapper at every binding of a function; restores them all."""

    def __init__(self):
        self._saved = []

    def install(self, qualname, wrapper_for):
        owner, attr = _resolve(qualname)
        original = getattr(owner, attr)
        if isinstance(owner, type):
            bindings = [(owner, attr)]
        else:
            bindings = [(mod, name) for mod in _modules()
                        for name, value in vars(mod).items() if value is original]
        wrapper = wrapper_for(qualname, original)
        for target, name in bindings:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self):
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved.clear()


class SpanTracer:
    """Records one span per call of the SPANNED functions, in memory.

    Spans are stored column-wise (name index, parent span, start, end) in
    arrays, so a pass of a few hundred thousand calls stays a few megabytes.
    Calls made inside `--jobs` pool workers are not seen.
    """

    def __init__(self):
        self.names = list(SPANNED)
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = _Patches()

    def _wrapper_for(self, qualname, fn):
        idx = self.names.index(qualname)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(kind)
            kind.append(idx)
            parent.append(stack[-1])
            start.append(clock())
            end.append(0.0)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
        return traced

    def install(self):
        for name in self.names:
            self._patches.install(name, self._wrapper_for)

    def restore(self):
        self._patches.restore()

    def summary(self):
        """{name: (calls, self seconds)}; self time is duration minus child spans."""
        child = [0.0] * len(self.kind)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid, k in enumerate(self.kind):
            calls[k] += 1
            self_s[k] += self.end[sid] - self.start[sid] - child[sid]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def calls_under(self, name, parent_name):
        """Number of `name` spans whose direct parent is a `parent_name` span."""
        k, pk = self.names.index(name), self.names.index(parent_name)
        kind, parent = self.kind, self.parent
        return sum(1 for sid, kk in enumerate(kind)
                   if kk == k and parent[sid] >= 0 and kind[parent[sid]] == pk)

    def dump(self, path):
        """Write every span as gzip'd JSON: names, then [name, parent, start, end] rows."""
        rows = [[k, p, s, e] for k, p, s, e in zip(self.kind, self.parent, self.start, self.end)]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"names": self.names, "spans": rows}, fh)


class Counters:
    """Call counts of the COUNTED leaves and outcomes of the OBSERVED functions."""

    def __init__(self):
        self.calls = dict.fromkeys(COUNTED + OBSERVED, 0)
        self.nonzero = dict.fromkeys(OBSERVED, 0)
        self.unique_pair_args = 0
        self.pairs = 0
        self._seen_pair_args = set()
        self._patches = _Patches()

    def begin_operation(self):
        """Each operation is a fresh process for a user, so repeats count per operation."""
        self._seen_pair_args.clear()

    def _observe(self, qualname, args, kwargs, result):
        if qualname == "collections.schur_pair_ext":
            key = (args, tuple(sorted(kwargs.items())))
            if key not in self._seen_pair_args:
                self._seen_pair_args.add(key)
                self.unique_pair_args += 1
        elif qualname == "collections.ext_table":
            self.pairs += result.size ** 2
            self.nonzero[qualname] += len({(i, j) for (i, j, _s), v in result.dims.items() if v})
        elif qualname == "fibration.twist_search":
            self.nonzero[qualname] += result.verified
        elif result:  # a nonvanishing cohomology group, or a nonzero pushforward
            self.nonzero[qualname] += 1

    def _wrapper_for(self, qualname, fn):
        calls = self.calls
        if qualname not in OBSERVED:
            def counted(*args, **kwargs):
                calls[qualname] += 1
                return fn(*args, **kwargs)
            return counted
        observe = self._observe

        def observed(*args, **kwargs):
            calls[qualname] += 1
            result = fn(*args, **kwargs)
            observe(qualname, args, kwargs, result)
            return result
        return observed

    def install(self):
        for name in COUNTED + OBSERVED:
            self._patches.install(name, self._wrapper_for)

    def restore(self):
        self._patches.restore()
