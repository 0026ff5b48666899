"""Spans around the package's layers, installed from outside the package.

``Tracer.install()`` replaces module attributes with timing wrappers and
``uninstall()`` puts the originals back.  A function that other package
modules imported by name (``from .qx_leech import class_to_coords``) is
rebound in every module that holds it, so calls through any name are
seen.  Wrapped are:

* ``modp_core``: ``add_words``, ``neg_words``, ``halve_words``,
  ``butterfly_words``;
* ``_kernels``: ``gather_signed`` and the ``GatherTable`` constructor;
* every module-level function of ``golay``, ``parker_loop``, ``aut_pl``
  and ``qx_leech``;
* ``mm_rep``: ``apply_atom`` (one span name per atom tag), ``apply_tau``,
  ``apply_xi``, ``_apply_monomial``, ``_monomial_gather``,
  ``read_vector``, ``write_vector``, ``from_coords``, ``MmVector.unpack``,
  ``Layout.extract`` and ``Layout.inject``;
* ``mm_cli.parse_word``.

Spans and metrics of ``_kernels`` are named ``kernels.*``, since metric
names start with a letter.  A span is (name, start, end, parent) and
lives in memory until
``write()``.  Spans are only recorded while ``active`` is set, which the
benchmark does around each timed word, so set-up and checks add nothing.
A span's self time is its duration minus the durations of its children.
"""

import functools
import gzip
import time
import types
from collections import defaultdict

from monsterrep import (_kernels, aut_pl, golay, mm_cli, mm_rep, modp_core,
                        parker_loop, qx_leech)

PACKAGE_MODULES = (modp_core, golay, parker_loop, aut_pl, qx_leech, _kernels,
                   mm_rep, mm_cli)
HELPER_MODULES = (golay, parker_loop, aut_pl, qx_leech)
MODP_KERNELS = ("add_words", "neg_words", "halve_words", "butterfly_words")
MODP_BYTES_PER_ARG = {"add_words": 3, "neg_words": 2, "halve_words": 2,
                      "butterfly_words": 4}
# the kernel stages of ``layer_metrics``, reported as mm_rep.<stage>
STAGES = ("table_build_s", "lane_gather_s", "small_blocks_s", "t_butterfly_s",
          "xyz_rotation_s", "had16_s", "col24_s", "xi_gather_s")
# per gather entry: five table arrays, the source word, the destination
# word read and written
GATHER_BYTES_PER_ENTRY = 5 * 8 + 8 + 2 * 8

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.active = False
        self.counts = defaultdict(int)
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def _close(self, i, t0, t1):
        self.stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name (when active)."""
        if not self.active:
            return fn(*args, **kwargs)
        i = self._open(name)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i, t0, _perf())

    def wrap(self, name, fn, meter=None):
        """A wrapper of fn recording a span; ``name`` may be a function of
        the call's arguments; ``meter(args, parent_name)`` adds counts."""
        tracer = self
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if meter is not None:
                meter(args, tracer.names[tracer.stack[-1]] if len(tracer.stack) > 1 else "")
            i = tracer._open(name if fixed else name(args))
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i, t0, _perf())
        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper):
        """Replace fn by wrapper under every name any package module has."""
        for mod in PACKAGE_MODULES:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def install(self):
        for name in MODP_KERNELS:
            fn = getattr(modp_core, name)
            self._rebind(fn, self.wrap(f"modp_core.{name}", fn,
                                       self._modp_meter(name)))
        self._rebind(_kernels.gather_signed,
                     self.wrap("kernels.gather_signed", _kernels.gather_signed,
                               self._gather_meter))
        self._rebind(_kernels.GatherTable,
                     self.wrap("kernels.GatherTable", _kernels.GatherTable,
                               self._table_meter))
        for mod in HELPER_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in list(vars(mod).items()):
                if _is_function(val) and getattr(val, "__module__", "") == mod.__name__:
                    self._rebind(val, self.wrap(f"{short}.{attr}", val))
        self._rebind(mm_rep.apply_atom,
                     self.wrap(lambda a: f"mm_rep.apply_atom:{a[1].tag}",
                               mm_rep.apply_atom))
        for attr in ("apply_tau", "apply_xi", "_apply_monomial", "read_vector",
                     "write_vector", "from_coords"):
            fn = getattr(mm_rep, attr)
            self._rebind(fn, self.wrap(f"mm_rep.{attr}", fn))
        self._rebind(mm_rep._monomial_gather,
                     self.wrap("mm_rep._monomial_gather", mm_rep._monomial_gather,
                               self._cache_meter))
        self._rebind(mm_cli.parse_word,
                     self.wrap("mm_cli.parse_word", mm_cli.parse_word))
        for cls, attr in ((mm_rep.MmVector, "unpack"), (mm_rep.Layout, "extract"),
                          (mm_rep.Layout, "inject")):
            self._set(cls, attr, self.wrap(f"mm_rep.{cls.__name__}.{attr}",
                                           getattr(cls, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- counters ----------------------------------------------------------

    def _modp_meter(self, name):
        factor = MODP_BYTES_PER_ARG[name]

        def meter(args, parent):
            if not parent.startswith("modp_core."):     # outermost call only
                self.counts["modp_core.bytes"] += factor * args[0].nbytes
        return meter

    def _gather_meter(self, args, parent):
        n = len(args[2].dst_word)
        self.counts["kernels.gather_signed.entries"] += n
        self.counts["kernels.gather_signed.bytes"] += n * GATHER_BYTES_PER_ENTRY

    def _table_meter(self, args, parent):
        self.counts["kernels.GatherTable.entries"] += len(args[0])

    def _cache_meter(self, args, parent):
        p, at = args
        cache = mm_rep._MONO_CACHE
        if (p, at.key()) in cache:
            self.counts["mm_rep.mono_cache.hits"] += 1
        else:
            self.counts["mm_rep.mono_cache.misses"] += 1
            if len(cache) > 128:        # the insert that follows clears it
                self.counts["mm_rep.mono_cache.evictions"] += len(cache)

    # -- results -----------------------------------------------------------

    def self_times(self):
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[i]
        return dur, own

    def ancestors(self, i):
        par = self.parent[i]
        while par >= 0:
            yield self.names[par]
            par = self.parent[par]

    def write(self, path):
        """Spans as gzip text: id, parent, name, start and end in seconds
        from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parent[i]}\t{name}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def _is_function(val):
    return isinstance(val, types.FunctionType) or hasattr(val, "cache_info")


def layer_metrics(tr: Tracer):
    """Per-layer numbers from the spans: calls and self seconds per span
    name and module, and the kernel-stage split."""
    dur, own = tr.self_times()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    for i, name in enumerate(tr.names):
        calls[name] += 1
        self_s[name] += own[i]
        total_s[name] += dur[i]
    out = {}
    for name in MODP_KERNELS:
        out[f"modp_core.{name}.calls"] = calls[f"modp_core.{name}"]
        out[f"modp_core.{name}.self_s"] = self_s[f"modp_core.{name}"]
    out["modp_core.bytes"] = tr.counts["modp_core.bytes"]
    out["kernels.gather_signed.calls"] = calls["kernels.gather_signed"]
    out["kernels.gather_signed.self_s"] = self_s["kernels.gather_signed"]
    out["kernels.gather_signed.entries"] = tr.counts["kernels.gather_signed.entries"]
    out["kernels.gather_signed.bytes"] = tr.counts["kernels.gather_signed.bytes"]
    out["kernels.GatherTable.builds"] = calls["kernels.GatherTable"]
    out["kernels.GatherTable.self_s"] = self_s["kernels.GatherTable"]
    out["kernels.GatherTable.entries"] = tr.counts["kernels.GatherTable.entries"]
    for mod in HELPER_MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        names = [n for n in calls if n.startswith(short + ".")]
        out[f"{short}.calls"] = sum(calls[n] for n in names)
        out[f"{short}.self_s"] = sum(self_s[n] for n in names)
    hits = tr.counts["mm_rep.mono_cache.hits"]
    misses = tr.counts["mm_rep.mono_cache.misses"]
    out["mm_rep.mono_cache.hits"] = hits
    out["mm_rep.mono_cache.misses"] = misses
    out["mm_rep.mono_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["mm_rep.mono_cache.evictions"] = tr.counts["mm_rep.mono_cache.evictions"]

    stage = dict.fromkeys(STAGES, 0.0)
    for i, name in enumerate(tr.names):
        if not name.startswith(("mm_rep.", "modp_core.", "kernels.gather")):
            continue
        up = list(tr.ancestors(i))
        if name == "mm_rep._monomial_gather":
            stage["table_build_s"] += dur[i]
        elif name == "kernels.gather_signed":
            if "mm_rep._apply_monomial" in up:
                stage["lane_gather_s"] += dur[i]
            elif "mm_rep.apply_xi" in up:
                stage["xi_gather_s"] += dur[i]
        elif name in ("mm_rep.Layout.extract", "mm_rep.Layout.inject"):
            if any(a.startswith("mm_rep.apply_atom:") for a in up):
                stage["small_blocks_s"] += dur[i]
        elif name == "mm_rep.apply_tau":
            stage["xyz_rotation_s"] += own[i]
        elif name == "modp_core.butterfly_words":
            if "mm_rep.apply_tau" in up:
                stage["t_butterfly_s"] += dur[i]
            elif "mm_rep.apply_xi" in up:
                stage["had16_s"] += dur[i]
        elif name.startswith("modp_core."):
            if ("mm_rep.apply_xi" in up and not any(a.startswith("modp_core.")
                                                    for a in up)):
                stage["col24_s"] += dur[i]
    out.update({f"mm_rep.{k}": v for k, v in stage.items()})

    for short, span in (("mm_rep.read_vector", "mm_rep.read_vector"),
                        ("mm_rep.write_vector", "mm_rep.write_vector"),
                        ("mm_rep.from_coords", "mm_rep.from_coords"),
                        ("mm_rep.unpack", "mm_rep.MmVector.unpack"),
                        ("mm_cli.parse_word", "mm_cli.parse_word")):
        out[f"{short}.calls"] = calls[span]
        out[f"{short}.s"] = total_s[span]
    return out


def self_time_by_module(tr: Tracer):
    """Self seconds grouped by module (the span name up to its first dot);
    the benchmark's own per-word span is ``word``."""
    _, own = tr.self_times()
    out = defaultdict(float)
    for i, name in enumerate(tr.names):
        out[name.split(".", 1)[0]] += own[i]
    return dict(out)
