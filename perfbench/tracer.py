"""In-memory span recorder for the traced benchmark run.

No file of the program changes for tracing. The recorder replaces public
girthforge functions in the modules that bind them with timing wrappers,
and puts the originals back when the traced operation ends.

Two kinds of wrapper exist. A span wrapper keeps one record per call:
name, id, parent id, start, end and self time. A hot wrapper, used for
functions called millions of times (field arithmetic, moment helpers,
line intersection), only adds the call to its name's count, total time
and self time. Self time is a call's duration minus the time spent in
wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Target:
    """One public function to wrap, named ``module:qualname``."""

    where: str
    name: str
    hot: bool = False
    # Span name gets ".<value>" of this argument (count_cycles by length).
    suffix_arg: str | None = None
    # Only wrap the bindings in these modules (default: every girthforge module).
    callers: tuple[str, ...] | None = None
    # Record the ru_maxrss rise across the call.
    rss: bool = False
    # Count calls whose result is truthy (accepted try_add candidates).
    truthy: bool = False


TARGETS = (
    Target("girthforge.cli:main", "cli.main"),
    Target("girthforge.gf:make_field", "gf.make_field"),
    Target("girthforge.gf:Field.mul", "gf.mul", hot=True),
    Target("girthforge.gf:Field.add", "gf.add", hot=True),
    Target("girthforge.gf:Field.sub", "gf.sub", hot=True),
    Target("girthforge.gf:Field.inv", "gf.inv", hot=True),
    Target("girthforge.moment:points_on", "moment.points_on", hot=True),
    Target("girthforge.moment:line_through", "moment.line_through", hot=True),
    Target("girthforge.moment:moment_vector", "moment.moment_vector", hot=True),
    Target("girthforge.moment:enumerate_lines", "moment.enumerate_lines", hot=True),
    Target("girthforge.graph:build", "graph.build", rss=True),
    Target("girthforge.graph:export", "graph.export"),
    Target("girthforge.graph:parse", "graph.parse"),
    Target("girthforge.verify:construction_report", "verify.construction_report"),
    Target("girthforge.verify:count_cycles", "verify.count_cycles", suffix_arg="length"),
    Target("girthforge.verify:max_l4_paths", "verify.max_l4_paths"),
    Target("girthforge.verify:l4_path_counts_from", "verify.l4_path_counts_from", hot=True),
    Target("girthforge.verify:find_c4", "verify.find_c4", rss=True),
    # Only the line-C4 detector's use; count_cycles is timed as its own span.
    Target(
        "girthforge.verify:iter_cycles",
        "verify.iter_cycles",
        hot=True,
        callers=("girthforge.lines4",),
    ),
    Target("girthforge.lines4:intersect", "lines4.intersect", hot=True),
    Target("girthforge.lines4:has_line_c4", "lines4.has_line_c4"),
    Target("girthforge.lines4:moment_seed", "lines4.moment_seed"),
    Target("girthforge.lines4:all_genlines", "lines4.all_genlines"),
    Target("girthforge.lines4:greedy_c4free", "lines4.greedy_c4free"),
    Target("girthforge.lines4:C4FreeFamily.try_add", "lines4.try_add", hot=True, truthy=True),
    Target("girthforge.lines4:write_family", "lines4.write_family"),
    Target("girthforge.lines4:parse_family", "lines4.parse_family"),
)

GF_OPS = ("gf.mul", "gf.add", "gf.sub", "gf.inv")


def maxrss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans and hot-call aggregates of one traced body iteration."""

    def __init__(self) -> None:
        # (name, id, parent id or None, start ns, end ns, self ns)
        self.spans: list[tuple[str, int, int | None, int, int, int]] = []
        # name -> [calls, total ns, self ns, truthy results]
        self.hot: dict[str, list[int]] = {}
        self.rss_rise_mb: Counter[str] = Counter()
        # Open frames: [ns covered by wrapped children, id of enclosing span].
        self._stack: list[list] = [[0, None]]
        self._next_id = 0

    def _span(self, t: Target, fn):
        sig = inspect.signature(fn) if t.suffix_arg else None
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            name = t.name
            if sig is not None:
                name += f".{sig.bind(*args, **kw).arguments[t.suffix_arg]}"
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            frame = [0, sid]
            stack.append(frame)
            rss0 = maxrss_mb() if t.rss else 0.0
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kw)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                parent[0] += t1 - t0
                self.spans.append((name, sid, parent[1], t0, t1, t1 - t0 - frame[0]))
                if t.rss:
                    self.rss_rise_mb[t.name] += maxrss_mb() - rss0

        return wrapper

    def _hot(self, t: Target, fn):
        stat = self.hot.setdefault(t.name, [0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # Time each resumption, so the consumer's work between items
            # is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kw):
                stat[0] += 1
                it = fn(*args, **kw)
                while True:
                    parent = stack[-1]
                    frame = [0, parent[1]]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        stack.pop()
                        parent[0] += dt
                        stat[1] += dt
                        stat[2] += dt - frame[0]
                    yield item

            return gen_wrapper

        truthy = t.truthy

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
            if truthy and result:
                stat[3] += 1
            return result

        return wrapper

    def wrapper_for(self, t: Target, fn):
        return self._hot(t, fn) if t.hot else self._span(t, fn)

    def as_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "id": i, "parent": p, "start_ns": a, "end_ns": b, "self_ns": s}
                for n, i, p, a, b, s in self.spans
            ],
            "hot": {
                n: {"calls": c, "total_ns": tot, "self_ns": s, "truthy": k}
                for n, (c, tot, s, k) in sorted(self.hot.items())
            },
            "rss_rise_mb": dict(self.rss_rise_mb),
        }


def bindings(t: Target) -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every place the target is bound.

    A method is bound on its class only. A function is bound wherever a
    loaded girthforge module holds the same object, so callers that
    imported it by name see the wrapper. A target the program no longer
    has yields no bindings, and its metrics read 0.
    """
    modname, _, qual = t.where.partition(":")
    owner = sys.modules.get(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None)
    if fn is None:
        return []
    if path:
        return [(owner, attr, fn)]
    found = []
    for name, module in sorted(sys.modules.items()):
        if name != "girthforge" and not name.startswith("girthforge."):
            continue
        if t.callers is not None and name not in t.callers:
            continue
        found += [(module, a, fn) for a, v in list(vars(module).items()) if v is fn]
    return found


@contextmanager
def tracing(rec: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore."""
    patched: list[tuple[object, str, object]] = []
    try:
        for t in TARGETS:
            found = bindings(t)
            if not found:
                continue
            wrapper = rec.wrapper_for(t, found[0][2])
            for owner, attr, fn in found:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, fn))
        yield rec
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer times (s), counts and ratios of one traced iteration."""
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    self_ns: Counter[str] = Counter()
    for name, _, _, t0, t1, s in rec.spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_ns[name] += s
    for name, (c, tot, s, _) in rec.hot.items():
        calls[name] += c
        total[name] += tot
        self_ns[name] += s
    tried, kept = rec.hot.get("lines4.try_add", [0, 0, 0, 0])[0::3]

    def sec(ns: int) -> float:
        return ns / 1e9

    return {
        "gf.make_field_s": sec(total["gf.make_field"]),
        "gf.mul_calls": calls["gf.mul"],
        "gf.add_calls": calls["gf.add"],
        "gf.sub_calls": calls["gf.sub"],
        "gf.inv_calls": calls["gf.inv"],
        "gf.self_s": sec(sum(self_ns[n] for n in GF_OPS)),
        "moment.points_on_calls": calls["moment.points_on"],
        "moment.line_through_calls": calls["moment.line_through"],
        "moment.self_s": sec(sum(v for n, v in self_ns.items() if n.startswith("moment."))),
        "graph.build_s": sec(total["graph.build"]),
        "graph.build_self_s": sec(self_ns["graph.build"]),
        "graph.build_rss_rise_mb": float(rec.rss_rise_mb["graph.build"]),
        "graph.export_s": sec(total["graph.export"]),
        "graph.parse_s": sec(total["graph.parse"]),
        "verify.c6_s": sec(total["verify.count_cycles.6"]),
        "verify.c10_s": sec(total["verify.count_cycles.10"]),
        "verify.max_l4_paths_s": sec(total["verify.max_l4_paths"]),
        "verify.l4_roots": calls["verify.l4_path_counts_from"],
        "verify.find_c4_s": sec(total["verify.find_c4"]),
        "verify.find_c4_rss_rise_mb": float(rec.rss_rise_mb["verify.find_c4"]),
        "verify.iter_cycles_s": sec(total["verify.iter_cycles"]),
        "lines4.intersect_calls": calls["lines4.intersect"],
        "lines4.intersect_self_s": sec(self_ns["lines4.intersect"]),
        "lines4.has_line_c4_s": sec(total["lines4.has_line_c4"]),
        "lines4.try_add_calls": tried,
        "lines4.accept_ratio": kept / tried if tried else 0.0,
        "cli.self_s": sec(self_ns["cli.main"]),
    }
