"""Spans around the public functions of `omex`, installed from outside.

`Tracer.install()` replaces each traced function, in every `omex` module
namespace that binds it, by a wrapper that records a span: name, start,
end, parent span, job id, and the work counts read off the call's
arguments and result. `uninstall()` puts the
originals back, so untraced timings run the library unmodified. Spans stay
in memory; `layer_metrics()` folds them into the per-layer metrics and
`dump()` writes them out once the run ends.

The library itself holds no tracing code; spans inside it are a later step.
"""

import json
import math
import os
import sys
import time
from collections import defaultdict


def lex_rank(combo, n: int) -> int:
    """Position of a sorted k-subset of range(n) in lexicographic order."""
    rank, prev, k = 0, -1, len(combo)
    for i, c in enumerate(combo):
        for x in range(prev + 1, c):
            rank += math.comb(n - x - 1, k - i - 1)
        prev = c
    return rank


def hall_subsets(g, s_max: int, witness) -> int:
    """Subsets `hall_check` examined: every size class below the witness,
    then the witness's own rank; all classes up to s_max when it passed."""
    nleft = g.left_size
    if witness is None:
        return sum(math.comb(nleft, t) for t in range(1, min(s_max, nleft) + 1))
    t = len(witness)
    return (sum(math.comb(nleft, i) for i in range(1, t))
            + lex_rank(witness, nleft) + 1)


def _hall_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")
    return "offline.hall_check" if mode == "exhaustive" else "offline.hall_matching"


def _hall_attrs(args, kwargs, result):
    if _hall_name(args, kwargs) != "offline.hall_check":
        return None
    return {"subsets": hall_subsets(args[0], args[1], result),
            "witnesses": int(result is not None)}


def _file_bytes(index):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return attrs


def _fp_bits(field):
    def attrs(args, kwargs, result):
        return {"bits": getattr(result, field)}
    return attrs


# (owner, attribute, span name or name function, attrs function or None)
TARGETS = (
    ("omex.offline", "hall_check", _hall_name, _hall_attrs),
    ("omex.offline", "construct_verified_offline_graph", "offline.construct",
     lambda a, k, r: {"attempts": r[1]}),
    ("omex.extractor", "is_extractor", "extractor.is_extractor",
     lambda a, k, r: {"subsets": r.checked}),
    ("omex.extractor", "is_prefix_extractor", "extractor.prefix",
     lambda a, k, r: {"levels": len(r.levels)}),
    ("omex.extractor", "random_extractor_search", "extractor.search",
     lambda a, k, r: {"attempts": r[1]}),
    ("omex.extractor", "hazard_report", "extractor.hazard_report", None),
    ("omex.online", "layered", "online.layered", None),
    ("omex.online", "exhaustive_online_check", "online.sweep",
     lambda a, k, r: {"sequences": r.sequences}),
    ("omex.online", "online_strategy_exists", "online.game",
     lambda a, k, r: {"nodes": r.nodes}),
    ("omex.online:MatchingSession", "request", "online.session",
     lambda a, k, r: {"rejections": int(r is None)}),
    ("omex.trevisan", "as_extractor_view", "trevisan.as_view",
     lambda a, k, r: {"edges": r.N * r.D}),
    ("omex.trevisan", "greedy_weak_design", "trevisan.design", None),
    ("omex.trevisan", "list_decode", "trevisan.list_decode",
     lambda a, k, r: {"list_size": len(r)}),
    ("omex.trevisan", "encode", "trevisan.encode", None),
    ("omex.fingerprint", "encode_matching", "fingerprint.match.encode",
     _fp_bits("payload_bits")),
    ("omex.fingerprint", "decode_matching", "fingerprint.match.decode", None),
    ("omex.fingerprint", "encode_extractor", "fingerprint.extractor.encode",
     _fp_bits("total_bits")),
    ("omex.fingerprint", "decode_extractor", "fingerprint.extractor.decode", None),
    ("omex.fingerprint", "encode_two_conditions", "fingerprint.two_cond.encode",
     _fp_bits("payload_bits")),
    ("omex.fingerprint", "decode_two_conditions", "fingerprint.two_cond.decode",
     None),
    ("omex.graph", "save", "graph.io", _file_bytes(1)),
    ("omex.graph", "load", "graph.io", _file_bytes(0)),
    ("omex.extractor", "save_view", "graph.io", _file_bytes(1)),
    ("omex.extractor", "load_view", "graph.io", _file_bytes(0)),
    ("omex.fingerprint", "save_set", "graph.io", _file_bytes(1)),
    ("omex.fingerprint", "load_set", "graph.io", _file_bytes(0)),
    ("omex.trevisan", "save_design", "graph.io", _file_bytes(1)),
    ("omex.trevisan", "load_design", "graph.io", _file_bytes(0)),
    ("omex.cli", "main", "cli.main", None),
)

JOB_SPAN = "bench.job"
SETUP_JOB = -1


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, job id, attrs or None]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = SETUP_JOB
        self._patches = self._plan()

    def _plan(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "omex" or name.startswith("omex.")]
        patches = []
        for owner_name, attr, name, attrs in TARGETS:
            module_name, _, class_name = owner_name.partition(":")
            owner = sys.modules[module_name]
            if class_name:
                cls = getattr(owner, class_name)
                original = cls.__dict__[attr]
                patches.append((cls, attr, original,
                                self._wrap(name, original, attrs)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, attrs)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapper))
        return patches

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def job_span(self, job_id: int, kind: str, fn):
        """Run fn() as job `job_id` inside a job span; returns its result."""
        self.job = job_id
        span = [JOB_SPAN, 0.0, 0.0, -1, job_id, {"kind": kind}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.job = SETUP_JOB

    def fold(self, first_pass: int):
        """Per span name: calls, summed duration and summed attrs, plus the
        attrs of first-pass job spans only (ids below `first_pass`), which
        repeat exactly between runs of one seed."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        counts = defaultdict(lambda: defaultdict(int))
        first = defaultdict(lambda: defaultdict(int))
        child_time = defaultdict(float)
        for name, start, end, parent, job, attrs in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
            if attrs and name != JOB_SPAN:
                for key, value in attrs.items():
                    counts[name][key] += value
                    if 0 <= job < first_pass:
                        first[name][key] += value
        job_self = sum(end - start - child_time[i]
                       for i, (name, start, end, *_rest) in enumerate(self.spans)
                       if name == JOB_SPAN)
        return calls, busy, counts, first, job_self

    def dump(self, path: str):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, attrs in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin,
                                     parent, job, attrs]) + "\n")


def layer_metrics(tracer: Tracer, first_pass: int) -> tuple[dict, dict]:
    """(per-layer metrics over every traced span, exact work counters over
    the first pass of jobs)."""
    calls, busy, counts, first, job_self = tracer.fold(first_pass)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, keys in (("offline.hall_check", ("subsets", "witnesses")),
                       ("offline.hall_matching", ()),
                       ("offline.construct", ("attempts",)),
                       ("extractor.is_extractor", ("subsets",)),
                       ("extractor.prefix", ("levels",)),
                       ("extractor.search", ("attempts",)),
                       ("extractor.hazard_report", ()),
                       ("online.layered", ()),
                       ("online.sweep", ("sequences",)),
                       ("online.game", ("nodes",)),
                       ("trevisan.as_view", ("edges",)),
                       ("trevisan.design", ()),
                       ("trevisan.list_decode", ("list_size",)),
                       ("trevisan.encode", ()),
                       ("graph.io", ("bytes",)),
                       ("cli.main", ())):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.busy_s"] = busy[name]
        for key in keys:
            out[f"{name}.{key}"] = counts[name][key]
    out["offline.construct.yield"] = ratio(calls["offline.construct"],
                                           out["offline.construct.attempts"])
    out["extractor.search.yield"] = ratio(calls["extractor.search"],
                                          out["extractor.search.attempts"])
    out["extractor.is_extractor.subsets_per_s"] = ratio(
        out["extractor.is_extractor.subsets"], busy["extractor.is_extractor"])
    out["online.sweep.sequences_per_s"] = ratio(
        out["online.sweep.sequences"], busy["online.sweep"])
    out["online.session.requests"] = calls["online.session"]
    out["online.session.busy_s"] = busy["online.session"]
    out["online.session.rejections"] = counts["online.session"]["rejections"]
    for flavor in ("match", "extractor", "two_cond"):
        prefix = f"fingerprint.{flavor}"
        out[f"{prefix}.encode_s"] = busy[f"{prefix}.encode"]
        out[f"{prefix}.decode_s"] = busy[f"{prefix}.decode"]
        out[f"{prefix}.roundtrips"] = calls[f"{prefix}.encode"]
        out[f"{prefix}.bits"] = counts[f"{prefix}.encode"]["bits"]
    out["bench.job.self_s"] = job_self

    work = {
        "subsets": (first["offline.hall_check"]["subsets"]
                    + first["extractor.is_extractor"]["subsets"]),
        "sequences": first["online.sweep"]["sequences"],
        "nodes": first["online.game"]["nodes"],
        "attempts": (first["offline.construct"]["attempts"]
                     + first["extractor.search"]["attempts"]),
        "list_size": first["trevisan.list_decode"]["list_size"],
    }
    return out, work
