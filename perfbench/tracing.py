"""Out-of-program tracing for the postmine benchmark.

``Tracer.install()`` replaces public functions of the postmine modules
with timing wrappers, by assigning module attributes; the CLI and the
modules call each other through those attributes, so every call is
seen.  The wrappers pass arguments, return values and exceptions
through unchanged.  ``Tracer.restore()`` puts the originals back.

Two kinds of boundary are recorded, all kept in memory:

* spans -- one record per call: name, start, end, index of the parent
  span, and the time covered by folded children (below).  A function's
  self time is its span's duration minus its child spans and folded
  children.
* aggregates -- for per-token functions called hundreds of thousands of
  times (tokenize, correct_spelling, segment): per name a call count,
  total and maximum time and every duration; the time is credited to
  the enclosing span as a folded child.

A span is not opened for a call made directly inside a span of the same
name (the loaders call themselves once a path is opened) or of a name
listed in its ``fold_under``: ``read_corpus`` parses through
``ingest_posts``, and that parse is part of re-reading the artifact,
not of ingesting posts.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Callable

TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest listed percentile that has at
    least ten samples beyond it."""
    ordered = sorted(values)
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            best = pct
    return best, ordered[min(len(ordered) - 1, int(len(ordered) * best / 100.0))]


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    max: float = 0.0
    durations: list[float] = field(default_factory=list)
    distinct_args: set = field(default_factory=set)


@dataclass
class Tracer:
    # span record: [name, start, end, parent index or None, folded child time]
    spans: list[list] = field(default_factory=list)
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[ModuleType, str, Callable]] = field(default_factory=list)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn: Callable, observe: Callable | None = None,
             fold_under: tuple[str, ...] = ()) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``;
        ``observe(tracer, args, kwargs, result)`` runs after a call that
        returns."""
        spans, stack = self.spans, self._stack
        fold = {name, *fold_under}

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] in fold:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def aggregate(self, name: str, fn: Callable, keep_arg: bool = False) -> Callable:
        """Wrap ``fn`` so calls fold into one aggregate; ``keep_arg``
        also keeps the distinct first arguments."""
        agg = self.aggregates.setdefault(name, Aggregate())
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg.calls += 1
                agg.total += elapsed
                agg.durations.append(elapsed)
                if elapsed > agg.max:
                    agg.max = elapsed
                if keep_arg:
                    agg.distinct_args.add(args[0])
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def patch(self, module: ModuleType, attr: str, wrapper: Callable) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every postmine layer."""
        from postmine import connotation, corpus, events, stats, textprep, topics

        def wrap(module, attr, observe=None, fold_under=()):
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self.patch(module, attr, self.span(name, getattr(module, attr),
                                               observe, fold_under))

        wrap(corpus, "ingest_posts",
             lambda t, a, k, r: t.count("corpus.posts_in", len(r[0])),
             fold_under=("corpus.read_corpus",))
        wrap(corpus, "dedup", lambda t, a, k, r: t.count("corpus.posts_kept", len(r)))
        wrap(corpus, "read_corpus")
        wrap(corpus, "attach_labels",
             lambda t, a, k, r: t.count("corpus.labels_unmatched", len(r[1])))

        wrap(textprep, "load_correction_dictionary")
        wrap(textprep, "load_language_model")
        wrap(textprep, "preprocess")
        for attr in ("tokenize", "correct_spelling", "segment"):
            self.patch(textprep, attr, self.aggregate(
                f"textprep.{attr}", getattr(textprep, attr), keep_arg=attr == "segment"))

        wrap(topics, "build_vocab", lambda t, a, k, r: t.count("topics.vocab_terms", len(r)))
        wrap(topics, "tfidf", lambda t, a, k, r: t.count(
            "topics.nnz", sum(len(ids) for ids, _ in r.rows)))
        wrap(topics, "fit_lda", lambda t, a, k, r: t.count(
            "topics.sweeps", len(r.objective_trace)))
        wrap(topics, "coherence")
        wrap(topics, "select_k", lambda t, a, k, r: t.count("topics.selected_k", r.k))

        wrap(events, "extract_triples")
        wrap(events, "write_triples")

        wrap(connotation, "load_lexicon")
        wrap(connotation, "load_embeddings")
        wrap(connotation, "propagate")
        wrap(connotation, "nearest_annotated")
        wrap(connotation, "aggregate")

        wrap(stats, "ols_fit", lambda t, a, k, r: t.count(
            "stats.institutions", len(a[0].response)))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name plus total time per aggregate name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, folded) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i] - folded
        for name, agg in self.aggregates.items():
            out[name] = out.get(name, 0.0) + agg.total
        return out

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span named ``name``."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def calls(self, name: str) -> int:
        if name in self.aggregates:
            return self.aggregates[name].calls
        return sum(1 for span in self.spans if span[0] == name)

    def dump(self, path) -> None:
        """Write spans (one JSON array per line), then one line per
        aggregate with its p50 and tail."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            for name, agg in sorted(self.aggregates.items()):
                record = {"aggregate": name, "calls": agg.calls, "total": agg.total,
                          "max": agg.max}
                if agg.durations:
                    record["p50"] = statistics.median(agg.durations)
                    record["tail_pct"], record["tail"] = tail(agg.durations)
                fh.write(json.dumps(record) + "\n")
