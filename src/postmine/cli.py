"""Command-line pipeline: ingest -> topics / events -> sentiment -> regress.

Subcommands compose only through files in the output directory:
``topics`` and ``events`` read the corpus that ``ingest`` wrote, and
``sentiment`` scores the triples that ``events`` wrote (or the file the
``triples`` config key names).  Every run is a pure function of (input
files, config, seed), and report bodies carry no timestamps, so reruns
are byte-identical.  Exit codes: 0 success, 1 usage or configuration
error, 2 data error.

``load_config`` checks the whole config before any stage reads an
input, every ``topics`` and ``propagation`` setting against the one
table ``_SETTINGS``.  The run seed (``seed`` or ``--seed``) is the only
seed: LDA is the one randomized step.

The commands hold the config, the paths, the exit codes and the
printing; the stage modules compute, write the artifacts and return
plain values.  Only this module writes to stderr: the stage functions
return their warnings and diagnostics, and the commands print them
(``-v`` adds the per-K lines of ``topics``).  ``report`` parses each
table with one ``csv`` reader over its lines that are not ``#`` footers.

A stage pays little to start and to stop.  It imports only the modules
it runs: every stage module, ``corpus`` included, is imported inside
the commands that use it, since numpy and the text-processing tables
are most of a stage's start-up time and ``report`` needs none of them.
And ``run``, the entry point of ``python -m postmine.cli`` and of the
``postmine`` script, ends the process with ``os._exit`` once ``main``
has returned and the standard streams are flushed, skipping the
interpreter's teardown; under a profiler or a tracer, which save their
results at exit, it takes the normal exit.  ``os._exit`` is safe only
while every file a stage writes is written through
``errors.atomic_open``, so it is closed and renamed into place before
``main`` returns, and nothing in the package relies on ``atexit``,
``tempfile``, ``weakref`` or ``__del__``; keep it that way.

Importing this module caps numpy's bundled OpenBLAS at one thread
(``OPENBLAS_NUM_THREADS=1``); a value the user has already set stands.
OpenBLAS starts a worker thread when numpy is imported, and that thread
spins through the start-up of ``topics`` and of a ``sentiment`` run that
imports numpy for a large neighbor scan, which costs them wall time
whenever the machine has no idle core for it.  No stage calls BLAS (the
products are ``einsum`` calls without ``optimize``, and ``connotation``
takes its norms and sums one dimension at a time), so the cap changes
no output.  It is set at import, not in ``run``, so that it holds for
every caller that imports this module before numpy:
``python -m postmine.cli``, the ``postmine`` script and an in-process
``main``; the caller's child processes inherit it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConfigError, DataError, atomic_open, read_utf8

# No stage calls BLAS, and OpenBLAS's worker thread spins from numpy's
# import on; a value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if TYPE_CHECKING:
    from . import textprep, topics

CORPUS_ARTIFACT = "corpus.jsonl"
INGEST_SUMMARY = "ingest_summary.txt"
TOPIC_REPORT = "topic_report.csv"
TOPIC_MODEL = "topic_model.txt"
VOCAB_ARTIFACT = "vocab.tsv"
TRIPLES_ARTIFACT = "triples.tsv"
SENTIMENT_REPORT = "sentiment_report.csv"
REGRESSION_REPORT = "regression_report.csv"
COMBINED_REPORT = "report.txt"


class TopicsSettings(NamedTuple):
    k_candidates: tuple[int, ...] = tuple(range(2, 21))
    min_df: int = 2
    iters: int = 200
    top_words: int = 13


class PropagationSettings(NamedTuple):
    """k bounds each unannotated verb's neighborhood; min_similarity
    filters it."""

    k: int = 10
    min_similarity: float = 0.0


class RunConfig(NamedTuple):
    posts: Path
    institutions: Path
    labels: Path
    lexicon: Path
    embeddings: Path
    language_model: Path
    abbreviations: Path
    wordlist: Path
    seed: int
    out_dir: Path
    censored: Path | None = None
    verb_inventory: Path | None = None
    triples: Path | None = None
    topics: TopicsSettings = TopicsSettings()
    propagation: PropagationSettings = PropagationSettings()


_PATH_KEYS = ("posts", "institutions", "labels", "lexicon", "embeddings",
              "language_model", "abbreviations", "wordlist")
_OPTIONAL_PATH_KEYS = ("censored", "verb_inventory", "triples")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_at_least(low: int):
    return lambda value: _is_int(value) and value >= low


# Every setting of the config's "topics" and "propagation" objects: what
# its value must be and the test the value must pass, in checking order.
_SETTINGS = {
    "topics": (TopicsSettings, {
        "k_candidates": ("a non-empty list of integers >= 2", lambda value: (
            isinstance(value, list) and bool(value)
            and all(map(_int_at_least(2), value)))),
        "iters": ("an integer >= 1", _int_at_least(1)),
        "min_df": ("an integer >= 1", _int_at_least(1)),
        "top_words": ("an integer >= 1", _int_at_least(1)),
    }),
    "propagation": (PropagationSettings, {
        "k": ("an integer >= 1", _int_at_least(1)),
        "min_similarity": ("a number in [0, 1]", lambda value: (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 <= value <= 1)),
    }),
}


def _path(key: str, value) -> Path:
    if not (isinstance(value, str) and value):
        raise ConfigError(f"config key {key!r} must be a non-empty string, got {value!r}")
    return Path(value)


def _settings(section: str, raw: dict):
    """The config's ``section`` object checked against ``_SETTINGS`` and
    made a ``TopicsSettings`` or ``PropagationSettings``; a list value
    becomes a tuple, and an absent key takes its default."""
    given = raw.get(section, {})
    if not isinstance(given, dict):
        raise ConfigError(f"{section} settings must be a JSON object")
    record, rules = _SETTINGS[section]
    unknown = sorted(set(given) - set(rules))
    if unknown:
        raise ConfigError(f"unknown {section} setting(s): {', '.join(unknown)}")
    for key, (what, test) in rules.items():
        if key in given and not test(given[key]):
            raise ConfigError(f"{section}.{key} must be {what}, got {given[key]!r}")
    return record(**{key: tuple(value) if isinstance(value, list) else value
                     for key, value in given.items()})


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Parse and validate the declarative JSON config.

    Flags override config one-for-one; every referenced input path must
    exist at validation time and the seed is mandatory.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path} is not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = {*_PATH_KEYS, *_OPTIONAL_PATH_KEYS, *_SETTINGS, "seed", "out_dir"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))

    paths: dict[str, Path | None] = {}
    for key in _PATH_KEYS:
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
        paths[key] = _path(key, raw[key])
    for key in _OPTIONAL_PATH_KEYS:
        paths[key] = _path(key, raw[key]) if raw.get(key) is not None else None
    for key, value in paths.items():
        if value is not None and not value.is_file():
            raise ConfigError(f"config key {key!r}: no such file: {value}")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("config requires an explicit seed")
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    out_dir = out_override if out_override is not None else raw.get("out_dir")
    if out_dir is None:
        raise ConfigError("config requires out_dir (or pass --out)")

    topics = _settings("topics", raw)
    propagation = _settings("propagation", raw)
    return RunConfig(**paths, seed=seed, topics=topics, propagation=propagation,
                     out_dir=_path("out_dir", out_dir))


def _warn(module: str, message: str) -> None:
    print(f"WARNING postmine.{module}: {message}", file=sys.stderr)


def _warn_batch(source: str, warnings: list[str]) -> None:
    if warnings:
        _warn("corpus", f"{source}: {len(warnings)} warning(s), "
                        f"first: {'; '.join(warnings[:3])}")


def _out_path(config: RunConfig, name: str) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir / name


def _preprocessed(config: RunConfig, posts) -> list[list[textprep.Token]]:
    from . import textprep

    dictionary = textprep.load_correction_dictionary(
        config.abbreviations, config.wordlist, config.censored)
    lm = textprep.load_language_model(config.language_model)
    # one memo per run: each distinct whitespace chunk is processed once
    memo: dict[str, tuple[textprep.Token, ...]] = {}
    return [textprep.preprocess(post.text, dictionary, lm, memo) for post in posts]


def cmd_ingest(config: RunConfig) -> None:
    from . import corpus

    raw, warnings = corpus.ingest_posts(config.posts)
    _warn_batch("ingest_posts", warnings)
    if not raw:
        raise DataError(f"{config.posts}: no valid post records in input")
    deduped = corpus.dedup(raw)
    users = len({post.user_id for post in deduped})
    corpus.write_corpus(deduped, _out_path(config, CORPUS_ARTIFACT))
    corpus.write_ingest_summary(_out_path(config, INGEST_SUMMARY), len(raw),
                                len(deduped), users, warnings)
    print(f"ingested {len(raw)} posts -> {len(deduped)} after dedup "
          f"({users} unique users, {len(warnings)} warnings)")


def cmd_topics(config: RunConfig) -> list[str]:
    """Returns the ``-v`` lines: one per candidate K."""
    from . import corpus, textprep, topics

    posts = corpus.read_corpus(config.out_dir / CORPUS_ARTIFACT)
    docs = [textprep.content_terms(doc) for doc in _preprocessed(config, posts)]
    vocab = topics.build_vocab(docs, min_df=config.topics.min_df)
    matrix = topics.tfidf(docs, vocab)
    skipped = sum(1 for ids, _ in matrix.rows if not len(ids))
    if skipped:
        _warn("topics", f"fit_lda: skipping {skipped} document(s) with no weighted terms")
    model = topics.select_k(
        matrix, vocab, config.topics.k_candidates, seed=config.seed,
        iters=config.topics.iters)
    topics.save_model(model, _out_path(config, TOPIC_MODEL))
    topics.write_vocab(vocab, _out_path(config, VOCAB_ARTIFACT))
    topics.write_topic_report(model, _out_path(config, TOPIC_REPORT), config.topics.top_words)
    print(f"selected k={model.k} (coherence {model.coherence:.6f}) "
          f"over candidates {list(config.topics.k_candidates)}")
    return [_candidate_line(fit) for fit in model.fits]


def _candidate_line(fit: topics.FitSummary) -> str:
    return (f"INFO postmine.topics: select_k: k={fit.k} coherence={fit.coherence:.6f} "
            f"sweeps={fit.sweeps} inner={fit.inner} capped={fit.capped} "
            f"bound={fit.bound:.6f} stop={'tol' if fit.converged else 'iters'}")


def cmd_events(config: RunConfig) -> None:
    from . import corpus, events

    posts = corpus.read_corpus(config.out_dir / CORPUS_ARTIFACT)
    docs = _preprocessed(config, posts)
    inventory, warnings = (events.load_inventory(config.verb_inventory)
                           if config.verb_inventory is not None
                           else (events.bundled_inventory(), []))
    for message in warnings:
        _warn("events", message)
    triples: list[events.EventTriple] = []
    for post, doc in zip(posts, docs):
        triples.extend(events.extract_triples(doc, inventory, source_post=post.post_id))
    events.write_triples(triples, _out_path(config, TRIPLES_ARTIFACT))
    print(f"extracted {len(triples)} triples from {len(posts)} posts")


def cmd_sentiment(config: RunConfig) -> None:
    from . import connotation, corpus, events

    labels, warnings = corpus.attach_labels(
        corpus.read_corpus(config.out_dir / CORPUS_ARTIFACT),
        corpus.ingest_labels(config.labels))
    _warn_batch("attach_labels", warnings)
    if not labels:
        raise DataError("no label resolves to a corpus post")
    path = config.triples or config.out_dir / TRIPLES_ARTIFACT
    if not path.is_file():
        raise DataError(f"triples artifact {path} not found; run 'events' first")
    triples = events.read_triples(path)
    lexicon = connotation.load_lexicon(config.lexicon)
    embeddings = connotation.load_embeddings(config.embeddings)

    settings = config.propagation
    scored = connotation.score_triples(triples, labels, lexicon, embeddings,
                                       settings.k, settings.min_similarity)
    rows, coverage = connotation.aggregate(scored, labels)
    connotation.write_aggregate_report(
        rows, _out_path(config, SENTIMENT_REPORT), coverage=coverage)
    print(f"scored {len(scored)} events across {len(rows)} label groups "
          f"(coverage {coverage:.4f})")


def cmd_regress(config: RunConfig) -> None:
    from . import corpus, stats

    posts = corpus.read_corpus(config.out_dir / CORPUS_ARTIFACT)
    institutions = corpus.ingest_institutions(config.institutions)
    design = stats.build_design(institutions, posts)
    result = stats.ols_fit(design)
    stats.write_regression_report(result, _out_path(config, REGRESSION_REPORT))
    print(f"fitted {len(design.feature_names)} coefficients on "
          f"{len(design.response)} institutions (R^2 {result.r_squared:.4f})")


def _render_csv_section(handle) -> str:
    raw = handle.read().splitlines()
    footers = [line for line in raw if line.startswith("#")]
    rows = [row for row in csv.reader(line for line in raw if not line.startswith("#")) if row]
    if not rows:
        return "\n".join(footers)
    widths = [max(len(row[i]) for row in rows if i < len(row))
              for i in range(max(len(r) for r in rows))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines + footers)


def cmd_report(config: RunConfig) -> None:
    sections = (
        ("ingest", INGEST_SUMMARY, False),
        ("topics", TOPIC_REPORT, True),
        ("sentiment", SENTIMENT_REPORT, True),
        ("regression", REGRESSION_REPORT, True),
    )
    chunks = []
    for title, name, is_csv in sections:
        path = config.out_dir / name
        if not path.is_file():
            continue
        with read_utf8(path) as handle:
            body = _render_csv_section(handle) if is_csv else handle.read().rstrip()
        chunks.append(f"== {title} ==\n{body}\n")
    if not chunks:
        raise DataError(f"no pipeline artifacts found in {config.out_dir}")
    report = "\n".join(chunks)
    with atomic_open(_out_path(config, COMBINED_REPORT)) as fh:
        fh.write(report)
    print(report)


_COMMANDS = {
    "ingest": cmd_ingest,
    "topics": cmd_topics,
    "events": cmd_events,
    "sentiment": cmd_sentiment,
    "regress": cmd_regress,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="postmine", description="\n\n".join(__doc__.split("\n\n")[:2]))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("-v", "--verbose", action="store_true")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:   # --help
        return int(exc.code or 0)
    try:
        config = load_config(args.config, seed_override=args.seed,
                             out_override=args.out)
        details = _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    if args.verbose and details:
        print("\n".join(details), file=sys.stderr)
    return 0


def run() -> None:
    """Run ``main`` on the command line and exit with its code, without
    the interpreter's teardown (see the module docstring).  An exception
    that escapes ``main``, a profiler and a tracer take the normal exit
    path."""
    code = main()
    if sys.getprofile() is not None or sys.gettrace() is not None:
        sys.exit(code)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
