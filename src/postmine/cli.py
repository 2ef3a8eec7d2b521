"""Command-line pipeline: ingest -> topics / events -> sentiment -> regress.

Subcommands compose only through files in the output directory:
``topics`` and ``events`` read the corpus that ``ingest`` wrote, and
``sentiment`` scores the triples that ``events`` wrote (or the file the
``triples`` config key names).  Every run is a pure function of (input
files, config, seed), and report bodies carry no timestamps, so reruns
are byte-identical.  Exit codes: 0 success, 1 usage or configuration
error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import connotation, corpus, events, stats, textprep, topics
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

CORPUS_ARTIFACT = "corpus.jsonl"
INGEST_SUMMARY = "ingest_summary.txt"
TOPIC_REPORT = "topic_report.csv"
TOPIC_MODEL = "topic_model.txt"
VOCAB_ARTIFACT = "vocab.tsv"
TRIPLES_ARTIFACT = "triples.tsv"
SENTIMENT_REPORT = "sentiment_report.csv"
REGRESSION_REPORT = "regression_report.csv"
COMBINED_REPORT = "report.txt"


@dataclass(frozen=True)
class TopicsSettings:
    k_candidates: tuple[int, ...] = tuple(range(2, 21))
    min_df: int = 2
    iters: int = 200
    seed: int | None = None
    top_words: int = 13


@dataclass(frozen=True)
class RunConfig:
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
    topics: TopicsSettings = field(default_factory=TopicsSettings)
    propagation: connotation.PropagationConfig = field(
        default_factory=connotation.PropagationConfig)

    @property
    def topics_seed(self) -> int:
        return self.topics.seed if self.topics.seed is not None else self.seed


_PATH_KEYS = ("posts", "institutions", "labels", "lexicon", "embeddings",
              "language_model", "abbreviations", "wordlist")
_OPTIONAL_PATH_KEYS = ("censored", "verb_inventory", "triples")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_topics(settings: dict) -> None:
    """Reject topics settings the stage would only trip over after the
    whole corpus has been preprocessed."""
    if "k_candidates" in settings:
        ks = settings["k_candidates"]
        if not (isinstance(ks, list) and ks and all(_is_int(k) and k >= 2 for k in ks)):
            raise ConfigError(
                f"topics.k_candidates must be a non-empty list of integers >= 2, got {ks!r}")
    for key in ("iters", "min_df", "top_words"):
        if key in settings and not (_is_int(settings[key]) and settings[key] >= 1):
            raise ConfigError(
                f"topics.{key} must be an integer >= 1, got {settings[key]!r}")


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
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    known = set(_PATH_KEYS) | set(_OPTIONAL_PATH_KEYS) | {
        "topics", "propagation", "seed", "out_dir"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError("unknown config key(s): %s" % ", ".join(unknown))

    paths: dict[str, Path | None] = {}
    for key in _PATH_KEYS:
        if key not in raw:
            raise ConfigError(f"config is missing required key {key!r}")
        paths[key] = Path(raw[key])
    for key in _OPTIONAL_PATH_KEYS:
        paths[key] = Path(raw[key]) if raw.get(key) else None
    for key, value in paths.items():
        if value is not None and not value.is_file():
            raise ConfigError(f"config key {key!r}: no such file: {value}")

    seed = seed_override if seed_override is not None else raw.get("seed")
    if seed is None:
        raise ConfigError("config requires an explicit seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    out_dir = out_override if out_override is not None else raw.get("out_dir")
    if not out_dir:
        raise ConfigError("config requires out_dir (or pass --out)")

    topics_raw = raw.get("topics", {})
    if not isinstance(topics_raw, dict):
        raise ConfigError("topics settings must be a JSON object")
    _check_topics(topics_raw)
    try:
        topics_settings = TopicsSettings(**{
            **topics_raw,
            "k_candidates": tuple(topics_raw.get(
                "k_candidates", TopicsSettings.k_candidates)),
        })
    except TypeError as exc:
        raise ConfigError(f"bad topics settings: {exc}") from None
    try:
        propagation = connotation.PropagationConfig(**raw.get("propagation", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad propagation settings: {exc}") from None

    return RunConfig(
        posts=paths["posts"],               # type: ignore[arg-type]
        institutions=paths["institutions"],  # type: ignore[arg-type]
        labels=paths["labels"],             # type: ignore[arg-type]
        lexicon=paths["lexicon"],           # type: ignore[arg-type]
        embeddings=paths["embeddings"],     # type: ignore[arg-type]
        language_model=paths["language_model"],  # type: ignore[arg-type]
        abbreviations=paths["abbreviations"],    # type: ignore[arg-type]
        wordlist=paths["wordlist"],         # type: ignore[arg-type]
        censored=paths["censored"],
        verb_inventory=paths["verb_inventory"],
        triples=paths["triples"],
        topics=topics_settings,
        propagation=propagation,
        seed=seed,
        out_dir=Path(out_dir),
    )


def _out_path(config: RunConfig, name: str) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir / name


def _load_textprep(config: RunConfig):
    dictionary = textprep.load_correction_dictionary(
        config.abbreviations, config.wordlist, config.censored)
    lm = textprep.load_language_model(config.language_model)
    return dictionary, lm


def _load_inventory(config: RunConfig) -> events.VerbInventory:
    if config.verb_inventory is not None:
        return events.load_inventory(config.verb_inventory)
    return events.bundled_inventory()


def _read_corpus_artifact(config: RunConfig) -> corpus.Corpus:
    path = config.out_dir / CORPUS_ARTIFACT
    if not path.is_file():
        raise DataError(f"corpus artifact {path} not found; run 'ingest' first")
    return corpus.read_corpus(path)


def _preprocessed(config: RunConfig, posts) -> list[list[textprep.Token]]:
    dictionary, lm = _load_textprep(config)
    return [textprep.preprocess(post.text, dictionary, lm) for post in posts]


def cmd_ingest(config: RunConfig) -> None:
    raw, warnings = corpus.ingest_posts(config.posts)
    deduped = corpus.dedup(raw)
    corpus.write_corpus(deduped, _out_path(config, CORPUS_ARTIFACT))
    with open(_out_path(config, INGEST_SUMMARY), "w", encoding="utf-8") as fh:
        fh.write(f"posts_ingested={len(raw)}\n")
        fh.write(f"posts_after_dedup={len(deduped)}\n")
        fh.write(f"unique_users={deduped.user_count()}\n")
        fh.write(f"malformed_lines={len(warnings)}\n")
        for message in warnings:
            fh.write(f"warning={message}\n")
    print(f"ingested {len(raw)} posts -> {len(deduped)} after dedup "
          f"({deduped.user_count()} unique users, {len(warnings)} warnings)")


def cmd_topics(config: RunConfig) -> None:
    posts = _read_corpus_artifact(config).posts
    docs = _preprocessed(config, posts)
    vocab = topics.build_vocab(
        docs, min_df=config.topics.min_df, stopwords=textprep.bundled_stopwords())
    matrix = topics.tfidf(docs, vocab)
    model = topics.select_k(
        matrix, docs, config.topics.k_candidates, seed=config.topics_seed,
        iters=config.topics.iters)
    topics.save_model(model, _out_path(config, TOPIC_MODEL))
    with open(_out_path(config, VOCAB_ARTIFACT), "w", encoding="utf-8") as fh:
        for term, df in zip(vocab.terms, vocab.doc_freq):
            fh.write(f"{term}\t{df}\n")
    with open(_out_path(config, TOPIC_REPORT), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("topic", "keywords"))
        for t in range(model.k):
            words = [w for w, _ in topics.top_words(model, t, config.topics.top_words)]
            writer.writerow((t + 1, " ".join(words)))
        fh.write(f"# selected_k={model.k} coherence={model.coherence:.6f} "
                 f"seed={config.topics_seed}\n")
    print(f"selected k={model.k} (coherence {model.coherence:.6f}) "
          f"over candidates {list(config.topics.k_candidates)}")


def cmd_events(config: RunConfig) -> None:
    posts = _read_corpus_artifact(config).posts
    docs = _preprocessed(config, posts)
    inventory = _load_inventory(config)
    stopwords = textprep.bundled_stopwords()
    triples: list[events.EventTriple] = []
    for post, doc in zip(posts, docs):
        triples.extend(events.extract_triples(
            doc, inventory, stopwords=stopwords, source_post=post.post_id))
    events.write_triples(triples, _out_path(config, TRIPLES_ARTIFACT))
    print(f"extracted {len(triples)} triples from {len(posts)} posts")


def cmd_sentiment(config: RunConfig) -> None:
    full = _read_corpus_artifact(config)
    labels = corpus.ingest_labels(config.labels)
    labeled, _ = corpus.attach_labels(full, labels)
    if not labeled:
        raise DataError("no label resolves to a corpus post")
    path = config.triples or config.out_dir / TRIPLES_ARTIFACT
    if not path.is_file():
        raise DataError(f"triples artifact {path} not found; run 'events' first")
    by_post: dict[str, list[events.EventTriple]] = {}
    for triple in events.read_triples(path):
        by_post.setdefault(triple.source_post, []).append(triple)
    lexicon = connotation.load_lexicon(config.lexicon)
    embeddings = connotation.load_embeddings(config.embeddings)

    scored = connotation.score_triples(
        (t for lp in labeled for t in by_post.get(lp.post.post_id, ())),
        lexicon, embeddings, config.propagation)
    coverage = len({post_id for post_id, _ in scored}) / len(labeled)
    rows = connotation.aggregate(scored, labels)
    connotation.write_aggregate_report(
        rows, _out_path(config, SENTIMENT_REPORT), coverage=coverage)
    print(f"scored {len(scored)} events across {len(rows)} label groups "
          f"(coverage {coverage:.4f})")


def cmd_regress(config: RunConfig) -> None:
    full = _read_corpus_artifact(config)
    institutions = corpus.ingest_institutions(config.institutions)
    users_by_inst: dict[str, set[str]] = {}
    for post in full.posts:
        users_by_inst.setdefault(post.institution_id, set()).add(post.user_id)
    rates = stats.unique_user_rates(users_by_inst, institutions)
    design = stats.build_design(institutions, rates)
    result = stats.ols_fit(design)
    stats.write_regression_report(result, _out_path(config, REGRESSION_REPORT))
    print(f"fitted {len(design.feature_names)} coefficients on "
          f"{len(design.response)} institutions (R^2 {result.r_squared:.4f})")


def _render_csv_section(path: Path) -> str:
    rows = []
    footers = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                footers.append(line)
            elif line:
                rows.append(next(csv.reader([line])))
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
        body = _render_csv_section(path) if is_csv else path.read_text("utf-8").rstrip()
        chunks.append(f"== {title} ==\n{body}\n")
    if not chunks:
        raise DataError(f"no pipeline artifacts found in {config.out_dir}")
    report = "\n".join(chunks)
    with open(_out_path(config, COMBINED_REPORT), "w", encoding="utf-8") as fh:
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
    parser = _Parser(prog="postmine", description=__doc__)
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
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config, seed_override=args.seed,
                             out_override=args.out)
        _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
