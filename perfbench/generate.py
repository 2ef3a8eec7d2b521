"""Seeded input bundles for the postmine benchmark workloads.

``write_bundle(directory, workload, seed)`` writes every input the CLI
reads plus a ``config.json`` whose paths are relative to the bundle, so
the same (workload, seed) gives byte-identical files wherever the bundle
lives.  The lexicon, language model, correction dictionary, embeddings
and institutions come from ``postmine.demo.write_demo_bundle``; posts and
labels are generated here at benchmark scale:

* filler text draws from a Zipf-distributed vocabulary of a few thousand
  pseudo-words, so TF-IDF and LDA see a realistic vocabulary;
* hashtags are Zipf-distributed: the four demo tags dominate and a tail
  of a few hundred compounds follows, so hashtag bodies repeat;
* labeled posts narrate an event with an inventory verb; a few use the
  demo's unannotated-but-embedded verbs, so neighbour search runs;
* ``extra_verbs`` adds that many embedded but unannotated verbs to a
  config-supplied verb inventory and has labeled posts use them;
* ``hostile_posts`` adds posts carrying either one unique long
  random-letter hashtag body or one token with many elongated letter
  runs.  Lengths and run counts are spread evenly over their ranges
  rather than drawn, so the total hostile cost is about the same for
  every seed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from postmine import demo, events, textprep

TYPICAL_LABELED_SHARE = 0.3
# share of labeled narratives that use an ``extra_verbs`` verb
EXTRA_VERB_SHARE = 0.4
HASHTAG_TAIL = 300
FILLER_VOCAB = 3000
HOSTILE_BODY_CHARS = (120, 200)
HOSTILE_RUNS = (12, 15)

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_VERB_CODAS = "klmnprt"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]
    typical_posts: int
    hostile_posts: int = 0
    extra_verbs: int = 0


ALL_STAGES = ("ingest", "topics", "events", "sentiment", "regress", "report")
NO_TOPICS = ("ingest", "events", "sentiment", "regress", "report")

# iters is below the sweep at which any K converged on these corpora, so
# every seed runs the same number of sweeps
TOPICS = {"k_candidates": [2, 3, 4], "min_df": 2, "iters": 8, "top_words": 13}

# The machine this was tuned on drifts in speed by about 20% over tens of
# seconds, so only medians over runs near a minute long are steady, and
# two workloads of that length fit the benchmark's time budget (README.md).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="topics-small",
        why="300 posts, all six stages: topics.fit_lda is over 90% of stage "
            "time, six process start-ups show, no hostile posts",
        stages=ALL_STAGES, typical_posts=300),
    Workload(
        name="hostile-mix",
        why="2000 short posts with repeated hashtags and 1500 unannotated verbs, "
            "plus 12 hostile posts: textprep worst cases and neighbour search",
        stages=NO_TOPICS, typical_posts=2000, hostile_posts=12, extra_verbs=1500),
)}


def _zipf_probs(n: int, exponent: float, offset: float = 1.0) -> np.ndarray:
    weights = 1.0 / (np.arange(n) + offset) ** exponent
    return weights / weights.sum()


def _pseudo_words(rng, count, syllables, coda, taken):
    """``count`` distinct consonant-vowel words, each ending in ``coda``
    letters (or a vowel when ``coda`` is empty), none in ``taken``."""
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        n_syl = int(rng.integers(syllables[0], syllables[1] + 1))
        word = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(n_syl))
        if coda:
            word += coda[int(rng.integers(len(coda)))]
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _hostile_hashtag(rng, length: int) -> str:
    letters = rng.integers(0, 26, size=length)
    return "#" + "".join(chr(97 + int(c)) for c in letters)


def _elongated_token(rng, runs: int) -> str:
    out = []
    previous = -1
    for _ in range(runs):
        letter = int(rng.integers(0, 26))
        while letter == previous:
            letter = int(rng.integers(0, 26))
        previous = letter
        out.append(chr(97 + letter) * int(rng.integers(3, 6)))
    return "".join(out)


def _spread(bounds: tuple[int, int], n: int) -> list[int]:
    """``n`` integers evenly spaced over ``bounds``, both ends included."""
    return [int(round(v)) for v in np.linspace(bounds[0], bounds[1], n)]


def write_bundle(directory: str | Path, workload: Workload, seed: int) -> dict:
    """Write the workload's input bundle and return its generation facts
    (post counts, hostile share, unannotated-verb share, distinct words)."""
    directory = Path(directory)
    paths = demo.write_demo_bundle(directory, seed)
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])

    inventory = events.bundled_inventory()
    stopwords = textprep.bundled_stopwords()
    known = set(inventory.inflections) | set(stopwords) | set(demo.SEGMENT_WORDS)
    known |= set(paths["wordlist"].read_text("utf-8").split())
    known |= {line.split()[0] for line in paths["embeddings"].read_text("utf-8").splitlines()}

    extra_verbs = _pseudo_words(rng, workload.extra_verbs, (2, 2), _VERB_CODAS, known)
    taken = known | set(extra_verbs) | {
        v + s for v in extra_verbs for s in ("s", "ed", "ing")}
    filler = [w for w in _pseudo_words(rng, FILLER_VOCAB, (2, 3), "", taken)
              if events.lemmatize(w, inventory) is None]
    filler_probs = _zipf_probs(len(filler), 1.0, 2.7)

    theme_words = sorted({w for words in demo.THEMES.values() for w in words})
    tag_parts = sorted(set(demo.SEGMENT_WORDS) - {"cam", "pus", "sto", "ry", "hash", "tag"})
    tag_parts += theme_words + filler[:200]
    tails: set[str] = set(t[1:] for t in demo.HASHTAGS)
    tail_tags: list[str] = []
    while len(tail_tags) < HASHTAG_TAIL:
        n_parts = int(rng.integers(2, 4))
        body = "".join(tag_parts[int(rng.integers(len(tag_parts)))] for _ in range(n_parts))
        if body not in tails and len(body) <= 20:
            tails.add(body)
            tail_tags.append("#" + body)
    hashtags = list(demo.HASHTAGS) + tail_tags
    hashtag_probs = _zipf_probs(len(hashtags), 1.1)

    if workload.extra_verbs:
        _write_verb_extras(paths, rng, extra_verbs)

    verb_pools = {"physical": demo.PHYSICAL_VERBS, "verbal": demo.VERBAL_VERBS,
                  "visual": demo.VISUAL_VERBS}
    agent_pools = {"peer": demo.PEER_AGENTS, "faculty": demo.FACULTY_AGENTS,
                   "third_party": demo.THIRD_AGENTS}
    demo_unannotated = [v + "ed" if not v.endswith("e") else v + "d"
                        for v in (*demo.PROPAGATED_VERBS, demo.UNSCORABLE_VERB)]
    noise_bits = (
        "omg i can not believe this is still happening",
        "u should come to the meeting reallyyy soon",
        "so proud of everyone telling their story today :(",
        "read this thread https://news.example.net/a113 please",
        "thanks @campusvoice for listening 😔",
        "this is such s**t honestly",
        "contact the office at help@example.org b4 friday",
        "sooo many voices together",
    )
    institutions = [f"u{i + 1:03d}" for i in range(40)]
    n_users = max(10, workload.typical_posts // 3)
    theme_names = tuple(demo.THEMES)

    def filler_sentence(lo: int, hi: int) -> str:
        n = int(rng.integers(lo, hi + 1))
        picks = rng.choice(len(filler), size=n, p=filler_probs)
        theme = demo.THEMES[theme_names[int(rng.integers(3))]]
        words = [filler[int(i)] for i in picks]
        for w in rng.choice(theme, size=3, replace=False):
            words.insert(int(rng.integers(len(words) + 1)), str(w))
        return " ".join(words)

    def pick_tag() -> str:
        return hashtags[int(rng.choice(len(hashtags), p=hashtag_probs))]

    def narrative() -> tuple[str, str, str, bool]:
        htype = ("physical", "verbal", "visual")[int(rng.integers(3))]
        participant = ("peer", "faculty", "third_party")[int(rng.integers(3))]
        # the first narratives use each demo verb left unannotated once,
        # so every workload calls neighbour search a few times
        if narratives < len(demo_unannotated):
            verb, unannotated = demo_unannotated[narratives], True
        elif extra_verbs and rng.random() < EXTRA_VERB_SHARE:
            verb, unannotated = extra_verbs[int(rng.integers(len(extra_verbs)))] + "ed", True
        else:
            pool = verb_pools[htype]
            verb, unannotated = pool[int(rng.integers(len(pool)))], False
        agents = agent_pools[participant]
        agent = agents[int(rng.integers(len(agents)))]
        place = demo.PLACES[int(rng.integers(len(demo.PLACES)))]
        if rng.random() < 0.5:
            text = f"i was {verb} by my {agent} at the {place}."
        else:
            text = f"my {agent} {verb} me at the {place}."
        return text, htype, participant, unannotated

    posts: list[dict] = []
    labels: list[tuple[str, str, str]] = []
    narratives = unannotated_narratives = 0

    seen: set[tuple[str, str]] = set()

    def add_post(text: str) -> str:
        # (user, normalized text) stays unique among the original posts,
        # so dedup removes exactly the duplicates added below
        key = " ".join(text.casefold().split())
        user = f"user{int(rng.integers(n_users)):05d}"
        while (user, key) in seen:
            user = f"user{int(rng.integers(n_users)):05d}"
        seen.add((user, key))
        pid = f"p{len(posts) + 1:06d}"
        posts.append({
            "post_id": pid,
            "user_id": user,
            "institution_id": institutions[int(rng.integers(len(institutions)))],
            "timestamp": int(rng.integers(1508000000, 1510700000)),
            "text": text,
        })
        return pid

    def add_labeled(extra: str) -> None:
        nonlocal narratives, unannotated_narratives
        text, htype, participant, unannotated = narrative()
        narratives += 1
        unannotated_narratives += unannotated
        pid = add_post(f"{text} {filler_sentence(3, 8)}{extra}")
        labels.append((pid, htype, participant))

    for _ in range(workload.typical_posts):
        extra = ""
        if rng.random() < 0.25:
            extra += " " + noise_bits[int(rng.integers(len(noise_bits)))]
        if rng.random() < 0.6:
            extra += " " + pick_tag()
            if rng.random() < 0.15:
                extra += " " + pick_tag()
        if rng.random() < TYPICAL_LABELED_SHARE:
            add_labeled(extra)
        else:
            add_post(filler_sentence(6, 14) + extra)

    n_tags = workload.hostile_posts // 2
    hostile_kinds = (
        [_hostile_hashtag(rng, n) for n in _spread(HOSTILE_BODY_CHARS, n_tags)],
        [_elongated_token(rng, n)
         for n in _spread(HOSTILE_RUNS, workload.hostile_posts - n_tags)],
    )
    for items in hostile_kinds:
        for i, item in enumerate(items):
            # every other hostile post of each kind is labeled
            if i % 2 == 0:
                add_labeled(" " + item)
            else:
                add_post(f"{filler_sentence(6, 14)} {item}")
    originals = len(posts)

    # duplicates for dedup: repeated post ids, and same-user retypes of
    # earlier posts; a retype of a labeled post carries its own label,
    # which dedup leaves unmatched
    n_dups = max(1, len(posts) // 100)
    labeled_ids = {pid for pid, _, _ in labels}
    label_of = {pid: (h, p) for pid, h, p in labels}
    for _ in range(n_dups):
        twin = dict(posts[int(rng.integers(len(posts)))])
        twin["timestamp"] += 500
        posts.append(twin)
        original = posts[int(rng.integers(len(posts) - 1))]
        retype = dict(original)
        retype["post_id"] = f"p{len(posts) + 1:06d}"
        retype["text"] = "  " + original["text"].upper() + "  "
        retype["timestamp"] += 900
        posts.append(retype)
        if original["post_id"] in labeled_ids and rng.random() < 0.5:
            labels.append((retype["post_id"], *label_of[original["post_id"]]))
    order = rng.permutation(len(posts))
    posts = [posts[int(i)] for i in order]

    with open(paths["posts"], "w", encoding="utf-8", newline="\n") as fh:
        for post in posts:
            fh.write(json.dumps(post, ensure_ascii=True) + "\n")
    with open(paths["labels"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("post_id,harassment_type,participant\n")
        for pid, htype, participant in labels:
            fh.write(f"{pid},{htype},{participant}\n")
    _write_config(directory, workload, seed)

    distinct_words = set()
    for post in posts:
        distinct_words.update(post["text"].lower().split())
    return {
        "posts": len(posts),
        "posts_kept": originals,
        "labels": len(labels),
        "hostile_share": workload.hostile_posts / len(posts),
        "unannotated_verb_share": unannotated_narratives / narratives,
        "distinct_words": len(distinct_words),
    }


def _write_verb_extras(paths: dict, rng, verbs: list[str]) -> None:
    """Append ``verbs`` to the bundled inventory and give each an
    embedding near the aggressive-verb cluster, but no lexicon entry."""
    bundled = resources.files("postmine.data").joinpath("verbs.tsv").read_text("utf-8")
    inventory_path = paths["embeddings"].parent / "verb_inventory.tsv"
    with open(inventory_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(bundled if bundled.endswith("\n") else bundled + "\n")
        for verb in verbs:
            fh.write(f"{verb}\t{verb}s,{verb}ed,{verb}ing\n")
    with open(paths["embeddings"], "a", encoding="utf-8", newline="\n") as fh:
        for verb in verbs:
            vec = rng.normal(0.0, 1.0, demo.EMBEDDING_DIM)
            vec[0] += 3.0 * float(rng.random() < 0.5)
            fh.write(verb + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")


def _write_config(directory: Path, workload: Workload, seed: int) -> None:
    config = {
        "posts": "posts.jsonl",
        "institutions": "institutions.csv",
        "labels": "labels.csv",
        "lexicon": "lexicon.tsv",
        "embeddings": "embeddings.txt",
        "language_model": "langmodel.tsv",
        "abbreviations": "abbreviations.tsv",
        "wordlist": "wordlist.txt",
        "censored": "censored.txt",
        "topics": TOPICS,
        "propagation": {"k": 10, "min_similarity": 0.0},
        "seed": seed,
        "out_dir": "out",
    }
    if workload.extra_verbs:
        config["verb_inventory"] = "verb_inventory.tsv"
    with open(directory / "config.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")
