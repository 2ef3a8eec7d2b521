"""Batch analytics for short social-media posts.

Pipeline stages: corpus ingestion and dedup, noisy-text normalization,
TF-IDF + LDA topic modeling with coherence-based model selection,
verb/agent/affected event extraction, connotation-frame sentiment with
embedding propagation, and OLS regression of posting rates against
institution metadata.
"""

from .corpus import (
    Corpus,
    HarassmentLabel,
    HarassmentType,
    InstitutionRecord,
    Participant,
    Post,
    Region,
    attach_labels,
    dedup,
    ingest_institutions,
    ingest_labels,
    ingest_posts,
)
from .connotation import (
    ConnotationFrame,
    ConnotationLexicon,
    EmbeddingStore,
    PropagationConfig,
    aggregate,
    load_embeddings,
    load_lexicon,
    nearest_annotated,
    propagate,
    score_triples,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyCorpusError,
    EmptyVocabularyError,
    NoEmbeddingError,
    RankDeficientError,
    UnscorableError,
)
from .events import (
    EventTriple,
    TokenSpan,
    VerbInventory,
    extract_triples,
    lemmatize,
    load_inventory,
)
from .stats import (
    DesignMatrix,
    RegressionResult,
    build_design,
    normalize_rate,
    ols_fit,
    t_pvalue,
)
from .textprep import (
    CorrectionDictionary,
    LanguageModel,
    Token,
    TokenKind,
    correct_spelling,
    preprocess,
    segment,
    tokenize,
)
from .topics import (
    TopicModel,
    Vocabulary,
    WeightedMatrix,
    build_vocab,
    coherence,
    fit_lda,
    select_k,
    tfidf,
    top_words,
)

__version__ = "0.1.0"
