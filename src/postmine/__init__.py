"""Batch analytics for short social-media posts.

Pipeline stages: corpus ingestion and dedup, noisy-text normalization,
TF-IDF + LDA topic modeling with coherence-based model selection,
verb/agent/affected event extraction, connotation-frame sentiment with
embedding propagation, and OLS regression of posting rates against
institution metadata.
"""
