// Package nlp implements the natural-language-processing primitives the
// PSP framework needs: tokenization of social-media text, normalization,
// a light suffix-stripping stemmer, lexicon-based sentiment scoring
// with negation and intensifier handling, hashtag co-occurrence
// learning, price extraction and one-dimensional k-means clustering for
// price levels.
//
// Everything is deterministic and dependency-free: the package replaces
// the commercial NLP stack behind the paper's prototype while preserving
// the three capabilities the framework actually consumes — post
// attraction scoring, adversary-device price clustering and attack
// keyword auto-learning.
package nlp
