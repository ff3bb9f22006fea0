//! Shared text machinery: tokenization, stopwords, and the background
//! frequency table the keyword scorer uses as its IDF stand-in.

/// English stopwords (compact but covers the high-frequency head).
pub const STOPWORDS: &[&str] = &[
    "a", "about", "above", "after", "again", "against", "al", "all", "also", "an", "and", "any",
    "are", "as", "at", "be", "because", "been", "before", "being", "below", "between", "both",
    "but", "by", "can", "could", "did", "do", "does", "done", "down", "during", "each", "else",
    "et", "few", "for", "from", "further", "had", "has", "have", "he", "her", "here", "his", "how",
    "however", "i", "if", "in", "into", "is", "it", "its", "may", "me", "might", "more", "most",
    "must", "my", "no", "nor", "not", "of", "off", "on", "one", "or", "other", "our", "out",
    "over", "shall", "she", "should", "so", "some", "such", "than", "that", "the", "their", "then",
    "there", "these", "they", "this", "those", "through", "to", "too", "two", "under", "up", "use",
    "used", "using", "very", "was", "we", "were", "what", "when", "where", "which", "while", "who",
    "whom", "why", "will", "with", "without", "would", "you", "your",
];

/// Common academic/scientific filler that carries little descriptive
/// power: down-weighted rather than dropped.
pub const COMMON_ACADEMIC: &[&str] = &[
    "analysis",
    "approach",
    "based",
    "data",
    "different",
    "figure",
    "file",
    "files",
    "first",
    "given",
    "large",
    "method",
    "methods",
    "model",
    "new",
    "number",
    "paper",
    "present",
    "results",
    "second",
    "section",
    "set",
    "show",
    "shown",
    "study",
    "system",
    "systems",
    "table",
    "time",
    "value",
    "values",
    "work",
];

/// True when the word is a stopword.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// Calls `f` on each lowercased alphabetic token of byte length ≥ 3, in
/// text order. Every token is lent from one reused buffer, so a caller
/// that counts words allocates per distinct word, not per token.
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_ascii_alphabetic() {
            cur.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphabetic() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            if cur.len() >= 3 {
                f(&cur);
            }
            cur.clear();
        }
    }
    if cur.len() >= 3 {
        f(&cur);
    }
}

/// A crude "inverse document frequency": rarer-looking words score higher.
/// Real Xtract uses word embeddings (§4.2); this preserves the observable
/// behaviour (distinctive domain words out-rank filler).
pub fn rarity_weight(word: &str) -> f64 {
    if is_stopword(word) {
        return 0.0;
    }
    if COMMON_ACADEMIC.binary_search(&word).is_ok() {
        return 0.3;
    }
    // Longer and rarer-lettered words are likelier to be domain terms.
    let len_factor = (word.len() as f64 / 6.0).min(2.0);
    let rare_letters = word
        .chars()
        .filter(|c| matches!(c, 'q' | 'x' | 'z' | 'j' | 'k' | 'v' | 'w' | 'y'))
        .count() as f64;
    1.0 + 0.5 * len_factor + 0.15 * rare_letters
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating tokenizer `for_each_token` replaced, kept as oracle.
    fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut cur = String::new();
        for ch in text.chars() {
            if ch.is_alphabetic() {
                cur.extend(ch.to_lowercase());
            } else if !cur.is_empty() {
                if cur.len() >= 3 {
                    tokens.push(std::mem::take(&mut cur));
                } else {
                    cur.clear();
                }
            }
        }
        if cur.len() >= 3 {
            tokens.push(cur);
        }
        tokens
    }

    fn visited(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        for_each_token(text, |t| tokens.push(t.to_string()));
        tokens
    }

    #[test]
    fn tokens_are_lowercased_and_short_ones_dropped() {
        assert_eq!(
            visited("The CO2 Flux, at 3 sites!"),
            vec!["the", "flux", "sites"]
        );
        assert_eq!(visited(""), Vec::<String>::new());
        assert_eq!(visited("a b c"), Vec::<String>::new());
    }

    #[test]
    fn visitor_matches_the_allocating_tokenizer() {
        for text in [
            "",
            "MiXeD CaSe ASCII and lower, UPPER.",
            "ab1cde f2g hi3jklm n0p",
            "İstanbul ǅ ß ﬁ İİ ǅǅ ßß ﬁx",
            "a bc def",
            "def bc a",
            "é éé ééé x",
            "ab",
            "abc",
            "métadonnées über alles\r\nÀ-propos 日本語 ok",
        ] {
            assert_eq!(visited(text), tokenize(text), "{text:?}");
        }
    }

    #[test]
    fn word_lists_are_strictly_increasing() {
        // `binary_search` is the only lookup: a word added out of place
        // would silently stop matching.
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]));
        assert!(COMMON_ACADEMIC.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(STOPWORDS.len(), 118);
        assert_eq!(COMMON_ACADEMIC.len(), 32);
    }

    #[test]
    fn stopwords_score_zero() {
        assert_eq!(rarity_weight("the"), 0.0);
        assert_eq!(rarity_weight("because"), 0.0);
        assert_eq!(rarity_weight("however"), 0.0);
        assert_eq!(rarity_weight("data"), 0.3);
        assert!(rarity_weight("spectroscopy") > rarity_weight("data"));
    }

    #[test]
    fn domain_terms_outrank_filler() {
        assert!(rarity_weight("perovskite") > rarity_weight("results"));
        assert!(rarity_weight("xanthophyll") > rarity_weight("set"));
    }

    #[test]
    fn unicode_tokens_survive() {
        assert!(visited("métadonnées über alles").contains(&"métadonnées".to_string()));
    }
}
