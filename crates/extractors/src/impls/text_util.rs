//! Shared text machinery: tokenization, stopwords, and the background
//! frequency table the keyword scorer uses as its IDF stand-in.

use std::borrow::Cow;

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

/// Length of the run of ASCII lowercase letters `bytes` starts with, eight
/// bytes to a step: where a word ends is data, not a branch to mispredict.
fn lowercase_run(bytes: &[u8]) -> usize {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const ONES: u64 = 0x0101_0101_0101_0101;
    let mut n = 0;
    for chunk in bytes.chunks_exact(8) {
        let x = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        let y = x & LOW7;
        // Bit 7 of each byte, set where that byte is in `b'a'..=b'z'`: at
        // least `a`, not above `z`, and not ≥ 0x80 to begin with.
        let lower = (y + ONES * (0x80 - b'a' as u64)) & !(y + ONES * (0x7f - b'z' as u64)) & !x;
        if lower & !LOW7 != !LOW7 {
            return n + ((!lower & !LOW7).trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + bytes[n..]
        .iter()
        .take_while(|b| b.is_ascii_lowercase())
        .count()
}

/// Calls `f` on each lowercased alphabetic token of byte length ≥ 3, in
/// text order. A run of lowercase ASCII letters is its own token and is
/// lent straight from `text` (`Cow::Borrowed`, free to clone); a run that
/// holds an uppercase or non-ASCII letter is lowercased `char` by `char`
/// into one reused buffer and lent from there. A caller that counts words
/// therefore copies at most once per distinct word, and only words the
/// text does not already spell in lowercase.
pub fn for_each_token<'a>(text: &'a str, mut f: impl FnMut(&Cow<'a, str>)) {
    let bytes = text.as_bytes();
    let mut folded: Cow<'a, str> = Cow::Owned(String::new());
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let mut plain = true;
        // Walks one alphabetic run; yields the width of what ended it.
        let delimiter = loop {
            i += lowercase_run(&bytes[i..]);
            match bytes.get(i) {
                None => break 0,
                Some(b'A'..=b'Z') => {
                    plain = false;
                    i += 1;
                }
                Some(0x80..) => {
                    let ch = text[i..].chars().next().expect("i is a char boundary");
                    if !ch.is_alphabetic() {
                        break ch.len_utf8();
                    }
                    plain = false;
                    i += ch.len_utf8();
                }
                Some(_) => break 1,
            }
        };
        let run = &text[start..i];
        if plain {
            if run.len() >= 3 {
                f(&Cow::Borrowed(run));
            }
        } else {
            let cur = folded.to_mut();
            cur.clear();
            cur.extend(run.chars().flat_map(char::to_lowercase));
            if cur.len() >= 3 {
                f(&folded);
            }
        }
        i += delimiter;
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
    fn lowercase_run_stops_at_the_first_other_byte_wherever_it_is() {
        for len in [0, 1, 7, 8, 9, 16, 23] {
            assert_eq!(lowercase_run(&vec![b'q'; len]), len);
            for at in 0..len {
                for other in (0..=u8::MAX).filter(|b| !b.is_ascii_lowercase()) {
                    let mut bytes = vec![b'a' + (at % 26) as u8; len];
                    bytes[at] = other;
                    // What follows the first stop must not matter.
                    for after in [b'z', b'A', 0xff] {
                        bytes[at + 1..].fill(after);
                        assert_eq!(lowercase_run(&bytes), at, "{other:#x} at {at} of {len}");
                    }
                }
            }
        }
        assert_eq!(lowercase_run(b"abcdefghijklmnopqrstuvwxyz{"), 26);
        assert_eq!(lowercase_run(b"`abc"), 0);
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
