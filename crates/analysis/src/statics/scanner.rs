//! The pin-hash scanner: a hand-rolled matcher for the paper's regex
//! `sha(1|256)/[a-zA-Z0-9+/=]{28,64}` (§4.1.2).
//!
//! The length band `{28,64}` deliberately covers base64 SHA-1 (28 chars),
//! base64 SHA-256 (44), hex SHA-1 (40) and hex SHA-256 (64) digests. We
//! implement the match directly instead of pulling in a regex engine —
//! the pattern is fixed and the scanner runs over every string in every
//! package, so it is also the hottest loop in static analysis.

use pinning_pki::pin::{PinAlgorithm, SpkiPin};

/// One scanner match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinMatch {
    /// The full matched text, including the `shaN/` prefix.
    pub raw: String,
    /// Algorithm from the prefix.
    pub alg: PinAlgorithm,
    /// The digest body (base64 or hex, as matched).
    pub body: String,
}

impl PinMatch {
    /// Attempts to parse the match into a well-formed [`SpkiPin`]
    /// (base64 body of exactly the digest length).
    pub fn parse(&self) -> Option<SpkiPin> {
        SpkiPin::parse(&self.raw)
    }
}

fn is_b64_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'+' || c == b'/' || c == b'='
}

/// Scans `text` for every occurrence of the pin pattern.
pub fn scan_pins(text: &str) -> Vec<PinMatch> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Find the next 's' that could start "sha".
        let Some(off) = bytes[i..].iter().position(|&b| b == b's') else {
            break;
        };
        let start = i + off;
        i = start + 1;
        let rest = &bytes[start..];
        let (alg, prefix_len) = if rest.starts_with(b"sha256/") {
            (PinAlgorithm::Sha256, 7)
        } else if rest.starts_with(b"sha1/") {
            (PinAlgorithm::Sha1, 5)
        } else {
            continue;
        };
        let body_start = start + prefix_len;
        let mut end = body_start;
        while end < bytes.len() && end - body_start < 64 && is_b64_char(bytes[end]) {
            end += 1;
        }
        let body_len = end - body_start;
        if body_len < 28 {
            continue;
        }
        out.push(PinMatch {
            raw: text[start..end].to_string(),
            alg,
            body: text[body_start..end].to_string(),
        });
        i = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::{b64encode, sha256};

    #[test]
    fn matches_sha256_base64_pin() {
        let digest = sha256(b"spki");
        let pin = format!("sha256/{}", b64encode(&digest));
        let text = format!("config pin = \"{pin}\" end");
        let found = scan_pins(&text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].raw, pin);
        assert_eq!(found[0].alg, PinAlgorithm::Sha256);
        assert!(found[0].parse().is_some());
    }

    #[test]
    fn matches_sha1_pin() {
        let digest = pinning_crypto::sha1::sha1(b"spki");
        let pin = format!("sha1/{}", b64encode(&digest));
        let found = scan_pins(&pin);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].alg, PinAlgorithm::Sha1);
        assert!(found[0].parse().is_some());
    }

    #[test]
    fn rejects_short_bodies() {
        assert!(scan_pins("sha256/AAAA").is_empty());
        assert!(scan_pins("sha1/short=").is_empty());
    }

    #[test]
    fn rejects_other_prefixes() {
        let body = "A".repeat(44);
        assert!(scan_pins(&format!("md5/{body}")).is_empty());
        assert!(scan_pins(&format!("sha512/{body}")).is_empty());
    }

    #[test]
    fn caps_body_at_64_chars() {
        let body = "B".repeat(100);
        let found = scan_pins(&format!("sha256/{body}"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].body.len(), 64);
    }

    #[test]
    fn finds_multiple_pins_in_one_string() {
        let digest = sha256(b"a");
        let p1 = format!("sha256/{}", b64encode(&digest));
        let p2 = format!("sha1/{}", b64encode(&pinning_crypto::sha1::sha1(b"b")));
        let text = format!("{p1};{p2}");
        let found = scan_pins(&text);
        assert_eq!(found.len(), 2);
    }

    #[test]
    fn hex_body_matched_but_not_parsed() {
        // A 64-char hex body matches the raw pattern (as in the paper) but
        // is not a valid base64 SPKI pin.
        let hex = pinning_crypto::hex_encode(&sha256(b"x"));
        let found = scan_pins(&format!("sha256/{hex}"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].body.len(), 64);
        assert!(found[0].parse().is_none());
    }

    #[test]
    fn obfuscated_pin_not_matched() {
        // Reversed base64 without the prefix — the world generator's
        // obfuscation — must not match.
        let digest = sha256(b"spki");
        let b64: String = b64encode(&digest).chars().rev().collect();
        assert!(scan_pins(&b64).is_empty());
    }

    #[test]
    fn scanner_is_fast_enough_for_binaries() {
        // Smoke check on a larger haystack.
        let hay = "x".repeat(100_000) + "sha256/" + &"C".repeat(44);
        let found = scan_pins(&hay);
        assert_eq!(found.len(), 1);
    }
}
