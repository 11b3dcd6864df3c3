//! Hostile-input budgets shared by every decoder in the workspace.
//!
//! The paper's pipeline had to survive whatever 5,079 real apps shipped:
//! broken network-security-configs, garbage certificate assets, and servers
//! presenting pathological chains. Every decoder here (DER/PEM, NSC XML,
//! simcap captures, journals) therefore runs under an explicit [`Budget`]:
//! a malformed or adversarial input is rejected with a typed error naming
//! the [`Limit`] it tripped, never a panic, a silent truncation, or an
//! unbounded loop.
//!
//! Chains served at *run time* are screened with [`screen_chain`] before a
//! measurement is attempted; the study pipeline converts a defect into
//! `MeasurementError::MalformedInput` — the measurement is reported as lost,
//! mirroring the Unobserved rule (§5.6): hostile input never fabricates or
//! suppresses a pinning verdict.

use crate::cert::Certificate;

/// Resource budget enforced by decoders and by chain screening.
///
/// The standard budget ([`Budget::STANDARD`]) is sized an order of
/// magnitude above anything an honestly-generated world produces, so
/// tripping a limit is evidence of hostile or corrupt input, not of an
/// undersized constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum total input size a decoder accepts, in bytes.
    pub max_input_bytes: usize,
    /// Maximum nesting / recursion depth (TLV nesting, XML element depth).
    pub max_depth: usize,
    /// Maximum certificates in one presented chain.
    pub max_chain_len: usize,
    /// Maximum SAN / name-constraint entries per certificate.
    pub max_names: usize,
    /// Maximum wildcard labels across one certificate name.
    pub max_wildcard_labels: usize,
    /// Maximum primitive decode operations per parse (belt-and-braces on
    /// top of the structural bounds; every operation consumes input, so
    /// work is already O(input), but the counter makes the contract
    /// checkable by the fuzzer).
    pub max_work: u64,
}

impl Budget {
    /// The workspace-wide default budget.
    pub const STANDARD: Budget = Budget {
        max_input_bytes: 16 * 1024 * 1024,
        max_depth: 64,
        max_chain_len: 16,
        max_names: 64,
        max_wildcard_labels: 4,
        max_work: 4_000_000,
    };

    /// A deliberately tight budget for tests and fuzzing: small enough that
    /// budget-tripping inputs are easy to construct, large enough that every
    /// honestly-encoded fixture still decodes.
    pub const fn strict() -> Budget {
        Budget {
            max_input_bytes: 64 * 1024,
            max_depth: 8,
            max_chain_len: 8,
            max_names: 16,
            max_wildcard_labels: 2,
            max_work: 100_000,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::STANDARD
    }
}

/// Which [`Budget`] limit an input tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Limit {
    /// Input larger than `max_input_bytes`.
    InputBytes,
    /// Nesting deeper than `max_depth`.
    Depth,
    /// Chain longer than `max_chain_len`.
    ChainLen,
    /// More names than `max_names`.
    Names,
    /// More wildcard labels than `max_wildcard_labels`.
    WildcardLabels,
    /// More decode operations than `max_work`.
    Work,
}

impl Limit {
    /// Stable lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Limit::InputBytes => "input-bytes",
            Limit::Depth => "depth",
            Limit::ChainLen => "chain-len",
            Limit::Names => "names",
            Limit::WildcardLabels => "wildcard-labels",
            Limit::Work => "work",
        }
    }
}

impl core::fmt::Display for Limit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A structural or budget defect found while screening a presented chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChainDefect {
    /// The chain exceeds `max_chain_len` certificates.
    TooLong {
        /// Presented chain length.
        len: usize,
    },
    /// The same certificate appears twice (covers cycles and self-issued
    /// loops — an honest chain never repeats a certificate).
    RepeatedCertificate {
        /// Index of the second occurrence (leaf = 0).
        position: usize,
    },
    /// A certificate carries more names than `max_names`.
    TooManyNames {
        /// Index of the offending certificate.
        position: usize,
        /// Number of names it carries.
        count: usize,
    },
    /// A certificate name stacks more wildcard labels than
    /// `max_wildcard_labels`.
    WildcardAbuse {
        /// Index of the offending certificate.
        position: usize,
    },
}

impl ChainDefect {
    /// Whether the defect is a budget trip (as opposed to a structural
    /// malformation such as a repeated certificate).
    pub fn is_budget_trip(self) -> bool {
        !matches!(self, ChainDefect::RepeatedCertificate { .. })
    }
}

impl core::fmt::Display for ChainDefect {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainDefect::TooLong { len } => write!(f, "chain of {len} certificates exceeds budget"),
            ChainDefect::RepeatedCertificate { position } => {
                write!(f, "certificate repeated at chain position {position}")
            }
            ChainDefect::TooManyNames { position, count } => {
                write!(f, "certificate {position} carries {count} names")
            }
            ChainDefect::WildcardAbuse { position } => {
                write!(f, "certificate {position} stacks wildcard labels")
            }
        }
    }
}

/// Counts wildcard labels (`*`) in a dotted name.
pub fn wildcard_labels(name: &str) -> usize {
    name.split('.').filter(|l| *l == "*").count()
}

/// Screens one certificate's names against `budget`.
fn screen_cert_names(cert: &Certificate, budget: &Budget) -> Result<(), Limit> {
    if cert.tbs.san.len() > budget.max_names {
        return Err(Limit::Names);
    }
    for name in &cert.tbs.san {
        if wildcard_labels(name) > budget.max_wildcard_labels {
            return Err(Limit::WildcardLabels);
        }
    }
    if wildcard_labels(&cert.tbs.subject.common_name) > budget.max_wildcard_labels {
        return Err(Limit::WildcardLabels);
    }
    Ok(())
}

/// Screens a presented chain (leaf first) against `budget`: length, name
/// counts, wildcard stacking, and certificate repetition (cycles /
/// self-issued loops).
///
/// This is the run-time counterpart of the decode-side budgets: servers in
/// the simulation hand over already-parsed certificates, so the instrumented
/// device screens the *structure* before attempting validation, exactly
/// where a real TLS stack would cap chain depth.
pub fn screen_chain(chain: &[Certificate], budget: &Budget) -> Result<(), ChainDefect> {
    if chain.len() > budget.max_chain_len {
        return Err(ChainDefect::TooLong { len: chain.len() });
    }
    let mut seen: Vec<[u8; 32]> = Vec::with_capacity(chain.len());
    for (position, cert) in chain.iter().enumerate() {
        match screen_cert_names(cert, budget) {
            Ok(()) => {}
            Err(Limit::Names) => {
                return Err(ChainDefect::TooManyNames {
                    position,
                    count: cert.tbs.san.len(),
                })
            }
            Err(_) => return Err(ChainDefect::WildcardAbuse { position }),
        }
        let fp = cert.fingerprint_sha256();
        if seen.contains(&fp) {
            return Err(ChainDefect::RepeatedCertificate { position });
        }
        seen.push(fp);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use crate::name::DistinguishedName;
    use crate::time::{SimTime, Validity, YEAR};
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;

    fn leaf_with_sans(sans: Vec<String>) -> Certificate {
        let mut rng = SplitMix64::new(0x11);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        root.issue_leaf(&sans, "Org", &key, Validity::starting(SimTime(0), YEAR))
    }

    #[test]
    fn honest_chain_passes() {
        let mut rng = SplitMix64::new(0x12);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = root.issue_leaf(
            &["a.example.com".to_string()],
            "Org",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = vec![leaf, root.cert.clone()];
        assert_eq!(screen_chain(&chain, &Budget::STANDARD), Ok(()));
    }

    #[test]
    fn repeated_certificate_detected() {
        let c = leaf_with_sans(vec!["a.example.com".into()]);
        let chain = vec![c.clone(), c];
        assert_eq!(
            screen_chain(&chain, &Budget::STANDARD),
            Err(ChainDefect::RepeatedCertificate { position: 1 })
        );
    }

    #[test]
    fn giant_san_list_trips_names_limit() {
        let sans: Vec<String> = (0..Budget::STANDARD.max_names + 1)
            .map(|i| format!("h{i}.example.com"))
            .collect();
        let count = sans.len();
        let c = leaf_with_sans(sans);
        assert_eq!(
            screen_chain(std::slice::from_ref(&c), &Budget::STANDARD),
            Err(ChainDefect::TooManyNames { position: 0, count })
        );
    }

    #[test]
    fn wildcard_stacking_trips_limit() {
        let c = leaf_with_sans(vec!["*.*.*.*.*.*.example.com".into()]);
        assert_eq!(
            screen_chain(std::slice::from_ref(&c), &Budget::STANDARD),
            Err(ChainDefect::WildcardAbuse { position: 0 })
        );
        assert_eq!(wildcard_labels("*.*.example.com"), 2);
    }

    #[test]
    fn deep_chain_trips_length_limit() {
        let c = leaf_with_sans(vec!["a.example.com".into()]);
        let chain: Vec<Certificate> = (0..Budget::STANDARD.max_chain_len + 1)
            .map(|i| {
                let mut x = c.clone();
                x.tbs.serial = x.tbs.serial.wrapping_add(i as u64);
                x.invalidate_derived();
                x
            })
            .collect();
        let len = chain.len();
        assert_eq!(
            screen_chain(&chain, &Budget::STANDARD),
            Err(ChainDefect::TooLong { len })
        );
    }

    #[test]
    fn budget_trip_classification() {
        assert!(ChainDefect::TooLong { len: 99 }.is_budget_trip());
        assert!(!ChainDefect::RepeatedCertificate { position: 1 }.is_budget_trip());
    }
}
