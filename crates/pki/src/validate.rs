//! Full chain validation.
//!
//! Implements the checks a real TLS stack performs and that the paper
//! verifies pinning apps do not subvert (§5.3.4): signature chaining, basic
//! constraints, path-length constraints, validity windows, hostname
//! matching, root-store anchoring, and leaf revocation.

use crate::cache;
use crate::cert::Certificate;
use crate::error::ValidationError;
use crate::store::RootStore;
use crate::time::SimTime;
use pinning_resilience::{Deadline, DeadlineExceeded};
use std::collections::{HashMap, HashSet};
use std::sync::{OnceLock, RwLock};

/// Work units charged per certificate for screening, expiry, and linkage
/// bookkeeping (cheap, non-cryptographic passes over the chain).
pub const COST_PER_CERT_OVERHEAD: u64 = 2;
/// Flat work units charged once per validation for setup.
pub const COST_CHAIN_SETUP: u64 = 2;
/// Work units charged before each signature verification — the dominant
/// cost, charged *before* the verify so an expired deadline abandons the
/// chain walk mid-way.
pub const COST_SIGNATURE_VERIFY: u64 = 40;
/// Work units charged for the root-store anchor lookup.
pub const COST_ANCHOR_LOOKUP: u64 = 4;
/// Work units charged for the hostname match.
pub const COST_HOSTNAME_CHECK: u64 = 2;
/// Work units charged for the leaf revocation check.
pub const COST_REVOCATION_CHECK: u64 = 1;
/// Work units charged for probing the validation memo.
pub const COST_MEMO_PROBE: u64 = 2;

/// A set of revoked certificate serial numbers.
///
/// The paper notes revocation only applies to leaf certificates (§5.3.1);
/// we model it the same way — only the leaf is checked.
#[derive(Debug, Clone, Default)]
pub struct RevocationList {
    revoked: HashSet<u64>,
}

impl RevocationList {
    /// An empty CRL.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Marks a serial revoked.
    pub fn revoke(&mut self, serial: u64) {
        self.revoked.insert(serial);
    }

    /// Whether `serial` is revoked.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked.contains(&serial)
    }

    /// Number of revoked serials.
    pub fn len(&self) -> usize {
        self.revoked.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.revoked.is_empty()
    }
}

/// Knobs for validation.
///
/// Real apps occasionally disable individual checks (that is exactly the
/// kind of flaw Stone et al. look for); the options model that so the
/// simulation can plant — and the analysis can hunt for — such apps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationOptions {
    /// Enforce hostname matching on the leaf.
    pub check_hostname: bool,
    /// Enforce validity windows.
    pub check_expiry: bool,
    /// Enforce leaf revocation.
    pub check_revocation: bool,
}

impl Default for ValidationOptions {
    fn default() -> Self {
        ValidationOptions {
            check_hostname: true,
            check_expiry: true,
            check_revocation: true,
        }
    }
}

/// Validates `chain` (leaf-first) for `hostname` at time `now` against the
/// trusted roots in `store`.
///
/// The chain may or may not include the root itself. Validation succeeds iff:
///
/// 1. the chain is non-empty and each certificate was signed by the next
///    (verified cryptographically, not just by name);
/// 2. every issuing certificate has the CA bit and respects its path-length
///    constraint;
/// 3. every certificate is inside its validity window (if enabled);
/// 4. the top of the chain either *is* a trusted root or was signed by one;
/// 5. the leaf matches `hostname` (if enabled) and is not revoked (if
///    enabled).
pub fn validate_chain(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
) -> Result<(), ValidationError> {
    validate_chain_within(
        chain,
        store,
        hostname,
        now,
        crl,
        options,
        &Deadline::unlimited(),
    )
    .expect("unlimited deadline cannot expire")
}

/// [`validate_chain`] under a work-budget deadline.
///
/// This is the single implementation of chain validation — the plain
/// entry point delegates here with [`Deadline::unlimited`], so a verdict
/// produced under a finite deadline is byte-identical to the offline
/// library's for the same input. Work is charged in fixed units (the
/// `COST_*` constants) *before* it is performed; the moment a charge
/// overruns the budget the walk is abandoned and `Err(DeadlineExceeded)`
/// is returned — never a partial verdict.
#[allow(clippy::too_many_arguments)]
pub fn validate_chain_within(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
    deadline: &Deadline,
) -> Result<Result<(), ValidationError>, DeadlineExceeded> {
    match validate_chain_impl(chain, store, hostname, now, crl, options, deadline) {
        Ok(()) => Ok(Ok(())),
        Err(Verdict::Invalid(e)) => Ok(Err(e)),
        Err(Verdict::TimedOut) => Err(DeadlineExceeded),
    }
}

/// Internal outcome separating "the chain is bad" from "we ran out of
/// budget before knowing", so `?` can be used on both paths.
enum Verdict {
    Invalid(ValidationError),
    TimedOut,
}

impl From<ValidationError> for Verdict {
    fn from(e: ValidationError) -> Self {
        Verdict::Invalid(e)
    }
}

impl From<DeadlineExceeded> for Verdict {
    fn from(_: DeadlineExceeded) -> Self {
        Verdict::TimedOut
    }
}

fn validate_chain_impl(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
    deadline: &Deadline,
) -> Result<(), Verdict> {
    // The cheap linear passes (screening, expiry, linkage bookkeeping) are
    // charged up front as a function of chain length.
    deadline.charge(COST_CHAIN_SETUP + COST_PER_CERT_OVERHEAD * chain.len() as u64)?;
    let leaf = chain.first().ok_or(ValidationError::EmptyChain)?;

    // Screen structure before any cryptographic work: pathological chains
    // (cycles, absurd depth, giant SAN lists, stacked wildcards) are
    // rejected up front under the standard hostile-input budget.
    crate::limits::screen_chain(chain, &crate::limits::Budget::STANDARD)
        .map_err(ValidationError::Malformed)?;

    if options.check_expiry {
        for cert in chain {
            if now < cert.tbs.validity.not_before {
                return Err(ValidationError::NotYetValid {
                    subject: cert.tbs.subject.common_name.clone(),
                }
                .into());
            }
            if now > cert.tbs.validity.not_after {
                return Err(ValidationError::Expired {
                    subject: cert.tbs.subject.common_name.clone(),
                    not_after: cert.tbs.validity.not_after,
                    now,
                }
                .into());
            }
        }
    }

    // Walk leaf → top verifying linkage, signatures, CA bits, path lengths.
    for i in 0..chain.len().saturating_sub(1) {
        let child = &chain[i];
        let parent = &chain[i + 1];
        if child.tbs.issuer != parent.tbs.subject {
            return Err(ValidationError::BrokenLinkage {
                child: child.tbs.subject.common_name.clone(),
                parent: parent.tbs.subject.common_name.clone(),
            }
            .into());
        }
        if !parent.tbs.is_ca {
            return Err(ValidationError::NotACa {
                subject: parent.tbs.subject.common_name.clone(),
            }
            .into());
        }
        // Path length: a CA with path_len = n may have at most n CA certs
        // *below* it (not counting the leaf).
        if let Some(max) = parent.tbs.path_len {
            let cas_below = chain[..=i].iter().filter(|c| c.tbs.is_ca).count() as u64;
            if cas_below > max {
                return Err(ValidationError::PathLenExceeded {
                    subject: parent.tbs.subject.common_name.clone(),
                }
                .into());
            }
        }
        // Charge the signature verify *before* doing it: an expired
        // deadline abandons the walk here, mid-chain.
        deadline.charge(COST_SIGNATURE_VERIFY)?;
        if !parent
            .tbs
            .public_key
            .verify(&child.tbs.to_bytes(), &child.signature)
        {
            return Err(ValidationError::BadSignature {
                subject: child.tbs.subject.common_name.clone(),
            }
            .into());
        }
    }

    // Anchor the top of the chain in the root store.
    deadline.charge(COST_ANCHOR_LOOKUP)?;
    let top = chain.last().expect("non-empty checked above");
    let anchored = if top.is_self_signed() {
        // Chain includes its root: the root itself must be trusted (and its
        // self-signature must verify).
        deadline.charge(COST_SIGNATURE_VERIFY)?;
        store.contains(top)
            && top
                .tbs
                .public_key
                .verify(&top.tbs.to_bytes(), &top.signature)
    } else {
        // Chain excludes the root: a trusted root must have signed the top.
        store.issuer_of(top).is_some()
    };
    if !anchored {
        return Err(ValidationError::UnknownRoot {
            top_subject: top.tbs.subject.common_name.clone(),
        }
        .into());
    }

    deadline.charge(COST_HOSTNAME_CHECK)?;
    if options.check_hostname && !leaf.matches_hostname(hostname) {
        return Err(ValidationError::HostnameMismatch {
            hostname: hostname.to_string(),
        }
        .into());
    }

    deadline.charge(COST_REVOCATION_CHECK)?;
    if options.check_revocation && crl.is_revoked(leaf.tbs.serial) {
        return Err(ValidationError::Revoked {
            serial: leaf.tbs.serial,
        }
        .into());
    }

    Ok(())
}

/// Memoized verdicts, keyed by [`ValidationKey`].
type ValidationMemo = RwLock<HashMap<ValidationKey, Result<(), ValidationError>>>;

/// The process-wide chain-validation memo.
fn validation_memo() -> &'static ValidationMemo {
    static MEMO: OnceLock<ValidationMemo> = OnceLock::new();
    MEMO.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Every input [`validate_chain`] reads, compared exactly. Each dimension is
/// either kept in full (certificate fingerprints cover `tbs` *and* signature
/// bytes) or reduced to the only thing validation can observe (the store
/// enters through its content id, the CRL solely through "is the leaf's
/// serial revoked"). Keeping the inputs themselves rather than a digest of
/// them makes a memo probe one hash-map lookup instead of SHA-256 over
/// every fingerprint.
#[derive(PartialEq, Eq, Hash)]
struct ValidationKey {
    store: u64,
    now: SimTime,
    /// `check_hostname`, `check_expiry`, `check_revocation`, leaf revoked.
    flags: [bool; 4],
    hostname: Box<str>,
    fingerprints: Box<[[u8; 32]]>,
}

impl ValidationKey {
    fn new(
        chain: &[Certificate],
        store: &RootStore,
        hostname: &str,
        now: SimTime,
        crl: &RevocationList,
        options: &ValidationOptions,
    ) -> Self {
        let leaf_revoked = chain
            .first()
            .is_some_and(|leaf| crl.is_revoked(leaf.tbs.serial));
        ValidationKey {
            store: store.content_id(),
            now,
            flags: [
                options.check_hostname,
                options.check_expiry,
                options.check_revocation,
                leaf_revoked,
            ],
            hostname: hostname.into(),
            fingerprints: chain.iter().map(Certificate::fingerprint_sha256).collect(),
        }
    }
}

/// Memoized [`validate_chain`]: identical semantics, but repeated
/// validations of the same (chain, root store, hostname, time, options,
/// leaf-revocation state) skip the signature walk entirely.
///
/// This is the hot path of the study — every simulated handshake and every
/// PKI classification validates a chain, and the same server chains recur
/// across thousands of apps. With caching disabled (see
/// [`crate::cache::set_caching_enabled`]) the call degrades to a plain
/// [`validate_chain`].
pub fn validate_chain_cached(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
) -> Result<(), ValidationError> {
    validate_chain_cached_within(
        chain,
        store,
        hostname,
        now,
        crl,
        options,
        &Deadline::unlimited(),
    )
    .expect("unlimited deadline cannot expire")
}

/// [`validate_chain_cached`] under a work-budget deadline.
///
/// Memo hits cost only [`COST_MEMO_PROBE`]; misses pay the probe plus the
/// full [`validate_chain_within`] walk. A verdict that timed out is
/// **never memoized** — the memo holds only complete verdicts, so a
/// request with a tight deadline can never poison the cache for requests
/// with room to finish.
#[allow(clippy::too_many_arguments)]
pub fn validate_chain_cached_within(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
    deadline: &Deadline,
) -> Result<Result<(), ValidationError>, DeadlineExceeded> {
    if !cache::caching_enabled() {
        return validate_chain_within(chain, store, hostname, now, crl, options, deadline);
    }
    deadline.charge(COST_MEMO_PROBE)?;
    let key = ValidationKey::new(chain, store, hostname, now, crl, options);
    if let Some(verdict) = validation_memo().read().expect("memo poisoned").get(&key) {
        cache::CHAIN_VALIDATION.hit();
        return Ok(verdict.clone());
    }
    cache::CHAIN_VALIDATION.miss();
    let verdict = validate_chain_within(chain, store, hostname, now, crl, options, deadline)?;
    validation_memo()
        .write()
        .expect("memo poisoned")
        .insert(key, verdict.clone());
    Ok(verdict)
}

/// Probes the validation memo without computing anything: `Some(verdict)`
/// iff caching is enabled and this exact validation has already completed.
///
/// This is the brownout path of `pinning-serve`: a degraded service
/// answers from the memo alone and sheds what it has never validated. The
/// probe deliberately does **not** touch the global hit/miss counters —
/// degraded serving is accounted by the service's own counters, not the
/// study's cache statistics.
pub fn cached_chain_verdict(
    chain: &[Certificate],
    store: &RootStore,
    hostname: &str,
    now: SimTime,
    crl: &RevocationList,
    options: &ValidationOptions,
) -> Option<Result<(), ValidationError>> {
    if !cache::caching_enabled() {
        return None;
    }
    let key = ValidationKey::new(chain, store, hostname, now, crl, options);
    validation_memo()
        .read()
        .expect("memo poisoned")
        .get(&key)
        .cloned()
}

/// Empties the chain-validation memo (benchmarks use this so cached runs
/// start cold and measure real, reproducible hit patterns).
pub fn clear_validation_cache() {
    validation_memo().write().expect("memo poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::CertificateAuthority;
    use crate::name::DistinguishedName;
    use crate::time::{Validity, YEAR};
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;

    struct Fixture {
        store: RootStore,
        chain: Vec<Certificate>,
    }

    fn fixture() -> Fixture {
        let mut rng = SplitMix64::new(0x7a11);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("Sim Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let mut inter = root.issue_intermediate(
            DistinguishedName::new("Sim Inter", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            Some(1),
        );
        let key = KeyPair::generate(&mut rng);
        let leaf = inter.issue_leaf(
            &["pay.shop.com".to_string(), "*.api.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut store = RootStore::new("test");
        store.add(root.cert.clone());
        Fixture {
            store,
            chain: vec![leaf, inter.cert.clone(), root.cert.clone()],
        }
    }

    fn ok(
        f: &Fixture,
        chain: &[Certificate],
        host: &str,
        now: SimTime,
    ) -> Result<(), ValidationError> {
        validate_chain(
            chain,
            &f.store,
            host,
            now,
            &RevocationList::empty(),
            &ValidationOptions::default(),
        )
    }

    #[test]
    fn valid_chain_with_root_included() {
        let f = fixture();
        ok(&f, &f.chain, "pay.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn cyclic_chain_rejected_before_crypto() {
        let f = fixture();
        // leaf → inter → inter → root: the repeated certificate (a loop in
        // disguise) must be caught by screening, not by signature walking.
        let chain = vec![
            f.chain[0].clone(),
            f.chain[1].clone(),
            f.chain[1].clone(),
            f.chain[2].clone(),
        ];
        assert_eq!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::Malformed(
                crate::limits::ChainDefect::RepeatedCertificate { position: 2 }
            ))
        );
    }

    #[test]
    fn overlong_chain_rejected_before_crypto() {
        let f = fixture();
        let budget = crate::limits::Budget::STANDARD;
        let mut chain = Vec::new();
        for i in 0..budget.max_chain_len + 1 {
            let mut c = f.chain[0].clone();
            c.tbs.serial = c.tbs.serial.wrapping_add(i as u64);
            c.invalidate_derived();
            chain.push(c);
        }
        assert_eq!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::Malformed(
                crate::limits::ChainDefect::TooLong { len: chain.len() }
            ))
        );
    }

    #[test]
    fn valid_chain_without_root() {
        let f = fixture();
        ok(&f, &f.chain[..2], "pay.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn wildcard_san_accepted() {
        let f = fixture();
        ok(&f, &f.chain, "v1.api.shop.com", SimTime(100)).unwrap();
    }

    #[test]
    fn empty_chain_rejected() {
        let f = fixture();
        assert_eq!(
            ok(&f, &[], "pay.shop.com", SimTime(1)),
            Err(ValidationError::EmptyChain)
        );
    }

    #[test]
    fn expired_leaf_rejected() {
        let f = fixture();
        let late = SimTime(2 * YEAR);
        assert!(matches!(
            ok(&f, &f.chain, "pay.shop.com", late),
            Err(ValidationError::Expired { .. })
        ));
    }

    #[test]
    fn expiry_check_can_be_disabled() {
        let f = fixture();
        let opts = ValidationOptions {
            check_expiry: false,
            ..Default::default()
        };
        validate_chain(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(2 * YEAR),
            &RevocationList::empty(),
            &opts,
        )
        .unwrap();
    }

    #[test]
    fn hostname_mismatch_rejected() {
        let f = fixture();
        assert_eq!(
            ok(&f, &f.chain, "evil.com", SimTime(100)),
            Err(ValidationError::HostnameMismatch {
                hostname: "evil.com".into()
            })
        );
    }

    #[test]
    fn unknown_root_rejected() {
        let f = fixture();
        let empty_store = RootStore::new("empty");
        let err = validate_chain(
            &f.chain,
            &empty_store,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        );
        assert!(matches!(err, Err(ValidationError::UnknownRoot { .. })));
    }

    #[test]
    fn tampered_leaf_signature_rejected() {
        let f = fixture();
        let mut chain = f.chain.clone();
        chain[0].tbs.san.push("extra.evil.com".to_string());
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::BadSignature { .. })
        ));
    }

    #[test]
    fn broken_linkage_rejected() {
        let f = fixture();
        let chain = vec![f.chain[0].clone(), f.chain[2].clone()]; // skip intermediate
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::BrokenLinkage { .. })
        ));
    }

    #[test]
    fn non_ca_issuer_rejected() {
        let f = fixture();
        let mut rng = SplitMix64::new(0xbad);
        // Build a "chain" where a leaf pretends to issue another leaf.
        let mut root2 = CertificateAuthority::new_root(
            DistinguishedName::new("R2", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let k1 = KeyPair::generate(&mut rng);
        let fake_issuer = root2.issue_leaf(
            &["issuer.com".to_string()],
            "I",
            &k1,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut child = f.chain[0].clone();
        child.tbs.issuer = fake_issuer.tbs.subject.clone();
        let chain = vec![child, fake_issuer];
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::NotACa { .. })
        ));
    }

    #[test]
    fn path_len_enforced() {
        let mut rng = SplitMix64::new(0x9d);
        let mut root = CertificateAuthority::new_root(
            DistinguishedName::new("R", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        // Root allows at most 0 CAs below it.
        let mut constrained = root.issue_intermediate(
            DistinguishedName::new("I0", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            None,
        );
        // Give the *intermediate* a path_len of 0, then hang another CA off it.
        let mut deep = constrained.issue_intermediate(
            DistinguishedName::new("I1", "Sim", "US"),
            &mut rng,
            Validity::starting(SimTime(0), 10 * YEAR),
            None,
        );
        let mut i0_cert = constrained.cert.clone();
        i0_cert.tbs.path_len = Some(0);
        // Re-sign I0 with the new constraint so the signature stays valid.
        i0_cert.signature = root.keypair().sign(&i0_cert.tbs.to_bytes());
        // I1 chains under the *unconstrained* I0 cert, so re-issue it under
        // the constrained one.
        let mut i1_cert = deep.cert.clone();
        i1_cert.tbs.issuer = i0_cert.tbs.subject.clone();
        i1_cert.signature = constrained.keypair().sign(&i1_cert.tbs.to_bytes());

        let key = KeyPair::generate(&mut rng);
        let leaf = deep.issue_leaf(
            &["d.com".to_string()],
            "D",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let mut leaf = leaf;
        leaf.tbs.issuer = i1_cert.tbs.subject.clone();
        leaf.signature = deep.keypair().sign(&leaf.tbs.to_bytes());

        let mut store = RootStore::new("t");
        store.add(root.cert.clone());
        let chain = vec![leaf, i1_cert, i0_cert, root.cert.clone()];
        let err = validate_chain(
            &chain,
            &store,
            "d.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        );
        assert!(
            matches!(err, Err(ValidationError::PathLenExceeded { .. })),
            "{err:?}"
        );
    }

    #[test]
    fn revoked_leaf_rejected() {
        let f = fixture();
        let mut crl = RevocationList::empty();
        crl.revoke(f.chain[0].tbs.serial);
        let err = validate_chain(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &ValidationOptions::default(),
        );
        assert_eq!(
            err,
            Err(ValidationError::Revoked {
                serial: f.chain[0].tbs.serial
            })
        );
    }

    #[test]
    fn cached_validation_matches_uncached_across_scenarios() {
        let f = fixture();
        let _memo = crate::cache::cache_state_lock();
        clear_validation_cache();
        let scenarios: Vec<(&[Certificate], &str, SimTime)> = vec![
            (&f.chain, "pay.shop.com", SimTime(100)),
            (&f.chain[..2], "pay.shop.com", SimTime(100)),
            (&f.chain, "v1.api.shop.com", SimTime(100)),
            (&f.chain, "evil.com", SimTime(100)),
            (&f.chain, "pay.shop.com", SimTime(2 * YEAR)),
            (&[], "pay.shop.com", SimTime(1)),
        ];
        for (chain, host, now) in &scenarios {
            let plain = ok(&f, chain, host, *now);
            // First cached call computes, second must serve the memo —
            // both byte-identical to the plain validator.
            for _ in 0..2 {
                let cached = validate_chain_cached(
                    chain,
                    &f.store,
                    host,
                    *now,
                    &RevocationList::empty(),
                    &ValidationOptions::default(),
                );
                assert_eq!(cached, plain, "{host} at {now:?}");
            }
        }
    }

    #[test]
    fn validation_memo_distinguishes_mutated_stores() {
        // The MITM scenario from `forged_chain_from_untrusted_ca_rejected`,
        // through the memo: installing a CA changes the store's content id,
        // so the cached rejection cannot leak into the post-install world.
        let f = fixture();
        let mut rng = SplitMix64::new(0xa78);
        let mut mitm = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let forged = mitm.issue_leaf(
            &["pay.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = vec![forged, mitm.cert.clone()];
        let check = |store: &RootStore| {
            validate_chain_cached(
                &chain,
                store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            )
        };
        let mut store = f.store.clone();
        assert!(matches!(
            check(&store),
            Err(ValidationError::UnknownRoot { .. })
        ));
        store.add(mitm.cert.clone());
        check(&store).unwrap();
        // CRL state is part of the key too: revoking the leaf must flip the
        // verdict even though chain/store/host/time are unchanged.
        let mut crl = RevocationList::empty();
        crl.revoke(chain[0].tbs.serial);
        let revoked = validate_chain_cached(
            &chain,
            &store,
            "pay.shop.com",
            SimTime(100),
            &crl,
            &ValidationOptions::default(),
        );
        assert!(matches!(revoked, Err(ValidationError::Revoked { .. })));
    }

    #[test]
    fn memo_key_separates_every_validation_input() {
        // A base validation, then variants that each change exactly one
        // input of an earlier case and flip its verdict. A key that missed
        // that input would serve the earlier case's memoized verdict.
        let mut rng = SplitMix64::new(0x6e70);
        let root_name = DistinguishedName::new("Key Root", "Sim", "US");
        let inter_name = DistinguishedName::new("Key Inter", "Sim", "US");
        let mut root = CertificateAuthority::new_root(root_name.clone(), &mut rng, SimTime(0));
        let inter_validity = Validity::starting(SimTime(0), 10 * YEAR);
        let mut inter = root.issue_intermediate(inter_name.clone(), &mut rng, inter_validity, None);
        let leaf_validity = Validity::starting(SimTime(0), YEAR);
        let key = KeyPair::generate(&mut rng);
        let hosts = ["pay.shop.com".to_string(), "*.api.shop.com".to_string()];
        let leaf = inter.issue_leaf(&hosts, "Shop", &key, leaf_validity);
        let base = vec![leaf.clone(), inter.cert.clone(), root.cert.clone()];

        // Same subject names, different certificates, one position each.
        let other_leaf =
            inter.issue_leaf(&["www.shop.com".to_string()], "Shop", &key, leaf_validity);
        let rekeyed_inter = root
            .issue_intermediate(inter_name, &mut rng, inter_validity, None)
            .cert;
        let rekeyed_root = CertificateAuthority::new_root(root_name, &mut rng, SimTime(0)).cert;
        let mut by_position = Vec::new();
        for (i, cert) in [other_leaf, rekeyed_inter, rekeyed_root]
            .into_iter()
            .enumerate()
        {
            let mut chain = base.clone();
            chain[i] = cert;
            by_position.push(chain);
        }

        let mut store = RootStore::new("key-store");
        store.add(root.cert.clone());
        let other_root = CertificateAuthority::new_root(
            DistinguishedName::new("Other Root", "Sim", "US"),
            &mut rng,
            SimTime(0),
        );
        let mut same_name_other_roots = RootStore::new("key-store");
        same_name_other_roots.add(other_root.cert.clone());
        let mut proxy = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let forged = vec![
            proxy.issue_leaf(&hosts, "Shop", &key, leaf_validity),
            proxy.cert.clone(),
        ];
        let mut with_proxy_ca = store.clone();
        with_proxy_ca.add(proxy.cert.clone());

        let no_crl = RevocationList::empty();
        let mut revoked = RevocationList::empty();
        revoked.revoke(leaf.tbs.serial);
        let now = SimTime(4_242);
        let late = SimTime(2 * YEAR + 4_242);

        #[derive(Clone)]
        struct Input<'a> {
            chain: &'a [Certificate],
            store: &'a RootStore,
            host: &'a str,
            now: SimTime,
            crl: &'a RevocationList,
            opts: ValidationOptions,
        }
        // (label, index of the case it varies, input).
        type Case<'a> = (&'static str, usize, Input<'a>);
        fn vary<'a>(
            cases: &mut Vec<Case<'a>>,
            label: &'static str,
            of: usize,
            change: impl FnOnce(&mut Input<'a>),
        ) {
            let mut input = cases[of].2.clone();
            change(&mut input);
            cases.push((label, of, input));
        }
        let base_input = Input {
            chain: &base,
            store: &store,
            host: "pay.shop.com",
            now,
            crl: &no_crl,
            opts: ValidationOptions::default(),
        };
        let mut cases = vec![("base", 0, base_input)];
        let c = &mut cases;
        vary(c, "store: same name, other roots", 0, |i| {
            i.store = &same_name_other_roots
        });
        vary(c, "chain: forged by the proxy", 0, |i| i.chain = &forged);
        vary(c, "store: proxy CA installed", 2, |i| {
            i.store = &with_proxy_ca
        });
        vary(c, "chain: position 0", 0, |i| i.chain = &by_position[0]);
        vary(c, "chain: position 1", 0, |i| i.chain = &by_position[1]);
        vary(c, "chain: position 2", 0, |i| i.chain = &by_position[2]);
        vary(c, "chain: root omitted", 6, |i| i.chain = &base[..2]);
        vary(c, "hostname: dot moved", 0, |i| i.host = "pays.hop.com");
        vary(c, "hostname: wildcard", 8, |i| i.host = "v1.api.shop.com");
        vary(c, "hostname: label joined", 9, |i| {
            i.host = "v1api.shop.com"
        });
        vary(c, "now", 0, |i| i.now = late);
        vary(c, "flag: check_expiry", 11, |i| i.opts.check_expiry = false);
        vary(c, "flag: check_hostname", 10, |i| {
            i.opts.check_hostname = false
        });
        vary(c, "leaf revoked", 0, |i| i.crl = &revoked);
        vary(c, "flag: check_revocation", 14, |i| {
            i.opts.check_revocation = false
        });

        let plain = |i: &Input<'_>| validate_chain(i.chain, i.store, i.host, i.now, i.crl, &i.opts);
        let cached =
            |i: &Input<'_>| validate_chain_cached(i.chain, i.store, i.host, i.now, i.crl, &i.opts);
        let probe =
            |i: &Input<'_>| cached_chain_verdict(i.chain, i.store, i.host, i.now, i.crl, &i.opts);

        let _memo = crate::cache::cache_state_lock();
        clear_validation_cache();
        for (n, (label, of, input)) in cases.iter().enumerate() {
            if n > 0 {
                // A variant with its parent's verdict could share a memo
                // entry with it unnoticed.
                assert_ne!(plain(input), plain(&cases[*of].2), "{label}");
            }
            assert_eq!(probe(input), None, "{label}: probe before validating");
            assert_eq!(cached(input), plain(input), "{label}: memo miss");
            assert_eq!(cached(input), plain(input), "{label}: memo hit");
            for (done, _, earlier) in &cases[..=n] {
                assert_eq!(probe(earlier), Some(plain(earlier)), "{done} after {label}");
            }
        }
    }

    #[test]
    fn deadline_expiring_mid_walk_yields_timeout_not_partial_verdict() {
        let f = fixture();
        // Budget covers setup + the first signature verify but not the
        // second: the walk must abandon mid-chain with a structured
        // timeout, never a (partial) verdict.
        let budget = COST_CHAIN_SETUP
            + COST_PER_CERT_OVERHEAD * f.chain.len() as u64
            + COST_SIGNATURE_VERIFY;
        let deadline = Deadline::with_budget(budget + COST_SIGNATURE_VERIFY - 1);
        let out = validate_chain_within(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
            &deadline,
        );
        assert_eq!(out, Err(DeadlineExceeded));
        // Spent saturates at the budget: the request "used up" its whole
        // deadline, which is what the serve layer accounts as latency.
        assert!(deadline.is_expired());
    }

    #[test]
    fn generous_deadline_matches_offline_verdict_and_charges_work() {
        let f = fixture();
        let deadline = Deadline::with_budget(10_000);
        let out = validate_chain_within(
            &f.chain,
            &f.store,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
            &deadline,
        )
        .expect("generous deadline");
        assert_eq!(
            out,
            validate_chain(
                &f.chain,
                &f.store,
                "pay.shop.com",
                SimTime(100),
                &RevocationList::empty(),
                &ValidationOptions::default(),
            )
        );
        // 3-cert chain: setup + overhead, 2 walk verifies + 1 self-signed
        // anchor verify, anchor lookup, hostname, revocation.
        let expected = COST_CHAIN_SETUP
            + 3 * COST_PER_CERT_OVERHEAD
            + 3 * COST_SIGNATURE_VERIFY
            + COST_ANCHOR_LOOKUP
            + COST_HOSTNAME_CHECK
            + COST_REVOCATION_CHECK;
        assert_eq!(deadline.spent(), expected);
    }

    #[test]
    fn timed_out_validation_is_never_memoized() {
        let f = fixture();
        // Unique hostname avoids cross-test memo interference (the memo is
        // process-global and tests share one process).
        let host = "v9.api.shop.com";
        let chain = &f.chain;
        let _memo = crate::cache::cache_state_lock();
        clear_validation_cache();
        let crl = RevocationList::empty();
        let opts = ValidationOptions::default();
        let tight = Deadline::with_budget(COST_MEMO_PROBE + COST_CHAIN_SETUP);
        let out =
            validate_chain_cached_within(chain, &f.store, host, SimTime(100), &crl, &opts, &tight);
        assert_eq!(out, Err(DeadlineExceeded));
        // The timeout must not have poisoned the memo: no cached verdict.
        assert_eq!(
            cached_chain_verdict(chain, &f.store, host, SimTime(100), &crl, &opts),
            None
        );
        // A request with room to finish computes and memoizes the verdict.
        let roomy = Deadline::with_budget(10_000);
        let out =
            validate_chain_cached_within(chain, &f.store, host, SimTime(100), &crl, &opts, &roomy)
                .expect("roomy deadline");
        assert_eq!(out, Ok(()));
        assert_eq!(
            cached_chain_verdict(chain, &f.store, host, SimTime(100), &crl, &opts),
            Some(Ok(()))
        );
    }

    #[test]
    fn forged_chain_from_untrusted_ca_rejected() {
        // The MITM scenario: attacker CA not in the store forges the chain.
        let f = fixture();
        let mut rng = SplitMix64::new(0xa77);
        let mut mitm = CertificateAuthority::new_root(
            DistinguishedName::new("mitmproxy", "mitmproxy", "US"),
            &mut rng,
            SimTime(0),
        );
        let key = KeyPair::generate(&mut rng);
        let forged = mitm.issue_leaf(
            &["pay.shop.com".to_string()],
            "Shop",
            &key,
            Validity::starting(SimTime(0), YEAR),
        );
        let chain = vec![forged, mitm.cert.clone()];
        assert!(matches!(
            ok(&f, &chain, "pay.shop.com", SimTime(100)),
            Err(ValidationError::UnknownRoot { .. })
        ));
        // ... but once the MITM CA is installed (test-device setup), it validates.
        let mut store2 = f.store.clone();
        store2.add(mitm.cert.clone());
        validate_chain(
            &chain,
            &store2,
            "pay.shop.com",
            SimTime(100),
            &RevocationList::empty(),
            &ValidationOptions::default(),
        )
        .unwrap();
    }
}
