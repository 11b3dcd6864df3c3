//! Write-ahead result journal: crash-safe persistence for study runs.
//!
//! The paper's campaigns ran for days on physical devices; losing the
//! process meant losing every finished app. The journal fixes that for the
//! reproduction: the supervisor appends one record per *completed* app
//! (measured or degraded), and [`Study::resume`](crate::study::Study::resume)
//! replays the journal to skip finished work.
//!
//! ## Format
//!
//! ```text
//! header:  "PINJRNL1" (8 bytes) ‖ config fingerprint (32 bytes, SHA-256)
//! record:  [payload len: u32 LE] [SHA-256(payload): 32 bytes] [payload]
//! ```
//!
//! Records are appended in commit order (which varies with scheduling) and
//! are keyed by app index, so replay order never matters. The payload is
//! the TLV encoding (same [`pinning_pki::encode`] machinery as simcap v2)
//! of a [`JournalEntry`] carrying only *dynamic observables* — app ids and
//! static findings are recomputed deterministically from the regenerated
//! world, keeping journals small and resume byte-identical.
//!
//! ## Corruption tolerance
//!
//! A process killed mid-append leaves a torn tail; a bad disk can flip
//! bits anywhere. [`ResultJournal::open`] therefore runs the shared
//! scrubber ([`pinning_resilience::recovery::scrub_frames`]): every
//! record checksum is verified, damaged spans are quarantined, and the
//! reader *resyncs* past mid-journal damage instead of abandoning the
//! remainder — sound because records are keyed by app index and replay
//! order never matters. Everything discarded is accounted in
//! [`Replay::stats`]; damage to the header itself is unrecoverable and
//! surfaces as a [`JournalError`].
//!
//! ## Durable media
//!
//! The journal writes through the [`Media`] storage contract. The
//! default [`VecMedia`] is the perfect in-memory buffer — byte-identical
//! to the pre-`Media` journal — while
//! [`FaultMedia`](pinning_resilience::FaultMedia) injects torn writes,
//! lying flushes, bit rot, and ENOSPC for the chaos suite. Each append
//! is followed by a flush barrier, so on honest media every committed
//! record is durable the moment [`try_append`](ResultJournal::try_append)
//! returns.

use pinning_netsim::faults::{InputLayer, MalformedKind, MeasurementError};
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::error::DecodeError;
use pinning_resilience::media::{Media, MediaError, VecMedia};
use pinning_resilience::recovery::{append_frame, scrub_frames, ScrubStats, FRAME_OVERHEAD};

/// Magic bytes opening every journal (format version 1).
pub const JOURNAL_MAGIC: &[u8; 8] = b"PINJRNL1";

/// Header length: magic plus the 32-byte config fingerprint.
const HEADER_LEN: usize = 8 + 32;

/// Per-record frame overhead: length word plus checksum.
const FRAME_LEN: usize = FRAME_OVERHEAD;

/// A journal whose header is damaged, or whose medium refused a write.
///
/// Record-level damage is *not* an error — [`ResultJournal::open`]
/// quarantines around it instead — but without an intact header there is
/// no fingerprint to validate a resume against, so the journal is
/// unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// Shorter than a header: nothing was ever committed.
    TooShort,
    /// The magic bytes don't match any known journal version.
    BadMagic,
    /// The journal was written under a different study configuration, so
    /// resuming from it would splice incompatible measurements.
    FingerprintMismatch,
    /// The backing medium refused a write (e.g. out of space).
    Media(MediaError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::TooShort => write!(f, "journal shorter than its header"),
            JournalError::BadMagic => write!(f, "journal magic bytes unrecognized"),
            JournalError::FingerprintMismatch => {
                write!(f, "journal belongs to a different study configuration")
            }
            JournalError::Media(e) => write!(f, "journal medium failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<MediaError> for JournalError {
    fn from(e: MediaError) -> JournalError {
        JournalError::Media(e)
    }
}

/// Dynamic observables for one successfully measured app — exactly the
/// fields of [`crate::record::AppRecord`] that cannot be recomputed from
/// the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredApp {
    /// Destinations detected as pinned.
    pub pinned_destinations: Vec<String>,
    /// Destinations used in the baseline run.
    pub used_destinations: Vec<String>,
    /// ≥1 connection advertised a weak cipher.
    pub weak_overall: bool,
    /// ≥1 pinned connection advertised a weak cipher.
    pub weak_pinned: bool,
    /// Plaintext recovered from circumvented pinned connections.
    pub pinned_bodies: Vec<String>,
    /// Plaintext recovered from ordinary MITM'd flows.
    pub unpinned_bodies: Vec<String>,
    /// Circumvention attempt: (attempted, succeeded) destinations.
    pub circumvention: Option<(Vec<String>, Vec<String>)>,
    /// Baseline handshake count.
    pub n_handshakes_baseline: u64,
    /// Whether the iOS settle re-run was applied.
    pub settled_rerun: bool,
    /// Circuit-breaker trips across this app's endpoints.
    pub breaker_trips: u32,
}

/// How one app's measurement concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppOutcome {
    /// The dynamic pipeline completed.
    Measured(Box<MeasuredApp>),
    /// Every retry degraded; the app is recorded with this error.
    Failed(MeasurementError),
}

/// One committed journal record: the outcome for one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Index into the world's app list.
    pub app_index: u64,
    /// The measurement outcome.
    pub outcome: AppOutcome,
}

/// The recoverable content of a journal, as scrubbed by
/// [`ResultJournal::open`].
#[derive(Debug, Clone)]
pub struct Replay {
    /// Config fingerprint the journal was created under.
    pub fingerprint: [u8; 32],
    /// Entries recovered, in commit order.
    pub entries: Vec<JournalEntry>,
    /// Quarantine and repair accounting from the scrub pass (all zero =
    /// the journal read back exactly as written).
    pub stats: ScrubStats,
}

impl Replay {
    /// Whether the journal lost bytes to damage (including repaired
    /// damage — a resynced or deduplicated journal is degraded, not
    /// pristine).
    pub fn truncated(&self) -> bool {
        !self.stats.is_clean()
    }
}

/// An append-only, checksummed result journal over a [`Media`].
///
/// The default medium is [`VecMedia`]: the byte buffer that would sit on
/// disk, with callers owning persistence (the examples write it to a
/// file between kill and resume). The chaos suite substitutes
/// [`FaultMedia`](pinning_resilience::FaultMedia) to prove recovery
/// under hostile storage.
#[derive(Debug, Clone)]
pub struct ResultJournal<M: Media = VecMedia> {
    media: M,
}

impl ResultJournal<VecMedia> {
    /// A fresh in-memory journal bound to `fingerprint` (see
    /// [`crate::study::StudyConfig::fingerprint`]).
    pub fn create(fingerprint: [u8; 32]) -> Self {
        ResultJournal::create_on(VecMedia::new(), fingerprint)
            .expect("VecMedia never refuses a write")
    }

    /// Appends one committed app outcome (infallible on perfect media).
    pub fn append(&mut self, entry: &JournalEntry) {
        self.try_append(entry)
            .expect("VecMedia never refuses a write")
    }

    /// The journal's current on-disk image.
    pub fn as_bytes(&self) -> &[u8] {
        self.media.bytes()
    }

    /// Consumes the journal, returning its on-disk image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.media.into_bytes()
    }

    /// Number of committed records (by re-walking the frames; the journal
    /// is always self-describing).
    pub fn len(&self) -> usize {
        Self::open(self.as_bytes())
            .map(|r| r.entries.len())
            .unwrap_or(0)
    }

    /// Whether no record has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Scrubs a journal image, recovering every intact record.
    ///
    /// Never panics on hostile input: torn tails, flipped bits, wild
    /// length fields, and duplicated segments are quarantined (and, where
    /// possible, resynced past) by the shared
    /// [`scrub_frames`] reader, with the damage accounted in
    /// [`Replay::stats`]. Only a damaged *header* is an error.
    pub fn open(bytes: &[u8]) -> Result<Replay, JournalError> {
        Self::open_from(bytes, HEADER_LEN)
    }

    /// [`ResultJournal::open`] restricted to the records that start at or
    /// after byte offset `from` (clamped to the end of the header): what
    /// was appended since a caller that already decoded `bytes[..from]`
    /// last looked. Frames are never rewritten in place, so the two reads
    /// together recover exactly what one full [`ResultJournal::open`]
    /// would.
    pub(crate) fn open_from(bytes: &[u8], from: usize) -> Result<Replay, JournalError> {
        if bytes.len() < HEADER_LEN {
            return Err(JournalError::TooShort);
        }
        if &bytes[..8] != JOURNAL_MAGIC {
            return Err(JournalError::BadMagic);
        }
        let mut fingerprint = [0u8; 32];
        fingerprint.copy_from_slice(&bytes[8..HEADER_LEN]);

        let recovered = scrub_frames(bytes, from.clamp(HEADER_LEN, bytes.len()));
        let mut stats = recovered.stats;
        let mut entries = Vec::with_capacity(recovered.frames.len());
        for payload in recovered.frames {
            match decode_entry(payload) {
                Ok(entry) => entries.push(entry),
                // Checksum-valid but undecodable: version skew rather
                // than bit rot. Quarantine the record and keep going —
                // records are independent.
                Err(_) => {
                    stats.quarantined_bytes += (FRAME_LEN + payload.len()) as u64;
                    stats.quarantined_records += 1;
                }
            }
        }
        Ok(Replay {
            fingerprint,
            entries,
            stats,
        })
    }
}

impl<M: Media> ResultJournal<M> {
    /// A fresh journal written through `media`, bound to `fingerprint`.
    ///
    /// Resets the medium, writes the header, and flushes it — on honest
    /// media the header is durable when this returns.
    pub fn create_on(mut media: M, fingerprint: [u8; 32]) -> Result<Self, MediaError> {
        media.reset();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(JOURNAL_MAGIC);
        header.extend_from_slice(&fingerprint);
        media.append(&header)?;
        media.flush()?;
        Ok(ResultJournal { media })
    }

    /// Appends one committed app outcome through the medium, with a
    /// flush barrier so the record is durable on return (honest media).
    pub fn try_append(&mut self, entry: &JournalEntry) -> Result<(), MediaError> {
        let payload = encode_entry(entry);
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        append_frame(&mut frame, &payload);
        self.media.append(&frame)?;
        self.media.flush()
    }

    /// Borrow of the backing medium.
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Mutable borrow of the backing medium (e.g. to crash it).
    pub fn media_mut(&mut self) -> &mut M {
        &mut self.media
    }

    /// Consumes the journal, returning the backing medium.
    pub fn into_media(self) -> M {
        self.media
    }
}

/// Sentinel label for the structured `MalformedInput` error, which journals
/// as the sentinel plus `(layer, reason)` indices rather than a bare label.
const MALFORMED_SENTINEL: &str = "malformed-input";

fn encode_outcome_error(w: &mut Writer, error: MeasurementError) {
    match error.malformed_parts() {
        Some((layer, reason)) => {
            w.string(MALFORMED_SENTINEL);
            let layer_ix = InputLayer::ALL.iter().position(|l| *l == layer);
            let reason_ix = MalformedKind::ALL.iter().position(|k| *k == reason);
            // Both enums enumerate every variant in ALL, so the positions
            // always exist; encode defensively anyway.
            w.u64(layer_ix.unwrap_or(0) as u64);
            w.u64(reason_ix.unwrap_or(0) as u64);
        }
        None => w.string(error.label()),
    }
}

fn decode_outcome_error(r: &mut Reader<'_>) -> Result<MeasurementError, DecodeError> {
    let label = r.string()?;
    if label == MALFORMED_SENTINEL {
        let layer = InputLayer::ALL
            .get(r.u64()? as usize)
            .copied()
            .ok_or(DecodeError::BadFieldSize)?;
        let reason = MalformedKind::ALL
            .get(r.u64()? as usize)
            .copied()
            .ok_or(DecodeError::BadFieldSize)?;
        return Ok(MeasurementError::MalformedInput { layer, reason });
    }
    MeasurementError::ALL
        .into_iter()
        .find(|e| e.label() == label)
        .ok_or(DecodeError::BadFieldSize)
}

fn encode_entry(entry: &JournalEntry) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(entry.app_index);
    match &entry.outcome {
        AppOutcome::Failed(error) => {
            w.u64(0);
            encode_outcome_error(&mut w, *error);
        }
        AppOutcome::Measured(m) => {
            w.u64(1);
            w.list(&m.pinned_destinations, |w, s| w.string(s));
            w.list(&m.used_destinations, |w, s| w.string(s));
            w.boolean(m.weak_overall);
            w.boolean(m.weak_pinned);
            w.list(&m.pinned_bodies, |w, s| w.string(s));
            w.list(&m.unpinned_bodies, |w, s| w.string(s));
            match &m.circumvention {
                Some((attempted, succeeded)) => {
                    w.boolean(true);
                    w.list(attempted, |w, s| w.string(s));
                    w.list(succeeded, |w, s| w.string(s));
                }
                None => w.boolean(false),
            }
            w.u64(m.n_handshakes_baseline);
            w.boolean(m.settled_rerun);
            w.u64(m.breaker_trips as u64);
        }
    }
    w.into_bytes()
}

fn decode_entry(payload: &[u8]) -> Result<JournalEntry, DecodeError> {
    let mut r = Reader::new(payload);
    let app_index = r.u64()?;
    let outcome = match r.u64()? {
        0 => AppOutcome::Failed(decode_outcome_error(&mut r)?),
        1 => {
            let pinned_destinations = r.list(|r| r.string())?;
            let used_destinations = r.list(|r| r.string())?;
            let weak_overall = r.boolean()?;
            let weak_pinned = r.boolean()?;
            let pinned_bodies = r.list(|r| r.string())?;
            let unpinned_bodies = r.list(|r| r.string())?;
            let circumvention = if r.boolean()? {
                Some((r.list(|r| r.string())?, r.list(|r| r.string())?))
            } else {
                None
            };
            AppOutcome::Measured(Box::new(MeasuredApp {
                pinned_destinations,
                used_destinations,
                weak_overall,
                weak_pinned,
                pinned_bodies,
                unpinned_bodies,
                circumvention,
                n_handshakes_baseline: r.u64()?,
                settled_rerun: r.boolean()?,
                breaker_trips: r.u64()? as u32,
            }))
        }
        _ => return Err(DecodeError::BadFieldSize),
    };
    if !r.is_empty() {
        return Err(DecodeError::BadLength);
    }
    Ok(JournalEntry { app_index, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry {
                app_index: 3,
                outcome: AppOutcome::Measured(Box::new(MeasuredApp {
                    pinned_destinations: vec!["pins.shop.com".into()],
                    used_destinations: vec!["api.shop.com".into(), "pins.shop.com".into()],
                    weak_overall: true,
                    weak_pinned: false,
                    pinned_bodies: vec!["adid=x".into()],
                    unpinned_bodies: vec![],
                    circumvention: Some((vec!["pins.shop.com".into()], vec![])),
                    n_handshakes_baseline: 7,
                    settled_rerun: true,
                    breaker_trips: 2,
                })),
            },
            JournalEntry {
                app_index: 9,
                outcome: AppOutcome::Failed(MeasurementError::WorkerPanic),
            },
            JournalEntry {
                app_index: 12,
                outcome: AppOutcome::Failed(MeasurementError::MalformedInput {
                    layer: InputLayer::Chain,
                    reason: MalformedKind::LimitExceeded,
                }),
            },
            JournalEntry {
                app_index: 0,
                outcome: AppOutcome::Measured(Box::new(MeasuredApp {
                    pinned_destinations: vec![],
                    used_destinations: vec![],
                    weak_overall: false,
                    weak_pinned: false,
                    pinned_bodies: vec![],
                    unpinned_bodies: vec![],
                    circumvention: None,
                    n_handshakes_baseline: 0,
                    settled_rerun: false,
                    breaker_trips: 0,
                })),
            },
        ]
    }

    fn journal() -> ResultJournal {
        let mut j = ResultJournal::create([0xAB; 32]);
        for e in sample_entries() {
            j.append(&e);
        }
        j
    }

    #[test]
    fn roundtrip_preserves_entries_and_fingerprint() {
        let j = journal();
        let replay = ResultJournal::open(j.as_bytes()).unwrap();
        assert_eq!(replay.fingerprint, [0xAB; 32]);
        assert_eq!(replay.entries, sample_entries());
        assert!(replay.stats.is_clean());
        assert!(!replay.truncated());
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn open_from_reads_only_what_was_appended_since() {
        let entries = sample_entries();
        let mut j = ResultJournal::create([0xAB; 32]);
        j.append(&entries[0]);
        j.append(&entries[1]);
        let mark = j.as_bytes().len();
        j.append(&entries[2]);
        j.append(&entries[3]);
        let tail = ResultJournal::open_from(j.as_bytes(), mark).unwrap();
        assert_eq!(tail.fingerprint, [0xAB; 32]);
        assert_eq!(tail.entries, entries[2..]);
        assert!(tail.stats.is_clean());
        // An offset inside the header reads everything; the end, nothing.
        let all = ResultJournal::open_from(j.as_bytes(), 0).unwrap();
        assert_eq!(all.entries, entries);
        let end = ResultJournal::open_from(j.as_bytes(), j.as_bytes().len()).unwrap();
        assert!(end.entries.is_empty());
        assert!(end.stats.is_clean());
    }

    #[test]
    fn torn_tail_recovers_the_intact_prefix() {
        let j = journal();
        let full = j.as_bytes();
        // Cut mid-way through the last record.
        let cut = full.len() - 10;
        let replay = ResultJournal::open(&full[..cut]).unwrap();
        assert_eq!(replay.entries.len(), 3);
        assert!(replay.truncated());
        assert!(replay.stats.quarantined_bytes > 0);
        assert_eq!(
            replay.stats.quarantined_records, 0,
            "a torn tail is expected damage"
        );
    }

    #[test]
    fn flipped_bit_quarantines_the_damaged_record_and_resyncs() {
        let j = journal();
        let mut bytes = j.as_bytes().to_vec();
        // Flip a bit inside the second record's payload.
        let first_len = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize + FRAME_LEN;
        let target = 40 + first_len + FRAME_LEN + 2;
        bytes[target] ^= 0x10;
        let replay = ResultJournal::open(&bytes).unwrap();
        let expected: Vec<_> = sample_entries()
            .into_iter()
            .enumerate()
            .filter_map(|(i, e)| (i != 1).then_some(e))
            .collect();
        assert_eq!(
            replay.entries, expected,
            "the scrubber resyncs past the damage"
        );
        assert_eq!(replay.stats.quarantined_records, 1);
        assert_eq!(replay.stats.repairs, 1);
        assert!(replay.truncated());
    }

    #[test]
    fn wild_length_field_does_not_overread() {
        let j = journal();
        let mut bytes = j.as_bytes().to_vec();
        // Claim the first record is enormous.
        bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        let replay = ResultJournal::open(&bytes).unwrap();
        assert_eq!(
            replay.entries,
            sample_entries()[1..].to_vec(),
            "records beyond the wild length are recovered"
        );
        assert_eq!(replay.stats.quarantined_records, 1);
        assert!(replay.stats.quarantined_bytes > 0);
    }

    #[test]
    fn faultless_fault_media_matches_vec_media_byte_for_byte() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        let legacy = journal();
        let mut hostile =
            ResultJournal::create_on(FaultMedia::new(MediaFaultPlan::none(42)), [0xAB; 32])
                .unwrap();
        for e in sample_entries() {
            hostile.try_append(&e).unwrap();
        }
        hostile.media_mut().crash();
        assert_eq!(
            hostile.media_mut().read_back(),
            legacy.as_bytes(),
            "a fault-free FaultMedia journal is byte-identical to VecMedia"
        );
    }

    #[test]
    fn nospace_surfaces_as_structured_media_error() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        let mut j =
            ResultJournal::create_on(FaultMedia::new(MediaFaultPlan::tight(3, 120)), [7; 32])
                .unwrap();
        let mut refused = 0;
        for e in sample_entries() {
            if j.try_append(&e) == Err(MediaError::NoSpace) {
                refused += 1;
            }
        }
        assert!(refused > 0, "120 bytes cannot hold the sample journal");
        // Whatever was committed before ENOSPC still scrubs cleanly.
        let replay = ResultJournal::open(&j.media_mut().read_back()).unwrap();
        assert!(replay.entries.len() < sample_entries().len());
    }

    #[test]
    fn damaged_header_is_an_error() {
        match ResultJournal::open(b"short") {
            Err(JournalError::TooShort) => {}
            other => panic!("expected TooShort, got {other:?}"),
        }
        let mut bytes = journal().into_bytes();
        bytes[0] ^= 0xFF;
        match ResultJournal::open(&bytes) {
            Err(JournalError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn empty_journal_is_valid() {
        let j = ResultJournal::create([1; 32]);
        assert!(j.is_empty());
        let replay = ResultJournal::open(j.as_bytes()).unwrap();
        assert!(replay.entries.is_empty());
        assert!(!replay.truncated());
    }
}
