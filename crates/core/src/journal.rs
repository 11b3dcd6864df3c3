//! Write-ahead journal: crash-safe persistence for both study engines.
//!
//! The paper's campaigns ran for days on physical devices; losing the
//! process meant losing every finished app. The journal fixes that for the
//! reproduction: a supervisor appends one record per *completed* unit of
//! work, and a resume replays the journal to skip finished work.
//!
//! There is one framed [`Journal`]; a [`RecordCodec`] says what a record
//! holds. PINJRNL1 ([`ResultJournal`], [`AppCodec`]) carries one
//! [`JournalEntry`] per app for [`Study`](crate::study::Study); STRMJRN1
//! ([`StreamJournal`](crate::stream::StreamJournal)) carries one shard
//! index and accumulator per shard for the streaming engine.
//!
//! ## Format
//!
//! ```text
//! header:  magic (8 bytes) ‖ config fingerprint (32 bytes, SHA-256)
//! record:  [payload len: u32 LE] [SHA-256(payload): 32 bytes] [payload]
//! ```
//!
//! Records are appended in commit order (which varies with scheduling) and
//! are keyed by app or shard index, so replay order never matters. A
//! PINJRNL1 payload is the TLV encoding ([`pinning_pki::encode`]) of
//! *dynamic observables* only — app ids and static findings are
//! recomputed deterministically from the regenerated world, keeping
//! journals small and resume byte-identical.
//!
//! ## Corruption tolerance and resume
//!
//! A process killed mid-append leaves a torn tail; a bad disk can flip
//! bits anywhere. [`Journal::open`] runs the shared scrubber
//! ([`pinning_resilience::recovery::scrub_frames`]): damaged spans are
//! quarantined and the reader resyncs past them, and a checksum-valid
//! record the codec cannot decode is quarantined too. Everything
//! discarded is accounted in [`Replay::stats`]; only damage to the header
//! is a [`JournalError`]. Every resume goes through one crate-private
//! path (`Journal::resume_on`), and both supervisors commit through one
//! `CommitLog`.
//!
//! The journal writes through the [`Media`] storage contract ([`VecMedia`]
//! by default, [`FaultMedia`](pinning_resilience::FaultMedia) in the chaos
//! suite) with a flush barrier after each append, so on honest media a
//! record is durable the moment [`try_append`](Journal::try_append)
//! returns.

use pinning_netsim::faults::{InputLayer, MalformedKind, MeasurementError};
use pinning_pki::encode::{Reader, Writer};
use pinning_pki::error::DecodeError;
use pinning_resilience::media::{Media, MediaError, VecMedia};
use pinning_resilience::recovery::{append_frame, scrub_frames, ScrubStats, FRAME_OVERHEAD};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every per-app journal (format version 1).
pub const JOURNAL_MAGIC: &[u8; 8] = b"PINJRNL1";

/// Header length: magic plus the 32-byte config fingerprint.
const HEADER_LEN: usize = 8 + 32;

/// A journal whose header is damaged, or whose medium refused a write.
///
/// Record-level damage is *not* an error — [`Journal::open`]
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

/// One journal format: its magic and how a record maps to a frame
/// payload. The framing, header, scrubbing and resume are [`Journal`]'s.
pub trait RecordCodec {
    /// Magic bytes opening every journal of this format.
    const MAGIC: &'static [u8; 8];
    /// One committed record.
    type Record;
    /// What [`Journal::open`] hands back.
    type Replay;
    /// The frame payload of one record.
    fn encode(record: &Self::Record) -> Vec<u8>;
    /// Decodes one checksum-valid payload; an error quarantines it.
    fn decode(payload: &[u8]) -> Result<Self::Record, DecodeError>;
    /// Folds the scrubbed records, in on-media order, into the replay.
    fn replay(scrubbed: Replay<Self::Record>) -> Self::Replay;
    /// The payloads a journal rebuilt from `replay` commits, in order.
    fn payloads(replay: &Self::Replay) -> impl Iterator<Item = Vec<u8>>;
}

/// The scrubbed content of a journal (what PINJRNL1's `open` returns).
#[derive(Debug, Clone)]
pub struct Replay<R = JournalEntry> {
    /// Config fingerprint the journal was created under.
    pub fingerprint: [u8; 32],
    /// Records recovered, in commit order.
    pub entries: Vec<R>,
    /// Quarantine and repair accounting from the scrub pass.
    pub stats: ScrubStats,
}

impl<R> Replay<R> {
    /// Whether the scrub quarantined or repaired anything.
    pub fn truncated(&self) -> bool {
        !self.stats.is_clean()
    }
}

/// An append-only, checksummed journal of `C` records over a [`Media`]
/// (by default [`VecMedia`], whose image callers persist themselves).
#[derive(Debug, Clone)]
pub struct Journal<C, M: Media = VecMedia> {
    media: M,
    frames: usize,
    codec: PhantomData<C>,
}

impl<C: RecordCodec> Journal<C, VecMedia> {
    /// A fresh in-memory journal bound to a config fingerprint.
    pub fn create(fingerprint: [u8; 32]) -> Self {
        Journal::create_on(VecMedia::new(), fingerprint).expect("VecMedia never refuses a write")
    }

    /// Appends one committed record (infallible on perfect media).
    pub fn append(&mut self, record: &C::Record) {
        self.try_append(record)
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

    /// Scrubs a journal image, recovering every intact record. Never
    /// panics on hostile input; only a damaged *header* is an error.
    pub fn open(bytes: &[u8]) -> Result<C::Replay, JournalError> {
        Self::open_from(bytes, HEADER_LEN).map(C::replay)
    }

    /// The records that start at or after byte offset `from` (clamped to
    /// the end of the header), before the codec folds them: what was
    /// appended since a caller that decoded `bytes[..from]` last looked.
    pub(crate) fn open_from(bytes: &[u8], from: usize) -> Result<Replay<C::Record>, JournalError> {
        if bytes.len() < HEADER_LEN {
            return Err(JournalError::TooShort);
        }
        if &bytes[..8] != C::MAGIC {
            return Err(JournalError::BadMagic);
        }
        let mut fingerprint = [0u8; 32];
        fingerprint.copy_from_slice(&bytes[8..HEADER_LEN]);

        let recovered = scrub_frames(bytes, from.clamp(HEADER_LEN, bytes.len()));
        let mut stats = recovered.stats;
        let mut entries = Vec::with_capacity(recovered.frames.len());
        for payload in recovered.frames {
            match C::decode(payload) {
                Ok(record) => entries.push(record),
                // Checksum-valid but undecodable: version skew rather
                // than bit rot. Quarantine the record and keep going —
                // records are independent.
                Err(_) => {
                    stats.quarantined_bytes += (FRAME_OVERHEAD + payload.len()) as u64;
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

impl<C: RecordCodec, M: Media> Journal<C, M> {
    /// A fresh journal written through `media`, bound to `fingerprint`.
    ///
    /// Resets the medium, writes the header, and flushes it — on honest
    /// media the header is durable when this returns.
    pub fn create_on(mut media: M, fingerprint: [u8; 32]) -> Result<Self, MediaError> {
        media.reset();
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(C::MAGIC);
        header.extend_from_slice(&fingerprint);
        media.append(&header)?;
        media.flush()?;
        Ok(Journal {
            media,
            frames: 0,
            codec: PhantomData,
        })
    }

    /// The one resume path: scrubs `image`, refuses it if it was written
    /// under another `fingerprint`, and rebuilds a clean journal from the
    /// recovered records on `media` — self-healing the damage.
    pub(crate) fn resume_on(
        media: M,
        image: &[u8],
        fingerprint: [u8; 32],
    ) -> Result<(Self, C::Replay), JournalError> {
        let scrubbed = Journal::<C>::open_from(image, HEADER_LEN)?;
        if scrubbed.fingerprint != fingerprint {
            return Err(JournalError::FingerprintMismatch);
        }
        let replay = C::replay(scrubbed);
        let mut journal = Journal::create_on(media, fingerprint)?;
        for payload in C::payloads(&replay) {
            journal.commit(&payload)?;
        }
        Ok((journal, replay))
    }

    /// Appends one committed record through the medium, with a flush
    /// barrier so the record is durable on return (honest media).
    pub fn try_append(&mut self, record: &C::Record) -> Result<(), MediaError> {
        self.commit(&C::encode(record))
    }

    /// Frames one encoded record, appends it, and flushes.
    pub(crate) fn commit(&mut self, payload: &[u8]) -> Result<(), MediaError> {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        append_frame(&mut frame, payload);
        self.media.append(&frame)?;
        self.media.flush()?;
        self.frames += 1;
        Ok(())
    }

    /// Records committed, including the ones a resume rebuilt.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether no record has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// Borrow of the backing medium.
    pub fn media(&self) -> &M {
        &self.media
    }

    /// Mutable borrow of the backing medium (e.g. to crash it).
    #[cfg(test)]
    pub fn media_mut(&mut self) -> &mut M {
        &mut self.media
    }

    /// Consumes the journal, returning the backing medium.
    pub fn into_media(self) -> M {
        self.media
    }
}

/// Both supervisors' commit step: append and kill-check are atomic under
/// one lock, so a kill after N fresh commits leaves exactly N new records.
pub(crate) struct CommitLog<C, M: Media> {
    /// (journal, fresh commits, first media refusal).
    state: Mutex<(Journal<C, M>, usize, Option<MediaError>)>,
    killed: AtomicBool,
    kill_after: Option<usize>,
}

impl<C: RecordCodec, M: Media> CommitLog<C, M> {
    /// The (simulated) process dies after `kill_after` fresh commits.
    pub(crate) fn new(journal: Journal<C, M>, kill_after: Option<usize>) -> Self {
        CommitLog {
            state: Mutex::new((journal, 0, None)),
            killed: AtomicBool::new(false),
            kill_after,
        }
    }

    /// Whether the run is dead: the kill hook fired or the medium refused.
    pub(crate) fn killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// Commits one encoded record unless the run already died; returns
    /// whether it was committed. A media refusal (e.g. ENOSPC) kills the
    /// run and surfaces from [`CommitLog::finish`].
    pub(crate) fn commit(&self, payload: &[u8]) -> bool {
        let mut state = self.state.lock().expect("journal lock");
        if self.killed() {
            return false; // the process "died" while this worker measured
        }
        if let Err(e) = state.0.commit(payload) {
            state.2 = Some(e);
            self.killed.store(true, Ordering::Release);
            return false;
        }
        state.1 += 1;
        if self.kill_after == Some(state.1) {
            self.killed.store(true, Ordering::Release);
        }
        true
    }

    /// The journal, the fresh commit count, and whether the run was
    /// killed — or the first media refusal as a structured error.
    pub(crate) fn finish(self) -> Result<(Journal<C, M>, usize, bool), JournalError> {
        let (journal, fresh, refused) = self.state.into_inner().expect("journal lock");
        match refused {
            Some(e) => Err(JournalError::Media(e)),
            None => Ok((journal, fresh, self.killed.into_inner())),
        }
    }
}

/// The PINJRNL1 codec: one [`JournalEntry`] per completed app.
#[derive(Debug, Clone, Copy)]
pub struct AppCodec;

impl RecordCodec for AppCodec {
    const MAGIC: &'static [u8; 8] = JOURNAL_MAGIC;
    type Record = JournalEntry;
    type Replay = Replay;

    fn encode(entry: &JournalEntry) -> Vec<u8> {
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

    fn decode(payload: &[u8]) -> Result<JournalEntry, DecodeError> {
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

    fn replay(scrubbed: Replay) -> Replay {
        scrubbed
    }

    fn payloads(replay: &Replay) -> impl Iterator<Item = Vec<u8>> {
        replay.entries.iter().map(Self::encode)
    }
}

/// The per-app write-ahead result journal (PINJRNL1).
pub type ResultJournal<M = VecMedia> = Journal<AppCodec, M>;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{CategoryTally, DatasetTally, PlatformTally, StreamAccum};
    use crate::stream::{ShardCodec, StreamJournal};
    use pinning_crypto::{hex_encode, sha256};

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

    /// Two hand-built shard accumulators, committed out of index order.
    fn sample_shards() -> Vec<(u64, StreamAccum)> {
        let mut first = StreamAccum {
            shards: 1,
            apps: 3,
            ..Default::default()
        };
        first.platform[0] = PlatformTally {
            apps: 2,
            pinned: 1,
            handshakes: 9,
            weak_overall: 1,
            circ_attempted: 1,
            circ_succeeded: 1,
            ..Default::default()
        };
        first.platform[1].apps = 1;
        first.dataset[0][1] = DatasetTally {
            apps: 2,
            pinned: 1,
            static_embedded: 1,
            nsc: 1,
            degraded: 0,
        };
        first.categories[0].insert("Finance".into(), CategoryTally { apps: 2, pinned: 1 });
        let mut second = StreamAccum {
            shards: 1,
            apps: 2,
            ..Default::default()
        };
        second.platform[1] = PlatformTally {
            apps: 2,
            settled_reruns: 1,
            degraded: 1,
            breaker_trips: 3,
            ..Default::default()
        };
        second.errors.insert("worker-panic".into(), 1);
        second.categories[1].insert("Games".into(), CategoryTally { apps: 2, pinned: 0 });
        vec![(4, first), (0, second)]
    }

    fn journal() -> ResultJournal {
        let mut j = ResultJournal::create([0xAB; 32]);
        for e in sample_entries() {
            j.append(&e);
        }
        j
    }

    fn shard_journal() -> StreamJournal {
        let mut j = StreamJournal::create([0xCD; 32]);
        for (k, acc) in sample_shards() {
            j.append_shard(k, &acc);
        }
        j
    }

    // The digests below were taken from the journal writers before the two
    // formats shared one implementation; they pin every header and frame
    // byte across refactors.
    #[test]
    fn pinjrnl_image_is_byte_stable() {
        let j = journal();
        assert_eq!(j.as_bytes().len(), 713);
        assert_eq!(
            hex_encode(&sha256(j.as_bytes())),
            "83aaf95d82b68c1370513487195c0a930809741853f231e3cfb612b6f3c8dc0d"
        );
    }

    #[test]
    fn strmjrn_image_is_byte_stable() {
        let j = shard_journal();
        assert_eq!(j.as_bytes().len(), 1888);
        assert_eq!(
            hex_encode(&sha256(j.as_bytes())),
            "c8f3d4ef1df562fa5d0cfdfeea72c4aded1264e9e25570873d3d32ce92081d77"
        );
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

    /// The corruption contract every record codec inherits from the one
    /// framed journal: a damaged header is an error, an empty journal is
    /// valid, and torn tails, flipped bits and wild length fields are
    /// quarantined around. Needs at least three records, so that damage
    /// to the second has an intact third to resync to.
    fn assert_corruption_contract<C: RecordCodec>(records: &[C::Record]) {
        assert!(records.len() >= 3);
        let payloads = |got: Replay<C::Record>| {
            let encoded: Vec<_> = got.entries.iter().map(C::encode).collect();
            (encoded, got.stats)
        };
        let written: Vec<_> = records.iter().map(C::encode).collect();
        let mut j = Journal::<C>::create([0xAB; 32]);
        for r in records {
            j.append(r);
        }
        let bytes = j.as_bytes();
        let scrub = |image: &[u8]| payloads(Journal::<C>::open_from(image, 0).unwrap());

        let (got, stats) = scrub(bytes);
        assert_eq!(got, written);
        assert!(stats.is_clean());

        // Damaged header.
        assert!(matches!(
            Journal::<C>::open(b"short"),
            Err(JournalError::TooShort)
        ));
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            Journal::<C>::open(&bad_magic),
            Err(JournalError::BadMagic)
        ));

        // Empty journal.
        let empty = Journal::<C>::create([1; 32]);
        assert!(empty.is_empty());
        let (got, stats) = scrub(empty.as_bytes());
        assert!(got.is_empty());
        assert!(stats.is_clean());

        // Torn tail: cut mid-way through the last record.
        let (got, stats) = scrub(&bytes[..bytes.len() - 10]);
        assert_eq!(got, written[..written.len() - 1]);
        assert!(stats.quarantined_bytes > 0);
        assert_eq!(
            stats.quarantined_records, 0,
            "a torn tail is expected damage"
        );

        // Flipped bit inside the second record's payload: quarantined,
        // and the scrubber resyncs past it.
        let first_len = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
        let mut flipped = bytes.to_vec();
        flipped[HEADER_LEN + 2 * FRAME_OVERHEAD + first_len + 2] ^= 0x10;
        let (got, stats) = scrub(&flipped);
        let mut survivors = written.clone();
        survivors.remove(1);
        assert_eq!(got, survivors, "the scrubber resyncs past the damage");
        assert_eq!(stats.quarantined_records, 1);
        assert_eq!(stats.repairs, 1);

        // Wild length field: the first record claims to be enormous.
        let mut wild = bytes.to_vec();
        wild[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        let (got, stats) = scrub(&wild);
        assert_eq!(
            got,
            written[1..],
            "records beyond the wild length are recovered"
        );
        assert_eq!(stats.quarantined_records, 1);
        assert!(stats.quarantined_bytes > 0);
    }

    #[test]
    fn pinjrnl_honours_the_corruption_contract() {
        assert_corruption_contract::<AppCodec>(&sample_entries());
    }

    #[test]
    fn strmjrn_honours_the_corruption_contract() {
        let mut shards = sample_shards();
        shards.push((9, StreamAccum::default()));
        assert_corruption_contract::<ShardCodec>(&shards);
    }

    #[test]
    fn resume_rebuilds_a_clean_journal_or_refuses_a_foreign_one() {
        let full = journal().into_bytes();
        let torn = &full[..full.len() - 10];
        let (rebuilt, replay) =
            ResultJournal::resume_on(VecMedia::new(), torn, [0xAB; 32]).unwrap();
        assert!(replay.truncated());
        assert_eq!(replay.entries, sample_entries()[..3]);
        assert_eq!(rebuilt.len(), 3);
        let reread = ResultJournal::open(rebuilt.as_bytes()).unwrap();
        assert_eq!(reread.entries, replay.entries);
        assert!(!reread.truncated(), "the rebuilt journal is clean");

        assert_eq!(
            ResultJournal::resume_on(VecMedia::new(), &full, [0xAC; 32]).err(),
            Some(JournalError::FingerprintMismatch)
        );
    }

    #[test]
    fn commit_log_stops_after_the_kill_hook_or_a_media_refusal() {
        use pinning_resilience::media::{FaultMedia, MediaFaultPlan};
        let payload = AppCodec::encode(&sample_entries()[1]);
        let log = CommitLog::new(ResultJournal::create([0xAB; 32]), Some(2));
        assert!(log.commit(&payload));
        assert!(!log.killed());
        assert!(log.commit(&payload), "the kill fires after this commit");
        assert!(log.killed());
        assert!(!log.commit(&payload), "a dead run commits nothing");
        let (journal, fresh, killed) = log.finish().unwrap();
        assert_eq!((journal.len(), fresh, killed), (2, 2, true));

        let tight = FaultMedia::new(MediaFaultPlan::tight(3, 60));
        let log = CommitLog::new(ResultJournal::create_on(tight, [7; 32]).unwrap(), None);
        assert!(
            !log.commit(&payload),
            "60 bytes cannot hold header and frame"
        );
        assert!(log.killed());
        assert!(matches!(
            log.finish(),
            Err(JournalError::Media(MediaError::NoSpace))
        ));
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
}
