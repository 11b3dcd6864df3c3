//! Shared journal recovery: one checksummed frame format, one scrubber,
//! one checkpoint discipline.
//!
//! The one journal type in `pinning-core::journal` carries both record
//! codecs (PINJRNL1 and STRMJRN1) as `[payload len: u32 LE]
//! [SHA-256(payload)][payload]` frames: [`append_frame`] writes them and
//! [`scrub_frames`] (the self-healing reader) reads them back;
//! [`read_frames_strict`] is the stop-at-first-damage baseline it is
//! benchmarked against.
//!
//! ## Scrubbing
//!
//! Real media damage is rarely a clean tail cut: a rotted bit in the
//! middle of a journal destroys one frame, not everything after it.
//! [`scrub_frames`] verifies every checksum; on damage it *resyncs* —
//! scans forward for the next byte offset at which a checksum-valid
//! frame begins — and keeps reading. The damaged span is quarantined and
//! counted in [`ScrubStats`]. Resync is sound for every journal in this
//! workspace because records are keyed (app index, shard index) and
//! idempotent, so recovering frames beyond a damaged region can never
//! splice the wrong data into the wrong slot; a 256-bit checksum makes
//! an accidental mid-payload match not a practical concern. Duplicated
//! segments (a retried write landing twice) surface as consecutive
//! byte-identical frames; no journal format here legitimately produces
//! them, so the scrubber drops the copy and counts a repair.
//!
//! The invariant, shared with the chaos suite: **byte-identical or
//! explicitly degraded, never silently wrong.** Every discarded byte is
//! visible in the stats that end up in the run-health table.
//!
//! ## Checkpoints
//!
//! [`CheckpointStore`] writes generation-stamped images alternately into
//! two [`Media`] slots, so a crash — or an ENOSPC, or a torn write —
//! while writing generation *g* always leaves generation *g−1* intact in
//! the other slot. [`CheckpointStore::load`] picks the newest slot that
//! validates and reports whether it had to fall back past a damaged one.

use crate::media::{Media, MediaError};
use pinning_crypto::sha256;

/// Per-frame overhead: the u32 length word plus the SHA-256 checksum.
pub const FRAME_OVERHEAD: usize = 4 + 32;

/// Appends one checksummed frame: `[len u32 LE][sha256(payload)][payload]`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&sha256(payload));
    out.extend_from_slice(payload);
}

/// Repair and quarantine telemetry from one scrub pass.
///
/// Aggregated across journals into the run-health table; the rule is
/// that any nonzero field means the journal was *explicitly degraded* —
/// the bytes are gone, but their absence is accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Bytes discarded: damaged spans, dropped duplicates, torn tails.
    pub quarantined_bytes: u64,
    /// Damaged regions in the middle of the journal, each of which
    /// destroyed at least one record (a torn *tail* counts bytes only —
    /// it is the expected crash artifact, not a lost record).
    pub quarantined_records: u32,
    /// Self-heals: resyncs past damage plus dropped duplicate segments.
    pub repairs: u32,
    /// Checkpoint loads that fell back past a damaged slot.
    pub checkpoints_recovered: u32,
}

impl ScrubStats {
    /// Whether the journal read back exactly as written.
    pub fn is_clean(&self) -> bool {
        *self == ScrubStats::default()
    }
}

/// The outcome of reading a frame stream: recovered payloads plus the
/// accounting for everything that was not recovered.
#[derive(Debug, Clone)]
pub struct RecoveredFrames<'a> {
    /// Checksum-valid payloads, in on-media order, duplicates dropped.
    pub frames: Vec<&'a [u8]>,
    /// What the scrubber quarantined and repaired.
    pub stats: ScrubStats,
}

/// Parses the frame at `bytes[pos..]`; returns `(payload, frame_len)` if
/// the frame is complete and its checksum verifies.
fn frame_at(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let rest = &bytes[pos..];
    if rest.len() < FRAME_OVERHEAD {
        return None;
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    // A flipped bit in the length word can claim gigabytes; bound it by
    // what is actually present before touching the payload.
    if len > rest.len() - FRAME_OVERHEAD {
        return None;
    }
    let payload = &rest[FRAME_OVERHEAD..FRAME_OVERHEAD + len];
    if sha256(payload).as_slice() != &rest[4..FRAME_OVERHEAD] {
        return None;
    }
    Some((payload, FRAME_OVERHEAD + len))
}

/// The historical reader: the longest intact prefix of frames starting
/// at `start`, stopping at the first torn, corrupt, or wild-length
/// frame. Everything after the stop point is quarantined.
///
/// This is the "direct read path" the scrubber's overhead is benchmarked
/// against.
pub fn read_frames_strict(bytes: &[u8], start: usize) -> RecoveredFrames<'_> {
    let mut frames = Vec::new();
    let mut pos = start;
    while pos < bytes.len() {
        match frame_at(bytes, pos) {
            Some((payload, advance)) => {
                frames.push(payload);
                pos += advance;
            }
            None => break,
        }
    }
    RecoveredFrames {
        frames,
        stats: ScrubStats {
            quarantined_bytes: (bytes.len() - pos) as u64,
            ..ScrubStats::default()
        },
    }
}

/// The self-healing reader: verifies every checksum from `start`, and on
/// damage resyncs to the next valid frame instead of abandoning the rest
/// of the journal.
///
/// On a clean journal this does exactly the strict reader's work plus
/// one payload comparison per frame (the duplicate check), which is why
/// the scrub-overhead bench gate can demand ≤2%.
pub fn scrub_frames(bytes: &[u8], start: usize) -> RecoveredFrames<'_> {
    let mut frames: Vec<&[u8]> = Vec::new();
    let mut stats = ScrubStats::default();
    let mut pos = start;
    while pos < bytes.len() {
        if let Some((payload, advance)) = frame_at(bytes, pos) {
            if frames.last() == Some(&payload) {
                // A duplicated segment: the same frame landed twice in a
                // row. No format here emits consecutive identical
                // records, so drop the copy and count the repair.
                stats.quarantined_bytes += advance as u64;
                stats.repairs += 1;
            } else {
                frames.push(payload);
            }
            pos += advance;
            continue;
        }
        // Damage at `pos`. Scan forward for the next offset at which a
        // checksum-valid frame begins; the skipped span is quarantined.
        let mut probe = pos + 1;
        let mut resynced = false;
        while probe + FRAME_OVERHEAD <= bytes.len() {
            if frame_at(bytes, probe).is_some() {
                stats.quarantined_bytes += (probe - pos) as u64;
                stats.quarantined_records += 1;
                stats.repairs += 1;
                pos = probe;
                resynced = true;
                break;
            }
            probe += 1;
        }
        if !resynced {
            // No intact frame anywhere ahead: a torn tail (or terminal
            // garbage). Quarantine the remainder and stop.
            stats.quarantined_bytes += (bytes.len() - pos) as u64;
            break;
        }
    }
    RecoveredFrames { frames, stats }
}

/// Magic bytes opening every checkpoint slot image (format version 1).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PINCKPT1";

/// Slot header: magic plus the u64 generation stamp.
const SLOT_HEADER: usize = 8 + 8;

/// A checkpoint image recovered by [`CheckpointStore::load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredCheckpoint {
    /// Generation stamp of the image that validated.
    pub generation: u64,
    /// The checkpoint payload, exactly as saved.
    pub payload: Vec<u8>,
    /// Whether a non-empty slot failed validation and the load fell back
    /// to the surviving one (stale-checkpoint recovery).
    pub fell_back: bool,
}

/// Generation-stamped, double-buffered checkpoint storage over two
/// [`Media`] slots.
///
/// Slot image: `"PINCKPT1" ‖ generation (u64 LE) ‖ frame(payload)`.
/// Generation *g* is written to slot *g mod 2*, so consecutive saves
/// alternate slots and a failure while writing generation *g* — crash,
/// torn write, ENOSPC — can only damage the slot holding the *older*
/// image; generation *g−1* survives untouched in the other slot.
#[derive(Debug, Clone)]
pub struct CheckpointStore<M: Media> {
    slots: [M; 2],
    generation: u64,
}

impl CheckpointStore<crate::media::VecMedia> {
    /// A checkpoint store over two perfect in-memory slots.
    pub fn in_memory() -> Self {
        CheckpointStore::new(crate::media::VecMedia::new(), crate::media::VecMedia::new())
    }
}

impl<M: Media> CheckpointStore<M> {
    /// A checkpoint store over two fresh slots (generation 0 = nothing
    /// saved yet). To reopen existing media after a restart, construct
    /// over them and call [`load`](Self::load) — it re-learns the
    /// current generation from the slot stamps.
    pub fn new(slot_a: M, slot_b: M) -> Self {
        CheckpointStore {
            slots: [slot_a, slot_b],
            generation: 0,
        }
    }

    /// Saves `payload` as the next generation, returning its stamp.
    ///
    /// On failure (e.g. [`MediaError::NoSpace`]) the target slot is left
    /// trashed but the previous generation — in the *other* slot — is
    /// untouched, and the store's generation does not advance; a retry
    /// rewrites the same slot.
    pub fn save(&mut self, payload: &[u8]) -> Result<u64, MediaError> {
        let candidate = self.generation + 1;
        let slot = &mut self.slots[(candidate % 2) as usize];
        slot.reset();
        let mut image = Vec::with_capacity(SLOT_HEADER + FRAME_OVERHEAD + payload.len());
        image.extend_from_slice(CHECKPOINT_MAGIC);
        image.extend_from_slice(&candidate.to_le_bytes());
        append_frame(&mut image, payload);
        slot.append(&image)?;
        slot.flush()?;
        self.generation = candidate;
        Ok(candidate)
    }

    /// Crashes both slots (the process and its page cache die).
    pub fn crash(&mut self) {
        for slot in &mut self.slots {
            slot.crash();
        }
    }

    /// Loads the newest checkpoint that validates, if any.
    ///
    /// Each slot must read back with intact magic, generation stamp, and
    /// a checksum-valid frame; the newest valid generation wins. A
    /// non-empty slot that fails validation (torn, rotted, stale partial
    /// write) sets [`RecoveredCheckpoint::fell_back`] on the result —
    /// that is the "checkpoints recovered" count in run health. Also
    /// re-learns the store's generation counter from the stamps, so a
    /// store reopened over existing media resumes the alternation
    /// correctly.
    pub fn load(&mut self) -> Option<RecoveredCheckpoint> {
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut damaged_slots = 0u32;
        for slot in &mut self.slots {
            let image = slot.read_back();
            if image.is_empty() {
                continue;
            }
            match parse_slot(&image) {
                Some((generation, payload)) => {
                    if best.as_ref().map(|(g, _)| generation > *g).unwrap_or(true) {
                        best = Some((generation, payload));
                    }
                }
                None => damaged_slots += 1,
            }
        }
        let (generation, payload) = best?;
        self.generation = self.generation.max(generation);
        Some(RecoveredCheckpoint {
            generation,
            payload,
            fell_back: damaged_slots > 0,
        })
    }
}

/// Validates one slot image, returning `(generation, payload)`.
fn parse_slot(image: &[u8]) -> Option<(u64, Vec<u8>)> {
    if image.len() < SLOT_HEADER || &image[..8] != CHECKPOINT_MAGIC {
        return None;
    }
    let generation = u64::from_le_bytes(image[8..SLOT_HEADER].try_into().ok()?);
    let (payload, advance) = frame_at(image, SLOT_HEADER)?;
    // A duplicated-segment fault can append the image twice; the first
    // intact frame is the checkpoint, anything after it is ignored.
    let _ = advance;
    Some((generation, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{FaultMedia, Media, MediaFaultPlan, VecMedia};

    fn stream(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            append_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn strict_and_scrub_agree_on_clean_streams() {
        let bytes = stream(&[b"alpha", b"beta", b"", b"gamma-long-payload"]);
        let strict = read_frames_strict(&bytes, 0);
        let scrub = scrub_frames(&bytes, 0);
        assert_eq!(strict.frames, scrub.frames);
        assert_eq!(strict.frames.len(), 4);
        assert!(strict.stats.is_clean());
        assert!(scrub.stats.is_clean());
    }

    #[test]
    fn strict_stops_at_damage_scrub_resyncs_past_it() {
        let mut bytes = stream(&[b"record-one", b"record-two", b"record-three"]);
        // Flip a bit inside record two's payload.
        let one = FRAME_OVERHEAD + 10;
        bytes[one + FRAME_OVERHEAD + 3] ^= 0x40;

        let strict = read_frames_strict(&bytes, 0);
        assert_eq!(strict.frames, vec![b"record-one".as_slice()]);
        assert_eq!(strict.stats.quarantined_bytes, (bytes.len() - one) as u64);

        let scrub = scrub_frames(&bytes, 0);
        assert_eq!(
            scrub.frames,
            vec![b"record-one".as_slice(), b"record-three".as_slice()],
            "scrub must recover the record beyond the damage"
        );
        assert_eq!(scrub.stats.quarantined_records, 1);
        assert_eq!(scrub.stats.repairs, 1);
        assert_eq!(
            scrub.stats.quarantined_bytes,
            (FRAME_OVERHEAD + 10) as u64,
            "exactly record two's frame is quarantined"
        );
    }

    #[test]
    fn scrub_survives_wild_length_fields() {
        let mut bytes = stream(&[b"aaaa", b"bbbb", b"cccc"]);
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scrub = scrub_frames(&bytes, 0);
        assert_eq!(scrub.frames, vec![b"bbbb".as_slice(), b"cccc".as_slice()]);
        assert_eq!(scrub.stats.quarantined_records, 1);

        let strict = read_frames_strict(&bytes, 0);
        assert!(strict.frames.is_empty());
    }

    #[test]
    fn torn_tail_counts_bytes_but_not_records() {
        let bytes = stream(&[b"head", b"tail-record"]);
        let cut = &bytes[..bytes.len() - 5];
        let scrub = scrub_frames(cut, 0);
        assert_eq!(scrub.frames, vec![b"head".as_slice()]);
        assert_eq!(
            scrub.stats.quarantined_records, 0,
            "a torn tail is expected"
        );
        assert_eq!(
            scrub.stats.quarantined_bytes,
            (FRAME_OVERHEAD + 11 - 5) as u64
        );
        assert_eq!(scrub.stats.repairs, 0);
    }

    #[test]
    fn duplicated_frames_are_dropped_as_repairs() {
        let mut bytes = Vec::new();
        append_frame(&mut bytes, b"once");
        append_frame(&mut bytes, b"twice");
        append_frame(&mut bytes, b"twice");
        append_frame(&mut bytes, b"thrice");
        let scrub = scrub_frames(&bytes, 0);
        assert_eq!(
            scrub.frames,
            vec![
                b"once".as_slice(),
                b"twice".as_slice(),
                b"thrice".as_slice()
            ]
        );
        assert_eq!(scrub.stats.repairs, 1);
        assert_eq!(scrub.stats.quarantined_records, 0);
        assert_eq!(scrub.stats.quarantined_bytes, (FRAME_OVERHEAD + 5) as u64);
    }

    #[test]
    fn all_garbage_quarantines_everything() {
        let bytes = vec![0x5A; 200];
        let scrub = scrub_frames(&bytes, 0);
        assert!(scrub.frames.is_empty());
        assert_eq!(scrub.stats.quarantined_bytes, 200);
    }

    #[test]
    fn scrub_of_seeded_random_damage_never_panics_and_accounts_every_byte() {
        use pinning_crypto::SplitMix64;
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i; 3 + i as usize * 7]).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
        let clean = stream(&refs);
        let mut rng = SplitMix64::new(0xDA_11A6E);
        for _ in 0..200 {
            let mut bytes = clean.clone();
            for _ in 0..1 + rng.next_below(4) {
                let at = rng.next_below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.next_below(8);
            }
            let scrub = scrub_frames(&bytes, 0);
            let recovered: u64 = scrub
                .frames
                .iter()
                .map(|f| (f.len() + FRAME_OVERHEAD) as u64)
                .sum();
            assert_eq!(
                recovered + scrub.stats.quarantined_bytes,
                bytes.len() as u64,
                "every byte is either recovered or quarantined"
            );
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_generation_alternation() {
        let mut store = CheckpointStore::in_memory();
        assert!(store.load().is_none());
        assert_eq!(store.save(b"gen-one").unwrap(), 1);
        assert_eq!(store.save(b"gen-two").unwrap(), 2);
        assert_eq!(store.save(b"gen-three").unwrap(), 3);
        let got = store.load().unwrap();
        assert_eq!(got.generation, 3);
        assert_eq!(got.payload, b"gen-three");
        assert!(!got.fell_back);
    }

    #[test]
    fn crash_mid_save_falls_back_to_previous_generation() {
        // Every unflushed byte is torn at crash; the flush lies half the
        // time, so some saves never reach durable media.
        let plan = MediaFaultPlan {
            lost_flush: 1.0,
            ..MediaFaultPlan::none(77)
        };
        // Generation 1 lands in slot 1 (honest), generation 2 in slot 0
        // (every flush lies), so the crash erases only the newer image.
        let mut store = CheckpointStore::new(
            FaultMedia::new(plan),
            FaultMedia::new(MediaFaultPlan::none(1)),
        );
        store.save(b"good").unwrap();
        store.save(b"doomed").unwrap();
        store.crash();
        let got = store.load().unwrap();
        assert_eq!(got.payload, b"good");
        assert_eq!(got.generation, 1);
        assert!(!got.fell_back, "slot 0 crashed back to empty, not damaged");
    }

    #[test]
    fn rotted_slot_is_detected_and_fallback_reported() {
        let mut a = VecMedia::new();
        let mut b = VecMedia::new();
        {
            // Write two generations, then reopen the raw slot images the
            // way a restarted process would.
            let mut writer = CheckpointStore::new(&mut a, &mut b);
            writer.save(b"old").unwrap();
            writer.save(b"new").unwrap();
        }
        // Rot the newer image (generation 2 lives in slot 0).
        let mut img = a.read_back();
        let last = img.len() - 1;
        img[last] ^= 0x01;
        let mut store = CheckpointStore::new(VecMedia::from_bytes(img), b);
        let got = store.load().unwrap();
        assert_eq!(got.payload, b"old");
        assert_eq!(got.generation, 1);
        assert!(got.fell_back, "the damaged newer slot must be reported");
        // The re-learned generation keeps alternation safe: the next save
        // must overwrite the *damaged* slot, not the surviving one.
        assert_eq!(store.save(b"repaired").unwrap(), 2);
        let again = store.load().unwrap();
        assert_eq!(again.payload, b"repaired");
    }

    #[test]
    fn nospace_save_keeps_previous_checkpoint() {
        // Odd generations land in slot 1 (unbounded); even generations in
        // slot 0, which is too small for any image (header 16 + frame 36).
        let mut store = CheckpointStore::new(
            FaultMedia::new(MediaFaultPlan::tight(5, 40)),
            FaultMedia::new(MediaFaultPlan::none(5)),
        );
        assert_eq!(store.save(b"first").unwrap(), 1);
        assert_eq!(store.save(b"second"), Err(MediaError::NoSpace));
        let got = store.load().unwrap();
        assert_eq!(got.payload, b"first", "failed save must not lose gen 1");
        // Retry goes back to the same tight slot and fails again; the
        // surviving checkpoint stays loadable throughout.
        assert_eq!(store.save(b"third"), Err(MediaError::NoSpace));
        assert_eq!(store.load().unwrap().payload, b"first");
    }
}
