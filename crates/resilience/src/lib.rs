//! Shared overload-robustness primitives.
//!
//! Three mechanisms recur wherever this workspace talks to something that
//! can fail or fall behind — the netsim test bed (PR 3), the dynamic
//! measurement pipeline, and the `pinning-serve` request front end:
//!
//! * [`breaker`] — the three-state circuit breaker
//!   (closed → open → half-open) that stops persistently failing endpoints
//!   from consuming retry budget. Generic over the fault payload so the
//!   netsim test bed (fault kinds) and the serving layer (backend faults)
//!   share one implementation and one test suite.
//! * [`retry`] — [`RetryPolicy`]: bounded attempts with exponential
//!   backoff and seeded jitter. The jitter draw comes from an **explicit
//!   RNG handle** the caller derives per logical task, so replays are
//!   byte-identical at any concurrency.
//! * [`deadline`] — [`Deadline`]: a deterministic *work-budget* deadline
//!   token threaded through expensive call trees (chain validation, Merkle
//!   proof generation). Work is charged in virtual ticks; the moment the
//!   budget is exhausted the callee abandons the remaining work with a
//!   structured [`DeadlineExceeded`], never a partial result.
//!
//! PR 10 adds the durable-storage layer underneath the journals:
//!
//! * [`media`] — the [`Media`] storage contract (append / flush / crash /
//!   read-back) with the perfect [`VecMedia`] and the seeded hostile
//!   [`FaultMedia`] driven by a [`MediaFaultPlan`] (torn writes, lying
//!   flushes, read-back bit rot, ENOSPC, duplicated segments).
//! * [`recovery`] — the one checksummed-frame format under both journal
//!   record codecs (PINJRNL1 and STRMJRN1), read by the strict prefix
//!   reader or the self-healing [`scrub_frames`] scrubber, plus
//!   generation-stamped double-buffered [`CheckpointStore`] checkpoints.
//!
//! Everything here is deterministic by construction: no wall clocks, no
//! global state, no OS randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod deadline;
pub mod media;
pub mod recovery;
pub mod retry;

pub use breaker::{Admission, BreakerConfig, BreakerSet, BreakerState};
pub use deadline::{Deadline, DeadlineExceeded};
pub use media::{
    persist_through, FaultMedia, Media, MediaError, MediaFaultPlan, MediaStats, VecMedia,
};
pub use recovery::{
    append_frame, read_frames_strict, scrub_frames, CheckpointStore, RecoveredCheckpoint,
    RecoveredFrames, ScrubStats, FRAME_OVERHEAD,
};
pub use retry::RetryPolicy;
