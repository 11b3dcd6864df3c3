//! Overload-robust pin-validation service.
//!
//! `pinning-serve` wraps the offline validation library — chain
//! validation ([`pinning_pki::validate`]), pin resolution and CT
//! inclusion proofs ([`pinning_ctlog`]) — in a long-running
//! request/response front end engineered to stay correct and responsive
//! under hostile load. The paper measures pinning offline; the ROADMAP
//! north star is the same analysis as a service under "heavy traffic from
//! millions of users", where the next failure mode after crashes (PR 3)
//! and malformed bytes (PR 5) is *overload*.
//!
//! Robustness mechanisms, front to back:
//!
//! 1. **Bounded admission queue** — [`ServeConfig::queue_capacity`] caps
//!    queued work; past the cap requests are shed with
//!    [`ShedReason::QueueFull`], never queued unboundedly.
//! 2. **Circuit breakers at the front door** — the shared
//!    [`pinning_resilience::breaker`] state machine (promoted from the
//!    PR 3 netsim test bed) rejects requests to endpoints whose backend
//!    keeps faulting, before they consume queue space.
//! 3. **Brownout** — when queue depth crosses the high watermark the
//!    service enters a degraded mode that answers from the PR 4 caches
//!    only (marked [`Outcome::Degraded`]), recovering at the low
//!    watermark (hysteresis, so it cannot flap per request).
//! 4. **Deadline propagation** — each admitted request carries a
//!    [`pinning_resilience::Deadline`] work budget threaded through
//!    `pki::validate` and the ctlog proof generator; work is abandoned
//!    the moment the budget runs out, yielding a structured
//!    [`Outcome::TimedOut`], never a partial verdict.
//! 5. **Retry budgets** — transient backend faults are retried under the
//!    shared [`pinning_resilience::RetryPolicy`] with seeded jitter drawn
//!    from a per-request RNG handle, byte-reproducible at any
//!    concurrency.
//!
//! The whole service is a single-threaded discrete-event simulation over
//! virtual ticks with `workers` virtual executors, so every counter in
//! [`ServeSummary`] is a pure function of (config, request trace) —
//! two runs with the same seed are identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chains;
pub mod config;
pub mod request;
pub mod service;
pub mod stats;

pub use config::ServeConfig;
pub use request::{
    BackendFault, EndpointKind, Outcome, Payload, RequestBody, Response, ServeRequest, ShedReason,
    TimeoutStage,
};
pub use service::{Backend, PinService};
pub use stats::ServeSummary;
