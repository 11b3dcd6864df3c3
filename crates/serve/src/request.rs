//! Request and response vocabulary for the serving front end.
//!
//! Requests arrive as raw bytes (chains as DER, pins as digests) exactly
//! as a network front end would see them — the service decodes hostile
//! input itself, under the same parse budgets as the offline library, and
//! a malformed body is a *successful* response saying so, not a panic.
//!
//! Every terminal state is explicit: a response is served fresh, served
//! degraded from cache, timed out at a named stage, shed with a named
//! reason, or failed after exhausting its retry budget. Nothing is
//! dropped silently, and a timed-out request never carries a partial
//! payload.

use pinning_pki::error::{DecodeError, ValidationError};
use pinning_pki::pin::PinAlgorithm;

/// The three service endpoints, each with its own deadline class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// Full chain validation (`POST /validate` in a real deployment).
    Validate,
    /// SPKI pin → logged certificates (`GET /resolve`).
    Resolve,
    /// SPKI pin → CT inclusion proof for its first logged entry
    /// (`GET /proof`).
    Proof,
}

impl EndpointKind {
    /// Stable name, used as the circuit-breaker endpoint key and in
    /// reports.
    pub fn name(&self) -> &'static str {
        match self {
            EndpointKind::Validate => "validate",
            EndpointKind::Resolve => "resolve",
            EndpointKind::Proof => "proof",
        }
    }
}

/// One request body, as raw input (nothing pre-decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Validate a leaf-first DER chain for `hostname`.
    ValidateChain {
        /// Hostname the leaf must match.
        hostname: String,
        /// The chain, one DER blob per certificate, leaf first.
        chain_der: Vec<Vec<u8>>,
    },
    /// Resolve an SPKI pin digest against the CT logs.
    ResolvePin {
        /// Digest algorithm of the pin.
        alg: PinAlgorithm,
        /// The pin digest bytes.
        digest: Vec<u8>,
    },
    /// Produce (and verify) an inclusion proof for the pin's first
    /// logged certificate.
    InclusionProof {
        /// Digest algorithm of the pin.
        alg: PinAlgorithm,
        /// The pin digest bytes.
        digest: Vec<u8>,
    },
}

impl RequestBody {
    /// The endpoint this body targets.
    pub fn endpoint(&self) -> EndpointKind {
        match self {
            RequestBody::ValidateChain { .. } => EndpointKind::Validate,
            RequestBody::ResolvePin { .. } => EndpointKind::Resolve,
            RequestBody::InclusionProof { .. } => EndpointKind::Proof,
        }
    }
}

/// One inbound request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// Caller-assigned id, echoed in the response (unique per run).
    pub id: u64,
    /// Arrival tick on the service's virtual clock.
    pub arrival: u64,
    /// What is being asked.
    pub body: RequestBody,
}

/// A successfully computed answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// The full validation verdict for the chain (pass or the exact
    /// library error) — byte-identical to the offline library's.
    ChainVerdict(Result<(), ValidationError>),
    /// The request body failed to decode under the parse budget; hostile
    /// input answered structurally, not served partially.
    Undecodable(DecodeError),
    /// How many logged certificates carry the pinned SPKI.
    PinResolution {
        /// Matching log entries across all shards.
        matches: usize,
    },
    /// An inclusion proof was generated and checked.
    InclusionProof {
        /// Tree size the proof was generated under.
        tree_size: u64,
        /// Number of audit-path nodes in the proof.
        proof_len: usize,
        /// Whether the proof verified against the log's root.
        verified: bool,
    },
    /// The pin resolves to no logged certificate, so no proof exists.
    NotLogged,
}

/// Why a request was rejected without being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The admission queue was at capacity.
    QueueFull,
    /// The endpoint's circuit breaker was open.
    BreakerOpen,
    /// Brownout: the caches held no answer for this request.
    DegradedCacheMiss,
    /// Brownout: this endpoint has no cache-only path at all.
    DegradedUnavailable,
}

/// The stage at which a request's deadline expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutStage {
    /// The deadline passed while the request waited in the queue.
    Queue,
    /// Mid chain-validation (decode or verification walk).
    ChainValidation,
    /// During the pin-resolution lookup.
    PinResolution,
    /// During inclusion-proof generation.
    InclusionProof,
    /// The jittered retry backoff consumed the rest of the budget.
    RetryBackoff,
}

/// Transient backend fault, the circuit breakers' payload: the simulated
/// log backend dropped a query (the validation backend is local CPU and
/// never flakes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendFault {
    /// Transient query failure; retryable.
    Transient,
}

/// Terminal state of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Served fresh; the payload is authoritative.
    Ok(Payload),
    /// Served during brownout from cache only; the payload was computed
    /// under an earlier request and may be stale relative to a fresh run.
    Degraded(Payload),
    /// The deadline expired at the given stage. Carries no payload — a
    /// partial verdict is never exposed.
    TimedOut(TimeoutStage),
    /// Rejected at admission with an explicit reason.
    Shed(ShedReason),
    /// The backend faulted on every attempt the retry budget allowed.
    BackendFailed {
        /// Attempts consumed (== the configured maximum).
        attempts: u32,
    },
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of [`ServeRequest::id`].
    pub id: u64,
    /// Endpoint the request targeted.
    pub endpoint: EndpointKind,
    /// Terminal state.
    pub outcome: Outcome,
    /// Arrival tick (echo of the request).
    pub arrived_at: u64,
    /// Tick at which the terminal state was reached; latency is
    /// `finished_at - arrived_at`.
    pub finished_at: u64,
    /// Retries consumed (0 = first attempt succeeded or never ran).
    pub retries: u32,
}
