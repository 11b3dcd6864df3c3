//! Deterministic fault injection for the measurement test bed.
//!
//! The paper's pipeline ran against real devices and a real proxy, and a
//! sizable share of runs degraded: DNS hiccups, dropped TCP sessions,
//! handshakes that never completed, a proxy whose CA was not installed in
//! time, devices that crashed mid-run (§4.5, §5.6). This module models
//! those failures as a *seeded* schedule so that robustness of the
//! analysis pipeline can be tested reproducibly: the same seed and fault
//! configuration always yield the same faults, independent of the order
//! in which runs execute.
//!
//! Every decision is keyed by [`SplitMix64::derive`]-chained tags over the
//! run key, destination, and attempt number, so
//!
//! * two devices replaying the same run observe the same faults, and
//! * a *retry* (different attempt number) gets a fresh draw — transient
//!   faults can clear, exactly like in the field.

use pinning_crypto::SplitMix64;

/// A single injected fault, as drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Name resolution failed; no packets reach the origin.
    Dns,
    /// The TCP session was reset by the network mid-connection.
    TcpReset,
    /// The TLS handshake hung until the client gave up.
    HandshakeTimeout,
    /// The connection established but was cut before application data
    /// completed.
    Truncation,
    /// The proxy's CA was unavailable for the whole run (MITM runs only).
    ProxyCaUnavailable,
    /// The device crashed partway through the run, losing the capture.
    DeviceCrash,
}

impl FaultKind {
    /// The measurement-level error this fault surfaces as when a run (or
    /// destination) never completes because of it.
    pub fn as_error(self) -> MeasurementError {
        match self {
            FaultKind::Dns => MeasurementError::Dns,
            FaultKind::TcpReset => MeasurementError::Tcp,
            FaultKind::HandshakeTimeout => MeasurementError::Handshake,
            FaultKind::Truncation => MeasurementError::Truncated,
            FaultKind::ProxyCaUnavailable => MeasurementError::Handshake,
            FaultKind::DeviceCrash => MeasurementError::DeviceCrash,
        }
    }

    /// Short stable label used in tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Dns => "dns",
            FaultKind::TcpReset => "tcp-reset",
            FaultKind::HandshakeTimeout => "handshake-timeout",
            FaultKind::Truncation => "truncation",
            FaultKind::ProxyCaUnavailable => "proxy-ca-unavailable",
            FaultKind::DeviceCrash => "device-crash",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a per-app measurement could not be completed.
///
/// This is the error taxonomy threaded from the device runtime up into
/// `AppRecord` / `StudyResults`: an app whose measurement keeps faulting
/// past the retry budget is recorded as *degraded* with one of these,
/// instead of being silently dropped or — worse — mis-classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MeasurementError {
    /// Name resolution failed for every attempt.
    Dns,
    /// TCP-level connectivity kept failing (resets).
    Tcp,
    /// TLS handshakes never completed (timeouts or missing proxy CA).
    Handshake,
    /// Connections kept truncating before application data completed.
    Truncated,
    /// The device crashed on every attempt.
    DeviceCrash,
    /// The per-app retry deadline elapsed before a clean pair of runs.
    Deadline,
    /// The worker measuring this app panicked; the supervisor recovered
    /// and degraded the app instead of aborting the study.
    WorkerPanic,
    /// The app's inputs (package assets or the chain its servers present)
    /// are malformed or pathological: a decoder or the chain screen
    /// rejected them. The measurement is reported as lost — a hostile
    /// input never fabricates or suppresses a pinning verdict (the same
    /// contract as PR1's Unobserved rule).
    MalformedInput {
        /// Which input layer rejected the data.
        layer: InputLayer,
        /// How the input was malformed.
        reason: MalformedKind,
    },
}

/// Which decode / screening layer rejected a hostile input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InputLayer {
    /// The DER-like certificate decoder (`pinning_pki::encode`).
    Der,
    /// PEM framing (delimiters, base64 body).
    Pem,
    /// The XML parser (`pinning_app::xml`).
    Xml,
    /// Network Security Config interpretation (`pinning_app::nsc`).
    Nsc,
    /// The `simcap` capture format.
    Simcap,
    /// The study write-ahead journal.
    Journal,
    /// Run-time chain screening (`pinning_pki::limits::screen_chain`).
    Chain,
}

impl InputLayer {
    /// All layers, in display order (for the resilience table).
    pub const ALL: [InputLayer; 7] = [
        InputLayer::Der,
        InputLayer::Pem,
        InputLayer::Xml,
        InputLayer::Nsc,
        InputLayer::Simcap,
        InputLayer::Journal,
        InputLayer::Chain,
    ];

    /// Short stable label used in tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            InputLayer::Der => "der",
            InputLayer::Pem => "pem",
            InputLayer::Xml => "xml",
            InputLayer::Nsc => "nsc",
            InputLayer::Simcap => "simcap",
            InputLayer::Journal => "journal",
            InputLayer::Chain => "chain",
        }
    }

    /// The `MeasurementError::label()` string for a malformed input
    /// rejected at this layer.
    fn malformed_label(self) -> &'static str {
        match self {
            InputLayer::Der => "malformed-der",
            InputLayer::Pem => "malformed-pem",
            InputLayer::Xml => "malformed-xml",
            InputLayer::Nsc => "malformed-nsc",
            InputLayer::Simcap => "malformed-simcap",
            InputLayer::Journal => "malformed-journal",
            InputLayer::Chain => "malformed-chain",
        }
    }
}

impl std::fmt::Display for InputLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How a hostile input was malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MalformedKind {
    /// Input ended before a complete structure.
    Truncated,
    /// Structurally invalid (bad tags, framing, linkage, repetition).
    BadStructure,
    /// A field failed to decode (bad UTF-8, bad base64, bad magic).
    BadEncoding,
    /// A [`pinning_pki::limits::Budget`] limit was tripped.
    LimitExceeded,
}

impl MalformedKind {
    /// All kinds, in display order.
    pub const ALL: [MalformedKind; 4] = [
        MalformedKind::Truncated,
        MalformedKind::BadStructure,
        MalformedKind::BadEncoding,
        MalformedKind::LimitExceeded,
    ];

    /// Short stable label used in tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            MalformedKind::Truncated => "truncated",
            MalformedKind::BadStructure => "bad-structure",
            MalformedKind::BadEncoding => "bad-encoding",
            MalformedKind::LimitExceeded => "limit-exceeded",
        }
    }

    /// Classifies a [`pinning_pki::error::DecodeError`].
    pub fn from_decode_error(e: &pinning_pki::error::DecodeError) -> Self {
        use pinning_pki::error::DecodeError as E;
        match e {
            E::Truncated => MalformedKind::Truncated,
            E::UnexpectedTag { .. } | E::BadLength | E::BadPem => MalformedKind::BadStructure,
            E::BadUtf8 | E::BadPemBase64 | E::BadFieldSize | E::BadMagic => {
                MalformedKind::BadEncoding
            }
            E::LimitExceeded(_) => MalformedKind::LimitExceeded,
        }
    }
}

impl std::fmt::Display for MalformedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl MeasurementError {
    /// Short stable label used in tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            MeasurementError::Dns => "dns",
            MeasurementError::Tcp => "tcp",
            MeasurementError::Handshake => "handshake",
            MeasurementError::Truncated => "truncated",
            MeasurementError::DeviceCrash => "device-crash",
            MeasurementError::Deadline => "deadline",
            MeasurementError::WorkerPanic => "worker-panic",
            MeasurementError::MalformedInput { layer, .. } => layer.malformed_label(),
        }
    }

    /// The scalar (field-free) variants, in display order — the degraded
    /// summary iterates these; `MalformedInput` is broken out per layer in
    /// the resilience table instead.
    pub const ALL: [MeasurementError; 7] = [
        MeasurementError::Dns,
        MeasurementError::Tcp,
        MeasurementError::Handshake,
        MeasurementError::Truncated,
        MeasurementError::DeviceCrash,
        MeasurementError::Deadline,
        MeasurementError::WorkerPanic,
    ];

    /// The layer/reason pair when this error is a malformed-input
    /// rejection.
    pub fn malformed_parts(self) -> Option<(InputLayer, MalformedKind)> {
        match self {
            MeasurementError::MalformedInput { layer, reason } => Some((layer, reason)),
            _ => None,
        }
    }
}

impl std::fmt::Display for MeasurementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-fault-class probabilities, each in `[0, 1]`, applied independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a connection attempt fails name resolution.
    pub dns_failure: f64,
    /// Probability a connection attempt is reset mid-session.
    pub tcp_reset: f64,
    /// Probability a handshake hangs until timeout.
    pub handshake_timeout: f64,
    /// Probability an established connection truncates mid-stream.
    pub truncation: f64,
    /// Probability the proxy CA is unavailable for an entire MITM run.
    pub proxy_ca_unavailable: f64,
    /// Probability the device crashes partway through a run.
    pub device_crash: f64,
}

impl FaultConfig {
    /// No faults at all (the pre-chaos behavior).
    pub fn none() -> Self {
        FaultConfig {
            dns_failure: 0.0,
            tcp_reset: 0.0,
            handshake_timeout: 0.0,
            truncation: 0.0,
            proxy_ca_unavailable: 0.0,
            device_crash: 0.0,
        }
    }

    /// Every per-connection fault class at probability `p`; run-level
    /// faults (proxy CA, crash) at `p / 4` so whole runs still mostly
    /// survive.
    pub fn uniform(p: f64) -> Self {
        FaultConfig {
            dns_failure: p,
            tcp_reset: p,
            handshake_timeout: p,
            truncation: p,
            proxy_ca_unavailable: p / 4.0,
            device_crash: p / 4.0,
        }
    }

    /// An aggressive schedule for chaos testing.
    pub fn chaos() -> Self {
        FaultConfig {
            dns_failure: 0.25,
            tcp_reset: 0.25,
            handshake_timeout: 0.2,
            truncation: 0.2,
            proxy_ca_unavailable: 0.15,
            device_crash: 0.1,
        }
    }

    /// True when every probability is zero: the plan will never fire.
    pub fn is_quiet(&self) -> bool {
        self.dns_failure == 0.0
            && self.tcp_reset == 0.0
            && self.handshake_timeout == 0.0
            && self.truncation == 0.0
            && self.proxy_ca_unavailable == 0.0
            && self.device_crash == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A run-level abort: the whole capture is lost, not just one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunAbort {
    /// The device crashed `at_secs` into the capture window.
    DeviceCrash {
        /// Seconds into the window at which the crash happened.
        at_secs: u32,
    },
    /// The proxy CA was unavailable; an MITM run yields nothing usable.
    ProxyCaUnavailable,
}

impl RunAbort {
    /// The measurement-level error a run abort surfaces as.
    pub fn as_error(self) -> MeasurementError {
        match self {
            RunAbort::DeviceCrash { .. } => MeasurementError::DeviceCrash,
            RunAbort::ProxyCaUnavailable => MeasurementError::Handshake,
        }
    }
}

/// A seeded fault schedule.
///
/// The plan owns a domain-separated RNG root; every query re-derives from
/// it, so queries are pure functions of `(seed, config, run_key, …)` and
/// the plan can be shared immutably across device threads.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    root: SplitMix64,
    config: FaultConfig,
}

impl FaultPlan {
    /// A plan drawing from `seed` with the given per-class rates.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan {
            root: SplitMix64::new(seed).derive("faults"),
            config,
        }
    }

    /// A plan that never injects anything.
    pub fn disabled() -> Self {
        FaultPlan::new(0, FaultConfig::none())
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when this plan can never fire.
    pub fn is_quiet(&self) -> bool {
        self.config.is_quiet()
    }

    /// Whether the run identified by `run_key` aborts wholesale.
    ///
    /// A device crash is drawn first (it can hit any run); the proxy-CA
    /// fault only applies to MITM runs. `window_secs` bounds the crash
    /// offset.
    pub fn run_abort(&self, run_key: &str, mitm: bool, window_secs: u32) -> Option<RunAbort> {
        if self.is_quiet() {
            return None;
        }
        let mut rng = self.root.clone().derive(run_key).derive("abort");
        if rng.chance(self.config.device_crash) {
            let at_secs = rng.next_below(window_secs.max(1) as u64) as u32;
            return Some(RunAbort::DeviceCrash { at_secs });
        }
        if mitm && rng.chance(self.config.proxy_ca_unavailable) {
            return Some(RunAbort::ProxyCaUnavailable);
        }
        None
    }

    /// The fault (if any) hitting one connection attempt.
    ///
    /// Keyed by `(run_key, domain, attempt)`: the same attempt always
    /// faults the same way, while a retry gets an independent draw. Coins
    /// are flipped in a fixed order (DNS → reset → handshake → truncation)
    /// and the first hit wins.
    pub fn connection_fault(&self, run_key: &str, domain: &str, attempt: u32) -> Option<FaultKind> {
        if self.is_quiet() {
            return None;
        }
        let mut rng = self
            .root
            .clone()
            .derive(run_key)
            .derive(&format!("conn/{domain}/{attempt}"));
        if rng.chance(self.config.dns_failure) {
            return Some(FaultKind::Dns);
        }
        if rng.chance(self.config.tcp_reset) {
            return Some(FaultKind::TcpReset);
        }
        if rng.chance(self.config.handshake_timeout) {
            return Some(FaultKind::HandshakeTimeout);
        }
        if rng.chance(self.config.truncation) {
            return Some(FaultKind::Truncation);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::new(0xFA11, FaultConfig::chaos());
        let b = FaultPlan::new(0xFA11, FaultConfig::chaos());
        for run in ["baseline", "mitm", "mitm+frida"] {
            assert_eq!(a.run_abort(run, true, 30), b.run_abort(run, true, 30));
            for domain in ["api.example", "cdn.example", "t.example"] {
                for attempt in 0..4 {
                    assert_eq!(
                        a.connection_fault(run, domain, attempt),
                        b.connection_fault(run, domain, attempt),
                        "{run}/{domain}/{attempt}"
                    );
                }
            }
        }
    }

    #[test]
    fn decisions_are_order_independent() {
        let plan = FaultPlan::new(7, FaultConfig::chaos());
        let first = plan.connection_fault("baseline", "a.example", 0);
        // Interleave unrelated queries; the original draw must not move.
        let _ = plan.connection_fault("mitm", "b.example", 2);
        let _ = plan.run_abort("mitm", true, 30);
        assert_eq!(plan.connection_fault("baseline", "a.example", 0), first);
    }

    #[test]
    fn quiet_plan_never_fires() {
        let plan = FaultPlan::disabled();
        assert!(plan.is_quiet());
        for i in 0..200 {
            let key = format!("run{i}");
            assert_eq!(plan.run_abort(&key, true, 30), None);
            assert_eq!(plan.connection_fault(&key, "x.example", 0), None);
        }
    }

    #[test]
    fn retries_get_fresh_draws() {
        // With a high per-connection rate, at least one (domain, attempt)
        // pair must differ from attempt 0 — retries are not frozen.
        let plan = FaultPlan::new(42, FaultConfig::uniform(0.5));
        let differs = (0..50).any(|i| {
            let d = format!("host{i}.example");
            plan.connection_fault("baseline", &d, 0) != plan.connection_fault("baseline", &d, 1)
        });
        assert!(differs, "attempt number must influence the draw");
    }

    #[test]
    fn rates_scale_fault_frequency() {
        let low = FaultPlan::new(1, FaultConfig::uniform(0.01));
        let high = FaultPlan::new(1, FaultConfig::uniform(0.4));
        let count = |plan: &FaultPlan| {
            (0..500)
                .filter(|i| {
                    plan.connection_fault("baseline", &format!("h{i}.example"), 0)
                        .is_some()
                })
                .count()
        };
        let (lo, hi) = (count(&low), count(&high));
        assert!(lo < hi, "low-rate plan fired {lo} >= high-rate {hi}");
        assert!(hi > 100, "high-rate plan barely fired: {hi}");
    }

    #[test]
    fn crash_offset_respects_window() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                device_crash: 1.0,
                ..FaultConfig::none()
            },
        );
        for i in 0..100 {
            match plan.run_abort(&format!("r{i}"), false, 30) {
                Some(RunAbort::DeviceCrash { at_secs }) => assert!(at_secs < 30),
                other => panic!("crash rate 1.0 must always crash, got {other:?}"),
            }
        }
    }

    #[test]
    fn proxy_ca_fault_only_hits_mitm_runs() {
        let plan = FaultPlan::new(
            9,
            FaultConfig {
                proxy_ca_unavailable: 1.0,
                ..FaultConfig::none()
            },
        );
        assert_eq!(plan.run_abort("r", false, 30), None);
        assert_eq!(
            plan.run_abort("r", true, 30),
            Some(RunAbort::ProxyCaUnavailable)
        );
    }

    #[test]
    fn malformed_labels_are_distinct_and_stable() {
        let mut labels: Vec<&str> = MeasurementError::ALL.iter().map(|e| e.label()).collect();
        for layer in InputLayer::ALL {
            labels.push(layer.malformed_label());
        }
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels must be unique");
        let e = MeasurementError::MalformedInput {
            layer: InputLayer::Chain,
            reason: MalformedKind::LimitExceeded,
        };
        assert_eq!(e.label(), "malformed-chain");
        assert_eq!(
            e.malformed_parts(),
            Some((InputLayer::Chain, MalformedKind::LimitExceeded))
        );
        assert_eq!(MeasurementError::Dns.malformed_parts(), None);
    }

    #[test]
    fn decode_errors_classify_into_malformed_kinds() {
        use pinning_pki::error::DecodeError as E;
        assert_eq!(
            MalformedKind::from_decode_error(&E::Truncated),
            MalformedKind::Truncated
        );
        assert_eq!(
            MalformedKind::from_decode_error(&E::BadLength),
            MalformedKind::BadStructure
        );
        assert_eq!(
            MalformedKind::from_decode_error(&E::BadMagic),
            MalformedKind::BadEncoding
        );
        assert_eq!(
            MalformedKind::from_decode_error(&E::LimitExceeded(pinning_pki::limits::Limit::Depth)),
            MalformedKind::LimitExceeded
        );
    }

    #[test]
    fn every_fault_maps_into_the_error_taxonomy() {
        let kinds = [
            FaultKind::Dns,
            FaultKind::TcpReset,
            FaultKind::HandshakeTimeout,
            FaultKind::Truncation,
            FaultKind::ProxyCaUnavailable,
            FaultKind::DeviceCrash,
        ];
        for k in kinds {
            let e = k.as_error();
            assert!(
                MeasurementError::ALL.contains(&e),
                "{k} maps to unknown error {e}"
            );
        }
    }
}
