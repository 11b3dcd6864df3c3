//! The hostname→server directory.

use crate::server::OriginServer;
use pinning_pki::validate::RevocationList;
use std::borrow::Cow;
use std::collections::HashMap;

/// The directory key of `hostname`: its ASCII lowercase form, borrowed
/// when the name is already lowercase (the common case) so a lookup
/// allocates nothing.
fn host_key(hostname: &str) -> Cow<'_, str> {
    if hostname.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(hostname.to_ascii_lowercase())
    } else {
        Cow::Borrowed(hostname)
    }
}

/// The simulated internet: every reachable origin server, keyed by
/// hostname, plus global revocation state.
#[derive(Debug, Default)]
pub struct Network {
    servers: Vec<OriginServer>,
    by_host: HashMap<String, usize>,
    /// Revoked certificate serials (checked by clients that enable
    /// revocation).
    pub crl: RevocationList,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a server for all its hostnames. Later registrations do not
    /// displace earlier ones (first writer wins, like first-come DNS).
    pub fn register(&mut self, server: OriginServer) -> usize {
        let idx = self.servers.len();
        for host in &server.hostnames {
            self.by_host.entry(host.to_ascii_lowercase()).or_insert(idx);
        }
        self.servers.push(server);
        idx
    }

    /// Resolves a hostname.
    pub fn resolve(&self, hostname: &str) -> Option<&OriginServer> {
        self.by_host
            .get(host_key(hostname).as_ref())
            .map(|&i| &self.servers[i])
    }

    /// Resolves a hostname to a mutable origin server — used by epoch
    /// evolution to swap a server's chain on reissue. Hostname claims stay
    /// fixed; only served state may change.
    pub fn resolve_mut(&mut self, hostname: &str) -> Option<&mut OriginServer> {
        let &i = self.by_host.get(host_key(hostname).as_ref())?;
        Some(&mut self.servers[i])
    }

    /// Whether a hostname resolves.
    pub fn has_host(&self, hostname: &str) -> bool {
        self.by_host.contains_key(host_key(hostname).as_ref())
    }

    /// All registered servers.
    pub fn servers(&self) -> &[OriginServer] {
        &self.servers
    }

    /// Mutable access to all registered servers (hostname claims are fixed
    /// at registration; this exists for post-generation passes over served
    /// chains, e.g. certificate interning).
    pub fn servers_mut(&mut self) -> &mut [OriginServer] {
        &mut self.servers
    }

    /// Number of distinct hostnames.
    pub fn n_hostnames(&self) -> usize {
        self.by_host.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_crypto::sig::KeyPair;
    use pinning_crypto::SplitMix64;
    use pinning_pki::universe::{PkiUniverse, UniverseConfig};

    fn server(u: &mut PkiUniverse, rng: &mut SplitMix64, host: &str) -> OriginServer {
        let key = KeyPair::generate(rng);
        let chain = u.issue_server_chain(&[host.to_string()], "Org", &key, 398, rng);
        OriginServer::modern(vec![host.to_string()], "Org".into(), chain)
    }

    #[test]
    fn register_and_resolve() {
        let mut rng = SplitMix64::new(2);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut net = Network::new();
        net.register(server(&mut u, &mut rng, "a.com"));
        assert!(net.has_host("a.com"));
        assert!(net.has_host("A.COM"), "case-insensitive");
        assert!(!net.has_host("b.com"));
        assert_eq!(net.resolve("a.com").unwrap().hostnames[0], "a.com");
    }

    #[test]
    fn first_registration_wins() {
        let mut rng = SplitMix64::new(3);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let mut net = Network::new();
        let mut s1 = server(&mut u, &mut rng, "x.com");
        s1.response_bytes = 111;
        let mut s2 = server(&mut u, &mut rng, "x.com");
        s2.response_bytes = 222;
        net.register(s1);
        net.register(s2);
        assert_eq!(net.resolve("x.com").unwrap().response_bytes, 111);
    }

    #[test]
    fn multi_host_server() {
        let mut rng = SplitMix64::new(4);
        let mut u = PkiUniverse::generate(&UniverseConfig::tiny(), &mut rng);
        let key = KeyPair::generate(&mut rng);
        let hosts = vec!["api.y.com".to_string(), "cdn.y.com".to_string()];
        let chain = u.issue_server_chain(&hosts, "Y", &key, 398, &mut rng);
        let mut net = Network::new();
        net.register(OriginServer::modern(hosts, "Y".into(), chain));
        assert!(net.has_host("api.y.com"));
        assert!(net.has_host("cdn.y.com"));
        assert_eq!(net.n_hostnames(), 2);
        assert_eq!(net.servers().len(), 1);
    }
}
