//! Per-app content fingerprints: the dirty-tracking key of the
//! incremental re-study engine.
//!
//! Modeled on cargo's fingerprint module: each app's fingerprint digests
//! everything that can change its measured verdict — the package bytes,
//! the ground-truth pin rules and planned behaviour, and the *served
//! state* of every destination the measurement can observe (chain,
//! validity at the current simulation time, revocation, platform root
//! trust, TLS posture). Epoch N+1 re-measures an app iff its fingerprint
//! differs from epoch N's; everything else replays its journaled verdict.
//!
//! Two deliberate choices keep the fingerprint *minimal but sound*:
//!
//! - Set-like fields (SDK names, domain lists) are hashed in sorted
//!   order, so field permutations and `HashMap` iteration order never
//!   flip a fingerprint (the proptests pin this down).
//! - Absolute time is hashed only through `validity.contains(now)` bits,
//!   so a `TimeAdvance` epoch dirties exactly the apps whose destination
//!   certificates cross an expiry boundary — not the whole store.
//!
//! The digest input is a compact binary encoding: length-prefixed strings,
//! fieldless enums as their discriminant byte, integers as LEB128
//! varints. Planned connections are the bulk of the app side; their
//! encoder destructures the struct without `..`, so a new
//! `PlannedConnection` field fails to compile here until the fingerprint
//! covers it. Batches hash four apps per pass through [`sha256_many`].
//! Changing the encoding changes every fingerprint, which is sound: an
//! engine restored from state written by another encoding sees every app
//! as dirty once and re-measures it.

use pinning_app::app::MobileApp;
use pinning_app::behavior::PlannedConnection;
use pinning_app::platform::Platform;
use pinning_crypto::{sha256, sha256_many};
use pinning_netsim::network::Network;
use pinning_pki::store::RootStore;
use pinning_pki::time::SimTime;
use pinning_store::world::World;
use std::collections::BTreeSet;

/// Destinations whose served state can influence this app's measurement:
/// planned connections, iOS associated domains, and (on iOS) the OS
/// background domains the device contacts during capture.
pub fn relevant_destinations(app: &MobileApp) -> BTreeSet<String> {
    destinations(app).map(str::to_string).collect()
}

/// The destinations of [`relevant_destinations`], unsorted and possibly
/// repeated, without allocating: for membership and `any` scans.
pub(crate) fn destinations(app: &MobileApp) -> impl Iterator<Item = &str> {
    let background: &[&str] = match app.id.platform {
        Platform::Ios => &pinning_netsim::APPLE_BACKGROUND_DOMAINS,
        Platform::Android => &[],
    };
    app.behavior
        .connections
        .iter()
        .map(|c| c.domain.as_str())
        .chain(app.associated_domains.iter().map(String::as_str))
        .chain(background.iter().copied())
}

fn sorted(xs: &[String]) -> Vec<&str> {
    let mut v: Vec<&str> = xs.iter().map(|s| s.as_str()).collect();
    v.sort_unstable();
    v
}

/// Content fingerprint of one app at the world's current state.
pub fn app_fingerprint(world: &World, app_index: usize) -> [u8; 32] {
    app_fingerprint_in(
        &world.apps[app_index],
        &world.network,
        &world.universe.aosp_oem,
        &world.universe.ios,
        world.now,
    )
}

/// Fingerprints of the apps at `indices`, in the order given. Equal to
/// calling [`app_fingerprint`] on each, but hashed four apps at a time.
pub(crate) fn fingerprints_of(world: &World, indices: &[usize]) -> Vec<[u8; 32]> {
    let inputs: Vec<Vec<u8>> = indices
        .iter()
        .map(|&i| {
            let mut buf = Vec::new();
            encode_app(
                &mut buf,
                &world.apps[i],
                &world.network,
                &world.universe.aosp_oem,
                &world.universe.ios,
                world.now,
            );
            buf
        })
        .collect();
    sha256_many(inputs.iter().map(Vec::as_slice))
}

/// Content fingerprint of one app against an explicit served state.
///
/// [`app_fingerprint`] delegates here with the materialized world's
/// network and root stores; the streaming engine calls this directly with
/// a *shard's* network, since a streamed study never materializes a
/// `World`. The digest is a pure function of the arguments, so a shard's
/// fingerprints match the monolithic world's whenever the shard serves
/// the same state (the shard determinism contract).
pub fn app_fingerprint_in(
    app: &MobileApp,
    network: &Network,
    android_store: &RootStore,
    ios_store: &RootStore,
    now: SimTime,
) -> [u8; 32] {
    let mut buf = Vec::new();
    encode_app(&mut buf, app, network, android_store, ios_store, now);
    sha256(&buf)
}

/// LEB128: seven bits per byte, high bit set on every byte but the last.
/// Lengths and counts are small, so most take one byte.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends the fingerprint input of one app: everything the digest
/// covers, in a fixed order.
fn encode_app(
    buf: &mut Vec<u8>,
    app: &MobileApp,
    network: &Network,
    android_store: &RootStore,
    ios_store: &RootStore,
    now: SimTime,
) {
    // --- App-side content: manifest, package, rules, behaviour. ---
    buf.push(match app.id.platform {
        Platform::Android => 0u8,
        Platform::Ios => 1u8,
    });
    buf.extend_from_slice(&app.package.content_hash());
    buf.push(app.uses_nsc as u8);
    for list in [
        &app.sdk_names,
        &app.first_party_domains,
        &app.associated_domains,
    ] {
        put_varint(buf, list.len() as u64);
        for item in sorted(list) {
            put_str(buf, item);
        }
    }
    // Pin rules and connections are order-significant (connections carry
    // index references into the rule list), so they encode in order.
    // Rules are few; their Debug encoding is deterministic and covers
    // every field.
    put_varint(buf, app.pin_rules.len() as u64);
    for rule in &app.pin_rules {
        put_str(buf, &rule.pattern);
        buf.extend_from_slice(&[rule.active_at_runtime as u8, rule.custom_pki as u8]);
        put_str(
            buf,
            &format!("{:?}|{:?}|{:?}", rule.target, rule.storage, rule.source),
        );
        put_str(buf, &format!("{:?}", rule.pins));
        put_varint(buf, rule.pinned_certs.len() as u64);
        for c in &rule.pinned_certs {
            buf.extend_from_slice(&c.fingerprint_sha256());
        }
    }
    put_varint(buf, app.behavior.connections.len() as u64);
    for conn in &app.behavior.connections {
        encode_connection(buf, conn);
    }

    // --- Destination-side state, in sorted (deterministic) order. ---
    let store = match app.id.platform {
        Platform::Android => android_store,
        Platform::Ios => ios_store,
    };
    let mut domains: Vec<&str> = destinations(app).collect();
    domains.sort_unstable();
    domains.dedup();
    for domain in domains {
        put_str(buf, domain);
        let Some(server) = network.resolve(domain) else {
            buf.push(0);
            continue;
        };
        buf.push(1);
        let certs = server.chain.certs();
        put_varint(buf, certs.len() as u64);
        for cert in certs {
            buf.extend_from_slice(&cert.fingerprint_sha256());
            buf.extend_from_slice(&[
                cert.tbs.validity.contains(now) as u8,
                network.crl.is_revoked(cert.tbs.serial) as u8,
            ]);
        }
        let trusted = certs.last().is_some_and(|top| store.contains(top));
        buf.push(trusted as u8);
        put_varint(buf, server.versions.len() as u64);
        buf.extend(server.versions.iter().map(|&v| v as u8));
        put_varint(buf, server.ciphers.len() as u64);
        buf.extend(server.ciphers.iter().map(|&c| c as u8));
        buf.extend_from_slice(&server.reliability.to_bits().to_le_bytes());
        put_varint(buf, server.response_bytes as u64);
    }
}

/// Appends one planned connection. The destructuring names every field,
/// so a field added to [`PlannedConnection`] must be added here too.
fn encode_connection(buf: &mut Vec<u8>, conn: &PlannedConnection) {
    let PlannedConnection {
        domain,
        at_secs,
        library,
        pin_rule,
        pii,
        extra_bytes,
        redundant,
        offers_weak_ciphers,
        requires_interaction,
        sends_sni,
    } = conn;
    put_str(buf, domain);
    put_varint(buf, u64::from(*at_secs));
    buf.push(*library as u8);
    put_varint(buf, pin_rule.map_or(0, |r| r as u64 + 1));
    put_varint(buf, pii.len() as u64);
    buf.extend(pii.iter().map(|&p| p as u8));
    put_varint(buf, *extra_bytes as u64);
    buf.extend_from_slice(&[
        *redundant as u8,
        *offers_weak_ciphers as u8,
        *requires_interaction as u8,
        *sends_sni as u8,
    ]);
}

/// Fingerprints of every app, in index order.
pub fn all_fingerprints(world: &World) -> Vec<[u8; 32]> {
    let indices: Vec<usize> = (0..world.apps.len()).collect();
    fingerprints_of(world, &indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinning_store::config::WorldConfig;

    #[test]
    fn fingerprint_is_deterministic_across_regeneration() {
        let a = World::generate(WorldConfig::tiny(0xE0));
        let b = World::generate(WorldConfig::tiny(0xE0));
        assert_eq!(all_fingerprints(&a), all_fingerprints(&b));
    }

    #[test]
    fn streamed_fingerprints_are_invariant_to_shard_size() {
        // The streaming engine fingerprints apps against their *shard's*
        // network. The shard determinism contract says a product's served
        // state does not depend on which shard materialized it — so the
        // same app must fingerprint identically at any shard size.
        use pinning_store::shard::StreamWorld;
        use std::collections::BTreeMap;

        let collect = |shard_size: usize| -> BTreeMap<String, [u8; 32]> {
            let world = StreamWorld::new(WorldConfig::tiny(0xE2), shard_size);
            let mut out = BTreeMap::new();
            for k in 0..world.n_shards() {
                let shard = world.generate_shard(k);
                for sa in &shard.apps {
                    let fp = app_fingerprint_in(
                        &sa.app,
                        &shard.network,
                        &world.universe().aosp_oem,
                        &world.universe().ios,
                        shard.now,
                    );
                    out.insert(sa.app.id.to_string(), fp);
                }
            }
            out
        };

        let small = collect(5);
        let large = collect(64);
        assert_eq!(small.len(), large.len());
        assert_eq!(small, large, "shard size changed a streamed fingerprint");
    }

    #[test]
    fn varints_are_leb128() {
        let enc = |v: u64| {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            buf
        };
        assert_eq!(enc(0), [0x00]);
        assert_eq!(enc(127), [0x7F]);
        assert_eq!(enc(128), [0x80, 0x01]);
        assert_eq!(enc(300), [0xAC, 0x02]);
        assert_eq!(enc(u64::MAX).len(), 10);
        assert_eq!(enc(u64::MAX)[9], 0x01);
    }

    #[test]
    fn batched_fingerprints_match_single_app_fingerprints() {
        let world = World::generate(WorldConfig::tiny(0xE3));
        let mut indices: Vec<usize> = (0..world.apps.len()).rev().step_by(2).collect();
        // Whole four-lane batches plus a remainder of three.
        indices.truncate(indices.len() / 4 * 4 - 1);
        assert!(indices.len() > 4);
        let batched = fingerprints_of(&world, &indices);
        for (&i, fp) in indices.iter().zip(&batched) {
            assert_eq!(*fp, app_fingerprint(&world, i), "app {i}");
        }
    }

    #[test]
    fn every_connection_field_moves_the_fingerprint() {
        use pinning_app::behavior::Interaction;
        use pinning_app::pii::PiiType;
        use pinning_tls::library::TlsLibrary;

        let world = World::generate(WorldConfig::tiny(0xE4));
        let victim = (0..world.apps.len())
            .find(|&i| !world.apps[i].behavior.connections.is_empty())
            .expect("tiny world has connecting apps");
        let before = app_fingerprint(&world, victim);
        type Edit = (&'static str, fn(&mut PlannedConnection));
        let edits: [Edit; 10] = [
            ("domain", |c| c.domain.push('x')),
            ("at_secs", |c| c.at_secs += 1),
            ("library", |c| {
                c.library = if c.library == TlsLibrary::CustomNative {
                    TlsLibrary::OkHttp
                } else {
                    TlsLibrary::CustomNative
                }
            }),
            ("pin_rule", |c| {
                c.pin_rule = Some(c.pin_rule.map_or(0, |r| r + 1))
            }),
            ("pii", |c| c.pii.push(PiiType::Imei)),
            ("extra_bytes", |c| c.extra_bytes += 1),
            ("redundant", |c| c.redundant = !c.redundant),
            ("offers_weak_ciphers", |c| {
                c.offers_weak_ciphers = !c.offers_weak_ciphers
            }),
            ("requires_interaction", |c| {
                c.requires_interaction = if c.requires_interaction == Interaction::Login {
                    Interaction::None
                } else {
                    Interaction::Login
                }
            }),
            ("sends_sni", |c| c.sends_sni = !c.sends_sni),
        ];
        for (field, edit) in edits {
            let mut world = World::generate(WorldConfig::tiny(0xE4));
            edit(&mut world.apps[victim].behavior.connections[0]);
            assert_ne!(
                app_fingerprint(&world, victim),
                before,
                "editing connection field `{field}` left the fingerprint unchanged"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_pin_rule_state() {
        let mut world = World::generate(WorldConfig::tiny(0xE1));
        let victim = (0..world.apps.len())
            .find(|&i| !world.apps[i].pin_rules.is_empty())
            .expect("tiny world has pinning apps");
        let before = app_fingerprint(&world, victim);
        world.apps[victim].pin_rules[0].active_at_runtime =
            !world.apps[victim].pin_rules[0].active_at_runtime;
        assert_ne!(before, app_fingerprint(&world, victim));
    }
}
