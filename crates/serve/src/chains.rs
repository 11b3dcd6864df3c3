//! The per-service decoded-chain table.
//!
//! A `ValidateChain` request carries its chain as DER, and a Zipf-shaped
//! trace names the same few hundred chains over and over: at the overload
//! bench's shape, about 17,000 validations per world name about 1,200
//! distinct chains that decode. Decoding each request afresh also throws
//! away the certificates' derived values, so every validation re-encoded
//! and re-hashed each certificate to build its memo key. The table maps a
//! request's exact chain DER bytes to the decoded certificates, so a
//! repeated chain reuses both the decode and the fingerprints cached on
//! its certificates.
//!
//! The table is owned by one [`crate::PinService`] and bounded by
//! [`DECODED_CHAIN_CAPACITY`]; it holds successful decodes only, so bytes
//! that fail to decode are never retained. It changes no answer and no
//! charge: the service bills decoding per certificate whether or not the
//! table had the chain.

use pinning_pki::error::DecodeError;
use pinning_pki::Certificate;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Most chains one service keeps decoded. At the overload bench's shape
/// 256 entries hold the chains that carry most of the traffic for about
/// 1 MiB; the oldest entry is evicted first.
pub(crate) const DECODED_CHAIN_CAPACITY: usize = 256;

/// Exact chain DER bytes, shared between the map and the eviction order.
type ChainKey = Arc<[Vec<u8>]>;

/// Bounded map from a chain's DER bytes to its decoded certificates.
#[derive(Debug, Default)]
pub(crate) struct DecodedChains {
    map: HashMap<ChainKey, Arc<[Certificate]>>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<ChainKey>,
}

impl DecodedChains {
    /// The decoded chain for `chain_der`, decoding it on a miss. A decode
    /// failure returns the first certificate's error, exactly as decoding
    /// in order would, and leaves the table unchanged.
    pub(crate) fn decode(
        &mut self,
        chain_der: &[Vec<u8>],
    ) -> Result<Arc<[Certificate]>, DecodeError> {
        if let Some(chain) = self.map.get(chain_der) {
            return Ok(Arc::clone(chain));
        }
        let chain: Arc<[Certificate]> = chain_der
            .iter()
            .map(|der| Certificate::from_der(der))
            .collect::<Result<_, _>>()?;
        if self.order.len() == DECODED_CHAIN_CAPACITY {
            let oldest = self.order.pop_front().expect("capacity is nonzero");
            self.map.remove(&oldest);
        }
        let key: ChainKey = chain_der.into();
        self.order.push_back(Arc::clone(&key));
        self.map.insert(key, Arc::clone(&chain));
        Ok(chain)
    }

    /// Number of chains held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the decoded form of `chain_der` is held.
    #[cfg(test)]
    pub(crate) fn contains(&self, chain_der: &[Vec<u8>]) -> bool {
        self.map.contains_key(chain_der)
    }
}
