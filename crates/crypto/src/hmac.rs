//! HMAC (RFC 2104) over the crate's SHA-256.
//!
//! HMAC backs the simulated signature scheme in [`crate::sig`]; it is also
//! exposed directly because the TLS simulator derives its per-connection
//! "encryption" keystream identifiers from HMAC outputs.

use crate::sha256::Sha256;

const BLOCK_LEN: usize = 64; // SHA-256's block size

fn normalize_key_sha256(key: &[u8]) -> [u8; BLOCK_LEN] {
    let mut k = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let d = crate::sha256::sha256(key);
        k[..32].copy_from_slice(&d);
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    k
}

/// HMAC-SHA-256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let k = normalize_key_sha256(key);
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex::hex_encode;

    // RFC 4231 test vectors for HMAC-SHA-256.

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex_encode(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2_jefe() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_encode(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_ff_bytes() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let out = hmac_sha256(&key, &msg);
        assert_eq!(
            hex_encode(&out),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex_encode(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
