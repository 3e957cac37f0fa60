//! Content-address hashing shared across the workspace.
//!
//! The engine's result cache keys on a 64-bit FNV-1a digest of the
//! scenario id and the canonical parameter fingerprint, its disk tier
//! checksums entry bodies with it, and the campaign derives window keys
//! and class seeds from it; the implementation lives here so they all
//! agree on the hash. The stray-field kernel table and the ensemble
//! memo key on their exact inputs instead ([`crate::memo`]).

/// 64-bit FNV-1a over a byte string.
///
/// # Examples
///
/// ```
/// use mramsim_numerics::hash::fnv1a;
///
/// assert_ne!(fnv1a(b"fig4b"), fnv1a(b"fig4a"));
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A small streaming wrapper over [`fnv1a`] for composite keys: feed
/// fields one by one, each terminated by a `0` separator so adjacent
/// fields cannot alias (`("ab", "c")` vs `("a", "bc")`).
///
/// # Examples
///
/// ```
/// use mramsim_numerics::hash::Fnv1a;
///
/// let mut a = Fnv1a::new();
/// a.field(b"ab");
/// a.field(b"c");
/// let mut b = Fnv1a::new();
/// b.field(b"a");
/// b.field(b"bc");
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A fresh hasher in the FNV offset-basis state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorbs raw bytes without a terminator.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorbs one delimited field.
    pub fn field(&mut self, bytes: &[u8]) {
        self.update(bytes);
        self.update(&[0]);
    }

    /// Absorbs an `f64` bit-exactly (distinct bit patterns hash
    /// distinctly, so `0.1 + 0.2` and `0.3` are different keys).
    pub fn f64(&mut self, x: f64) {
        self.field(&x.to_bits().to_le_bytes());
    }

    /// The digest of everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a 64-bit content address as the canonical fixed-width
/// lower-case hex form shared by the on-disk cache filenames and the
/// sweep journals (16 characters, zero-padded).
///
/// # Examples
///
/// ```
/// use mramsim_numerics::hash::{key_hex, parse_key_hex};
///
/// assert_eq!(key_hex(0xcbf2_9ce4_8422_2325), "cbf29ce484222325");
/// assert_eq!(parse_key_hex("000000000000002a"), Some(42));
/// assert_eq!(parse_key_hex("not-a-key"), None);
/// ```
#[must_use]
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// Parses the canonical 16-character hex form back into a key.
///
/// Returns `None` for anything that is not exactly the [`key_hex`]
/// rendering (wrong width, upper case, stray characters), so corrupted
/// journal lines and foreign files in a cache directory are rejected
/// instead of aliasing onto a valid address.
#[must_use]
pub fn parse_key_hex(text: &str) -> Option<u64> {
    if text.len() != 16
        || !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"hello world");
        assert_eq!(h.finish(), fnv1a(b"hello world"));
    }

    #[test]
    fn f64_is_bit_exact() {
        let mut a = Fnv1a::new();
        a.f64(0.1 + 0.2);
        let mut b = Fnv1a::new();
        b.f64(0.3);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        c.f64(0.3);
        assert_eq!(b.finish(), c.finish());
    }

    #[test]
    fn key_hex_round_trips_and_rejects_noise() {
        for key in [0u64, 1, 42, u64::MAX, fnv1a(b"fig4b")] {
            assert_eq!(parse_key_hex(&key_hex(key)), Some(key));
        }
        for bad in [
            "",
            "2a",
            "000000000000002A",
            "g000000000000000",
            "0000000000000042x",
        ] {
            assert_eq!(parse_key_hex(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn distinct_field_splits_hash_distinctly() {
        let mut a = Fnv1a::new();
        a.field(b"loop");
        a.field(b"90");
        let mut b = Fnv1a::new();
        b.field(b"loop9");
        b.field(b"0");
        assert_ne!(a.finish(), b.finish());
    }
}
