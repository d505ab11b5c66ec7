//! Internal helpers for the compact 32-bit id layout of the determinization
//! layer: checked narrowing and the order-independent subset fingerprint.

/// Narrows a count or index that is bounded by the 32-bit id range by
/// construction (state counts are checked at process ingestion; arena sizes
/// cannot reach `u32::MAX` before memory runs out).
///
/// # Panics
///
/// Panics if the value does not fit — a bug guard, not an expected path.
pub(crate) fn narrow(value: usize) -> u32 {
    u32::try_from(value).expect("value exceeds the compact 32-bit id range")
}

/// SplitMix64's finalizer — a cheap, well-distributed 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-independent fingerprint of a subset: the XOR of each member's
/// SplitMix64 image.  Because XOR commutes, the fingerprint depends only on
/// the member *set*; the empty subset fingerprints to `0`.  XOR is also
/// linear over GF(2), so distinct sets can collide — the arena's intern
/// compares members and spills collisions.
pub(crate) fn subset_fingerprint(members: &[u32]) -> u64 {
    members
        .iter()
        .fold(0u64, |h, &m| h ^ splitmix64(u64::from(m)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_order_independent() {
        assert_eq!(
            subset_fingerprint(&[3, 1, 4, 1]),
            subset_fingerprint(&[1, 1, 3, 4])
        );
        assert_eq!(subset_fingerprint(&[]), 0);
        assert_ne!(subset_fingerprint(&[0]), subset_fingerprint(&[1]));
    }

    #[test]
    fn narrow_round_trips_small_values() {
        assert_eq!(narrow(0), 0);
        assert_eq!(narrow(123_456), 123_456);
    }
}
