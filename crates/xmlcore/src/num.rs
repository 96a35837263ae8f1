//! Strict number decoding: one spelling per value.
//!
//! `str::parse` and `from_str_radix` both accept a leading `+`, and a hex
//! decoder that takes any width also takes an unpadded form, so a value
//! read through them has more than one spelling. Every decoder of the
//! numbers this workspace writes (CRC footers, snapshot names, character
//! references, token fields) goes through these helpers instead, which
//! accept only ASCII digits. `clippy.toml` disallows the integer
//! `from_str_radix` everywhere else.

/// `s` as a non-empty run of ASCII hex digits (either case), at most 16.
pub fn hex(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the one hex decode: `s` is checked to be bare ASCII hex digits above"
    )]
    u64::from_str_radix(s, 16).ok()
}

/// `s` as exactly `width` ASCII hex digits: the fixed-width form a
/// `{:0width$x}` writer emits, and no other.
pub fn hex_fixed(s: &str, width: usize) -> Option<u64> {
    if s.len() == width {
        hex(s)
    } else {
        None
    }
}

/// `s` as a non-empty run of ASCII decimal digits that fits a `u64`.
pub fn dec(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_takes_bare_digits_only() {
        assert_eq!(hex("ff"), Some(255));
        assert_eq!(hex("00FF"), Some(255));
        assert_eq!(hex("ffffffffffffffff"), Some(u64::MAX));
        for bad in ["", "+ff", "-1", " ff", "ff ", "0x10", "g", "10000000000000000"] {
            assert_eq!(hex(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn hex_fixed_takes_one_width() {
        assert_eq!(hex_fixed("01234abc", 8), Some(0x1234abc));
        assert_eq!(hex_fixed("1234abc", 8), None);
        assert_eq!(hex_fixed("+1234abc", 8), None);
        assert_eq!(hex_fixed("001234abc", 8), None);
    }

    #[test]
    fn dec_takes_bare_digits_only() {
        assert_eq!(dec("0"), Some(0));
        assert_eq!(dec("18446744073709551615"), Some(u64::MAX));
        for bad in ["", "+1", "-1", "1 ", "1e3", "18446744073709551616"] {
            assert_eq!(dec(bad), None, "{bad:?}");
        }
    }
}
