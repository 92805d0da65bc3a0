//! The two primitives every hand-rolled JSON writer in the workspace shares
//! (the build is registry-free: no serde). Every string and every `f64`
//! that reaches an artifact — Chrome traces, `steps.jsonl`, graph-trace and
//! region reports, `exastro.event.v1` lines, the service report, the
//! `BENCH_*.json` files — goes through these, so "is it JSON" has one
//! answer.

/// `s` with `"`, `\` and control characters escaped, ready to sit between
/// double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `v` as a JSON value: its shortest round-trip decimal, or `null` when it
/// is NaN or infinite (JSON has no token for those). An absent optional
/// number is `num(v.unwrap_or(f64::NAN))`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // Rust's `Display` never prints a leading dot or a bare exponent,
        // so it is already a valid JSON number.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls_only() {
        assert_eq!(escape("plain/path[0]"), "plain/path[0]");
        assert_eq!(escape("a \"q\"\\\n\t"), "a \\\"q\\\"\\\\\\u000a\\u0009");
        assert_eq!(escape("π 𝄞"), "π 𝄞");
    }

    #[test]
    fn non_finite_numbers_are_null() {
        assert_eq!(num(2.25), "2.25");
        assert_eq!(num(3.0), "3");
        assert_eq!(num(-0.1), "-0.1");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(v), "null");
        }
    }
}
