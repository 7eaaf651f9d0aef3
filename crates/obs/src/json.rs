//! Minimal JSON rendering helpers shared by snapshots, events, and
//! manifests. Writing only — the workspace's one JSON *parser* lives in
//! `linkpad_bench::json`, at the other end of the pipe.

/// Escape a string for use inside a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number. Non-finite values (which JSON
/// cannot represent) render as `null` rather than producing an
/// unparseable document.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-round-trip float formatting; always contains
        // a '.' or exponent? No — integers print bare ("3"), which is
        // still a valid JSON number.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn num_renders_null_for_non_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
