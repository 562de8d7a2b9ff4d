//! JSON string escaping for the hand-rendered reports (metrics
//! snapshots, checker verdicts).

/// Escapes `s` for use between the quotes of a JSON string: `"` and
/// `\` get a backslash, control characters become `\u00XX`.
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

#[cfg(test)]
mod tests {
    use super::escape;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("plain.name_1"), "plain.name_1");
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(
            escape("line\nbreak\ttab\u{1}"),
            "line\\u000abreak\\u0009tab\\u0001"
        );
        assert_eq!(escape("ünïcode ✓"), "ünïcode ✓");
    }
}
