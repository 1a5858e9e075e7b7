//! The line-view adapter over the lexer.
//!
//! v1 of the engine was a line analyzer: it blanked comment prose and
//! literal contents so rules could use plain substring matching. v2
//! replaces the scanner with the full lexer ([`crate::lexer`]) but
//! keeps this module's [`LineInfo`] surface: the line-oriented rule
//! families still consume blanked per-line code, now derived from the
//! same single lex pass that feeds the item index and call graph. The
//! blanking semantics are unchanged, which is what kept the golden
//! diagnostics byte-identical across the rewrite.

use crate::lexer::{self, LexedFile};

pub use crate::lexer::is_ident_char;

/// One analyzed source line.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// The line with comments and literal contents blanked (same length
    /// in characters as the original, so column arithmetic holds).
    pub code: String,
    /// Rule ids named by `// lint:allow(...)` annotations on this line.
    pub allows: Vec<String>,
    /// Whether the line sits at or after the file's `#[cfg(test)]`
    /// marker (this workspace keeps test modules at end of file).
    pub in_test: bool,
}

impl LineInfo {
    /// Whether `rule` is allowed on this line.
    pub fn allows(&self, rule: &str) -> bool {
        self.allows.iter().any(|a| a == rule)
    }
}

/// The per-line view of an already-lexed file.
pub fn line_infos(lexed: &LexedFile) -> Vec<LineInfo> {
    lexed
        .lines
        .iter()
        .map(|l| LineInfo {
            code: l.code.clone(),
            allows: l.allows.clone(),
            in_test: l.in_test,
        })
        .collect()
}

/// Analyzes a whole source text into per-line code/metadata
/// (convenience wrapper: lex + [`line_infos`]).
pub fn analyze(text: &str) -> Vec<LineInfo> {
    line_infos(&lexer::lex(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let lines = analyze("let x = \".unwrap()\"; // .expect( here\nx.unwrap();");
        assert!(!lines[0].code.contains(".unwrap()"));
        assert!(!lines[0].code.contains(".expect("));
        assert!(lines[1].code.contains(".unwrap()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let text = "/* outer /* inner */ still comment .unwrap() */ code();\n/* open\n.unwrap()\n*/ after();";
        let lines = analyze(text);
        assert!(lines[0].code.contains("code()"));
        assert!(!lines[0].code.contains(".unwrap()"));
        assert!(!lines[2].code.contains(".unwrap()"));
        assert!(lines[3].code.contains("after()"));
    }

    #[test]
    fn raw_strings_span_lines() {
        let text = "let s = r#\"first .unwrap()\nsecond .expect(\"#; tail();";
        let lines = analyze(text);
        assert!(!lines[0].code.contains(".unwrap()"));
        assert!(!lines[1].code.contains(".expect("));
        assert!(lines[1].code.contains("tail()"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let lines = analyze("fn f<'a>(x: &'a str) { x.unwrap(); }");
        assert!(lines[0].code.contains(".unwrap()"));
    }

    #[test]
    fn char_literals_are_blanked() {
        let lines = analyze("let c = '\"'; still_code();");
        assert!(lines[0].code.contains("still_code()"));
        let lines = analyze("let c = '\\''; code();");
        assert!(lines[0].code.contains("code()"));
    }

    #[test]
    fn allow_annotations_are_harvested() {
        let lines = analyze("x.unwrap(); // lint:allow(rng-taint, hash-iteration)");
        assert!(lines[0].allows("rng-taint"));
        assert!(lines[0].allows("hash-iteration"));
        assert!(!lines[0].allows("panic-reachability"));
    }

    #[test]
    fn cfg_test_marks_the_tail_of_the_file() {
        let lines = analyze("fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test);
        assert!(lines[2].in_test);
    }

    #[test]
    fn cfg_test_inside_a_string_is_ignored() {
        let lines = analyze("let s = \"#[cfg(test)]\";\nlater();");
        assert!(!lines[1].in_test);
    }

    #[test]
    fn blanked_lines_keep_character_length() {
        let text = "let s = \"abc\"; // tail\nlet r = r#\"x\"#;\n";
        for (orig, info) in text.lines().zip(analyze(text)) {
            assert_eq!(orig.chars().count(), info.code.chars().count());
        }
    }
}
