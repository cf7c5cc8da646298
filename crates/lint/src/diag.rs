//! Structured diagnostics: severity levels, one diagnostic per finding,
//! and a [`Report`] that renders human-readable text or machine-readable
//! JSON (hand-rolled — the workspace builds offline with no serde).

use crate::code::LintCode;
use msc_trace::json::quoted;

/// Diagnostic severity, rustc-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suppressed (reserved for future per-program lint config).
    Allow,
    /// Reported on stderr; does not fail the build.
    Warn,
    /// Refuses codegen and execution.
    Deny,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: LintCode,
    pub severity: Severity,
    /// What is wrong, with the inferred and declared quantities.
    pub message: String,
    /// Where in the program (`grid \`B\``, `kernel \`S\` schedule`, ...).
    pub context: String,
    /// How to fix it (empty when there is no one-line fix).
    pub help: String,
}

impl Diagnostic {
    pub fn new(code: LintCode, message: String, context: String, help: String) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message,
            context,
            help,
        }
    }

    fn render(&self) -> String {
        let mut s = format!(
            "{} [{}] {}: {}",
            self.code.as_str(),
            self.severity.as_str(),
            self.context,
            self.message
        );
        if !self.help.is_empty() {
            s.push_str(&format!("\n    help: {}", self.help));
        }
        s
    }

    /// One finding as a standalone JSON object — the same shape the
    /// report embeds, reusable by services that ship diagnostics over
    /// the wire one at a time.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":{},\"severity\":{},\"family\":{},\"message\":{},\"context\":{},\"help\":{}}}",
            quoted(self.code.as_str()),
            quoted(self.severity.as_str()),
            quoted(self.code.family()),
            quoted(&self.message),
            quoted(&self.context),
            quoted(&self.help),
        )
    }
}

/// All diagnostics from one lint run over one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Program name the run analyzed.
    pub program: String,
    diags: Vec<Diagnostic>,
}

impl Report {
    pub fn new(program: &str) -> Report {
        Report {
            program: program.to_string(),
            diags: Vec::new(),
        }
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    pub fn has_deny(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Deny)
    }

    pub fn deny_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Deny).count()
    }

    pub fn warn_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// No findings at all (not even warnings).
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True if `code` appears at any severity.
    pub fn has_code(&self, code: LintCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Human-readable multi-line rendering (empty string when clean).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render());
            out.push('\n');
        }
        if !self.diags.is_empty() {
            out.push_str(&format!(
                "lint: {} deny, {} warn in `{}`\n",
                self.deny_count(),
                self.warn_count(),
                self.program
            ));
        }
        out
    }

    /// Render only the deny-level findings (for error messages).
    pub fn render_denies(&self) -> String {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Machine-readable JSON for `mscc check --json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"tool\":\"msc-lint\",\"program\":{}", quoted(&self.program)));
        s.push_str(",\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json());
        }
        s.push_str(&format!(
            "],\"deny_count\":{},\"warn_count\":{}}}",
            self.deny_count(),
            self.warn_count()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("p");
        r.push(Diagnostic::new(
            LintCode::HaloTooNarrow,
            "halo 1 but reach 2".into(),
            "grid `B`".into(),
            "widen the halo to 2".into(),
        ));
        r.push(Diagnostic::new(
            LintCode::DmaRowTooShort,
            "rows are 32 B".into(),
            "kernel `S` schedule".into(),
            String::new(),
        ));
        r
    }

    #[test]
    fn counts_and_flags() {
        let r = sample();
        assert!(r.has_deny());
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        assert!(r.has_code(LintCode::HaloTooNarrow));
        assert!(!r.has_code(LintCode::SpmOverflow));
    }

    #[test]
    fn render_mentions_code_and_help() {
        let text = sample().render();
        assert!(text.contains("MSC-L101 [deny] grid `B`"));
        assert!(text.contains("help: widen the halo to 2"));
        assert!(text.contains("lint: 1 deny, 1 warn in `p`"));
    }

    #[test]
    fn diagnostic_json_is_a_standalone_object() {
        let d = Diagnostic::new(
            LintCode::HaloTooNarrow,
            "halo 1 but reach \"2\"".into(),
            "grid `B`".into(),
            String::new(),
        );
        let j = d.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"code\":\"MSC-L101\""));
        assert!(j.contains("\\\"2\\\""));
        // The report embeds exactly this rendering.
        let mut r = Report::new("p");
        r.push(d.clone());
        assert!(r.to_json().contains(&j));
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report::new("a\"b");
        r.push(Diagnostic::new(
            LintCode::SpmOverflow,
            "needs\n70000".into(),
            "ctx".into(),
            String::new(),
        ));
        let j = r.to_json();
        assert!(j.contains("\"program\":\"a\\\"b\""));
        assert!(j.contains("\"needs\\n70000\""));
        assert!(j.contains("\"deny_count\":1"));
        assert!(j.contains("\"family\":\"capacity\""));
    }
}
