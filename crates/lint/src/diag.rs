//! Structured diagnostics: severity levels, one diagnostic per finding,
//! and a [`Report`] that renders human-readable text or a machine-readable
//! [`Json`] value (the workspace's one JSON type, `msc_trace::json`).

use crate::code::LintCode;
use msc_trace::Json;

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
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::s(self.code.as_str())),
            ("severity", Json::s(self.severity.as_str())),
            ("family", Json::s(self.code.family())),
            ("message", Json::s(self.message.as_str())),
            ("context", Json::s(self.context.as_str())),
            ("help", Json::s(self.help.as_str())),
        ])
    }

    /// [`Diagnostic::json`] on one line.
    pub fn to_json(&self) -> String {
        self.json().to_compact()
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

    /// The machine-readable report: what `mscc check --json` prints and
    /// what `mscd` sends back with a denied job.
    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("tool", Json::s("msc-lint")),
            ("program", Json::s(self.program.as_str())),
            (
                "diagnostics",
                Json::Arr(self.diags.iter().map(Diagnostic::json).collect()),
            ),
            ("deny_count", Json::n(self.deny_count() as f64)),
            ("warn_count", Json::n(self.warn_count() as f64)),
        ])
    }

    /// [`Report::json`] on one line (`mscc check --json`).
    pub fn to_json(&self) -> String {
        self.json().to_compact()
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
        assert_eq!(Json::parse(&j), Ok(r.json()));
    }
}
