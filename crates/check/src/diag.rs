//! Structured diagnostics for `curare check`.
//!
//! Every condition the checker can report carries a stable code, so
//! scripts (and ci.sh) can gate on specific findings rather than
//! scraping prose. The codes:
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | C001 | warning | a recursive function's parameter has an unpredictable transfer function τ |
//! | C002 | error   | a global's reachable heap graph violates the single access path property |
//! | C003 | warning | a declared inverse accessor resolves to no known accessor (alias not canonicalizable) |
//! | C004 | warning | a `reorderable` declaration names an op the program never uses (stale/undefined) |
//! | C005 | warning | an order-sensitive post-call write could not be delayed or future-synced |
//! | C006 | warning | a call to a function the program does not define is treated conservatively |
//! | C007 | error   | a lock placement is unsound: a conflicting unordered pair has no covering lock pair |
//! | C008 | warning | a lock placement is non-minimal: a lock covers no live unordered conflict |
//!
//! C002 and C007 are the errors: an aliased root breaks the soundness
//! premise of the whole conflict analysis (§2.1), and an uncovered
//! unordered conflict is a data race the placement was supposed to
//! exclude (§3.2.1); the warnings mark lost concurrency or
//! conservative assumptions.

use curare_obs::Json;

/// How bad a finding is; drives the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Lost concurrency or a conservative assumption; exit 1.
    Warning,
    /// A soundness premise of the analysis is broken; exit 2.
    Error,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Unpredictable transfer function τ.
    C001,
    /// Single access path property violation.
    C002,
    /// Non-canonicalizable declared alias.
    C003,
    /// Stale or undefined `reorderable` declaration.
    C004,
    /// Order-sensitive write blocked from delay/future-sync.
    C005,
    /// Unknown free function treated conservatively.
    C006,
    /// Lock placement unsound: unordered conflicting pair uncovered.
    C007,
    /// Lock placement non-minimal: a lock covers no live conflict.
    C008,
}

impl Code {
    /// The code's printed name (`C001`…).
    pub fn name(self) -> &'static str {
        match self {
            Code::C001 => "C001",
            Code::C002 => "C002",
            Code::C003 => "C003",
            Code::C004 => "C004",
            Code::C005 => "C005",
            Code::C006 => "C006",
            Code::C007 => "C007",
            Code::C008 => "C008",
        }
    }

    /// Severity is a fixed property of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::C002 | Code::C007 => Severity::Error,
            _ => Severity::Warning,
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (redundant with `code.severity()` but serialized for
    /// consumers that don't carry the table).
    pub severity: Severity,
    /// Structural span: the reader does not record byte offsets, so
    /// findings anchor to a form — `function f`, `global *x*`, or the
    /// declaration clause itself.
    pub span: String,
    /// Human-readable one-liner.
    pub message: String,
    /// Supporting details (paths, τ regexes, candidate names).
    pub related: Vec<String>,
}

impl Diagnostic {
    /// Build a diagnostic; severity comes from the code.
    pub fn new(code: Code, span: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span: span.into(),
            message: message.into(),
            related: Vec::new(),
        }
    }

    /// Attach a related note.
    pub fn with_related(mut self, note: impl Into<String>) -> Diagnostic {
        self.related.push(note.into());
        self
    }

    fn to_json(&self) -> Json {
        let related: Vec<Json> = self.related.iter().map(|r| Json::from(r.as_str())).collect();
        Json::obj()
            .set("code", self.code.name())
            .set("severity", self.severity.label())
            .set("span", self.span.as_str())
            .set("message", self.message.as_str())
            .set("related", related)
    }
}

/// All findings for one source file.
#[derive(Debug, Clone, Default)]
pub struct DiagnosticSet {
    /// The file (or label) the findings belong to.
    pub file: String,
    /// The findings, in collection order.
    pub diags: Vec<Diagnostic>,
}

impl DiagnosticSet {
    /// An empty set for `file`.
    pub fn new(file: impl Into<String>) -> DiagnosticSet {
        DiagnosticSet { file: file.into(), diags: Vec::new() }
    }

    /// Add a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Count of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Count of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// The `curare check` exit contract: 0 clean, 1 warnings only,
    /// 2 any error.
    pub fn exit_code(&self) -> u8 {
        if self.errors() > 0 {
            2
        } else if self.warnings() > 0 {
            1
        } else {
            0
        }
    }

    /// Human-readable rendering, one finding per paragraph.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!("{}: clean\n", self.file));
            return out;
        }
        for d in &self.diags {
            out.push_str(&format!(
                "{}: {} [{}] {}: {}\n",
                self.file,
                d.severity.label(),
                d.code.name(),
                d.span,
                d.message
            ));
            for r in &d.related {
                out.push_str(&format!("    note: {r}\n"));
            }
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s)\n",
            self.file,
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// The findings as a report's `diagnostics` section.
    pub fn to_json(&self) -> Json {
        let diags: Vec<Json> = self.diags.iter().map(Diagnostic::to_json).collect();
        Json::obj()
            .set("file", self.file.as_str())
            .set("errors", self.errors() as f64)
            .set("warnings", self.warnings() as f64)
            .set("diagnostics", diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_fixed_per_code() {
        assert_eq!(Code::C002.severity(), Severity::Error);
        assert_eq!(Code::C007.severity(), Severity::Error);
        for c in [Code::C001, Code::C003, Code::C004, Code::C005, Code::C006, Code::C008] {
            assert_eq!(c.severity(), Severity::Warning, "{}", c.name());
        }
    }

    #[test]
    fn exit_code_contract() {
        let mut set = DiagnosticSet::new("t.lisp");
        assert_eq!(set.exit_code(), 0);
        set.push(Diagnostic::new(Code::C001, "function f", "τ[0] is unpredictable"));
        assert_eq!(set.exit_code(), 1);
        set.push(Diagnostic::new(Code::C002, "global *x*", "shared node"));
        assert_eq!(set.exit_code(), 2);
        assert_eq!(set.errors(), 1);
        assert_eq!(set.warnings(), 1);
    }

    #[test]
    fn json_round_trips() {
        let mut set = DiagnosticSet::new("t.lisp");
        set.push(
            Diagnostic::new(Code::C003, "(inverse fwd bwd)", "fwd resolves to no accessor")
                .with_related("declared pairs: (fwd bwd)"),
        );
        let text = curare_obs::report::document("t.lisp", [("diagnostics", set.to_json())]);
        let text = text.to_string();
        assert!(!text.contains('\n'), "single line: {text}");
        let doc = curare_obs::report::validate(&text, &["diagnostics"]).expect("round-trip");
        let doc = doc.get("diagnostics").unwrap();
        assert_eq!(doc.get("file").and_then(Json::as_str), Some("t.lisp"));
        assert_eq!(doc.get("errors").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("warnings").and_then(Json::as_f64), Some(1.0));
        let ds = doc.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].get("code").and_then(Json::as_str), Some("C003"));
        assert_eq!(ds[0].get("severity").and_then(Json::as_str), Some("warning"));
        let related = ds[0].get("related").and_then(Json::as_arr).unwrap();
        assert_eq!(related.len(), 1);
    }

    #[test]
    fn render_mentions_code_and_span() {
        let mut set = DiagnosticSet::new("t.lisp");
        set.push(Diagnostic::new(Code::C004, "(reorderable frob)", "frob is never used"));
        let text = set.render();
        assert!(text.contains("[C004]"), "{text}");
        assert!(text.contains("(reorderable frob)"), "{text}");
        assert!(text.contains("1 warning(s)"), "{text}");
    }
}
