//! The machine-readable run report.
//!
//! One JSON document per run, assembling every metrics source the
//! runtime exposes — scheduler counters, heap allocation counters,
//! lock-wait histograms, and (when traced) the concurrency timeline —
//! under a versioned schema (`curare run --metrics` writes one), so
//! counter trajectories can be diffed mechanically instead of
//! re-parsing log text.

use crate::json::Json;

/// Run-report schema identifier (bump on breaking change).
pub const SCHEMA_REPORT: &str = "curare-report/1";
/// Chrome-trace sidecar schema note (the file itself is the standard
/// `trace_event` format; this names our event vocabulary's version).
pub const SCHEMA_TRACE: &str = "curare-trace/1";

/// Builder for one run report. Section contents are supplied by the
/// layers that own them ([`crate::Json`] subtrees); this type fixes
/// the envelope: schema, run label, and section names.
#[derive(Debug, Clone)]
pub struct RunReport {
    doc: Json,
}

impl RunReport {
    /// Start a report for a run labelled `label` (workload or
    /// experiment name).
    pub fn new(label: &str) -> RunReport {
        RunReport { doc: Json::obj().set("schema", SCHEMA_REPORT).set("label", label) }
    }

    /// Attach a named section (`pool`, `heap`, `locks`, `timeline`,
    /// `wall`, ...).
    pub fn section(mut self, name: &str, body: Json) -> RunReport {
        self.doc = self.doc.set(name, body);
        self
    }

    /// The finished document.
    pub fn into_json(self) -> Json {
        self.doc
    }
}

/// Check that `text` parses as JSON and contains every `key` at the
/// top level. Returns the parsed document.
pub fn validate_keys(text: &str, keys: &[&str]) -> Result<Json, String> {
    let doc = Json::parse(text)?;
    let probe = |d: &Json, key: &str| -> bool {
        match d {
            Json::Obj(_) => d.get(key).is_some(),
            _ => false,
        }
    };
    for key in keys {
        if !probe(&doc, key) {
            return Err(format!("missing required key \"{key}\""));
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_envelope_has_schema_and_sections() {
        let r = RunReport::new("e8")
            .section("pool", Json::obj().set("tasks", 41u64))
            .section("heap", Json::obj().set("conses", 100u64))
            .into_json();
        assert_eq!(r.get("schema").unwrap().as_str(), Some(SCHEMA_REPORT));
        assert_eq!(r.get("label").unwrap().as_str(), Some("e8"));
        assert_eq!(r.get("pool").unwrap().get("tasks").unwrap().as_u64(), Some(41));
        let text = r.to_string();
        validate_keys(&text, &["schema", "label", "pool", "heap"]).unwrap();
    }

    #[test]
    fn validate_rejects_missing_keys_and_bad_json() {
        let text = RunReport::new("x").into_json().to_string();
        assert!(validate_keys(&text, &["pool"]).is_err());
        assert!(validate_keys("not json", &["a"]).is_err());
        assert!(validate_keys("[1,2]", &["a"]).is_err(), "arrays have no keys");
    }
}
