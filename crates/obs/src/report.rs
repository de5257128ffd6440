//! The machine-readable run report's schema and key check.
//!
//! One JSON document per run (`CriRuntime::run_report` builds it,
//! `curare run --metrics` writes it): scheduler counters, heap
//! allocation counters, lock-wait histograms, and (when traced) the
//! concurrency timeline under a versioned schema, so counter
//! trajectories can be diffed mechanically instead of re-parsing log
//! text.

use crate::json::Json;

/// Run-report schema identifier (bump on breaking change).
pub const SCHEMA_REPORT: &str = "curare-report/1";
/// The event vocabulary's version: the Chrome export (otherwise the
/// standard `trace_event` format) carries it as `otherData.schema`.
pub const SCHEMA_TRACE: &str = "curare-trace/2";

/// Check that `text` parses as JSON and contains every `key` at the
/// top level. Returns the parsed document.
pub fn validate_keys(text: &str, keys: &[&str]) -> Result<Json, String> {
    let doc = Json::parse(text)?;
    match keys.iter().find(|key| doc.get(key).is_none()) {
        Some(key) => Err(format!("missing required key \"{key}\"")),
        None => Ok(doc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_missing_keys_and_bad_json() {
        let text = Json::obj().set("schema", SCHEMA_REPORT).set("label", "x").to_string();
        assert!(validate_keys(&text, &["pool"]).is_err());
        assert!(validate_keys("not json", &["a"]).is_err());
        assert!(validate_keys("[1,2]", &["a"]).is_err(), "arrays have no keys");
    }
}
