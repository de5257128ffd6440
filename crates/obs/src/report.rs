//! The one document format the workspace writes, and its one check.
//!
//! Every document — a pool run's report (`curare run --report`), the
//! watchdog's stall dumps, `curare check --json`'s findings, an
//! experiment's rows — is a `curare-report/2` object: `{"schema",
//! "label", <section>…}`, its sections drawn from [`SECTIONS`]. A
//! producer fills a section; [`document`] alone stamps the schema and
//! [`validate`] alone reads it back. The Chrome export is the one other
//! format: Perfetto's, which we do not own, naming our event vocabulary
//! as [`SCHEMA_TRACE`].

use crate::json::Json;

/// The document schema (bump on breaking change).
pub const SCHEMA_REPORT: &str = "curare-report/2";
/// The event vocabulary's version: the Chrome export (otherwise the
/// standard `trace_event` format) carries it as `otherData.schema`.
pub const SCHEMA_TRACE: &str = "curare-trace/2";

/// Every section a document may carry, by who fills it.
#[rustfmt::skip]
pub const SECTIONS: [&str; 12] = [
    "pool", "heap", "locks", "vm", "wall", "timeline", "trace", "profile", // a pool run
    "stalls",                                                              // its watchdog
    "diagnostics", "placements",                                           // curare check --json
    "experiment",                                                          // experiments --json
];

/// The document labelled `label` carrying `sections`, in order. A
/// section outside [`SECTIONS`] is its producer's bug, and panics.
pub fn document<'a>(label: &str, sections: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    let head = Json::obj().set("schema", SCHEMA_REPORT).set("label", label);
    sections.into_iter().fold(head, |doc, (name, body)| {
        assert!(SECTIONS.contains(&name), "no report section is called {name}");
        doc.set(name, body)
    })
}

/// Parse `text` as a document: an object whose schema is
/// [`SCHEMA_REPORT`], whose label is a string, whose every other key is
/// a section of [`SECTIONS`], and which carries every `required`
/// section. Returns the parsed document.
pub fn validate(text: &str, required: &[&str]) -> Result<Json, String> {
    let doc = Json::parse(text)?;
    let Json::Obj(pairs) = &doc else { return Err("a document is a JSON object".into()) };
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA_REPORT) {
        return Err(format!("schema {schema:?}, not {SCHEMA_REPORT}"));
    }
    if doc.get("label").and_then(Json::as_str).is_none() {
        return Err("no string label".into());
    }
    let known = |key: &str| key == "schema" || key == "label" || SECTIONS.contains(&key);
    if let Some((key, _)) = pairs.iter().find(|(key, _)| !known(key)) {
        return Err(format!("unknown section \"{key}\""));
    }
    match required.iter().find(|name| doc.get(name).is_none()) {
        Some(name) => Err(format!("missing required section \"{name}\"")),
        None => Ok(doc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_document_round_trips_through_the_validator() {
        let doc = document("run", [("pool", Json::obj().set("tasks", 3u64))]);
        let back = validate(&doc.to_string(), &["pool"]).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("label").and_then(Json::as_str), Some("run"));
    }

    #[test]
    fn validate_rejects_missing_keys_and_bad_json() {
        let ok = document("x", [("heap", Json::obj())]).to_string();
        assert!(validate(&ok, &["pool"]).unwrap_err().contains("missing required section"));
        assert!(validate("not json", &[]).is_err());
        assert!(validate("[1,2]", &[]).unwrap_err().contains("object"), "arrays have no keys");
        let old = Json::obj().set("schema", "curare-report/1").set("label", "x");
        assert!(validate(&old.to_string(), &[]).unwrap_err().contains("schema"));
        let unlabelled = Json::obj().set("schema", SCHEMA_REPORT);
        assert!(validate(&unlabelled.to_string(), &[]).unwrap_err().contains("label"));
        let stray = document("x", []).set("hot_ops", Json::Arr(vec![]));
        assert!(validate(&stray.to_string(), &[]).unwrap_err().contains("unknown section"));
    }

    #[test]
    #[should_panic(expected = "no report section is called metrics")]
    fn a_producer_cannot_invent_a_section() {
        document("x", [("metrics", Json::obj())]);
    }
}
