//! The harness's own spans, kept in memory during the traced run and
//! written to `benchmark/out/trace-<workload>.json` when it ends.
//!
//! Spans are recorded here, around the calls into each layer, not
//! inside the program: `pass` ⊃ {`parse`, `transform`, `print`, `load`,
//! `input`, `pool_create`, `run`, `pool_drop`} tile one pool pass, and
//! `lower`, `analyse` and `seq_run` sit beside it under the same pass
//! id. (`transform_forms` lowers and analyses internally, so the
//! `lower` and `analyse` spans time the same public entry points on
//! the same source outside the pass; they explain `transform`'s self
//! time, they are not children of it.)

use curare::obs::Json;

use crate::pass::{PoolPass, STAGES};
use crate::stats::median;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one pass share this id.
    pub pass: u32,
}

#[derive(Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        pass: u32,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, pass });
        self.spans.len() - 1
    }

    /// The `pass` span of one pool pass and its eight stages.
    pub fn push_pool_pass(&mut self, pass: u32, p: &PoolPass) {
        let root = self.push("pass", p.start_ns, p.start_ns + p.e2e_ns(), None, pass);
        let mut at = p.start_ns;
        for (name, ns) in STAGES.iter().zip(p.stage_ns) {
            self.push(name, at, at + ns, Some(root), pass);
            at += ns;
        }
    }

    /// Self time of every span: its duration minus the part of it its
    /// child spans cover (children of one span never overlap here).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Median self time per span name, in ms, in first-seen order.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let own = self.self_ns();
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let samples: Vec<f64> = self
                    .spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.name == name)
                    .map(|(_, &ns)| ns as f64 / 1e6)
                    .collect();
                (name, median(&samples))
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj()
                        .set("id", id)
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set("parent", s.parent.map_or(Json::Null, Json::from))
                        .set("pass", u64::from(s.pass))
                })
                .collect(),
        )
    }
}
