//! The `simbench-analysis/v2` artifact.
//!
//! A versioned JSON serialization of a batch of subject analyses, hand
//! rolled in the same style as the campaign result files (and parseable
//! by [`simbench_campaign::json::parse`], which the round-trip test
//! exercises). The schema is part of the CI contract: the analyze-smoke
//! job uploads this file, and a reader keys on `schema` before trusting
//! field layout.
//!
//! Top-level shape:
//!
//! ```text
//! {
//!   "schema": "simbench-analysis/v2",
//!   "subjects": [
//!     {
//!       "subject": "armlet/suite:System Call",
//!       "guest": "armlet",
//!       "image": {"entry": .., "size": .., "limit": ..},
//!       "summary": {"blocks": .., "insns": .., "edges": .., "loop_headers": ..},
//!       "violations": ["..."],
//!       "prediction": {"status": "exact", "exit": "halted",
//!                      "counters": {"instructions": .., ...}},
//!       "check": {"matched": true, "detail": []}
//!     }
//!   ]
//! }
//! ```
//!
//! `prediction.status` is `"exact"` or `"abstained"`; abstentions add a
//! `"reason"` string and their counters are the partial profile.

use std::fmt::Write as _;

use simbench_campaign::json;

use crate::SubjectAnalysis;

/// Schema identifier written to (and expected from) every artifact.
pub const SCHEMA: &str = "simbench-analysis/v2";

/// Serialize a batch of analyses as a `simbench-analysis/v2` document.
pub fn to_json(subjects: &[SubjectAnalysis]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", json::quote(SCHEMA));
    out.push_str("  \"subjects\": [\n");
    for (i, s) in subjects.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"subject\": {},", json::quote(&s.subject));
        let _ = writeln!(out, "      \"guest\": {},", json::quote(s.guest));
        let _ = writeln!(
            out,
            "      \"image\": {{\"entry\": {}, \"size\": {}, \"limit\": {}}},",
            s.entry, s.image_size, s.image_limit
        );
        let _ = writeln!(
            out,
            "      \"summary\": {{\"blocks\": {}, \"insns\": {}, \"edges\": {}, \"loop_headers\": {}}},",
            s.blocks,
            s.insns,
            s.edges,
            s.loop_headers
        );
        let _ = writeln!(
            out,
            "      \"violations\": [{}],",
            s.violations
                .iter()
                .map(|v| json::quote(v))
                .collect::<Vec<_>>()
                .join(", ")
        );
        match s.prediction.abstain_reason() {
            None => out.push_str("      \"prediction\": {\"status\": \"exact\", \"exit\": \"halted\", \"counters\": {"),
            Some(reason) => {
                let _ = write!(
                    out,
                    "      \"prediction\": {{\"status\": \"abstained\", \"reason\": {}, \"counters\": {{",
                    json::quote(&reason)
                );
            }
        }
        push_counters(&mut out, s.prediction.counters());
        out.push_str("}}");
        if let Some(check) = &s.check {
            let _ = write!(
                out,
                ",\n      \"check\": {{\"matched\": {}, \"detail\": [{}]}}",
                check.matched,
                check
                    .detail
                    .iter()
                    .map(|d| json::quote(d))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        out.push_str("\n    }");
        out.push_str(if i + 1 < subjects.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn push_counters(out: &mut String, counters: &simbench_core::Counters) {
    let rows = counters.rows();
    for (i, (name, v)) in rows.iter().enumerate() {
        let _ = write!(out, "{}: {}", json::quote(name), v);
        if i + 1 < rows.len() {
            out.push_str(", ");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_workload, AnalyzeOpts, VECTOR_ROOTS};
    use simbench_campaign::{measure, Guest, Workload};
    use simbench_core::cfg::Cfg;
    use simbench_isa_armlet::Armlet;
    use simbench_suite::Benchmark;

    #[test]
    fn artifact_round_trips_through_the_json_parser() {
        let opts = AnalyzeOpts {
            fuel: 5_000_000,
            check: true,
        };
        let workload = Workload::Suite(Benchmark::Syscall);
        let a = analyze_workload(Guest::Armlet, workload, 20_000, &opts)
            .expect("syscall exists on armlet");
        let text = to_json(std::slice::from_ref(&a));
        let doc = json::parse(&text).expect("artifact must be valid JSON");

        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(SCHEMA));
        let subjects = doc.get("subjects").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(subjects.len(), 1);
        let s = &subjects[0];
        assert_eq!(s.get("guest").and_then(|v| v.as_str()), Some("armlet"));
        // v2 has no per-block records, at the subject level or nested.
        assert!(s.get("blocks").is_none(), "{text}");
        for gone in ["\"blocks\": [", "\"class\"", "\"reasons\""] {
            assert!(!text.contains(gone), "{text}");
        }

        // The summary counts are the recovered CFG's, recovered here
        // independently of the analyzer.
        let image = measure::workload_image(Guest::Armlet, workload, 20_000).unwrap();
        let mut roots = vec![image.entry];
        roots.extend(VECTOR_ROOTS);
        let cfg = Cfg::recover::<Armlet>(&image, &roots);
        let summary = s.get("summary").unwrap();
        let count = |k: &str| summary.get(k).and_then(|v| v.as_u64()).unwrap() as usize;
        assert_eq!(count("blocks"), cfg.blocks.len());
        assert_eq!(count("insns"), cfg.insns.len());
        assert_eq!(count("edges"), cfg.edge_count());
        assert_eq!(count("loop_headers"), cfg.loop_headers());
        assert!(count("blocks") > 0 && count("loop_headers") > 0);

        let pred = s.get("prediction").unwrap();
        assert_eq!(pred.get("status").and_then(|v| v.as_str()), Some("exact"));
        let insns = pred
            .get("counters")
            .and_then(|c| c.get("instructions"))
            .and_then(|v| v.as_u64())
            .unwrap();
        assert!(insns > 0);
        let check = s.get("check").unwrap();
        assert_eq!(
            check.get("matched").and_then(|v| v.as_str()),
            None,
            "matched is a bare bool, not a string"
        );
        assert!(text.contains("\"matched\": true"), "{text}");
    }

    #[test]
    fn a_batch_is_one_document_and_abstentions_carry_their_reason() {
        let exact = AnalyzeOpts {
            fuel: 5_000_000,
            check: false,
        };
        let starved = AnalyzeOpts {
            fuel: 1_000,
            ..exact
        };
        let workload = Workload::Suite(Benchmark::MemHot);
        let batch: Vec<_> = [exact, starved]
            .iter()
            .map(|o| analyze_workload(Guest::Armlet, workload, 20_000, o).unwrap())
            .collect();
        let doc = json::parse(&to_json(&batch)).expect("artifact must be valid JSON");
        let subjects = doc.get("subjects").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(subjects.len(), 2);
        let status = |i: usize, k: &str| {
            let p = subjects[i].get("prediction").unwrap();
            p.get(k).and_then(|v| v.as_str()).map(str::to_string)
        };
        assert_eq!(status(0, "status").as_deref(), Some("exact"));
        assert_eq!(status(0, "reason"), None);
        assert_eq!(status(1, "status").as_deref(), Some("abstained"));
        assert_eq!(status(1, "reason"), batch[1].prediction.abstain_reason());
        assert!(status(1, "reason")
            .unwrap()
            .starts_with("fuel exhausted after 1000 "));
        for s in subjects {
            assert!(s.get("check").is_none(), "no --check, no check member");
            assert_eq!(
                s.get("violations").and_then(|v| v.as_arr()).map(<[_]>::len),
                Some(0)
            );
        }
    }
}
