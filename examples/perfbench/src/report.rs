//! Metrics: deriving them from per-cell floors, printing them, writing
//! them out.

use simbench_campaign::json;
use simbench_core::events::Counters;

use crate::stats::{geomean, ratio, summarize, Summary};
use crate::table::{self, Group, MetricDef};

/// One measured metric. Unit, bound and layer come from the definition
/// of the same name in [`table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Floor, median, p90 and sample count, where the value is a time
    /// taken over passes.
    pub summary: Option<Summary>,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            value,
            summary: None,
        });
    }

    pub fn push_timed(&mut self, name: impl Into<String>, value: f64, summary: Option<Summary>) {
        self.0.push(Metric {
            name: name.into(),
            value,
            summary,
        });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The tally of the correctness gate: cell-runs seen, cell-runs failed,
/// and the first few failures in words.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Gate {
    /// Failures kept in words; the count is always exact.
    const KEPT: usize = 8;

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < Gate::KEPT {
            self.failures.push(what);
        }
    }

    pub fn absorb(&mut self, other: &Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Gate::KEPT.saturating_sub(self.failures.len());
        self.failures
            .extend(other.failures.iter().take(room).cloned());
    }
}

/// What one cell contributes to the metrics, whoever ran it (perfbench
/// itself or the campaign runner).
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Short engine name.
    pub engine: &'static str,
    pub group: Group,
    /// Cells of one image share this index (virt/native pairing).
    pub image: usize,
    /// Exact event profile of one run of the cell.
    pub counters: Counters,
    pub kernel_insns: u64,
    pub kernel_floor_s: f64,
    /// Instructions and floor of the region the MIPS metrics time: the
    /// kernel phase, or the whole boot-to-halt region on `cold`.
    pub timed_insns: u64,
    pub timed_floor_s: f64,
    /// Floor of the whole cell-run; 0 where it cannot be seen from
    /// outside (`campaign`).
    pub cell_floor_s: f64,
}

/// Workload-level totals the cell summaries do not carry.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// Time of one pass: the sum of the floors of its cells.
    pub pass_s: f64,
    /// Spread of whole passes over the passes, as a diagnostic.
    pub pass_summary: Option<Summary>,
    /// Kernel-phase seconds inside one pass, from floors.
    pub kernel_s: f64,
    pub noise_ratio: f64,
    pub first_pass_ratio: f64,
    pub passes: usize,
    /// `VmHWM` after pass 0, which runs in table order on every seed.
    pub first_pass_rss_mb: f64,
}

impl Totals {
    /// Totals from what each cell (or chunk) recorded: its whole-run
    /// samples of the first passes and its floor over all passes.
    pub fn new(
        cells: &[(&[f64], f64)],
        kernel_s: f64,
        passes: usize,
        first_pass_rss_mb: f64,
    ) -> Totals {
        let pass_s: f64 = cells.iter().map(|(_, floor)| floor).sum();
        let median_s: f64 = cells
            .iter()
            .map(|(samples, _)| summarize(samples).map_or(0.0, |s| s.median))
            .sum();
        let first_s: f64 = cells.iter().map(|(samples, _)| samples[0]).sum();
        let sampled = cells.iter().map(|(s, _)| s.len()).min().unwrap_or(0);
        let pass_totals: Vec<f64> = (0..sampled)
            .map(|p| cells.iter().map(|(samples, _)| samples[p]).sum())
            .collect();
        Totals {
            pass_s,
            pass_summary: summarize(&pass_totals),
            kernel_s,
            noise_ratio: ratio(median_s, pass_s),
            first_pass_ratio: ratio(first_s, pass_s),
            passes,
            first_pass_rss_mb,
        }
    }
}

fn mips(c: &CellSummary) -> f64 {
    ratio(c.timed_insns as f64, c.timed_floor_s) / 1e6
}

/// End-to-end metrics (all but `setup_s` and `peak_rss_mb`) and the
/// per-layer metrics that need no traced run.
pub fn derive(cells: &[CellSummary], t: &Totals) -> Metrics {
    let mut m = Metrics::default();
    m.push_timed("pass_s", t.pass_s, t.pass_summary);
    m.push("geomean_mips", geomean(cells.iter().map(mips)));
    for (_, engine) in table::engines() {
        let mine = || cells.iter().filter(move |c| c.engine == engine);
        m.push(format!("{engine}_mips"), geomean(mine().map(mips)));
    }
    m.push("overhead_ratio", ratio(t.pass_s, t.kernel_s));

    for (_, engine) in table::engines() {
        let mine = || cells.iter().filter(move |c| c.engine == engine);
        for group in Group::ALL {
            let (mut ns, mut insns) = (0.0, 0u64);
            for c in mine().filter(|c| c.group == group) {
                ns += c.kernel_floor_s * 1e9;
                insns += c.kernel_insns;
            }
            if insns > 0 {
                m.push(
                    format!("{engine}.{}.ns_per_insn", group.name()),
                    ns / insns as f64,
                );
            }
        }
        let seen: Vec<&CellSummary> = mine().filter(|c| c.cell_floor_s > 0.0).collect();
        if !seen.is_empty() {
            let n = seen.len() as f64;
            let cell_s: f64 = seen.iter().map(|c| c.cell_floor_s).sum();
            let kernel_s: f64 = seen.iter().map(|c| c.kernel_floor_s).sum();
            m.push(format!("{engine}.cell_us"), cell_s * 1e6 / n);
            m.push(
                format!("{engine}.outside_kernel_us"),
                (cell_s - kernel_s) * 1e6 / n,
            );
        }
        let sum = mine().fold(Counters::default(), |acc, c| acc.plus(&c.counters));
        m.push(format!("{engine}.insns"), sum.instructions as f64);
        m.push(format!("{engine}.uops"), sum.uops as f64);
        m.push(
            format!("{engine}.tlb_miss_ratio"),
            ratio(
                sum.tlb_misses as f64,
                (sum.tlb_hits + sum.tlb_misses) as f64,
            ),
        );
        if engine == "dbt" {
            let (hits, made, follows) = (
                sum.block_cache_hits as f64,
                sum.blocks_translated as f64,
                sum.block_chain_follows as f64,
            );
            m.push("dbt.blocks_translated", made);
            m.push("dbt.block_cache_hit_ratio", ratio(hits, hits + made));
            m.push(
                "dbt.chain_follow_ratio",
                ratio(follows, follows + hits + made),
            );
            m.push("dbt.code_invalidations", sum.code_invalidations as f64);
        }
        if engine == "virt" {
            m.push("virt.vm_exits", sum.vm_exits as f64);
        }
    }
    m.push("virt.exit_ns", virt_exit_ns(cells));
    m.push("bench.noise_ratio", t.noise_ratio);
    m.push("bench.first_pass_ratio", t.first_pass_ratio);
    m.push("bench.passes", t.passes as f64);
    m
}

/// (virt - native) floor kernel time per VM exit, over the images on
/// which virt exits at least [`MIN_EXITS`] times (every image exits
/// once or twice at boot; the difference of two floors cannot resolve
/// that). The engine is configured to spin 1500 ns per exit; the excess
/// is what the spin loop and exit bookkeeping cost.
fn virt_exit_ns(cells: &[CellSummary]) -> f64 {
    const MIN_EXITS: u64 = 100;
    let (mut extra_ns, mut exits) = (0.0, 0u64);
    for v in cells
        .iter()
        .filter(|c| c.engine == "virt" && c.counters.vm_exits >= MIN_EXITS)
    {
        if let Some(n) = cells
            .iter()
            .find(|c| c.engine == "native" && c.image == v.image)
        {
            extra_ns += (v.kernel_floor_s - n.kernel_floor_s) * 1e9;
            exits += v.counters.vm_exits;
        }
    }
    ratio(extra_ns, exits as f64)
}

/// The layer a per-layer metric belongs to: the prefix of its name.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub metrics: Metrics,
    pub gate: Gate,
    /// Engine metrics `simbench_obs` collected in the traced run.
    pub obs: Option<simbench_obs::metrics::Snapshot>,
}

impl Report {
    /// Print every measured metric by name, with its unit, then the
    /// verdict of the correctness gate.
    pub fn print(&self, defs: &[MetricDef]) {
        let workload = self.workload;
        println!(
            "{:<34} {:>16} {:<8} {:<6} {:>5}  floor / median / p90 (n)",
            format!("[{workload}] metric"),
            "value",
            "unit",
            "better",
            "bound"
        );
        for m in &self.metrics.0 {
            let def = defs.iter().find(|d| d.name == m.name);
            let unit = def.map_or("?", |d| d.unit);
            let better = def.map_or("?", |d| d.better.name());
            let bound = def
                .and_then(|d| d.bound)
                .map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
            let spread = m.summary.map_or(String::new(), |s| {
                format!("{:.6} / {:.6} / {:.6} ({})", s.floor, s.median, s.p90, s.n)
            });
            println!(
                "{:<34} {:>16.6} {:<8} {:<6} {:>5}  {spread}",
                m.name, m.value, unit, better, bound
            );
        }
        println!(
            "[{workload}] correctness: {} cell-runs attempted, {} failed",
            self.gate.attempted, self.gate.failed
        );
        for f in &self.gate.failures {
            println!("[{workload}] FAILED {f}");
        }
    }

    /// `--out FILE`: every measured metric with name, unit, value,
    /// workload, layer, bound, whether it is an exact count, and the
    /// sample count with floor, median and p90 where timed.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"schema\": \"simbench-perfbench/v1\", \"workload\": {}, \"seed\": {}, \
             \"seconds\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [\n",
            json::quote(self.workload),
            self.seed,
            json::num(self.seconds),
            self.gate.attempted,
            self.gate.failed,
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let def = defs.iter().find(|d| d.name == m.name);
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"name\": {}, \"unit\": {}, \"value\": {}, \"workload\": {}, \
                 \"layer\": {}, \"exact\": {}",
                json::quote(&m.name),
                json::quote(def.map_or("", |d| d.unit)),
                json::num(m.value),
                json::quote(self.workload),
                json::quote(if def.is_some_and(|d| d.bound.is_some()) {
                    "end-to-end"
                } else {
                    layer_of(&m.name)
                }),
                def.is_some_and(|d| d.exact),
            ));
            if let Some(b) = def.and_then(|d| d.bound) {
                out.push_str(&format!(", \"bound\": {}", json::num(b)));
            }
            if let Some(s) = m.summary {
                out.push_str(&format!(
                    ", \"samples\": {}, \"floor\": {}, \"median\": {}, \"p90\": {}",
                    s.n,
                    json::num(s.floor),
                    json::num(s.median),
                    json::num(s.p90)
                ));
            }
            out.push('}');
        }
        out.push_str("\n]");
        // The engines' own counters and log2-bucket histograms.
        if let Some(obs) = &self.obs {
            let counters: Vec<String> = obs
                .counters
                .iter()
                .map(|(name, v)| format!("{}: {v}", json::quote(name)))
                .collect();
            let histograms: Vec<String> = obs
                .histograms
                .iter()
                .map(|(name, buckets)| {
                    let pairs: Vec<String> =
                        buckets.iter().map(|(b, n)| format!("[{b}, {n}]")).collect();
                    format!("{}: [{}]", json::quote(name), pairs.join(", "))
                })
                .collect();
            out.push_str(&format!(
                ",\n\"obs\": {{\"counters\": {{{}}}, \"histograms\": {{{}}}}}",
                counters.join(", "),
                histograms.join(", ")
            ));
        }
        out.push_str("}\n");
        out
    }

    /// The last line of standard output: `correct`, `attempted`,
    /// `failed` and one value per listed definition. A listed per-layer
    /// name the run did not measure (its cells, images or spans are not
    /// part of this workload) reads 0.
    pub fn result_line(&self, listed: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gate.failed == 0,
            self.gate.attempted,
            self.gate.failed
        );
        for (i, d) in listed.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&d.name),
                json::num(self.metrics.get(&d.name).unwrap_or(0.0)),
                json::quote(d.unit)
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(engine: &'static str, image: usize, insns: u64, kernel_s: f64) -> CellSummary {
        CellSummary {
            engine,
            group: Group::Io,
            image,
            counters: Counters {
                instructions: insns,
                uops: 2 * insns,
                tlb_hits: 3,
                tlb_misses: 1,
                vm_exits: if engine == "virt" { 100 } else { 0 },
                ..Default::default()
            },
            kernel_insns: insns,
            kernel_floor_s: kernel_s,
            timed_insns: insns,
            timed_floor_s: kernel_s,
            cell_floor_s: kernel_s + 1e-4,
        }
    }

    #[test]
    fn derive_computes_floors_into_named_metrics() {
        let cells = vec![
            cell("interp", 0, 1_000_000, 0.01),
            cell("interp", 1, 4_000_000, 0.01),
            cell("virt", 0, 1_000_000, 0.0102),
            cell("native", 0, 1_000_000, 0.01),
        ];
        let t = Totals {
            pass_s: 0.0406,
            pass_summary: None,
            kernel_s: 0.0402,
            noise_ratio: 1.1,
            first_pass_ratio: 1.3,
            passes: 9,
            first_pass_rss_mb: 5.0,
        };
        let m = derive(&cells, &t);
        let near = |name: &str, want: f64| {
            let got = m.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{name}: {got} vs {want}"
            );
        };
        near("interp_mips", 200.0); // geomean(100, 400)
        near("dbt_mips", 0.0);
        near("overhead_ratio", 0.0406 / 0.0402);
        near("interp.io.ns_per_insn", 4.0);
        assert_eq!(m.get("interp.control.ns_per_insn"), None);
        near("interp.outside_kernel_us", 100.0);
        near("interp.insns", 5_000_000.0);
        near("interp.tlb_miss_ratio", 0.25);
        near("virt.vm_exits", 100.0);
        near("virt.exit_ns", 2000.0);
        near("bench.passes", 9.0);

        // Every derived name is a defined name, with no duplicates.
        let defs: Vec<_> = table::end_to_end_defs()
            .into_iter()
            .chain(table::per_layer_defs())
            .collect();
        for metric in &m.0 {
            assert!(
                defs.iter().any(|d| d.name == metric.name),
                "{}",
                metric.name
            );
            assert_eq!(m.0.iter().filter(|x| x.name == metric.name).count(), 1);
        }
    }

    #[test]
    fn result_line_lists_exactly_the_given_definitions() {
        let mut report = Report {
            workload: "steady",
            seed: 1,
            seconds: 20.0,
            ..Default::default()
        };
        report.gate.attempted = 10;
        report.metrics.push("pass_s", 1.25);
        report.metrics.push("setup_s", 0.5);
        let listed: Vec<_> = table::end_to_end_defs().into_iter().take(2).collect();
        let line = report.result_line(&listed);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), 2);
        let pass = metrics.get("pass_s").unwrap();
        assert_eq!(pass.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(pass.get("unit").unwrap().as_str(), Some("s"));

        let doc = json::parse(&report.to_json(&table::end_to_end_defs())).unwrap();
        let first = &doc.get("metrics").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("layer").unwrap().as_str(), Some("end-to-end"));
        assert_eq!(
            first.get("bound").unwrap().as_f64(),
            Some(table::TIME_BOUND)
        );
        assert_eq!(layer_of("isa-armlet.decode_ns"), "isa-armlet");

        report.gate.fail("injected".to_string());
        let doc = json::parse(&report.result_line(&listed)).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(doc.get("failed").unwrap().as_u64(), Some(1));
    }
}
