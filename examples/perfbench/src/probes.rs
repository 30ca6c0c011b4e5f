//! Micro-loops of the traced run: what one call into a layer costs,
//! measured from outside, over the workload's own images.
//!
//! Every loop is repeated [`ROUNDS`] times and the floor is reported.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use simbench_campaign::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use simbench_campaign::{Guest, Journal};
use simbench_core::bus::Bus;
use simbench_core::cfg::Cfg;
use simbench_core::engine::{Engine, RunLimits};
use simbench_core::ir::MemSize;
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_interp::Interp;
use simbench_platform::{Platform, SAFEDEV_BASE};

use crate::campaign::{self, Variant};
use crate::cells::{Image, Source};
use crate::report::Metrics;
use crate::stats::ratio;
use crate::table;
use crate::trace::{SpanId, Tracer};

const ROUNDS: usize = 5;

/// The five exception vectors, roots of code recovery beside the entry
/// point (as the static analyzer uses them).
const VECTOR_ROOTS: [u32; 5] = [0x00, 0x20, 0x40, 0x60, 0x80];

/// Virtual addresses swept for mapped pages: the suite's layout ends
/// below 128 MiB.
const WALK_SWEEP_END: u32 = 0x0800_0000;
const PAGE: usize = 4096;

/// Floor seconds of `f` over [`ROUNDS`], each round a span.
fn floor_s(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    mut f: impl FnMut(),
) -> f64 {
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            tracer.span(name, parent, &mut f);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Assembly cost per image, by the crate that assembles it.
fn assemble(images: &[Image], tracer: &mut Tracer, root: SpanId, m: &mut Metrics) {
    let mut layer = |metric: &str, span: &'static str, is_mine: fn(&Source) -> bool| {
        let mine: Vec<&Image> = images.iter().filter(|i| is_mine(&i.spec.source)).collect();
        let s = floor_s(tracer, span, Some(root), || {
            for image in &mine {
                black_box(image.spec.assemble());
            }
        });
        m.push(metric, ratio(s * 1e6, mine.len() as f64));
    };
    layer("suite.assemble_us", "probe.suite.assemble", |s| {
        matches!(s, Source::Suite(_))
    });
    layer("apps.assemble_us", "probe.apps.assemble", |s| {
        matches!(s, Source::App(_))
    });
    layer("differ.generate_us", "probe.differ.generate", |s| {
        matches!(s, Source::Fuzz(_))
    });
    m.push("bench.images", images.len() as f64);
}

/// `Isa::decode` over every instruction code recovery reaches in the
/// guest's images, and `Isa::walk` over the pages the guest maps.
struct IsaProbe<'a> {
    images: Vec<&'a Image>,
    tracer: &'a mut Tracer,
    root: SpanId,
}

struct IsaCosts {
    decodes: usize,
    decode_ns: f64,
    walk_ns: f64,
}

impl GuestVisitor for IsaProbe<'_> {
    type Out = IsaCosts;
    fn visit<G: GuestSpec>(self) -> IsaCosts {
        isa_costs::<G::Isa>(&self.images, self.tracer, self.root)
    }
}

fn isa_costs<I: Isa>(images: &[&Image], tracer: &mut Tracer, root: SpanId) -> IsaCosts {
    // Flat copies of the images with the addresses to decode at.
    let mut sites: Vec<(Vec<u8>, Vec<u32>)> = Vec::new();
    for image in images {
        let mut roots = vec![image.image.entry];
        roots.extend(VECTOR_ROOTS);
        let cfg = Cfg::recover::<I>(&image.image, &roots);
        let mut ram = vec![0u8; image.image.limit() as usize + I::MAX_INSN_BYTES];
        image.image.load_into(&mut ram);
        sites.push((ram, cfg.insns.iter().map(|&(addr, _)| addr).collect()));
    }
    let decodes: usize = sites.iter().map(|(_, addrs)| addrs.len()).sum();
    let decode_s = floor_s(tracer, "probe.isa.decode", Some(root), || {
        for (ram, addrs) in &sites {
            for &addr in addrs {
                let at = addr as usize;
                let _ = black_box(I::decode(&ram[at..at + I::MAX_INSN_BYTES], addr));
            }
        }
    });

    // Page-table walks over a halted machine's mapped pages.
    let first = images[0];
    let mut machine = Machine::<I, Platform>::boot(&first.image, Platform::new());
    let limits = RunLimits {
        max_insns: table::FIRST_PASS_MAX_INSNS,
        wall_limit: Some(table::CELL_WALL_LIMIT),
    };
    Interp::<I>::new().run(&mut machine, &limits);
    let mapped: Vec<u32> = (0..WALK_SWEEP_END)
        .step_by(PAGE)
        .filter(|&va| I::walk(&machine.sys, &mut machine.bus, va).is_ok())
        .collect();
    let walk_s = floor_s(tracer, "probe.isa.walk", Some(root), || {
        for &va in &mapped {
            let _ = black_box(I::walk(&machine.sys, &mut machine.bus, va));
        }
    });
    IsaCosts {
        decodes,
        decode_ns: ratio(decode_s * 1e9, decodes as f64),
        walk_ns: ratio(walk_s * 1e9, mapped.len() as f64),
    }
}

/// `Platform::new`, `Machine::boot` of the first image, and one device
/// read through the bus.
fn platform(image: &Image, tracer: &mut Tracer, root: SpanId, m: &mut Metrics) {
    struct Boot<'a>(&'a Image, &'a mut Tracer, SpanId);
    impl GuestVisitor for Boot<'_> {
        type Out = f64;
        fn visit<G: GuestSpec>(self) -> f64 {
            let Boot(image, tracer, root) = self;
            // The platform is built outside the timed region and the
            // machine dropped outside it, so only `boot` is timed.
            (0..ROUNDS)
                .map(|_| {
                    let bus = Platform::new();
                    let start = Instant::now();
                    let machine = Machine::<G::Isa, Platform>::boot(&image.image, bus);
                    let end = Instant::now();
                    tracer.add("probe.core.boot", start, end, Some(root));
                    drop(machine);
                    (end - start).as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        }
    }
    let new_s = floor_s(tracer, "probe.platform.new", Some(root), || {
        black_box(Platform::new());
    });
    m.push("platform.new_us", new_s * 1e6);
    let boot_s = dispatch_guest(image.spec.guest, Boot(image, tracer, root));
    m.push("core.boot_us", boot_s * 1e6);

    const READS: u32 = 100_000;
    let mut bus = Platform::new();
    let read_s = floor_s(tracer, "probe.platform.mmio_read", Some(root), || {
        for _ in 0..READS {
            let _ = black_box(bus.read(black_box(SAFEDEV_BASE), MemSize::B4));
        }
    });
    m.push("platform.mmio_read_ns", read_s * 1e9 / f64::from(READS));
}

/// What the watchdog and the journal each add to a repetition: the sum
/// of chunk floors with the option on minus the sum with it off. Also
/// one `Journal::record_rep` and one `stats` call.
fn campaign_options(scratch: &Path, tracer: &mut Tracer, m: &mut Metrics) {
    let specs = campaign::chunks();
    let variants = [
        campaign::WORKLOAD,
        Variant {
            journal: false,
            watchdog: true,
        },
        Variant {
            journal: true,
            watchdog: true,
        },
    ];
    let mut floors = vec![[f64::INFINITY; 3]; specs.len()];
    let mut reps = 0u64;
    let root = tracer.open("probe.campaign.options", None);
    for _ in 0..ROUNDS {
        for (spec, floors) in specs.iter().zip(&mut floors) {
            for (floor, variant) in floors.iter_mut().zip(variants) {
                let run = campaign::run_chunk(spec, variant, scratch, None, tracer, Some(root));
                *floor = floor.min(run.times[1]);
                reps += run
                    .result
                    .cells
                    .iter()
                    .map(|c| u64::from(c.reps_run))
                    .sum::<u64>();
            }
        }
    }
    // Repetitions of one round of one variant.
    let reps = reps / (ROUNDS * variants.len()) as u64;
    tracer.close(root);
    let sum = |v: usize| -> f64 { floors.iter().map(|f| f[v]).sum() };
    let per_rep_us =
        |with: usize, without: usize| ratio((sum(with) - sum(without)) * 1e6, reps as f64);
    m.push("campaign.watchdog_us", per_rep_us(1, 0));
    m.push("campaign.journal_us", per_rep_us(2, 1));
    let spec = &specs[0];

    const APPENDS: u32 = 200;
    let dir = scratch.join(format!("journal-probe-{}", std::process::id()));
    let journal = Journal::create(&dir, spec, None).expect("the scratch directory is writable");
    let append_s = floor_s(tracer, "probe.campaign.journal_append", None, || {
        for rep in 0..APPENDS {
            journal.record_rep(0, rep, 1, "ok");
        }
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    m.push(
        "campaign.journal_append_us",
        append_s * 1e6 / f64::from(APPENDS),
    );

    const STATS_CALLS: u32 = 10_000;
    let samples = [1.0e-5, 1.1e-5, 1.05e-5];
    let stats_s = floor_s(tracer, "probe.campaign.stats", None, || {
        for _ in 0..STATS_CALLS {
            black_box(simbench_campaign::stats(black_box(&samples)));
        }
    });
    m.push("campaign.stats_us", stats_s * 1e6 / f64::from(STATS_CALLS));
}

/// Run every probe that applies to the workload.
pub fn run(
    kind: table::WorkloadKind,
    images: &[Image],
    scratch: &Path,
    tracer: &mut Tracer,
) -> Metrics {
    let mut m = Metrics::default();
    let root = tracer.open("probes", None);
    assemble(images, tracer, root, &mut m);
    for (guest, name) in Guest::ALL.into_iter().zip(table::GUEST_NAMES) {
        let mine: Vec<&Image> = images.iter().filter(|i| i.spec.guest == guest).collect();
        if mine.is_empty() {
            continue;
        }
        let costs = dispatch_guest(
            guest,
            IsaProbe {
                images: mine,
                tracer,
                root,
            },
        );
        m.push(format!("isa-{name}.decode_ns"), costs.decode_ns);
        m.push(format!("isa-{name}.decodes"), costs.decodes as f64);
        m.push(format!("isa-{name}.walk_ns"), costs.walk_ns);
    }
    platform(&images[0], tracer, root, &mut m);
    tracer.close(root);
    if kind == table::WorkloadKind::Campaign {
        campaign_options(scratch, tracer, &mut m);
    }
    m
}
