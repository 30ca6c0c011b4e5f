//! Guest RAM is recycled between platforms (`simbench-platform`'s
//! pool), and a recycled buffer must be indistinguishable from a fresh
//! one: on every guest and engine, an image run in a buffer that a
//! *different* image — of the same guest or of another — has just
//! dirtied ends with the same registers, the same RAM byte for byte and
//! the same counters as in RAM nobody has used before, and does so again
//! on the buffer it dirtied itself.

use std::sync::atomic::{AtomicUsize, Ordering};

use simbench::prelude::*;
use simbench_campaign::registry::{ArmletGuest, GuestSpec, PetixGuest, RiscleGuest};
use simbench_core::bus::Bus;
use simbench_core::events::Counters;
use simbench_core::image::GuestImage;
use simbench_platform::DEFAULT_RAM;
use simbench_suite::build;

const ITERS: u32 = 32;
const PAGE: usize = simbench_core::PAGE_SIZE as usize;

type Machine<G> = simbench_core::machine::Machine<<G as GuestSpec>::Isa, Platform>;

/// A platform whose RAM cannot come from the pool, which matches on
/// exact size: nothing else in this process asks for this many bytes.
fn never_used_platform() -> Platform {
    static EXTRA_PAGES: AtomicUsize = AtomicUsize::new(1);
    let extra = EXTRA_PAGES.fetch_add(1, Ordering::Relaxed) * PAGE;
    Platform::with_ram(DEFAULT_RAM as usize + extra)
}

fn run<G: GuestSpec>(
    mut engine: impl Engine<G::Isa, Platform>,
    image: &GuestImage,
    platform: Platform,
) -> (Machine<G>, Counters) {
    let mut m = Machine::<G>::boot(image, platform);
    let out = engine.run(&mut m, &RunLimits::insns(50_000_000));
    assert_eq!(out.exit, ExitReason::Halted);
    (m, out.counters)
}

/// Pages of RAM holding a nonzero byte.
fn nonzero_pages(ram: &[u8]) -> Vec<usize> {
    let zero = [0u8; PAGE];
    let pages = ram.chunks(PAGE).enumerate();
    pages
        .filter(|(_, p)| **p != zero[..p.len()])
        .map(|(i, _)| i)
        .collect()
}

/// Runs `first` in RAM nobody has used, then in the pooled buffer
/// `other` (an image of guest `H`) has just dirtied, then in the buffer
/// it dirtied itself, on engines from `make` and `make_other`.
/// Pages `image` leaves holding a nonzero byte in RAM nobody has used.
fn touched<G: GuestSpec>(image: &GuestImage) -> Vec<usize> {
    let (m, _) = run::<G>(Interp::new(), image, never_used_platform());
    nonzero_pages(m.bus.ram())
}

fn recycled_equals_never_used<G: GuestSpec, H: GuestSpec, E, F>(
    name: &str,
    make: impl Fn() -> E,
    make_other: impl Fn() -> F,
    first: &GuestImage,
    other: &GuestImage,
) where
    E: Engine<G::Isa, Platform>,
    F: Engine<H::Isa, Platform>,
{
    let (fresh, fresh_counters) = run::<G>(make(), first, never_used_platform());
    let fresh_digest = fresh.state_digest();
    let (fresh_ram, extra) = fresh.bus.ram().split_at(DEFAULT_RAM as usize);
    assert!(nonzero_pages(extra).is_empty(), "{name}");

    // Leaves its buffer in the pool for the next `Platform::new()`.
    run::<H>(make_other(), other, Platform::new());
    for after in ["another image", "itself"] {
        let (again, counters) = run::<G>(make(), first, Platform::new());
        assert_eq!(counters, fresh_counters, "{name} after {after}");
        // The RAM digests hash the lengths, which differ: the bytes
        // themselves decide.
        let digest = again.state_digest();
        assert_eq!(
            (digest.cpu, digest.sys),
            (fresh_digest.cpu, fresh_digest.sys),
            "{name} after {after}"
        );
        assert!(again.bus.ram() == fresh_ram, "{name} after {after}: RAM");
    }
}

/// Guest `G`'s Small Blocks (code rewritten in place) in RAM that guest
/// `H`'s Inter-Page Direct (a kernel spread over nine more pages of
/// code) has dirtied, on every engine.
fn recycled_ram_equals_fresh<G: GuestSpec, H: GuestSpec>() {
    let first = build(&G::Support::default(), Benchmark::SmallBlocks, ITERS).expect("on G");
    let other = build(&H::Support::default(), Benchmark::InterPageDirect, ITERS).expect("on H");
    let (by_first, by_other) = (touched::<G>(&first), touched::<H>(&other));
    assert!(
        by_other.iter().any(|p| !by_first.contains(p)),
        "the second image must leave pages behind that the first never writes"
    );

    macro_rules! on {
        ($engine:literal, $make:expr) => {
            recycled_equals_never_used::<G, H, _, _>($engine, $make, $make, &first, &other)
        };
    }
    on!("interp", Interp::new);
    on!("detailed", Detailed::new);
    on!("virt", Virt::kvm);
    on!("native", Virt::native);
    on!("dbt", Dbt::new);
}

#[test]
fn armlet_recycled_ram_equals_fresh() {
    recycled_ram_equals_fresh::<ArmletGuest, ArmletGuest>();
}

#[test]
fn petix_recycled_ram_equals_fresh() {
    recycled_ram_equals_fresh::<PetixGuest, PetixGuest>();
}

#[test]
fn riscle_recycled_ram_equals_fresh() {
    recycled_ram_equals_fresh::<RiscleGuest, RiscleGuest>();
}

/// Images ship only the non-zero chunks of their page tables, so the
/// zero chunks armlet leaves out of its mostly empty L1 table are
/// wherever petix's dense leaf tables were: a recycled buffer must not
/// leave them behind.
#[test]
fn armlet_after_petix_recycled_ram_equals_fresh() {
    recycled_ram_equals_fresh::<ArmletGuest, PetixGuest>();
}

#[test]
fn petix_after_armlet_recycled_ram_equals_fresh() {
    recycled_ram_equals_fresh::<PetixGuest, ArmletGuest>();
}

/// Loading through the bus keeps `Machine::boot`'s own refusal.
#[test]
#[should_panic(expected = "exceeds RAM")]
fn boot_refuses_an_image_outside_ram() {
    let mut image = GuestImage::new(0);
    image.push_section(0xFFC, vec![1; 8]);
    Machine::<ArmletGuest>::boot(&image, Platform::with_ram(PAGE));
}
