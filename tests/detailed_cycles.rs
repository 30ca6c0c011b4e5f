//! Every outcome of the detailed timing model, pinned: for each guest,
//! every suite benchmark at two iteration counts and a set of seeded
//! held-out programs run twice on one `Detailed` engine, and the
//! pipeline statistics, class histogram, counters, exit reason and
//! machine-state digest of each must equal the committed fixture line.
//! The second run on the same engine must equal the first, so nothing
//! the model learns in one run reaches the next.
//!
//! A change to the model's *speed* must leave the fixture byte for byte
//! as it is. A change to what the model *charges* regenerates it with
//! `cargo test --test detailed_cycles regen -- --ignored` and says why.

use std::fmt::Write as _;
use std::path::PathBuf;

use simbench::prelude::*;
use simbench_campaign::registry::{ArmletGuest, GuestSpec, PetixGuest, RiscleGuest};
use simbench_core::bus::{Bus, FlatRam};
use simbench_core::digest::StateDigest;
use simbench_core::image::GuestImage;
use simbench_differ::{generate, program_seed};
use simbench_suite::build;

/// Suite iteration counts: the floor every campaign scale reaches, and
/// enough trips round each kernel for the caches and predictor to warm.
const ITERATIONS: [u32; 2] = [16, 200];
/// Seeded held-out programs per guest.
const PROGRAMS: u32 = 16;
/// The differ's fuzzing seed.
const SEED: u64 = 0xDEAD_BEEF;
const PAGE: usize = simbench_core::PAGE_SIZE as usize;
static ZERO: [u8; PAGE] = [0; PAGE];

type Digest<G> = fn(&Machine<<G as GuestSpec>::Isa, Platform>) -> StateDigest;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/detailed_cycles.txt")
}

/// `m.state_digest()` in a fraction of the time: hashing 96 MiB of RAM
/// one FNV-1a lane at a time takes 0.4 s in a debug build, but a zero
/// lane only multiplies the hash by the FNV prime, so a zero page is
/// one multiplication by the prime's power. `regen` writes the fixture
/// with `state_digest` itself, so the checks below prove the two agree.
fn fast_digest<G: GuestSpec>(m: &Machine<G::Isa, Platform>) -> StateDigest {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mix = |hash: u64, lane: u64| (hash ^ lane).wrapping_mul(PRIME);
    let zero_page = PRIME.wrapping_pow(PAGE as u32 / 8);
    let ram = m.bus.ram();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for page in ram.chunks(PAGE) {
        if page == ZERO {
            hash = hash.wrapping_mul(zero_page);
        } else {
            for lane in page.chunks_exact(8) {
                hash = mix(hash, u64::from_le_bytes(lane.try_into().unwrap()));
            }
        }
    }
    let registers = Machine::<G::Isa, _> {
        cpu: m.cpu.clone(),
        sys: m.sys.clone(),
        bus: FlatRam::new(0),
    };
    StateDigest {
        ram: mix(hash, ram.len() as u64),
        ..registers.state_digest()
    }
}

/// Everything one run of `image` leaves that the model decides, on one line.
fn observe<G: GuestSpec>(
    engine: &mut Detailed<G::Isa>,
    image: &GuestImage,
    digest: Digest<G>,
) -> String {
    let mut m = Machine::<G::Isa, _>::boot(image, Platform::new());
    let out = engine.run(&mut m, &RunLimits::insns(50_000_000));
    format!(
        "{:?} {:?} {:?} {:?} {}",
        out.exit,
        engine.pipeline_stats(),
        engine.class_histogram(),
        out.counters,
        digest(&m)
    )
}

/// The fixture's lines for guest `G`.
fn cycles<G: GuestSpec>(digest: Digest<G>) -> String {
    let guest = G::GUEST.isa_name();
    let support = G::Support::default();
    let suite = Benchmark::ALL
        .into_iter()
        .flat_map(|b| ITERATIONS.map(|n| (b, n)))
        .filter_map(|(b, n)| Some((format!("{} x{n}", b.name()), build(&support, b, n)?)));
    let fuzz = (0..PROGRAMS).map(|i| {
        let image = generate(G::GUEST, program_seed(SEED, i));
        (format!("fuzz #{i}"), image)
    });
    let mut engine = Detailed::<G::Isa>::new();
    let mut text = String::new();
    for (name, image) in suite.chain(fuzz) {
        let first = observe::<G>(&mut engine, &image, digest);
        let second = observe::<G>(&mut engine, &image, digest);
        assert_eq!(second, first, "{guest} {name}: a second run on one engine");
        writeln!(text, "{guest} | {name} | {first}").unwrap();
    }
    text
}

/// Hold guest `G`'s lines to the fixture's.
fn check<G: GuestSpec>() {
    let fixture = std::fs::read_to_string(fixture()).expect("the committed fixture");
    let prefix = format!("{} | ", G::GUEST.isa_name());
    let expected: Vec<_> = fixture.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual = cycles::<G>(fast_digest::<G>);
    let actual: Vec<_> = actual.lines().collect();
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e);
    }
    assert_eq!(actual.len(), expected.len(), "{prefix}lines");
}

#[test]
fn armlet_cycles_match_the_fixture() {
    check::<ArmletGuest>();
}

#[test]
fn petix_cycles_match_the_fixture() {
    check::<PetixGuest>();
}

#[test]
fn riscle_cycles_match_the_fixture() {
    check::<RiscleGuest>();
}

#[test]
#[ignore = "rewrites the fixture"]
fn regen() {
    let text = cycles::<ArmletGuest>(Machine::state_digest)
        + &cycles::<PetixGuest>(Machine::state_digest)
        + &cycles::<RiscleGuest>(Machine::state_digest);
    std::fs::write(fixture(), text).expect("the fixture is writable");
}
