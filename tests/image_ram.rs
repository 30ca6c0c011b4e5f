//! What every image puts into RAM, pinned: for each guest, every suite
//! benchmark at two iteration counts, every application and a set of
//! seeded held-out programs, the entry point and a digest of every
//! non-zero byte the image loads must equal the committed fixture line.
//!
//! An image may split its bytes into sections however it likes — RAM
//! is zero where no section lands — so the digest covers only what
//! boot leaves behind: FNV-1a over (address, byte) of each non-zero
//! byte, in address order. A change to how images are assembled must
//! leave the fixture byte for byte as it is. A change to what a guest
//! sees regenerates it with
//! `cargo test --test image_ram regen -- --ignored` and says why.

use std::fmt::Write as _;
use std::path::PathBuf;

use simbench::prelude::*;
use simbench_apps::{build_app, App};
use simbench_campaign::registry::{ArmletGuest, GuestSpec, PetixGuest, RiscleGuest};
use simbench_core::digest::Fnv1a;
use simbench_core::image::GuestImage;
use simbench_differ::{generate, program_seed};
use simbench_suite::build;

/// Suite iteration counts.
const ITERATIONS: [u32; 2] = [16, 100];
/// Application iterations: the floor of every campaign scale.
const APP_ITERATIONS: u32 = 64;
/// Seeded held-out programs per guest.
const PROGRAMS: u32 = 64;
/// The differ's fuzzing seed.
const SEED: u64 = 0xDEAD_BEEF;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/image_ram.txt")
}

/// Entry point, non-zero byte count and (address, byte) digest of
/// what `image` loads.
fn observe(image: &GuestImage) -> String {
    let mut sections: Vec<_> = image.sections.iter().collect();
    sections.sort_by_key(|s| s.addr);
    let (mut hash, mut nonzero) = (Fnv1a::new(), 0usize);
    for s in sections {
        for (addr, &byte) in (s.addr..).zip(&s.bytes) {
            if byte != 0 {
                hash.write_u32(addr);
                hash.write_u32(byte.into());
                nonzero += 1;
            }
        }
    }
    format!(
        "entry {:#010x} nonzero {nonzero} digest {:016x}",
        image.entry,
        hash.finish()
    )
}

/// The fixture's lines for guest `G`.
fn images<G: GuestSpec>() -> String {
    let guest = G::GUEST.isa_name();
    let support = G::Support::default();
    let suite = Benchmark::ALL
        .into_iter()
        .flat_map(|b| ITERATIONS.map(|n| (b, n)))
        .filter_map(|(b, n)| Some((format!("{} x{n}", b.name()), build(&support, b, n)?)));
    let apps = App::ALL
        .into_iter()
        .map(|app| (app.name().into(), build_app(&support, app, APP_ITERATIONS)));
    let fuzz = (0..PROGRAMS).map(|i| {
        let image = generate(G::GUEST, program_seed(SEED, i));
        (format!("fuzz #{i}"), image)
    });
    let mut text = String::new();
    for (name, image) in suite.chain(apps).chain(fuzz) {
        writeln!(text, "{guest} | {name} | {}", observe(&image)).unwrap();
    }
    text
}

/// Hold guest `G`'s lines to the fixture's.
fn check<G: GuestSpec>() {
    let fixture = std::fs::read_to_string(fixture()).expect("the committed fixture");
    let prefix = format!("{} | ", G::GUEST.isa_name());
    let expected: Vec<_> = fixture.lines().filter(|l| l.starts_with(&prefix)).collect();
    let actual = images::<G>();
    let actual: Vec<_> = actual.lines().collect();
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e);
    }
    assert_eq!(actual.len(), expected.len(), "{prefix}lines");
}

#[test]
fn armlet_images_match_the_fixture() {
    check::<ArmletGuest>();
}

#[test]
fn petix_images_match_the_fixture() {
    check::<PetixGuest>();
}

#[test]
fn riscle_images_match_the_fixture() {
    check::<RiscleGuest>();
}

#[test]
#[ignore = "rewrites the fixture"]
fn regen() {
    let text = images::<ArmletGuest>() + &images::<PetixGuest>() + &images::<RiscleGuest>();
    std::fs::write(fixture(), text).expect("the fixture is writable");
}
