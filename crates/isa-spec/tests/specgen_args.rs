//! `specgen` takes `--check` and nothing else: any other argument exits
//! 2 before a spec is read or a decoder written, so `specgen --chekc`
//! can neither rewrite the committed decoders nor pass as a check.

use std::process::Command;

#[test]
fn an_unknown_argument_exits_2_before_any_file_is_touched() {
    for args in [&["--chekc"][..], &["--check", "extra"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_specgen"))
            .args(args)
            .output()
            .expect("spawn specgen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let bad = args.last().unwrap();
        let want = format!("specgen: unknown argument {bad:?} (usage: specgen [--check])\n");
        assert_eq!(stderr, want, "{args:?}");
        // Every spec it reads is named on stdout, up to date or regenerated.
        assert!(out.stdout.is_empty(), "{args:?} read a spec");
    }
}
