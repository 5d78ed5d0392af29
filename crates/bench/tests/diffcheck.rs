//! The differential harness over the explorer's tiny grid: every
//! organization, invariant checker on, must match the oracle bit for bit
//! on 5 000-instruction kernel prefixes. CI runs the full grid the same
//! way (`diffcheck --grid explore`).

use std::process::Command;

fn diffcheck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_diffcheck"))
        .args(args)
        .env("CE_MAX_INSTS", "5000")
        .output()
        .expect("diffcheck runs")
}

#[test]
fn explore_tiny_grid_matches_the_oracle() {
    let out = diffcheck(&["--grid", "explore-tiny"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("explore-tiny grid, 6 organizations x 7 kernels"), "{stdout}");
    assert!(stdout.contains("diffcheck: all 42 cells bit-identical"), "{stdout}");
}

/// A typo is a usage error (2), never the divergence code (1).
#[test]
fn unknown_grid_is_refused() {
    let out = diffcheck(&["--grid", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown grid `nope`"));
}
