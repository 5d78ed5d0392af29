//! Derives the default code version (`manifest::code_version`): FNV-1a
//! (64-bit) over the sorted relative paths and the bytes of every file
//! under the `src` directories of the crates that compute results, and
//! over the build profile. Any edit there gives new cache keys, so a
//! result store never serves what an older build computed.

use std::path::{Path, PathBuf};

/// The crates whose sources a simulated result can depend on.
const CRATES: [&str; 5] = ["sim", "workloads", "core", "isa", "delay"];

fn eat(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every file under `dir`, recursively.
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo");
    let root = Path::new(&manifest_dir)
        .parent()
        .expect("crates/ holds this crate");
    let mut paths = Vec::new();
    for name in CRATES {
        let src = root.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        files(&src, &mut paths);
    }
    let mut named: Vec<(String, PathBuf)> = paths
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under crates/");
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>();
            (rel.join("/"), p)
        })
        .collect();
    named.sort();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (rel, path) in &named {
        let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eat(&mut h, format!("{rel}\n{}\n", bytes.len()).as_bytes());
        eat(&mut h, &bytes);
    }
    for var in ["PROFILE", "OPT_LEVEL", "DEBUG"] {
        let value = std::env::var(var).unwrap_or_default();
        eat(&mut h, format!("{var}={value}\n").as_bytes());
    }
    println!("cargo:rustc-env=CE_SOURCE_DIGEST={h:016x}");
}
