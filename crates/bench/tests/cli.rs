//! Every binary reads its command line through the shared parser in
//! `mom3d_bench::cli`: an unknown flag must exit with status 2 and print
//! the error plus a usage line, never run with the flag ignored.
//!
//! The binaries are found by listing `src/bin/`, so a binary added later
//! that skips the shared parser fails here too.

use std::path::Path;
use std::process::Command;

#[test]
fn every_binary_rejects_an_unknown_flag() {
    let bin_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut names: Vec<String> = std::fs::read_dir(&bin_dir)
        .expect("src/bin lists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().expect("file name").to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(names.len() >= 7, "expected every bench binary, found {names:?}");

    // Cargo builds every binary of the package before its integration
    // tests, side by side.
    let exe_dir = Path::new(env!("CARGO_BIN_EXE_all")).parent().expect("exe dir");
    for name in &names {
        let exe = exe_dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
        let out = Command::new(&exe)
            .arg("--frobnicate")
            .output()
            .unwrap_or_else(|e| panic!("{} runs: {e}", exe.display()));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: status; stderr {stderr}");
        assert!(stderr.contains("unknown flag \"--frobnicate\""), "{name}: {stderr}");
        assert!(stderr.contains("usage:"), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} printed before rejecting its arguments");
    }
}
