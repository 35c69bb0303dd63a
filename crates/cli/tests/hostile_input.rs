//! Malformed input files must end the `ftclos` process with a typed error
//! exit, never a crash: these drive the real binary so a stack overflow or
//! panic (an abort or exit 101) cannot pass for a handled error.

use std::process::Command;

#[test]
fn stats_rejects_deeply_nested_trace_with_error_exit() {
    let path = std::env::temp_dir().join(format!("ftclos_deep_{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_ftclos"))
        .args(["stats", path.to_str().expect("utf-8 temp path")])
        .output()
        .expect("spawn ftclos");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "error exit expected: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}
