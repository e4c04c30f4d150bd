//! The `hmmm` binary against a stdout nobody reads: a closed pipe
//! (`hmmm query … | head -1`) ends the command quietly with status 0,
//! instead of a panic and a backtrace.

use std::process::{Command, Stdio};

#[test]
fn query_into_a_closed_pipe_exits_quietly() {
    let bin = env!("CARGO_BIN_EXE_hmmm");
    let dir = hmmm_storage::TestDir::new("hmmm_cli_stdout");
    let db = dir.file("archive.json");
    let generated = Command::new(bin)
        .args([
            "generate", "--videos", "2", "--shots", "12", "--seed", "7", "--out",
        ])
        .arg(&db)
        .output()
        .expect("spawn hmmm generate");
    assert!(generated.status.success(), "generate failed: {generated:?}");

    // The read end is gone before the child starts, so its first write
    // fails with a broken pipe whatever the scheduling.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let queried = Command::new(bin)
        .arg("query")
        .arg(&db)
        .args(["goal -> free_kick", "--content-only", "--top", "3"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn hmmm query");
    let stderr = String::from_utf8_lossy(&queried.stderr);
    assert!(
        queried.status.success(),
        "status {:?}, stderr: {stderr}",
        queried.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
