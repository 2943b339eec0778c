//! Process-level behaviour of the `whyq` binary.

use std::process::{Command, Stdio};
use whyquery::datagen::{ldbc_graph, LdbcConfig};
use whyquery::graph::io;

/// A reader that goes away early (`whyq stats g.txt | head -1`) must not
/// turn into a panic: writing to a closed stdout ends the command with
/// exit status 0 and nothing on stderr.
#[test]
fn closed_stdout_is_a_clean_exit() {
    let path = std::env::temp_dir().join(format!("whyq-cli-{}.graph", std::process::id()));
    let g = ldbc_graph(LdbcConfig {
        persons: 20,
        seed: 7,
    });
    std::fs::write(&path, io::write_graph(&g)).expect("write graph");

    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_whyq"))
        .arg("stats")
        .arg(&path)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run whyq");
    std::fs::remove_file(&path).ok();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
