//! `solve --trace FILE` writes a balanced JSONL span log.
//!
//! The tracer is process-global, so a span that another test in the same process
//! opens while this one traces would land in this test's file. The test therefore
//! runs the built binary, alone in its own process.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use rfc_graph::json::JsonValue;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfc_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Runs `maxfairclique` with whitespace-separated `args`: `Ok` when it exits 0,
/// otherwise its exit code (`None` when a signal ended it).
fn run(args: &str) -> Result<(), Option<i32>> {
    let status = Command::new(env!("CARGO_BIN_EXE_maxfairclique"))
        .args(args.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run maxfairclique");
    if status.success() {
        Ok(())
    } else {
        Err(status.code())
    }
}

#[test]
fn solve_with_trace_writes_balanced_jsonl() {
    let graph_path = temp_path("trace_base.graph");
    let trace_path = temp_path("trace_out.jsonl");
    let graph_arg = graph_path.to_string_lossy().to_string();
    let trace_arg = trace_path.to_string_lossy().to_string();
    run(&format!("generate --case-study nba --output {graph_arg}")).unwrap();
    run(&format!(
        "solve --graph {graph_arg} -k 5 -d 3 --threads 1 --trace {trace_arg}"
    ))
    .unwrap();

    // Every line parses, opens balance closes, and the root solve span is there.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let (mut opens, mut closes, mut saw_solve) = (0u64, 0u64, false);
    for line in text.lines() {
        let v = JsonValue::parse(line).expect("trace line parses");
        match v.get("ev").and_then(JsonValue::as_str) {
            Some("open") => opens += 1,
            Some("close") => {
                closes += 1;
                if v.get("name").and_then(JsonValue::as_str) == Some("solve") {
                    saw_solve = true;
                    assert!(v.get("dur_us").is_some());
                }
            }
            other => panic!("unexpected trace event {other:?}"),
        }
    }
    assert!(opens > 0, "trace is empty");
    assert_eq!(opens, closes, "unbalanced spans");
    assert!(saw_solve, "no solve span in the trace");

    // An unwritable trace path is a clean error (exit 1), not a panic (exit 101).
    assert_eq!(
        run(&format!(
            "solve --graph {graph_arg} -k 5 -d 3 --trace /definitely/missing/dir/t.jsonl"
        )),
        Err(Some(1))
    );

    std::fs::remove_dir_all(graph_path.parent().unwrap()).ok();
}
