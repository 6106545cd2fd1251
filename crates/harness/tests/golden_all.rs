//! Pins the bytes of `bcache-repro all --records 20000`: every table
//! and figure of the paper, rendered at 20 000 records, must match the
//! committed `golden/all_records_20000.txt` at `--jobs 1`, `2` and `8`.
//!
//! A change that moves any number of the evaluation fails here, and
//! so does one that lets scheduling leak into the output. If a change
//! is meant to move the numbers, regenerate the file from a release
//! build and review its diff:
//!
//! ```text
//! cargo run --release -p harness --bin bcache-repro -- all --records 20000 --jobs 1 \
//!     > crates/harness/tests/golden/all_records_20000.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/all_records_20000.txt");

fn run_all(jobs: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bcache-repro"))
        .args(["all", "--records", "20000", "--jobs", &jobs.to_string()])
        .output()
        .expect("bcache-repro starts");
    assert!(
        out.status.success(),
        "all --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("output is UTF-8")
}

#[test]
fn all_output_matches_the_golden_file_at_every_width() {
    for jobs in [1, 2, 8] {
        let got = run_all(jobs);
        if got == GOLDEN {
            continue;
        }
        let (want, have): (Vec<_>, Vec<_>) = (GOLDEN.lines().collect(), got.lines().collect());
        match (0..want.len().max(have.len())).find(|&i| want.get(i) != have.get(i)) {
            Some(i) => panic!(
                "all --jobs {jobs} differs from the golden file at line {}:\n  \
                 golden: {:?}\n  actual: {:?}",
                i + 1,
                want.get(i),
                have.get(i)
            ),
            None => panic!("all --jobs {jobs} differs from the golden file in line endings only"),
        }
    }
}
