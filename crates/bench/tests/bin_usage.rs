//! Every bench binary answers a bad command line — an unknown flag, a
//! missing, unparsable or out-of-range value, or an argument where none
//! is taken — with one `usage:` line on stderr and exit status 2, before
//! it does any work.

use std::process::Command;

#[test]
fn bad_command_lines_get_the_usage_line_and_exit_2() {
    let all_experiments = env!("CARGO_BIN_EXE_all_experiments");
    let audit = env!("CARGO_BIN_EXE_audit");
    let bench_gate = env!("CARGO_BIN_EXE_bench_gate");
    let fleet = env!("CARGO_BIN_EXE_fleet_throughput");
    let cases: [(&str, &[&str]); 12] = [
        (all_experiments, &["--light"]),
        (audit, &["--light"]),
        (audit, &["--out"]),
        (bench_gate, &["only-one.json"]),
        (fleet, &["--bogus"]),
        (fleet, &["--workers"]),
        (fleet, &["--workers", "many"]),
        (fleet, &["--workers", "0"]),
        (fleet, &["--rate", "0"]),
        (fleet, &["--slo-ms", "soon"]),
        (fleet, &["--slo-ms", "inf"]),
        (fleet, &["--profile", "steady"]),
    ];
    // A binary that ignored its arguments would write its outputs here,
    // not into the source tree.
    let cwd = env!("CARGO_TARGET_TMPDIR");
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .current_dir(cwd)
            .output()
            .unwrap_or_else(|e| panic!("running {bin}: {e}"));
        let what = format!("{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(
            stderr.starts_with("usage: ") && stderr.lines().count() == 1,
            "{what}: stderr is not one usage line: {stderr:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "{what}: started work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
