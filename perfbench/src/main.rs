//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). The line
//! before it is a JSON record of the run. A traced run also writes its
//! spans to `.bench_trace/<workload>-<seed>.json`.

use perfbench::inputs::DEFAULT_SEED;
use perfbench::metrics::{self, result_line};
use perfbench::run::{run, Config, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <compile_sweep|infer_mix|serve_poisson> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::CompileSweep,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(()))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&cfg);
    if cfg.trace {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-{}.json", cfg.workload.name(), cfg.seed));
        let doc = format!(
            "{{\"record\": {},\n\"spans\": {}}}\n",
            out.record, out.spans_json
        );
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let defs = if cfg.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let line = result_line(
        out.ops.failed == 0,
        out.ops.attempted,
        out.ops.failed,
        &defs,
        &out.metrics,
    );
    match line {
        Ok(line) => {
            println!("{}", out.record);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
