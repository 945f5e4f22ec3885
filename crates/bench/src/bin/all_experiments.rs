//! Runs every experiment, prints the tables, writes `EXPERIMENTS.md` and
//! `results/*.json`, and exits non-zero if any shape check fails.

use std::path::Path;

fn main() {
    let results = vmcu_bench::experiments::run_all();
    let mut all_ok = true;
    for r in &results {
        println!("{r}\n");
        all_ok &= r.passed();
        if let Err(e) = vmcu_bench::write_json(Path::new("results"), r) {
            eprintln!("warning: could not write results JSON: {e}");
        }
    }
    match vmcu_bench::write_experiments_md(Path::new("EXPERIMENTS.md"), &results) {
        Ok(()) => println!("wrote EXPERIMENTS.md ({} experiments)", results.len()),
        Err(e) => {
            eprintln!("error writing EXPERIMENTS.md: {e}");
            all_ok = false;
        }
    }
    let passed = results.iter().filter(|r| r.passed()).count();
    println!("shape checks: {passed}/{} experiments green", results.len());
    std::process::exit(i32::from(!all_ok));
}
