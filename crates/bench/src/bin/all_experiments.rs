//! Runs every experiment, prints the tables, writes `EXPERIMENTS.md` and
//! `results/*.json`, and exits non-zero if any shape check fails. It
//! takes no arguments: any argument is answered with the usage line on
//! stderr and exit status 2.

use std::path::Path;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: all_experiments");
        std::process::exit(2);
    }
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
