//! Generates `results/BENCH_scaling.json` — the capacity-scaling report
//! (256-bank E1 sweep with measured per-channel-domain costs, multi-stack
//! E5, host-interference ablation) — and gates it against the regression
//! bands, exiting nonzero on violation. See `pim_bench::scaling` for the
//! methodology. `--out <path>` overrides the output path; shared flags:
//! `--quiet`, `--telemetry[=path]`.

fn main() {
    let mut log = pim_bench::report::RunLog::from_env("bench_scaling");
    let out = match pim_bench::scaling::out_path(log.args()) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench_scaling: {e}");
            std::process::exit(2);
        }
    };

    let report = pim_bench::scaling::run();
    log.table(pim_bench::scaling::table(&report));
    let value = pim_bench::scaling::to_value(&report);
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(
        &out,
        serde_json::to_string_pretty(&value).expect("report values are finite"),
    )
    .expect("write BENCH_scaling.json");
    log.event("scaling", out.display().to_string());

    match pim_bench::scaling::check_bands(&value) {
        Ok(()) => log.event("bands", "all regression bands hold"),
        Err(e) => {
            // Print the violation even under --quiet: CI reads this.
            eprintln!("bench_scaling: band violation: {e}");
            std::process::exit(1);
        }
    }
    log.finish().expect("write run report");
}
