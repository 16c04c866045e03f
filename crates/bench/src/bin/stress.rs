//! The generated-corpus **stress tier**: recall and scale records on
//! seeded `gen:<seed>:<scale>` designs (see docs/GENERATOR.md).
//!
//! Three `BENCH_gen_*.json` reports, all in the pinned `stress` mode:
//!
//! * `BENCH_gen_sweep.json` — the pinned 5-seed × 3-scale sweep with
//!   manifest recall gated at 100% and false alarms at 0;
//! * `BENCH_gen_x10.json` — a ~169-module design (≥10x ClusterSoC)
//!   analyzed in full, with ≥1 real solver call per round asserted;
//! * `BENCH_gen_x50.json` — a ~807-module design: lint recall over the
//!   whole corpus plus the clause-reuse probe on its real flip workload
//!   (`clause_reuse_engaged` recorded either way).
//!
//! ```sh
//! cargo run --release -p soccar-bench --bin stress -- \
//!   --bench-out bench-out --check-baseline crates/bench/baselines
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = soccar_bench::bench_args();
    let config = soccar_bench::stress_config();

    println!("== generated-corpus stress tier (pinned `stress` mode) ==");
    let sweep = soccar_bench::gen_sweep_report(&config);
    let mut rows = Vec::new();
    for v in &sweep.variants {
        rows.push(vec![
            v.variant.clone(),
            v.counters["gen.modules"].to_string(),
            format!("{}/{}", v.counters["detected"], v.counters["bugs"]),
            v.counters["smt.queries"].to_string(),
            format!("{:.2}", v.seconds_q),
        ]);
    }
    println!(
        "{}",
        soccar_bench::render_table(
            &["design", "modules", "recall", "smt queries", "sec (q)"],
            &rows
        )
    );

    let x10 = soccar_bench::gen_x10_report(&config);
    let v = &x10.variants[0];
    println!(
        "x10 {}: {} modules, recall {}/{}, {} smt queries ({} sat), {:.2}s (q)",
        v.variant,
        v.counters["gen.modules"],
        v.counters["detected"],
        v.counters["bugs"],
        v.counters["smt.queries"],
        v.counters["smt.sat"],
        v.seconds_q
    );

    let ft = &x10.variants[1];
    println!(
        "x10 {}: {} candidates, {} sat, trail reuse {} ({} lits kept, {} vars eliminated), \
         incremental {:.3}s vs floor-backtracking {:.3}s (q)",
        ft.variant,
        ft.counters["flip_candidates"],
        ft.counters["flip_sat"],
        if ft.counters["trail_reuse_engaged"] == 1 {
            "ENGAGED"
        } else {
            "not engaged"
        },
        ft.counters["smt.trail_reused"],
        ft.counters["smt.eliminated_vars"],
        ft.timings_q["flip_incremental_q"],
        ft.timings_q["flip_trail_reuse_q"]
    );

    let x50 = soccar_bench::gen_x50_report();
    for v in &x50.variants {
        if let Some(reused) = v.counters.get("smt.clauses_reused") {
            println!(
                "x50 {}: {} candidates, {} sat, clause reuse {} ({} clauses), {:.2}s (q)",
                v.variant,
                v.counters["flip_candidates"],
                v.counters["flip_sat"],
                if v.counters["clause_reuse_engaged"] == 1 {
                    "ENGAGED"
                } else {
                    "not engaged"
                },
                reused,
                v.seconds_q
            );
        } else {
            println!(
                "x50 {}: {} modules linted, {}/{} implicit bugs flagged, {:.2}s (q)",
                v.variant,
                v.counters["gen.modules"],
                v.counters["lint.implicit_flagged"],
                v.counters["lint.implicit_bugs"],
                v.seconds_q
            );
        }
    }

    let reports = [sweep, x10, x50];
    if let Some(dir) = &args.bench_out {
        match soccar_bench::write_bench_reports(std::path::Path::new(dir), &reports) {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(dir) = &args.check_baseline {
        let problems = soccar_bench::check_bench_baselines(std::path::Path::new(dir), &reports);
        if !problems.is_empty() {
            for p in &problems {
                eprintln!("baseline mismatch: {p}");
            }
            return ExitCode::FAILURE;
        }
        println!("baseline check passed ({} report(s))", reports.len());
    }
    ExitCode::SUCCESS
}
