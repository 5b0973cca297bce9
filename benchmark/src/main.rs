//! `lob-benchmark`: one command that runs a named workload at a given
//! seed, checks its output against a shadow copy, and prints every metric
//! by name and unit.
//!
//! ```text
//! lob-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lob-benchmark --check            # 1/50-size smoke + declaration checks
//! lob-benchmark --emit-manifest    # print BENCHMARK.json
//! ```

mod adapter;
mod check;
mod driver;
mod gen;
mod manifest;
mod probes;
mod report;
mod shadow;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    check: bool,
    emit_manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        check: false,
        emit_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--check" => args.check = true,
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where the file log, the probe files and the span dump go.
fn out_dir() -> PathBuf {
    std::env::var_os("LOB_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn run_one(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let plan = workloads::plans(&out, workloads::Scale::full(args.seconds))
        .into_iter()
        .find(|p| p.name == name)
        .ok_or(format!("no workload named {name}"))?;
    let (started, steal0) = (std::time::Instant::now(), report::host_steal_s());
    let (measured, db) = driver::run(&plan, args.seed, args.trace)?;
    report::print_header(&plan, args.seed, args.seconds, args.trace, &db.describe());
    report::print_wall(
        &measured,
        started.elapsed().as_secs_f64(),
        report::host_steal_s() - steal0,
    );
    report::write_rounds(&out.join(format!("rounds-{name}.tsv")), &measured)
        .map_err(|e| format!("writing rounds: {e}"))?;
    let metrics = if args.trace {
        let probes = probes::run_all(&plan, &db, &out);
        trace::write_spans(&out.join(format!("spans-{name}.tsv")), &measured.spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        report::per_layer(&measured, &probes)
    } else {
        report::end_to_end(&measured)
    };
    report::print_metrics(&metrics);
    if let Some((n, _, _)) = metrics.iter().find(|(_, _, s)| !s.value.is_finite()) {
        return Err(format!("metric {n} is not a finite number"));
    }
    println!(
        "{}",
        report::result_line(&metrics, measured.attempted, measured.failed)
    );
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.emit_manifest {
            print!("{}", manifest::render());
            Ok(())
        } else if args.check {
            check::run(&out_dir())
        } else {
            run_one(&args)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lob-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
