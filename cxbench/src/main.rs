//! `cxbench` — the repository's benchmark of record. See `README.md`.
//!
//! ```text
//! cxbench --workload W [--seed S] [--seconds N] [--trace 0|1] [--scale tiny]
//! cxbench all      [--seed S] [--seconds N]      one process per workload
//! cxbench repeat   [-n K] [--seed S] [--seconds N]   K sets, spreads vs bounds
//! cxbench manifest                               the text of BENCHMARK.json
//! ```

mod gen;
mod harness;
mod ingest;
mod ladder;
mod oracle;
mod report;
mod served;
mod target;

use harness::{quartiles, WORKLOADS};
use report::{parse_result, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        tiny: false,
        sets: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => out.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => out.trace = value()? == "1",
            "--scale" => out.tiny = value()? == "tiny",
            "-n" => out.sets = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(out)
}

/// One measured run in this process.
fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let spec = harness::spec(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let spec = if args.tiny { spec.tiny() } else { spec };
    println!("{}", harness::environment());
    let (report, defs) = match (args.trace, spec.name == harness::INGEST) {
        (true, _) => (ladder::run(&spec, args.seed, args.seconds), &PER_LAYER[..]),
        (false, true) => (ingest::run(&spec, args.seed, args.seconds), &END_TO_END[..]),
        (false, false) => (served::run(&spec, args.seed, args.seconds), &END_TO_END[..]),
    };
    report.print(defs);
    Ok(ExitCode::from(report.tally.exit_code() as u8))
}

/// Re-execute this binary for one run and hand back its standard output.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(text)
    } else {
        Err(format!("{workload} seed {seed} failed ({}):\n{text}", out.status))
    }
}

/// Every workload once, each in its own process so `peak_rss_mb` is its own.
fn all(args: &Args) -> Result<ExitCode, String> {
    for spec in &WORKLOADS {
        print!("{}", child(spec.name, args.seed, args.seconds)?);
    }
    Ok(ExitCode::SUCCESS)
}

/// `sets` full sets on consecutive seeds; per metric × workload the median,
/// quartiles and spread (interquartile range ÷ median, as the driver takes
/// it) beside the bound. Fails if a spread exceeds its bound or the two
/// halves of the sets disagree beyond it.
fn repeat(args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    println!("{}", harness::environment());
    for spec in &WORKLOADS {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for k in 0..args.sets as u64 {
            let text = child(spec.name, args.seed + k, args.seconds)?;
            let (correct, metrics) = text
                .lines()
                .last()
                .and_then(parse_result)
                .ok_or_else(|| format!("{}: no result line", spec.name))?;
            ok &= correct;
            for (name, v) in metrics {
                values.entry(name).or_default().push(v);
            }
        }
        for def in &END_TO_END {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let v = values.get(def.name).ok_or_else(|| format!("no {}", def.name))?;
            let [q1, q2, q3] = quartiles(&mut v.clone());
            let spread = (q3 - q1) / q2;
            let (first, second) = v.split_at(v.len() / 2);
            let (a, b) =
                (harness::median(&mut first.to_vec()), harness::median(&mut second.to_vec()));
            let worse = if def.higher_is_better { (a - b) / a } else { (b - a) / a };
            let verdict = match (def.name != "setup_s" && spread > bound, worse > bound) {
                (true, _) => "SPREAD EXCEEDS BOUND",
                (_, true) => "HALVES DISAGREE",
                _ if spread > bound / 3.0 => "ok (spread above a third of the bound)",
                _ => "ok",
            };
            ok &= verdict.starts_with("ok");
            println!(
                "{:<15} {:<12} median={q2:<12.4} q1={q1:<12.4} q3={q3:<12.4} spread={spread:<7.4} \
                 bound={bound:<5} halves={a:.4}/{b:.4} n={} {} {verdict}",
                spec.name,
                def.name,
                v.len(),
                def.unit
            );
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("all" | "repeat" | "manifest")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|args| match command {
        "all" => all(&args),
        "repeat" => repeat(&args),
        "manifest" => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => run(&args),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("cxbench: {e}");
        eprintln!(
            "usage: cxbench --workload W [--seed S] [--seconds N] [--trace 0|1] [--scale tiny]\n       \
             cxbench all|repeat|manifest [-n K] [--seed S] [--seconds N]\n       \
             default seed {}, hold-out seed {}",
            gen::DEFAULT_SEED,
            gen::HOLDOUT_SEED
        );
        ExitCode::from(2)
    })
}
