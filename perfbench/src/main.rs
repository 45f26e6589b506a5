//! The mstream benchmark: one single-process, closed-loop load generator
//! that feeds generated traces to the engines through their public API,
//! checks every run's output against the exact join, and reports
//! end-to-end throughput, latency and recall — or, with `--trace 1`, the
//! per-layer numbers of a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_skew --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in its own process, and
//! exits non-zero if any output check failed. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod drive;
mod layers;
mod metrics;
mod run;
mod workload;

use run::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_skew|zipf_rollover|multi_churn|sharded_zipf|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && workload::find(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    })
}

/// Runs `cmd` and returns its first output line, if it ran.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// The host record printed with every result.
fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        first_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    // Never look above the directory the benchmark runs in.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    let commit = first_line(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown".into());
    format!("host: nproc={nproc} cpu={cpu:?} rustc={rustc:?} commit={commit}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report(args: &Args, w: &workload::Workload, o: &Outcome) -> bool {
    println!("{}", host_record());
    if w.shards > 1 {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        if nproc < w.shards + 1 {
            println!(
                "warning: nproc={nproc} < shards+1={}: the coordinator and {} workers share cores; \
                 no parallel speedup is reported",
                w.shards + 1,
                w.shards
            );
        }
    }
    println!(
        "workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    for line in &o.notes {
        println!("{line}");
    }
    assert!(
        metrics::complete(&o.metrics, args.trace),
        "a catalogued metric is missing"
    );
    for m in &o.metrics {
        println!("{} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    for e in &o.errors {
        println!("OUTPUT CHECK FAILED: {e}");
    }
    let metrics: Vec<(String, f64, &str)> = o
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit))
        .collect();
    println!(
        "{}",
        result_json(o.correct, o.attempted, o.failed, &metrics)
    );
    o.correct
}

/// Runs every workload in a child process of its own (so each reports its
/// own peak memory) and combines their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let table: &[(&str, &str)] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut combined = Vec::new();
    for w in &workload::WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let Ok(out) = out else {
            println!("{}: could not start", w.name);
            all_correct = false;
            continue;
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let last = text.lines().last().unwrap_or("");
        all_correct &= out.status.success() && last.contains("\"correct\": true");
        attempted += field(last, "\"attempted\": ");
        failed += field(last, "\"failed\": ");
        for (name, unit) in table {
            if let Some(value) = number(last, &format!("\"{name}\": {{\"value\": ")) {
                combined.push((format!("{}.{name}", w.name), value, *unit));
            }
        }
    }
    println!("{}", result_json(all_correct, attempted, failed, &combined));
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The number following `key` in `line`.
fn number(line: &str, key: &str) -> Option<f64> {
    let (_, rest) = line.split_once(key)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

/// The whole number following `key` in `line` (0 when absent).
fn field(line: &str, key: &str) -> u64 {
    number(line, key).map_or(0, |v| v as u64)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = workload::find(&args.workload).expect("validated workload name");
    let outcome = if args.trace {
        let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}-spans.csv", w.name));
        run::traced(w, args.seed, args.seconds, &spans)
    } else {
        run::end_to_end(w, args.seed, args.seconds)
    };
    if report(&args, w, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_validated() {
        let a = parse_args(&argv(
            "--workload paper_skew --seed 4 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (4, 3, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload paper_skew --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper_skew --seed -1")).is_err());
        assert!(parse_args(&argv("--workload paper_skew --bogus 1")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("recall".into(), 0.5, "ratio")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"recall\": {\"value\": 0.5, \"unit\": \"ratio\"}}}"
        );
        assert_eq!(field(&line, "\"attempted\": "), 10);
        assert_eq!(number(&line, "\"recall\": {\"value\": "), Some(0.5));
    }
}
