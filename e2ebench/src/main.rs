//! Command line: `oasis-e2ebench --workload <session|federated|revocation>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints one run record (provenance, exact counts and the result),
//! then the result object as the last line of standard output. A traced
//! run also writes its spans under `out/` beside this crate.

use std::path::PathBuf;
use std::process::ExitCode;

use oasis_e2ebench::{provenance, run, Options, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut opts = Options::new(workload, seed);
    opts.seconds = seconds;
    opts.trace = trace;
    opts.out_dir = Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")));
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("oasis-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let record = format!(
        "{{{}, \"counts\": {{{}}}, \"result\": {}}}",
        provenance(&opts),
        counts.join(", "),
        report.result_json()
    );
    println!("{record}");
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
