//! End-to-end benchmark of the FORMS serving stack.
//!
//! ```text
//! formsbench --workload <vgg-layer|mlp-small|mlp-rewrite> --seed <n> --seconds <s> --trace <0|1>
//! formsbench compare <parent-run-set> <change-run-set> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! A run prints a human-readable account on standard error and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See the README
//! beside this package for the workloads, metrics and the `compare` rule.

mod compare;
mod drive;
mod host;
mod layers;
mod run;
mod spans;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use workload::Workload;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: formsbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         formsbench compare <parent-run-set> <change-run-set> [--benchmark <BENCHMARK.json>]\n\
         Re-check any claim on the held-out seed {}.",
        names.join("|"),
        workload::HELD_OUT_SEED
    )
}

/// Parsed `run` arguments.
#[derive(Debug, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=120).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let parsed = match parse_run(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run::run(parsed.workload, parsed.seed, parsed.seconds, parsed.trace) {
        Ok(result) => {
            for m in &result.metrics {
                // The device and hwmodel figures come from the paper's
                // Table III power model, which no silicon has validated.
                let modeled = m.name.starts_with("device_") || m.name.starts_with("hwmodel.");
                let note = if modeled {
                    "  (modeled, unvalidated)"
                } else {
                    ""
                };
                eprintln!("  {:<34} {:>14.4} {}{note}", m.name, m.value, m.unit);
            }
            for p in &result.problems {
                eprintln!("FAILED: {p}");
            }
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = p.clone(),
                None => {
                    eprintln!("--benchmark needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    let [parent, change] = paths.as_slice() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let report = compare::read_specs(Path::new(&benchmark))
        .and_then(|specs| compare::compare(Path::new(parent), Path::new(change), &specs));
    match report {
        Ok((text, regressed)) => {
            print!("{text}");
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("compare failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let parsed = parse_run(&args(
            "--workload mlp-rewrite --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            parsed,
            RunArgs {
                workload: Workload::MlpRewrite,
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        assert!(parse_run(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_run(&args("--workload vgg-layer --seed 1 --seconds 0")).is_err());
        assert!(parse_run(&args("--workload vgg-layer --seconds 5")).is_err());
        assert!(parse_run(&args("--workload vgg-layer --seed 1 --seconds 5 --trace 2")).is_err());
    }
}
