//! The whole-pipeline benchmark of the apg workspace. See README.md.

mod compare;
mod json;
mod metrics;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use report::{RepRecord, RunInfo, WorkloadResult, MIN_STEP_COVERAGE_PCT};
use workloads::{RepParams, Scale, Workload, NOMINAL_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage:
  apg-benchmark run   [--seed N] [--reps N] [--out FILE]
        every workload: N untraced repetitions, one traced, and (powerlaw_refine) one at one
        thread; checks the outputs, prints every metric, writes out/results.json
  apg-benchmark trace [same flags]
        `run` with --reps 1 by default and no one-thread run: the traces and per-layer table
  apg-benchmark smoke [same flags]
        `trace` plus the one-thread run at toy size, every check on, in seconds
  apg-benchmark compare A.json B.json
        two result files, metric by metric; fails on any `worse` or any mismatch
  apg-benchmark --workload NAME --seed N --seconds N --trace 0|1
        one repetition in this process and one JSON line, as BENCHMARK.json's driver wants it

--seed    default 42; the only randomness
--reps    default 3; each repetition is a fresh process, so peak_rss_mb is per workload
--seconds the driver's run length: 10 is the workloads' own size, other values scale the
          number of steps (never the graphs)

Worker threads are min(cores, 4).";

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn default_threads() -> usize {
    cores().min(4)
}

/// `benchmark/out`: beside the manifest, on the same disk as the
/// repository, so the stores' fsyncs are real.
fn out_dir() -> Result<PathBuf, String> {
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    let out = package.join("out");
    fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    Ok(out)
}

/// `--flag value` pairs, as given.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn all(&self, flag: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.all(flag).last() {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag} wants a whole number, got {text:?}")),
        }
    }

    fn positive(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.number(flag, default)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.all("--scale").last() {
            None => Ok(Scale::Full),
            Some(text) => {
                Scale::parse(text).ok_or_else(|| format!("--scale is full or smoke, got {text:?}"))
            }
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self
            .all("--workload")
            .pop()
            .ok_or("--workload is required")?;
        Workload::named(name).ok_or_else(|| format!("no workload named {name:?}"))
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One repetition in this process. A traced one also writes its trace.
fn rep_here(workload: &Workload, params: &RepParams) -> Result<RepRecord, String> {
    let rep = workloads::run_rep(workload, params)?;
    if params.traced {
        let path = params.out_dir.join(format!("trace-{}.json", workload.name));
        write_file(
            &path,
            &trace::chrome_trace(workload.name, &rep.spans).pretty(),
        )?;
    }
    Ok(RepRecord::of(&rep))
}

/// One repetition in a fresh process: this executable's `rep` command.
fn rep_in_child(workload: &Workload, params: &RepParams) -> Result<RepRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .arg("rep")
        .args(["--workload", workload.name])
        .args(["--seed", &params.seed.to_string()])
        .args(["--threads", &params.threads.to_string()])
        .args(["--scale", params.scale.label()])
        .args(["--trace", if params.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a repetition of {}: {e}", workload.name))?;
    if !output.status.success() {
        return Err(format!(
            "a repetition of {} ended with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("a repetition printed nothing")?;
    RepRecord::from_json(&Json::parse(line)?)
}

/// The hidden `rep` command: the child side of `rep_in_child`.
fn command_rep(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--threads", "--scale", "--trace"],
    )?;
    let params = RepParams {
        seed: flags.number("--seed", 42)?,
        threads: flags.positive("--threads", default_threads() as u64)? as usize,
        scale: flags.scale()?,
        seconds: NOMINAL_SECONDS,
        traced: flags.number("--trace", 0)? == 1,
        out_dir: out_dir()?,
    };
    println!(
        "{}",
        rep_here(flags.workload()?, &params)?.to_json().compact()
    );
    Ok(ExitCode::SUCCESS)
}

struct RunPlan {
    reps: usize,
    one_thread_rep: bool,
    scale: Scale,
    results_file: &'static str,
}

fn command_run(args: &[String], plan: RunPlan) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed", "--reps", "--out"])?;
    let out = out_dir()?;
    let reps = flags.positive("--reps", plan.reps as u64)? as usize;
    let params = RepParams {
        seed: flags.number("--seed", 42)?,
        threads: default_threads(),
        scale: plan.scale,
        seconds: NOMINAL_SECONDS,
        traced: false,
        out_dir: out.clone(),
    };
    let info = RunInfo {
        seed: params.seed,
        threads: params.threads,
        cores: cores(),
        reps,
        scale: plan.scale.label(),
    };

    let mut results: Vec<WorkloadResult> = Vec::new();
    for workload in &WORKLOADS {
        eprintln!(
            "{}: {reps} untraced repetitions around the traced one",
            workload.name
        );
        // The traced repetition runs in the middle of the untraced ones it
        // is judged against, so a slow spell of the machine falls on both.
        let before = reps.div_ceil(2);
        let mut untraced: Vec<RepRecord> = (0..before)
            .map(|_| rep_in_child(workload, &params))
            .collect::<Result<_, _>>()?;
        let traced = rep_in_child(
            workload,
            &RepParams {
                traced: true,
                ..params.clone()
            },
        )?;
        for _ in before..reps {
            untraced.push(rep_in_child(workload, &params)?);
        }
        let one_thread =
            if plan.one_thread_rep && workload.wants_one_thread_rep() && params.threads > 1 {
                Some(rep_in_child(
                    workload,
                    &RepParams {
                        threads: 1,
                        ..params.clone()
                    },
                )?)
            } else {
                None
            };
        results.push(report::aggregate(
            workload,
            &untraced,
            Some(&traced),
            one_thread.as_ref(),
            plan.scale == Scale::Full,
        ));
    }

    report::print_table(&info, &results);
    let path = match flags.all("--out").last() {
        Some(path) => PathBuf::from(path),
        None => out.join(plan.results_file),
    };
    write_file(&path, &report::results_json(&info, &results).pretty())?;
    println!();
    println!("results: {}", path.display());
    println!("traces:  {}", out.join("trace-<workload>.json").display());
    let failed: usize = results.iter().map(|r| r.failures.len()).sum();
    if failed > 0 {
        println!("{failed} failed operations or checks");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn command_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err("compare wants two result files".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(if compare::compare(&read(base)?, &read(change)?)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The contract of `BENCHMARK.json`: one workload, one repetition, here,
/// and as the last line of standard output one JSON object.
fn command_driver(args: &[String]) -> Result<ExitCode, String> {
    // `--scale smoke` is for the harness's own tests; the contract runs at
    // full size.
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--scale"],
    )?;
    let workload = flags.workload()?;
    let traced = match flags.number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    let params = RepParams {
        seed: flags.number("--seed", 42)?,
        threads: default_threads(),
        scale: flags.scale()?,
        seconds: flags.positive("--seconds", NOMINAL_SECONDS)?,
        traced,
        out_dir: out_dir()?,
    };
    let mut rep = rep_here(workload, &params)?;
    let mut reported = Json::obj();
    if traced {
        match rep.metric("trace.step_coverage_pct") {
            Some(coverage) if coverage >= MIN_STEP_COVERAGE_PCT => {}
            coverage => rep
                .failures
                .push(format!("child spans cover {coverage:?}% of the step time")),
        }
        for name in metrics::DRIVER_PER_LAYER {
            // Zero is the reading of a layer the workload never enters;
            // the declared set holds only metrics for which that is true.
            let mut entry = Json::obj();
            entry.set("value", rep.metric(name).unwrap_or(0.0)).set(
                "unit",
                metrics::unit_of(name).expect("declared from the table"),
            );
            reported.set(name, entry);
        }
    } else {
        for (name, _) in metrics::DRIVER_END_TO_END {
            let value = rep
                .metric(name)
                .ok_or_else(|| format!("{} did not report {name}", workload.name))?;
            let mut entry = Json::obj();
            entry.set("value", value).set(
                "unit",
                metrics::unit_of(name).expect("declared from the table"),
            );
            reported.set(name, entry);
        }
    }
    for failure in &rep.failures {
        eprintln!("FAILED: {failure}");
    }
    let mut line = Json::obj();
    line.set("correct", rep.failures.is_empty())
        .set("attempted", rep.steps)
        .set("failed", rep.failures.len())
        .set("metrics", reported);
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => command_run(
            &args[1..],
            RunPlan {
                reps: 3,
                one_thread_rep: true,
                scale: Scale::Full,
                results_file: "results.json",
            },
        ),
        Some("trace") => command_run(
            &args[1..],
            RunPlan {
                reps: 1,
                one_thread_rep: false,
                scale: Scale::Full,
                results_file: "results-trace.json",
            },
        ),
        Some("smoke") => command_run(
            &args[1..],
            RunPlan {
                reps: 1,
                one_thread_rep: true,
                scale: Scale::Smoke,
                results_file: "results-smoke.json",
            },
        ),
        Some("compare") => command_compare(&args[1..]),
        Some("rep") => command_rep(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => command_driver(args),
        _ => {
            println!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("apg-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
