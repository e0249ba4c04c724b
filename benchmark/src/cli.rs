//! Argument parsing and the entry point both binaries share.

use std::io::Read as _;
use std::process::ExitCode;

use crate::e2e::{end_to_end_result, readings, render_context, run_phases, RunArgs};
use crate::output::validate_result_line;
use crate::spec::{benchmark_json, END_TO_END, PER_LAYER, RUN_SECONDS, WORLD_SEED};
use crate::stats::{quartiles, spread};
use crate::workload::{Inputs, Workload};

const USAGE: &str = "\
usage: bash benchmark/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1]
                             [--world-seed N] [--smoke] [--trace-out FILE]
       bash benchmark/run.sh --print-spec
       bash benchmark/run.sh --validate 0|1          (result on stdin)
       bash benchmark/run.sh --compare A.jsonl [B.jsonl]

workloads: cold_sweep lossy_sweep serve_mixed
defaults:  --seed 2021 --seconds 30 --trace 0 --world-seed 2021";

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Run one workload.
    Run {
        /// The run's inputs.
        workload: Workload,
        /// `--seed`, `--world-seed`, `--smoke`
        inputs: Inputs,
        /// `--seconds`
        seconds: u32,
        /// `--trace 1`
        trace: bool,
        /// `--trace-out`
        trace_out: Option<String>,
    },
    /// Print `BENCHMARK.json`.
    PrintSpec,
    /// Validate the result on stdin against one mode's schema.
    Validate {
        /// Which metric set the line must carry.
        trace: bool,
    },
    /// Summarise one set of result lines, or compare two.
    Compare(Vec<String>),
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut inputs = Inputs {
        seed: 2021,
        world_seed: WORLD_SEED,
        smoke: false,
    };
    let (mut seconds, mut trace) = (RUN_SECONDS, false);
    let mut trace_out = None;
    let mut it = args.iter();
    let flag01 = |v: &str| match v {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("expected 0 or 1, got {other:?}")),
    };
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(String::as_str)
                .ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                inputs.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed is not a whole number")?;
            }
            "--world-seed" => {
                inputs.world_seed = value("--world-seed")?
                    .parse()
                    .map_err(|_| "--world-seed is not a whole number")?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds must be 1..=600")?;
            }
            "--trace" => trace = flag01(value("--trace")?)?,
            "--trace-out" => trace_out = Some(value("--trace-out")?.to_string()),
            "--smoke" => inputs.smoke = true,
            "--print-spec" => return Ok(Command::PrintSpec),
            "--validate" => {
                return Ok(Command::Validate {
                    trace: flag01(value("--validate")?)?,
                })
            }
            "--compare" => {
                let files: Vec<String> = it.cloned().collect();
                if files.is_empty() || files.len() > 2 {
                    return Err("--compare takes one or two files".into());
                }
                return Ok(Command::Compare(files));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        inputs,
        seconds,
        trace,
        trace_out,
    })
}

/// The entry point. `traced_binary` says which executable this is: the
/// traced one installs the counting allocator and runs only
/// `--trace 1`; `run.sh` picks the right one.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cmd {
        Command::PrintSpec => {
            print!("{}", benchmark_json().render_pretty());
            Ok(())
        }
        Command::Validate { trace } => validate_stdin(trace),
        Command::Compare(files) => compare(&files),
        Command::Run { trace, .. } if trace != traced_binary => Err(format!(
            "--trace {} is served by the other binary; run through benchmark/run.sh",
            u8::from(trace)
        )),
        Command::Run {
            workload,
            inputs,
            seconds,
            trace,
            trace_out,
        } => {
            // The service's sweep thread resolves its worker count from
            // the environment (`with_threads` is thread-local and does
            // not reach it). Set before the first pipeline call, while
            // this is still the only thread.
            std::env::set_var("CLIENTMAP_THREADS", "1");
            let run = RunArgs {
                workload,
                inputs,
                seconds,
            };
            if trace {
                crate::traced::run(run, trace_out.as_deref())
            } else {
                run_untraced(run)
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_untraced(args: RunArgs) -> Result<(), String> {
    let phases = run_phases(args)?;
    let readings = readings(&phases);
    let result = end_to_end_result(&phases, &readings);
    // The in-process service wrote its `listening on` line to stdout
    // already; the result block goes last.
    print!("{}", render_context(args, &phases, &readings));
    print!("{}", result.render_table());
    println!("{}", result.to_json().render());
    Ok(())
}

fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn validate_stdin(trace: bool) -> Result<(), String> {
    let mut text = String::new();
    std::io::stdin()
        .read_to_string(&mut text)
        .map_err(|e| e.to_string())?;
    let line = text.lines().last().ok_or("no output to validate")?;
    let metrics = validate_result_line(line, &expected(trace))?;
    let doc = crate::json::Json::parse(line)?;
    if doc.get("correct") != Some(&crate::json::Json::Bool(true)) {
        return Err("run reported correct=false".into());
    }
    println!("result line ok: {} metrics", metrics.len());
    Ok(())
}

/// Reads one `.jsonl` set: one end-to-end result line per run.
fn read_set(path: &str) -> Result<Vec<Vec<(String, f64)>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| validate_result_line(l, &expected(false)).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// One set: median, quartiles and spread per metric. Two sets: both,
/// plus the relative shift of B's median against A's, failing when it
/// exceeds the metric's bound in either direction — the two sets are
/// the same build, so any shift is noise the bound must absorb.
fn compare(files: &[String]) -> Result<(), String> {
    let sets: Vec<Vec<Vec<(String, f64)>>> = files
        .iter()
        .map(|f| read_set(f))
        .collect::<Result<_, _>>()?;
    let mut over = Vec::new();
    println!(
        "{:<20} {:>3} {:>14} {:>14} {:>14} {:>8}  {:>8} {:>6}",
        "metric", "set", "q1", "median", "q3", "spread", "shift", "bound"
    );
    for (mi, m) in END_TO_END.iter().enumerate() {
        let mut medians = Vec::new();
        for (si, set) in sets.iter().enumerate() {
            let values: Vec<f64> = set.iter().map(|run| run[mi].1).collect();
            let [q1, q2, q3] = quartiles(&values).ok_or("a set needs at least two runs")?;
            let sp = spread(&values).unwrap_or(0.0);
            medians.push(q2);
            let shift = match medians[..] {
                [a, b] if a != 0.0 => format!("{:+.2}%", 100.0 * (b - a) / a),
                _ => String::new(),
            };
            println!(
                "{:<20} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%  {:>8} {:>5.0}%",
                m.name,
                ["A", "B"][si],
                q1,
                q2,
                q3,
                100.0 * sp,
                shift,
                100.0 * m.bound
            );
        }
        if let [a, b] = medians[..] {
            if ((b - a) / a).abs() > m.bound {
                over.push(m.name);
            }
        }
    }
    println!(
        "runs per set: {:?}",
        sets.iter().map(Vec::len).collect::<Vec<_>>()
    );
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "sets disagree beyond the bound on: {}",
            over.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse(&args(
            "--workload lossy_sweep --seed 9 --seconds 20 --trace 1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Run {
                workload: Workload::LossySweep,
                inputs: Inputs {
                    seed: 9,
                    world_seed: WORLD_SEED,
                    smoke: false,
                },
                seconds: 20,
                trace: true,
                trace_out: None,
            })
        );
        assert!(matches!(
            parse(&args("--workload cold_sweep")),
            Ok(Command::Run {
                inputs: Inputs {
                    seed: 2021,
                    world_seed: WORLD_SEED,
                    smoke: false
                },
                seconds: RUN_SECONDS,
                trace: false,
                ..
            })
        ));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload cold_sweep --trace yes")).is_err());
        assert!(parse(&args("--workload cold_sweep --seconds 0")).is_err());
        assert!(parse(&args("--workload cold_sweep --seed")).is_err());
        assert!(parse(&args("--compare")).is_err());
        assert_eq!(parse(&args("--print-spec")), Ok(Command::PrintSpec));
        assert_eq!(
            parse(&args("--compare a b")),
            Ok(Command::Compare(vec!["a".into(), "b".into()]))
        );
    }
}
