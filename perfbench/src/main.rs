//! Whole-assembly benchmark of the diBELLA 2D pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload short-exact --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Simulates the workload's inputs from `--seed`, assembles each of them
//! untraced (round-robin, for at least `--seconds` seconds and at least one
//! pass plus a repeat of the first input), checks every run's output, and
//! with `--trace 1` makes one traced run of the first input that times each
//! layer.  Prints a table of metrics and, as its last line, one JSON object
//! with the `--trace 0` end-to-end metrics or the `--trace 1` per-layer
//! metrics.  The traced run's spans go to
//! `perfbench/traces/<workload>-seed<seed>.json`.

// A benchmark times with the wall clock by design, as the bench crate's
// harnesses do.
#![allow(clippy::disallowed_methods)]

use dibella_dist::with_threads;
use dibella_perfbench::traced::{assemble_traced, layer_metrics};
use dibella_perfbench::{median, output_digest, Input, Metric, Quality, Workload, END_TO_END};
use dibella_pipeline::{run_dibella_2d, PipelineConfig};
use dibella_testutil::PeakAlloc;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected seconds in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// One input and what its untraced runs measured.
struct Measured {
    input: Input,
    setup_s: f64,
    seconds: Vec<f64>,
    peak_heap_bytes: Vec<f64>,
    /// Digest, communication words and quality of the first good run.
    first: Option<(u64, u64, Quality)>,
}

impl Measured {
    /// Simulate and serialise input `index`, timing it.
    fn set_up(workload: Workload, seed: u64, index: usize) -> Self {
        let start = Instant::now();
        let input = black_box(workload.input(seed, index));
        Self {
            setup_s: start.elapsed().as_secs_f64(),
            input,
            seconds: Vec::new(),
            peak_heap_bytes: Vec::new(),
            first: None,
        }
    }

    /// One timed `run_dibella_2d`.  A panic, an `Err`, a quality below the
    /// workload's floor or a digest differing from this input's first run
    /// is a failure, returned as its reason.
    fn run(
        &mut self,
        workload: Workload,
        config: &PipelineConfig,
        threads: usize,
    ) -> Result<(), String> {
        ALLOC.reset_peak();
        let heap_base = ALLOC.current();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(threads, || {
                run_dibella_2d(black_box(&self.input.fasta), config)
            })
        }));
        let secs = start.elapsed().as_secs_f64();
        let peak = ALLOC.peak_resident().saturating_sub(heap_base);
        let out = match result {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => return Err(format!("run_dibella_2d returned Err: {e}")),
            Err(_) => return Err("run_dibella_2d panicked".to_string()),
        };
        let digest = output_digest(&out.string_matrix, &out.consensus);
        match self.first {
            None => {
                let quality = self.input.quality(&out.contigs, &out.consensus, config);
                workload.check(&quality)?;
                self.first = Some((digest, out.comm.total_words(), quality));
            }
            Some((first, _, _)) if first != digest => {
                return Err(format!(
                    "digest {digest:#x} differs from the first run's {first:#x}"
                ));
            }
            Some(_) => {}
        }
        self.seconds.push(secs);
        self.peak_heap_bytes.push(peak as f64);
        Ok(())
    }
}

/// The last line of output: the result object the benchmark contract
/// defines.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: dibella-perfbench --workload <short-exact|long-exact|short-kminmer> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let config = workload.config();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Untraced runs, round-robin over the inputs: at least one pass plus a
    // repeat of the first input (so every run checks determinism against a
    // digest), then more passes until the time is spent.  Each input is set
    // up just before its first run, so the set-ups sample the whole run
    // rather than one moment of the host's load.
    let count = workload.inputs_per_run();
    let mut inputs: Vec<Measured> = Vec::with_capacity(count);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut next = 0;
    while next <= count || start.elapsed() < budget {
        let index = next % count;
        if index == inputs.len() {
            inputs.push(Measured::set_up(workload, args.seed, index));
        }
        attempted += 1;
        if let Err(why) = inputs[index].run(workload, &config, threads) {
            eprintln!("run {attempted} (input {index}) failed: {why}");
            failed += 1;
        }
        next += 1;
    }
    let reads: usize = inputs.iter().map(|m| m.input.dataset.reads.len()).sum();
    let bases: usize = inputs
        .iter()
        .map(|m| m.input.dataset.reads.total_bases())
        .sum();
    println!(
        "workload {}: {count} inputs, {reads} reads, {bases} bases, genome {} bp each, {}, \
         {:?} path, {} virtual ranks, {threads} worker threads, seed {}",
        workload.name(),
        inputs[0].input.dataset.genome.len(),
        workload.config_name(),
        config.candidate_source,
        config.nprocs,
        args.seed,
    );
    if inputs.iter().any(|m| m.first.is_none()) {
        println!("{}", result_line(attempted, failed, &[]));
        return ExitCode::FAILURE;
    }
    let samples = inputs.iter().map(|m| m.seconds.len()).sum::<usize>();
    // Each input contributes its median; the run reports their mean.
    let mean =
        |f: &dyn Fn(&Measured) -> f64| inputs.iter().map(f).sum::<f64>() / inputs.len() as f64;
    let first = |m: &Measured| m.first.expect("every input has a good run");

    let metrics: Vec<(Metric, usize)> = if !args.trace {
        let values = [
            (mean(&|m| median(&m.seconds)), samples),
            (
                median(&inputs.iter().map(|m| m.setup_s).collect::<Vec<_>>()),
                inputs.len(),
            ),
            (mean(&|m| median(&m.peak_heap_bytes)) / MIB, samples),
            (mean(&|m| first(m).1 as f64) / 1e6, samples),
            (mean(&|m| first(m).2.ng50_bp as f64), samples),
            (mean(&|m| first(m).2.identity), samples),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), (value, n))| (Metric::new(name, value, unit), n))
            .collect()
    } else {
        // One traced run of the first input; its output must match the
        // untraced runs' of that input.
        attempted += 1;
        let measured = &inputs[0];
        let run_id = (u64::from(std::process::id()) << 32) ^ args.seed;
        let traced = catch_unwind(AssertUnwindSafe(|| {
            assemble_traced(&measured.input.fasta, &config, threads, run_id, &ALLOC)
        }));
        let run = match traced {
            Ok(Ok(run)) => run,
            outcome => {
                let why = match outcome {
                    Ok(Err(e)) => e,
                    _ => "panicked".to_string(),
                };
                eprintln!("traced run failed: {why}");
                println!("{}", result_line(attempted, failed + 1, &[]));
                return ExitCode::FAILURE;
            }
        };
        let untraced_digest = first(measured).0;
        if run.digest != untraced_digest {
            eprintln!(
                "traced digest {:#x} differs from the untraced {untraced_digest:#x}",
                run.digest
            );
            failed += 1;
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.json", workload.name(), args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&path, run.trace.to_json()));
        if let Err(e) = written {
            eprintln!("could not write {}: {e}", path.display());
        }
        let quality = measured
            .input
            .quality(&run.contigs, &run.consensus, &config);
        layer_metrics(&run, median(&measured.seconds), &quality)
            .into_iter()
            .map(|m| (m, 1))
            .collect()
    };

    for (m, n) in &metrics {
        println!("{:<34} {:>18.6} {:<9} samples {n}", m.name, m.value, m.unit);
    }
    let metrics: Vec<Metric> = metrics.into_iter().map(|(m, _)| m).collect();
    println!("{}", result_line(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
