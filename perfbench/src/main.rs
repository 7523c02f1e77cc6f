//! One benchmark for the randmod MBPTA pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--expect-digest HEX]
//! ```
//!
//! The workload is set up five times (the median is `setup_s`), then
//! timed passes repeat until `--seconds` have elapsed.  Every pass is
//! checked: its own correctness gates, and a digest of every run's cycles
//! and hierarchy counters that must match the first pass.  After the
//! passes, `verify` checks the golden pins and that one campaign thread
//! gives the same runs and counts as two.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` untraced and traced passes
//! alternate, and it carries the per-layer metrics taken from the spans.
//! The line before it is the full record (host, quartiles, counts).  The
//! record and, when traced, every span go to `.bench_out/`.  Any gate
//! failure makes the exit code 1.

mod common;
mod contended;
mod heap;
mod host;
mod layout;
mod report;
mod solo;
mod spans;
mod stats;
mod store;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{Pass, Workload, DEFAULT_SEED};
use report::{breakdown, Breakdown};
use spans::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "solo_placements",
    "layout_sweep",
    "contended_ladder",
    "store_roundtrip",
];
const SETUP_REPEATS: usize = 5;
const OUT_DIR: &str = ".bench_out";

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expect_digest: Option<u64>,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] [--expect-digest HEX]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expect_digest: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, not {other}")),
                }
            }
            "--expect-digest" => {
                let raw = value()?;
                args.expect_digest = Some(
                    u64::from_str_radix(raw.trim_start_matches("0x"), 16)
                        .map_err(|e| format!("--expect-digest: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be between 0 and 600".to_string());
    }
    Ok(args)
}

fn setup(args: &Args, instance: usize) -> Result<Box<dyn Workload>, String> {
    let tiny = args.tiny;
    Ok(match args.workload.as_str() {
        "solo_placements" => Box::new(solo::Solo::setup(args.seed, if tiny { 40 } else { 1000 })?),
        "layout_sweep" => Box::new(layout::Layout::setup(
            args.seed,
            if tiny { 4 } else { 128 },
        )?),
        "contended_ladder" => Box::new(contended::Contended::setup(
            args.seed,
            if tiny { 20 } else { 300 },
        )?),
        _ => {
            let size = if tiny {
                store::StoreSize {
                    cold: 2,
                    warm: 20,
                    spec_runs: 8,
                    checkpoint_runs: 32,
                }
            } else {
                store::StoreSize {
                    cold: 16,
                    warm: 2000,
                    spec_runs: 40,
                    checkpoint_runs: 1000,
                }
            };
            Box::new(store::Store::setup(
                args.seed,
                size,
                Path::new(OUT_DIR),
                instance,
            )?)
        }
    })
}

struct Timed {
    wall_s: f64,
    traced: bool,
    pass: Pass,
    breakdown: Option<Breakdown>,
}

fn run(args: &Args) -> Result<bool, String> {
    let host = host::Host::detect();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    // Set up several times; keep the last instance.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for instance in 0..SETUP_REPEATS {
        if let Some(mut previous) = workload.take() {
            previous.teardown();
        }
        let start = Instant::now();
        let built: Box<dyn Workload> = setup(args, instance)?;
        setup_s.push(start.elapsed().as_secs_f64());
        workload = Some(built);
    }
    let Some(mut workload) = workload else {
        return Err("no workload instance".to_string());
    };

    let tracer = Tracer::new();
    let mut passes: Vec<Timed> = Vec::new();
    let mut all_spans = Vec::new();
    let min_passes = if args.trace { 2 } else { 1 };
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    heap::reset_peak();
    let outcome = loop {
        if let Err(err) = workload.prepare() {
            break Err(err);
        }
        let traced = args.trace && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let start = Instant::now();
        let pass = tracer.span("pass", || workload.pass(&tracer));
        let wall_s = start.elapsed().as_secs_f64();
        tracer.set_enabled(false);
        let breakdown = traced.then(|| {
            let spans = tracer.take();
            let b = breakdown(&spans);
            all_spans.push(spans);
            b
        });
        passes.push(Timed {
            wall_s,
            traced,
            pass,
            breakdown,
        });
        // Stop when another pass of typical length would overrun.
        let typical = stats::summarize(&passes.iter().map(|t| t.wall_s).collect::<Vec<_>>()).median;
        if passes.len() >= min_passes
            && Instant::now() + Duration::from_secs_f64(typical / 2.0) >= deadline
        {
            break Ok(());
        }
    };
    let peak_heap = heap::peak_mib();
    let mut failures: Vec<String> = Vec::new();
    if let Err(err) = outcome {
        failures.push(err);
    }
    let Some(first) = passes.first() else {
        workload.teardown();
        return Err("no pass completed".to_string());
    };
    let first_digest = first.pass.digest.value();
    let first_counts = first.pass.counts.clone();
    let mut attempted = 0u64;
    for (i, timed) in passes.iter().enumerate() {
        attempted += timed.pass.attempted + 2;
        failures.extend(timed.pass.failures.iter().map(|f| format!("pass {i}: {f}")));
        if timed.pass.digest.value() != first_digest {
            failures.push(format!(
                "pass {i}: output digest {:016x} differs from pass 0's {first_digest:016x}",
                timed.pass.digest.value()
            ));
        }
        if timed.pass.counts != first_counts {
            failures.push(format!("pass {i}: work counts differ from pass 0's"));
        }
    }
    if let Some(expected) = args.expect_digest {
        attempted += 1;
        if expected != first_digest {
            failures.push(format!(
                "output digest {first_digest:016x}, expected {expected:016x}"
            ));
        }
    }
    let verified = workload.verify(&first.pass);
    attempted += 1;
    failures.extend(verified);
    workload.teardown();

    let untraced: Vec<(f64, &Pass)> = passes
        .iter()
        .filter(|t| !t.traced)
        .map(|t| (t.wall_s, &t.pass))
        .collect();
    let traced: Vec<(&Pass, Breakdown)> = passes
        .iter()
        .filter_map(|t| t.breakdown.clone().map(|b| (&t.pass, b)))
        .collect();
    let untraced_walls: Vec<f64> = untraced.iter().map(|(w, _)| *w).collect();
    let e2e = report::end_to_end(&untraced, &setup_s, peak_heap);
    let layers = if args.trace {
        report::per_layer(&traced, &untraced_walls)
    } else {
        Vec::new()
    };
    let mut operations = report::operations(&untraced);
    operations.push(report::Metric::new(
        "peak_rss_mib",
        "MiB",
        &[host::peak_rss_mib()],
    ));
    let detail = report::layer_detail(&traced);
    let correct = failures.is_empty();
    let record = report::record_json(
        &args.workload,
        args.seed,
        args.trace,
        &host,
        passes.len(),
        first_digest,
        &first_counts.0,
        &[
            ("end_to_end", &e2e),
            ("operations", &operations),
            ("per_layer", &layers),
            ("layer_detail", &detail),
        ],
        &failures,
    );
    let stem = format!(
        "{OUT_DIR}/{}-{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(format!("{stem}.record.json"), &record);
    if args.trace {
        let rendered: Vec<String> = all_spans.iter().map(|s| spans::to_json(s)).collect();
        let _ = std::fs::write(
            format!("{stem}.spans.json"),
            format!("[{}]", rendered.join(",\n")),
        );
    }
    for failure in &failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    println!("{record}");
    let shown = if args.trace { &layers } else { &e2e };
    println!(
        "{}",
        report::result_line(correct, attempted, failures.len() as u64, shown)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(1)
        }
    }
}
