//! qsnc's benchmark: one command that runs a seeded workload against the
//! release build, checks its outputs, and prints every end-to-end metric —
//! or, with `--trace 1`, every per-layer metric with span self times.
//!
//! ```text
//! perfbench --workload serve_open|train_deploy
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it through `perfbench/run.py` from the root of a checkout, which
//! builds `qsnc` and this program first. The last line of stdout is a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod model;
mod open_loop;
mod report;
mod serve_open;
mod server;
mod stats;
mod trace;
mod train_deploy;

use qsnc_core::QuantizedModel;
use report::{Metrics, Tally, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

pub const WORKLOADS: [&str; 2] = ["serve_open", "train_deploy"];

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    /// The `qsnc` binary built beside this one.
    pub qsnc: PathBuf,
    /// Scratch files of this run (artifacts), inside the checkout.
    pub out_dir: PathBuf,
    pub epoch: Instant,
}

/// The result of one measured phase of a workload.
pub struct Phase {
    /// End-to-end metrics other than `setup_s`.
    pub e2e: Metrics,
    /// Per-layer metrics the workload's own traffic produced.
    pub layers: Metrics,
    pub tally: Tally,
    pub rungs: Vec<open_loop::Rung>,
    /// Integer-engine stage time per batch, when the workload ran one.
    pub engine: Option<layers::EngineTimes>,
}

pub trait Workload {
    /// Each timed set-up so far, in seconds: those before the first phase
    /// and those the phases interleave with their passes.
    fn setup_s(&self) -> &[f64];
    /// Runs the workload's measurement for `budget`.
    fn phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Result<Phase, String>;
    /// The trained network the workload deployed.
    fn model(&mut self) -> &mut QuantizedModel;
    /// The held-out inputs requests draw from.
    fn inputs(&self) -> &[Vec<f32>];
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("invalid value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// FNV-1a-64 over the program's sources, so a result names the code it
/// measured even where no version-control metadata exists.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["src", "crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("none".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Ticks the host took from this machine's CPUs while they had work
/// (`steal` in `/proc/stat`), and all ticks; zeros where unreadable.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The result row: what ran, where, on which code, how much CPU the host
/// took since `ticks_at_start`, and each rung's counts.
fn print_row(args: &Args, phase: &Phase, setup_s: &[f64], ticks_at_start: (u64, u64)) {
    let ticks = cpu_ticks();
    let steal_frac = layers::ratio(
        ticks.0.saturating_sub(ticks_at_start.0) as f64,
        ticks.1.saturating_sub(ticks_at_start.1) as f64,
    );
    use qsnc_telemetry::json::Json;
    let num = |v: f64| Json::Num(v);
    let rungs = phase
        .rungs
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("rps", num(f64::from(r.rps))),
                ("sent", num(r.sent as f64)),
                ("succeeded", num(r.ok as f64)),
                ("failed", num(r.failed as f64)),
                ("busy", num(r.busy as f64)),
                ("wrong", num(r.wrong as f64)),
                ("p50_ms", num(r.p50_ms)),
                (
                    "by_pass",
                    Json::Arr(
                        r.by_pass
                            .iter()
                            .map(|v| {
                                Json::obj(vec![
                                    ("pass", num((v.pass + 1) as f64)),
                                    ("p50_ms", num(v.p50_ms)),
                                    ("p99_ms", num(v.p99_ms)),
                                    ("met", Json::Bool(v.met)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("p99_ms", num(r.p99_ms)),
                ("late_p99_ms", num(r.late_p99_ms)),
                ("pass", Json::Bool(r.pass)),
                ("passes_run", num(r.passes as f64)),
                ("best_pass", num((r.best_pass + 1) as f64)),
            ])
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let row = Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", num(nproc as f64)),
        (
            "simd",
            Json::Str(format!("{:?}", qsnc_tensor::simd::detected_simd())),
        ),
        (
            "qsnc_threads",
            Json::Str(std::env::var("QSNC_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("host_steal_frac", num(steal_frac)),
        ("git_rev", Json::Str(git_revision())),
        ("source_digest", Json::Str(source_digest())),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&v| num(v)).collect()),
        ),
        ("attempted", num(phase.tally.attempted as f64)),
        ("failed", num(phase.tally.failed as f64)),
        ("rungs", Json::Arr(rungs)),
    ]);
    println!("row {}", row.render());
}

fn run(args: &Args) -> Result<(), String> {
    let manifest =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    report::check_manifest(&manifest)?;
    // The benchmark process records program telemetry only in traced
    // phases; the serve child turns its own on through the admin endpoint.
    qsnc_telemetry::set_mode(qsnc_telemetry::TelemetryMode::Off);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out_dir = PathBuf::from("perfbench/out").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        qsnc: exe.with_file_name("qsnc"),
        out_dir: out_dir.clone(),
        epoch: Instant::now(),
    };
    let result = measure(args, &ctx);
    let _ = std::fs::remove_dir_all(&out_dir);
    result
}

fn measure(args: &Args, ctx: &Ctx) -> Result<(), String> {
    let ticks_at_start = cpu_ticks();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "serve_open" => Box::new(serve_open::ServeOpen::prepare(ctx)?),
        _ => Box::new(train_deploy::TrainDeploy::prepare(ctx)?),
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let title = format!("{} seed {}", args.workload, args.seed);
    if !args.trace {
        let mut phase = workload.phase(budget, &mut Tracer::new(false, ctx.epoch))?;
        let setup_s = workload.setup_s().to_vec();
        phase.e2e.put("setup_s", stats::median(&setup_s));
        print_phase(&title, &phase);
        print_row(args, &phase, &setup_s, ticks_at_start);
        println!(
            "{}",
            report::final_line(END_TO_END, &phase.e2e, phase.tally, false)
        );
        return Ok(());
    }

    // Traced run: the same measurement untraced then traced, half the time
    // each, so the difference between the two is the tracing overhead.
    let half = budget / 2;
    let mut untraced = workload.phase(half, &mut Tracer::new(false, ctx.epoch))?;
    let mut tracer = Tracer::new(true, ctx.epoch);
    let mut traced = workload.phase(half, &mut tracer)?;
    let setup_s = workload.setup_s().to_vec();
    for p in [&mut untraced, &mut traced] {
        p.e2e.put("setup_s", stats::median(&setup_s));
    }
    print_phase(&format!("{title}, untraced half"), &untraced);
    print_phase(&format!("{title}, traced half"), &traced);
    println!("== tracing overhead (traced − untraced)");
    for (name, unit) in END_TO_END {
        let (u, t) = (
            untraced.e2e.get(name).unwrap_or(0.0),
            traced.e2e.get(name).unwrap_or(0.0),
        );
        println!(
            "  {name:<40} {u:>12.4} {t:>12.4} {unit:<6} {:>+8.2}%",
            layers::ratio(t - u, u) * 100.0
        );
    }
    // Overhead on the workload's headline metric, as a share of its
    // untraced value, signed so that a cost is positive.
    let (headline, sign) = if args.workload == "serve_open" {
        ("p50_ms.r2000", 1.0)
    } else {
        ("throughput_img_s", -1.0)
    };
    let (u, t) = (
        untraced.e2e.get(headline).unwrap_or(0.0),
        traced.e2e.get(headline).unwrap_or(0.0),
    );
    let tally = Tally {
        attempted: untraced.tally.attempted + traced.tally.attempted,
        failed: untraced.tally.failed + traced.tally.failed,
        correct: untraced.tally.correct && traced.tally.correct,
    };

    let mut per_layer = traced.layers.clone();
    per_layer.put("failed_frac", tally.failed_frac());
    per_layer.put("bench.trace.overhead_frac", sign * layers::ratio(t - u, u));
    let inputs = workload.inputs().to_vec();
    let started = Instant::now();
    layers::measure_calls(
        workload.model(),
        &inputs,
        args.seed,
        &ctx.out_dir,
        &mut per_layer,
    )?;
    println!(
        "per-layer calls timed in {:.1} s",
        started.elapsed().as_secs_f64()
    );

    println!("== span self time ({} spans)", tracer.spans().len());
    println!(
        "  {:<28} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "self_us/span"
    );
    for s in trace::self_times(tracer.spans()) {
        println!(
            "  {:<28} {:>9} {:>12.3} {:>12.3} {:>12.3}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.self_ns as f64 / 1e3 / s.count as f64
        );
    }
    let spans_path =
        PathBuf::from("perfbench/out").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    println!("spans written to {}", spans_path.display());
    layers::print_model_vs_measured(&workload.model().net, traced.engine.as_ref());
    report::print_table("per-layer metrics", PER_LAYER, &per_layer, true);
    print_row(args, &traced, &setup_s, ticks_at_start);
    println!("{}", report::final_line(PER_LAYER, &per_layer, tally, true));
    Ok(())
}

fn print_phase(title: &str, phase: &Phase) {
    if !phase.rungs.is_empty() {
        open_loop::print_rungs(&format!("{title}: open-loop ladder"), &phase.rungs);
    }
    report::print_table(
        &format!("{title}: end-to-end"),
        END_TO_END,
        &phase.e2e,
        false,
    );
    println!(
        "  attempted {} failed {} failed_frac {:.6} correct {}",
        phase.tally.attempted,
        phase.tally.failed,
        phase.tally.failed_frac(),
        phase.tally.correct
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
