//! `qsnc` — command-line front end for the quantization-aware spiking
//! neuromorphic pipeline.
//!
//! ```bash
//! qsnc train     --model lenet --bits 4 --epochs 5 --out model.qsnc
//! qsnc evaluate  --model lenet --bits 4 --checkpoint model.qsnc
//! qsnc deploy    --model lenet --bits 4 --checkpoint model.qsnc \
//!                [--write-sigma 0.05] [--artifact model.qsnca]
//! qsnc serve     --artifact model.qsnca [--artifact canary=other.qsnca]... \
//!                [--addr 127.0.0.1:7643] [--admin 127.0.0.1:0] [--quota N]
//! qsnc hardware  --model alexnet --bits 4 [--crossbar 32] [--pipelined]
//! qsnc info
//! ```
//!
//! Every run is deterministic given `--seed`.

use qsnc::core::{deploy_to_snc, export_artifact, train_quant_aware, QuantConfig, TrainSettings};
use qsnc::data::{synth_digits, synth_objects, Dataset};
use qsnc::memristor::{network_geometry, ExecutionMode, HwModel};
use qsnc::nn::train::evaluate;
use qsnc::nn::{load_params, save_params, ModelKind, Sequential};
use qsnc::quant::{insert_signal_stages, ActivationQuantizer, ActivationRegularizer};
use qsnc::tensor::TensorRng;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
qsnc — data quantization-aware deep networks for spiking neuromorphic systems

USAGE:
  qsnc <command> [--key value]...

COMMANDS:
  train      train a quantization-aware model and save a checkpoint
  evaluate   evaluate a saved checkpoint (software-quantized accuracy)
  deploy     compile a checkpoint onto the memristor substrate and measure
  serve      serve a .qsnca deployment artifact over TCP (no training stack)
  hardware   print the Table-5 style speed/energy/area model for a topology
  info       print the workspace's reproduction summary

COMMON OPTIONS:
  --model lenet|alexnet|resnet   network topology        [lenet]
  --bits N                       signal & weight bits    [4]
  --width F                      channel width multiple  [0.5]
  --epochs N                     training epochs         [4]
  --examples N                   dataset size            [4000]
  --seed N                       RNG seed                [2018]
  --checkpoint PATH / --out PATH checkpoint file
  --crossbar N                   crossbar edge (hardware) [32]
  --pipelined                    pipelined schedule (hardware)
  --write-sigma F                device write variation (deploy) [0]
  --artifact PATH                .qsnca artifact to write (deploy) or serve;
                                 `serve` falls back to QSNC_SERVE_ARTIFACT
                                 (a comma-separated list of the same syntax)
  --artifact NAME=PATH           (serve, repeatable) register the artifact
                                 under model NAME; the first artifact is the
                                 default model that v1/v2 clients reach
  --addr HOST:PORT               serve listen address [127.0.0.1:7643]
  --admin HOST:PORT              serve admin endpoint (metrics, GET /models,
                                 POST /models/swap); off by default
  --quota N                      serve per-model admission quota (default:
                                 unlimited; per-model Busy above it)
";

/// Parsed command-line arguments: a command plus `--key value` pairs.
/// Repeating an option accumulates values in order (`--artifact a
/// --artifact b`); single-valued accessors take the last occurrence.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: String,
    options: HashMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// Splits raw arguments into a command, `--key value` options, and bare
/// `--flag`s. Returns an error message for malformed input.
fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut iter = raw.iter().peekable();
    let command = iter
        .next()
        .ok_or_else(|| "missing command".to_string())?
        .clone();
    if command.starts_with("--") {
        return Err(format!("expected a command before {command}"));
    }
    let mut options: HashMap<String, Vec<String>> = HashMap::new();
    let mut flags = Vec::new();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected positional argument {arg}"))?;
        match iter.peek() {
            Some(next) if !next.starts_with("--") => {
                options
                    .entry(key.to_string())
                    .or_default()
                    .push(iter.next().unwrap().clone());
            }
            _ => flags.push(key.to_string()),
        }
    }
    Ok(Args {
        command,
        options,
        flags,
    })
}

impl Args {
    /// Last occurrence of a single-valued option, or `None`.
    fn get(&self, key: &str) -> Option<&String> {
        self.options.get(key).and_then(|v| v.last())
    }

    /// Every occurrence of a repeatable option, in command-line order.
    fn all(&self, key: &str) -> &[String] {
        self.options.get(key).map_or(&[], Vec::as_slice)
    }

    fn get_or(&self, key: &str, default: &str) -> String {
        self.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

fn model_kind(name: &str) -> Result<ModelKind, String> {
    match name.to_ascii_lowercase().as_str() {
        "lenet" => Ok(ModelKind::Lenet),
        "alexnet" => Ok(ModelKind::Alexnet),
        "resnet" => Ok(ModelKind::Resnet),
        other => Err(format!("unknown model {other} (expected lenet|alexnet|resnet)")),
    }
}

fn dataset_for(kind: ModelKind, n: usize, rng: &mut TensorRng) -> Dataset {
    match kind {
        ModelKind::Lenet => synth_digits(n, rng),
        _ => synth_objects(n, rng),
    }
}

/// Rebuilds the quantized topology used by train/evaluate/deploy.
fn build_quantized_topology(
    kind: ModelKind,
    width: f32,
    bits: u32,
    classes: usize,
    seed: u64,
) -> Sequential {
    let mut rng = TensorRng::seed(seed);
    let mut net = qsnc::nn::models::build_model(kind, width, classes, &mut rng);
    let (switch, _) = insert_signal_stages(
        &mut net,
        ActivationRegularizer::neuron_convergence(bits),
        0.0,
        ActivationQuantizer::new(bits),
    );
    switch.set_enabled(true);
    net
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let kind = model_kind(&args.get_or("model", "lenet"))?;
    let bits: u32 = args.parse_or("bits", 4)?;
    let width: f32 = args.parse_or("width", 0.5)?;
    let epochs: usize = args.parse_or("epochs", 4)?;
    let examples: usize = args.parse_or("examples", 4000)?;
    let seed: u64 = args.parse_or("seed", 2018)?;
    let out = args.get_or("out", "model.qsnc");

    let mut rng = TensorRng::seed(seed);
    let (train, test) = dataset_for(kind, examples, &mut rng).split(0.8);
    let settings = TrainSettings {
        epochs,
        verbose: true,
        ..TrainSettings::default()
    };
    let quant = QuantConfig::paper(bits, bits);
    eprintln!("training {bits}-bit quantization-aware {kind} (width {width})…");
    let mut model = train_quant_aware(kind, width, &settings, &quant, &train, &test, seed);
    println!("fp32-signal accuracy : {:.2}%", model.float_accuracy * 100.0);
    println!("quantized accuracy   : {:.2}%", model.quantized_accuracy * 100.0);

    let file = std::fs::File::create(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    save_params(&mut model.net, file).map_err(|e| e.to_string())?;
    println!("checkpoint written to {out}");
    Ok(())
}

/// Loaded checkpoint state: the restored network plus the config it was
/// rebuilt under and the FNV-1a-64 digest of the exact checkpoint bytes
/// (artifact provenance).
struct LoadedCheckpoint {
    net: Sequential,
    kind: ModelKind,
    bits: u32,
    seed: u64,
    examples: usize,
    digest: u64,
}

fn load_into_topology(args: &Args) -> Result<LoadedCheckpoint, String> {
    let kind = model_kind(&args.get_or("model", "lenet"))?;
    let bits: u32 = args.parse_or("bits", 4)?;
    let width: f32 = args.parse_or("width", 0.5)?;
    let seed: u64 = args.parse_or("seed", 2018)?;
    let examples: usize = args.parse_or("examples", 4000)?;
    let path = args
        .get("checkpoint")
        .ok_or_else(|| "--checkpoint is required".to_string())?;
    let mut net = build_quantized_topology(kind, width, bits, 10, seed);
    // One read serves both the parameter restore and the provenance digest,
    // so the digest is over the exact bytes that shaped the network.
    let bytes = std::fs::read(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let digest = qsnc::nn::checkpoint_digest(&bytes);
    load_params(&mut net, bytes.as_slice()).map_err(|e| e.to_string())?;
    Ok(LoadedCheckpoint { net, kind, bits, seed, examples, digest })
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let LoadedCheckpoint { mut net, kind, seed, examples, .. } = load_into_topology(args)?;
    let mut rng = TensorRng::seed(seed);
    let (_, test) = dataset_for(kind, examples, &mut rng).split(0.8);
    let acc = evaluate(&mut net, &test.batches(64, None));
    println!("software-quantized accuracy: {:.2}%", acc * 100.0);
    Ok(())
}

fn cmd_deploy(args: &Args) -> Result<(), String> {
    let LoadedCheckpoint { net, kind, bits, seed, examples, digest } = load_into_topology(args)?;
    let write_sigma: f32 = args.parse_or("write-sigma", 0.0)?;
    let quant = QuantConfig::paper(bits, bits);
    let snn = if write_sigma > 0.0 {
        let mut cfg = qsnc::memristor::DeployConfig::paper(bits, bits);
        cfg.device = cfg.device.with_noise(write_sigma, 0.0);
        let mut noise_rng = TensorRng::seed(seed ^ 0xdead);
        qsnc::memristor::SpikingNetwork::compile(&net, &cfg, Some(&mut noise_rng))
            .map_err(|e| e.to_string())?
    } else {
        deploy_to_snc(&net, &quant, None).map_err(|e| e.to_string())?
    };
    println!(
        "deployed on {} crossbars / {} devices (write σ = {write_sigma})",
        snn.crossbar_count(),
        snn.device_count()
    );
    if let Some(artifact) = args.get("artifact") {
        export_artifact(&snn, kind, &quant, digest, artifact)
            .map_err(|e| format!("cannot write artifact {artifact}: {e}"))?;
        println!("artifact written to {artifact} (checkpoint digest {digest:016x})");
    }
    let mut rng = TensorRng::seed(seed);
    let (_, test) = dataset_for(kind, examples, &mut rng).split(0.8);
    let sample = test.batches(100, None);
    let acc = snn.evaluate(&sample[..1], None);
    println!("spiking accuracy on 100 examples: {:.2}%", acc * 100.0);
    Ok(())
}

/// Splits one `--artifact` value into `(model name, path)`: `NAME=PATH`
/// registers under `NAME` (only when the part before `=` looks like a
/// name, not a path), a bare `PATH` registers under `default`.
fn artifact_spec(raw: &str) -> (String, String) {
    match raw.split_once('=') {
        Some((name, path))
            if !name.is_empty() && !name.contains('/') && !name.contains('\\') =>
        {
            (name.to_string(), path.to_string())
        }
        _ => ("default".to_string(), raw.to_string()),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    // --artifact (repeatable) wins; QSNC_SERVE_ARTIFACT — a comma-separated
    // list of the same NAME=PATH / PATH syntax — lets process supervisors
    // point a plain `qsnc serve` at the deployment artifacts.
    let raw_artifacts: Vec<String> = if args.all("artifact").is_empty() {
        std::env::var("QSNC_SERVE_ARTIFACT")
            .map_err(|_| "--artifact (or QSNC_SERVE_ARTIFACT) is required".to_string())?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    } else {
        args.all("artifact").to_vec()
    };
    if raw_artifacts.is_empty() {
        return Err("--artifact (or QSNC_SERVE_ARTIFACT) is required".to_string());
    }
    let addr = args.get_or("addr", "127.0.0.1:7643");

    let mut specs = Vec::with_capacity(raw_artifacts.len());
    for raw in &raw_artifacts {
        let (name, path) = artifact_spec(raw);
        let spec = qsnc::serve::ModelSpec::from_artifact(name, &path)
            .map_err(|e| format!("cannot load artifact {path}: {e}"))?;
        eprintln!(
            "loaded model '{}' from {path} ({} input dims, checkpoint digest {:016x})",
            spec.name,
            spec.input_dims.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("x"),
            spec.checkpoint_digest,
        );
        specs.push(spec);
    }

    let mut config = qsnc::serve::ServeConfig::from_env();
    if let Some(admin) = args.get("admin") {
        config.admin_addr = Some(admin.clone());
    }
    if let Some(quota) = args.get("quota") {
        let quota: usize = quota
            .parse()
            .map_err(|_| format!("invalid value for --quota: {quota}"))?;
        config.model_quota = Some(quota.max(1));
    }
    let server = qsnc::serve::Server::spawn_models(specs, addr.as_str(), config)
        .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    // Flushed lines with the resolved addresses: supervisors and tests
    // parse these to learn the ephemeral ports.
    println!("listening on {}", server.local_addr());
    if let Some(admin) = server.admin_local_addr() {
        println!("admin on {admin}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until killed; the server threads own all the work.
    loop {
        std::thread::park();
    }
}

fn cmd_hardware(args: &Args) -> Result<(), String> {
    let kind = model_kind(&args.get_or("model", "lenet"))?;
    let bits: u32 = args.parse_or("bits", 4)?;
    let width: f32 = args.parse_or("width", 1.0)?;
    let crossbar: usize = args.parse_or("crossbar", 32)?;
    let mode = if args.has_flag("pipelined") {
        ExecutionMode::Pipelined
    } else {
        ExecutionMode::LayerSequential
    };
    let mut rng = TensorRng::seed(0);
    let net = qsnc::nn::models::build_model(kind, width, 10, &mut rng);
    let geo = network_geometry(&net.synaptic_descriptors(), crossbar);
    let model = HwModel::calibrated();
    let r = model.evaluate_with_mode(&geo, bits, bits, mode);
    let base = model.evaluate(&geo, 8, 8);
    println!("{kind} @ {bits}-bit, {crossbar}×{crossbar} crossbars, {mode:?}:");
    println!("  layers     : {}", r.layers);
    println!("  crossbars  : {}", r.crossbars);
    println!("  speed      : {:.2} MHz ({:.1}× vs 8-bit)", r.speed_mhz, r.speedup_over(&base));
    println!("  energy     : {:.2} µJ ({:.1}% saving)", r.energy_uj, r.energy_saving_over(&base) * 100.0);
    println!("  area       : {:.2} mm² ({:.1}% saving)", r.area_mm2, r.area_saving_over(&base) * 100.0);
    Ok(())
}

fn cmd_info() -> Result<(), String> {
    println!("qsnc {}", env!("CARGO_PKG_VERSION"));
    println!("reproduction of Liu & Liu, DAC 2018 (arXiv:1805.03054)");
    println!("see DESIGN.md for the system inventory and EXPERIMENTS.md for");
    println!("paper-vs-measured results; regenerate tables with qsnc-bench bins.");
    Ok(())
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        println!("{USAGE}");
        return Ok(());
    }
    let args = parse_args(&raw)?;
    match args.command.as_str() {
        "train" => cmd_train(&args),
        "evaluate" => cmd_evaluate(&args),
        "deploy" => cmd_deploy(&args),
        "serve" => cmd_serve(&args),
        "hardware" => cmd_hardware(&args),
        "info" => cmd_info(),
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_command_with_options_and_flags() {
        let a = parse_args(&args(&["train", "--model", "alexnet", "--pipelined", "--bits", "3"]))
            .unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("model"), Some(&"alexnet".to_string()));
        assert_eq!(a.get("bits"), Some(&"3".to_string()));
        assert!(a.has_flag("pipelined"));
    }

    #[test]
    fn repeated_options_accumulate_in_order() {
        let a = parse_args(&args(&[
            "serve", "--artifact", "a.qsnca", "--artifact", "canary=b.qsnca", "--addr", "x",
            "--addr", "y",
        ]))
        .unwrap();
        assert_eq!(a.all("artifact"), ["a.qsnca", "canary=b.qsnca"]);
        // Single-valued accessors take the last occurrence.
        assert_eq!(a.get_or("addr", "z"), "y");
        assert!(a.all("missing").is_empty());
    }

    #[test]
    fn artifact_specs_split_names_from_paths() {
        assert_eq!(artifact_spec("model.qsnca"), ("default".into(), "model.qsnca".into()));
        assert_eq!(artifact_spec("canary=b.qsnca"), ("canary".into(), "b.qsnca".into()));
        // A path containing '=' after a '/' is a path, not a name.
        assert_eq!(
            artifact_spec("/tmp/run=3/m.qsnca"),
            ("default".into(), "/tmp/run=3/m.qsnca".into())
        );
        assert_eq!(artifact_spec("=x.qsnca"), ("default".into(), "=x.qsnca".into()));
    }

    #[test]
    fn missing_command_is_error() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--model", "lenet"])).is_err());
    }

    #[test]
    fn positional_arguments_rejected() {
        let err = parse_args(&args(&["train", "whoops"])).unwrap_err();
        assert!(err.contains("positional"));
    }

    #[test]
    fn defaults_and_parse_or() {
        let a = parse_args(&args(&["train", "--bits", "5"])).unwrap();
        assert_eq!(a.parse_or("bits", 4u32).unwrap(), 5);
        assert_eq!(a.parse_or("epochs", 4usize).unwrap(), 4);
        assert_eq!(a.get_or("model", "lenet"), "lenet");
    }

    #[test]
    fn invalid_numeric_value_is_reported() {
        let a = parse_args(&args(&["train", "--bits", "many"])).unwrap();
        let err = a.parse_or("bits", 4u32).unwrap_err();
        assert!(err.contains("--bits"));
    }

    #[test]
    fn model_kind_parsing() {
        assert_eq!(model_kind("LeNet").unwrap(), ModelKind::Lenet);
        assert_eq!(model_kind("resnet").unwrap(), ModelKind::Resnet);
        assert!(model_kind("vgg").is_err());
    }
}
