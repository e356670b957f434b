//! `train_deploy`: the reproduction path. Each repetition trains the
//! seeded 4-bit LeNet quantization-aware, deploys it, encodes and decodes
//! its `.qsnca` artifact, and checks the decoded engine against the
//! in-process one on the held-out split. Between repetitions, a `qsnc serve`
//! child serving the first repetition's artifact takes the open-loop ladder.

use crate::layers::{self, recorded};
use crate::model;
use crate::open_loop;
use crate::report::{Metrics, Tally};
use crate::server::{Served, ServerView};
use crate::trace::{self, Tracer};
use crate::{Ctx, Phase, Workload};
use qsnc_core::{deploy_to_snc, QuantizedModel};
use qsnc_data::Dataset;
use qsnc_memristor::{decode_artifact, encode_artifact, SpikingNetwork};
use qsnc_tensor::TensorRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Dataset generations and model builds timed for `setup_s` before the
/// first pass, and between passes of the ladder, so the set-up samples span
/// the run.
const SETUP_REPS: usize = 5;
const SETUP_REPS_PER_PASS: usize = 2;
/// Share of a phase's time spent repeating the pipeline, split evenly
/// between the ladder's passes; the ladder takes the rest.
const PIPELINE_SHARE: f64 = 0.45;

pub struct TrainDeploy {
    seed: u64,
    train: Dataset,
    held_out: Dataset,
    inputs: Vec<Vec<f32>>,
    setup_s: Vec<f64>,
    model: Option<QuantizedModel>,
    /// The `qsnc` binary, and where the served artifact is written.
    qsnc: PathBuf,
    artifact: PathBuf,
    epoch: Instant,
}

/// One pass of the pipeline after training: the artifact, the network
/// decoded from it, the in-process engine's logits it must reproduce, and
/// how many differ.
struct Verified {
    bytes: Vec<u8>,
    net: SpikingNetwork,
    expected: Vec<Vec<f32>>,
    mismatches: u64,
}

/// The timed set-up: the seeded dataset and an untrained model.
fn set_up(seed: u64) -> (f64, Dataset, Dataset) {
    let t0 = Instant::now();
    let (train, held_out) = model::dataset(seed);
    let net = qsnc_nn::models::build_model(
        model::KIND,
        model::WIDTH,
        train.classes(),
        &mut TensorRng::seed(seed),
    );
    let secs = t0.elapsed().as_secs_f64();
    drop(net);
    (secs, train, held_out)
}

impl TrainDeploy {
    pub fn prepare(ctx: &Ctx) -> Result<TrainDeploy, String> {
        let mut setup_s = Vec::new();
        let mut data = None;
        for _ in 0..SETUP_REPS {
            let (secs, train, held_out) = set_up(ctx.seed);
            setup_s.push(secs);
            data = Some((train, held_out));
        }
        let (train, held_out) = data.expect("at least one setup rep");
        let inputs = model::inputs(&held_out);
        Ok(TrainDeploy {
            seed: ctx.seed,
            train,
            held_out,
            inputs,
            setup_s,
            model: None,
            qsnc: ctx.qsnc.clone(),
            artifact: ctx.out_dir.join("train_deploy.qsnca"),
            epoch: ctx.epoch,
        })
    }

    fn pipeline(
        &self,
        tracer: &mut Tracer,
        rep: u64,
    ) -> Result<(QuantizedModel, Verified), String> {
        let root = trace::next_id();
        let t0 = Instant::now();
        let quant = model::quant();
        let model = tracer.time("core.train_quant_aware", root, rep, || {
            model::train(self.seed, &self.train, &self.held_out)
        });
        let snn = tracer
            .time("core.deploy_to_snc", root, rep, || {
                deploy_to_snc(&model.net, &quant, None)
            })
            .map_err(|e| format!("deploy: {e:?}"))?;
        let provenance = model::provenance();
        let dims = model::KIND.input_dims();
        let bytes = tracer
            .time("memristor.encode_artifact", root, rep, || {
                encode_artifact(&snn, &dims, &provenance)
            })
            .map_err(|e| format!("encode: {e:?}"))?;
        let loaded = tracer
            .time("memristor.decode_artifact", root, rep, || {
                decode_artifact(&bytes)
            })
            .map_err(|e| format!("decode: {e:?}"))?;
        let verified = tracer.time("bench.verify", root, rep, || {
            let (expected, _) = model::logits_of(&snn, &self.inputs);
            let (got, _) = model::logits_of(&loaded.network, &self.inputs);
            let mismatches = expected
                .iter()
                .zip(&got)
                .filter(|(a, b)| !model::same_bits(a, b))
                .count() as u64;
            Verified {
                bytes: bytes.clone(),
                net: loaded.network,
                expected: got,
                mismatches,
            }
        });
        tracer.record("pipeline", root, 0, rep, t0, Instant::now());
        Ok((model, verified))
    }
}

impl Workload for TrainDeploy {
    fn setup_s(&self) -> &[f64] {
        &self.setup_s
    }

    fn phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Result<Phase, String> {
        let mut setup_s = std::mem::take(&mut self.setup_s);
        let run = |tracer: &mut Tracer, setup_s: &mut Vec<f64>| -> Result<_, String> {
            let share = budget.mul_f64(PIPELINE_SHARE / open_loop::PASSES as f64);
            let (mut rates, mut mismatches, mut last) = (Vec::new(), 0, None);
            let mut ladder = open_loop::Ladder::new(
                budget.mul_f64(1.0 - PIPELINE_SHARE),
                self.seed,
                self.inputs.len(),
            );
            let mut served: Option<(Served, Vec<Vec<f32>>, bool)> = None;
            let mut view = ServerView::default();
            for pass in 0..open_loop::PASSES {
                let started = Instant::now();
                loop {
                    let t0 = Instant::now();
                    let (model, verified) = self.pipeline(tracer, rates.len() as u64)?;
                    rates.push(
                        model::examples_trained(&self.train) as f64 / t0.elapsed().as_secs_f64(),
                    );
                    mismatches += verified.mismatches;
                    last = Some((model, verified));
                    if started.elapsed() >= share {
                        break;
                    }
                }
                for _ in 0..SETUP_REPS_PER_PASS {
                    setup_s.push(set_up(self.seed).0);
                }
                if served.is_none() {
                    let verified = &last.as_ref().expect("a pipeline rep ran").1;
                    std::fs::write(&self.artifact, &verified.bytes)
                        .map_err(|e| format!("{}: {e}", self.artifact.display()))?;
                    let (s, first) = Served::start(&self.qsnc, &self.artifact, &self.inputs[0])?;
                    let expected = verified.expected.clone();
                    let first_ok = model::same_bits(&first, &expected[0]);
                    served = Some((s, expected, first_ok));
                }
                let (s, expected, _) = served.as_mut().expect("started above");
                s.warm_up(
                    self.seed.wrapping_add(pass as u64),
                    &self.inputs,
                    expected,
                    self.epoch,
                )?;
                let mut scrape_err = None;
                ladder.pass(pass, |rps, arrivals| {
                    let (samples, late, _) = s.rung(arrivals, &self.inputs, expected, tracer);
                    let deadline = arrivals.last().map_or(0, |a| a.due_ns)
                        + open_loop::REPLY_GRACE.as_nanos() as u64;
                    if let Err(e) = view.scrape(s.server.admin, pass, rps) {
                        scrape_err = Some(e);
                    }
                    open_loop::Rung::summarize(rps, &samples, &late, deadline)
                });
                if let Some(e) = scrape_err {
                    return Err(e);
                }
            }
            let (model, verified) = last.expect("at least one pipeline rep");
            let first_reply_ok = served.is_some_and(|(_, _, ok)| ok);
            Ok((
                rates,
                mismatches,
                model,
                verified,
                ladder.finish(),
                first_reply_ok,
                view,
            ))
        };
        let (result, snap) = if tracer.is_on() {
            recorded(|| run(tracer, &mut setup_s))
        } else {
            (run(tracer, &mut setup_s), Default::default())
        };
        self.setup_s = setup_s;
        let (rates, mismatches, model, verified, rungs, first_reply_ok, view) = result?;
        view.print();
        let reps = rates.len() as u64;

        let mut e2e = open_loop::ladder_metrics(&rungs);
        e2e.put("throughput_img_s", crate::stats::median(&rates));
        e2e.put(
            "accuracy",
            model::accuracy(&verified.expected, self.held_out.labels()),
        );
        e2e.put("peak_rss_mb", crate::peak_rss_mb("/proc/self/status"));
        let ladder = open_loop::ladder_tally(&rungs);
        let verified_images = reps * self.inputs.len() as u64;
        // The served artifact's first reply counts as one more operation.
        let tally = Tally {
            attempted: verified_images + 1 + ladder.attempted,
            failed: mismatches + u64::from(!first_reply_ok) + ladder.failed,
            correct: mismatches == 0 && first_reply_ok && ladder.correct,
        };
        println!(
            "train_deploy: {reps} pipeline reps, {} examples trained each",
            model::examples_trained(&self.train)
        );

        let mut layers = Metrics::default();
        layers.put(
            "memristor.fast_path",
            f64::from(u8::from(verified.net.has_fast_path())),
        );
        open_loop::tail_metrics(&rungs, &mut layers);
        view.put_layers(&rungs, &mut layers);
        // Training runs in this process, and the engine only to verify each
        // artifact.
        layers::inference_counters(&snap, (2 * verified_images) as f64, &mut layers);
        layers.put(
            "nn.forward.zero_frac",
            layers::ratio(
                layers::counter(&snap, "nn.forward.zeros"),
                layers::counter(&snap, "nn.forward.elements"),
            ),
        );
        let signal = layers::counter(&snap, "quant.signal.elements");
        layers.put(
            "quant.signal.saturated_frac",
            layers::ratio(layers::counter(&snap, "quant.signal.saturated"), signal),
        );
        layers.put(
            "quant.signal.zero_frac",
            layers::ratio(layers::counter(&snap, "quant.signal.zeros"), signal),
        );
        let engine = view.engine_times(&rungs);
        self.model = Some(model);
        Ok(Phase {
            e2e,
            layers,
            tally,
            rungs,
            engine,
        })
    }

    fn model(&mut self) -> &mut QuantizedModel {
        self.model.as_mut().expect("a phase trained the model")
    }

    fn inputs(&self) -> &[Vec<f32>] {
        &self.inputs
    }
}
