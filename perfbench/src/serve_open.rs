//! `serve_open`: the operator path. A `qsnc serve` child process serves a
//! `.qsnca` artifact of the seeded network; one tagged connection carries
//! open-loop Poisson load up the rate ladder, and every Ok reply is checked
//! bit for bit against the in-process engine.

use crate::layers::{counter, inference_counters};
use crate::model::{self, SERVE_BATCH};
use crate::open_loop::{self, Arrival, Outcome, Rung, REPLY_GRACE};
use crate::report::{Metrics, Tally};
use crate::server::{Served, ServerView};
use crate::trace::{self, Tracer};
use crate::{Ctx, Phase, Workload};
use qsnc_core::{deploy_to_snc, export_artifact, QuantizedModel};
use qsnc_memristor::SpikingNetwork;
use qsnc_serve::protocol::{self, encode_ok_reply, parse_frame, write_request_tagged};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups timed for `setup_s` before the ladder (the last one's server
/// serves it), and between passes of the ladder with a server that is
/// stopped again at once, so the set-up samples span the run.
const SETUP_REPS: usize = 7;
const SETUP_REPS_PER_PASS: usize = 3;
/// Requests of the 2000 rps rung replayed in-process by the traced run.
const REPLAY_SAMPLE: usize = 512;
/// Requests of the saturated burst after each rung of each pass;
/// `throughput_img_s` is the median rate over all of their windows. The
/// shared host runs this machine's CPUs at one of two speeds, about a
/// factor of two apart, for spells of a tenth of a second or more, so many
/// short bursts spread over the run sample both in proportion.
const BURST: usize = 600;

pub struct ServeOpen {
    seed: u64,
    model: QuantizedModel,
    inputs: Vec<Vec<f32>>,
    expected: Vec<Vec<f32>>,
    accuracy: f64,
    /// The artifact as the server loaded it, for the in-process replay.
    loaded: SpikingNetwork,
    served: Served,
    setup_s: Vec<f64>,
    /// The `qsnc` binary, and where set-ups between passes write their
    /// artifact.
    qsnc: PathBuf,
    rep_artifact: PathBuf,
    first_reply_ok: bool,
    epoch: Instant,
}

/// One timed set-up: deploy, artifact write, and server spawn to its first
/// Ok reply. Returns the time, the server and that reply's logits.
fn set_up(
    qsnc: &Path,
    model: &QuantizedModel,
    first_input: &[f32],
    artifact: &Path,
) -> Result<(f64, Served, Vec<f32>), String> {
    let quant = model::quant();
    let t0 = Instant::now();
    let snn = deploy_to_snc(&model.net, &quant, None).map_err(|e| format!("deploy: {e:?}"))?;
    export_artifact(&snn, model::KIND, &quant, 0, artifact)
        .map_err(|e| format!("artifact: {e:?}"))?;
    let (served, logits) = Served::start(qsnc, artifact, first_input)?;
    Ok((t0.elapsed().as_secs_f64(), served, logits))
}

impl ServeOpen {
    pub fn prepare(ctx: &Ctx) -> Result<ServeOpen, String> {
        let (train, held_out) = model::dataset(ctx.seed);
        let model = model::train(ctx.seed, &train, &held_out);
        let inputs = model::inputs(&held_out);
        let artifact = ctx.out_dir.join("serve_open.qsnca");
        let mut setup_s = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take()); // the previous rep's server is killed outside the timing
            let (secs, served, logits) = set_up(&ctx.qsnc, &model, &inputs[0], &artifact)?;
            setup_s.push(secs);
            kept = Some((served, logits));
        }
        let (served, first_logits) = kept.expect("at least one setup rep");
        let loaded = qsnc_memristor::load_artifact(&artifact)
            .map_err(|e| format!("load artifact: {e:?}"))?;
        let (expected, _) = model::logits_of(&loaded.network, &inputs);
        let accuracy = model::accuracy(&expected, held_out.labels());
        let first_reply_ok = model::same_bits(&first_logits, &expected[0]);
        Ok(ServeOpen {
            seed: ctx.seed,
            model,
            inputs,
            expected,
            accuracy,
            loaded: loaded.network,
            served,
            setup_s,
            qsnc: ctx.qsnc.clone(),
            rep_artifact: ctx.out_dir.join("set_up_rep.qsnca"),
            first_reply_ok,
            epoch: ctx.epoch,
        })
    }

    /// Replays a sample of `arrivals` through the in-process public calls
    /// the server makes, at the server's mean batch size, under spans.
    fn replay(
        &self,
        arrivals: &[Arrival],
        batch_size: usize,
        tag_base: u32,
        tracer: &mut Tracer,
    ) -> bool {
        let net = &self.loaded;
        let input_len = self.inputs[0].len();
        let (mut frame, mut reply, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut all_match = true;
        for (c, chunk) in arrivals
            .chunks(batch_size.max(1))
            .take(REPLAY_SAMPLE / batch_size.max(1))
            .enumerate()
        {
            let batch_id = trace::next_id();
            let t0 = Instant::now();
            let mut decoded = Vec::with_capacity(chunk.len());
            for (k, a) in chunk.iter().enumerate() {
                let tag = tag_base + (c * batch_size + k) as u32;
                frame.clear();
                write_request_tagged(&mut frame, tag, &self.inputs[a.input as usize])
                    .expect("Vec write");
                let mut input = Vec::with_capacity(input_len);
                tracer.time("serve.protocol.decode", batch_id, u64::from(tag), || {
                    let view = parse_frame(&frame).expect("well-formed").expect("complete");
                    let payload = &frame[view.payload_start..view.payload_start + view.payload_len];
                    protocol::decode_infer_payload(view.op, payload, input_len, &mut input)
                        .expect("valid");
                });
                decoded.push(input);
            }
            let ids: Vec<u32> = (0..decoded.len() as u32).collect();
            tracer.time(
                "memristor.infer_batch",
                batch_id,
                u64::from(tag_base),
                || net.infer_batch_into(&model::batch(&decoded, &ids), &mut out),
            );
            let per = out.len() / chunk.len();
            for (k, a) in chunk.iter().enumerate() {
                let logits = &out[k * per..(k + 1) * per];
                all_match &= model::same_bits(logits, &self.expected[a.input as usize]);
                let tag = tag_base + (c * batch_size + k) as u32;
                reply.clear();
                tracer.time("serve.protocol.encode", batch_id, u64::from(tag), || {
                    encode_ok_reply(&mut reply, Some(tag), model::argmax(logits) as u32, logits)
                });
            }
            tracer.record(
                "replay.batch",
                batch_id,
                0,
                u64::from(tag_base),
                t0,
                Instant::now(),
            );
        }
        all_match
    }
}

impl Workload for ServeOpen {
    fn setup_s(&self) -> &[f64] {
        &self.setup_s
    }

    fn phase(&mut self, budget: Duration, tracer: &mut Tracer) -> Result<Phase, String> {
        let mut view = ServerView::default();
        let mut ladder_arrivals: Vec<(usize, u32, Vec<Arrival>, u32)> = Vec::new();
        let admin = self.served.server.admin;
        let mut scrape_err = None;
        let mut bad_set_ups = 0;
        let mut ladder = open_loop::Ladder::new(budget, self.seed, self.inputs.len());
        let mut saturated = Vec::new();
        let mut burst_tally = Tally {
            correct: true,
            ..Tally::default()
        };
        for pass in 0..open_loop::PASSES {
            for _ in 0..SETUP_REPS_PER_PASS {
                let (secs, served, logits) =
                    set_up(&self.qsnc, &self.model, &self.inputs[0], &self.rep_artifact)?;
                drop(served);
                self.setup_s.push(secs);
                bad_set_ups += u64::from(!model::same_bits(&logits, &self.expected[0]));
            }
            let pass_seed = self.seed.wrapping_add(pass as u64);
            self.served
                .warm_up(pass_seed, &self.inputs, &self.expected, self.epoch)?;
            ladder.pass(pass, |rps, arrivals| {
                let (samples, late, tag_base) =
                    self.served
                        .rung(arrivals, &self.inputs, &self.expected, tracer);
                let deadline =
                    arrivals.last().map_or(0, |a| a.due_ns) + REPLY_GRACE.as_nanos() as u64;
                if let Err(e) = view.scrape(admin, pass, rps) {
                    scrape_err = Some(e);
                }
                ladder_arrivals.push((pass, rps, arrivals.to_vec(), tag_base));
                let rung = Rung::summarize(rps, &samples, &late, deadline);
                let burst_seed = pass_seed ^ (u64::from(rps) << 20);
                match self
                    .served
                    .burst(burst_seed, BURST, &self.inputs, &self.expected, tracer)
                {
                    Ok(samples) => {
                        saturated.extend(open_loop::saturated_rates(&samples));
                        let ok = samples.iter().filter(|s| s.outcome == Outcome::Ok);
                        let ok = ok.count() as u64;
                        burst_tally.attempted += samples.len() as u64;
                        burst_tally.failed += samples.len() as u64 - ok;
                        burst_tally.correct &= samples.iter().all(|s| s.outcome != Outcome::Wrong);
                    }
                    Err(e) => scrape_err = Some(e),
                }
                rung
            });
        }
        let rungs = ladder.finish();
        if let Some(e) = scrape_err {
            return Err(e);
        }
        view.print();
        let saturated = crate::stats::sorted(saturated);
        let q = |q: f64| crate::stats::quantile(&saturated, q);
        println!(
            "saturated bursts: {} windows, Ok replies per second p10 {:.0} p50 {:.0} p90 {:.0} p95 {:.0} max {:.0}",
            saturated.len(),
            q(0.1),
            q(0.5),
            q(0.9),
            q(0.95),
            q(1.0)
        );
        let mut e2e = open_loop::ladder_metrics(&rungs);
        e2e.put("throughput_img_s", q(0.5));
        e2e.put("accuracy", self.accuracy);
        e2e.put("peak_rss_mb", self.served.server.peak_rss_mb());

        // The first reply of every set-up counts as one more operation.
        let ladder = open_loop::ladder_tally(&rungs);
        let set_ups = SETUP_REPS_PER_PASS * open_loop::PASSES;
        let mut tally = Tally {
            attempted: 1 + set_ups as u64 + ladder.attempted + burst_tally.attempted,
            failed: u64::from(!self.first_reply_ok)
                + bad_set_ups
                + ladder.failed
                + burst_tally.failed,
            correct: self.first_reply_ok
                && bad_set_ups == 0
                && ladder.correct
                && burst_tally.correct,
        };

        let mut layers = Metrics::default();
        open_loop::tail_metrics(&rungs, &mut layers);
        view.put_layers(&rungs, &mut layers);
        let all = view.total();
        inference_counters(&all, counter(&all, "snc.engine.infer"), &mut layers);
        layers.put(
            "memristor.fast_path",
            f64::from(u8::from(self.loaded.has_fast_path())),
        );

        if tracer.is_on() {
            let best_2000 = open_loop::rung_at(&rungs, 2000).map(|r| r.best_pass);
            if let Some((_, _, arrivals, tag_base)) = ladder_arrivals
                .iter()
                .find(|(p, r, _, _)| Some(*p) == best_2000 && *r == 2000)
            {
                let size = view.batch_mean_at(&rungs, 2000).round().max(1.0) as usize;
                let size = size.min(SERVE_BATCH);
                println!(
                    "replaying {} requests of the 2000 rps rung in-process at batch size {size}",
                    REPLAY_SAMPLE.min(arrivals.len())
                );
                if !self.replay(arrivals, size, *tag_base, tracer) {
                    tally.correct = false;
                }
            }
        }
        Ok(Phase {
            e2e,
            layers,
            tally,
            engine: view.engine_times(&rungs),
            rungs,
        })
    }

    fn model(&mut self) -> &mut QuantizedModel {
        &mut self.model
    }

    fn inputs(&self) -> &[Vec<f32>] {
        &self.inputs
    }
}
